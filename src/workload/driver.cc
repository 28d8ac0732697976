#include "workload/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "engine/result_stream.h"
#include "engine/status.h"
#include "engine/ticket.h"
#include "net/client.h"
#include "net/wire.h"
#include "obs/names.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace adp::workload {

namespace {

using std::chrono::milliseconds;

/// Per-thread outcome accumulator, merged after the run.
struct Tally {
  DriverOutcomes o;
  std::int64_t checksum = 0;

  void Request(StatusCode code, std::int64_t cost, std::int64_t outputs) {
    ++o.issued;
    switch (code) {
      case StatusCode::kOk:
        ++o.ok;
        checksum += cost + outputs;
        break;
      case StatusCode::kCancelled: ++o.cancelled; break;
      case StatusCode::kDeadlineExceeded: ++o.expired; break;
      case StatusCode::kOverloaded: ++o.shed; break;
      default: ++o.failed; break;
    }
  }

  void Request(const AdpResponse& r) {
    const AdpSolution& s = r.solution;
    Request(r.status.code(), r.ok() && s.feasible ? s.cost : 0,
            r.ok() ? s.output_count : 0);
  }

  void StreamTerminal(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: ++o.streams_ok; break;
      case StatusCode::kCancelled:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kShutdown: ++o.streams_torn_down; break;
      case StatusCode::kOverloaded: ++o.streams_shed; break;
      default: ++o.streams_failed; break;
    }
  }

  void Merge(const Tally& t) {
    o.issued += t.o.issued;
    o.ok += t.o.ok;
    o.cancelled += t.o.cancelled;
    o.expired += t.o.expired;
    o.shed += t.o.shed;
    o.failed += t.o.failed;
    o.streams_issued += t.o.streams_issued;
    o.streams_ok += t.o.streams_ok;
    o.streams_torn_down += t.o.streams_torn_down;
    o.streams_shed += t.o.streams_shed;
    o.streams_failed += t.o.streams_failed;
    o.stream_items += t.o.stream_items;
    checksum += t.checksum;
  }
};

/// This run's engine-side observations: after minus before, bucket-wise.
obs::HistogramSnapshot SnapshotDelta(const obs::HistogramSnapshot& after,
                                     const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d = after;
  for (std::size_t i = 0; i < d.buckets.size() && i < before.buckets.size();
       ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  return d;
}

/// Bounded slot pool for concurrently drained streams (open loop, net).
class Slots {
 public:
  explicit Slots(int n) : free_(n < 1 ? 1 : n) {}
  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return free_ > 0; });
    --free_;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++free_;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int free_;
};

StatusCode ParseWireStatus(const std::string& payload) {
  static constexpr const char kKey[] = "\"status\":\"";
  const std::size_t at = payload.find(kKey);
  if (at == std::string::npos) return StatusCode::kInternal;
  const std::size_t from = at + sizeof(kKey) - 1;
  const std::size_t end = payload.find('"', from);
  if (end == std::string::npos) return StatusCode::kInternal;
  const std::string name = payload.substr(from, end - from);
  for (int c = 0; c <= static_cast<int>(StatusCode::kOverloaded); ++c) {
    if (name == StatusCodeName(static_cast<StatusCode>(c))) {
      return static_cast<StatusCode>(c);
    }
  }
  return StatusCode::kInternal;
}

std::int64_t ParseWireInt(const std::string& payload, const char* key) {
  const std::size_t at = payload.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoll(payload.c_str() + at + std::strlen(key), nullptr, 10);
}

/// "DB <name> R1=v,v/v,v R2=..." for one family database.
std::string FormatDbLine(const std::string& db_name,
                         const NamedDatabase& named) {
  std::ostringstream out;
  out << "DB " << db_name;
  for (std::size_t r = 0; r < named.db.num_relations(); ++r) {
    const RelationInstance& rel = named.db.rel(r);
    out << ' ' << named.relation_names[r] << '=';
    for (std::size_t i = 0; i < rel.size(); ++i) {
      if (i > 0) out << '/';
      if (rel.arity() == 0) {
        out << "()";
        continue;
      }
      for (std::size_t j = 0; j < rel.arity(); ++j) {
        if (j > 0) out << ',';
        out << rel.ValueAt(i, j);
      }
    }
  }
  return out.str();
}

}  // namespace

bool OutcomesConsistent(const DriverOutcomes& o) {
  const bool requests_ok =
      o.issued == o.ok + o.cancelled + o.expired + o.shed + o.failed;
  const bool streams_ok_sum =
      o.streams_issued ==
      o.streams_ok + o.streams_torn_down + o.streams_shed + o.streams_failed;
  return requests_ok && streams_ok_sum;
}

TrafficMix ParseTrafficMix(const std::string& text) {
  TrafficMix mix{0, 0, 0, 0, 0};
  std::stringstream in(text);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (part.empty()) continue;
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("mix entry needs key:weight — " + part);
    }
    const std::string key = part.substr(0, colon);
    char* end = nullptr;
    const double w = std::strtod(part.c_str() + colon + 1, &end);
    if (end == part.c_str() + colon + 1 || w < 0) {
      throw std::invalid_argument("bad mix weight in " + part);
    }
    if (key == "execute") mix.execute = w;
    else if (key == "prepared") mix.prepared = w;
    else if (key == "stream") mix.stream = w;
    else if (key == "cancel") mix.cancel = w;
    else if (key == "expired") mix.expired = w;
    else throw std::invalid_argument("unknown mix key " + key);
  }
  return mix;
}

LoadDriver::LoadDriver(AdpEngine& engine, std::vector<FamilyInstance> families,
                       const DriverConfig& config)
    : engine_(engine), families_(std::move(families)), config_(config) {
  if (families_.empty()) {
    throw std::invalid_argument("LoadDriver needs at least one family");
  }
  for (const FamilyInstance& f : families_) {
    const DbId id = engine_.RegisterDatabase(f.db);
    StatusOr<PreparedQuery> p = engine_.Prepare(f.query_text);
    if (!p.ok()) {
      throw std::runtime_error("Prepare(" + f.name +
                               ") failed: " + p.status().message());
    }
    const Status bound = p->Bind(id);
    if (!bound.ok()) {
      throw std::runtime_error("Bind(" + f.name +
                               ") failed: " + bound.message());
    }
    db_ids_.push_back(id);
    prepared_.push_back(std::move(p).value());
  }

  // The deterministic plan: every random draw comes from one seeded Rng in
  // a fixed order, so one (seed, families, config) triple always yields
  // the identical op sequence.
  const double weights[] = {config_.mix.execute, config_.mix.prepared,
                            config_.mix.stream, config_.mix.cancel,
                            config_.mix.expired};
  double total = 0;
  for (double w : weights) total += w;
  Rng rng(config_.seed);
  plan_.reserve(static_cast<std::size_t>(std::max(0, config_.requests)));
  for (int i = 0; i < config_.requests; ++i) {
    ScheduledOp op;
    op.family = static_cast<int>(rng.Uniform(families_.size()));
    op.k = rng.UniformInt(1, std::max<std::int64_t>(1, config_.max_k));
    op.kind = OpKind::kExecute;
    if (total > 0) {
      double draw = rng.UniformDouble() * total;
      for (int kind = 0; kind < 5; ++kind) {
        draw -= weights[kind];
        if (draw < 0 || kind == 4) {
          op.kind = static_cast<OpKind>(kind);
          break;
        }
      }
    }
    plan_.push_back(op);
  }
}

namespace {

struct RunContext {
  obs::Histogram client_latency;
  std::mutex merge_mu;
  Tally total;
};

DriverReport FinishReport(AdpEngine& engine,
                          const obs::HistogramSnapshot& before,
                          RunContext& ctx, double wall_ms) {
  DriverReport rep;
  rep.outcomes = ctx.total.o;
  rep.answer_checksum = ctx.total.checksum;
  rep.wall_ms = wall_ms;
  const double completed = static_cast<double>(rep.outcomes.issued) +
                           static_cast<double>(rep.outcomes.streams_issued);
  rep.throughput_ops_per_sec = wall_ms > 0 ? completed / (wall_ms / 1e3) : 0;
  const obs::HistogramSnapshot client = ctx.client_latency.Snapshot();
  rep.client_p50_ms = client.Quantile(0.5);
  rep.client_p99_ms = client.Quantile(0.99);
  const obs::HistogramSnapshot delta = SnapshotDelta(
      engine.metrics().GetHistogram(obs::kMRequestLatencyMs).Snapshot(),
      before);
  rep.engine_p50_ms = delta.Quantile(0.5);
  rep.engine_p99_ms = delta.Quantile(0.99);
  return rep;
}

}  // namespace

DriverReport LoadDriver::Run() {
  return config_.open_loop ? RunOpen() : RunClosed();
}

DriverReport LoadDriver::RunClosed() {
  const obs::HistogramSnapshot before =
      engine_.metrics().GetHistogram(obs::kMRequestLatencyMs).Snapshot();
  RunContext ctx;
  std::atomic<std::size_t> next{0};
  const int threads = std::max(1, config_.concurrency);
  Stopwatch wall;

  auto worker = [&] {
    Tally tally;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plan_.size()) break;
      const ScheduledOp& op = plan_[i];
      AdpRequest req;
      req.query_text = families_[op.family].query_text;
      req.db = db_ids_[op.family];
      req.k = op.k;
      const Stopwatch op_watch;
      switch (op.kind) {
        case OpKind::kExecute:
          tally.Request(engine_.Execute(req));
          break;
        case OpKind::kPrepared:
          tally.Request(engine_.Execute(prepared_[op.family], op.k));
          break;
        case OpKind::kStream: {
          ++tally.o.streams_issued;
          ResultStream stream = engine_.StreamAdp(std::move(req));
          while (std::optional<StreamItem> item = stream.Next()) {
            ++tally.o.stream_items;
            if (item->kind == StreamItem::Kind::kEnd) {
              tally.StreamTerminal(item->status.code());
            }
          }
          break;
        }
        case OpKind::kCancel: {
          AdpTicket ticket;
          std::future<AdpResponse> fut =
              engine_.Submit(std::move(req), &ticket);
          ticket.Cancel();
          tally.Request(fut.get());
          break;
        }
        case OpKind::kExpired: {
          req.deadline = Now() - milliseconds(1);
          tally.Request(engine_.Submit(std::move(req)).get());
          break;
        }
      }
      ctx.client_latency.Observe(op_watch.ElapsedMs());
    }
    std::lock_guard<std::mutex> lock(ctx.merge_mu);
    ctx.total.Merge(tally);
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return FinishReport(engine_, before, ctx, wall.ElapsedMs());
}

DriverReport LoadDriver::RunOpen() {
  const obs::HistogramSnapshot before =
      engine_.metrics().GetHistogram(obs::kMRequestLatencyMs).Snapshot();
  RunContext ctx;
  const double period_ms =
      1e3 / std::max(1e-6, config_.offered_rps);  // arrival spacing
  std::vector<double> intended(plan_.size(), 0.0);
  std::size_t request_ops = 0;
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    intended[i] = static_cast<double>(i) * period_ms;
    if (plan_[i].kind != OpKind::kStream) ++request_ops;
  }

  Stopwatch wall;
  const MonotonicClock::time_point start = Now();

  // Every request submission's callback fires exactly once whatever the
  // outcome (from a worker, from inside Cancel(), or inline on rejection),
  // so counting to request_ops is exact. A callback counts its op last,
  // under merge_mu, so once the count is reached no callback touches the
  // locals below again.
  std::size_t completed = 0;
  std::condition_variable all_completed;
  const auto submit = [&](AdpRequest req, std::size_t i) {
    return engine_.SubmitAsync(std::move(req), [&, i](AdpResponse resp) {
      ctx.client_latency.Observe(MsBetween(start, Now()) - intended[i]);
      std::lock_guard<std::mutex> lock(ctx.merge_mu);
      ctx.total.Request(resp);
      if (++completed == request_ops) all_completed.notify_all();
    });
  };

  Slots stream_slots(config_.concurrency);
  std::vector<std::thread> drainers;
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const ScheduledOp& op = plan_[i];
    AdpRequest req;
    req.query_text = families_[op.family].query_text;
    req.db = db_ids_[op.family];
    req.k = op.k;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<MonotonicClock::duration>(
                    std::chrono::duration<double, std::milli>(intended[i])));
    switch (op.kind) {
      case OpKind::kExecute:
      case OpKind::kPrepared:
        // Both ride the async text path here: the open loop never blocks
        // the dispatcher, and prepared handles are exercised by the
        // closed loop and the net path.
        submit(std::move(req), i);
        break;
      case OpKind::kCancel:
        submit(std::move(req), i).Cancel();
        break;
      case OpKind::kExpired:
        req.deadline = Now() - milliseconds(1);
        submit(std::move(req), i);
        break;
      case OpKind::kStream: {
        stream_slots.Acquire();
        ResultStream stream = engine_.StreamAdp(std::move(req));
        drainers.emplace_back(
            [&, i](ResultStream s) {
              Tally tally;
              ++tally.o.streams_issued;
              while (std::optional<StreamItem> item = s.Next()) {
                ++tally.o.stream_items;
                if (item->kind == StreamItem::Kind::kEnd) {
                  tally.StreamTerminal(item->status.code());
                  ctx.client_latency.Observe(MsBetween(start, Now()) -
                                             intended[i]);
                }
              }
              stream_slots.Release();
              std::lock_guard<std::mutex> lock(ctx.merge_mu);
              ctx.total.Merge(tally);
            },
            std::move(stream));
        break;
      }
    }
  }
  for (std::thread& t : drainers) t.join();
  {
    std::unique_lock<std::mutex> lock(ctx.merge_mu);
    all_completed.wait(lock, [&] { return completed == request_ops; });
  }
  return FinishReport(engine_, before, ctx, wall.ElapsedMs());
}

DriverReport LoadDriver::RunOverNet(const std::string& host, int port) {
  const obs::HistogramSnapshot before =
      engine_.metrics().GetHistogram(obs::kMRequestLatencyMs).Snapshot();
  RunContext ctx;
  std::atomic<std::size_t> next{0};
  const int threads = std::max(1, config_.concurrency);
  std::atomic<bool> setup_failed{false};
  std::string setup_error;
  std::mutex setup_mu;
  Stopwatch wall;

  auto worker = [&] {
    Tally tally;
    net::AdpNetClient client;
    std::vector<std::int64_t> handles;
    auto fail_setup = [&](const std::string& what) {
      std::lock_guard<std::mutex> lock(setup_mu);
      setup_failed.store(true);
      if (setup_error.empty()) setup_error = what + ": " + client.error();
    };
    if (!client.Connect(host, port)) {
      fail_setup("connect");
      return;
    }
    // Per-connection setup: every family database and prepared handle.
    for (std::size_t f = 0; f < families_.size(); ++f) {
      const std::string db_name = "f" + std::to_string(f);
      if (!client.Call(net::FrameType::kDb,
                       FormatDbLine(db_name, families_[f].db))) {
        fail_setup("DB " + db_name);
        return;
      }
      std::string body;
      std::optional<net::Frame> reply =
          client.Call(net::FrameType::kPrepare,
                      "PREPARE " + families_[f].query_text, &body);
      if (!reply.has_value() || reply->type != net::FrameType::kPrepared) {
        fail_setup("PREPARE " + families_[f].name);
        return;
      }
      handles.push_back(ParseWireInt(body, "\"prepared\":"));
    }

    auto request_reply = [&](std::int64_t id) {
      std::optional<net::Frame> reply = client.WaitReply(id);
      if (!reply.has_value()) {
        tally.Request(StatusCode::kInternal, 0, 0);
        return false;
      }
      const StatusCode code = ParseWireStatus(reply->payload);
      tally.Request(code, ParseWireInt(reply->payload, "\"cost\":"),
                    ParseWireInt(reply->payload, "\"output_count\":"));
      return true;
    };

    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plan_.size()) break;
      const ScheduledOp& op = plan_[i];
      const std::string db_name = "f" + std::to_string(op.family);
      const std::string& query = families_[op.family].query_text;
      const std::string k = std::to_string(op.k);
      const Stopwatch op_watch;
      bool alive = true;
      switch (op.kind) {
        case OpKind::kExecute: {
          const std::int64_t id = client.NextId();
          client.Send(net::FrameType::kReq, id,
                      "REQ " + db_name + " " + k + " " + query);
          alive = request_reply(id);
          break;
        }
        case OpKind::kPrepared: {
          const std::int64_t id = client.NextId();
          client.Send(net::FrameType::kExec, id,
                      "EXEC " + std::to_string(handles[op.family]) + " " +
                          db_name + " " + k);
          alive = request_reply(id);
          break;
        }
        case OpKind::kStream: {
          const std::int64_t id = client.NextId();
          client.Send(net::FrameType::kStream, id,
                      "STREAM " + db_name + " " + k + " " + query);
          ++tally.o.streams_issued;
          bool ended = false;
          while (!ended) {
            std::optional<net::Frame> frame = client.WaitReply(id);
            if (!frame.has_value()) {
              tally.StreamTerminal(StatusCode::kInternal);
              alive = false;
              break;
            }
            ++tally.o.stream_items;
            if (frame->type == net::FrameType::kStreamEnd ||
                frame->type == net::FrameType::kError) {
              tally.StreamTerminal(ParseWireStatus(frame->payload));
              ended = true;
            }
          }
          break;
        }
        case OpKind::kCancel: {
          const std::int64_t id = client.NextId();
          client.Send(net::FrameType::kReq, id,
                      "REQ " + db_name + " " + k + " " + query);
          const std::int64_t cancel_id = client.NextId();
          client.Send(net::FrameType::kCancel, cancel_id,
                      "CANCEL " + std::to_string(id));
          client.WaitReply(cancel_id);  // CANCELOK / ERROR ack
          alive = request_reply(id);
          break;
        }
        case OpKind::kExpired: {
          const std::int64_t id = client.NextId();
          client.Send(net::FrameType::kReq, id,
                      "REQ " + db_name + " " + k + " +d0 " + query);
          alive = request_reply(id);
          break;
        }
      }
      ctx.client_latency.Observe(op_watch.ElapsedMs());
      if (!alive) break;  // transport died: stop pulling ops
    }
    client.Close();
    std::lock_guard<std::mutex> lock(ctx.merge_mu);
    ctx.total.Merge(tally);
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (setup_failed.load()) {
    throw std::runtime_error("RunOverNet setup failed: " + setup_error);
  }
  return FinishReport(engine_, before, ctx, wall.ElapsedMs());
}

}  // namespace adp::workload
