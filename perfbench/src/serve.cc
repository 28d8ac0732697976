// serve_mixed: small catalog families under a closed-loop mix of text
// Execute, prepared Execute, drained streams, and bursts of identical async
// requests, in process against AdpEngine.

#include <sched.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "util/rng.h"
#include "workload/families.h"
#include "workloads.h"

namespace perfbench {

using adp::AdpResponse;

namespace {

enum class OpKind { kText, kPrepared, kStream, kBurst };
constexpr const char* kKindNames[] = {"text", "prepared", "stream", "burst"};

struct Op {
  int cell = 0;
  OpKind kind = OpKind::kText;
};

// No traffic trace of this system exists; the constants below are chosen
// for coverage (perfbench/DESIGN.md gives the reason for each), and a run
// reports the share of request time each op kind took.
constexpr int kReplicas = 16;            // seeded databases per family
constexpr std::int64_t kMaxK = 3;        // k is uniform in [1, kMaxK]
constexpr int kBurstSize = 4;            // identical async requests per burst
constexpr double kWarmupS = 1.0;
constexpr double kSliceMs = 500.0;       // samples are tagged with their slice

/// The seeded op plan: every cell once per unit of its kind's weight
/// (text 4 : prepared 2 : stream 2 : burst 2), in a seeded order. A plan's
/// cost therefore depends on the seed only through the databases.
std::vector<Op> MakePlan(std::uint64_t seed, std::size_t num_cells) {
  constexpr std::pair<OpKind, int> kWeights[] = {{OpKind::kText, 4},
                                                 {OpKind::kPrepared, 2},
                                                 {OpKind::kStream, 2},
                                                 {OpKind::kBurst, 2}};
  std::vector<Op> plan;
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    for (const auto& [kind, weight] : kWeights) {
      for (int w = 0; w < weight; ++w) {
        plan.push_back({static_cast<int>(cell), kind});
      }
    }
  }
  adp::Rng rng(seed * 0x9e3779b97f4a7c15ULL);
  for (std::size_t j = plan.size(); j > 1; --j) {
    std::swap(plan[j - 1], plan[rng.Uniform(j)]);
  }
  return plan;
}

/// What the client observed in one phase.
struct ClientOut {
  std::vector<Sample> samples;
  std::vector<double> self_us;        // engine time outside the solve
  std::vector<double> queue_ms;       // pool queue wait of async requests
  std::vector<double> first_item_ms;  // stream call -> first item
  std::uint64_t streams = 0;
  std::uint64_t stream_items = 0;
  std::uint64_t async = 0;            // async requests issued (dedup base)
  std::string first_mismatch;  // the first reply that failed its check

  void Merge(const ClientOut& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    self_us.insert(self_us.end(), o.self_us.begin(), o.self_us.end());
    queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
    first_item_ms.insert(first_item_ms.end(), o.first_item_ms.begin(),
                         o.first_item_ms.end());
    streams += o.streams;
    stream_items += o.stream_items;
    async += o.async;
    if (first_mismatch.empty()) first_mismatch = o.first_mismatch;
  }
};

struct Window {
  Clock::time_point measure_from;  // ops starting earlier are warm-up
  Clock::time_point until;         // no op starts at or after this

  int SliceOf(Clock::time_point t) const {
    return static_cast<int>(MsSince(measure_from, t) / kSliceMs);
  }
};

void Client(const Suite& suite, const Served& served,
            const std::vector<Op>& plan, Window w, Tracer* tracer,
            std::size_t* next_op, ClientOut* out) {
  adp::AdpEngine& engine = *served.engine;
  for (;;) {
    const std::size_t i = (*next_op)++;
    const Clock::time_point t0 = Clock::now();
    if (t0 >= w.until) break;
    const bool record = t0 >= w.measure_from;
    const int slice = record ? w.SliceOf(t0) : 0;
    const Op& op = plan[i % plan.size()];
    const Cell& cell = suite.cells[static_cast<std::size_t>(op.cell)];
    const std::size_t inst_i = static_cast<std::size_t>(cell.instance);
    const Instance& inst = suite.instances[inst_i];
    const adp::PreparedQuery& handle = served.handles[inst_i];
    Tracer* t = record ? tracer : nullptr;
    const std::uint64_t op_id = i + 1;
    ClientOut local;
    Sample s;
    s.cell = op.cell;
    s.slice = slice;
    s.kind = static_cast<int>(op.kind);
    switch (op.kind) {
      case OpKind::kText:
      case OpKind::kPrepared: {
        AdpResponse resp;
        {
          Span span(t, "engine.Execute", 0, op_id, op.cell);
          if (op.kind == OpKind::kText) {
            adp::AdpRequest req;
            req.query_text = inst.query_text;
            req.db = served.dbs[inst_i];
            req.k = cell.k;
            req.options = inst.options;
            resp = engine.Execute(req);
          } else {
            resp = engine.Execute(handle, cell.k, inst.options);
          }
          span.AddReportedChild("solver.solve", resp.solve_ms);
        }
        s.ms = MsSince(t0);
        s.ok = resp.ok() && Matches(resp.solution, cell.ref);
        s.solve_ms = resp.solve_ms;
        local.samples.push_back(s);
        local.self_us.push_back(1000.0 * (s.ms - resp.solve_ms - resp.queue_ms));
        break;
      }
      case OpKind::kStream: {
        std::vector<adp::StreamItem> items;
        double first_ms = 0.0;
        {
          Span span(t, "engine.StreamAdp", 0, op_id, op.cell);
          adp::ResultStream stream = engine.StreamAdp(handle, cell.k,
                                                      inst.options);
          while (std::optional<adp::StreamItem> item = stream.Next()) {
            if (items.empty()) first_ms = MsSince(t0);
            items.push_back(std::move(*item));
          }
          if (!items.empty()) {
            span.AddReportedChild("solver.solve", items.back().solve_ms);
          }
        }
        s.ms = MsSince(t0);
        s.ok = CheckStream(items, cell.ref);
        local.samples.push_back(s);
        local.first_item_ms.push_back(first_ms);
        if (!items.empty()) local.queue_ms.push_back(items.back().queue_ms);
        ++local.streams;
        local.stream_items += items.size();
        break;
      }
      case OpKind::kBurst: {
        Span span(t, "engine.Submit", 0, op_id, op.cell);
        std::future<AdpResponse> futures[kBurstSize];
        Clock::time_point sent[kBurstSize];
        for (int b = 0; b < kBurstSize; ++b) {
          sent[b] = Clock::now();
          futures[b] = engine.Submit(handle, cell.k, inst.options);
        }
        for (int b = 0; b < kBurstSize; ++b) {
          const AdpResponse resp = futures[b].get();
          s.ms = MsSince(sent[b]);
          s.ok = resp.ok() && Matches(resp.solution, cell.ref);
          local.samples.push_back(s);
          local.queue_ms.push_back(resp.queue_ms);
          // Requests that joined one solve report the same solve; the
          // self-time union counts it once.
          span.AddReportedChild("solver.solve", resp.solve_ms);
        }
        local.async += kBurstSize;
        break;
      }
    }
    if (record) {
      for (const Sample& done : local.samples) {
        if (!done.ok && local.first_mismatch.empty()) {
          local.first_mismatch = cell.name;
        }
      }
      out->Merge(local);
    }
  }
}

struct PhaseResult {
  ClientOut out;
  std::vector<double> slice_ms;      // length of each measured slice
  std::vector<double> slice_cpu_ms;  // process CPU time spent in it
  double peak_rss_mb = 0.0;          // resident memory, most at a slice end
};

/// Runs the client for `warmup_s` + `seconds`; only ops starting after the
/// warm-up are recorded.
PhaseResult RunPhase(const Suite& suite, const Served& served,
                     const std::vector<Op>& plan, std::size_t* cursor,
                     double warmup_s, double seconds, Tracer* tracer) {
  const Clock::time_point start = Clock::now();
  Window w;
  w.measure_from = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(warmup_s));
  w.until = w.measure_from + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  PhaseResult r;
  std::thread client(
      [&] { Client(suite, served, plan, w, tracer, cursor, &r.out); });
  // This thread only reads the process CPU clock at slice boundaries.
  std::this_thread::sleep_until(w.measure_from);
  double cpu = ProcessCpuMs();
  for (double done = 0.0; done < seconds * 1000.0; done += kSliceMs) {
    r.slice_ms.push_back(std::min(kSliceMs, seconds * 1000.0 - done));
    std::this_thread::sleep_until(
        w.measure_from + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 done + r.slice_ms.back())));
    const double now = ProcessCpuMs();
    r.slice_cpu_ms.push_back(now - cpu);
    r.peak_rss_mb = std::max(r.peak_rss_mb, RssMb());
    cpu = now;
  }
  client.join();
  return r;
}

/// {"text": share, ...}: each op kind's share of the summed request
/// latency, so a reader can tell how much of a result a kind carries.
std::string KindShares(const std::vector<Sample>& samples) {
  double by_kind[4] = {0.0, 0.0, 0.0, 0.0};
  double total = 0.0;
  for (const Sample& s : samples) {
    by_kind[s.kind] += s.ms;
    total += s.ms;
  }
  std::string out = "{";
  for (int k = 0; k < 4; ++k) {
    out += std::string(k ? ", " : "") + "\"" + kKindNames[k] +
           "\": " + std::to_string(total > 0.0 ? by_kind[k] / total : 0.0);
  }
  return out + "}";
}

/// Pins this thread, and so every thread it starts later, to the last CPU
/// it may run on. On a virtual machine, waking a thread on an idle virtual
/// CPU costs whatever the host's load makes it cost; on one CPU a hand-off
/// is a plain context switch.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

}  // namespace

Suite BuildServeSuite(std::uint64_t seed, bool* refs_ok) {
  std::vector<adp::workload::FamilySpec> specs;
  for (const adp::workload::FamilySpec& spec :
       adp::workload::DefaultFamilyCatalog()) {
    // 2.2 ms per op: it would dominate a mix of sub-millisecond families.
    if (adp::workload::FamilyName(spec) == "disc3.full.small.mid") continue;
    specs.push_back(spec);
  }
  // Keeps the Decompose case in the mix.
  specs.push_back({adp::workload::FamilyShape::kDisconnected, 2,
                   adp::workload::HeadClass::kFull,
                   adp::workload::CardinalityClass::kTiny,
                   adp::workload::DomainClass::kSparse});
  // Several databases per family, so that a seed's draw of one small
  // database does not set the family's cost.
  Suite suite;
  adp::Rng derive(seed);
  for (int replica = 0; replica < kReplicas; ++replica) {
    for (adp::workload::FamilyInstance& f :
         adp::workload::MakeFamilySet(specs, derive.Next())) {
      suite.instances.push_back(
          MakeInstance(f.name + ".r" + std::to_string(replica), f.query,
                       f.query_text, std::move(f.db.db)));
    }
  }
  *refs_ok = true;
  for (std::size_t i = 0; i < suite.instances.size(); ++i) {
    for (std::int64_t k = 1; k <= kMaxK; ++k) {
      *refs_ok &= AddCell(suite, static_cast<int>(i), k,
                          suite.instances[i].name + ".k" + std::to_string(k));
    }
  }
  return suite;
}

RunResult RunServe(const RunConfig& cfg) {
  RunResult r;
  PinToOneCpu();
  bool refs_ok = false;
  const Suite suite = BuildServeSuite(cfg.seed, &refs_ok);
  if (!refs_ok) {
    r.correct = false;
    r.notes += "a reference answer removed fewer than k outputs\n";
  }
  adp::EngineConfig config;
  config.num_workers = 1;

  const std::vector<Op> plan = MakePlan(cfg.seed, suite.cells.size());
  std::uint64_t plan_digest = 1469598103934665603ULL;
  for (const Op& op : plan) {
    plan_digest = (plan_digest ^ static_cast<std::uint64_t>(
                                     op.cell * 4 + static_cast<int>(op.kind))) *
                  1099511628211ULL;
  }

  Served served;
  std::vector<double> setup_s;
  auto set_up = [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      double s = 0.0;
      std::string error;
      if (!SetUp(suite, config, &served, &s, &error)) {
        r.correct = false;
        r.notes += "set-up failed " + error + "\n";
        r.attempted = 1;
        r.failed = 1;
        return false;
      }
      setup_s.push_back(s);
    }
    return true;
  };
  if (!set_up()) return r;
  std::size_t cursor = 0;

  Tracer tracer(cfg.trace);
  std::uint64_t samples = 0;
  if (!cfg.trace) {
    const PhaseResult p = RunPhase(suite, served, plan, &cursor, kWarmupS,
                                   cfg.seconds, nullptr);
    CountSamples(p.out.samples, &r);
    samples = p.out.samples.size();
    if (!p.out.first_mismatch.empty()) {
      r.notes += "mismatch " + p.out.first_mismatch + "\n";
    }
    AddServeMetrics(p.out.samples, suite.cells.size(), p.slice_ms,
                    p.slice_cpu_ms, kTailQuantile, &r.metrics);
    if (!set_up()) return r;
    r.metrics.Add("setup_s", Median(setup_s), "s");
    r.metrics.Add("peak_rss_mb", p.peak_rss_mb, "MB");
    r.facts.emplace_back("op_time_share", KindShares(p.out.samples));
  } else {
    // Alternate one-second untraced and traced slices, so that tracing
    // overhead is measured against the same moments of machine noise.
    RunPhase(suite, served, plan, &cursor, kWarmupS, 0.0, nullptr);
    ClientOut untraced, traced;
    const adp::EngineCounters before = served.engine->counters();
    const int slices = std::max(2, static_cast<int>(cfg.seconds + 0.5));
    for (int i = 0; i < slices; ++i) {
      const bool trace_it = i % 2 == 1;
      const PhaseResult p = RunPhase(suite, served, plan, &cursor, 0.0, 1.0,
                                     trace_it ? &tracer : nullptr);
      (trace_it ? traced : untraced).Merge(p.out);
    }
    const adp::EngineCounters after = served.engine->counters();
    CountSamples(untraced.samples, &r);
    CountSamples(traced.samples, &r);
    samples = untraced.samples.size() + traced.samples.size();
    std::vector<double> untraced_ms, traced_ms;
    for (const Sample& s : untraced.samples) untraced_ms.push_back(s.ms);
    for (const Sample& s : traced.samples) traced_ms.push_back(s.ms);
    const ClientOut& o = traced;
    Metrics& m = r.metrics;
    m.Add("trace.overhead_pct",
          100.0 * (Median(traced_ms) / Median(untraced_ms) - 1.0), "%");
    m.Add("engine.self_p50_us", Quantile(o.self_us, 0.5), "us");
    m.Add("engine.queue_wait_p50_ms", Quantile(o.queue_ms, 0.5), "ms");
    m.Add("engine.queue_wait_p99_ms", Quantile(o.queue_ms, 0.99), "ms");
    m.Add("engine.stream_first_item_ms", Median(o.first_item_ms), "ms");
    m.Add("engine.stream_items_per_op",
          static_cast<double>(o.stream_items) /
              static_cast<double>(std::max<std::uint64_t>(1, o.streams)),
          "count");
    AddCounterMetrics(before, after, untraced.async + traced.async, &m);
    r.facts.emplace_back("self_samples", std::to_string(o.self_us.size()));
    r.facts.emplace_back("queue_wait_samples",
                         std::to_string(o.queue_ms.size()));
    r.facts.emplace_back("streams", std::to_string(o.streams));
    RunLayerProbes(suite, config, &tracer, &r);
    FinishTrace(tracer, cfg.spans_path, &r);
  }

  r.facts.emplace_back("reference_checksum",
                       std::to_string(ReferenceChecksum(suite)));
  r.facts.emplace_back("plan_digest", std::to_string(plan_digest));
  r.facts.emplace_back("latency_samples", std::to_string(samples));
  r.facts.emplace_back("tail_quantile", std::to_string(kTailQuantile));
  r.facts.emplace_back("clients", "1");
  r.facts.emplace_back("workers", std::to_string(config.num_workers));
  r.facts.emplace_back("cpus", "1");
  r.facts.emplace_back("cells", std::to_string(suite.cells.size()));
  return r;
}

}  // namespace perfbench
