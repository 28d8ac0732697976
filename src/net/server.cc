#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "net/textproto.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/parse_int.h"

// Platforms without the per-call flag (macOS/BSD) suppress SIGPIPE with
// the per-socket option below instead.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace adp::net {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// A peer that resets mid-write must surface EPIPE, not a process-killing
// SIGPIPE. Writes pass MSG_NOSIGNAL; where that flag doesn't exist this
// arms the equivalent socket option.
void SuppressSigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#else
  (void)fd;
#endif
}

/// kResult frames embed the whole witness set of a solve; bound the
/// rendered tuples well under kMaxFramePayload so no answer can become an
/// undeliverable frame (huge witness sets belong on STREAM, which
/// batches).
constexpr std::size_t kResultWitnessByteBudget = kMaxFramePayload / 2;

/// Per-connection outbound buffer bound: stream pumping pauses while the
/// buffer holds at least this many bytes (backpressure on slow readers).
/// Request/error responses are exempt — they are small and must not be
/// lost to a full buffer.
constexpr std::size_t kOutboundBufferLimit = 4u * 1024 * 1024;

/// Frames `payload`, or — when it exceeds the wire cap — a small typed
/// kError carrying the same correlation id, so an oversized response can
/// never corrupt the stream or tear the connection down. Returns false on
/// that fallback.
bool AppendFrameOrError(std::string& out, FrameType type,
                        const std::string& payload) {
  if (AppendFrame(out, type, payload)) return true;
  std::int64_t id = 0;
  std::string rest;
  SplitCorrelationId(payload, &id, &rest);  // best effort; 0 if unparsable
  [[maybe_unused]] const bool ok = AppendFrame(
      out, FrameType::kError,
      std::to_string(id) + ' ' + StatusCodeName(StatusCode::kInternal) +
          " response exceeds the frame payload cap");
  return false;
}

}  // namespace

// --- Cross-thread plumbing ---------------------------------------------------

/// Self-pipe waker: engine-worker completion callbacks write one byte to
/// nudge a possibly-sleeping poll/epoll wait. Owned shared so callbacks
/// that outlive the server still have a live (if now pointless) fd.
struct AdpNetServer::Waker {
  int fds[2] = {-1, -1};

  bool Open() {
    if (pipe(fds) != 0) return false;
    return SetNonBlocking(fds[0]) && SetNonBlocking(fds[1]);
  }

  ~Waker() {
    if (fds[0] >= 0) close(fds[0]);
    if (fds[1] >= 0) close(fds[1]);
  }

  void Wake() {
    const char b = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is success.
    [[maybe_unused]] ssize_t n = write(fds[1], &b, 1);
  }

  void Drain() {
    char buf[256];
    while (read(fds[0], buf, sizeof buf) > 0) {
    }
  }
};

/// The one piece of connection state engine-worker callbacks may touch:
/// completed responses are framed into `buf` under `mu`, and the event
/// loop moves them into the connection's write buffer. `dead` flips when
/// the connection closes so late completions drop their output instead of
/// appending to a buffer nobody will ever flush.
struct AdpNetServer::Outbox {
  std::mutex mu;
  std::string buf;
  bool dead = false;
};

/// The slow-query log (NetServerConfig::trace_dir / slow_ms), shared with
/// engine-worker completion callbacks, which may outlive the server. `seq`
/// keeps dump names unique although correlation ids are reused.
struct AdpNetServer::SlowLog {
  std::filesystem::path dir;
  double slow_ms = 0.0;
  std::atomic<std::uint64_t> seq{0};

  /// A null trace means the log is off. A dump that cannot be opened (DIR
  /// was removed after Start) is skipped.
  void MaybeDump(std::int64_t conn_id, std::int64_t id,
                 const std::shared_ptr<const obs::Trace>& trace,
                 double end_to_end_ms) {
    if (trace == nullptr || end_to_end_ms < slow_ms) return;
    const std::uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
    std::ofstream out(dir / ("trace-" + std::to_string(conn_id) + '-' +
                             std::to_string(id) + '-' + std::to_string(n) +
                             ".json"));
    if (out) trace->WriteJson(out);
  }
};

// --- Per-connection state ----------------------------------------------------

struct AdpNetServer::Conn {
  int fd = -1;
  std::int64_t conn_id = 0;
  FrameReader reader;
  bool hello_done = false;
  bool closing = false;  // flush, then close (BYE / fatal protocol error)
  bool broken = false;   // hard socket error: close on the next loop sweep

  // Event-loop-owned write buffer; `outpos` is the flushed prefix.
  std::string outbuf;
  std::size_t outpos = 0;

  // Worker-thread handoff (see Outbox).
  std::shared_ptr<Outbox> outbox;

  // Connection-scoped namespaces: databases registered over this
  // connection, prepared handles, in-flight request tickets, open streams.
  std::unordered_map<std::string, DbId> dbs;
  std::unordered_map<std::int64_t, PreparedQuery> prepared;
  std::int64_t next_prepared = 1;
  std::unordered_map<std::int64_t, AdpTicket> tickets;

  struct StreamRun {
    std::int64_t id = 0;
    ResultStream stream;
    std::string db_name;
    std::size_t items = 0;
  };
  std::vector<StreamRun> streams;

  std::size_t InflightNow() const {
    std::size_t n = streams.size();
    for (const auto& [id, ticket] : tickets) {
      if (!ticket.done()) ++n;
    }
    return n;
  }

  /// True while `id` still names an in-flight ticket or open stream.
  /// Finished tickets are retired every pump, so an id is reusable as
  /// soon as its reply has been framed.
  bool IdInFlight(std::int64_t id) const {
    if (tickets.count(id) > 0) return true;
    for (const auto& run : streams) {
      if (run.id == id) return true;
    }
    return false;
  }
};

// --- Server ------------------------------------------------------------------

AdpNetServer::AdpNetServer(AdpEngine& engine, NetServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      registry_(engine.metrics_shared()),
      slow_log_(std::make_shared<SlowLog>()) {
  slow_log_->dir = config_.trace_dir;
  slow_log_->slow_ms = static_cast<double>(config_.slow_ms);
  connections_total_ = &registry_->GetCounter(obs::kMNetConnections);
  frames_in_ = &registry_->GetCounter(obs::kMNetFramesIn);
  frames_out_ = &registry_->GetCounter(obs::kMNetFramesOut);
  protocol_errors_ = &registry_->GetCounter(obs::kMNetProtocolErrors);
  open_connections_ = &registry_->GetGauge(obs::kMNetOpenConnections);
  outbound_queue_bytes_ = &registry_->GetGauge(obs::kMNetOutboundQueueBytes);
  conn_inflight_ = &registry_->GetHistogram(obs::kMNetConnInflight);
}

AdpNetServer::~AdpNetServer() {
  Stop();
  if (listen_fd_ >= 0) close(listen_fd_);
}

Status AdpNetServer::Start() {
  if (started_) {
    return Status(StatusCode::kInvalidArgument, "server already started");
  }
  if (!config_.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.trace_dir, ec);
    if (ec) {
      return Status(StatusCode::kInvalidArgument,
                    "cannot create trace dir " + config_.trace_dir + ": " +
                        ec.message());
    }
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status(StatusCode::kInternal, "socket() failed");
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument,
                  "bad listen address " + config_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return Status(StatusCode::kInternal,
                  "bind " + config_.host + ":" +
                      std::to_string(config_.port) + " failed: " +
                      std::strerror(errno));
  }
  if (listen(listen_fd_, 128) != 0 || !SetNonBlocking(listen_fd_)) {
    return Status(StatusCode::kInternal, "listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  waker_ = std::make_shared<Waker>();
  if (!waker_->Open()) {
    return Status(StatusCode::kInternal, "waker pipe failed");
  }
  started_ = true;
  stop_.store(false);
  loop_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void AdpNetServer::Stop() {
  if (!started_) return;
  stop_.store(true);
  waker_->Wake();
  if (loop_.joinable()) loop_.join();
  // Close every connection from the (now dead) loop's seat: cancels
  // in-flight work and releases stream producers.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) CloseConn(fd);
  started_ = false;
}

void AdpNetServer::Loop() {
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_relaxed)) {
    bool streams_active = false;
    for (auto& [fd, conn] : conns_) {
      PumpConn(*conn);
      streams_active = streams_active || !conn->streams.empty();
    }
    // Closing connections that finished flushing — and connections whose
    // socket died mid-flush — go away now; collect first (CloseConn
    // mutates conns_, so it must never run inside an iteration). Every
    // other connection joins this round's poll set, after the listen
    // socket and the waker, with write interest while it has a backlog.
    std::vector<int> finished;
    std::int64_t queued_bytes = 0;
    fds.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{waker_->fds[0], POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      const std::size_t backlog = conn->outbuf.size() - conn->outpos;
      queued_bytes += static_cast<std::int64_t>(backlog);
      if (conn->broken || (conn->closing && backlog == 0)) {
        finished.push_back(fd);
        continue;
      }
      fds.push_back(pollfd{
          fd, static_cast<short>(POLLIN | (backlog > 0 ? POLLOUT : 0)), 0});
    }
    outbound_queue_bytes_->Set(queued_bytes);
    for (int fd : finished) CloseConn(fd);

    // Streams have no completion callback into the loop — their items are
    // pulled — so poll briskly while any are open; otherwise sleep until a
    // socket or the waker fires.
    if (poll(fds.data(), fds.size(), streams_active ? 2 : 200) <= 0) continue;

    for (const pollfd& p : fds) {
      if (p.revents == 0) continue;
      if (p.fd == waker_->fds[0]) {
        waker_->Drain();
        continue;
      }
      if (p.fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      auto it = conns_.find(p.fd);
      if (it == conns_.end()) continue;
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConn(p.fd);
        continue;
      }
      if (p.revents & POLLIN) ReadConn(*it->second);
      // POLLOUT: the pump at the top of the next iteration flushes; no
      // separate handling avoids double bookkeeping.
    }
  }
}

void AdpNetServer::AcceptAll() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (or transient error): try next round
    if (static_cast<int>(conns_.size()) >= config_.max_connections ||
        !SetNonBlocking(fd)) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    SuppressSigpipe(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->conn_id = next_conn_id_++;
    conn->outbox = std::make_shared<Outbox>();
    conns_[fd] = std::move(conn);
    connections_total_->Increment();
    open_connections_->Set(static_cast<std::int64_t>(conns_.size()));
  }
}

void AdpNetServer::ReadConn(Conn& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      conn.reader.Feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConn(conn.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn.fd);
    return;
  }
  while (std::optional<Frame> frame = conn.reader.Next()) {
    HandleFrame(conn, static_cast<std::uint8_t>(frame->type), frame->payload);
    if (conn.closing) break;  // no frame outlives a fatal protocol error
  }
  if (conn.reader.bad() && !conn.closing) {
    // Oversized/corrupt length prefix: framing is gone, the byte stream
    // cannot be resynchronized. Tell the client why, then hang up.
    protocol_errors_->Increment();
    SendError(conn, 0, StatusCode::kInvalidArgument,
              "unrecoverable framing error (length prefix out of range)");
    conn.closing = true;
  }
}

void AdpNetServer::SendFrame(Conn& conn, std::uint8_t type,
                             const std::string& payload) {
  if (!AppendFrameOrError(conn.outbuf, static_cast<FrameType>(type),
                          payload)) {
    protocol_errors_->Increment();
  }
  frames_out_->Increment();
}

void AdpNetServer::SendError(Conn& conn, std::int64_t id, StatusCode code,
                             const std::string& message) {
  std::ostringstream out;
  out << id << ' ' << StatusCodeName(code) << ' ' << message;
  SendFrame(conn, static_cast<std::uint8_t>(FrameType::kError), out.str());
}

void AdpNetServer::HandleFrame(Conn& conn, std::uint8_t type,
                               const std::string& payload) {
  frames_in_->Increment();

  if (!conn.hello_done) {
    if (static_cast<FrameType>(type) != FrameType::kHello) {
      protocol_errors_->Increment();
      SendError(conn, 0, StatusCode::kInvalidArgument,
                "first frame must be HELLO");
      conn.closing = true;
      return;
    }
    const std::vector<std::string> toks = SplitWs(payload);
    std::uint32_t lo = 0, hi = 0;
    if (toks.size() != 2 || !ParseUint32(toks[0], &lo) ||
        !ParseUint32(toks[1], &hi)) {
      protocol_errors_->Increment();
      SendError(conn, 0, StatusCode::kInvalidArgument,
                "malformed HELLO payload");
      conn.closing = true;
      return;
    }
    const std::uint32_t min_v = std::max(lo, kProtocolVersionMin);
    const std::uint32_t max_v = std::min(hi, kProtocolVersionMax);
    if (lo > hi || min_v > max_v) {
      protocol_errors_->Increment();
      SendError(conn, 0, StatusCode::kInvalidArgument,
                "protocol version mismatch: server speaks " +
                    std::to_string(kProtocolVersionMin) + ".." +
                    std::to_string(kProtocolVersionMax));
      conn.closing = true;
      return;
    }
    conn.hello_done = true;
    SendFrame(conn, static_cast<std::uint8_t>(FrameType::kHelloOk),
              std::to_string(max_v));
    return;
  }

  std::int64_t id = 0;
  std::string rest;
  if (!SplitCorrelationId(payload, &id, &rest)) {
    protocol_errors_->Increment();
    SendError(conn, 0, StatusCode::kInvalidArgument,
              "payload must start with a correlation id");
    return;  // framing is intact; the connection survives
  }

  try {
    std::vector<std::string> toks = SplitWs(rest);
    switch (static_cast<FrameType>(type)) {
      case FrameType::kDb: {
        ParsedDb parsed = ParseDbLine(toks);
        const DbId fresh = engine_.RegisterDatabase(std::move(parsed.db));
        auto [dit, inserted] = conn.dbs.emplace(parsed.name, fresh);
        if (!inserted) {
          // Re-registering a name displaces the old instance; release it
          // so repeated DB frames cannot grow engine memory without bound.
          engine_.UnregisterDatabase(dit->second);
          dit->second = fresh;
        }
        SendFrame(conn, static_cast<std::uint8_t>(FrameType::kDbOk),
                  std::to_string(id) + " {\"db\":\"" +
                      JsonEscape(parsed.name) + "\"}");
        break;
      }
      case FrameType::kReq:
      case FrameType::kExec: {
        ParsedRequest parsed = Admit(conn, id, type, std::move(toks));
        const std::int64_t k = parsed.req.k;
        // The one delivery path of REQ and EXEC results, run by the engine
        // worker that finished the request; it holds no pointer to the
        // server, which may be gone by then. Relation names come from the
        // plan the request was solved against.
        AdpTicket ticket = engine_.SubmitAsync(
            std::move(parsed.req),
            [outbox = conn.outbox, waker = waker_, frames_out = frames_out_,
             slow_log = slow_log_, conn_id = conn.conn_id, id,
             db_name = std::move(parsed.db_name), k](AdpResponse resp) {
              slow_log->MaybeDump(conn_id, id, resp.trace,
                                  resp.queue_ms + resp.total_ms);
              const std::string line = FormatResponseLine(
                  id, db_name, k, resp,
                  resp.plan ? &resp.plan->query : nullptr,
                  kResultWitnessByteBudget);
              std::string framed;
              AppendFrameOrError(framed, FrameType::kResult,
                                 std::to_string(id) + ' ' + line);
              {
                std::lock_guard<std::mutex> lock(outbox->mu);
                if (outbox->dead) return;
                outbox->buf += framed;
              }
              frames_out->Increment();
              waker->Wake();
            });
        conn.tickets[id] = std::move(ticket);
        break;
      }
      case FrameType::kStream: {
        ParsedRequest parsed = Admit(conn, id, type, std::move(toks));
        Conn::StreamRun run;
        run.id = id;
        run.db_name = parsed.db_name;
        run.stream = engine_.StreamAdp(std::move(parsed.req));
        conn.streams.push_back(std::move(run));
        break;
      }
      case FrameType::kPrepare: {
        if (toks.size() < 2 || toks[0] != "PREPARE") {
          throw std::runtime_error("PREPARE <query>");
        }
        std::string query_text;
        for (std::size_t i = 1; i < toks.size(); ++i) {
          if (i > 1) query_text += ' ';
          query_text += toks[i];
        }
        StatusOr<PreparedQuery> prepared = engine_.Prepare(query_text);
        if (!prepared.ok()) {
          protocol_errors_->Increment();
          SendError(conn, id, prepared.status().code(),
                    prepared.status().message());
          break;
        }
        const std::int64_t handle = conn.next_prepared++;
        conn.prepared[handle] = std::move(prepared).value();
        SendFrame(conn, static_cast<std::uint8_t>(FrameType::kPrepared),
                  std::to_string(id) + " {\"prepared\":" +
                      std::to_string(handle) + "}");
        break;
      }
      case FrameType::kCancel: {
        // CANCEL [<target-id>]: a specific in-flight request/stream, or
        // everything still pending on this connection.
        if (toks.empty() || toks[0] != "CANCEL" || toks.size() > 2) {
          throw std::runtime_error("CANCEL [<target-id>]");
        }
        int cancelled = 0;
        if (toks.size() == 2) {
          std::int64_t target = 0;
          if (ParseInt64(toks[1], &target) != IntParse::kOk) {
            throw std::runtime_error("bad cancel target: " + toks[1]);
          }
          auto tit = conn.tickets.find(target);
          if (tit != conn.tickets.end() && tit->second.Cancel()) ++cancelled;
          for (auto& run : conn.streams) {
            if (run.id == target) {
              run.stream.Cancel();
              ++cancelled;
            }
          }
        } else {
          for (auto& [tid, ticket] : conn.tickets) {
            if (ticket.Cancel()) ++cancelled;
          }
          for (auto& run : conn.streams) {
            run.stream.Cancel();
            ++cancelled;
          }
        }
        SendFrame(conn, static_cast<std::uint8_t>(FrameType::kCancelOk),
                  std::to_string(id) + " {\"cancelled\":" +
                      std::to_string(cancelled) + "}");
        break;
      }
      case FrameType::kStats: {
        SendFrame(conn, static_cast<std::uint8_t>(FrameType::kStatsText),
                  std::to_string(id) + ' ' + FormatStatsJson(engine_));
        break;
      }
      case FrameType::kMetrics: {
        std::ostringstream out;
        engine_.metrics().WritePrometheus(out);
        SendFrame(conn, static_cast<std::uint8_t>(FrameType::kMetricsText),
                  std::to_string(id) + ' ' + out.str());
        break;
      }
      case FrameType::kBye: {
        SendFrame(conn, static_cast<std::uint8_t>(FrameType::kByeOk),
                  std::to_string(id));
        conn.closing = true;
        break;
      }
      default: {
        protocol_errors_->Increment();
        SendError(conn, id, StatusCode::kInvalidArgument,
                  IsKnownFrameType(type)
                      ? "frame type not valid client-to-server"
                      : "unknown frame type " + std::to_string(type));
        break;
      }
    }
  } catch (const std::exception& e) {
    // Malformed payload with intact framing: report and carry on — the
    // next frame parses fresh.
    protocol_errors_->Increment();
    SendError(conn, id, StatusCode::kInvalidArgument, e.what());
  }
}

ParsedRequest AdpNetServer::Admit(Conn& conn, std::int64_t id,
                                  std::uint8_t type,
                                  std::vector<std::string> toks) {
  if (conn.IdInFlight(id)) {
    throw std::runtime_error("correlation id " + std::to_string(id) +
                             " already in flight");
  }
  const char* usage = "REQ <db> <k> [+opt ...] <query>";
  PreparedQuery prepared;
  if (static_cast<FrameType>(type) == FrameType::kStream) {
    usage = "STREAM <db> <k> [+opt ...] <query>";
  } else if (static_cast<FrameType>(type) == FrameType::kExec) {
    usage = "EXEC <handle> <db> <k> [+opt ...]";
    if (toks.size() < 4 || toks[0] != "EXEC") throw std::runtime_error(usage);
    std::int64_t handle = 0;
    if (ParseInt64(toks[1], &handle) != IntParse::kOk) {
      throw std::runtime_error("bad prepared handle: " + toks[1]);
    }
    auto pit = conn.prepared.find(handle);
    if (pit == conn.prepared.end()) {
      throw std::runtime_error("unknown prepared handle " + toks[1]);
    }
    prepared = pit->second;
    // Parse as a REQ-shaped line so option parsing stays shared: drop the
    // handle, and fill the query slot with a placeholder.
    toks.erase(toks.begin() + 1);
    toks.push_back("-");
  }
  ParsedRequest parsed =
      ParseRequestLine(toks, usage, config_.default_timeout_ms);
  auto it = conn.dbs.find(parsed.db_name);
  if (it == conn.dbs.end()) {
    throw std::runtime_error("unknown database " + parsed.db_name);
  }
  parsed.req.db = it->second;
  parsed.req.prepared = std::move(prepared);  // an EXEC's wins over "-"
  parsed.req.collect_trace = !config_.trace_dir.empty();
  conn_inflight_->Observe(static_cast<double>(conn.InflightNow()));
  return parsed;
}

void AdpNetServer::PumpConn(Conn& conn) {
  // 1. Completed responses framed by engine workers.
  {
    std::lock_guard<std::mutex> lock(conn.outbox->mu);
    if (!conn.outbox->buf.empty()) {
      conn.outbuf += conn.outbox->buf;
      conn.outbox->buf.clear();
    }
  }
  // 2. Retire finished tickets so CANCEL and the inflight histogram see
  //    only live work.
  std::erase_if(conn.tickets,
                [](const auto& kv) { return kv.second.done(); });
  // 3. Push stream items while the outbound buffer has headroom. A slow
  //    reader stalls here; the stream's bounded buffer then blocks the
  //    producing worker — that is the backpressure path.
  for (auto& run : conn.streams) {
    while (conn.outbuf.size() - conn.outpos < kOutboundBufferLimit) {
      std::optional<StreamItem> item = run.stream.TryNext();
      if (!item.has_value()) break;
      ++run.items;
      // Set before the first item was produced (null for a bad query).
      const std::shared_ptr<const CachedPlan> plan = run.stream.plan();
      const std::string line = FormatStreamItemLine(
          run.id, run.db_name, *item, plan ? &plan->query : nullptr,
          run.items);
      // Only the end item carries a trace.
      slow_log_->MaybeDump(conn.conn_id, run.id, item->trace,
                           item->queue_ms + item->total_ms);
      const bool is_end = item->kind == StreamItem::Kind::kEnd;
      SendFrame(conn,
                static_cast<std::uint8_t>(is_end ? FrameType::kStreamEnd
                                                 : FrameType::kStreamItem),
                std::to_string(run.id) + ' ' + line);
    }
  }
  std::erase_if(conn.streams,
                [](const auto& run) { return run.stream.done(); });
  // 4. Opportunistic flush: most responses leave in the same loop
  //    iteration that produced them, without waiting for a POLLOUT round.
  FlushConn(conn);
}

void AdpNetServer::FlushConn(Conn& conn) {
  if (conn.broken) return;
  while (conn.outpos < conn.outbuf.size()) {
    const ssize_t n = send(conn.fd, conn.outbuf.data() + conn.outpos,
                           conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outpos += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    // Broken pipe mid-write: mark the connection dead and let the loop's
    // sweep tear it down. Closing here would invalidate the conns_
    // iterator of the Loop()/PumpConn caller — and free this very Conn
    // out from under it.
    conn.broken = true;
    return;
  }
  conn.outbuf.clear();
  conn.outpos = 0;
}

void AdpNetServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  // Disconnect releases every worker serving this connection: streams are
  // closed (a blocked producer wakes and unwinds), pending requests are
  // cancelled (queued ones never solve).
  for (auto& run : conn.streams) run.stream.Close();
  for (auto& [id, ticket] : conn.tickets) ticket.Cancel();
  // Connection-scoped databases go with the connection (in-flight holders
  // keep the data alive until they unwind); without this, reconnect loops
  // would accumulate registrations in the engine forever.
  for (const auto& [name, db] : conn.dbs) engine_.UnregisterDatabase(db);
  {
    std::lock_guard<std::mutex> lock(conn.outbox->mu);
    conn.outbox->dead = true;
    conn.outbox->buf.clear();
  }
  close(fd);
  conns_.erase(it);
  open_connections_->Set(static_cast<std::int64_t>(conns_.size()));
}

}  // namespace adp::net
