// AdpNetServer: the concurrent TCP front door of AdpEngine.
//
// One event-loop thread multiplexes every connection with non-blocking
// sockets — one poll(2) call per loop iteration, over the listen socket,
// the waker and every live connection — and hands parsed requests to the
// engine's own worker pool via SubmitAsync/StreamAdp. No thread-per-connection:
// solve completions are appended to a per-connection outbox by the worker
// that finished them and flushed by the loop when the socket is writable.
//
// Stream push and backpressure: a STREAM verb opens a ResultStream and the
// loop pumps ResultStream::TryNext into kStreamItem frames while the
// connection's outbound buffer holds less than 4 MiB (kOutboundBufferLimit
// in server.cc). A slow client therefore stops
// the pump; the stream's own bounded buffer then blocks the producing
// worker — end-to-end backpressure with zero extra threads. A client that
// disconnects mid-stream gets its streams Close()d, which releases that
// worker immediately.
//
// Admission control rides on the engine: EngineConfig::max_queue_depth
// sheds excess requests with kOverloaded, per-request +p / +d options map
// to AdpRequest::priority / deadline, and the pool dequeues
// priority-then-EDF (engine/thread_pool.h).
//
// Protocol, framing, and teardown semantics: docs/PROTOCOL.md.
// Everything network-visible is counted on the engine's metrics registry
// (adp_net_* — src/obs/names.h, docs/OBSERVABILITY.md).
//
// The engine must outlive the server. Server lifecycle is
// Start() -> Stop() (idempotent; the destructor implies Stop).

#ifndef ADP_NET_SERVER_H_
#define ADP_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "engine/status.h"
#include "net/textproto.h"

namespace adp::net {

struct NetServerConfig {
  /// Listen address (IPv4 dotted quad).
  std::string host = "127.0.0.1";

  /// Listen port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;

  /// Accepted connections beyond this are closed immediately.
  int max_connections = 256;

  /// Default deadline for REQ/STREAM/EXEC in milliseconds from arrival
  /// (0 = none). A +d option on the request line overrides it.
  std::int64_t default_timeout_ms = 0;

  /// Slow-query log directory, created by Start(); empty (the default) is
  /// off. When set, every REQ, STREAM and EXEC is traced, and each one that
  /// took at least `slow_ms` (queue_ms + total_ms) is written as Chrome
  /// trace JSON to DIR/trace-<conn>-<id>-<seq>.json before its reply.
  std::string trace_dir = {};
  std::int64_t slow_ms = 0;
};

class AdpNetServer {
 public:
  /// `engine` must outlive this server.
  AdpNetServer(AdpEngine& engine, NetServerConfig config = {});
  ~AdpNetServer();

  AdpNetServer(const AdpNetServer&) = delete;
  AdpNetServer& operator=(const AdpNetServer&) = delete;

  /// Binds, listens, and spawns the event loop. Fails with kInternal when
  /// the address cannot be bound, and with kInvalidArgument when
  /// config.trace_dir cannot be created. Call once.
  Status Start();

  /// Stops the loop, closes every connection (cancelling its in-flight
  /// requests and streams), and joins. Idempotent.
  void Stop();

  /// The bound port (the real one when config.port was 0). 0 before
  /// Start().
  int port() const { return port_; }

  const NetServerConfig& config() const { return config_; }

 private:
  struct Conn;
  struct Outbox;
  struct SlowLog;
  struct Waker;

  void Loop();
  void AcceptAll();
  void ReadConn(Conn& conn);
  void HandleFrame(Conn& conn, std::uint8_t type, const std::string& payload);
  // The one admission path of REQ, STREAM and EXEC: throws the
  // caller-facing error of the first check that fails.
  ParsedRequest Admit(Conn& conn, std::int64_t id, std::uint8_t type,
                      std::vector<std::string> toks);
  void PumpConn(Conn& conn);
  void FlushConn(Conn& conn);
  void CloseConn(int fd);
  void SendError(Conn& conn, std::int64_t id, StatusCode code,
                 const std::string& message);
  void SendFrame(Conn& conn, std::uint8_t type, const std::string& payload);

  AdpEngine& engine_;
  const NetServerConfig config_;

  // Held shared so frames appended by engine-worker callbacks can count
  // themselves even if the server is being torn down.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* connections_total_ = nullptr;
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Gauge* open_connections_ = nullptr;
  obs::Gauge* outbound_queue_bytes_ = nullptr;
  obs::Histogram* conn_inflight_ = nullptr;

  int listen_fd_ = -1;
  int port_ = 0;
  std::shared_ptr<SlowLog> slow_log_;
  std::shared_ptr<Waker> waker_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread loop_;

  // Event-loop-thread-only state.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::int64_t next_conn_id_ = 1;
};

}  // namespace adp::net

#endif  // ADP_NET_SERVER_H_
