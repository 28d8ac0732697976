// adp_netserver: the ADP engine behind a TCP socket (src/net/server.h).
//
// Starts an AdpEngine, puts AdpNetServer in front of it, prints one line
//
//   listening on <host>:<port>
//
// to stdout (port is the actually-bound one, so --port=0 callers — tests,
// tools/net_smoke.sh — can parse it), and serves until stdin reaches EOF
// or the process is terminated. Wire protocol: docs/PROTOCOL.md; replay a
// request file against it with examples/adp_netclient.cpp.
//
// Usage:  adp_netserver [--host=A] [--port=P] [--workers=N]
//                       [--min-shard-groups=G] [--min-shard-components=C]
//                       [--coalesce-window-ms=W] [--timeout-ms=T]
//                       [--stream-batch-tuples=B] [--max-queue-depth=Q]
//                       [--max-connections=M] [--trace-dir=DIR]
//                       [--slow-ms=S]
//
//   --host=A                 listen address (default 127.0.0.1)
//   --port=P                 listen port; 0 (default) binds an ephemeral
//                            port, reported on the "listening on" line
//   --timeout-ms=T           default per-request deadline (0 = none); a
//                            +d request option overrides it
//   --max-queue-depth=Q      load shedding: async requests arriving while
//                            more than Q tasks wait on the pool are
//                            rejected with OVERLOADED (0 = unbounded)
//   --max-connections=M      connections beyond M are refused (default 256)
//   --trace-dir=DIR          slow-query log: trace every request and write
//                            each one at least --slow-ms=S (default 0)
//                            slow as DIR/trace-<conn>-<id>-<seq>.json
//
// --workers sets EngineConfig::num_workers, and the other flags the
// EngineConfig fields of the same names (docs/ENGINE.md). A malformed or
// out-of-range value exits 1.

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "engine/engine.h"
#include "net/server.h"
#include "util/parse_int.h"

namespace {

// Sets `*out` to the whole value after the `prefix_len`-byte "--name="
// prefix of `arg`, in [min_value, max_value]; anything else exits 1.
template <typename T>
void ParseFlagValue(const std::string& arg, std::size_t prefix_len,
                    std::int64_t min_value, std::int64_t max_value, T* out) {
  if (!adp::ParseIntInRange(std::string_view(arg).substr(prefix_len),
                            min_value, max_value, out)) {
    std::cerr << "bad flag value: " << arg << "\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  adp::EngineConfig config;
  adp::net::NetServerConfig net;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) {
      net.host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      ParseFlagValue(arg, 7, 0, 65535, &net.port);
    } else if (arg.rfind("--workers=", 0) == 0) {
      ParseFlagValue(arg, 10, 1, 4096, &config.num_workers);
    } else if (arg.rfind("--min-shard-groups=", 0) == 0) {
      ParseFlagValue(arg, 19, 0, 1 << 20, &config.min_shard_groups);
    } else if (arg.rfind("--min-shard-components=", 0) == 0) {
      ParseFlagValue(arg, 23, 0, 1 << 20, &config.min_shard_components);
    } else if (arg.rfind("--coalesce-window-ms=", 0) == 0) {
      ParseFlagValue(arg, 21, 0, 86'400'000, &config.coalesce_window_ms);
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      ParseFlagValue(arg, 13, 0, 86'400'000, &net.default_timeout_ms);
    } else if (arg.rfind("--stream-batch-tuples=", 0) == 0) {
      ParseFlagValue(arg, 22, 0, 1 << 24, &config.stream_batch_tuples);
    } else if (arg.rfind("--max-queue-depth=", 0) == 0) {
      ParseFlagValue(arg, 18, 0, 1 << 24, &config.max_queue_depth);
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      ParseFlagValue(arg, 18, 1, 1 << 20, &net.max_connections);
    } else if (arg.rfind("--trace-dir=", 0) == 0) {
      net.trace_dir = arg.substr(12);
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      ParseFlagValue(arg, 10, 0, 86'400'000, &net.slow_ms);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }

  adp::AdpEngine engine(config);
  adp::net::AdpNetServer server(engine, net);
  const adp::Status status = server.Start();
  if (!status.ok()) {
    std::cerr << "start failed: " << status.message() << "\n";
    return adp::StatusExitCode(status.code());
  }
  std::cout << "listening on " << net.host << ":" << server.port() << "\n"
            << std::flush;

  // Serve until stdin closes — the natural lifetime under a harness that
  // holds our stdin open (tools/net_smoke.sh, tests), and Ctrl-D
  // interactively. SIGTERM/SIGINT end the process the default way.
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  server.Stop();
  engine.Shutdown();
  return 0;
}
