// Network round-trip overhead: the AdpNetServer front door versus direct
// AdpEngine calls on the same workload.
//
// NetReqRoundTrip measures single-client REQ latency over loopback — one
// frame out, one kResult frame back — against an in-process server. The
// engine work is a warm-cache chain solve, so the measured time is
// dominated by framing, the event loop, and two loopback hops; comparing
// against EngineThroughput's per-request latency isolates the wire tax.
//
// NetPipelinedThroughput measures the serving regime the front door is
// built for: `clients` concurrent connections each pipelining `batch`
// REQs before draining the replies, so the event loop, worker pool, and
// per-connection outboxes all stay busy. items_per_second counts
// completed request round-trips across all clients.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace adp::bench {
namespace {

using net::AdpNetClient;
using net::AdpNetServer;
using net::Frame;
using net::FrameType;
using net::NetServerConfig;

constexpr char kDbLine[] =
    "DB d1 R1=11,21/12,22/13,23 R2=21,31/22,32/22,33/23,33 "
    "R3=31,41/32,43/33,43";
constexpr char kReqLine[] = "REQ d1 2 Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)";

/// Engine + started server, shared by every iteration of one benchmark.
struct ServerHarness {
  explicit ServerHarness(int workers) : engine(MakeConfig(workers)) {
    server = std::make_unique<AdpNetServer>(engine);
    if (!server->Start().ok()) std::abort();
  }
  ~ServerHarness() {
    server->Stop();
    engine.Shutdown();
  }

  static EngineConfig MakeConfig(int workers) {
    EngineConfig config;
    config.num_workers = workers;
    return config;
  }

  AdpNetClient Connect() {
    AdpNetClient client;
    if (!client.Connect("127.0.0.1", server->port())) std::abort();
    std::string body;
    if (!client.Call(FrameType::kDb, kDbLine, &body)) std::abort();
    return client;
  }

  AdpEngine engine;
  std::unique_ptr<AdpNetServer> server;
};

/// One pipelined batch on an already-connected client; returns completed
/// round-trips (aborts on protocol failure — a bench must not lie).
std::int64_t RunBatch(AdpNetClient& client, int batch) {
  std::vector<std::int64_t> ids;
  ids.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    const std::int64_t id = client.NextId();
    if (!client.Send(FrameType::kReq, id, kReqLine)) std::abort();
    ids.push_back(id);
  }
  for (const std::int64_t id : ids) {
    if (!client.WaitReply(id).has_value()) std::abort();
  }
  return batch;
}

void NetReqRoundTrip(benchmark::State& state) {
  ServerHarness harness(static_cast<int>(state.range(0)));
  AdpNetClient client = harness.Connect();
  std::string body;
  client.Call(FrameType::kReq, kReqLine, &body);  // warm the plan cache
  for (auto _ : state) {
    if (!client.Call(FrameType::kReq, kReqLine, &body)) std::abort();
    benchmark::DoNotOptimize(body.data());
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(NetReqRoundTrip)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("workers")
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void NetPipelinedThroughput(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  if (SkipIfCoresCannotScale(state, clients)) return;
  ServerHarness harness(/*workers=*/4);
  std::vector<AdpNetClient> conns;
  for (int c = 0; c < clients; ++c) conns.push_back(harness.Connect());
  std::string body;
  conns[0].Call(FrameType::kReq, kReqLine, &body);  // warm the plan cache

  std::int64_t total = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(conns.size());
    for (AdpNetClient& conn : conns) {
      threads.emplace_back([&conn, batch] { RunBatch(conn, batch); });
    }
    for (std::thread& t : threads) t.join();
    total += static_cast<std::int64_t>(clients) * batch;
  }
  state.SetItemsProcessed(total);
}

BENCHMARK(NetPipelinedThroughput)
    ->Args({1, 32})
    ->Args({4, 32})
    ->Args({8, 32})
    ->ArgNames({"clients", "batch"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace adp::bench

BENCHMARK_MAIN();
