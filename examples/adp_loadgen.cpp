// adp_loadgen: command-line load generator over the workload family
// generator and LoadDriver (docs/WORKLOAD.md).
//
// Runs a seeded, reproducible traffic blend against an in-process
// AdpEngine — or, with --net, against an in-process AdpNetServer over
// loopback so the whole wire path (framing, per-connection databases,
// PREPARE/EXEC, CANCEL, deadlines) is under load too — and prints the
// outcome buckets, throughput, and latency quantiles.
//
//   adp_loadgen                                # catalog, pure-execute blend
//   adp_loadgen --list-families
//   adp_loadgen --mix=execute:4,stream:2,cancel:1 --requests=500
//   adp_loadgen --open-loop --rate=300 --requests=400
//   adp_loadgen --net --concurrency=8
//   adp_loadgen --family=star3.proj.small.mid --json=report.json
//
// Exit codes: 0 success, 1 outcome-invariant violation, 2 usage error (a
// malformed or out-of-range flag value is one).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "net/server.h"
#include "util/parse_int.h"
#include "workload/driver.h"
#include "workload/families.h"

namespace {

using namespace adp;           // NOLINT
using namespace adp::workload; // NOLINT

const char* CaseName(AdpCase c) {
  switch (c) {
    case AdpCase::kBoolean: return "Boolean";
    case AdpCase::kSingleton: return "Singleton";
    case AdpCase::kUniverse: return "Universe";
    case AdpCase::kDecompose: return "Decompose";
    case AdpCase::kHeuristic: return "Heuristic";
  }
  return "?";
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --list-families          print the default catalog and exit\n"
      "  --family=NAME            run only the catalog family NAME\n"
      "                           (repeatable; default: whole catalog)\n"
      "  --mix=K:W,K:W,...        traffic mix weights; keys execute,\n"
      "                           prepared, stream, cancel, expired\n"
      "  --requests=N             ops in the plan (default 256)\n"
      "  --concurrency=N          driver threads / stream slots (default 4)\n"
      "  --workers=N              engine worker threads (default 4)\n"
      "  --max-k=N                per-op k drawn from [1,N] (default 3)\n"
      "  --seed=N                 plan + data seed (default 1)\n"
      "  --open-loop --rate=RPS   paced arrivals instead of closed loop\n"
      "  --coalesce-window-ms=MS  engine coalescing admission window\n"
      "  --max-queue-depth=N      engine shedding bound (0 = unbounded)\n"
      "  --net                    drive through a loopback AdpNetServer\n"
      "  --json=PATH              also write the report as flat JSON\n",
      argv0);
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

bool ParseF64(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DriverConfig dc;
  dc.seed = 1;
  EngineConfig ec;
  bool net = false;
  std::string json_path;
  std::vector<std::string> family_names;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    std::int64_t n = 0;
    double f = 0;
    if (arg == "--list-families") {
      for (const FamilySpec& spec : DefaultFamilyCatalog()) {
        const FamilyLabel label = LabelFor(spec);
        std::printf("%-26s %s  %s\n", FamilyName(spec).c_str(),
                    label.ptime ? "ptime" : "hard ",
                    CaseName(label.root_case));
      }
      return 0;
    } else if (arg.rfind("--family=", 0) == 0) {
      family_names.push_back(value("--family="));
    } else if (arg.rfind("--mix=", 0) == 0) {
      try {
        dc.mix = ParseTrafficMix(value("--mix="));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg.rfind("--requests=", 0) == 0 &&
               ParseIntInRange(value("--requests="), 0, kIntMax, &n)) {
      dc.requests = static_cast<int>(n);
    } else if (arg.rfind("--concurrency=", 0) == 0 &&
               ParseIntInRange(value("--concurrency="), 1, 4096, &n)) {
      dc.concurrency = static_cast<int>(n);
    } else if (arg.rfind("--workers=", 0) == 0 &&
               ParseIntInRange(value("--workers="), 1, 4096, &n)) {
      ec.num_workers = static_cast<int>(n);
    } else if (arg.rfind("--max-k=", 0) == 0 &&
               ParseIntInRange(value("--max-k="), 1, kI64Max, &n)) {
      dc.max_k = n;
    } else if (arg.rfind("--seed=", 0) == 0 &&
               ParseIntInRange(value("--seed="), 0, kI64Max, &n)) {
      dc.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--open-loop") {
      dc.open_loop = true;
    } else if (arg.rfind("--rate=", 0) == 0 && ParseF64(value("--rate="), &f)) {
      dc.offered_rps = f;
    } else if (arg.rfind("--coalesce-window-ms=", 0) == 0 &&
               ParseF64(value("--coalesce-window-ms="), &f)) {
      ec.coalesce_window_ms = f;
    } else if (arg.rfind("--max-queue-depth=", 0) == 0 &&
               ParseIntInRange(value("--max-queue-depth="), 0, 1 << 24, &n)) {
      ec.max_queue_depth = static_cast<std::size_t>(n);
    } else if (arg == "--net") {
      net = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = value("--json=");
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  // Resolve the family set: the whole catalog, or the named subset.
  std::vector<FamilySpec> specs;
  for (const FamilySpec& spec : DefaultFamilyCatalog()) {
    if (family_names.empty()) {
      specs.push_back(spec);
      continue;
    }
    const std::string name = FamilyName(spec);
    for (const std::string& want : family_names) {
      if (name == want) specs.push_back(spec);
    }
  }
  if (specs.empty()) {
    std::fprintf(stderr, "no catalog family matched; try --list-families\n");
    return 2;
  }

  AdpEngine engine(ec);
  LoadDriver driver(engine, MakeFamilySet(specs, dc.seed), dc);

  DriverReport rep;
  if (net) {
    net::NetServerConfig sc;
    sc.port = 0;  // ephemeral
    net::AdpNetServer server(engine, sc);
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "net server failed to start: %s\n",
                   started.message().c_str());
      return 2;
    }
    rep = driver.RunOverNet("127.0.0.1", server.port());
    server.Stop();
  } else {
    rep = driver.Run();
  }

  const DriverOutcomes& o = rep.outcomes;
  std::printf("families=%zu ops=%llu+%llu streams  wall=%.1fms  %s %s\n",
              specs.size(), static_cast<unsigned long long>(o.issued),
              static_cast<unsigned long long>(o.streams_issued), rep.wall_ms,
              dc.open_loop ? "open-loop" : "closed-loop",
              net ? "over-net" : "in-process");
  std::printf("requests: ok=%llu cancelled=%llu expired=%llu shed=%llu "
              "failed=%llu\n",
              static_cast<unsigned long long>(o.ok),
              static_cast<unsigned long long>(o.cancelled),
              static_cast<unsigned long long>(o.expired),
              static_cast<unsigned long long>(o.shed),
              static_cast<unsigned long long>(o.failed));
  std::printf("streams:  ok=%llu torn_down=%llu shed=%llu failed=%llu "
              "items=%llu\n",
              static_cast<unsigned long long>(o.streams_ok),
              static_cast<unsigned long long>(o.streams_torn_down),
              static_cast<unsigned long long>(o.streams_shed),
              static_cast<unsigned long long>(o.streams_failed),
              static_cast<unsigned long long>(o.stream_items));
  std::printf("throughput=%.1f ops/s  client p50=%.3fms p99=%.3fms  "
              "engine p50=%.3fms p99=%.3fms  checksum=%lld\n",
              rep.throughput_ops_per_sec, rep.client_p50_ms, rep.client_p99_ms,
              rep.engine_p50_ms, rep.engine_p99_ms,
              static_cast<long long>(rep.answer_checksum));

  if (!json_path.empty()) {
    // Flat sorted-key JSON, same shape as the BENCH_*.json trajectories.
    std::map<std::string, double> kv = {
        {"ops_per_sec", rep.throughput_ops_per_sec},
        {"client_p50_ms", rep.client_p50_ms},
        {"client_p99_ms", rep.client_p99_ms},
        {"engine_p50_ms", rep.engine_p50_ms},
        {"engine_p99_ms", rep.engine_p99_ms},
        {"wall_ms", rep.wall_ms},
        {"issued", static_cast<double>(o.issued)},
        {"streams_issued", static_cast<double>(o.streams_issued)},
        {"ok", static_cast<double>(o.ok)},
        {"cancelled", static_cast<double>(o.cancelled)},
        {"expired", static_cast<double>(o.expired)},
        {"shed", static_cast<double>(o.shed)},
        {"failed", static_cast<double>(o.failed)},
        {"checksum", static_cast<double>(rep.answer_checksum)},
    };
    std::ofstream out(json_path);
    out << "{";
    bool first = true;
    for (const auto& [key, val] : kv) {
      if (!first) out << ",";
      first = false;
      out << "\n  \"" << key << "\": " << val;
    }
    out << "\n}\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    }
  }

  if (!OutcomesConsistent(o)) {
    std::fprintf(stderr, "FAIL: outcome buckets do not sum to issued ops\n");
    return 1;
  }
  return 0;
}
