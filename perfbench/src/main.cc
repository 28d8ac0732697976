// The ADP benchmark binary. Usage:
//
//   adp_perfbench --workload <paper_solve|serve_mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Prints one JSON line of run facts, then the result line
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics (--trace 1). Exits
// 1 when any answer disagreed with the reference, 2 on bad arguments.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::cerr << "adp_perfbench: " << why
            << "\nusage: adp_perfbench --workload <paper_solve|serve_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--spans-out") {
      cfg.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (cfg.seconds <= 0.0) return Usage("--seconds must be positive");

  // glibc returns freed memory to the kernel eagerly (heap trimming and
  // mmap for blocks over 128 KiB), so the solves' short-lived buffers
  // fault their pages in again on every op: 500k+ page faults a second
  // on serve_mixed, a third of the CPU, with a cost that swings with host load.
  // Fixed, high thresholds keep freed memory in the process.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::RunResult r;
  try {
    if (cfg.workload == "paper_solve") {
      r = perfbench::RunPaperSolve(cfg);
    } else if (cfg.workload == "serve_mixed") {
      r = perfbench::RunServe(cfg);
    } else {
      return Usage(("unknown workload '" + cfg.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "adp_perfbench: " << e.what() << "\n";
    return 1;
  }

  std::cout << "{\"workload\": \"" << cfg.workload << "\", \"seed\": "
            << cfg.seed << ", \"trace\": " << (cfg.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency();
  for (const auto& [key, value] : r.facts) {
    std::cout << ", \"" << key << "\": " << value;
  }
  std::cout << "}\n";
  std::cerr << r.notes;
  std::cout << "{\"correct\": " << (r.correct && r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": "
            << r.failed << ", \"metrics\": " << r.metrics.Json() << "}"
            << std::endl;
  return r.correct && r.failed == 0 ? 0 : 1;
}
