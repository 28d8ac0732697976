// The benchmark's workloads (see perfbench/DESIGN.md for why each exists).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"
#include "harness.h"

namespace perfbench {

/// latency_tail_ms: serve_mixed reports this quantile of latency, and
/// paper_solve the mean latency at or above it. serve_mixed's p99 swung with
/// host hiccups.
inline constexpr double kTailQuantile = 0.90;

/// The §8 instances at the paper's sizes, each at ρ = 10% and 50%.
Suite BuildPaperSuite(std::uint64_t seed, bool* refs_ok);

/// The family catalog without disc3.full.small.mid, plus
/// disc2.full.tiny.sparse: several seeded databases per family, each at
/// k = 1, 2, 3.
Suite BuildServeSuite(std::uint64_t seed, bool* refs_ok);

RunResult RunPaperSolve(const RunConfig& cfg);

RunResult RunServe(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
