// Figures 8 & 9: heuristics vs the exact algorithm on σθQ1 (easy).
//
// The paper invokes the heuristic leaves directly (Line 5 of Algorithm 2)
// on the selected query. Shape to reproduce:
//   Fig 8 (time):   Drastic < Greedy, both below Exact reporting at scale
//                   in the paper's SQL setting; in-memory the exact
//                   decomposition is very cheap, so the interesting ordering
//                   is Drastic << Greedy (see EXPERIMENTS.md).
//   Fig 9 (quality, counters): all three coincide — the heuristics find
//                   optimal solutions on this distribution.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "solver/drastic.h"
#include "solver/greedy.h"
#include "workload/tpch.h"

namespace adp::bench {
namespace {

enum Method { kExact = 0, kGreedy = 1, kDrastic = 2 };

void Fig0809EasyHeuristics(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t rho = state.range(1);
  const Method method = static_cast<Method>(state.range(2));

  const TpchWorkload w = MakeTpchSelected(n, /*seed=*/42);
  // Heuristic leaves run on the residual (selection-free) query.
  const QueryDb pushed = ApplySelections(w.query, w.db);
  const std::int64_t outputs = static_cast<std::int64_t>(
      CountOutputs(pushed.query.body(), pushed.query.head(), pushed.db));
  const std::int64_t k = std::max<std::int64_t>(1, outputs * rho / 100);

  AdpOptions options;
  AdpSolution sol;
  for (auto _ : state) {
    switch (method) {
      case kExact:
        sol = ComputeAdp(w.query, w.db, k, options);
        break;
      case kGreedy: {
        // A leaf's own counting pass, joins kept (as SolveNode makes it).
        CountReads reads;
        reads.joins = true;
        const AdpNode node =
            GreedyNode(pushed.query, pushed.db, k, options,
                       CountComponents(pushed.query.body(),
                                       pushed.query.head(), pushed.db, reads));
        sol.cost = node.profile.At(k);
        sol.tuples = node.report(k);
        sol.exact = false;
        break;
      }
      case kDrastic: {
        const AdpNode node = DrasticNode(
            pushed.query, pushed.db, k, options,
            CountComponents(pushed.query.body(), pushed.query.head(),
                            pushed.db, DrasticReads(pushed.query, options)));
        sol.cost = node.profile.At(k);
        sol.tuples = node.report(k);
        sol.exact = false;
        break;
      }
    }
    benchmark::DoNotOptimize(sol.cost);
  }
  Report(state, outputs, k, sol);
}

void Sweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : BenchSizes(/*cap=*/1000000)) {
    for (std::int64_t rho : Ratios()) {
      b->Args({n, rho, kExact});
      b->Args({n, rho, kDrastic});
      // Greedy materializes the full provenance index and rescans profits
      // every round; cap it like the paper's stopped curves.
      if (n <= 30000) b->Args({n, rho, kGreedy});
    }
  }
}

BENCHMARK(Fig0809EasyHeuristics)
    ->Apply(Sweep)
    ->ArgNames({"N", "rho_pct", "method"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace adp::bench

BENCHMARK_MAIN();
