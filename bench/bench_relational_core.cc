// Ablation for the columnar relational core: row-at-a-time baselines (the
// pre-columnar implementations, reconstructed here) vs the shipped
// code-native paths, on the two DP-heavy substrates the refactor targeted,
// over the paper's Zipf Q6 instance (§8.4):
//
//   1. Universe grouping (Algorithm 4's partition step / the join build
//      side): Tuple-keyed hashing over materialized rows vs HashGroupIndex
//      over dictionary codes.
//   2. Witness normalization (NormalizeTupleRefs on large solutions):
//      struct sort+unique with a two-field comparator vs the packed-uint64
//      sort the solver ships.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "relational/group_index.h"
#include "solver/solution.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/zipf_data.h"

namespace adp::bench {
namespace {

struct TupleHash {
  std::size_t operator()(const Tuple& t) const {
    std::uint64_t h = 0x2545f4914f6cdd1dULL;
    for (Value v : t) h = HashMix(h, static_cast<std::uint64_t>(v));
    return static_cast<std::size_t>(h);
  }
};

using RowGroups = std::unordered_map<Tuple, std::vector<TupleId>, TupleHash>;

// The pre-columnar grouping substrate: materialize each row's key as a
// Tuple and hash it. One reused key buffer keeps the baseline honest (the
// row store accessed key fields directly; re-materializing the whole row
// per tuple would overstate the columnar win).
RowGroups GroupRowAtATime(const RelationInstance& inst,
                          const std::vector<int>& key_cols) {
  RowGroups groups;
  Tuple key(key_cols.size());
  for (std::size_t t = 0; t < inst.size(); ++t) {
    for (std::size_t j = 0; j < key_cols.size(); ++j) {
      key[j] = inst.ValueAt(t, key_cols[j]);
    }
    groups[key].push_back(static_cast<TupleId>(t));
  }
  return groups;
}

// The pre-columnar NormalizeTupleRefs: sort with a two-field comparator,
// then unique on struct equality.
void NormalizeRowAtATime(std::vector<TupleRef>& tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [](const TupleRef& a, const TupleRef& b) {
              if (a.relation != b.relation) return a.relation < b.relation;
              return a.row < b.row;
            });
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
}

// A large duplicate-heavy witness list in scrambled order, as the
// Universe/Decompose reporters hand NormalizeTupleRefs on DP-heavy solves.
std::vector<TupleRef> MakeWitnessList(const Database& db, int copies,
                                      std::uint64_t seed) {
  std::vector<TupleRef> refs;
  for (std::size_t r = 0; r < db.num_relations(); ++r) {
    for (std::size_t t = 0; t < db.rel(r).size(); ++t) {
      for (int c = 0; c < copies; ++c) {
        refs.push_back({static_cast<int>(r), static_cast<TupleId>(t)});
      }
    }
  }
  Rng rng(seed);
  for (std::size_t i = refs.size(); i > 1; --i) {
    std::swap(refs[i - 1], refs[rng.Uniform(static_cast<std::uint64_t>(i))]);
  }
  return refs;
}

// --- Registered micro-benchmarks ---

Database ZipfDb(std::int64_t n) {
  return MakeZipfDatabase(MakeQ6(), n, /*alpha=*/1.0, /*seed=*/42);
}

void BM_UniverseGroupingRow(benchmark::State& state) {
  const Database db = ZipfDb(state.range(0));
  const RelationInstance& inst = db.rel(1);  // R2(A,B); group by A
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupRowAtATime(inst, {0}));
  }
  state.counters["rows"] = static_cast<double>(inst.size());
}
BENCHMARK(BM_UniverseGroupingRow)->Arg(10000)->Arg(100000);

void BM_UniverseGroupingColumnar(benchmark::State& state) {
  const Database db = ZipfDb(state.range(0));
  const RelationInstance& inst = db.rel(1);
  for (auto _ : state) {
    const HashGroupIndex index(inst, {0});
    benchmark::DoNotOptimize(index.num_groups());
  }
  state.counters["rows"] = static_cast<double>(inst.size());
}
BENCHMARK(BM_UniverseGroupingColumnar)->Arg(10000)->Arg(100000);

void BM_WitnessNormalizeRow(benchmark::State& state) {
  const Database db = ZipfDb(state.range(0));
  const std::vector<TupleRef> refs = MakeWitnessList(db, 3, 7);
  for (auto _ : state) {
    std::vector<TupleRef> work = refs;
    NormalizeRowAtATime(work);
    benchmark::DoNotOptimize(work.size());
  }
  state.counters["refs"] = static_cast<double>(refs.size());
}
BENCHMARK(BM_WitnessNormalizeRow)->Arg(10000)->Arg(100000);

void BM_WitnessNormalizeColumnar(benchmark::State& state) {
  const Database db = ZipfDb(state.range(0));
  const std::vector<TupleRef> refs = MakeWitnessList(db, 3, 7);
  for (auto _ : state) {
    std::vector<TupleRef> work = refs;
    NormalizeTupleRefs(work);
    benchmark::DoNotOptimize(work.size());
  }
  state.counters["refs"] = static_cast<double>(refs.size());
}
BENCHMARK(BM_WitnessNormalizeColumnar)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace adp::bench

BENCHMARK_MAIN();
