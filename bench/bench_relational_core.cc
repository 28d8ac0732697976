// Ablation for the columnar relational core: row-at-a-time baselines (the
// pre-columnar implementations, reconstructed here) vs the shipped
// code-native paths, on the two DP-heavy substrates the refactor targeted:
//
//   1. Universe grouping (Algorithm 4's partition step / the join build
//      side): Tuple-keyed hashing over materialized rows vs HashGroupIndex
//      over dictionary codes.
//   2. Witness normalization (NormalizeTupleRefs on large solutions):
//      struct sort+unique with a two-field comparator vs the packed-uint64
//      sort the solver ships.
//
// Each comparison asserts bit-identical outputs before reporting. After the
// registered micro-benchmarks run (CI skips them with --benchmark_filter of
// '^$'), EmitRelationalAblation() times both sides on the paper's DP-heavy
// workloads (Zipf Q6 and the correlated Q7 instance, §8.4/§8.5) and writes
// BENCH_relational.json (path overridable via ADP_BENCH_JSON) next to the
// engine trajectory artifact.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "relational/group_index.h"
#include "solver/solution.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/synthetic.h"
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

// Canonical (sorted, decoded) form of either grouping for the equality
// assertion.
std::map<Tuple, std::vector<TupleId>> Canonical(const RowGroups& groups) {
  return {groups.begin(), groups.end()};
}

std::map<Tuple, std::vector<TupleId>> Canonical(const HashGroupIndex& index) {
  std::map<Tuple, std::vector<TupleId>> out;
  for (std::size_t g = 0; g < index.num_groups(); ++g) {
    const auto rows = index.rows(g);
    out[index.KeyValues(g)].assign(rows.begin(), rows.end());
  }
  return out;
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

// --- Registered micro-benchmarks (skipped by CI's filter) ---

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

// --- JSON ablation artifact ---

constexpr int kReps = 7;  // best-of to shed scheduler noise

template <typename Fn>
double BestMs(Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < kReps; ++i) {
    const MonotonicClock::time_point start = Now();
    fn();
    const double ms = MsBetween(start, Now());
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

void AblateGrouping(BenchJsonWriter& json, const std::string& name,
                    const RelationInstance& inst,
                    const std::vector<int>& key_cols) {
  const RowGroups row_groups = GroupRowAtATime(inst, key_cols);
  const HashGroupIndex col_index(inst, key_cols);
  const bool identical = Canonical(row_groups) == Canonical(col_index);

  const double row_ms =
      BestMs([&] { benchmark::DoNotOptimize(GroupRowAtATime(inst, key_cols)); });
  const double col_ms = BestMs([&] {
    const HashGroupIndex index(inst, key_cols);
    benchmark::DoNotOptimize(index.num_groups());
  });

  json.Add(name + "_rows", static_cast<double>(inst.size()));
  json.Add(name + "_row_ms", row_ms);
  json.Add(name + "_columnar_ms", col_ms);
  json.Add(name + "_speedup", col_ms > 0.0 ? row_ms / col_ms : 0.0);
  json.Add(name + "_identical", identical ? 1.0 : 0.0);
}

void AblateNormalize(BenchJsonWriter& json, const std::string& name,
                     const std::vector<TupleRef>& refs) {
  std::vector<TupleRef> a = refs, b = refs;
  NormalizeRowAtATime(a);
  NormalizeTupleRefs(b);
  const bool identical = a == b;

  const double row_ms = BestMs([&] {
    std::vector<TupleRef> work = refs;
    NormalizeRowAtATime(work);
    benchmark::DoNotOptimize(work.size());
  });
  const double col_ms = BestMs([&] {
    std::vector<TupleRef> work = refs;
    NormalizeTupleRefs(work);
    benchmark::DoNotOptimize(work.size());
  });

  json.Add(name + "_refs", static_cast<double>(refs.size()));
  json.Add(name + "_row_ms", row_ms);
  json.Add(name + "_columnar_ms", col_ms);
  json.Add(name + "_speedup", col_ms > 0.0 ? row_ms / col_ms : 0.0);
  json.Add(name + "_identical", identical ? 1.0 : 0.0);
}

void EmitRelationalAblation() {
  const char* env = std::getenv("ADP_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_relational.json";

  BenchJsonWriter json;

  // Universe grouping on the Zipf Q6 instance: R2(A,B) grouped by the
  // universal attribute A (skewed group sizes, §8.4).
  const Database zipf = ZipfDb(200000);
  AblateGrouping(json, "group_zipf_q6", zipf.rel(1), {0});

  // Universe grouping on the correlated Q7 instance: R2(A,B,C,D,E) grouped
  // by the universal (A,B,C) prefix (dense keys, §8.5).
  const ConjunctiveQuery q7 = MakeQ7();
  const Database q7db =
      MakeQ7Database(q7, /*num_keys=*/2000, /*rows_per_key=*/50, /*seed=*/7);
  AblateGrouping(json, "group_q7", q7db.rel(1), {0, 1, 2});

  // Witness normalization over duplicate-heavy scrambled solutions from
  // both workloads.
  AblateNormalize(json, "normalize_zipf_q6", MakeWitnessList(zipf, 3, 11));
  AblateNormalize(json, "normalize_q7", MakeWitnessList(q7db, 3, 13));

  if (!json.WriteTo(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace adp::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  adp::bench::EmitRelationalAblation();
  return 0;
}
