// paper_solve: the paper's §8 experiment through the engine. One in-process
// caller runs one prepared, bound Execute at a time (closed loop) over every
// (instance, removal ratio) cell, in seeded sweeps.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "query/parser.h"
#include "util/rng.h"
#include "workload/egonet.h"
#include "workload/families.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"
#include "workload/zipf_data.h"
#include "workloads.h"

namespace perfbench {

using adp::AdpOptions;
using adp::ConjunctiveQuery;

namespace {

/// Removal ratios ρ (percent of |Q(D)|) every paper instance is solved at.
constexpr std::int64_t kRatios[] = {10, 50};

void AddQuery(Suite& suite, std::string name, const ConjunctiveQuery& q,
              adp::Database db, AdpOptions options = {}) {
  suite.instances.push_back(
      MakeInstance(std::move(name), q, q.ToString(), std::move(db), options));
}

void AddFamily(Suite& suite, const adp::workload::FamilySpec& spec,
               std::uint64_t seed) {
  adp::workload::FamilyInstance f = adp::workload::MakeFamilyInstance(spec,
                                                                      seed);
  suite.instances.push_back(MakeInstance(f.name, f.query, f.query_text,
                                         std::move(f.db.db)));
}

}  // namespace

Suite BuildPaperSuite(std::uint64_t seed, bool* refs_ok) {
  using adp::workload::CardinalityClass;
  using adp::workload::DomainClass;
  using adp::workload::FamilyShape;
  using adp::workload::HeadClass;
  AdpOptions drastic;
  drastic.heuristic = AdpOptions::Heuristic::kDrastic;

  adp::Rng derive(seed);
  Suite suite;
  {
    adp::TpchWorkload w = adp::MakeTpchSelected(100000, derive.Next());
    AddQuery(suite, "tpch_sel_q1", w.query, std::move(w.db));
  }
  {
    adp::TpchWorkload w = adp::MakeTpchHard(10000, derive.Next());
    AddQuery(suite, "tpch_q1_drastic", w.query, std::move(w.db), drastic);
  }
  const std::uint64_t zipf_seed = derive.Next();
  AddQuery(suite, "zipf_q6", adp::MakeQ6(),
           adp::MakeZipfDatabase(adp::MakeQ6(), 100000, 0.5, zipf_seed));
  AddQuery(suite, "zipf_qpath_drastic", adp::MakeQPath(),
           adp::MakeZipfDatabase(adp::MakeQPath(), 100000, 0.5, zipf_seed),
           drastic);
  const adp::EgonetTables ego = adp::MakePaperEgonet(derive.Next());
  const std::pair<const char*, ConjunctiveQuery> ego_queries[] = {
      {"ego_q2", adp::MakeQ2()},
      {"ego_q3", adp::MakeQ3()},
      {"ego_q4", adp::MakeQ4()},
      {"ego_q5", adp::MakeQ5()},
      // Resilience of the 3-path: the Boolean case (§7.1, min cut).
      {"ego_q2_bool", adp::ParseQuery("Q() :- R1(A,B), R2(B,C), R3(C,D)")},
  };
  for (const auto& [name, q] : ego_queries) {
    AddQuery(suite, name, q, adp::MakeEdgeDatabase(q, ego));
  }
  AddQuery(suite, "q7", adp::MakeQ7(),
           adp::MakeQ7Database(adp::MakeQ7(), 400, 4, derive.Next()));
  // Q8's output count swings 2x between draws of the same size, which
  // alone moved solve_geomean_ms by 6% between seeds: its database is drawn
  // from a fixed seed.
  constexpr std::uint64_t kQ8Seed = 1;
  AddQuery(suite, "q8_large", adp::MakeQ8(),
           adp::MakeUniformDatabase(adp::MakeQ8(), {25, 300}, 100, kQ8Seed));
  AddFamily(suite, {FamilyShape::kDisconnected, 3, HeadClass::kFull,
                    CardinalityClass::kSmall, DomainClass::kMid},
            derive.Next());
  AddFamily(suite, {FamilyShape::kChain, 2, HeadClass::kFull,
                    CardinalityClass::kMedium, DomainClass::kMid},
            derive.Next());

  *refs_ok = true;
  for (std::size_t i = 0; i < suite.instances.size(); ++i) {
    const std::int64_t outputs = OutputCount(suite.instances[i]);
    std::int64_t last_k = -1;
    for (std::int64_t rho : kRatios) {
      const std::int64_t k = std::max<std::int64_t>(1, outputs * rho / 100);
      if (k == last_k) continue;  // a Boolean query has one output
      last_k = k;
      *refs_ok &= AddCell(suite, static_cast<int>(i), k,
                          suite.instances[i].name + ".rho" +
                              std::to_string(rho));
    }
  }
  return suite;
}

namespace {

/// Runs every cell once, in a seeded order, appending one sample per cell
/// tagged with `slice`. Returns the sweep's wall time in ms.
double OneSweep(const Suite& suite, const Served& served, adp::Rng& order_rng,
                Tracer* tracer, int slice, std::vector<Sample>* out) {
  std::vector<int> order(suite.cells.size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = static_cast<int>(c);
  for (std::size_t j = order.size(); j > 1; --j) {
    std::swap(order[j - 1], order[order_rng.Uniform(j)]);
  }
  const Clock::time_point start = Clock::now();
  for (int c : order) {
    const Cell& cell = suite.cells[static_cast<std::size_t>(c)];
    const std::size_t i = static_cast<std::size_t>(cell.instance);
    Span span(tracer, "engine.Execute", 0, out->size() + 1, c);
    // A synchronous Execute solves on this thread, so its CPU time is the
    // op's; unlike wall time it does not count time the host took away.
    const double cpu0 = ThreadCpuMs();
    const Clock::time_point t0 = Clock::now();
    const adp::AdpResponse resp = served.engine->Execute(
        served.handles[i], cell.k, suite.instances[i].options);
    Sample s;
    s.ms = MsSince(t0);
    s.cpu_ms = ThreadCpuMs() - cpu0;
    span.AddReportedChild("solver.solve", resp.solve_ms);
    span.End();
    s.cell = c;
    s.slice = slice;
    s.ok = resp.ok() && Matches(resp.solution, cell.ref);
    s.solve_ms = resp.solve_ms;
    out->push_back(s);
  }
  return MsSince(start);
}

}  // namespace

RunResult RunPaperSolve(const RunConfig& cfg) {
  RunResult r;
  bool refs_ok = false;
  const Suite suite = BuildPaperSuite(cfg.seed, &refs_ok);
  if (!refs_ok) {
    r.correct = false;
    r.notes += "a reference answer removed fewer than k outputs\n";
  }

  // One request at a time on the caller's thread: no pool, no sharding,
  // as in the paper's single-threaded experiment.
  adp::EngineConfig config;
  config.num_workers = 1;
  config.min_shard_groups = 0;
  config.min_shard_components = 0;
  Served served;
  std::vector<double> setup_s;
  auto set_up = [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      double s = 0.0;
      std::string error;
      if (!SetUp(suite, config, &served, &s, &error)) {
        r.correct = false;
        r.notes += "set-up failed: " + error + "\n";
        r.attempted = 1;
        r.failed = 1;
        return false;
      }
      setup_s.push_back(s);
    }
    return true;
  };
  if (!set_up()) return r;

  adp::Rng order_rng(cfg.seed ^ 0x5eedULL);
  std::vector<Sample> samples;  // untraced sweeps
  OneSweep(suite, served, order_rng, nullptr, 0, &samples);  // warm-up
  samples.clear();
  std::vector<double> sweep_ms;
  Tracer tracer(cfg.trace);
  std::vector<Sample> traced;  // traced runs alternate untraced and traced
  std::vector<double> traced_ms;
  double peak_rss_mb = 0.0;  // resident memory, most at a sweep's end
  const adp::EngineCounters before = served.engine->counters();
  const Clock::time_point start = Clock::now();
  do {
    if (cfg.trace && sweep_ms.size() > traced_ms.size()) {
      traced_ms.push_back(OneSweep(suite, served, order_rng, &tracer,
                                   static_cast<int>(traced_ms.size()),
                                   &traced));
    } else {
      sweep_ms.push_back(OneSweep(suite, served, order_rng, nullptr,
                                  static_cast<int>(sweep_ms.size()),
                                  &samples));
      peak_rss_mb = std::max(peak_rss_mb, RssMb());
    }
  } while (MsSince(start) < cfg.seconds * 1000.0 ||
           (cfg.trace && traced_ms.empty()));
  const adp::EngineCounters after = served.engine->counters();
  if (!set_up()) return r;
  CountSamples(samples, &r);
  CountSamples(traced, &r);
  AddSolveMetrics(samples, suite.cells.size(), sweep_ms, kTailQuantile,
                  &r.metrics);
  r.metrics.Add("setup_s", Median(setup_s), "s");
  r.metrics.Add("peak_rss_mb", peak_rss_mb, "MB");

  if (cfg.trace) {
    Metrics traced_m;
    AddSolveMetrics(traced, suite.cells.size(), traced_ms, kTailQuantile,
                    &traced_m);
    const double untraced_geomean = r.metrics.Get("solve_geomean_ms");
    Metrics& m = r.metrics;
    m = Metrics();  // a traced run reports the per-layer metrics only
    m.Add("trace.overhead_pct",
          100.0 * (traced_m.Get("solve_geomean_ms") / untraced_geomean - 1.0),
          "%");
    std::vector<double> self_us;
    for (const Sample& s : traced) self_us.push_back(1000.0 * (s.ms - s.solve_ms));
    m.Add("engine.self_p50_us", Quantile(self_us, 0.5), "us");
    AddCounterMetrics(before, after, 0, &m);
    RunLayerProbes(suite, config, &tracer, &r);
    FinishTrace(tracer, cfg.spans_path, &r);
  }

  std::ostringstream cells;
  cells << "{";
  std::vector<std::vector<double>> per_cell(suite.cells.size()),
      cpu_per_cell(suite.cells.size());
  for (const Sample& s : samples) {
    per_cell[static_cast<std::size_t>(s.cell)].push_back(s.ms);
    cpu_per_cell[static_cast<std::size_t>(s.cell)].push_back(s.cpu_ms);
  }
  for (std::size_t c = 0; c < suite.cells.size(); ++c) {
    cells << (c ? "," : "") << "\"" << suite.cells[c].name << "\":{\"k\":"
          << suite.cells[c].k << ",\"case\":\""
          << adp::AdpCaseName(suite.cells[c].root_case)
          << "\",\"median_ms\":" << Median(per_cell[c])
          << ",\"median_cpu_ms\":" << Median(cpu_per_cell[c])
          << ",\"n\":" << per_cell[c].size() << "}";
  }
  cells << "}";
  r.facts.emplace_back("cells", cells.str());
  r.facts.emplace_back("reference_checksum",
                       std::to_string(ReferenceChecksum(suite)));
  r.facts.emplace_back("latency_samples", std::to_string(samples.size()));
  r.facts.emplace_back("tail_quantile", std::to_string(kTailQuantile));
  r.facts.emplace_back("clients", "1");
  r.facts.emplace_back("workers", "1");
  return r;
}

}  // namespace perfbench
