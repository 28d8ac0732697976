// Shared pieces of the ADP benchmark: the in-memory span recorder, exact
// sample statistics, the metric sink that prints the result line, and the
// answer oracle every timed response is checked against.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "query/query.h"
#include "solver/compute_adp.h"
#include "solver/solution.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
inline double MsSince(Clock::time_point t0) { return MsSince(t0, Clock::now()); }

/// CPU time consumed so far by the calling thread / the whole process, ms.
double ThreadCpuMs();
double ProcessCpuMs();

// --- Spans ------------------------------------------------------------------

/// One recorded span. `op` is nonzero on the spans of one workload
/// operation (the op's root span and its children) and `cell` names the
/// workload cell (-1 when the span is not per cell). `probe` marks spans
/// recorded by the per-layer probes rather than the workload's own loop.
struct SpanRecord {
  std::string name;  // "<layer>.<function>", e.g. "solver.ComputeAdp"
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  int cell = -1;
  bool probe = false;
};

/// Keeps spans in memory until the run ends. A disabled tracer records
/// nothing; Span objects built on it cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  double Offset(Clock::time_point t) const { return MsSince(origin_, t); }

  /// Spans started while probing carry SpanRecord::probe.
  void set_probing(bool probing) { probing_ = probing; }
  bool probing() const { return probing_; }

  void Record(SpanRecord rec);

  /// Self time per operation, by layer: over the op trees (spans with a
  /// nonzero op) whose `probe` flag equals `probe`, each span's duration
  /// minus the part its children cover, summed per layer — the name prefix
  /// before the first '.' — and divided by the number of op trees. The
  /// layers of one op add up to its root span's duration.
  std::map<std::string, double> SelfMsPerOp(bool probe) const;

  std::size_t size() const;

  /// Writes every span plus the per-op layer self times as one JSON object.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<bool> probing_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t parent = 0,
       std::uint64_t op = 0, int cell = -1);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }

  /// Adds a child span of `ms` that the system reported (e.g. an engine
  /// response's solve_ms) under `parent` — this span, or a child added
  /// before. The call ran inside this span but the benchmark cannot see
  /// where, so End() places every such child to end where this span ends;
  /// only its length is measured. Returns the child's id.
  std::uint64_t AddReportedChild(const char* name, double ms,
                                 std::uint64_t parent = 0);

  void End();

 private:
  struct Reported {
    SpanRecord rec;
    double ms;
  };
  Tracer* tracer_;
  SpanRecord rec_;
  Clock::time_point start_;
  std::vector<Reported> reported_;
};

// --- Statistics ---------------------------------------------------------------

/// Exact quantile of raw samples (linear interpolation between order
/// statistics). `p` in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
/// Geometric mean of positive samples; 0 for an empty sample.
double GeoMean(const std::vector<double>& samples);

/// Current resident set size of this process, MiB (0 where unknown).
double RssMb();

// --- Result line ------------------------------------------------------------

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...} with all digits of each value.
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// --- Workload instances and the oracle -----------------------------------

/// One (query, database) of a workload. `db` names its relations after the
/// query's body atoms, in body order, so it can be registered with the
/// engine, uploaded over the wire, and solved directly (`rooted`).
struct Instance {
  std::string name;
  std::string query_text;
  adp::ConjunctiveQuery query;
  adp::NamedDatabase db;
  /// `db.db` with every instance re-rooted at its own body index, which a
  /// direct ComputeAdp needs to report root-coordinate witnesses.
  adp::Database rooted;
  adp::AdpOptions options;  // solve knobs (heuristic); never counting_only
};

/// The reference answer of one (instance, k), computed by a direct solve
/// outside every timer.
struct Expected {
  std::int64_t cost = 0;
  bool feasible = true;
  bool exact = true;
  std::int64_t output_count = 0;
  std::vector<adp::TupleRef> tuples;  // sorted, deduplicated
  std::string tuples_json;            // as the wire renders them
};

/// One timed unit of a workload: an instance and its deletion target.
struct Cell {
  std::string name;
  int instance = 0;
  std::int64_t k = 1;
  adp::AdpCase root_case = adp::AdpCase::kHeuristic;
  Expected ref;
};

struct Suite {
  std::vector<Instance> instances;
  std::vector<Cell> cells;
};

/// Builds an Instance from a query and its body-aligned database.
Instance MakeInstance(std::string name, const adp::ConjunctiveQuery& query,
                      std::string query_text, adp::Database db,
                      adp::AdpOptions options = {});

/// Adds the cell (instance, k): solves it directly for the reference, and
/// checks once that the reference witnesses remove >= k outputs. Returns
/// false when that check fails.
bool AddCell(Suite& suite, int instance, std::int64_t k, std::string name);

/// |Q(D)| of an instance, selections honoured.
std::int64_t OutputCount(const Instance& inst);

/// Order-sensitive digest of every reference answer: the same seed must
/// give the same value.
std::uint64_t ReferenceChecksum(const Suite& suite);

/// True iff `sol` (normalized witnesses) equals the reference.
bool Matches(const adp::AdpSolution& sol, const Expected& ref);

/// True iff a drained stream concatenates to the reference: a kEnd item
/// last with matching status, cost and count, and witness batches that
/// normalize to the reference witnesses.
bool CheckStream(const std::vector<adp::StreamItem>& items,
                 const Expected& ref);

/// "DB <name> R1=1,2/3,4 ..." for the instance's database.
std::string DbLine(const std::string& db_name, const adp::NamedDatabase& db);

// --- Wire reply parsing -------------------------------------------------------

/// Integer after `key` (e.g. "\"cost\":") in a reply line; `fallback` when
/// absent.
std::int64_t WireInt(const std::string& line, const char* key,
                     std::int64_t fallback = 0);
double WireDouble(const std::string& line, const char* key);
/// True iff the line carries "status":"OK".
bool WireOk(const std::string& line);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
