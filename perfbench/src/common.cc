#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "net/textproto.h"
#include "query/transform.h"
#include "relational/join.h"

namespace perfbench {

// --- Spans ------------------------------------------------------------------

void Tracer::Record(SpanRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMsPerOp(bool probe) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  std::size_t ops = 0;
  for (const SpanRecord& s : spans_) {
    if (s.op == 0 || s.probe != probe) continue;
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    } else {
      ++ops;
    }
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans_) {
    if (s.op == 0 || s.probe != probe) continue;
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<double, double>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const double a = std::max(c->start_ms, s.start_ms);
        const double b = std::min(c->end_ms, s.end_ms);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = s.start_ms;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, reach);
      if (b > lo) covered += b - lo;
      reach = std::max(reach, b);
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end_ms - s.start_ms) - covered;
  }
  for (auto& [layer, ms] : out) ms /= static_cast<double>(ops);
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "{";
  for (bool probe : {false, true}) {
    out << (probe ? ",\"probe" : "\"workload") << "_self_ms_per_op\":{";
    const char* sep = "";
    for (const auto& [layer, ms] : SelfMsPerOp(probe)) {
      out << sep << "\"" << layer << "\":" << ms;
      sep = ",";
    }
    out << "}";
  }
  out << ",\"spans\":[";
  std::lock_guard<std::mutex> lock(mu_);
  const char* sep = "";
  for (const SpanRecord& s : spans_) {
    out << sep << "{\"name\":\"" << s.name << "\",\"start_ms\":" << s.start_ms
        << ",\"end_ms\":" << s.end_ms << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"cell\":" << s.cell
        << ",\"probe\":" << (s.probe ? "true" : "false") << "}";
    sep = ",\n";
  }
  out << "]}\n";
  return out.good();
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t parent,
           std::uint64_t op, int cell)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  rec_.name = name;
  rec_.id = tracer_->NextId();
  rec_.parent = parent;
  rec_.op = op;
  rec_.cell = cell;
  rec_.probe = tracer_->probing();
  start_ = Clock::now();
}

std::uint64_t Span::AddReportedChild(const char* name, double ms,
                                     std::uint64_t parent) {
  if (tracer_ == nullptr) return 0;
  Reported child{rec_, ms};
  child.rec.name = name;
  child.rec.id = tracer_->NextId();
  child.rec.parent = parent == 0 ? rec_.id : parent;
  reported_.push_back(std::move(child));
  return reported_.back().rec.id;
}

void Span::End() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  rec_.start_ms = tracer_->Offset(start_);
  rec_.end_ms = tracer_->Offset(end);
  for (Reported& child : reported_) {
    child.rec.end_ms = rec_.end_ms;
    child.rec.start_ms = std::max(rec_.start_ms, rec_.end_ms - child.ms);
    tracer_->Record(std::move(child.rec));
  }
  tracer_->Record(std::move(rec_));
  tracer_ = nullptr;
}

// --- Statistics ---------------------------------------------------------------

double Quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double GeoMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : samples) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

namespace {

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1000.0 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double ThreadCpuMs() { return CpuMs(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuMs() { return CpuMs(CLOCK_PROCESS_CPUTIME_ID); }

double RssMb() {
  // statm: program size, then resident size, in pages.
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --- Result line ------------------------------------------------------------

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  values_[name] = {value, unit};
}

double Metrics::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

std::string Metrics::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  const char* sep = "";
  for (const auto& [name, vu] : values_) {
    out << sep << "\"" << name << "\": {\"value\": " << vu.first
        << ", \"unit\": \"" << vu.second << "\"}";
    sep = ", ";
  }
  out << "}";
  return out.str();
}

// --- Workload instances and the oracle -----------------------------------

Instance MakeInstance(std::string name, const adp::ConjunctiveQuery& query,
                      std::string query_text, adp::Database db,
                      adp::AdpOptions options) {
  Instance inst;
  inst.name = std::move(name);
  inst.query = query;
  inst.query_text = std::move(query_text);
  inst.options = options;
  for (int i = 0; i < query.num_relations(); ++i) {
    inst.db.relation_names.push_back(query.relation(i).name);
  }
  inst.db.db = std::move(db);
  // Use the database a DB frame decodes to, so the engine, the wire and the
  // direct reference all solve the same dictionary encoding: heuristic
  // answers may depend on it.
  inst.db.db = adp::net::ParseDbLine(adp::net::SplitWs(DbLine("d", inst.db)))
                   .db.db;
  inst.rooted = inst.db.db;
  for (std::size_t i = 0; i < inst.rooted.num_relations(); ++i) {
    inst.rooted.rel(i).set_root_relation(static_cast<int>(i));
  }
  return inst;
}

std::int64_t OutputCount(const Instance& inst) {
  const adp::ConjunctiveQuery& q = inst.query;
  if (q.HasSelections()) {
    const adp::QueryDb pushed = adp::ApplySelections(q, inst.rooted);
    return static_cast<std::int64_t>(adp::CountOutputs(
        pushed.query.body(), pushed.query.head(), pushed.db));
  }
  return static_cast<std::int64_t>(
      adp::CountOutputs(q.body(), q.head(), inst.rooted));
}

bool AddCell(Suite& suite, int instance, std::int64_t k, std::string name) {
  const Instance& inst = suite.instances[static_cast<std::size_t>(instance)];
  Cell cell;
  cell.name = std::move(name);
  cell.instance = instance;
  cell.k = k;
  const adp::ConjunctiveQuery residual =
      inst.query.HasSelections()
          ? adp::ApplySelections(inst.query, inst.rooted).query
          : inst.query;
  cell.root_case = adp::ClassifyAdpCase(residual, inst.options);

  adp::AdpSolution sol = adp::ComputeAdp(inst.query, inst.rooted, k,
                                         inst.options);
  adp::NormalizeTupleRefs(sol.tuples);
  cell.ref.cost = sol.cost;
  cell.ref.feasible = sol.feasible;
  cell.ref.exact = sol.exact;
  cell.ref.output_count = sol.output_count;
  cell.ref.tuples = sol.tuples;
  std::ostringstream json;
  adp::net::AppendTupleRefs(json, sol.tuples, &inst.query);
  cell.ref.tuples_json = json.str();
  bool ok = true;
  if (sol.feasible) {
    ok = adp::CountRemovedOutputs(inst.query, inst.rooted, sol.tuples) >= k;
  }
  suite.cells.push_back(std::move(cell));
  return ok;
}

std::uint64_t ReferenceChecksum(const Suite& suite) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the answers
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const Cell& c : suite.cells) {
    mix(static_cast<std::uint64_t>(c.k));
    mix(static_cast<std::uint64_t>(c.ref.cost));
    mix(static_cast<std::uint64_t>(c.ref.output_count));
    mix(c.ref.feasible ? 1 : 0);
    for (const adp::TupleRef& t : c.ref.tuples) {
      mix((static_cast<std::uint64_t>(t.relation) << 32) | t.row);
    }
  }
  return h;
}

bool Matches(const adp::AdpSolution& sol, const Expected& ref) {
  return sol.feasible == ref.feasible && sol.exact == ref.exact &&
         sol.output_count == ref.output_count &&
         (!ref.feasible || sol.cost == ref.cost) && sol.tuples == ref.tuples;
}

bool CheckStream(const std::vector<adp::StreamItem>& items,
                 const Expected& ref) {
  if (items.empty()) return false;
  const adp::StreamItem& end = items.back();
  if (end.kind != adp::StreamItem::Kind::kEnd || !end.status.ok() ||
      end.feasible != ref.feasible || end.exact != ref.exact ||
      end.output_count != ref.output_count ||
      (ref.feasible && end.cost != ref.cost)) {
    return false;
  }
  std::vector<adp::TupleRef> witnesses;
  for (const adp::StreamItem& item : items) {
    if (item.kind == adp::StreamItem::Kind::kWitnesses) {
      witnesses.insert(witnesses.end(), item.witnesses.begin(),
                       item.witnesses.end());
    }
  }
  adp::NormalizeTupleRefs(witnesses);
  return witnesses == ref.tuples;
}

std::string DbLine(const std::string& db_name, const adp::NamedDatabase& db) {
  std::string out = "DB " + db_name;
  char buf[32];
  for (std::size_t r = 0; r < db.db.num_relations(); ++r) {
    const adp::RelationInstance& rel = db.db.rel(r);
    out += ' ';
    out += db.relation_names[r];
    out += '=';
    for (std::size_t i = 0; i < rel.size(); ++i) {
      if (i > 0) out += '/';
      for (std::size_t c = 0; c < rel.arity(); ++c) {
        if (c > 0) out += ',';
        const int n = std::snprintf(buf, sizeof(buf), "%lld",
                                    static_cast<long long>(rel.ValueAt(i, c)));
        out.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  return out;
}

// --- Wire reply parsing -------------------------------------------------------

std::int64_t WireInt(const std::string& line, const char* key,
                     std::int64_t fallback) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return fallback;
  return std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
}

double WireDouble(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + std::strlen(key), nullptr);
}

bool WireOk(const std::string& line) {
  return line.find("\"status\":\"OK\"") != std::string::npos;
}

}  // namespace perfbench
