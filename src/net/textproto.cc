#include "net/textproto.h"

#include <chrono>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/parse_int.h"
#include "util/stopwatch.h"

namespace adp::net {

std::vector<std::string> SplitWs(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

std::pair<std::string, RelationInstance> ParseRelationSpec(
    const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos) {
    throw std::runtime_error("bad relation spec (missing '='): " + spec);
  }
  std::pair<std::string, RelationInstance> out;
  out.first = spec.substr(0, eq);
  std::string rows = spec.substr(eq + 1);
  std::istringstream in(rows);
  std::string row;
  while (std::getline(in, row, '/')) {
    if (row.empty()) continue;
    Tuple tuple;
    if (row != "()") {
      std::istringstream rin(row);
      std::string val;
      while (std::getline(rin, val, ',')) {
        Value v = 0;
        const IntParse status = ParseInt64(val, &v);
        if (status != IntParse::kOk) {
          throw std::runtime_error(
              "relation " + out.first + ": " +
              (status == IntParse::kOutOfRange
                   ? "value out of the 64-bit range: "
                   : "non-integer value: ") +
              val);
        }
        tuple.push_back(v);
      }
    }
    out.second.Add(std::move(tuple));
  }
  // A relation is a set: a repeated row is one tuple, as in the CSV loader.
  out.second.Dedup();
  return out;
}

ParsedDb ParseDbLine(const std::vector<std::string>& toks) {
  if (toks.size() < 2) throw std::runtime_error("DB needs a name");
  ParsedDb out;
  out.name = toks[1];
  for (std::size_t i = 2; i < toks.size(); ++i) {
    auto [name, inst] = ParseRelationSpec(toks[i]);
    out.db.relation_names.push_back(std::move(name));
    out.db.db.Append(std::move(inst));
  }
  return out;
}

namespace {

// Strict integer option value: rejects empty, trailing junk, and overflow.
std::int64_t ParseOptionInt(const std::string& tok, std::size_t prefix_len) {
  std::int64_t out = 0;
  if (ParseInt64(std::string_view(tok).substr(prefix_len), &out) !=
      IntParse::kOk) {
    throw std::runtime_error("bad option value: " + tok);
  }
  return out;
}

}  // namespace

ParsedRequest ParseRequestLine(const std::vector<std::string>& toks,
                               const char* usage,
                               std::int64_t default_timeout_ms) {
  if (toks.size() < 3) throw std::runtime_error(usage);
  ParsedRequest out;
  out.db_name = toks[1];
  if (ParseInt64(toks[2], &out.req.k) != IntParse::kOk) {
    throw std::runtime_error("bad k: " + toks[2]);
  }
  if (default_timeout_ms > 0) {
    out.req.deadline = Now() + std::chrono::milliseconds(default_timeout_ms);
  }
  std::size_t i = 3;
  for (; i < toks.size() && toks[i].size() > 1 && toks[i][0] == '+'; ++i) {
    const std::string& tok = toks[i];
    if (tok == "+iw") {
      out.req.stream_intermediate_witnesses = true;
    } else if (tok.rfind("+p", 0) == 0) {
      out.req.priority = static_cast<int>(ParseOptionInt(tok, 2));
    } else if (tok.rfind("+d", 0) == 0) {
      const std::int64_t ms = ParseOptionInt(tok, 2);
      if (ms < 0) throw std::runtime_error("bad option value: " + tok);
      out.req.deadline = Now() + std::chrono::milliseconds(ms);
    } else {
      throw std::runtime_error("unknown option " + tok);
    }
  }
  if (i >= toks.size()) throw std::runtime_error(usage);
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (j > i) out.query_text += ' ';
    out.query_text += toks[j];
  }
  out.req.query_text = out.query_text;
  return out;
}

std::size_t AppendTupleRefs(std::ostringstream& out,
                            const std::vector<TupleRef>& tuples,
                            const ConjunctiveQuery* query,
                            std::size_t max_bytes) {
  out << '[';
  std::size_t rendered = 0;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (max_bytes != 0 &&
        static_cast<std::size_t>(out.tellp()) > max_bytes) {
      break;
    }
    if (i > 0) out << ',';
    out << "[\"";
    if (query != nullptr && tuples[i].relation < query->num_relations()) {
      out << query->relation(tuples[i].relation).name;
    } else {
      out << tuples[i].relation;
    }
    out << "\"," << tuples[i].row << ']';
    ++rendered;
  }
  out << ']';
  return rendered;
}

std::string FormatResponseLine(std::int64_t id, const std::string& db_name,
                               std::int64_t k, const AdpResponse& r,
                               const ConjunctiveQuery* query,
                               std::size_t max_witness_bytes) {
  std::ostringstream out;
  out << "{\"req\":" << id << ",\"db\":\"" << JsonEscape(db_name)
      << "\",\"k\":" << k << ",\"status\":\""
      << StatusCodeName(r.status.code()) << "\"";
  if (!r.ok()) {
    out << ",\"error\":\"" << JsonEscape(r.status.message()) << "\"}";
    return out.str();
  }
  const AdpSolution& s = r.solution;
  // Infeasible solves carry the solver's kInfCost sentinel; surface -1.
  const std::int64_t cost = s.feasible ? s.cost : -1;
  out << ",\"feasible\":" << (s.feasible ? "true" : "false")
      << ",\"exact\":" << (s.exact ? "true" : "false") << ",\"cost\":" << cost
      << ",\"output_count\":" << s.output_count << ",\"tuples\":";
  const std::size_t rendered =
      AppendTupleRefs(out, s.tuples, query, max_witness_bytes);
  if (rendered < s.tuples.size()) {
    out << ",\"tuples_truncated\":true,\"tuples_total\":" << s.tuples.size();
  }
  out << ",\"cache_hit\":" << (r.plan_cache_hit ? "true" : "false")
      << ",\"deduped\":" << (r.deduped ? "true" : "false")
      << ",\"coalesced\":" << (r.coalesced ? "true" : "false")
      << ",\"plan_ms\":" << r.plan_ms << ",\"solve_ms\":" << r.solve_ms
      << ",\"total_ms\":" << r.total_ms << ",\"queue_ms\":" << r.queue_ms;
  if (r.trace != nullptr) {
    out << ",\"trace_spans\":" << r.trace->spans.size();
  }
  out << "}";
  return out.str();
}

std::string FormatStreamItemLine(std::int64_t id, const std::string& db_name,
                                 const StreamItem& item,
                                 const ConjunctiveQuery* query,
                                 std::size_t items_so_far) {
  std::ostringstream out;
  out << "{\"stream\":" << id << ",\"db\":\"" << JsonEscape(db_name) << '"';
  switch (item.kind) {
    case StreamItem::Kind::kProfile:
      out << ",\"k\":" << item.k
          << ",\"cost\":" << (item.feasible ? item.cost : -1)
          << ",\"feasible\":" << (item.feasible ? "true" : "false") << '}';
      break;
    case StreamItem::Kind::kWitnesses:
      out << ",\"k\":" << item.k << ",\"witnesses\":";
      AppendTupleRefs(out, item.witnesses, query);
      out << '}';
      break;
    case StreamItem::Kind::kEnd:
      out << ",\"end\":true,\"status\":\""
          << StatusCodeName(item.status.code()) << '"';
      if (!item.status.ok()) {
        out << ",\"error\":\"" << JsonEscape(item.status.message()) << '"';
      } else {
        out << ",\"feasible\":" << (item.feasible ? "true" : "false")
            << ",\"exact\":" << (item.exact ? "true" : "false")
            << ",\"cost\":" << (item.feasible ? item.cost : -1)
            << ",\"output_count\":" << item.output_count;
      }
      out << ",\"items\":" << items_so_far << ",\"plan_ms\":" << item.plan_ms
          << ",\"solve_ms\":" << item.solve_ms
          << ",\"total_ms\":" << item.total_ms
          << ",\"queue_ms\":" << item.queue_ms;
      if (item.trace != nullptr) {
        out << ",\"trace_spans\":" << item.trace->spans.size();
      }
      out << '}';
      break;
  }
  return out.str();
}

std::string FormatStatsJson(const AdpEngine& engine) {
  const EngineCounters c = engine.counters();
  const obs::HistogramSnapshot lat =
      engine.metrics().GetHistogram(obs::kMRequestLatencyMs).Snapshot();
  std::ostringstream out;
  out << "{\"stats\":{\"requests\":" << c.requests
      << ",\"failures\":" << c.failures << ",\"plan_hits\":" << c.plan_hits
      << ",\"plan_misses\":" << c.plan_misses
      << ",\"binding_hits\":" << c.binding_hits
      << ",\"binding_misses\":" << c.binding_misses
      << ",\"dedup_hits\":" << c.dedup_hits
      << ",\"coalesce_hits\":" << c.coalesce_hits
      << ",\"cancelled\":" << c.cancelled
      << ",\"deadline_expired\":" << c.deadline_expired
      << ",\"shed\":" << c.shed
      << ",\"sharded_universe_nodes\":" << c.sharded_universe_nodes
      << ",\"sharded_decompose_nodes\":" << c.sharded_decompose_nodes
      << ",\"streams_opened\":" << c.streams_opened
      << ",\"stream_items\":" << c.stream_items
      << ",\"stream_cancelled\":" << c.stream_cancelled
      << ",\"plan_cache_size\":" << c.plan_cache_size
      << ",\"databases\":" << c.databases
      << ",\"workers\":" << engine.num_workers()
      << ",\"latency_ms\":{\"count\":" << lat.count
      << ",\"p50\":" << lat.Quantile(0.50) << ",\"p95\":" << lat.Quantile(0.95)
      << ",\"p99\":" << lat.Quantile(0.99) << "}}}";
  return out.str();
}

}  // namespace adp::net
