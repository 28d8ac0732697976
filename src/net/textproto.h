// Text-protocol parsing and JSON rendering of the ADP front door, the TCP
// server (src/net/server.cc): the command grammar of its frame payloads
// and the JSON result lines it sends back. The request-file client
// (examples/adp_netclient.cpp) and the benchmark's probes use the same
// helpers. tests/textproto_test.cc regression-tests the grammar and
// tests/net_test.cc proves the network path renders answers identical to
// direct AdpEngine calls.
//
// Command grammar (one command per line; '#' starts a comment):
//
//   DB <name> <Rel>=<row>/<row>/... <Rel>=...
//   REQ <db> <k> [+opt ...] <query>
//   STREAM <db> <k> [+opt ...] <query>
//
// Option tokens sit between <k> and the query text, each starting with
// '+' (the query head never does):
//
//   +p<N>   scheduling priority N (integer, may be negative); higher runs
//           first on the worker pool (AdpRequest::priority)
//   +d<MS>  per-request deadline MS milliseconds from now, overriding the
//           front end's default timeout
//   +iw     stream witnesses at intermediate k targets too
//           (AdpRequest::stream_intermediate_witnesses; STREAM only)
//
// Parse failures throw std::runtime_error with a caller-facing message.

#ifndef ADP_NET_TEXTPROTO_H_
#define ADP_NET_TEXTPROTO_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/request.h"
#include "engine/result_stream.h"
#include "obs/trace.h"

namespace adp::net {

/// Whitespace-splits one command line into tokens.
std::vector<std::string> SplitWs(const std::string& line);

/// Escapes a string for embedding in a JSON string literal (obs/trace.h).
using obs::JsonEscape;

/// Parses one "R1=11,21/12,22" relation spec into (name, instance).
/// "()" denotes the empty tuple (vacuum instance); "R1=" alone is an empty
/// instance. Repeated rows collapse into one tuple. A value that is not a
/// whole 64-bit integer throws, naming the relation and the value.
std::pair<std::string, RelationInstance> ParseRelationSpec(
    const std::string& spec);

/// A parsed "DB <name> <spec> ..." line.
struct ParsedDb {
  std::string name;
  NamedDatabase db;
};

/// Parses DB-line tokens (toks[0] == "DB").
ParsedDb ParseDbLine(const std::vector<std::string>& toks);

/// The shared "<CMD> <db> <k> [+opt ...] <query...>" tail of REQ and
/// STREAM lines. `req.db` is left unresolved (kInvalidDbId): the server
/// owns the name -> DbId namespace (per connection) and resolves
/// `db_name` itself.
struct ParsedRequest {
  std::string db_name;
  AdpRequest req;
};

/// Parses REQ/STREAM-line tokens. `usage` is the error text for a too-short
/// line; `default_timeout_ms` > 0 sets a deadline that many ms from now
/// unless a +d token overrides it.
ParsedRequest ParseRequestLine(const std::vector<std::string>& toks,
                               const char* usage,
                               std::int64_t default_timeout_ms);

/// Renders witness tuples as [["Rel",row],...], naming relations through
/// `query` when available (falling back to the relation index). A nonzero
/// `max_bytes` stops appending once `out` has grown past that budget
/// (overshooting by at most one tuple ref); returns how many tuples were
/// rendered.
std::size_t AppendTupleRefs(std::ostringstream& out,
                            const std::vector<TupleRef>& tuples,
                            const ConjunctiveQuery* query,
                            std::size_t max_bytes = 0);

/// One REQ result line: {"req":ID,"db":"NAME","k":K,"status":...}. A
/// nonzero `max_witness_bytes` bounds the rendered witness list (framed
/// transports cap one response's size); a capped line carries
/// "tuples_truncated":true plus the full count as "tuples_total".
std::string FormatResponseLine(std::int64_t id, const std::string& db_name,
                               std::int64_t k, const AdpResponse& r,
                               const ConjunctiveQuery* query,
                               std::size_t max_witness_bytes = 0);

/// One STREAM item line, keyed {"stream":ID,...}. `items_so_far` counts
/// items delivered including this one (reported on the terminal line).
std::string FormatStreamItemLine(std::int64_t id, const std::string& db_name,
                                 const StreamItem& item,
                                 const ConjunctiveQuery* query,
                                 std::size_t items_so_far);

/// The STATS command body: engine counters + request-latency quantiles.
std::string FormatStatsJson(const AdpEngine& engine);

}  // namespace adp::net

#endif  // ADP_NET_TEXTPROTO_H_
