// Datalog-style parser for conjunctive queries.
//
// Syntax:
//   Q(A,B) :- R1(A,B), R2(B,C)          projection query
//   Q()    :- R1(A),   R2(A,B)          boolean query
//   Q(A)   :- R1(A),   R2(A,B=5)        selection predicate B = 5 on R2
//   Q(A)   :- R1(A),   R2()             vacuum relation R2
//
// Relation names must be distinct (the library is restricted to
// self-join-free CQs, as in the paper), every head attribute must occur in
// the body, a query has at most kMaxAttrs (64) distinct attributes, and
// selection values are 64-bit signed integers.

#ifndef ADP_QUERY_PARSER_H_
#define ADP_QUERY_PARSER_H_

#include <stdexcept>
#include <string>
#include <string_view>

#include "query/query.h"

namespace adp {

/// Error thrown on malformed query text.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses `text` into a ConjunctiveQuery. Throws ParseError on bad input.
ConjunctiveQuery ParseQuery(std::string_view text);

}  // namespace adp

#endif  // ADP_QUERY_PARSER_H_
