// net::textproto (the command grammar + JSON rendering shared by the stdin
// and TCP front ends) and net::wire (frame encode/decode, correlation ids).

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "net/textproto.h"
#include "net/wire.h"
#include "util/stopwatch.h"

namespace adp::net {
namespace {

// --- Command grammar ---------------------------------------------------------

TEST(TextProtoTest, SplitWsTokenizes) {
  EXPECT_EQ(SplitWs("  a  bb\tccc "),
            (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_TRUE(SplitWs("").empty());
  EXPECT_TRUE(SplitWs("   \t ").empty());
}

TEST(TextProtoTest, JsonEscapeQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  // Control bytes never reach a result line raw.
  EXPECT_EQ(JsonEscape("R\x01(A)"), "R\\u0001(A)");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
}

TEST(TextProtoTest, ParseRelationSpecRowsAndVacuum) {
  auto [name, inst] = ParseRelationSpec("R1=11,21/12,22");
  EXPECT_EQ(name, "R1");
  EXPECT_EQ(inst.size(), 2u);

  auto [vname, vacuum] = ParseRelationSpec("V=()");
  EXPECT_EQ(vname, "V");
  ASSERT_EQ(vacuum.size(), 1u);
  EXPECT_TRUE(vacuum.tuple(0).empty());

  auto [ename, empty] = ParseRelationSpec("E=");
  EXPECT_EQ(ename, "E");
  EXPECT_EQ(empty.size(), 0u);

  // A relation is a set: the repeated row is one tuple.
  auto [dname, dup] = ParseRelationSpec("D=1,2/1,2/3,4");
  EXPECT_EQ(dname, "D");
  ASSERT_EQ(dup.size(), 2u);
  EXPECT_EQ(dup.tuple(0), Tuple({1, 2}));
  EXPECT_EQ(dup.tuple(1), Tuple({3, 4}));

  EXPECT_THROW(ParseRelationSpec("no-equals"), std::runtime_error);
}

TEST(TextProtoTest, ParseRelationSpecRejectsBadIntegers) {
  // Each value must be a whole 64-bit integer; the error names the
  // relation and the value.
  for (const std::string value :
       {"1x", "99999999999999999999", "abc", "", "-"}) {
    SCOPED_TRACE(value);
    try {
      ParseRelationSpec("R1=" + value + ",2");
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("relation R1"), std::string::npos) << what;
      if (!value.empty()) {
        EXPECT_NE(what.find(value), std::string::npos) << what;
      }
    }
  }
  EXPECT_EQ(ParseRelationSpec("R1=-9223372036854775808,+7")
                .second.tuple(0),
            Tuple({std::numeric_limits<Value>::min(), 7}));
}

TEST(TextProtoTest, RepeatedFrameRowCountsOnce) {
  // R holds (1,2) twice in the frame; Q(D) = {(1,2), (3,4)}.
  AdpEngine engine(EngineConfig{.num_workers = 1});
  ParsedDb parsed = ParseDbLine(SplitWs("DB d R=1,2/1,2/3,4 S=2/4"));
  AdpRequest req;
  req.db = engine.RegisterDatabase(std::move(parsed.db));
  req.query_text = "Q(A,B) :- R(A,B), S(B)";
  req.k = 1;
  const AdpResponse resp = engine.Execute(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.message();
  EXPECT_EQ(resp.solution.output_count, 2);
  EXPECT_EQ(resp.solution.cost, 1);
}

TEST(TextProtoTest, ParseDbLineBindsNamesInOrder) {
  const ParsedDb parsed =
      ParseDbLine(SplitWs("DB d1 R1=1,2/3,4 R2=5,6"));
  EXPECT_EQ(parsed.name, "d1");
  EXPECT_EQ(parsed.db.relation_names,
            (std::vector<std::string>{"R1", "R2"}));
  EXPECT_EQ(parsed.db.db.num_relations(), 2u);

  EXPECT_THROW(ParseDbLine(SplitWs("DB")), std::runtime_error);
}

TEST(TextProtoTest, ParseRequestLineBasics) {
  const ParsedRequest parsed = ParseRequestLine(
      SplitWs("REQ d1 2 Q(A) :- R1(A,B), R2(B)"), "usage", 0);
  EXPECT_EQ(parsed.db_name, "d1");
  EXPECT_EQ(parsed.req.k, 2);
  EXPECT_EQ(parsed.query_text, "Q(A) :- R1(A,B), R2(B)");
  EXPECT_EQ(parsed.req.query_text, parsed.query_text);
  EXPECT_EQ(parsed.req.db, kInvalidDbId);  // caller resolves the name
  EXPECT_EQ(parsed.req.priority, 0);
  EXPECT_FALSE(parsed.req.deadline.has_value());
  EXPECT_FALSE(parsed.req.stream_intermediate_witnesses);
}

TEST(TextProtoTest, ParseRequestLineOptionTokens) {
  const auto before = Now();
  const ParsedRequest parsed = ParseRequestLine(
      SplitWs("STREAM d1 3 +p7 +d500 +iw Q(A) :- R1(A,B)"), "usage", 0);
  EXPECT_EQ(parsed.req.priority, 7);
  EXPECT_TRUE(parsed.req.stream_intermediate_witnesses);
  ASSERT_TRUE(parsed.req.deadline.has_value());
  EXPECT_GE(*parsed.req.deadline, before + std::chrono::milliseconds(400));
  EXPECT_LE(*parsed.req.deadline, Now() + std::chrono::milliseconds(500));
  // Options never leak into the query text.
  EXPECT_EQ(parsed.query_text, "Q(A) :- R1(A,B)");
}

TEST(TextProtoTest, ParseRequestLineNegativePriority) {
  const ParsedRequest parsed =
      ParseRequestLine(SplitWs("REQ d1 1 +p-3 Q(A) :- R1(A,B)"), "usage", 0);
  EXPECT_EQ(parsed.req.priority, -3);
}

TEST(TextProtoTest, ParseRequestLineDefaultTimeoutAndOverride) {
  const ParsedRequest defaulted =
      ParseRequestLine(SplitWs("REQ d1 1 Q(A) :- R1(A,B)"), "usage", 250);
  ASSERT_TRUE(defaulted.req.deadline.has_value());

  const auto before = Now();
  const ParsedRequest overridden = ParseRequestLine(
      SplitWs("REQ d1 1 +d5000 Q(A) :- R1(A,B)"), "usage", 250);
  ASSERT_TRUE(overridden.req.deadline.has_value());
  // +d wins over the front end's default.
  EXPECT_GE(*overridden.req.deadline,
            before + std::chrono::milliseconds(4000));
}

TEST(TextProtoTest, ParseRequestLineRejectsMalformedInput) {
  EXPECT_THROW(ParseRequestLine(SplitWs("REQ d1"), "usage", 0),
               std::runtime_error);
  EXPECT_THROW(ParseRequestLine(SplitWs("REQ d1 x Q(A) :- R1(A,B)"),
                                "usage", 0),
               std::runtime_error);
  // k parses whole and in the int64 range: no trailing junk, no clamping.
  EXPECT_THROW(ParseRequestLine(SplitWs("REQ d1 2x Q(A) :- R1(A,B)"),
                                "usage", 0),
               std::runtime_error);
  EXPECT_THROW(ParseRequestLine(
                   SplitWs("REQ d1 99999999999999999999 Q(A) :- R1(A,B)"),
                   "usage", 0),
               std::runtime_error);
  // Options but no query left.
  EXPECT_THROW(ParseRequestLine(SplitWs("REQ d1 2 +p1"), "usage", 0),
               std::runtime_error);
  EXPECT_THROW(ParseRequestLine(SplitWs("REQ d1 2 +bogus Q(A) :- R1(A,B)"),
                                "usage", 0),
               std::runtime_error);
  EXPECT_THROW(ParseRequestLine(SplitWs("REQ d1 2 +p Q(A) :- R1(A,B)"),
                                "usage", 0),
               std::runtime_error);
  EXPECT_THROW(ParseRequestLine(SplitWs("REQ d1 2 +d-5 Q(A) :- R1(A,B)"),
                                "usage", 0),
               std::runtime_error);
}

// --- Rendering ---------------------------------------------------------------

TEST(TextProtoTest, FormatResponseLineErrorAndSuccess) {
  AdpResponse err;
  err.status = Status(StatusCode::kParseError, "bad \"query\"");
  EXPECT_EQ(FormatResponseLine(7, "d1", 2, err, nullptr),
            "{\"req\":7,\"db\":\"d1\",\"k\":2,\"status\":\"PARSE_ERROR\","
            "\"error\":\"bad \\\"query\\\"\"}");

  AdpResponse ok;
  ok.solution.feasible = true;
  ok.solution.exact = true;
  ok.solution.cost = 3;
  ok.solution.output_count = 9;
  const std::string line = FormatResponseLine(8, "d1", 2, ok, nullptr);
  EXPECT_NE(line.find("\"req\":8"), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"OK\""), std::string::npos);
  EXPECT_NE(line.find("\"cost\":3"), std::string::npos);
  EXPECT_NE(line.find("\"output_count\":9"), std::string::npos);
  EXPECT_NE(line.find("\"tuples\":[]"), std::string::npos);
}

TEST(TextProtoTest, FormatResponseLineCapsWitnessBytes) {
  AdpResponse ok;
  ok.solution.feasible = true;
  ok.solution.exact = true;
  ok.solution.cost = 1000;
  ok.solution.output_count = 0;
  for (TupleId i = 0; i < 1000; ++i) {
    ok.solution.tuples.push_back(TupleRef{0, i});
  }
  const std::string full = FormatResponseLine(1, "d1", 2, ok, nullptr);
  EXPECT_EQ(full.find("tuples_truncated"), std::string::npos);

  // A tiny byte budget caps the rendered list and flags the truncation
  // with the real total; everything after the list still renders.
  const std::string capped = FormatResponseLine(1, "d1", 2, ok, nullptr, 128);
  EXPECT_LT(capped.size(), full.size());
  EXPECT_NE(capped.find("\"tuples_truncated\":true"), std::string::npos);
  EXPECT_NE(capped.find("\"tuples_total\":1000"), std::string::npos);
  EXPECT_NE(capped.find("\"cache_hit\""), std::string::npos);

  // A budget bigger than the full line changes nothing.
  EXPECT_EQ(FormatResponseLine(1, "d1", 2, ok, nullptr, 1u << 20), full);
}

TEST(TextProtoTest, FormatStreamItemLineTagsWitnessTargets) {
  StreamItem item;
  item.kind = StreamItem::Kind::kWitnesses;
  item.k = 2;
  item.witnesses = {TupleRef{0, 4}, TupleRef{1, 1}};
  // Without a query, relations render by index.
  EXPECT_EQ(FormatStreamItemLine(5, "d1", item, nullptr, 3),
            "{\"stream\":5,\"db\":\"d1\",\"k\":2,"
            "\"witnesses\":[[\"0\",4],[\"1\",1]]}");
}

TEST(TextProtoTest, FormatStreamItemLineProfileAndEnd) {
  StreamItem profile;
  profile.kind = StreamItem::Kind::kProfile;
  profile.k = 1;
  profile.cost = 2;
  profile.feasible = true;
  EXPECT_EQ(FormatStreamItemLine(4, "d1", profile, nullptr, 1),
            "{\"stream\":4,\"db\":\"d1\",\"k\":1,\"cost\":2,"
            "\"feasible\":true}");

  StreamItem end;
  end.kind = StreamItem::Kind::kEnd;
  end.status = Status(StatusCode::kCancelled, "cancelled");
  const std::string line = FormatStreamItemLine(4, "d1", end, nullptr, 5);
  EXPECT_NE(line.find("\"end\":true"), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"CANCELLED\""), std::string::npos);
  EXPECT_NE(line.find("\"items\":5"), std::string::npos);
}

TEST(TextProtoTest, FormatStatsJsonCarriesShedCounter) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const std::string stats = FormatStatsJson(engine);
  EXPECT_NE(stats.find("\"requests\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"shed\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"latency_ms\""), std::string::npos);
}

// --- Wire framing ------------------------------------------------------------

TEST(WireTest, FrameRoundTrip) {
  std::string buf;
  ASSERT_TRUE(AppendFrame(buf, FrameType::kReq, "1 REQ d1 2 Q(A) :- R1(A,B)"));
  ASSERT_TRUE(AppendFrame(buf, FrameType::kStats, "2 STATS"));
  ASSERT_TRUE(AppendFrame(buf, FrameType::kBye, ""));  // empty payload is legal

  FrameReader reader;
  reader.Feed(buf.data(), buf.size());
  std::optional<Frame> f1 = reader.Next();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, FrameType::kReq);
  EXPECT_EQ(f1->payload, "1 REQ d1 2 Q(A) :- R1(A,B)");
  std::optional<Frame> f2 = reader.Next();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, FrameType::kStats);
  std::optional<Frame> f3 = reader.Next();
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(f3->type, FrameType::kBye);
  EXPECT_TRUE(f3->payload.empty());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.bad());
}

TEST(WireTest, ByteAtATimeFeedingReassembles) {
  std::string buf;
  ASSERT_TRUE(AppendFrame(buf, FrameType::kResult, "42 {\"req\":42}"));
  FrameReader reader;
  std::optional<Frame> got;
  for (char c : buf) {
    reader.Feed(&c, 1);
    if (std::optional<Frame> f = reader.Next()) got = std::move(f);
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, "42 {\"req\":42}");
}

TEST(WireTest, TruncatedFrameStaysPending) {
  std::string buf;
  ASSERT_TRUE(AppendFrame(buf, FrameType::kReq, "1 REQ d1 2 Q(A) :- R1(A,B)"));
  FrameReader reader;
  reader.Feed(buf.data(), buf.size() - 5);  // cut mid-payload
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.bad());
  reader.Feed(buf.data() + buf.size() - 5, 5);
  EXPECT_TRUE(reader.Next().has_value());
}

TEST(WireTest, AppendFrameRejectsOversizedPayload) {
  // One byte over the cap: refused outright, buffer untouched. Encoding it
  // anyway would poison every FrameReader that met it (and a >4 GiB
  // payload would silently truncate the u32 length prefix).
  std::string payload(kMaxFramePayload + 1, 'x');
  std::string buf;
  EXPECT_FALSE(AppendFrame(buf, FrameType::kResult, payload));
  EXPECT_TRUE(buf.empty());

  // Exactly at the cap still round-trips.
  payload.resize(kMaxFramePayload);
  ASSERT_TRUE(AppendFrame(buf, FrameType::kResult, payload));
  FrameReader reader;
  reader.Feed(buf.data(), buf.size());
  std::optional<Frame> frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), kMaxFramePayload);
  EXPECT_FALSE(reader.bad());
}

TEST(WireTest, OversizedLengthPoisonsReader) {
  // length = kMaxFramePayload + 2 exceeds the cap; the stream is
  // unrecoverable.
  const std::uint32_t len = kMaxFramePayload + 2;
  std::string buf;
  buf.push_back(static_cast<char>(len & 0xFF));
  buf.push_back(static_cast<char>((len >> 8) & 0xFF));
  buf.push_back(static_cast<char>((len >> 16) & 0xFF));
  buf.push_back(static_cast<char>((len >> 24) & 0xFF));
  FrameReader reader;
  reader.Feed(buf.data(), buf.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.bad());
  // A poisoned reader never yields frames again.
  std::string more;
  ASSERT_TRUE(AppendFrame(more, FrameType::kStats, "1 STATS"));
  reader.Feed(more.data(), more.size());
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(WireTest, ZeroLengthPoisonsReader) {
  const char zeros[4] = {0, 0, 0, 0};
  FrameReader reader;
  reader.Feed(zeros, 4);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.bad());
}

TEST(WireTest, SplitCorrelationIdCases) {
  std::int64_t id = 0;
  std::string rest;
  ASSERT_TRUE(SplitCorrelationId("42 REQ d1 2 Q(A) :- R1(A,B)", &id, &rest));
  EXPECT_EQ(id, 42);
  EXPECT_EQ(rest, "REQ d1 2 Q(A) :- R1(A,B)");

  ASSERT_TRUE(SplitCorrelationId("7", &id, &rest));  // bare id
  EXPECT_EQ(id, 7);
  EXPECT_TRUE(rest.empty());

  EXPECT_FALSE(SplitCorrelationId("", &id, &rest));
  EXPECT_FALSE(SplitCorrelationId("abc 1", &id, &rest));
  EXPECT_FALSE(SplitCorrelationId("12x rest", &id, &rest));
  // 19 digits can overflow int64; rejected outright.
  EXPECT_FALSE(SplitCorrelationId("1234567890123456789 x", &id, &rest));
}

TEST(WireTest, IsKnownFrameTypeCoversEnumOnly) {
  EXPECT_TRUE(IsKnownFrameType(0x01));  // kHello
  EXPECT_TRUE(IsKnownFrameType(0xFF));  // kError
  EXPECT_FALSE(IsKnownFrameType(0x00));
  EXPECT_FALSE(IsKnownFrameType(0x40));
}

}  // namespace
}  // namespace adp::net
