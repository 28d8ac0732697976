// Parser tests: grammar coverage and error reporting.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "query/parser.h"

namespace adp {
namespace {

TEST(ParserTest, SimpleQuery) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A,B), R2(B,C)");
  EXPECT_EQ(q.num_relations(), 2);
  EXPECT_EQ(q.num_attributes(), 3);
  EXPECT_EQ(q.relation(0).name, "R1");
  EXPECT_EQ(q.relation(1).name, "R2");
  EXPECT_EQ(q.head().Size(), 2);
  EXPECT_TRUE(q.head().Contains(q.FindAttribute("A")));
  EXPECT_TRUE(q.head().Contains(q.FindAttribute("B")));
}

TEST(ParserTest, BooleanHead) {
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A)");
  EXPECT_TRUE(q.IsBoolean());
}

TEST(ParserTest, BareHeadIsBoolean) {
  const ConjunctiveQuery q = ParseQuery("Q :- R1(A), R2(A,B)");
  EXPECT_TRUE(q.IsBoolean());
}

TEST(ParserTest, VacuumRelation) {
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A), R2()");
  EXPECT_TRUE(q.relation(1).vacuum());
}

TEST(ParserTest, SelectionPredicate) {
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A), R2(A,B=42)");
  ASSERT_EQ(q.selections()[1].size(), 1u);
  EXPECT_EQ(q.selections()[1][0].attr, q.FindAttribute("B"));
  EXPECT_EQ(q.selections()[1][0].value, 42);
}

TEST(ParserTest, NegativeSelectionValue) {
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A,B=-3)");
  EXPECT_EQ(q.selections()[0][0].value, -3);
}

TEST(ParserTest, WhitespaceInsensitive) {
  const ConjunctiveQuery q =
      ParseQuery("  Q ( A , B )  :-  R1 ( A , B ) ,  R2 ( B )  ");
  EXPECT_EQ(q.num_relations(), 2);
  EXPECT_EQ(q.head().Size(), 2);
}

TEST(ParserTest, UnderscoreAndDigitsInNames) {
  const ConjunctiveQuery q = ParseQuery("Q(A1) :- My_Rel(A1, B_2)");
  EXPECT_EQ(q.relation(0).name, "My_Rel");
  EXPECT_GE(q.FindAttribute("B_2"), 0);
}

TEST(ParserTest, RejectsSelfJoin) {
  EXPECT_THROW(ParseQuery("Q(A) :- R(A,B), R(B,C)"), ParseError);
}

TEST(ParserTest, RejectsRepeatedAttributeInAtom) {
  EXPECT_THROW(ParseQuery("Q(A) :- R(A,A)"), ParseError);
}

TEST(ParserTest, RejectsHeadAttributeNotInBody) {
  EXPECT_THROW(ParseQuery("Q(Z) :- R(A)"), ParseError);
}

TEST(ParserTest, RejectsMissingTurnstile) {
  EXPECT_THROW(ParseQuery("Q(A) R(A)"), ParseError);
}

TEST(ParserTest, RejectsTrailingGarbage) {
  EXPECT_THROW(ParseQuery("Q(A) :- R(A) xyz"), ParseError);
}

TEST(ParserTest, RejectsEmptyBody) {
  EXPECT_THROW(ParseQuery("Q(A) :- "), ParseError);
}

// Q(A0,A<n-1>) :- R(A0,...,A<n-1>).
std::string WideQuery(int n) {
  std::string body = "A0";
  for (int a = 1; a < n; ++a) body += ",A" + std::to_string(a);
  return "Q(A0,A" + std::to_string(n - 1) + ") :- R(" + body + ")";
}

// Attribute sets are one 64-bit word: 64 attributes fit, and a 65th would
// alias attribute 0 in every set (1 << 64 is undefined), so it is rejected.
TEST(ParserTest, AttributeLimit) {
  const ConjunctiveQuery q = ParseQuery(WideQuery(64));
  EXPECT_EQ(q.num_attributes(), 64);
  EXPECT_EQ(q.head(),
            AttrSet({q.FindAttribute("A0"), q.FindAttribute("A63")}));
  EXPECT_THROW(ParseQuery(WideQuery(65)), ParseError);
}

TEST(ParserTest, IntegerLiteralRange) {
  const ConjunctiveQuery q = ParseQuery(
      "Q(A) :- R1(A,B=9223372036854775807), R2(A,C=-9223372036854775808), "
      "R3(A,E=+5)");
  EXPECT_EQ(q.selections()[0][0].value, INT64_MAX);
  EXPECT_EQ(q.selections()[1][0].value, INT64_MIN);
  EXPECT_EQ(q.selections()[2][0].value, 5);
  EXPECT_THROW(ParseQuery("Q(A) :- R(A,B=9223372036854775808)"), ParseError);
  EXPECT_THROW(ParseQuery("Q(A) :- R(A,B=99999999999999999999)"), ParseError);
  EXPECT_THROW(ParseQuery("Q(A) :- R(A,B=-9223372036854775809)"), ParseError);
  EXPECT_THROW(ParseQuery("Q(A) :- R(A,B=-)"), ParseError);
}

TEST(ParserTest, PaperQueriesParse) {
  // The queries named throughout the paper.
  EXPECT_NO_THROW(ParseQuery("QWL(S,C) :- Major(S,M), Req(M,C), NoSeat(C)"));
  EXPECT_NO_THROW(ParseQuery("QP(C) :- Teaches(P,C), NotOnLeave(P)"));
  EXPECT_NO_THROW(
      ParseQuery("Q3path(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)"));
  EXPECT_NO_THROW(ParseQuery("Qcover(A,B) :- R1(A), R2(A,B), R3(B)"));
  EXPECT_NO_THROW(ParseQuery("Qswing(A) :- R2(A,B), R3(B)"));
  EXPECT_NO_THROW(ParseQuery("Qseesaw(A) :- R1(A), R2(A,B), R3(B)"));
  EXPECT_NO_THROW(ParseQuery("Qtriangle() :- R1(A,B), R2(B,C), R3(C,A)"));
  EXPECT_NO_THROW(ParseQuery("QT() :- R1(A,B,C), R2(A), R3(B), R4(C)"));
}

}  // namespace
}  // namespace adp
