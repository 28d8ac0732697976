// Canonical query keys: structural identity up to renaming.

#include <gtest/gtest.h>

#include "query/fingerprint.h"
#include "query/parser.h"

namespace adp {
namespace {

TEST(FingerprintTest, RenamingInvariant) {
  const auto a = ParseQuery("Q(A,B) :- R1(A,B), R2(B,C)");
  const auto b = ParseQuery("Q(X,Y) :- S(X,Y), T(Y,Z)");
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));
}

TEST(FingerprintTest, AttributeOrderWithinRelationMatters) {
  const auto a = ParseQuery("Q() :- R1(A,B), R2(A)");
  const auto b = ParseQuery("Q() :- R1(B,A), R2(A)");
  // R2 references the first column of R1 in one and the second in the other.
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(b));
}

TEST(FingerprintTest, HeadDistinguishes) {
  const auto boolean = ParseQuery("Q() :- R1(A,B), R2(B,C)");
  const auto full = ParseQuery("Q(A,B,C) :- R1(A,B), R2(B,C)");
  const auto proj = ParseQuery("Q(A) :- R1(A,B), R2(B,C)");
  EXPECT_NE(CanonicalQueryKey(boolean), CanonicalQueryKey(full));
  EXPECT_NE(CanonicalQueryKey(boolean), CanonicalQueryKey(proj));
  EXPECT_NE(CanonicalQueryKey(full), CanonicalQueryKey(proj));
}

TEST(FingerprintTest, SelectionsDistinguish) {
  const auto plain = ParseQuery("Q(A) :- R1(A,B)");
  const auto sel5 = ParseQuery("Q(A) :- R1(A,B=5)");
  const auto sel6 = ParseQuery("Q(A) :- R1(A,B=6)");
  EXPECT_NE(CanonicalQueryKey(plain), CanonicalQueryKey(sel5));
  EXPECT_NE(CanonicalQueryKey(sel5), CanonicalQueryKey(sel6));
}

TEST(FingerprintTest, BodyOrderMatters) {
  // Documented behavior: databases align positionally with the body, so
  // reordered atoms are distinct keys (a false hit would misbind relations).
  const auto a = ParseQuery("Q() :- R1(A), R2(A,B)");
  const auto b = ParseQuery("Q() :- R2(A,B), R1(A)");
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(b));
}

TEST(FingerprintTest, KeyShape) {
  const auto q = ParseQuery("Q(A) :- R1(A,B), R2(B,C=7)");
  EXPECT_EQ(CanonicalQueryKey(q), "R(0,1)R(1,2;2=7)->0");
}

}  // namespace
}  // namespace adp
