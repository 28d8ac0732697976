// CSV I/O tests: parsing, headers, comments, vacuum relations, error
// handling, database loading, and solution round-trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "io/csv.h"
#include "query/parser.h"
#include "solver/compute_adp.h"

namespace adp {
namespace {

TEST(CsvTest, ParsesPlainRows) {
  std::istringstream in("1,2\n3,4\n");
  const auto rows = ReadTuplesCsv(in, 2, "test");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], Tuple({1, 2}));
  EXPECT_EQ(rows[1], Tuple({3, 4}));
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  std::istringstream in("# edges\n\n1,2\n\n# more\n3,4\n");
  EXPECT_EQ(ReadTuplesCsv(in, 2, "test").size(), 2u);
}

TEST(CsvTest, IgnoresHeaderLine) {
  std::istringstream in("src,dst\n1,2\n");
  const auto rows = ReadTuplesCsv(in, 2, "test");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], Tuple({1, 2}));
}

TEST(CsvTest, HandlesWhitespaceAndNegatives) {
  std::istringstream in(" 1 , -2 \n");
  const auto rows = ReadTuplesCsv(in, 2, "test");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], Tuple({1, -2}));
}

TEST(CsvTest, RejectsWrongArity) {
  std::istringstream in("1,2,3\n");
  EXPECT_THROW(ReadTuplesCsv(in, 2, "test"), CsvError);
}

TEST(CsvTest, RejectsNonNumericDataAfterHeader) {
  std::istringstream in("a,b\n1,2\nx,y\n");
  EXPECT_THROW(ReadTuplesCsv(in, 2, "test"), CsvError);
}

// The error of a bad field names the input, the line and the field.
void ExpectCsvError(const std::function<void()>& read,
                    const std::string& context, const std::string& line,
                    const std::string& field) {
  try {
    read();
    ADD_FAILURE() << "accepted '" << field << "'";
  } catch (const CsvError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(context), std::string::npos) << what;
    EXPECT_NE(what.find(line), std::string::npos) << what;
    EXPECT_NE(what.find("'" + field + "'"), std::string::npos) << what;
  }
}

TEST(CsvTest, RejectsOutOfRangeAndTrailingJunk) {
  // 99999999999999999999 used to clamp to INT64_MAX and alias the next row.
  for (const std::string field : {"99999999999999999999",
                                  "-99999999999999999999", "12x"}) {
    SCOPED_TRACE(field);
    ExpectCsvError(
        [&] {
          std::istringstream in("9223372036854775807,2\n" + field + ",1\n");
          ReadTuplesCsv(in, 2, "edges.csv");
        },
        "edges.csv", "line 2", field);
  }
  std::istringstream in("9223372036854775807,-9223372036854775808\n");
  const auto rows = ReadTuplesCsv(in, 2, "test");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], Tuple({std::numeric_limits<Value>::max(),
                            std::numeric_limits<Value>::min()}));
}

TEST(CsvTest, MissingFileThrows) {
  EXPECT_THROW(LoadTuplesCsv("/nonexistent/nope.csv", 2), CsvError);
}

class CsvDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("adp_csv_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ / name);
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(CsvDirTest, LoadsDatabaseAndSolves) {
  WriteFile("R1.csv", "1\n2\n3\n");
  WriteFile("R2.csv", "1,5\n2,5\n3,5\n1,6\n");
  WriteFile("R3.csv", "5\n6\n");
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  const Database db = LoadDatabaseCsv(q, dir_.string());
  EXPECT_EQ(db.rel(0).size(), 3u);
  EXPECT_EQ(db.rel(1).size(), 4u);
  EXPECT_EQ(db.rel(2).size(), 2u);

  AdpOptions options;
  options.verify = true;
  const AdpSolution sol = ComputeAdp(q, db, 3, options);
  EXPECT_TRUE(sol.feasible);
  EXPECT_GE(sol.removed_outputs, 3);
  // R3(5) alone removes the three (·,5) outputs.
  EXPECT_EQ(sol.cost, 1);
}

TEST_F(CsvDirTest, DeduplicatesOnLoad) {
  WriteFile("R1.csv", "1\n1\n2\n");
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A)");
  const Database db = LoadDatabaseCsv(q, dir_.string());
  EXPECT_EQ(db.rel(0).size(), 2u);
}

TEST_F(CsvDirTest, RejectsOutOfRangeFieldOnLoad) {
  WriteFile("R1.csv", "# ids\n1\n99999999999999999999\n");
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A)");
  ExpectCsvError([&] { LoadDatabaseCsv(q, dir_.string()); },
                 (dir_ / "R1.csv").string(), "line 3",
                 "99999999999999999999");
}

TEST_F(CsvDirTest, MissingRelationFileThrows) {
  WriteFile("R1.csv", "1\n");
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  EXPECT_THROW(LoadDatabaseCsv(q, dir_.string()), CsvError);
}

TEST_F(CsvDirTest, SolutionCsvRoundTrip) {
  WriteFile("R1.csv", "1\n2\n");
  WriteFile("R2.csv", "1,5\n2,6\n");
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = LoadDatabaseCsv(q, dir_.string());
  const AdpSolution sol = ComputeAdp(q, db, 1, AdpOptions{});
  std::ostringstream out;
  WriteSolutionCsv(out, q, db, sol.tuples);
  const std::string text = out.str();
  EXPECT_NE(text.find("# relation,row,values..."), std::string::npos);
  // One data line per removed tuple.
  std::int64_t lines = 0;
  for (char c : text) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, 1 + static_cast<std::int64_t>(sol.tuples.size()));
}

}  // namespace
}  // namespace adp
