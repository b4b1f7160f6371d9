// diff_result_dirs (util/result_diff.h), the engine behind
// `flashflow diff`. What matters is that a determinism break points at
// the first differing line *and the slot it belongs to*, per artifact,
// instead of cmp's byte offset.
#include "util/result_diff.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

namespace fs = std::filesystem;

namespace flashflow::util {
namespace {

class ResultDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) / "result_diff" / info->name();
    fs::remove_all(root_);
    dir_a_ = (root_ / "a").string();
    dir_b_ = (root_ / "b").string();
    fs::create_directories(dir_a_);
    fs::create_directories(dir_b_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& dir, const std::string& file,
             const std::string& content) {
    std::ofstream out(fs::path(dir) / file);
    out << content;
  }

  fs::path root_;
  std::string dir_a_;
  std::string dir_b_;
};

TEST_F(ResultDiffTest, IdenticalDirsHaveNoDifferences) {
  const std::string csv = "period,relay,slot,bits\n0,relay-1,3,1e6\n";
  write(dir_a_, "results.csv", csv);
  write(dir_b_, "results.csv", csv);
  write(dir_a_, "bandwidth.txt", "ts relay-1 1000\n");
  write(dir_b_, "bandwidth.txt", "ts relay-1 1000\n");
  const DiffResult result = diff_result_dirs(dir_a_, dir_b_);
  EXPECT_TRUE(result.identical);
  EXPECT_TRUE(result.differences.empty());
}

TEST_F(ResultDiffTest, ArtifactMissingFromBothDirsIsSkipped) {
  // Two runs that only wrote bandwidth files: the csv/jsonl artifacts are
  // absent on both sides, which is agreement, not a difference.
  write(dir_a_, "bandwidth.txt", "x\n");
  write(dir_b_, "bandwidth.txt", "x\n");
  EXPECT_TRUE(diff_result_dirs(dir_a_, dir_b_).identical);
}

TEST_F(ResultDiffTest, CsvDifferenceReportsLineAndSlot) {
  write(dir_a_, "results.csv",
        "period,relay,slot,bits\n0,relay-1,23,1e6\n0,relay-2,24,2e6\n");
  write(dir_b_, "results.csv",
        "period,relay,slot,bits\n0,relay-1,23,9e6\n0,relay-2,24,2e6\n");
  const DiffResult result = diff_result_dirs(dir_a_, dir_b_);
  ASSERT_EQ(result.differences.size(), 1u);
  const FileDiff& diff = result.differences[0];
  EXPECT_FALSE(result.identical);
  EXPECT_EQ(diff.file, "results.csv");
  EXPECT_EQ(diff.line, 2);  // first differing line, not the later match
  EXPECT_EQ(diff.slot, 23);
  EXPECT_NE(diff.message.find("line 2"), std::string::npos);
  EXPECT_NE(diff.message.find("slot 23"), std::string::npos);
  EXPECT_NE(diff.message.find("1e6"), std::string::npos);
  EXPECT_NE(diff.message.find("9e6"), std::string::npos);
}

TEST_F(ResultDiffTest, JsonlDifferenceExtractsSlotMember) {
  write(dir_a_, "results.jsonl", "{\"relay\":\"r\",\"slot\":7,\"bits\":1}\n");
  write(dir_b_, "results.jsonl", "{\"relay\":\"r\",\"slot\":7,\"bits\":2}\n");
  const DiffResult result = diff_result_dirs(dir_a_, dir_b_);
  ASSERT_EQ(result.differences.size(), 1u);
  EXPECT_EQ(result.differences[0].slot, 7);
  EXPECT_EQ(result.differences[0].line, 1);
}

TEST_F(ResultDiffTest, HeaderDifferenceHasNoSlot) {
  write(dir_a_, "bandwidth.txt", "946684801 relay-1 1000\n");
  write(dir_b_, "bandwidth.txt", "946684801 relay-1 2000\n");
  const DiffResult result = diff_result_dirs(dir_a_, dir_b_);
  ASSERT_EQ(result.differences.size(), 1u);
  EXPECT_EQ(result.differences[0].slot, -1);
  EXPECT_EQ(result.differences[0].message.find("slot"), std::string::npos);
}

TEST_F(ResultDiffTest, FileMissingFromOneSideIsReported) {
  write(dir_a_, "results.csv", "period,relay,slot,bits\n");
  const DiffResult result = diff_result_dirs(dir_a_, dir_b_);
  ASSERT_EQ(result.differences.size(), 1u);
  EXPECT_EQ(result.differences[0].line, 0);
  EXPECT_NE(result.differences[0].message.find("present only in " + dir_a_),
            std::string::npos);
}

TEST_F(ResultDiffTest, LengthMismatchNamesTheLongerDir) {
  write(dir_a_, "results.csv", "period,relay,slot,bits\n0,r,1,1\n");
  write(dir_b_, "results.csv", "period,relay,slot,bits\n0,r,1,1\n0,r,2,1\n");
  const DiffResult result = diff_result_dirs(dir_a_, dir_b_);
  ASSERT_EQ(result.differences.size(), 1u);
  EXPECT_EQ(result.differences[0].line, 3);
  EXPECT_NE(result.differences[0].message.find(
                dir_b_ + " continues past line 2"),
            std::string::npos);
}

TEST_F(ResultDiffTest, EachDifferingArtifactGetsOneEntry) {
  write(dir_a_, "results.csv", "h\na\n");
  write(dir_b_, "results.csv", "h\nb\n");
  write(dir_a_, "bandwidth.txt", "1\n");
  write(dir_b_, "bandwidth.txt", "2\n");
  // The fault ledger carries its slot in the third field, as results.csv.
  write(dir_a_, "faults.csv", "period,relay,slot,attempt\n0,4,17,0\n");
  write(dir_b_, "faults.csv", "period,relay,slot,attempt\n0,4,17,1\n");
  const DiffResult result = diff_result_dirs(dir_a_, dir_b_);
  ASSERT_EQ(result.differences.size(), 3u);
  EXPECT_EQ(result.differences[0].file, "results.csv");
  EXPECT_EQ(result.differences[1].file, "bandwidth.txt");
  EXPECT_EQ(result.differences[2].file, "faults.csv");
  EXPECT_EQ(result.differences[2].line, 2);
  EXPECT_EQ(result.differences[2].slot, 17);
}

TEST_F(ResultDiffTest, NonDirectoryThrows) {
  EXPECT_THROW(diff_result_dirs(dir_a_, (root_ / "missing").string()),
               std::invalid_argument);
  const std::string file = (root_ / "plain.txt").string();
  std::ofstream(file) << "not a dir\n";
  EXPECT_THROW(diff_result_dirs(file, dir_b_), std::invalid_argument);
}

}  // namespace
}  // namespace flashflow::util
