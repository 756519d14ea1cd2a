#include "storage/spill_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace asf {
namespace storage {
namespace {

constexpr std::size_t kBuffer = SpillLog::kBufferBytes;

/// Fresh empty scratch directory per test, removed in TearDown.
class SpillLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string pattern = ::testing::TempDir() + "asf_spill_log_XXXXXX";
    ASSERT_NE(mkdtemp(pattern.data()), nullptr);
    dir_ = pattern;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  bool DirEmpty() const { return std::filesystem::is_empty(dir_); }

  std::string dir_;
};

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(seed + i * 37);
  }
  return data;
}

// Regression: reading back a zero-length record once handed memcpy the
// null data() of the empty output vector (UBSan: null pointer passed as
// argument declared nonnull).
TEST_F(SpillLogTest, ZeroLengthRecordRoundTrip) {
  SpillLog log(dir_);
  const RecordRef ref = log.Append({});
  EXPECT_TRUE(ref.valid());
  EXPECT_EQ(ref.bytes, 0u);
  EXPECT_TRUE(log.Read(ref).empty());
  // Also once the record's offset lies in the flushed part of the log.
  const auto big = Pattern(kBuffer, 3);
  log.Append(big);
  log.Append(big);
  EXPECT_TRUE(log.Read(ref).empty());
  EXPECT_EQ(log.Read(log.Append({})).size(), 0u);
  EXPECT_FALSE(RecordRef().valid());
}

TEST_F(SpillLogTest, RecordsAroundTheBufferBoundary) {
  SpillLog log(dir_);
  // Sizes chosen so appends repeatedly land just short of, exactly on,
  // and just past the write-buffer boundary, plus records larger than
  // the whole buffer (written directly, around buffered neighbours).
  const std::size_t sizes[] = {kBuffer - 10, 10,          1,
                               kBuffer,      kBuffer + 1, 7,
                               kBuffer - 1,  2 * kBuffer + 5,
                               300,          kBuffer / 2, kBuffer / 2 + 1};
  std::vector<RecordRef> refs;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    payloads.push_back(Pattern(sizes[i], static_cast<std::uint8_t>(i)));
    refs.push_back(log.Append(payloads.back()));
    EXPECT_EQ(refs.back().offset, total) << "records are packed";
    EXPECT_EQ(refs.back().bytes, sizes[i]);
    total += sizes[i];
    EXPECT_EQ(log.size(), total);
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(log.Read(refs[i]), payloads[i]) << "record " << i;
  }
}

TEST_F(SpillLogTest, ReadsOutOfAppendOrder) {
  SpillLog log(dir_);
  std::vector<RecordRef> refs;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 500; ++i) {
    payloads.push_back(Pattern(200 + (i * 53) % 700,
                               static_cast<std::uint8_t>(i)));
    refs.push_back(log.Append(payloads.back()));
  }
  ASSERT_GT(log.size(), 3 * kBuffer);
  std::vector<std::size_t> order(refs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  for (const std::size_t i : order) {
    EXPECT_EQ(log.Read(refs[i]), payloads[i]) << "record " << i;
  }
  // Re-reads are as good as first reads.
  EXPECT_EQ(log.Read(refs[0]), payloads[0]);
}

TEST_F(SpillLogTest, ReadOfARecordStillInTheBuffer) {
  SpillLog log(dir_);
  // Push the log past one flush so the buffered record's offset differs
  // from its position in the buffer.
  const auto filler = Pattern(kBuffer - 100, 1);
  log.Append(filler);
  const auto first = Pattern(300, 2);
  const RecordRef flushed = log.Append(first);  // flushes `filler`
  const auto second = Pattern(500, 3);
  const RecordRef buffered = log.Append(second);
  EXPECT_EQ(log.Read(buffered), second);
  EXPECT_EQ(log.Read(flushed), first);
  // Later appends must not disturb either copy.
  log.Append(Pattern(kBuffer, 4));
  EXPECT_EQ(log.Read(buffered), second);
  EXPECT_EQ(log.Read(flushed), first);
}

TEST_F(SpillLogTest, ScratchDirStaysEmpty) {
  {
    SpillLog log(dir_);
    EXPECT_TRUE(DirEmpty()) << "the log is unlinked at open";
    for (int i = 0; i < 300; ++i) log.Append(Pattern(1000, 5));
    EXPECT_EQ(log.Read(RecordRef{0, 1000}), Pattern(1000, 5));
    EXPECT_TRUE(DirEmpty());
  }
  EXPECT_TRUE(DirEmpty());
}

}  // namespace
}  // namespace storage
}  // namespace asf
