#include <gtest/gtest.h>

#include "pam/parallel/common.h"

namespace pam {
namespace {

using parallel_internal::ChooseGridRows;
using parallel_internal::SmallestDivisorAtLeast;

// The divisor search behind both the Table-II choice and hd_forced_rows.
TEST(HdGridTest, SmallestDivisorAtLeast) {
  EXPECT_EQ(SmallestDivisorAtLeast(64, 3), 4);
  EXPECT_EQ(SmallestDivisorAtLeast(12, 5), 6);
  EXPECT_EQ(SmallestDivisorAtLeast(12, 6), 6);
  EXPECT_EQ(SmallestDivisorAtLeast(7, 2), 7);  // prime: only P itself
  EXPECT_EQ(SmallestDivisorAtLeast(8, 1), 1);
  EXPECT_EQ(SmallestDivisorAtLeast(8, 9), 8);  // above P: capped at P
}

TEST(HdGridTest, BelowThresholdRunsCd) {
  EXPECT_EQ(ChooseGridRows(34000, 50000, 64), 1);
  EXPECT_EQ(ChooseGridRows(0, 50000, 64), 1);
  EXPECT_EQ(ChooseGridRows(49999, 50000, 64), 1);
}

TEST(HdGridTest, ReproducesPaperTable2) {
  // Table II: P = 64, m = 50K. Candidate counts per pass and the grid the
  // paper's HD implementation chose (rows x cols).
  const std::size_t m = 50000;
  const int p = 64;
  struct Row {
    std::size_t candidates;
    int expected_rows;
  };
  const Row rows[] = {
      {351000, 8},    // pass 2: 8 x 8
      {4348000, 64},  // pass 3: 64 x 1 (pure IDD)
      {115000, 4},    // pass 4: 4 x 16
      {76000, 2},     // pass 5: 2 x 32
      {56000, 2},     // pass 6: 2 x 32
      {34000, 1},     // pass 7: 1 x 64 (pure CD)
  };
  for (const Row& row : rows) {
    EXPECT_EQ(ChooseGridRows(row.candidates, m, p), row.expected_rows)
        << "M=" << row.candidates;
  }
}

TEST(HdGridTest, RowsAlwaysDivideP) {
  for (int p : {2, 6, 12, 64, 60}) {
    for (std::size_t m : {1u, 10u, 100u, 1000u}) {
      for (std::size_t candidates :
           {0u, 5u, 50u, 500u, 5000u, 50000u}) {
        const int rows = ChooseGridRows(candidates, m, p);
        EXPECT_GE(rows, 1);
        EXPECT_LE(rows, p);
        EXPECT_EQ(p % rows, 0) << "p=" << p << " rows=" << rows;
      }
    }
  }
}

TEST(HdGridTest, RowsMonotoneInCandidates) {
  const int p = 64;
  const std::size_t m = 1000;
  int prev = 1;
  for (std::size_t candidates = 100; candidates <= 200000;
       candidates += 900) {
    const int rows = ChooseGridRows(candidates, m, p);
    EXPECT_GE(rows, prev);
    prev = rows;
  }
  EXPECT_EQ(prev, p);
}

TEST(HdGridTest, ZeroThresholdMeansCd) {
  EXPECT_EQ(ChooseGridRows(1000000, 0, 64), 1);
}

TEST(HdGridTest, RowsCoverAtLeastCeilRatio) {
  // The chosen G must satisfy M / G <= m whenever any divisor allows it,
  // i.e. G >= ceil(M/m) (unless capped at P).
  for (int p : {8, 12, 64}) {
    for (std::size_t candidates : {1000u, 5000u, 12345u, 99999u}) {
      const std::size_t m = 1000;
      const int rows = ChooseGridRows(candidates, m, p);
      const std::size_t want = (candidates + m - 1) / m;
      if (want <= static_cast<std::size_t>(p)) {
        EXPECT_GE(static_cast<std::size_t>(rows), want);
      } else {
        EXPECT_EQ(rows, p);
      }
    }
  }
}

}  // namespace
}  // namespace pam
