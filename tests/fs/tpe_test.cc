#include "fs/search/tpe.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dfs::fs {
namespace {

TEST(TpeIntegerTest, ProposalsStayInRange) {
  TpeIntegerOptimizer optimizer(3, 17, TpeOptions(), 1);
  for (int i = 0; i < 50; ++i) {
    const int k = optimizer.Propose();
    EXPECT_GE(k, 3);
    EXPECT_LE(k, 17);
    optimizer.Record(k, std::fabs(k - 9));
  }
}

TEST(TpeIntegerTest, ConvergesToOptimum) {
  // Loss minimized at k = 25 of [1, 100].
  TpeIntegerOptimizer optimizer(1, 100, TpeOptions(), 2);
  int best_k = -1;
  double best_loss = 1e18;
  for (int i = 0; i < 60; ++i) {
    const int k = optimizer.Propose();
    const double loss = std::fabs(k - 25.0);
    optimizer.Record(k, loss);
    if (loss < best_loss) {
      best_loss = loss;
      best_k = k;
    }
  }
  EXPECT_NEAR(best_k, 25, 5);
}

TEST(TpeIntegerTest, BeatsGridHeadStartOnBigDomain) {
  // After the startup phase the proposals should concentrate near the
  // optimum instead of sweeping uniformly.
  TpeIntegerOptimizer optimizer(1, 200, TpeOptions(), 3);
  std::vector<int> late_proposals;
  for (int i = 0; i < 80; ++i) {
    const int k = optimizer.Propose();
    optimizer.Record(k, (k - 60.0) * (k - 60.0));
    if (i >= 60) late_proposals.push_back(k);
  }
  double mean_distance = 0.0;
  for (int k : late_proposals) mean_distance += std::fabs(k - 60.0);
  mean_distance /= late_proposals.size();
  EXPECT_LT(mean_distance, 50.0);  // uniform would average ~70
}

TEST(TpeIntegerTest, DeterministicForSeed) {
  TpeIntegerOptimizer a(1, 50, TpeOptions(), 9);
  TpeIntegerOptimizer b(1, 50, TpeOptions(), 9);
  for (int i = 0; i < 20; ++i) {
    const int ka = a.Propose();
    const int kb = b.Propose();
    EXPECT_EQ(ka, kb);
    a.Record(ka, ka);
    b.Record(kb, kb);
  }
}

TEST(TpeIntegerTest, SingletonDomain) {
  TpeIntegerOptimizer optimizer(4, 4, TpeOptions(), 5);
  EXPECT_EQ(optimizer.Propose(), 4);
  optimizer.Record(4, 1.0);
  EXPECT_EQ(optimizer.Propose(), 4);
}

TEST(TpeIntegerTest, ExhaustedOnceEveryValueIsRecorded) {
  TpeIntegerOptimizer optimizer(3, 9, TpeOptions(), 4);
  for (int value = 9; value > 3; --value) {
    optimizer.Record(value, value);
    optimizer.Record(value, value);  // repeats do not count twice
    EXPECT_FALSE(optimizer.Exhausted()) << "after recording " << value;
  }
  optimizer.Record(3, 3.0);
  EXPECT_TRUE(optimizer.Exhausted());
}

TEST(TpeIntegerTest, ProposalSequenceIsPinned) {
  // Recorded before the good density was hoisted out of the candidate
  // loop; the hoist must not change a single proposal or RNG draw.
  const std::vector<int> expected = {
      12, 27, 9,  7,  23, 16, 19, 13, 14, 11, 10, 1,  15, 30,
      5,  28, 17, 8,  24, 21, 29, 12, 12, 2,  12, 20, 26, 22,
      12, 12, 3,  12, 18, 12, 12, 12, 25, 12, 12, 12};
  TpeIntegerOptimizer optimizer(1, 30, TpeOptions(), 7);
  std::vector<int> proposals;
  for (size_t i = 0; i < expected.size(); ++i) {
    const int k = optimizer.Propose();
    proposals.push_back(k);
    optimizer.Record(k, std::fabs(k - 12.0));
  }
  EXPECT_EQ(proposals, expected);
}

TEST(TpeBinaryTest, MasksRespectSizeBounds) {
  TpeBinaryOptimizer optimizer(12, 4, TpeOptions(), 6);
  for (int i = 0; i < 40; ++i) {
    const auto mask = optimizer.Propose();
    ASSERT_EQ(mask.size(), 12u);
    int ones = 0;
    for (char bit : mask) ones += bit ? 1 : 0;
    EXPECT_GE(ones, 1);
    EXPECT_LE(ones, 4);
    optimizer.Record(mask, 1.0);
  }
}

TEST(TpeBinaryTest, LearnsTargetMask) {
  // Loss = hamming distance to target {0, 1}. TPE should drive proposals
  // toward the target after enough observations.
  const std::vector<char> target = {1, 0, 1, 0, 0, 1, 0, 0};
  auto loss = [&](const std::vector<char>& mask) {
    double mismatches = 0;
    for (size_t f = 0; f < mask.size(); ++f) {
      if ((mask[f] != 0) != (target[f] != 0)) mismatches += 1;
    }
    return mismatches;
  };
  TpeBinaryOptimizer optimizer(8, 8, TpeOptions(), 7);
  double best = 1e18;
  for (int i = 0; i < 120; ++i) {
    const auto mask = optimizer.Propose();
    const double l = loss(mask);
    best = std::min(best, l);
    optimizer.Record(mask, l);
  }
  EXPECT_LE(best, 1.0);
}

TEST(TpeBinaryTest, DeterministicForSeed) {
  TpeBinaryOptimizer a(6, 6, TpeOptions(), 11);
  TpeBinaryOptimizer b(6, 6, TpeOptions(), 11);
  for (int i = 0; i < 15; ++i) {
    const auto ma = a.Propose();
    const auto mb = b.Propose();
    EXPECT_EQ(ma, mb);
    a.Record(ma, i);
    b.Record(mb, i);
  }
}

TEST(TpeBinaryTest, NeverProposesEmptyMask) {
  TpeBinaryOptimizer optimizer(5, 1, TpeOptions(), 12);
  for (int i = 0; i < 30; ++i) {
    const auto mask = optimizer.Propose();
    int ones = 0;
    for (char bit : mask) ones += bit ? 1 : 0;
    EXPECT_EQ(ones, 1);  // max_ones = 1 forces exactly one feature
    optimizer.Record(mask, 1.0);
  }
}

}  // namespace
}  // namespace dfs::fs
