#include "protocol/heuristics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

namespace asf {
namespace {

TEST(HeuristicsTest, BoundaryNearestPicksSmallestPriority) {
  const std::vector<StreamId> candidates{0, 1, 2, 3, 4};
  const std::vector<double> distance{50, 5, 30, 1, 40};
  const auto picked = SelectFilterHolders(
      candidates, 2, SelectionHeuristic::kBoundaryNearest,
      [&distance](StreamId id) { return distance[id]; }, nullptr);
  EXPECT_EQ(picked, (std::vector<StreamId>{3, 1}));
}

TEST(HeuristicsTest, BoundaryNearestBreaksTiesById) {
  const std::vector<StreamId> candidates{4, 2, 0};
  const auto picked = SelectFilterHolders(
      candidates, 3, SelectionHeuristic::kBoundaryNearest,
      [](StreamId) { return 1.0; }, nullptr);
  EXPECT_EQ(picked, (std::vector<StreamId>{0, 2, 4}));
}

TEST(HeuristicsTest, CountLargerThanCandidatesTakesAll) {
  const std::vector<StreamId> candidates{7, 8};
  Rng rng(1);
  auto picked = SelectFilterHolders(candidates, 10, SelectionHeuristic::kRandom,
                                    nullptr, &rng);
  std::sort(picked.begin(), picked.end());
  EXPECT_EQ(picked, candidates);
}

TEST(HeuristicsTest, ZeroCountPicksNothing) {
  Rng rng(1);
  EXPECT_TRUE(SelectFilterHolders({1, 2, 3}, 0, SelectionHeuristic::kRandom,
                                  nullptr, &rng)
                  .empty());
  EXPECT_TRUE(SelectFilterHolders({1, 2, 3}, 0,
                                  SelectionHeuristic::kBoundaryNearest,
                                  [](StreamId) { return 0.0; }, nullptr)
                  .empty());
}

TEST(HeuristicsTest, RandomIsSubsetOfCandidates) {
  const std::vector<StreamId> candidates{10, 20, 30, 40, 50};
  Rng rng(3);
  const auto picked = SelectFilterHolders(candidates, 3,
                                          SelectionHeuristic::kRandom,
                                          nullptr, &rng);
  EXPECT_EQ(picked.size(), 3u);
  for (StreamId id : picked) {
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), id),
              candidates.end());
  }
  // No duplicates.
  std::vector<StreamId> dedup = picked;
  std::sort(dedup.begin(), dedup.end());
  EXPECT_EQ(std::unique(dedup.begin(), dedup.end()), dedup.end());
}

TEST(HeuristicsTest, RandomCoversAllCandidatesOverTrials) {
  const std::vector<StreamId> candidates{0, 1, 2, 3};
  Rng rng(11);
  std::vector<int> seen(4, 0);
  for (int trial = 0; trial < 200; ++trial) {
    for (StreamId id : SelectFilterHolders(candidates, 1,
                                           SelectionHeuristic::kRandom,
                                           nullptr, &rng)) {
      ++seen[id];
    }
  }
  for (int count : seen) EXPECT_GT(count, 10);
}

TEST(HeuristicsTest, EmptyCandidates) {
  Rng rng(1);
  EXPECT_TRUE(SelectFilterHolders({}, 5, SelectionHeuristic::kRandom, nullptr,
                                  &rng)
                  .empty());
}

// --- Randomized agreement with the reference definitions ---

// The boundary-nearest reference: a full sort by (priority, id), then the
// first `count`.
std::vector<StreamId> FullSortReference(std::vector<StreamId> candidates,
                                        std::size_t count,
                                        const std::vector<double>& priority) {
  std::sort(candidates.begin(), candidates.end(),
            [&priority](StreamId a, StreamId b) {
              if (priority[a] != priority[b]) return priority[a] < priority[b];
              return a < b;
            });
  candidates.resize(std::min(count, candidates.size()));
  return candidates;
}

// `n` distinct ids out of [0, 4n) in random order.
std::vector<StreamId> RandomCandidates(std::size_t n, Rng* rng) {
  std::vector<StreamId> pool(4 * n);
  std::iota(pool.begin(), pool.end(), StreamId{0});
  rng->Shuffle(&pool);
  pool.resize(n);
  return pool;
}

// Counts that matter: none, one, a strict prefix, all, more than all.
std::vector<std::size_t> InterestingCounts(std::size_t n, Rng* rng) {
  std::vector<std::size_t> counts{0, 1, n, n + 7};
  if (n > 1) {
    counts.push_back(static_cast<std::size_t>(
        rng->UniformInt(1, static_cast<std::int64_t>(n) - 1)));
  }
  return counts;
}

TEST(HeuristicsTest, BoundaryNearestMatchesFullSortReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = trial < 3 ? static_cast<std::size_t>(trial)
                                    : static_cast<std::size_t>(
                                          rng.UniformInt(0, 300));
    const std::vector<StreamId> candidates = RandomCandidates(n, &rng);
    // Half the trials draw from a handful of values, so most priorities
    // tie and the id order decides; the others are continuous. Both
    // include the +inf an unreachable boundary yields, and -0.0, which
    // ties with 0.0.
    std::vector<double> priority(4 * n + 1);
    for (double& p : priority) {
      if (trial % 2 == 0) {
        const double values[] = {0.0, -0.0, 1.0, 2.5, kInf};
        p = values[rng.UniformInt(0, 4)];
      } else {
        p = rng.Bernoulli(0.05) ? kInf : rng.Uniform(0, 100);
      }
    }
    for (const std::size_t count : InterestingCounts(n, &rng)) {
      std::size_t calls = 0;
      const auto picked = SelectFilterHolders(
          candidates, count, SelectionHeuristic::kBoundaryNearest,
          [&](StreamId id) {
            ++calls;
            return priority[id];
          },
          nullptr);
      ASSERT_EQ(picked, FullSortReference(candidates, count, priority))
          << "trial " << trial << " n " << n << " count " << count;
      EXPECT_LE(calls, n);  // each candidate's key is computed at most once
    }
  }
}

TEST(HeuristicsTest, RandomMatchesShuffleReferenceAndRngState) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = trial < 3 ? static_cast<std::size_t>(trial)
                                    : static_cast<std::size_t>(
                                          rng.UniformInt(0, 120));
    const std::vector<StreamId> candidates = RandomCandidates(n, &rng);
    for (const std::size_t count : InterestingCounts(n, &rng)) {
      // The kRandom definition: shuffle the whole candidate list with the
      // caller's generator (even when nothing is kept), keep the first
      // `count`.
      Rng reference_rng = rng;
      std::vector<StreamId> expected = candidates;
      reference_rng.Shuffle(&expected);
      expected.resize(std::min(count, n));

      const auto picked = SelectFilterHolders(
          candidates, count, SelectionHeuristic::kRandom, nullptr, &rng);
      ASSERT_EQ(picked, expected) << "trial " << trial << " count " << count;
      ASSERT_TRUE(rng.engine() == reference_rng.engine())
          << "trial " << trial << " count " << count;
    }
  }
}

TEST(HeuristicsTest, BoundaryNearestEmptyCandidates) {
  std::size_t calls = 0;
  for (const std::size_t count : {std::size_t{0}, std::size_t{3}}) {
    EXPECT_TRUE(SelectFilterHolders({}, count,
                                    SelectionHeuristic::kBoundaryNearest,
                                    [&calls](StreamId) {
                                      ++calls;
                                      return 0.0;
                                    },
                                    nullptr)
                    .empty());
  }
  EXPECT_EQ(calls, 0u);
}

TEST(HeuristicsTest, Names) {
  EXPECT_EQ(SelectionHeuristicName(SelectionHeuristic::kRandom), "random");
  EXPECT_EQ(SelectionHeuristicName(SelectionHeuristic::kBoundaryNearest),
            "boundary-nearest");
  EXPECT_EQ(ReinitPolicyName(ReinitPolicy::kNever), "never");
  EXPECT_EQ(ReinitPolicyName(ReinitPolicy::kWhenExhausted), "when-exhausted");
}

}  // namespace
}  // namespace asf
