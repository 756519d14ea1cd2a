#include "query/query.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "query/answer_set.h"

namespace asf {
namespace {

// --- RangeQuery ---

TEST(RangeQueryTest, ClosedMembership) {
  RangeQuery q(400, 600);
  EXPECT_TRUE(q.Matches(400));
  EXPECT_TRUE(q.Matches(600));
  EXPECT_FALSE(q.Matches(399));
  EXPECT_FALSE(q.Matches(601));
  EXPECT_EQ(q.range(), Interval(400, 600));
}

TEST(RangeQueryTest, ToString) {
  EXPECT_EQ(RangeQuery(400, 600).ToString(), "range [400, 600]");
}

// --- RankQuery: k-NN score geometry ---

TEST(RankQueryTest, KnnScoreIsDistance) {
  RankQuery q = RankQuery::NearestNeighbors(3, 500);
  EXPECT_EQ(q.k(), 3u);
  EXPECT_EQ(q.kind(), RankKind::kNearest);
  EXPECT_EQ(q.Score(500), 0);
  EXPECT_EQ(q.Score(520), 20);
  EXPECT_EQ(q.Score(480), 20);  // symmetric
}

TEST(RankQueryTest, KnnScoreBallIsCenteredInterval) {
  RankQuery q = RankQuery::NearestNeighbors(3, 500);
  EXPECT_EQ(q.ScoreBall(50), Interval(450, 550));
  EXPECT_EQ(q.ScoreBall(0), Interval(500, 500));
  EXPECT_TRUE(q.ScoreBall(-1).empty());
  EXPECT_TRUE(q.ScoreBall(kInf).all());
}

TEST(RankQueryTest, ScoreBallContainsExactlyLowScores) {
  RankQuery q = RankQuery::NearestNeighbors(1, 100);
  const Interval ball = q.ScoreBall(25);
  for (double v : {75.0, 100.0, 125.0}) {
    EXPECT_TRUE(ball.Contains(v)) << v;
    EXPECT_LE(q.Score(v), 25);
  }
  for (double v : {74.9, 125.1, -10.0}) {
    EXPECT_FALSE(ball.Contains(v)) << v;
    EXPECT_GT(q.Score(v), 25);
  }
}

// --- RankQuery: top-k (q = +inf) transformation ---

TEST(RankQueryTest, TopKScoreOrdersDescendingValues) {
  // Paper §3.2: a k-NN query becomes a k-maximum query with q = +inf; our
  // geometry uses score = -v so the largest value has the smallest score.
  RankQuery q = RankQuery::TopK(5);
  EXPECT_EQ(q.kind(), RankKind::kMax);
  EXPECT_LT(q.Score(1000), q.Score(999));
  EXPECT_LT(q.Score(-5), q.Score(-10));
}

TEST(RankQueryTest, TopKScoreBallIsUpperRay) {
  RankQuery q = RankQuery::TopK(5);
  // {v : -v <= 100} = [-100, inf).
  const Interval ball = q.ScoreBall(100);
  EXPECT_EQ(ball, Interval(-100, kInf));
  EXPECT_TRUE(ball.Contains(-100));
  EXPECT_TRUE(ball.Contains(1e12));
  EXPECT_FALSE(ball.Contains(-101));
}

TEST(RankQueryTest, BottomKScoreBallIsLowerRay) {
  RankQuery q = RankQuery::BottomK(2);
  EXPECT_EQ(q.kind(), RankKind::kMin);
  EXPECT_LT(q.Score(1), q.Score(2));
  EXPECT_EQ(q.ScoreBall(7), Interval(-kInf, 7));
}

TEST(RankQueryTest, ToString) {
  EXPECT_EQ(RankQuery::NearestNeighbors(3, 500).ToString(), "3-NN at q=500");
  EXPECT_EQ(RankQuery::TopK(10).ToString(), "top-10");
  EXPECT_EQ(RankQuery::BottomK(2).ToString(), "bottom-2");
}

// --- Score / ScoreBall consistency (property-style, all query kinds) ---

struct GeometryCase {
  RankKind kind;
  double threshold;
};

class ScoreBallProperty : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(ScoreBallProperty, BallMembershipEqualsScoreComparison) {
  // The defining property of the geometry: for every value v,
  //   ScoreBall(d).Contains(v)  <=>  Score(v) <= d.
  // This is what lets a 1-D interval filter implement a rank bound.
  const auto [kind, threshold] = GetParam();
  RankQuery query = (kind == RankKind::kNearest)
                        ? RankQuery::NearestNeighbors(3, 500)
                        : (kind == RankKind::kMax ? RankQuery::TopK(3)
                                                  : RankQuery::BottomK(3));
  const Interval ball = query.ScoreBall(threshold);
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const Value v = rng.Uniform(-2000, 2000);
    EXPECT_EQ(ball.Contains(v), query.Score(v) <= threshold)
        << "v=" << v << " threshold=" << threshold;
  }
  // And at the exact boundary values, when finite.
  if (threshold == threshold && std::abs(threshold) < kInf) {
    if (kind == RankKind::kNearest && threshold >= 0) {
      EXPECT_TRUE(ball.Contains(500 + threshold));
      EXPECT_TRUE(ball.Contains(500 - threshold));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndThresholds, ScoreBallProperty,
    ::testing::Values(GeometryCase{RankKind::kNearest, 0.0},
                      GeometryCase{RankKind::kNearest, 123.5},
                      GeometryCase{RankKind::kNearest, 1e6},
                      GeometryCase{RankKind::kMax, -750.0},
                      GeometryCase{RankKind::kMax, 0.0},
                      GeometryCase{RankKind::kMax, 750.0},
                      GeometryCase{RankKind::kMin, -750.0},
                      GeometryCase{RankKind::kMin, 0.0},
                      GeometryCase{RankKind::kMin, 750.0}));

// --- AnswerSet ---

TEST(AnswerSetTest, InsertEraseContains) {
  AnswerSet a;
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.Insert(3));
  EXPECT_FALSE(a.Insert(3));  // duplicate
  EXPECT_TRUE(a.Contains(3));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_TRUE(a.Erase(3));
  EXPECT_FALSE(a.Erase(3));
  EXPECT_TRUE(a.empty());
}

TEST(AnswerSetTest, SortedVector) {
  AnswerSet a;
  a.Insert(5);
  a.Insert(1);
  a.Insert(9);
  EXPECT_EQ(a.ToSortedVector(), (std::vector<StreamId>{1, 5, 9}));
}

TEST(AnswerSetTest, EqualityIgnoresInsertionOrder) {
  AnswerSet a;
  a.Insert(1);
  a.Insert(2);
  AnswerSet b;
  b.Insert(2);
  b.Insert(1);
  EXPECT_EQ(a, b);
  b.Insert(3);
  EXPECT_FALSE(a == b);
}

TEST(AnswerSetTest, Clear) {
  AnswerSet a;
  a.Insert(1);
  a.Clear();
  EXPECT_TRUE(a.empty());
}

TEST(AnswerSetTest, IteratesInAscendingIdOrder) {
  AnswerSet a;
  // Word boundaries (63/64, 127/128), an empty word in between, and
  // insertion out of order.
  for (const StreamId id : {200u, 64u, 0u, 63u, 127u, 128u, 5u}) a.Insert(id);
  std::vector<StreamId> seen;
  for (const StreamId id : a) seen.push_back(id);
  EXPECT_EQ(seen, (std::vector<StreamId>{0, 5, 63, 64, 127, 128, 200}));
  EXPECT_EQ(a.ToSortedVector(), seen);
  EXPECT_EQ(a.size(), seen.size());
  EXPECT_TRUE(AnswerSet().begin() == AnswerSet().end());
}

TEST(AnswerSetTest, IdsPastCapacityAreAbsentUntilInserted) {
  AnswerSet a;
  a.Insert(2);
  // Far beyond the one word the set holds so far.
  EXPECT_FALSE(a.Contains(1000));
  EXPECT_FALSE(a.Erase(1000));
  EXPECT_TRUE(a.Insert(1000));
  EXPECT_TRUE(a.Contains(1000));
  EXPECT_TRUE(a.Contains(2));
  EXPECT_FALSE(a.Contains(999));
  EXPECT_FALSE(a.Contains(1001));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.ToSortedVector(), (std::vector<StreamId>{2, 1000}));
}

TEST(AnswerSetTest, ErasingAnAbsentIdChangesNothing) {
  AnswerSet a;
  a.Insert(7);
  a.Insert(70);
  EXPECT_FALSE(a.Erase(8));    // absent, inside the held words
  EXPECT_FALSE(a.Erase(71));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.Erase(70));
  EXPECT_FALSE(a.Erase(70));   // erased twice
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.ToSortedVector(), (std::vector<StreamId>{7}));
}

TEST(AnswerSetTest, ClearThenReuse) {
  AnswerSet a;
  for (StreamId id = 0; id < 300; id += 3) a.Insert(id);
  a.Clear();
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.Contains(3));
  EXPECT_TRUE(a.begin() == a.end());
  EXPECT_TRUE(a.Insert(3));
  EXPECT_TRUE(a.Insert(299));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.ToSortedVector(), (std::vector<StreamId>{3, 299}));
}

TEST(AnswerSetTest, EqualityIgnoresCapacity) {
  AnswerSet small;
  small.Insert(1);
  AnswerSet large;
  large.Insert(1);
  large.Insert(5000);  // grows the bitmap ...
  large.Erase(5000);   // ... which keeps its size once emptied again
  EXPECT_EQ(small, large);
  EXPECT_EQ(large, small);
  large.Insert(4000);
  EXPECT_FALSE(small == large);
  EXPECT_FALSE(large == small);
  small.Insert(4000);
  EXPECT_EQ(small, large);
  AnswerSet cleared = large;
  cleared.Clear();
  EXPECT_EQ(cleared, AnswerSet());
}

}  // namespace
}  // namespace asf
