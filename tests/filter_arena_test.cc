#include "filter/filter_arena.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "filter/constraint.h"

namespace asf {
namespace {

FilterConstraint RangeConstraint(double lo, double hi) {
  return FilterConstraint::Range(Interval(lo, hi));
}

/// Collects the fired columns of one kernel evaluation.
std::vector<std::size_t> FiredColumns(FilterArena& arena, StreamId id,
                                      Value v) {
  std::vector<std::size_t> fired;
  const std::uint64_t* words = arena.EvaluateUpdate(id, v);
  for (std::size_t w = 0; w < arena.fired_words(); ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      fired.push_back(w * 64 +
                      static_cast<unsigned>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
  return fired;
}

TEST(FilterArenaTest, StartsEmpty) {
  FilterArena arena(16);
  EXPECT_EQ(arena.num_streams(), 16u);
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.capacity(), 0u);
}

TEST(FilterArenaTest, AcquireGrowsByDoublingAndBumpsGeneration) {
  FilterArena arena(4);
  const std::uint64_t g0 = arena.generation();
  EXPECT_EQ(arena.Acquire(), 0u);
  EXPECT_EQ(arena.capacity(), 1u);
  EXPECT_GT(arena.generation(), g0);  // growth 0 -> 1 invalidates views

  const std::uint64_t g1 = arena.generation();
  EXPECT_EQ(arena.Acquire(), 1u);  // 1 -> 2: growth again
  EXPECT_EQ(arena.capacity(), 2u);
  EXPECT_GT(arena.generation(), g1);

  EXPECT_EQ(arena.Acquire(), 2u);  // 2 -> 4
  const std::uint64_t g3 = arena.generation();
  EXPECT_EQ(arena.Acquire(), 3u);  // fits: no growth, no invalidation
  EXPECT_EQ(arena.capacity(), 4u);
  EXPECT_EQ(arena.generation(), g3);
  EXPECT_EQ(arena.live(), 4u);
}

TEST(FilterArenaTest, GrowthPreservesFilterState) {
  FilterArena arena(3);
  const std::size_t c0 = arena.Acquire();
  FilterBank bank0 = arena.View(c0);
  for (StreamId id = 0; id < 3; ++id) {
    bank0.Deploy(id, RangeConstraint(10 * id, 10 * id + 5), 2.0);
  }
  // Force growth twice; column 0's filters must carry their constraint and
  // membership reference across both reallocations.
  arena.Acquire();
  arena.Acquire();
  FilterBank rebound = arena.View(c0);
  for (StreamId id = 0; id < 3; ++id) {
    EXPECT_EQ(rebound.at(id).constraint(),
              RangeConstraint(10 * id, 10 * id + 5));
    // Reference was set against value 2.0: inside only for stream 0.
    EXPECT_EQ(rebound.at(id).reference_inside(), id == 0);
  }
}

TEST(FilterArenaTest, ReleaseLastColumnNeedsNoMove) {
  FilterArena arena(2);
  arena.Acquire();
  const std::size_t last = arena.Acquire();
  EXPECT_EQ(arena.Release(last), last);  // moved == released: no move
  EXPECT_EQ(arena.live(), 1u);
}

TEST(FilterArenaTest, ReleaseCompactsLastColumnIntoHole) {
  FilterArena arena(2);
  const std::size_t a = arena.Acquire();
  const std::size_t b = arena.Acquire();
  const std::size_t c = arena.Acquire();
  ASSERT_EQ(arena.live(), 3u);

  // Give each column a distinguishable constraint.
  arena.View(a).Deploy(0, RangeConstraint(0, 1), 0.5);
  arena.View(b).Deploy(0, RangeConstraint(2, 3), 0.5);
  arena.View(c).Deploy(0, RangeConstraint(4, 5), 4.5);

  // Releasing the middle column moves the last column into it.
  EXPECT_EQ(arena.Release(b), c);
  EXPECT_EQ(arena.live(), 2u);
  FilterBank moved = arena.View(b);
  EXPECT_EQ(moved.at(0).constraint(), RangeConstraint(4, 5));
  EXPECT_TRUE(moved.at(0).reference_inside());  // state moved, not reset
  // Column a untouched.
  EXPECT_EQ(arena.View(a).at(0).constraint(), RangeConstraint(0, 1));
}

TEST(FilterArenaTest, RecycledColumnComesUpPristine) {
  FilterArena arena(2);
  const std::size_t a = arena.Acquire();
  arena.View(a).Deploy(0, RangeConstraint(0, 1), 0.5);
  arena.Release(a);
  const std::size_t again = arena.Acquire();
  EXPECT_EQ(again, a);
  // The new tenant must not inherit the old tenant's filters.
  EXPECT_FALSE(arena.View(again).at(0).constraint().has_filter());
}

TEST(FilterArenaTest, RelocationCallbackReportsCompactionMoves) {
  FilterArena arena(2);
  std::vector<std::pair<std::size_t, std::size_t>> moves;
  arena.set_relocation_callback([&](std::size_t from, std::size_t to) {
    moves.push_back({from, to});
  });
  const std::size_t a = arena.Acquire();
  const std::size_t b = arena.Acquire();
  const std::size_t c = arena.Acquire();
  (void)b;

  // Releasing the last live column moves nothing: no callback.
  arena.Release(c);
  EXPECT_TRUE(moves.empty());

  // Releasing the first column swap-moves the (new) last column into the
  // hole; the callback reports exactly that move, after the arena state
  // is fully consistent (the moved tenant already answers at `to`).
  arena.set_relocation_callback([&](std::size_t from, std::size_t to) {
    moves.push_back({from, to});
    EXPECT_EQ(arena.live(), 1u);
  });
  arena.Release(a);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].first, 1u);   // b's old position
  EXPECT_EQ(moves[0].second, 0u);  // b's new position

  arena.Release(0);  // last again: still silent
  EXPECT_EQ(moves.size(), 1u);
}

TEST(FilterArenaTest, StripScansLivePrefix) {
  FilterArena arena(1);
  for (int i = 0; i < 5; ++i) arena.Acquire();
  for (std::size_t c = 0; c < 5; ++c) {
    arena.View(c).Deploy(0, RangeConstraint(100.0 * c, 100.0 * c + 50), 0.0);
  }
  arena.Release(1);  // column 4 moves into 1; live = {0, 4, 2, 3}
  EXPECT_EQ(arena.live(), 4u);
  EXPECT_EQ(arena.cell(0, 0).constraint(), RangeConstraint(0, 50));
  EXPECT_EQ(arena.cell(0, 1).constraint(), RangeConstraint(400, 450));
  EXPECT_EQ(arena.cell(0, 2).constraint(), RangeConstraint(200, 250));
  EXPECT_EQ(arena.cell(0, 3).constraint(), RangeConstraint(300, 350));
}

TEST(FilterArenaTest, ViewsCarryTheGenerationTag) {
  FilterArena arena(2);
  const std::size_t a = arena.Acquire();
  FilterBank view = arena.View(a);
  EXPECT_EQ(view.bound_generation(), arena.generation());
  arena.Acquire();  // growth: the old view's tag goes stale
  EXPECT_NE(view.bound_generation(), arena.generation());
  EXPECT_EQ(arena.View(a).bound_generation(), arena.generation());
}

// --- SoA / SIMD kernel parity ---
//
// The reference semantics are per-cell Filter::OnValueChange on an
// independent AoS bank (the executable specification of paper §3.1); the
// kernel must agree on every fired decision and every membership
// reference, through deploys, syncs, growth, and swap-move compaction.

TEST(FilterArenaKernelTest, KernelMatchesScalarOnValueChange) {
  constexpr std::size_t kStreams = 5;
  constexpr std::size_t kColumns = 70;  // crosses the one-word boundary
  FilterArena arena(kStreams);
  std::vector<std::vector<Filter>> reference(
      kStreams, std::vector<Filter>(kColumns));

  Rng rng(77);
  for (std::size_t c = 0; c < kColumns; ++c) {
    arena.Acquire();
    for (StreamId id = 0; id < kStreams; ++id) {
      const Value current = rng.Uniform(0, 1000);
      // A mix of real intervals, silent degenerate forms, and no-filter
      // columns, like FT-NRP populations produce.
      FilterConstraint constraint;
      switch ((c + id) % 5) {
        case 0: {
          const double lo = rng.Uniform(0, 900);
          constraint = RangeConstraint(lo, lo + rng.Uniform(1, 100));
          break;
        }
        case 1:
          constraint = FilterConstraint::FalsePositive();
          break;
        case 2:
          constraint = FilterConstraint::FalseNegative();
          break;
        case 3:
          constraint = FilterConstraint::NoFilter();
          break;
        case 4:
          constraint = RangeConstraint(400, 600);
          break;
      }
      arena.Deploy(id, c, constraint, current);
      reference[id][c].Deploy(constraint, current);
    }
  }

  for (int step = 0; step < 2000; ++step) {
    const StreamId id = static_cast<StreamId>(
        rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
    const Value v = rng.Uniform(-50, 1050);
    std::vector<std::size_t> expect;
    for (std::size_t c = 0; c < kColumns; ++c) {
      if (reference[id][c].OnValueChange(v)) expect.push_back(c);
    }
    EXPECT_EQ(FiredColumns(arena, id, v), expect) << "step " << step;
    for (std::size_t c = 0; c < kColumns; ++c) {
      ASSERT_EQ(arena.ReferenceInside(id, c),
                reference[id][c].reference_inside())
          << "step " << step << " column " << c;
    }
  }
}

TEST(FilterArenaKernelTest, MutationsInterleavedWithKernelStayExact) {
  constexpr std::size_t kStreams = 3;
  constexpr std::size_t kColumns = 9;
  FilterArena arena(kStreams);
  std::vector<std::vector<Filter>> reference(
      kStreams, std::vector<Filter>(kColumns));
  for (std::size_t c = 0; c < kColumns; ++c) arena.Acquire();

  Rng rng(123);
  for (int step = 0; step < 3000; ++step) {
    const StreamId id = static_cast<StreamId>(
        rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
    const std::size_t c = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(kColumns) - 1));
    const Value v = rng.Uniform(0, 1000);
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // deploy a fresh constraint
        const double lo = rng.Uniform(0, 900);
        const FilterConstraint constraint =
            RangeConstraint(lo, lo + rng.Uniform(1, 150));
        arena.Deploy(id, c, constraint, v);
        reference[id][c].Deploy(constraint, v);
        break;
      }
      case 1:  // probe sync
        arena.SyncReference(id, c, v);
        reference[id][c].SyncReference(v);
        break;
      case 2: {  // scalar single-cell evaluation (the dirty-replay path)
        EXPECT_EQ(arena.EvaluateColumn(id, c, v),
                  reference[id][c].OnValueChange(v));
        break;
      }
      default: {  // full-strip kernel evaluation
        std::vector<std::size_t> expect;
        for (std::size_t col = 0; col < kColumns; ++col) {
          if (reference[id][col].OnValueChange(v)) expect.push_back(col);
        }
        EXPECT_EQ(FiredColumns(arena, id, v), expect) << "step " << step;
        break;
      }
    }
  }
}

TEST(FilterArenaKernelTest, GrowthAndCompactionCarryTheLanes) {
  constexpr std::size_t kStreams = 4;
  FilterArena arena(kStreams);
  Rng rng(9);

  // The reference model: per-column banks of scalar Filters, mirroring
  // the arena's swap-move compaction (reference[column][stream]).
  std::vector<std::vector<Filter>> reference;

  auto evaluate_all = [&](int tag) {
    for (int step = 0; step < 40; ++step) {
      const StreamId id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
      const Value v = rng.Uniform(0, 1500);
      std::vector<std::size_t> expect;
      for (std::size_t c = 0; c < reference.size(); ++c) {
        if (reference[c][id].OnValueChange(v)) expect.push_back(c);
      }
      ASSERT_EQ(FiredColumns(arena, id, v), expect)
          << "tag " << tag << " step " << step;
    }
  };

  // Grow far past the 64-column SoA stride so the bit-stride widens with
  // advanced references in flight; evaluate between growth steps so the
  // kernel has advanced reference bits to carry over.
  for (int i = 0; i < 130; ++i) {
    const std::size_t c = arena.Acquire();
    ASSERT_EQ(c, reference.size());
    reference.emplace_back(kStreams);
    for (StreamId id = 0; id < kStreams; ++id) {
      const double lo = rng.Uniform(0, 1400);
      const Value current = rng.Uniform(0, 1500);
      const FilterConstraint constraint = RangeConstraint(lo, lo + 40);
      arena.Deploy(id, c, constraint, current);
      reference.back()[id].Deploy(constraint, current);
    }
    if (i % 13 == 0) evaluate_all(i);
  }
  evaluate_all(1000);

  // Release half the columns from the middle: swap-move compaction must
  // move the bound lanes and the bits (including advanced reference bits)
  // together.
  for (int i = 0; i < 60; ++i) {
    arena.Release(17);
    reference[17] = std::move(reference.back());
    reference.pop_back();
    if (i % 11 == 0) evaluate_all(2000 + i);
  }
  evaluate_all(3000);
}

TEST(FilterArenaKernelTest, TouchedCellTrackingFollowsMutations) {
  FilterArena arena(3);
  arena.EnableCellTracking(true);
  const std::size_t a = arena.Acquire();
  const std::size_t b = arena.Acquire();
  EXPECT_FALSE(arena.CellTouched(0, a));

  arena.Deploy(0, a, RangeConstraint(10, 20), 5.0);
  EXPECT_TRUE(arena.CellTouched(0, a));
  EXPECT_FALSE(arena.CellTouched(1, a));
  EXPECT_FALSE(arena.CellTouched(0, b));

  arena.SyncReference(1, b, 15.0);
  EXPECT_TRUE(arena.CellTouched(1, b));

  // Kernel evaluation is speculation, not mutation: it must not mark.
  arena.EvaluateUpdate(0, 12.0);
  EXPECT_FALSE(arena.CellTouched(0, b));

  arena.ClearTouched();
  EXPECT_FALSE(arena.CellTouched(0, a));
  EXPECT_FALSE(arena.CellTouched(1, b));

  // Compaction moves the touched bit with the moved column.
  arena.Deploy(2, b, RangeConstraint(0, 1), 0.5);
  ASSERT_TRUE(arena.CellTouched(2, b));
  arena.Release(a);  // b moves into a's slot
  EXPECT_TRUE(arena.CellTouched(2, a));
}

// --- Single-copy storage: cells rebuilt from the lanes and bits ---
//
// The arena keeps each cell once, as bound lanes plus ref/always bits;
// cell() and FilterBank::at() rebuild a Filter from them. Every
// constraint kind must read back equal to what was deployed, with the
// reference a standalone Filter would hold, through growth and
// compaction.

void ExpectSameFilter(const Filter& got, const Filter& want,
                      const std::string& where) {
  EXPECT_EQ(got.constraint(), want.constraint())
      << where << ": got " << got.constraint().ToString() << ", want "
      << want.constraint().ToString();
  EXPECT_EQ(got.reference_inside(), want.reference_inside()) << where;
}

// Values on a coarse grid half the time, so point filters [x, x] and
// closed bounds are hit exactly.
Value RandomValue(Rng* rng) {
  if (rng->Bernoulli(0.5)) {
    return 50.0 * static_cast<double>(rng->UniformInt(0, 20));
  }
  return rng->Uniform(-50, 1050);
}

FilterConstraint RandomConstraint(Rng* rng) {
  switch (rng->UniformInt(0, 6)) {
    case 0:
      return FilterConstraint::NoFilter();
    case 1:
      return FilterConstraint::FalsePositive();
    case 2:
      return FilterConstraint::FalseNegative();
    case 3: {
      const double lo = rng->Uniform(0, 900);
      return RangeConstraint(lo, lo + rng->Uniform(1, 150));
    }
    case 4: {  // point filter [x, x]
      const double x = 50.0 * static_cast<double>(rng->UniformInt(0, 20));
      return RangeConstraint(x, x);
    }
    case 5:  // half-bounded
      return RangeConstraint(rng->Uniform(0, 1000), kInf);
    default:
      return RangeConstraint(-kInf, rng->Uniform(0, 1000));
  }
}

TEST(FilterArenaCellTest, EveryConstraintKindReadsBack) {
  const std::vector<FilterConstraint> kinds{
      FilterConstraint::NoFilter(),      FilterConstraint::FalsePositive(),
      FilterConstraint::FalseNegative(), RangeConstraint(400, 600),
      RangeConstraint(250, 250),         RangeConstraint(-kInf, 10),
      RangeConstraint(10, kInf),         RangeConstraint(-kInf, -kInf)};
  const std::vector<Value> currents{250.0, 500.0, 5.0, 700.0};
  const std::size_t streams = kinds.size() * currents.size();
  // One arena, and three arenas behind a round-robin routed view (the
  // sharded engine's layout): at() must rebuild the same cells.
  FilterArena single(streams);
  std::vector<std::unique_ptr<FilterArena>> shards;
  std::vector<FilterArena*> shard_ptrs;
  for (std::size_t s = 0; s < 3; ++s) {
    shards.push_back(std::make_unique<FilterArena>((streams + 2 - s) / 3));
    shard_ptrs.push_back(shards.back().get());
  }
  single.Acquire();
  for (FilterArena* arena : shard_ptrs) arena->Acquire();
  FilterBank view = single.View(0);
  FilterBank routed(shard_ptrs.data(), shard_ptrs.size(), 0, streams);
  FilterBank owning(streams);

  std::size_t fp = 0;
  std::size_t fn = 0;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (std::size_t i = 0; i < currents.size(); ++i) {
      const StreamId id = static_cast<StreamId>(k * currents.size() + i);
      view.Deploy(id, kinds[k], currents[i]);
      routed.Deploy(id, kinds[k], currents[i]);
      owning.Deploy(id, kinds[k], currents[i]);
      fp += kinds[k].IsFalsePositiveFilter();
      fn += kinds[k].IsFalseNegativeFilter();
    }
  }
  for (StreamId id = 0; id < streams; ++id) {
    const std::string where = "stream " + std::to_string(id);
    ExpectSameFilter(single.cell(id, 0), owning.at(id), where);
    ExpectSameFilter(view.at(id), owning.at(id), where);
    ExpectSameFilter(routed.at(id), owning.at(id), where);
    // The rebuilt constraint keeps its role predicates.
    const FilterConstraint got = view.at(id).constraint();
    const FilterConstraint want = owning.at(id).constraint();
    EXPECT_EQ(got.has_filter(), want.has_filter()) << where;
    EXPECT_EQ(got.IsFalsePositiveFilter(), want.IsFalsePositiveFilter());
    EXPECT_EQ(got.IsFalseNegativeFilter(), want.IsFalseNegativeFilter());
  }
  // The one-pass lane count agrees with the per-filter predicates.
  for (const FilterBank* bank : {&view, &routed, &owning}) {
    const SilentFilterCounts counts = bank->CountSilentFilters();
    EXPECT_EQ(counts.false_positive, fp);
    EXPECT_EQ(counts.false_negative, fn);
  }
}

TEST(FilterArenaCellTest, NonEmptyInfiniteIntervalReadsBackAsNever) {
  // Interval(+inf, +inf) is not canonicalized (lo > hi is false), so it
  // is a non-empty interval distinct from Interval::Never(). Its lanes
  // [+inf, +inf] are the same as the empty interval's, and the arena
  // rebuilds them as Never(): membership of every finite value is
  // unchanged (neither contains one), so every filter decision is too,
  // but the cell now reads back — and counts — as a false-negative
  // filter.
  const Interval inf_point(kInf, kInf);
  ASSERT_FALSE(inf_point.empty());
  ASSERT_NE(inf_point, Interval::Never());
  const FilterConstraint deployed = FilterConstraint::Range(inf_point);
  ASSERT_FALSE(deployed.IsFalseNegativeFilter());

  FilterArena arena(1);
  arena.Acquire();
  arena.Deploy(0, 0, deployed, 3.0);
  Filter standalone;
  standalone.Deploy(deployed, 3.0);

  const Filter back = arena.cell(0, 0);
  EXPECT_EQ(back.constraint(), FilterConstraint::FalseNegative());
  EXPECT_TRUE(back.constraint().IsFalseNegativeFilter());
  EXPECT_FALSE(back.reference_inside());
  EXPECT_EQ(arena.CountSilent(0).false_negative, 1u);

  Rng rng(5);
  for (int step = 0; step < 200; ++step) {
    const Value v = RandomValue(&rng);
    if (step % 2 == 0) {
      EXPECT_EQ(arena.EvaluateColumn(0, 0, v), standalone.OnValueChange(v));
    } else {
      arena.SyncReference(0, 0, v);
      standalone.SyncReference(v);
    }
    EXPECT_EQ(arena.ReferenceInside(0, 0), standalone.reference_inside());
  }
}

TEST(FilterArenaCellTest, RandomOpsMatchStandaloneFiltersThroughGrowth) {
  constexpr std::size_t kStreams = 3;
  FilterArena arena(kStreams);
  // reference[column][stream], compacted like the arena.
  std::vector<std::vector<Filter>> reference;
  Rng rng(4242);

  auto expect_all_cells = [&](const std::string& tag) {
    for (std::size_t c = 0; c < reference.size(); ++c) {
      const FilterBank view = arena.View(c);
      for (StreamId id = 0; id < kStreams; ++id) {
        const std::string where = tag + " column " + std::to_string(c) +
                                  " stream " + std::to_string(id);
        ExpectSameFilter(arena.cell(id, c), reference[c][id], where);
        ExpectSameFilter(view.at(id), reference[c][id], where);
      }
    }
  };
  auto acquire = [&] {
    const std::size_t c = arena.Acquire();
    ASSERT_EQ(c, reference.size());
    reference.emplace_back(kStreams);
    for (StreamId id = 0; id < kStreams; ++id) {
      const FilterConstraint constraint = RandomConstraint(&rng);
      const Value current = RandomValue(&rng);
      arena.Deploy(id, c, constraint, current);
      reference.back()[id].Deploy(constraint, current);
    }
  };
  auto random_ops = [&](int count) {
    for (int step = 0; step < count; ++step) {
      const StreamId id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
      const std::size_t c = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(reference.size()) - 1));
      const Value v = RandomValue(&rng);
      switch (rng.UniformInt(0, 3)) {
        case 0: {
          const FilterConstraint constraint = RandomConstraint(&rng);
          arena.Deploy(id, c, constraint, v);
          reference[c][id].Deploy(constraint, v);
          break;
        }
        case 1:
          arena.SyncReference(id, c, v);
          reference[c][id].SyncReference(v);
          break;
        case 2:
          ASSERT_EQ(arena.EvaluateColumn(id, c, v),
                    reference[c][id].OnValueChange(v))
              << "step " << step;
          break;
        default: {
          std::vector<std::size_t> expect;
          for (std::size_t col = 0; col < reference.size(); ++col) {
            if (reference[col][id].OnValueChange(v)) expect.push_back(col);
          }
          ASSERT_EQ(FiredColumns(arena, id, v), expect) << "step " << step;
          break;
        }
      }
    }
  };

  // Grow past the 64- and 128-column strides (each widening re-lays the
  // lanes out) with advanced references in flight, checking every cell at
  // each boundary.
  for (int i = 0; i < 140; ++i) {
    acquire();
    random_ops(12);
    if (reference.size() == 64 || reference.size() == 65 ||
        reference.size() == 128 || reference.size() == 129) {
      expect_all_cells("after growth to " + std::to_string(reference.size()));
    }
  }
  expect_all_cells("grown");

  // Release compaction: the last column moves into the hole.
  for (int i = 0; i < 90; ++i) {
    const std::size_t hole = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(reference.size()) - 1));
    arena.Release(hole);
    reference[hole] = std::move(reference.back());
    reference.pop_back();
    random_ops(8);
    if (i % 15 == 0) expect_all_cells("release " + std::to_string(i));
  }
  expect_all_cells("compacted");

  // Re-grow through the recycled columns, which must come up pristine.
  for (int i = 0; i < 80; ++i) {
    acquire();
    random_ops(4);
  }
  expect_all_cells("regrown");
}

/// S lockstep arenas over `n` streams (stream id -> arena id % S, row
/// id / S), dispatching through the stabbing index and tracking touched
/// cells, so every side effect of a deploy is observable.
struct LockstepArenas {
  LockstepArenas(std::size_t n, std::size_t s) {
    for (std::size_t k = 0; k < s; ++k) {
      arenas.push_back(
          std::make_unique<FilterArena>(n / s + (k < n % s ? 1 : 0)));
      arenas.back()->SetDispatchPolicy(DispatchPolicy::kIndex);
      arenas.back()->EnableCellTracking(true);
      ptrs.push_back(arenas.back().get());
    }
  }
  FilterArena& of(StreamId id) { return *arenas[id % arenas.size()]; }
  StreamId row(StreamId id) const {
    return static_cast<StreamId>(id / arenas.size());
  }
  std::size_t Acquire() {
    const std::size_t column = arenas[0]->Acquire();
    for (std::size_t k = 1; k < arenas.size(); ++k) {
      EXPECT_EQ(arenas[k]->Acquire(), column);
    }
    return column;
  }
  void Release(std::size_t column) {
    for (const auto& arena : arenas) arena->Release(column);
  }

  std::vector<std::unique_ptr<FilterArena>> arenas;
  std::vector<FilterArena*> ptrs;
};

/// One pass down a column — FilterArena::DeployColumn across S arenas —
/// leaves exactly what a Deploy per entry in batch order leaves: the
/// cells (lanes and bits, read back through cell()), the silent counts,
/// the touched lists, and the index overlay, which shows in every later
/// dispatch's fired set and in the rebuild schedule.
TEST(FilterArenaColumnTest, DeployColumnMatchesPerCellDeploys) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("S=" + std::to_string(shards));
    constexpr std::size_t kStreams = 50;
    Rng rng(0xC01 + shards);
    LockstepArenas cells(kStreams, shards);
    LockstepArenas column(kStreams, shards);
    std::vector<Value> values(kStreams);
    for (Value& v : values) v = RandomValue(&rng);
    std::vector<StreamId> order(kStreams);
    for (StreamId id = 0; id < kStreams; ++id) order[id] = id;

    for (int round = 0; round < 60; ++round) {
      if (cells.arenas[0]->live() > 2 && rng.Bernoulli(0.3)) {
        const auto victim = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(cells.arenas[0]->live()) - 1));
        cells.Release(victim);
        column.Release(victim);
      }
      if (rng.Bernoulli(0.2)) {
        for (const auto& arena : cells.arenas) arena->ClearTouched();
        for (const auto& arena : column.arenas) arena->ClearTouched();
      }
      const std::size_t c = cells.Acquire();
      ASSERT_EQ(column.Acquire(), c);
      // A random subset of the streams in random order, with every
      // constraint kind.
      rng.Shuffle(&order);
      DeployBatch batch;
      const auto size = static_cast<std::size_t>(
          rng.UniformInt(1, static_cast<std::int64_t>(kStreams)));
      for (std::size_t i = 0; i < size; ++i) {
        batch.push_back({order[i], RandomConstraint(&rng)});
      }
      for (const StreamDeploy& d : batch) {
        cells.of(d.id).Deploy(cells.row(d.id), c, d.constraint,
                              values[d.id]);
      }
      FilterArena::DeployColumn(column.ptrs.data(), shards, c, batch, values);

      for (StreamId id = 0; id < kStreams; ++id) {
        for (std::size_t k = 0; k < cells.arenas[0]->live(); ++k) {
          ExpectSameFilter(column.of(id).cell(column.row(id), k),
                           cells.of(id).cell(cells.row(id), k),
                           "stream " + std::to_string(id) + " column " +
                               std::to_string(k));
        }
      }
      for (std::size_t s = 0; s < shards; ++s) {
        const SilentFilterCounts want = cells.arenas[s]->CountSilent(c);
        const SilentFilterCounts got = column.arenas[s]->CountSilent(c);
        EXPECT_EQ(got.false_positive, want.false_positive);
        EXPECT_EQ(got.false_negative, want.false_negative);
        for (StreamId row = 0; row < cells.arenas[s]->num_streams(); ++row) {
          EXPECT_EQ(column.arenas[s]->TouchedColumns(row),
                    cells.arenas[s]->TouchedColumns(row));
        }
      }
      // Dispatches through the index read the overlay both ways built.
      for (int u = 0; u < 20; ++u) {
        const auto id = static_cast<StreamId>(
            rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
        values[id] = RandomValue(&rng);
        std::vector<std::uint32_t> want;
        std::vector<std::uint32_t> got;
        cells.of(id).DispatchUpdate(cells.row(id), values[id], &want);
        column.of(id).DispatchUpdate(column.row(id), values[id], &got);
        ASSERT_EQ(got, want) << "round " << round << " stream " << id;
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      const DispatchStats want = cells.arenas[s]->dispatch_stats();
      const DispatchStats got = column.arenas[s]->dispatch_stats();
      EXPECT_EQ(got.index_dispatches, want.index_dispatches);
      EXPECT_EQ(got.index_rebuilds, want.index_rebuilds);
      EXPECT_EQ(got.max_stream_rebuilds, want.max_stream_rebuilds);
      EXPECT_GT(got.index_rebuilds, 0u);
    }
  }
}

/// MarkColumnRedeployed dirty-marks the index exactly as a column-wide
/// Deploy does, without writing a cell: the rebuild schedule that follows
/// is the same.
TEST(FilterArenaColumnTest, MarkColumnRedeployedKeepsTheRebuildSchedule) {
  constexpr std::size_t kStreams = 20;
  Rng rng(0xC0D);
  LockstepArenas deployed(kStreams, 1);
  LockstepArenas marked(kStreams, 1);
  std::vector<Value> values(kStreams);
  for (Value& v : values) v = RandomValue(&rng);
  for (int round = 0; round < 40; ++round) {
    const std::size_t c = deployed.Acquire();
    ASSERT_EQ(marked.Acquire(), c);
    DeployBatch batch;
    for (StreamId id = 0; id < kStreams; ++id) {
      batch.push_back({id, RandomConstraint(&rng)});
    }
    FilterArena::DeployColumn(deployed.ptrs.data(), 1, c, batch, values);
    FilterArena::DeployColumn(marked.ptrs.data(), 1, c, batch, values);
    for (int u = 0; u < 30; ++u) {
      const auto id = static_cast<StreamId>(
          rng.UniformInt(0, static_cast<std::int64_t>(kStreams) - 1));
      values[id] = RandomValue(&rng);
      std::vector<std::uint32_t> want;
      std::vector<std::uint32_t> got;
      deployed.arenas[0]->DispatchUpdate(id, values[id], &want);
      marked.arenas[0]->DispatchUpdate(id, values[id], &got);
      ASSERT_EQ(got, want);
    }
    if (deployed.arenas[0]->live() > 3) {
      // A retirement: uninstall (written or only marked), then release.
      const auto victim = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(deployed.arenas[0]->live()) - 1));
      DeployBatch uninstall;
      for (StreamId id = 0; id < kStreams; ++id) {
        uninstall.push_back({id, FilterConstraint::NoFilter()});
      }
      FilterArena::DeployColumn(deployed.ptrs.data(), 1, victim, uninstall,
                                values);
      marked.arenas[0]->MarkColumnRedeployed(victim);
      deployed.Release(victim);
      marked.Release(victim);
    }
  }
  const DispatchStats want = deployed.arenas[0]->dispatch_stats();
  const DispatchStats got = marked.arenas[0]->dispatch_stats();
  EXPECT_EQ(got.index_rebuilds, want.index_rebuilds);
  EXPECT_EQ(got.max_stream_rebuilds, want.max_stream_rebuilds);
  EXPECT_GT(got.index_rebuilds, 0u);
}

TEST(FilterArenaKernelTest, SimdBackendIsReported) {
  // The compiled backend is surfaced to benches and bench JSON; whatever
  // it is, its lane count must be consistent.
  EXPECT_GE(simd::kLanes, 1);
  EXPECT_STRNE(simd::kBackend, "");
}

}  // namespace
}  // namespace asf
