#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

namespace asf {
namespace {

TEST(SchedulerTest, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.Step());
}

TEST(SchedulerTest, DispatchesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(3.0, [&] { order.push_back(3); });
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(2.0, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

TEST(SchedulerTest, EqualTimesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  s.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  SimTime observed = -1;
  s.ScheduleAt(10.0, [&] {
    s.ScheduleAfter(5.0, [&] { observed = s.now(); });
  });
  s.RunAll();
  EXPECT_EQ(observed, 15.0);
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  int ran = 0;
  s.ScheduleAt(1.0, [&] { ++ran; });
  s.ScheduleAt(2.0, [&] { ++ran; });
  s.ScheduleAt(2.5, [&] { ++ran; });
  const std::size_t n = s.RunUntil(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.now(), 2.0);   // clock advanced exactly to the horizon
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, RunUntilAdvancesClockWithNoEvents) {
  Scheduler s;
  EXPECT_EQ(s.RunUntil(42.0), 0u);
  EXPECT_EQ(s.now(), 42.0);
}

TEST(SchedulerTest, CancelPreventsDispatch) {
  Scheduler s;
  int ran = 0;
  const EventId id = s.ScheduleAt(1.0, [&] { ++ran; });
  s.ScheduleAt(2.0, [&] { ++ran; });
  EXPECT_TRUE(s.Cancel(id));
  s.RunAll();
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerTest, CancelReturnsFalseForUnknownOrDone) {
  Scheduler s;
  int ran = 0;
  const EventId id = s.ScheduleAt(1.0, [&] { ++ran; });
  s.RunAll();
  EXPECT_FALSE(s.Cancel(id));     // already ran
  EXPECT_FALSE(s.Cancel(99999));  // never existed
}

TEST(SchedulerTest, DoubleCancelReturnsFalse) {
  Scheduler s;
  const EventId id = s.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, PendingCountExcludesCancelled) {
  Scheduler s;
  const EventId a = s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.Cancel(a);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, EventsScheduledDuringDispatchRun) {
  // Self-perpetuating events (how stream sources reschedule themselves).
  Scheduler s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) s.ScheduleAfter(1.0, tick);
  };
  s.ScheduleAt(1.0, tick);
  s.RunAll();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(s.now(), 5.0);
}

TEST(SchedulerTest, ZeroDelayEventRunsAtSameTime) {
  Scheduler s;
  SimTime when = -1;
  s.ScheduleAt(7.0, [&] { s.ScheduleAfter(0.0, [&] { when = s.now(); }); });
  s.RunAll();
  EXPECT_EQ(when, 7.0);
}

TEST(SchedulerTest, DispatchedCounter) {
  Scheduler s;
  for (int i = 0; i < 4; ++i) s.ScheduleAt(i + 1.0, [] {});
  s.RunAll();
  EXPECT_EQ(s.dispatched(), 4u);
}

TEST(SchedulerTest, RunUntilSkipsCancelledHead) {
  Scheduler s;
  int ran = 0;
  const EventId id = s.ScheduleAt(1.0, [&] { ++ran; });
  s.ScheduleAt(2.0, [&] { ++ran; });
  s.Cancel(id);
  EXPECT_EQ(s.RunUntil(3.0), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerTest, CancelThenRunUntilPreservesOrdering) {
  // Regression for the cancelled-entry skip logic shared by PopNext and
  // RunUntil: cancelled events interleaved with live ones (including at
  // the same timestamp) must neither run nor disturb FIFO order, and
  // RunUntil must count only live dispatches.
  Scheduler s;
  std::vector<int> order;
  const EventId a = s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(1.0, [&] { order.push_back(2); });
  const EventId c = s.ScheduleAt(2.0, [&] { order.push_back(3); });
  s.ScheduleAt(2.0, [&] { order.push_back(4); });
  const EventId e = s.ScheduleAt(3.0, [&] { order.push_back(5); });
  s.Cancel(a);  // cancelled head at t=1
  s.Cancel(c);  // cancelled head at t=2
  s.Cancel(e);  // cancelled beyond the horizon

  EXPECT_EQ(s.RunUntil(2.0), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
  EXPECT_EQ(s.now(), 2.0);
  EXPECT_EQ(s.pending(), 0u);

  // The cancelled event past the horizon must not surface later either.
  EXPECT_EQ(s.RunUntil(5.0), 0u);
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
}

TEST(SchedulerTest, NegativeZeroTimeSortsAsZero) {
  // -0.0 passes the t >= now() check; its sign bit must not leak into the
  // packed heap key, or the event would sort after every positive time.
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(-0.0, [&] { order.push_back(0); });
  EXPECT_EQ(s.RunUntil(0.5), 1u);
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerTest, LargeCaptureTakesHeapPathCorrectly) {
  // Captures beyond EventCallback::kInlineSize must fall back to a heap
  // allocation with identical semantics (dispatch, cancel, destruction).
  Scheduler s;
  std::array<double, 16> payload{};  // 128 bytes > 48-byte inline buffer
  payload[7] = 42.0;
  double observed = 0.0;
  s.ScheduleAt(1.0, [payload, &observed] { observed = payload[7]; });
  const EventId doomed =
      s.ScheduleAt(2.0, [payload, &observed] { observed = -payload[7]; });
  EXPECT_TRUE(s.Cancel(doomed));
  s.RunAll();
  EXPECT_EQ(observed, 42.0);
}

TEST(SchedulerTest, IdsOfRecycledSlotsStayStale) {
  // After cancel or dispatch, a slot is recycled for later events; the old
  // EventId must keep reporting "gone" rather than cancelling the
  // newcomer that reuses its slab slot.
  Scheduler s;
  int ran = 0;
  const EventId a = s.ScheduleAt(1.0, [&] { ++ran; });
  EXPECT_TRUE(s.Cancel(a));
  const EventId b = s.ScheduleAt(1.0, [&] { ++ran; });
  EXPECT_FALSE(s.Cancel(a));  // stale handle, slot now belongs to b
  s.RunAll();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(s.Cancel(a));
  EXPECT_FALSE(s.Cancel(b));
}

TEST(SchedulerTest, CancelFromInsideOwnCallbackIsNoop) {
  Scheduler s;
  EventId self = 0;
  bool cancel_result = true;
  self = s.ScheduleAt(1.0, [&] { cancel_result = s.Cancel(self); });
  s.RunAll();
  EXPECT_FALSE(cancel_result);  // "already ran", like the old kernel
  EXPECT_EQ(s.dispatched(), 1u);
}

/// Naive reference kernel: a flat list scanned for the (time, insertion
/// seq) minimum. Cross-checks the 4-ary heap + slab + tombstone machinery
/// under a deterministic interleaving of ScheduleAt / ScheduleAfter /
/// Cancel (including cancel-after-fire and duplicate cancel).
TEST(SchedulerStressTest, MatchesNaiveReference) {
  struct RefEvent {
    SimTime time;
    int tag;
    bool cancelled = false;
    bool fired = false;
  };
  Scheduler s;
  std::vector<RefEvent> ref;        // insertion order == seq order
  std::vector<EventId> handles;     // handles[i] belongs to ref[i]
  std::vector<int> real_order;
  std::vector<int> ref_order;
  SimTime ref_now = 0;

  std::uint64_t rng = 20260730;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  const auto ref_run_until = [&](SimTime horizon) {
    for (;;) {
      std::size_t best = ref.size();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i].cancelled || ref[i].fired || ref[i].time > horizon) {
          continue;
        }
        if (best == ref.size() || ref[i].time < ref[best].time) best = i;
        // Ties keep the lowest index: FIFO at equal timestamps.
      }
      if (best == ref.size()) break;
      ref[best].fired = true;
      ref_order.push_back(ref[best].tag);
    }
    ref_now = horizon;
  };

  for (int round = 0; round < 300; ++round) {
    // A burst of schedules, mixing absolute and relative forms and
    // clustering times so equal timestamps are common.
    const std::size_t burst = 1 + next() % 8;
    for (std::size_t b = 0; b < burst; ++b) {
      const SimTime dt = static_cast<double>(next() % 64) / 4.0;
      const int tag = static_cast<int>(ref.size());
      EventId id;
      if (next() % 2 == 0) {
        id = s.ScheduleAt(s.now() + dt, [&real_order, tag] {
          real_order.push_back(tag);
        });
      } else {
        id = s.ScheduleAfter(dt, [&real_order, tag] {
          real_order.push_back(tag);
        });
      }
      handles.push_back(id);
      ref.push_back(RefEvent{ref_now + dt, tag});
    }

    // A few cancels aimed at arbitrary handles, old and new: some hit
    // pending events, some events that already fired, some repeat a
    // previous cancel. The kernel must agree with the reference on every
    // return value.
    const std::size_t cancels = next() % 4;
    for (std::size_t c = 0; c < cancels; ++c) {
      const std::size_t victim = next() % handles.size();
      const bool expect =
          !ref[victim].cancelled && !ref[victim].fired;
      EXPECT_EQ(s.Cancel(handles[victim]), expect) << "victim " << victim;
      ref[victim].cancelled = true;  // idempotent in the reference
    }

    // Advance both kernels through a shared horizon.
    const SimTime horizon = s.now() + static_cast<double>(next() % 40);
    s.RunUntil(horizon);
    ref_run_until(horizon);
    ASSERT_EQ(real_order.size(), ref_order.size()) << "round " << round;
  }

  // Drain everything left.
  s.RunAll();
  ref_run_until(1e18);
  EXPECT_EQ(real_order, ref_order);
  EXPECT_EQ(s.pending(), 0u);
  // Sanity: the schedule actually exercised all paths.
  EXPECT_GT(real_order.size(), 500u);
  std::size_t cancelled = 0;
  for (const RefEvent& e : ref) cancelled += e.cancelled && !e.fired;
  EXPECT_GT(cancelled, 10u);
}

/// A FIFO-lane event and a heap event with the same time run in
/// scheduling order, whichever structure each sits in.
TEST(SchedulerTest, FifoLaneAndHeapTiesRunInScheduleOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleFifo(5.0, [&order] { order.push_back(1); });
  s.ScheduleAt(5.0, [&order] { order.push_back(2); });
  s.ScheduleFifo(5.0, [&order] { order.push_back(3); });
  s.ScheduleFifo(2.0, [&order] { order.push_back(0); });  // out of order
  s.ScheduleAt(4.0, [&order] { order.push_back(-1); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, 2, 3}));
}

/// Second reference check, for everything beyond plain ScheduleAt: the
/// FIFO lane (appends in order and out of order), reserved sequence
/// numbers materialized late, cancels aimed at the lane head and at nodes
/// in the middle of the lane, and both RunUntil and RunBefore. The
/// reference orders by the explicit (time, seq) pair, mirroring the
/// kernel's seq counter.
TEST(SchedulerStressTest, LaneAndReservedSeqsMatchNaiveReference) {
  struct RefEvent {
    SimTime time;
    std::uint64_t seq;
    bool fifo;
    bool cancelled = false;
    bool fired = false;
  };
  Scheduler s;
  std::vector<RefEvent> ref;     // tag == index
  std::vector<EventId> handles;  // handles[i] belongs to ref[i]
  std::vector<std::uint64_t> reserved;  // reserved, not yet used
  std::vector<int> real_order;
  std::vector<int> ref_order;
  std::uint64_t next_seq = 0;

  std::uint64_t rng = 20261017;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  const auto ref_run = [&](SimTime horizon, bool inclusive) {
    for (;;) {
      std::size_t best = ref.size();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        const RefEvent& e = ref[i];
        if (e.cancelled || e.fired) continue;
        if (inclusive ? e.time > horizon : e.time >= horizon) continue;
        if (best == ref.size() || e.time < ref[best].time ||
            (e.time == ref[best].time && e.seq < ref[best].seq)) {
          best = i;
        }
      }
      if (best == ref.size()) break;
      ref[best].fired = true;
      ref_order.push_back(static_cast<int>(best));
    }
  };
  const auto add = [&](SimTime t, std::uint64_t seq, bool fifo, EventId id) {
    ref.push_back(RefEvent{t, seq, fifo});
    handles.push_back(id);
  };
  const auto record = [&real_order](int tag) {
    return [&real_order, tag] { real_order.push_back(tag); };
  };
  const auto pending_fifo = [&] {
    std::vector<std::size_t> out;  // in lane (seq) order
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (ref[i].fifo && !ref[i].cancelled && !ref[i].fired) out.push_back(i);
    }
    return out;
  };

  SimTime fifo_last = 0;  // latest in-order lane time handed out
  std::size_t heap_fallbacks = 0, head_cancels = 0, middle_cancels = 0;
  for (int round = 0; round < 400; ++round) {
    const std::size_t burst = 1 + next() % 10;
    for (std::size_t b = 0; b < burst; ++b) {
      const int tag = static_cast<int>(ref.size());
      const std::uint64_t op = next() % 8;
      if (op < 2) {
        const SimTime t = s.now() + static_cast<double>(next() % 48) / 4.0;
        add(t, next_seq++, false, s.ScheduleAt(t, record(tag)));
      } else if (op < 5) {
        // In order: the constant-delay pattern, ties included.
        fifo_last = std::max(fifo_last, s.now()) +
                    static_cast<double>(next() % 3) / 2.0;
        add(fifo_last, next_seq++, true,
            s.ScheduleFifo(fifo_last, record(tag)));
      } else if (op < 6) {
        // Out of order: lands before the lane's tail, so on the heap.
        const SimTime t = s.now() + static_cast<double>(next() % 8) / 4.0;
        heap_fallbacks += t < fifo_last;
        add(t, next_seq++, true, s.ScheduleFifo(t, record(tag)));
      } else if (op < 7) {
        const std::uint64_t count = 1 + next() % 3;
        const std::uint64_t base = s.ReserveSeqs(count);
        ASSERT_EQ(base, next_seq);
        for (std::uint64_t k = 0; k < count; ++k) {
          reserved.push_back(base + k);
        }
        next_seq += count;
      } else if (!reserved.empty()) {
        // Materialize a random reserved seq strictly in the future, so its
        // key is ahead of every dispatched one.
        const std::size_t pick = next() % reserved.size();
        const std::uint64_t seq = reserved[pick];
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(pick));
        const SimTime t =
            s.now() + 0.25 + static_cast<double>(next() % 32) / 4.0;
        add(t, seq, false, s.ScheduleAtReserved(t, seq, record(tag)));
      }
    }

    // Cancels: the lane head, a node in the middle of the lane, and an
    // arbitrary (possibly fired or cancelled) handle.
    const std::vector<std::size_t> lane = pending_fifo();
    if (!lane.empty() && next() % 3 == 0) {
      EXPECT_TRUE(s.Cancel(handles[lane.front()]));
      ref[lane.front()].cancelled = true;
      ++head_cancels;
    }
    if (lane.size() > 2 && next() % 2 == 0) {
      const std::size_t victim = lane[1 + next() % (lane.size() - 2)];
      EXPECT_TRUE(s.Cancel(handles[victim]));
      ref[victim].cancelled = true;
      ++middle_cancels;
    }
    if (!handles.empty() && next() % 2 == 0) {
      const std::size_t victim = next() % handles.size();
      EXPECT_EQ(s.Cancel(handles[victim]),
                !ref[victim].cancelled && !ref[victim].fired);
      ref[victim].cancelled = true;
    }

    const SimTime horizon = s.now() + static_cast<double>(next() % 24) / 2.0;
    if (next() % 2 == 0) {
      s.RunUntil(horizon);
      ref_run(horizon, /*inclusive=*/true);
    } else {
      s.RunBefore(horizon);
      ref_run(horizon, /*inclusive=*/false);
    }
    ASSERT_EQ(real_order, ref_order) << "round " << round;
  }

  s.RunAll();
  ref_run(1e18, /*inclusive=*/true);
  EXPECT_EQ(real_order, ref_order);
  EXPECT_EQ(s.pending(), 0u);
  // Sanity: every path was exercised.
  EXPECT_GT(real_order.size(), 1000u);
  EXPECT_GT(heap_fallbacks, 20u);
  EXPECT_GT(head_cancels, 20u);
  EXPECT_GT(middle_cancels, 20u);
}

TEST(SchedulerDeathTest, SchedulingIntoThePastAborts) {
  Scheduler s;
  s.ScheduleAt(5.0, [] {});
  s.RunAll();
  EXPECT_EQ(s.now(), 5.0);
  EXPECT_DEATH(s.ScheduleAt(1.0, [] {}), "past");
}

}  // namespace
}  // namespace asf
