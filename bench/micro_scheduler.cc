/// Microbenchmark of the discrete-event kernel (src/sim/scheduler.h): raw
/// event throughput of the schedule → dispatch → reschedule cycle that
/// every simulated stream source drives, a cancel-heavy mix, and
/// constant-delay delivery traffic (FIFO lane vs heap).
///
/// Prints events/sec per scenario, compares against the checked-in
/// baseline measured with the pre-rewrite kernel (priority_queue of
/// std::function entries + two unordered_set tombstone sets), and writes
/// the results as machine-readable JSON (default BENCH_pr2.json; override
/// with --json=PATH, disable with --json=).

#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/scheduler.h"

namespace asf {
namespace {

/// Events/sec of these scenarios measured on the pre-rewrite kernel
/// (commit 4e8265b: priority_queue + unordered_sets) on the reference dev
/// box, Release -O3, same callback capture shapes. The acceptance bar for
/// the rewrite is >= 2x on the same hardware; on other machines the ratio
/// is indicative only.
constexpr double kOldKernelChurnEventsPerSec = 4.3e6;
constexpr double kOldKernelCancelOpsPerSec = 9.1e6;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Deterministic 64-bit mixer (splitmix64) for delay jitter; avoids
/// pulling the workload RNG into the timing loop.
std::uint64_t Mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The stream-source pattern: `tickers` concurrent events, each dispatch
/// reschedules itself at a jittered future time, until `total` dispatches
/// have run. Exercises ScheduleAfter + heap push/pop + callback dispatch.
double ChurnEventsPerSec(std::size_t tickers, std::uint64_t total) {
  Scheduler s;
  std::uint64_t remaining = total;
  std::uint64_t rng = 42;

  // Self-rescheduling callback with the same capture shape as the real
  // stream sources (random_walk.cc: this/scheduler/id/horizon by value,
  // ~24-32 bytes) — the case the small-buffer path must keep
  // allocation-free.
  struct Tick {
    Scheduler* s;
    std::uint64_t* remaining;
    std::uint64_t* rng;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      const SimTime delay = 1.0 + static_cast<double>(Mix(*rng) & 0xff);
      s->ScheduleAfter(delay, Tick{s, remaining, rng});
    }
  };

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < tickers; ++i) {
    s.ScheduleAt(static_cast<SimTime>(i), Tick{&s, &remaining, &rng});
  }
  s.RunAll();
  const double elapsed = Seconds(start);
  return static_cast<double>(s.dispatched()) / elapsed;
}

/// Cancel-heavy mix: schedule a batch, cancel half of it (the pattern of
/// timeout events that almost always get cancelled), dispatch the rest.
/// Ops = schedules + cancels + dispatches.
double CancelOpsPerSec(std::size_t batch, std::size_t rounds) {
  Scheduler s;
  std::uint64_t sink = 0;
  std::vector<EventId> ids(batch);
  std::uint64_t ops = 0;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const SimTime base = s.now() + 1.0;
    for (std::size_t i = 0; i < batch; ++i) {
      ids[i] = s.ScheduleAt(base + static_cast<SimTime>(i % 16),
                            [&sink] { ++sink; });
    }
    for (std::size_t i = 0; i < batch; i += 2) s.Cancel(ids[i]);
    s.RunUntil(base + 16.0);
    ops += batch + batch / 2 + batch / 2;
  }
  const double elapsed = Seconds(start);
  if (sink == 0) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(ops) / elapsed;
}

/// Constant-delay delivery: `tickers` self-rescheduling sources (heap
/// events, as above), each of whose dispatches sends `fanout` messages
/// that arrive at now + `delay`, every arrival answering with an ack
/// another `delay` later — the shape of deploy/ack traffic on a
/// latency:<d> net. `fifo` routes the deliveries through ScheduleFifo,
/// otherwise through ScheduleAt. Events/sec counts every dispatch.
double DeliveryEventsPerSec(std::size_t tickers, std::size_t fanout,
                            SimTime delay, std::uint64_t total, bool fifo) {
  Scheduler s;
  std::uint64_t remaining = total;
  std::uint64_t rng = 7;
  std::uint64_t acks = 0;

  struct Env {
    Scheduler* s;
    std::uint64_t* remaining;
    std::uint64_t* rng;
    std::uint64_t* acks;
    std::size_t fanout;
    SimTime delay;
    bool fifo;

    void Deliver(SimTime t, EventCallback fn) const {
      if (fifo) {
        s->ScheduleFifo(t, std::move(fn));
      } else {
        s->ScheduleAt(t, std::move(fn));
      }
    }
  };
  struct Tick {
    const Env* env;
    void operator()() const {
      if (*env->remaining == 0) return;
      --*env->remaining;
      const Env* e = env;
      for (std::size_t i = 0; i < e->fanout; ++i) {
        e->Deliver(e->s->now() + e->delay, [e] {
          e->Deliver(e->s->now() + e->delay, [e] { ++*e->acks; });
        });
      }
      const SimTime next = 1.0 + static_cast<double>(Mix(*e->rng) & 0xff);
      e->s->ScheduleAfter(next, Tick{e});
    }
  };
  const Env env{&s, &remaining, &rng, &acks, fanout, delay, fifo};

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < tickers; ++i) {
    s.ScheduleAt(static_cast<SimTime>(i), Tick{&env});
  }
  s.RunAll();
  const double elapsed = Seconds(start);
  if (acks == 0) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(s.dispatched()) / elapsed;
}

int Main(int argc, char** argv) {
  const double scale = bench::Scale();
  const auto total =
      static_cast<std::uint64_t>(4'000'000 * scale);

  std::printf("=== micro_scheduler ===\n");
  const double churn = ChurnEventsPerSec(/*tickers=*/1024, total);
  std::printf("churn          %12.3e events/sec  (baseline %10.3e, %5.2fx)\n",
              churn, kOldKernelChurnEventsPerSec,
              churn / kOldKernelChurnEventsPerSec);

  const double cancel =
      CancelOpsPerSec(/*batch=*/4096,
                      /*rounds=*/static_cast<std::size_t>(500 * scale));
  std::printf("cancel_mix     %12.3e ops/sec     (baseline %10.3e, %5.2fx)\n",
              cancel, kOldKernelCancelOpsPerSec,
              cancel / kOldKernelCancelOpsPerSec);

  const auto ticks = static_cast<std::uint64_t>(400'000 * scale);
  const double delivery_fifo = DeliveryEventsPerSec(
      /*tickers=*/1024, /*fanout=*/8, /*delay=*/4.0, ticks, /*fifo=*/true);
  const double delivery_heap = DeliveryEventsPerSec(
      /*tickers=*/1024, /*fanout=*/8, /*delay=*/4.0, ticks, /*fifo=*/false);
  std::printf("delivery_fifo  %12.3e events/sec  (heap only %10.3e, %5.2fx)\n",
              delivery_fifo, delivery_heap, delivery_fifo / delivery_heap);

  return bench::FinishMicroBench(
      argc, argv, "BENCH_pr2.json", "micro_scheduler",
      {{"churn_events_per_sec", churn},
       {"cancel_ops_per_sec", cancel},
       {"baseline_churn_events_per_sec", kOldKernelChurnEventsPerSec},
       {"baseline_cancel_ops_per_sec", kOldKernelCancelOpsPerSec},
       {"churn_speedup", churn / kOldKernelChurnEventsPerSec},
       {"cancel_speedup", cancel / kOldKernelCancelOpsPerSec},
       {"delivery_fifo_events_per_sec", delivery_fifo},
       {"delivery_heap_events_per_sec", delivery_heap},
       {"delivery_fifo_speedup", delivery_fifo / delivery_heap}});
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) { return asf::Main(argc, argv); }
