#ifndef ASF_TESTS_QUERY_STATS_EQUAL_H_
#define ASF_TESTS_QUERY_STATS_EQUAL_H_

#include <gtest/gtest.h>

#include "common/stats.h"
#include "engine/run_result.h"
#include "net/message_stats.h"

/// \file
/// Every field of QueryRunStats, named once, in declaration order. The
/// byte-identity tests (spill ≡ in-memory, obs-on ≡ obs-off, fault and
/// delivery nets, serial ≡ sharded) compare whole per-query records
/// through this, so a field cannot silently drop out of one check while
/// the others keep it. Label a comparison with SCOPED_TRACE.

namespace asf {

/// The accumulator's exact state: count, mean, M2, min, max and sum.
inline void ExpectSameMoments(const OnlineStats& a, const OnlineStats& b,
                              const char* what) {
  const OnlineStats::Raw ra = a.ToRaw();
  const OnlineStats::Raw rb = b.ToRaw();
  EXPECT_EQ(ra.count, rb.count) << what << ".count";
  EXPECT_EQ(ra.mean, rb.mean) << what << ".mean";
  EXPECT_EQ(ra.m2, rb.m2) << what << ".m2";
  EXPECT_EQ(ra.min, rb.min) << what << ".min";
  EXPECT_EQ(ra.max, rb.max) << what << ".max";
  EXPECT_EQ(ra.sum, rb.sum) << what << ".sum";
}

/// Every (phase, type) counter and the current phase.
inline void ExpectSameMessages(const MessageStats& a, const MessageStats& b) {
  for (int p = 0; p < kNumMessagePhases; ++p) {
    for (int t = 0; t < kNumMessageTypes; ++t) {
      EXPECT_EQ(a.count(static_cast<MessagePhase>(p),
                        static_cast<MessageType>(t)),
                b.count(static_cast<MessagePhase>(p),
                        static_cast<MessageType>(t)))
          << "messages phase " << p << " type " << t;
    }
  }
  EXPECT_EQ(a.phase(), b.phase()) << "messages.phase";
}

inline void ExpectSameQueryStats(const QueryRunStats& a,
                                 const QueryRunStats& b) {
  EXPECT_EQ(a.name, b.name);
  ExpectSameMessages(a.messages, b.messages);
  EXPECT_EQ(a.updates_reported, b.updates_reported);
  EXPECT_EQ(a.reinits, b.reinits);
  EXPECT_EQ(a.fp_filters_installed, b.fp_filters_installed);
  EXPECT_EQ(a.fn_filters_installed, b.fn_filters_installed);
  ExpectSameMoments(a.answer_size, b.answer_size, "answer_size");
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  EXPECT_EQ(a.oracle_violations, b.oracle_violations);
  EXPECT_EQ(a.max_f_plus, b.max_f_plus);
  EXPECT_EQ(a.max_f_minus, b.max_f_minus);
  EXPECT_EQ(a.max_worst_rank, b.max_worst_rank);
  EXPECT_EQ(a.oracle_violations_in_flight, b.oracle_violations_in_flight);
  ExpectSameMoments(a.update_delay, b.update_delay, "update_delay");
  EXPECT_EQ(a.deployed_at, b.deployed_at);
  EXPECT_EQ(a.retired_at, b.retired_at);
}

}  // namespace asf

#endif  // ASF_TESTS_QUERY_STATS_EQUAL_H_
