#ifndef ASF_TESTS_NET_COUNTERS_H_
#define ASF_TESTS_NET_COUNTERS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "net/network_model.h"

/// \file
/// Every integer counter of NetStats, named, in declaration order. The
/// byte-identity tests compare (or pin) all of them at once, so a counter
/// cannot silently drop out of a check.

namespace asf {

inline std::vector<std::pair<const char*, std::uint64_t>> NetCounters(
    const NetStats& s) {
  return {
      {"crossings", s.crossings},
      {"update_messages", s.update_messages},
      {"update_payloads", s.update_payloads},
      {"delivered_crossings", s.delivered_crossings},
      {"deploy_messages", s.deploy_messages},
      {"control_rpcs", s.control_rpcs},
      {"dropped_retired", s.dropped_retired},
      {"deploy_dropped_retired", s.deploy_dropped_retired},
      {"in_flight_at_end", s.in_flight_at_end},
      {"in_flight_crossings_at_end", s.in_flight_crossings_at_end},
      {"dropped_loss", s.dropped_loss},
      {"dropped_partition", s.dropped_partition},
      {"suppressed_stale", s.suppressed_stale},
      {"deploy_attempts", s.deploy_attempts},
      {"deploy_retransmits", s.deploy_retransmits},
      {"deploy_dropped", s.deploy_dropped},
      {"deploy_acks", s.deploy_acks},
      {"deploy_dup_suppressed", s.deploy_dup_suppressed},
      {"deploy_stale_acks", s.deploy_stale_acks},
      {"deploy_unacked_at_end", s.deploy_unacked_at_end},
      {"probe_retransmits", s.probe_retransmits},
      {"probe_failovers", s.probe_failovers},
      {"reconcile_exchanges", s.reconcile_exchanges},
      {"reconcile_deploys", s.reconcile_deploys},
  };
}

}  // namespace asf

#endif  // ASF_TESTS_NET_COUNTERS_H_
