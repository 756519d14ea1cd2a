#ifndef ASF_PROTOCOL_HEURISTICS_H_
#define ASF_PROTOCOL_HEURISTICS_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "protocol/options.h"

/// \file
/// Silent-filter placement heuristics (paper §6.2 / Figure 14).

namespace asf {

/// SelectFilterHolders' kRandom pick: a uniform random subset of `take`
/// candidates, order randomized.
std::vector<StreamId> SelectRandomHolders(
    const std::vector<StreamId>& candidates, std::size_t take, Rng* rng);

/// SelectFilterHolders' kBoundaryNearest pick: the ids of the `take`
/// smallest (priority, id) keys, ascending. Reorders `*keyed`.
std::vector<StreamId> SelectSmallestKeys(
    std::vector<std::pair<double, StreamId>>* keyed, std::size_t take);

/// Picks up to `count` stream ids out of `candidates` to receive silent
/// filters.
///
/// * kRandom: a uniform random subset (order randomized); `priority` is
///   not used and may be nullptr.
/// * kBoundaryNearest: the `count` candidates with the smallest `priority`
///   value, ascending (ties by id). `priority` is any callable
///   double(StreamId) — called directly, not through std::function.
///   Callers pass the distance from the stream's cached value to the range
///   boundary; it is evaluated once per candidate and must be a pure
///   function of the id.
///
/// The returned order is meaningful: later protocols consume the list
/// back-to-front when Fix_Error retires filters, so the front holds the
/// most boundary-prone streams.
template <typename Priority>
std::vector<StreamId> SelectFilterHolders(
    const std::vector<StreamId>& candidates, std::size_t count,
    SelectionHeuristic heuristic, const Priority& priority, Rng* rng) {
  const std::size_t take = std::min(count, candidates.size());
  if (heuristic == SelectionHeuristic::kRandom) {
    return SelectRandomHolders(candidates, take, rng);
  }
  ASF_CHECK(heuristic == SelectionHeuristic::kBoundaryNearest);
  if constexpr (std::is_null_pointer_v<Priority>) {
    ASF_CHECK_MSG(false, "boundary-nearest selection needs a priority");
    return {};
  } else {
    std::vector<std::pair<double, StreamId>> keyed;
    keyed.reserve(candidates.size());
    for (const StreamId id : candidates) keyed.emplace_back(priority(id), id);
    return SelectSmallestKeys(&keyed, take);
  }
}

}  // namespace asf

#endif  // ASF_PROTOCOL_HEURISTICS_H_
