#include "protocol/heuristics.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace asf {

std::string_view SelectionHeuristicName(SelectionHeuristic h) {
  switch (h) {
    case SelectionHeuristic::kRandom:
      return "random";
    case SelectionHeuristic::kBoundaryNearest:
      return "boundary-nearest";
  }
  return "unknown";
}

std::string_view ReinitPolicyName(ReinitPolicy p) {
  switch (p) {
    case ReinitPolicy::kNever:
      return "never";
    case ReinitPolicy::kWhenExhausted:
      return "when-exhausted";
  }
  return "unknown";
}

std::vector<StreamId> SelectRandomHolders(
    const std::vector<StreamId>& candidates, std::size_t take, Rng* rng) {
  ASF_CHECK(rng != nullptr);
  std::vector<StreamId> picked = candidates;
  rng->Shuffle(&picked);
  picked.resize(take);
  return picked;
}

std::vector<StreamId> SelectSmallestKeys(
    std::vector<std::pair<double, StreamId>>* keyed, std::size_t take) {
  // (priority, id) keys order totally, so selecting the `take` smallest
  // and sorting only those yields exactly the first `take` of a full
  // (priority, id) sort.
  const auto kept = keyed->begin() + static_cast<std::ptrdiff_t>(take);
  std::nth_element(keyed->begin(), kept, keyed->end());
  std::sort(keyed->begin(), kept);
  std::vector<StreamId> picked(take);
  for (std::size_t i = 0; i < take; ++i) picked[i] = (*keyed)[i].second;
  return picked;
}

}  // namespace asf
