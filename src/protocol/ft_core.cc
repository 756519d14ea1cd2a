#include "protocol/ft_core.h"

#include <algorithm>

namespace asf {

void FractionFilterCore::InstallFilters(const Interval& range,
                                        std::size_t n_plus,
                                        std::size_t n_minus) {
  range_ = range;
  answer_.Clear();
  count_ = 0;
  fp_streams_.clear();
  fn_streams_.clear();

  // Partition streams by the server's (fresh) cache: A(t0) inside, Y(t0)
  // outside (Figure 7, Initialization steps 2-3).
  std::vector<StreamId> inside;
  std::vector<StreamId> outside;
  for (StreamId id = 0; id < ctx_->num_streams(); ++id) {
    if (range_.Contains(ctx_->cached(id))) {
      inside.push_back(id);
      answer_.Insert(id);
    } else {
      outside.push_back(id);
    }
  }

  const auto boundary_distance = [this](StreamId id) {
    return range_.DistanceToBoundary(ctx_->cached(id));
  };
  fp_streams_ = SelectFilterHolders(inside, n_plus, heuristic_,
                                    boundary_distance, rng_);
  fn_streams_ = SelectFilterHolders(outside, n_minus, heuristic_,
                                    boundary_distance, rng_);
  // The selection lists are ordered most-boundary-prone first; Fix_Error
  // consumes from the back so the streams most likely to cross stay silent
  // the longest. Every stream gets one install, sent as one batch: the
  // silent filters first, then the range to everyone else in id order.
  std::vector<bool> silent(ctx_->num_streams(), false);
  DeployBatch batch;
  batch.reserve(ctx_->num_streams());
  for (StreamId id : fp_streams_) {
    batch.push_back({id, FilterConstraint::FalsePositive()});
    silent[id] = true;
  }
  for (StreamId id : fn_streams_) {
    batch.push_back({id, FilterConstraint::FalseNegative()});
    silent[id] = true;
  }
  const FilterConstraint range_filter = FilterConstraint::Range(range_);
  for (StreamId id = 0; id < ctx_->num_streams(); ++id) {
    if (!silent[id]) batch.push_back({id, range_filter});
  }
  ctx_->DeployEach(batch);
}

void FractionFilterCore::OnRangeUpdate(StreamId id, Value v, SimTime t) {
  if (range_.Contains(v)) {
    // Figure 7 Maintenance case 1: a new stream satisfies the query.
    const bool inserted = answer_.Insert(id);
    // Under instant delivery silent filters never report and members
    // never report an in-range value; a late (in-transit) report may
    // re-state the current side, in which case nothing changes
    // (DESIGN.md §9).
    ASF_DCHECK(inserted || ctx_->delayed_delivery());
    if (inserted) ++count_;
    return;
  }
  // Case 2: an answer stream left the range.
  const bool erased = answer_.Erase(id);
  ASF_DCHECK(erased || ctx_->delayed_delivery());
  if (!erased) return;
  if (count_ > 0) {
    --count_;
  } else {
    FixError(t);
  }
}

void FractionFilterCore::FixError(SimTime t) {
  ++fix_error_runs_;
  const FilterConstraint range_filter = FilterConstraint::Range(range_);

  // Step 1: consult a false-positive-filtered stream, if any remain.
  if (!fp_streams_.empty()) {
    const StreamId y = fp_streams_.back();
    fp_streams_.pop_back();
    const Value vy = ctx_->Probe(y, t);
    // Whether or not S_y is still in range, it stops being a silent filter
    // holder: the range filter is installed and E^max+ is decremented
    // (DESIGN.md §4 — the Figure 7 pseudo-code omits the install in the
    // out-of-range branch but the §5.1.1 proof requires it).
    ctx_->Deploy(y, range_filter);
    if (range_.Contains(vy)) {
      // True positive: answer unchanged, false-positive budget shrank, both
      // fractions improved. Done.
      return;
    }
    // True negative: drop it from the answer and fall through to recruit a
    // replacement from the false-negative pool.
    answer_.Erase(y);
  }

  // Step 2: consult a false-negative-filtered stream, if any remain.
  if (!fn_streams_.empty()) {
    const StreamId z = fn_streams_.back();
    fn_streams_.pop_back();
    const Value vz = ctx_->Probe(z, t);
    if (range_.Contains(vz)) answer_.Insert(z);
    ctx_->Deploy(z, range_filter);
  }
}

}  // namespace asf
