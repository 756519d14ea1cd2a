#include "filter/filter_bank.h"

#include "filter/filter_arena.h"

namespace asf {

const Filter FilterBank::at(StreamId id) const {
  ASF_DCHECK(id < size_);
  if (!arenas_.empty()) {
    return arenas_[id % arenas_.size()]->cell(id / arenas_.size(), column_);
  }
  return owned_[id];
}

void FilterBank::Deploy(StreamId id, const FilterConstraint& constraint,
                        Value current_value) {
  if (!arenas_.empty()) {
    arenas_[id % arenas_.size()]->Deploy(id / arenas_.size(), column_,
                                         constraint, current_value);
    return;
  }
  mutable_at(id).Deploy(constraint, current_value);
}

void FilterBank::SyncReference(StreamId id, Value current_value) {
  if (!arenas_.empty()) {
    arenas_[id % arenas_.size()]->SyncReference(id / arenas_.size(), column_,
                                                current_value);
    return;
  }
  mutable_at(id).SyncReference(current_value);
}

SilentFilterCounts FilterBank::CountSilentFilters() const {
  SilentFilterCounts counts;
  if (!arenas_.empty()) {
    for (const FilterArena* arena : arenas_) {
      const SilentFilterCounts part = arena->CountSilent(column_);
      counts.false_positive += part.false_positive;
      counts.false_negative += part.false_negative;
    }
    return counts;
  }
  for (const Filter& filter : owned_) {
    counts.false_positive += filter.constraint().IsFalsePositiveFilter();
    counts.false_negative += filter.constraint().IsFalseNegativeFilter();
  }
  return counts;
}

std::size_t FilterBank::CountInstalled() const {
  std::size_t n = 0;
  for (StreamId id = 0; id < size_; ++id) {
    if (at(id).constraint().has_filter()) ++n;
  }
  return n;
}

}  // namespace asf
