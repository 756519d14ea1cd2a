#include "filter/filter_bank.h"

#include "filter/filter_arena.h"

namespace asf {

const Filter FilterBank::at(StreamId id) const {
  ASF_DCHECK(id < size_);
  if (num_arenas_ != 0) {
    return arenas_[id % num_arenas_]->cell(id / num_arenas_, column_);
  }
  return owned_[id];
}

void FilterBank::Deploy(StreamId id, const FilterConstraint& constraint,
                        Value current_value) {
  if (num_arenas_ != 0) {
    arenas_[id % num_arenas_]->Deploy(id / num_arenas_, column_, constraint,
                                      current_value);
    return;
  }
  mutable_at(id).Deploy(constraint, current_value);
}

void FilterBank::DeployColumn(const DeployBatch& batch,
                              const std::vector<Value>& values) {
  if (num_arenas_ != 0) {
    FilterArena::DeployColumn(arenas_, num_arenas_, column_, batch, values);
    return;
  }
  for (const StreamDeploy& d : batch) {
    mutable_at(d.id).Deploy(d.constraint, values[d.id]);
  }
}

void FilterBank::SyncReference(StreamId id, Value current_value) {
  if (num_arenas_ != 0) {
    arenas_[id % num_arenas_]->SyncReference(id / num_arenas_, column_,
                                             current_value);
    return;
  }
  mutable_at(id).SyncReference(current_value);
}

void FilterBank::SyncColumn(const std::vector<Value>& values) {
  ASF_DCHECK(values.size() == size_);
  if (num_arenas_ != 0) {
    FilterArena::SyncColumn(arenas_, num_arenas_, column_, values);
    return;
  }
  for (StreamId id = 0; id < size_; ++id) {
    mutable_at(id).SyncReference(values[id]);
  }
}

SilentFilterCounts FilterBank::CountSilentFilters() const {
  SilentFilterCounts counts;
  if (num_arenas_ != 0) {
    for (std::size_t s = 0; s < num_arenas_; ++s) {
      const SilentFilterCounts part = arenas_[s]->CountSilent(column_);
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
