#include "filter/filter_arena.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/simd.h"
#include "filter/interval_index.h"

namespace asf {

FilterArena::FilterArena(std::size_t num_streams)
    : num_streams_(num_streams),
      known_values_(num_streams,
                    std::numeric_limits<double>::quiet_NaN()) {
  simd::AssertHostSupportsKernel();
}

FilterArena::~FilterArena() = default;

void FilterArena::WriteCell(StreamId id, std::size_t column,
                            const FilterConstraint& constraint,
                            Value current_value) {
  // An interval's canonical degenerate forms vectorize for free: the empty
  // [inf, inf] can contain no finite value, [-inf, inf] contains every
  // finite value — both exactly Interval::Contains for the finite stream
  // values the kernel contract requires. With no filter installed every
  // update reports through the `always` bit whatever the lanes hold, so
  // they are left alone, and the reference bit (0, as Filter::Deploy sets
  // it) is preserved verbatim by the kernel's blend, as OnValueChange
  // leaves it.
  const bool filtered = constraint.has_filter();
  if (filtered) {
    const std::size_t lane = id * stride_ + column;
    lower_[lane] = constraint.interval().lo();
    upper_[lane] = constraint.interval().hi();
  }
  SetBit(always_bits_, id, column, !filtered);
  SetBit(ref_bits_, id, column,
         filtered && constraint.interval().Contains(current_value));
}

void FilterArena::Restride() {
  const std::size_t old_stride = stride_;
  const std::size_t old_words = words_;
  words_ = WordsFor(capacity_);
  stride_ = 64 * words_ + kStridePad;
  // Live columns keep their indices; only the row stride changes. Lanes
  // at or beyond live() are dead (they come up 0), and bits at or beyond
  // live() are 0 in the old words as in the new.
  const auto widen = [this](auto& rows, std::size_t old_width,
                            std::size_t width, std::size_t keep, auto fill) {
    const auto old = std::move(rows);
    rows.assign(num_streams_ * width, fill);
    if (old.empty()) return;
    for (StreamId id = 0; id < num_streams_; ++id) {
      std::copy_n(old.begin() + id * old_width, keep,
                  rows.begin() + id * width);
    }
  };
  widen(lower_, old_stride, stride_, live_, 0.0);
  widen(upper_, old_stride, stride_, live_, 0.0);
  widen(ref_bits_, old_words, words_, old_words, std::uint64_t{0});
  widen(always_bits_, old_words, words_, old_words, std::uint64_t{0});
  if (tracking_) {
    widen(touched_bits_, old_words, words_, old_words, std::uint64_t{0});
  }
  fired_.assign(words_, 0);
}

std::size_t FilterArena::Acquire() {
  if (live_ == capacity_) {
    // Grow by doubling; the lanes only widen at 64-column steps.
    capacity_ = capacity_ == 0 ? 1 : capacity_ * 2;
    ++generation_;  // every outstanding view now points at stale layout
    if (WordsFor(capacity_) != words_) Restride();
  }
  const std::size_t column = live_++;
  // The new tenant has no filter installed anywhere: `always` set and the
  // reference 0 (as Filter::Deploy of no filter leaves it). The lanes keep
  // whatever a former tenant left — no-filter cells never read them.
  const std::size_t w = column / 64;
  const std::uint64_t mask = std::uint64_t{1} << (column % 64);
  for (std::size_t s = 0; s < num_streams_; ++s) {
    always_bits_[s * words_ + w] |= mask;
    ref_bits_[s * words_ + w] &= ~mask;
  }
  // A re-acquired column may shadow stale snapshot entries in the index.
  if (index_) index_->OnColumnChanged(column);
  return column;
}

std::size_t FilterArena::Release(std::size_t column) {
  ASF_CHECK(column < live_);
  constexpr std::size_t kMoveAhead = 8;
  const std::size_t last = live_ - 1;
  const bool move = column != last;
  const std::size_t last_w = last / 64;
  const std::uint64_t last_mask = ~(std::uint64_t{1} << (last % 64));
  // One pass per stream: the last tenant moves into the hole (keeping the
  // live prefix dense), then the vacated last column's bits clear. Its
  // lanes stay as they are: beyond live() the kernel masks them off, and
  // Acquire sets `always` before anything could read them.
  for (std::size_t s = 0; s < num_streams_; ++s) {
    if (move) {
      // The lane rows sit a stride apart, too far for the hardware
      // prefetcher; fetch both cells a few rows ahead.
      if (s + kMoveAhead < num_streams_) {
        const std::size_t ahead = (s + kMoveAhead) * stride_;
        __builtin_prefetch(&lower_[ahead + last]);
        __builtin_prefetch(&upper_[ahead + last]);
        __builtin_prefetch(&lower_[ahead + column], 1);
        __builtin_prefetch(&upper_[ahead + column], 1);
      }
      lower_[s * stride_ + column] = lower_[s * stride_ + last];
      upper_[s * stride_ + column] = upper_[s * stride_ + last];
      SetBit(ref_bits_, s, column, Bit(ref_bits_, s, last));
      SetBit(always_bits_, s, column, Bit(always_bits_, s, last));
    }
    ref_bits_[s * words_ + last_w] &= last_mask;
    always_bits_[s * words_ + last_w] &= last_mask;
    if (tracking_) {
      const bool moved_touched = Bit(touched_bits_, s, last);
      if (move) {
        SetBit(touched_bits_, s, column, moved_touched);
        if (moved_touched) {
          // The moved tenant's touched mark now answers at the hole; the
          // per-stream list must learn the new position (the old entry at
          // `last` goes stale and is compacted away lazily).
          touched_cols_[s].push_back(static_cast<std::uint32_t>(column));
        }
      }
      touched_bits_[s * words_ + last_w] &= last_mask;
    }
  }
  if (move && index_) index_->OnRelease(column, last);
  --live_;
  if (tracking_) {
    // Cleared `last` bits may leave stale list entries behind.
    std::fill(touched_cols_stale_.begin(), touched_cols_stale_.end(),
              std::uint8_t{1});
  }
  // The released column's views (and, after a move, the last column's) are
  // stale either way.
  ++generation_;
  if (move && relocate_) relocate_(last, column);
  return last;
}

Filter FilterArena::cell(StreamId id, std::size_t column) const {
  ASF_DCHECK(id < num_streams_ && column < live_);
  const bool ref = Bit(ref_bits_, id, column);
  if (Bit(always_bits_, id, column)) {
    return Filter(FilterConstraint::NoFilter(), ref);
  }
  // Every empty interval is stored as its canonical [+inf, +inf] lanes.
  const double lo = lower_[id * stride_ + column];
  const double hi = upper_[id * stride_ + column];
  const Interval interval =
      lo == kInf && hi == kInf ? Interval::Never() : Interval(lo, hi);
  return Filter(FilterConstraint::Range(interval), ref);
}

SilentFilterCounts FilterArena::CountSilent(std::size_t column) const {
  ASF_DCHECK(column < live_);
  SilentFilterCounts counts;
  for (StreamId id = 0; id < num_streams_; ++id) {
    // Both silent forms end at +inf; no-filter cells are skipped, their
    // lanes being whatever a former tenant left.
    if (Bit(always_bits_, id, column)) continue;
    const std::size_t lane = id * stride_ + column;
    if (upper_[lane] != kInf) continue;
    if (lower_[lane] == -kInf) ++counts.false_positive;
    if (lower_[lane] == kInf) ++counts.false_negative;
  }
  return counts;
}

void FilterArena::Deploy(StreamId id, std::size_t column,
                         const FilterConstraint& constraint,
                         Value current_value) {
  ASF_DCHECK(id < num_streams_ && column < live_);
  WriteCell(id, column, constraint, current_value);
  if (tracking_) MarkTouched(id, column);
  if (index_) index_->OnDeploy(id, column);
}

void FilterArena::DeployColumn(FilterArena* const* arenas,
                               std::size_t num_arenas, std::size_t column,
                               const DeployBatch& batch,
                               const std::vector<Value>& values) {
  ASF_DCHECK(num_arenas > 0);
  if (num_arenas == 1) {
    FilterArena& arena = *arenas[0];
    for (const StreamDeploy& d : batch) {
      arena.Deploy(d.id, column, d.constraint, values[d.id]);
    }
    return;
  }
  for (const StreamDeploy& d : batch) {
    arenas[d.id % num_arenas]->Deploy(d.id / num_arenas, column, d.constraint,
                                      values[d.id]);
  }
}

void FilterArena::MarkColumnRedeployed(std::size_t column) {
  ASF_DCHECK(column < live_);
  if (index_) index_->OnColumnChanged(column);
}

void FilterArena::SyncReference(StreamId id, std::size_t column,
                                Value current_value) {
  ASF_DCHECK(id < num_streams_ && column < live_);
  // A no-filter cell's reference stays as it is (0), as
  // Filter::SyncReference leaves it; its lanes mean nothing.
  if (!Bit(always_bits_, id, column)) {
    SetBit(ref_bits_, id, column,
           LaneInside(id * stride_ + column, current_value));
  }
  // No index dirty-mark: a reference sync changes no bounds, and the
  // serial engine only syncs at dispatch-coherent values; the sharded
  // replay's syncs land on cells the epoch already dirty-marked via
  // Deploy or that the merge evaluates scalar anyway (DESIGN.md §10).
  if (tracking_) MarkTouched(id, column);
}

const std::uint64_t* FilterArena::EvaluateUpdate(StreamId id, Value v) {
  ASF_DCHECK(id < num_streams_ && live_ > 0);
  ASF_DCHECK(std::isfinite(v));
  const double* lower = lower_.data() + id * stride_;
  const double* upper = upper_.data() + id * stride_;
  std::uint64_t* ref = ref_bits_.data() + id * words_;
  const std::uint64_t* always = always_bits_.data() + id * words_;
  const std::size_t words = fired_words();
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t inside = simd::InsideMask64(v, lower + w * 64,
                                                    upper + w * 64);
    // A filtered column fires on a membership flip; a no-filter column
    // fires always. The advanced reference is the new membership for
    // filtered columns and is preserved for no-filter columns, exactly
    // OnValueChange's contract — three word ops for 64 columns, with no
    // per-column work regardless of how many fire.
    fired_[w] = (inside ^ ref[w]) | always[w];
    ref[w] = (inside & ~always[w]) | (ref[w] & always[w]);
  }
  // Dead columns at or beyond live() have always == ref == 0 but may hold
  // stale lanes: mask the tail word to the live prefix so they neither
  // fire nor gain a reference.
  if (live_ % 64 != 0) {
    const std::uint64_t tail = (std::uint64_t{1} << (live_ % 64)) - 1;
    fired_[words - 1] &= tail;
    ref[words - 1] &= tail;
  }
  return fired_.data();
}

bool FilterArena::EvaluateColumn(StreamId id, std::size_t column, Value v) {
  ASF_DCHECK(id < num_streams_ && column < live_);
  ASF_DCHECK(std::isfinite(v));
  // Filter::OnValueChange over the cell's lanes and bits.
  if (Bit(always_bits_, id, column)) return true;
  const bool inside = LaneInside(id * stride_ + column, v);
  if (inside == Bit(ref_bits_, id, column)) return false;
  SetBit(ref_bits_, id, column, inside);
  return true;
}

void FilterArena::EvaluateTouched(StreamId id, Value v,
                                  const std::vector<std::uint32_t>& columns,
                                  std::vector<std::uint32_t>* fired) {
  ASF_DCHECK(id < num_streams_);
  ASF_DCHECK(std::isfinite(v));
  fired->clear();
  if (columns.empty()) return;
  // Below this run length the per-column scalar path beats a 64-lane
  // inside-mask sweep of the word (scalar builds sweep all 64 lanes).
  constexpr std::size_t kMinWordRun = 4;
  const double* lower = lower_.data() + id * stride_;
  const double* upper = upper_.data() + id * stride_;
  std::uint64_t* ref = ref_bits_.data() + id * words_;
  const std::uint64_t* always = always_bits_.data() + id * words_;
  std::size_t i = 0;
  while (i < columns.size()) {
    const std::size_t w = columns[i] / 64;
    std::size_t run_end = i + 1;
    std::uint64_t m = std::uint64_t{1} << (columns[i] % 64);
    while (run_end < columns.size() && columns[run_end] / 64 == w) {
      m |= std::uint64_t{1} << (columns[run_end] % 64);
      ++run_end;
    }
    if (run_end - i < kMinWordRun) {
      for (; i < run_end; ++i) {
        ASF_DCHECK(columns[i] < live_);
        if (EvaluateColumn(id, columns[i], v)) fired->push_back(columns[i]);
      }
      continue;
    }
    ASF_DCHECK(columns[run_end - 1] < live_);
    const std::uint64_t inside =
        simd::InsideMask64(v, lower + w * 64, upper + w * 64);
    // EvaluateUpdate's word formulas masked to the touched columns: fire
    // on a membership flip or a no-filter column, advance the reference
    // for touched filtered columns only.
    std::uint64_t fired_w = ((inside ^ ref[w]) | always[w]) & m;
    const std::uint64_t filt = m & ~always[w];
    ref[w] = (ref[w] & ~filt) | (inside & filt);
    while (fired_w != 0) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(fired_w));
      fired->push_back(static_cast<std::uint32_t>(w * 64 + b));
      fired_w &= fired_w - 1;
    }
    i = run_end;
  }
}

void FilterArena::EnableCellTracking(bool enabled) {
  tracking_ = enabled;
  if (enabled) {
    touched_bits_.assign(num_streams_ * words_, 0);
    touched_cols_.assign(num_streams_, {});
    touched_cols_stale_.assign(num_streams_, 0);
  } else {
    touched_bits_.clear();
    touched_bits_.shrink_to_fit();
    touched_cols_.clear();
    touched_cols_stale_.clear();
  }
}

void FilterArena::ClearTouched() {
  ASF_DCHECK(tracking_);
  for (std::vector<std::uint32_t>& cols : touched_cols_) cols.clear();
  std::fill(touched_cols_stale_.begin(), touched_cols_stale_.end(),
            std::uint8_t{0});
  if (touched_bits_.empty()) return;  // nothing tracked yet (no columns)
  std::memset(touched_bits_.data(), 0,
              touched_bits_.size() * sizeof(std::uint64_t));
}

void FilterArena::MarkTouched(StreamId id, std::size_t column) {
  std::uint64_t& word = touched_bits_[id * words_ + column / 64];
  const std::uint64_t mask = std::uint64_t{1} << (column % 64);
  if ((word & mask) != 0) return;  // already listed (possibly stale-dup)
  word |= mask;
  touched_cols_[id].push_back(static_cast<std::uint32_t>(column));
  touched_cols_stale_[id] = 1;
}

const std::vector<std::uint32_t>& FilterArena::TouchedColumns(StreamId id) {
  ASF_DCHECK(tracking_ && id < num_streams_);
  std::vector<std::uint32_t>& cols = touched_cols_[id];
  if (touched_cols_stale_[id]) {
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    // Drop entries whose bit is gone (vacated columns) or that fell
    // outside the live prefix.
    cols.erase(std::remove_if(
                   cols.begin(), cols.end(),
                   [&](std::uint32_t c) {
                     return c >= live_ ||
                            ((touched_bits_[id * words_ + c / 64] >>
                              (c % 64)) &
                             1u) == 0;
                   }),
               cols.end());
    touched_cols_stale_[id] = 0;
  }
  return cols;
}

void FilterArena::SetDispatchPolicy(DispatchPolicy policy,
                                    std::size_t auto_crossover) {
  policy_ = policy;
  auto_crossover_ = auto_crossover;
}

void FilterArena::DispatchUpdate(StreamId id, Value v,
                                 std::vector<std::uint32_t>* fired) {
  ASF_DCHECK(id < num_streams_ && live_ > 0);
  ASF_DCHECK(std::isfinite(v));
  fired->clear();
  const bool use_index =
      policy_ == DispatchPolicy::kIndex ||
      (policy_ == DispatchPolicy::kAuto && live_ >= auto_crossover_);
  if (use_index) {
    // Created on first use so pure-scan runs never pay for the hooks;
    // once alive, every mutation keeps it coherent, so policies can
    // switch per dispatch (kAuto does, around the crossover).
    if (!index_) index_ = std::make_unique<IntervalIndex>(this);
    index_->Dispatch(id, known_values_[id], v, fired);
    ++stats_.index_dispatches;
  } else {
    const std::uint64_t* words = EvaluateUpdate(id, v);
    const std::size_t nwords = fired_words();
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t word = words[w];
      while (word != 0) {
        fired->push_back(static_cast<std::uint32_t>(
            w * 64 + static_cast<unsigned>(__builtin_ctzll(word))));
        word &= word - 1;
      }
    }
    ++stats_.scan_dispatches;
  }
  known_values_[id] = v;
}

DispatchStats FilterArena::dispatch_stats() const {
  DispatchStats stats = stats_;
  if (index_) {
    stats.index_rebuilds = index_->rebuilds();
    stats.max_stream_rebuilds = index_->max_stream_rebuilds();
  }
  return stats;
}

}  // namespace asf
