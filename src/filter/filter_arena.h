#ifndef ASF_FILTER_FILTER_ARENA_H_
#define ASF_FILTER_FILTER_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/simd.h"
#include "common/types.h"
#include "filter/dispatch.h"
#include "filter/filter.h"
#include "filter/filter_bank.h"
#include "obs/hooks.h"

/// \file
/// Growable stream-major filter storage for a *dynamic* query population,
/// with a structure-of-arrays fast path for batch evaluation.
///
/// The engine lays all live queries' filters out stream-major: the filters
/// of stream i occupy one contiguous strip, so the per-update dispatch
/// tests exactly the live filters of the updated stream no matter how many
/// queries have come and gone.
///
/// Each (stream, column) cell is stored exactly once, structure-of-arrays
/// (DESIGN.md §8): per stream strip, the interval bounds as dense
/// `lower[]` / `upper[]` double lanes plus two bitmask words per 64
/// columns — `ref` (the membership reference) and `always`
/// (no-filter-installed columns, which report every update). The mask
/// words cover the capacity rounded up to 64 columns; the lane stride is
/// that plus one cache line, so strip starts never sit a power of two
/// apart and a walk down one column does not keep landing in the same
/// cache sets. Only the bits are authoritative for no-filter cells and
/// for columns at or beyond live(): their lanes may hold a former
/// tenant's stale bounds, which `always` overrides and the kernel masks
/// off the tail word. cell() and FilterBank::at() rebuild a `Filter` from
/// the lanes and bits by value.
///
/// EvaluateUpdate() is the branch-free crossing kernel over that state:
/// one SIMD sweep computes the inside mask, one word op each derives the
/// fired mask `(inside XOR ref) OR always` and the advanced reference
/// `ref' = inside` for filtered columns — no per-column work at all, no
/// matter how many fire. Every mutation path (Deploy / DeployColumn /
/// SyncReference / growth / compaction) writes the lanes and bits
/// directly, so kernel results always equal running
/// Filter::OnValueChange cell by cell (tests/filter_arena_test.cc).
///
/// Columns are the unit of tenancy. A deploying query Acquires the next
/// free column (always the current live count, keeping live columns dense
/// at 0..live-1) and installs its constraints in one DeployColumn pass; a
/// retiring query Releases its column, and the *last* live column is
/// swap-moved into the hole so the strip stays contiguous. Acquire and
/// the vacate half of Release touch only the column's bit words.
///
/// Every layout change that can invalidate an outstanding view — growth
/// and compaction — bumps `generation()`. FilterBank views carry the
/// generation they were bound at, so the engine can assert view freshness
/// (and knows to rebind all live views) after any lifecycle event.
///
/// For the sharded engine's speculative epochs the arena can additionally
/// track which cells a mutation touched (EnableCellTracking): the merge
/// replay re-evaluates exactly those cells scalar while trusting the
/// speculated fired bits everywhere else (DESIGN.md §8).

namespace asf {

class IntervalIndex;

/// Stream-major, column-tenured filter storage shared by all live queries.
class FilterArena {
 public:
  static constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

  explicit FilterArena(std::size_t num_streams);
  ~FilterArena();

  FilterArena(const FilterArena&) = delete;
  FilterArena& operator=(const FilterArena&) = delete;

  std::size_t num_streams() const { return num_streams_; }

  /// Live (tenanted) columns; they are always the dense prefix 0..live-1.
  std::size_t live() const { return live_; }

  /// Tenancy capacity in columns (doubles on growth); the lanes are
  /// allocated at capacity() rounded up to 64, plus one cache line.
  std::size_t capacity() const { return capacity_; }

  /// Bumped whenever outstanding views may have gone stale (growth or
  /// compaction). Views bound via View() carry the value at bind time.
  std::uint64_t generation() const { return generation_; }

  /// Acquires a fresh column for a deploying query, growing (doubling) the
  /// storage when full. Returns the column index, which is always the
  /// pre-call live(). All acquired filters start in the default
  /// no-filter-installed state; only the column's bit words are written.
  /// Growth bumps generation().
  std::size_t Acquire();

  /// Releases `column` (must be live): the highest live column is
  /// swap-moved into it to keep the live prefix dense, its vacated bit
  /// words are cleared (its lanes are left as they are), and generation() is
  /// bumped. Returns the index of the column that was moved — i.e. its
  /// *old* index, so the caller can retag the tenant that now lives in
  /// `column` — or `column` itself when it was the last live column (no
  /// move happened). Callers caching per-column cursors should prefer the
  /// relocation callback over decoding the return value.
  std::size_t Release(std::size_t column);

  /// Registers the compaction-relocation hook: during a Release that
  /// swap-moves the last live column into the hole, `callback(from, to)`
  /// runs — the tenant formerly at column `from` now lives at `to` — so
  /// owner maps and per-column cursors retag in one place instead of
  /// decoding Release's return value at every call site.
  using RelocationCallback =
      std::function<void(std::size_t from, std::size_t to)>;
  void set_relocation_callback(RelocationCallback callback) {
    relocate_ = std::move(callback);
  }

  /// Cell (id, column) (column must be live), rebuilt by value from the
  /// lanes and bits: `always` is NoFilter(), lanes [+inf, +inf] are
  /// Interval::Never(), other lanes [lo, hi] are Interval(lo, hi) — so a
  /// non-empty Interval(+inf, +inf) reads back as Never() (DESIGN.md §8).
  Filter cell(StreamId id, std::size_t column) const;

  /// Streams of `column` (must be live) holding each silent degenerate
  /// constraint, counted in one pass over the column's lanes.
  SilentFilterCounts CountSilent(std::size_t column) const;

  /// The membership reference of cell (id, column) — the bit the kernel
  /// advances. Meaningful only while a filter is installed, like
  /// Filter::reference_inside().
  bool ReferenceInside(StreamId id, std::size_t column) const {
    ASF_DCHECK(id < num_streams_ && column < live_);
    return Bit(ref_bits_, id, column);
  }

  /// Installs a constraint at cell (id, column) against the stream's
  /// current value, like Filter::Deploy.
  void Deploy(StreamId id, std::size_t column,
              const FilterConstraint& constraint, Value current_value);

  /// Installs every entry of `batch` at `column` of the lockstep arena set
  /// `arenas[0..num_arenas)` (stream id -> arena id % S, row id / S), each
  /// against the stream's current value `values[id]` — one pass with the
  /// end state, index dirty marks and touched marks of Deploy called per
  /// entry in batch order.
  static void DeployColumn(FilterArena* const* arenas, std::size_t num_arenas,
                           std::size_t column, const DeployBatch& batch,
                           const std::vector<Value>& values);

  /// The index accounting of a redeploy of every stream's cell of
  /// `column` that nothing will read — a retiring query's uninstall, whose
  /// cells the Release right after discards: every stream's snapshot
  /// entry for `column` is dirty-marked as Deploy would mark it, and no
  /// cell is written.
  void MarkColumnRedeployed(std::size_t column);

  /// Syncs cell (id, column)'s membership reference to the stream's
  /// current (probed) value, like Filter::SyncReference.
  void SyncReference(StreamId id, std::size_t column, Value current_value);

  /// Syncs every cell of `column` in the lockstep arena set
  /// `arenas[0..num_arenas)` (stream id -> arena id % S, row id / S) to
  /// the stream's current value `values[id]` — one pass with the bits and
  /// touched marks of SyncReference called for every stream.
  static void SyncColumn(FilterArena* const* arenas, std::size_t num_arenas,
                         std::size_t column, const std::vector<Value>& values);

  /// The crossing kernel: evaluates value `v` of stream `id` against all
  /// live columns at once, advancing every filtered column's membership
  /// reference exactly as per-cell Filter::OnValueChange would, and
  /// returns the fired bitmask — bit c of word w set iff column w*64+c
  /// must report the update. Exactly fired_words() words are meaningful;
  /// bits at or beyond live() are never set (the tail word is masked to
  /// the live prefix, whatever the dead lanes hold). The returned pointer stays
  /// valid until the next EvaluateUpdate call. Requires live() > 0 and
  /// finite `v`.
  const std::uint64_t* EvaluateUpdate(StreamId id, Value v);

  /// Words of the fired mask covering the live columns.
  std::size_t fired_words() const { return (live_ + 63) / 64; }

  /// Scalar single-cell evaluation (the sharded merge replay's dirty-cell
  /// path): Filter::OnValueChange on the cell's lanes and bits. Returns
  /// whether the filter fired. Requires finite `v`.
  bool EvaluateColumn(StreamId id, std::size_t column, Value v);

  /// Batched counterpart of EvaluateColumn for the sharded merge replay:
  /// evaluates `v` against exactly the live columns in `columns`
  /// (ascending, deduplicated — TouchedColumns' form), advancing each
  /// filtered column's membership reference like OnValueChange, and fills
  /// `*fired` with the subset that fired, ascending. Columns sharing a
  /// 64-column mask word are evaluated with one SIMD inside-mask and
  /// three word ops; short word runs fall back to the scalar path so
  /// sparse touches never pay a full-word sweep.
  void EvaluateTouched(StreamId id, Value v,
                       const std::vector<std::uint32_t>& columns,
                       std::vector<std::uint32_t>* fired);

  // --- Policy-aware dispatch (DESIGN.md §10) ---

  /// Selects the path DispatchUpdate takes: the SIMD kernel scan
  /// (default), the per-stream stabbing index, or the per-dispatch auto
  /// pick (index once live() reaches `auto_crossover`). Every policy
  /// produces identical fired sets and references; switch any time.
  void SetDispatchPolicy(DispatchPolicy policy,
                         std::size_t auto_crossover = kDefaultAutoCrossover);
  DispatchPolicy dispatch_policy() const { return policy_; }

  /// The engines' per-update entry point: evaluates value `v` of stream
  /// `id` against all live columns under the configured policy, advancing
  /// references exactly like EvaluateUpdate, and fills `*fired` with the
  /// fired columns in ascending order. Also records `v` as the stream's
  /// last dispatched value — the "previous value" the index diffs
  /// against. Requires live() > 0 and finite `v`.
  void DispatchUpdate(StreamId id, Value v,
                      std::vector<std::uint32_t>* fired);

  /// Dispatch-path accounting since construction.
  DispatchStats dispatch_stats() const;

  /// Observability attachment (DESIGN.md §14): index snapshot rebuilds
  /// run under a kIndexRebuild profiler scope. Null (the default) = off;
  /// dispatch results are identical either way.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  /// The stream's last DispatchUpdate value; NaN before the first
  /// dispatch (the index treats NaN as "no diff base" and rebuilds).
  Value known_value(StreamId id) const { return known_values_[id]; }

  /// A view of `column` (must be live) routed through this arena, tagged
  /// with the current generation.
  FilterBank View(std::size_t column) {
    ASF_CHECK(column < live_);
    return FilterBank(&self_, 1, column, num_streams_, generation_);
  }

  // --- Cell mutation tracking (sharded speculative epochs) ---

  /// Starts (true) or stops (false) recording which cells Deploy /
  /// SyncReference touch. Stopping clears the recorded set.
  void EnableCellTracking(bool enabled);

  /// Word `w` of the touched-cell mask of stream `id`'s strip (tracking
  /// mode only).
  std::uint64_t TouchedWord(StreamId id, std::size_t w) const {
    ASF_DCHECK(tracking_ && id < num_streams_ && w < words_);
    return touched_bits_[id * words_ + w];
  }

  /// True if cell (id, column) was touched since tracking started / was
  /// last cleared.
  bool CellTouched(StreamId id, std::size_t column) const {
    return (TouchedWord(id, column / 64) >> (column % 64)) & 1u;
  }

  /// Clears the touched-cell set (start of a new epoch).
  void ClearTouched();

  /// The touched cells of stream `id`'s strip as a sorted, deduplicated
  /// column list (tracking mode only) — the list form the sharded merge
  /// replay walks so its per-update cost is O(spec + touched), not
  /// O(strip words). Lazily compacted; the reference is valid until the
  /// next mutation or ClearTouched.
  const std::vector<std::uint32_t>& TouchedColumns(StreamId id);

 private:
  friend class IntervalIndex;
  /// Mask words per strip for `capacity` columns.
  static std::size_t WordsFor(std::size_t capacity) {
    return (capacity + 63) / 64;
  }
  /// Lanes past the mask words' 64-column multiple: one cache line.
  static constexpr std::size_t kStridePad = 64 / sizeof(double);

  /// Writes `constraint` into cell (id, column) with its membership
  /// reference taken against `current_value`.
  void WriteCell(StreamId id, std::size_t column,
                 const FilterConstraint& constraint, Value current_value);

  /// Re-lays the lanes and bit words out at the stride of capacity_,
  /// carrying every live cell over.
  void Restride();

  /// Closed-interval membership of finite `v` in lane `lane`.
  bool LaneInside(std::size_t lane, Value v) const {
    return lower_[lane] <= v && v <= upper_[lane];
  }

  bool Bit(const std::vector<std::uint64_t>& bits, StreamId id,
           std::size_t column) const {
    return (bits[id * words_ + column / 64] >> (column % 64)) & 1u;
  }

  void SetBit(std::vector<std::uint64_t>& bits, StreamId id,
              std::size_t column, bool value) {
    std::uint64_t& word = bits[id * words_ + column / 64];
    const std::uint64_t mask = std::uint64_t{1} << (column % 64);
    word = value ? (word | mask) : (word & ~mask);
  }

  std::size_t num_streams_;
  std::size_t capacity_ = 0;
  std::size_t live_ = 0;
  std::uint64_t generation_ = 0;
  /// The one-arena set View() routes through (the arena is not movable,
  /// so the address stays valid).
  FilterArena* const self_ = this;

  /// The cells: words_ = WordsFor(capacity_) mask words and
  /// stride_ = 64 * words_ + kStridePad lanes per stream.
  std::size_t stride_ = 0;
  std::size_t words_ = 0;
  std::vector<double> lower_;   ///< lower_[stream * stride_ + column]
  std::vector<double> upper_;
  std::vector<std::uint64_t> ref_bits_;     ///< [stream * words_ + w]
  std::vector<std::uint64_t> always_bits_;  ///< [stream * words_ + w]
  std::vector<std::uint64_t> fired_;        ///< scratch, words_ words

  /// Sets the touched bit of cell (id, column), recording the column in
  /// the stream's touched list on the 0→1 transition.
  void MarkTouched(StreamId id, std::size_t column);

  bool tracking_ = false;
  std::vector<std::uint64_t> touched_bits_;  ///< [stream * words_ + w]
  /// Per-stream touched columns, unsorted with possibly-stale entries
  /// (compaction relocations append; ClearTouched resets); TouchedColumns
  /// compacts lazily against the bitmask.
  std::vector<std::vector<std::uint32_t>> touched_cols_;
  std::vector<std::uint8_t> touched_cols_stale_;  ///< per stream

  // --- Dispatch policy state (DESIGN.md §10) ---
  DispatchPolicy policy_ = DispatchPolicy::kScan;
  std::size_t auto_crossover_ = kDefaultAutoCrossover;
  /// The stabbing index, created on demand by the first non-scan
  /// dispatch; once alive it shadows every mutation via hooks.
  std::unique_ptr<IntervalIndex> index_;
  /// Scan/index dispatch counters (rebuild counts live in the index).
  DispatchStats stats_;
  /// Last dispatched value per stream (NaN = none yet) — the diff base
  /// of the index's crossing query.
  std::vector<Value> known_values_;
  /// Engine hook for compaction moves (see set_relocation_callback).
  RelocationCallback relocate_;

  /// Wall-clock profiler the index rebuild path reports into (may be
  /// null; read by the friend IntervalIndex).
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace asf

#endif  // ASF_FILTER_FILTER_ARENA_H_
