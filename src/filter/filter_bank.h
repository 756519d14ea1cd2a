#ifndef ASF_FILTER_FILTER_BANK_H_
#define ASF_FILTER_FILTER_BANK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "filter/filter.h"

/// \file
/// The collection of client-side filters, one per stream source. In the
/// real deployment each filter lives at its stream (paper Figure 3, "agent
/// software installed at each subnet router"); in the simulation they are
/// held together for efficiency, but only the engine's transport layer may
/// touch them, preserving the distributed-system message discipline.
///
/// A bank is one of:
///  * *owning* — its own dense array (standalone tests/tools);
///  * an *arena-routed view*: one query's column across one or more
///    FilterArenas. With a single arena this is the serial engine's
///    stream-major layout; with S arenas the filters are sharded
///    round-robin — stream id lives in arena id % S at row id / S — which
///    is how a query spans the sharded engine's per-shard strips.
///    Mutations (Deploy / SyncReference) route through the arena, which
///    stores each cell once as SoA lanes and bits; at() rebuilds a
///    `Filter` from them by value.
///
/// Views are rebound as queries come and go (see filter/filter_arena.h
/// and engine_internal::QueryHost::InstallSlot / RebindLiveViews).

namespace asf {

class FilterArena;

/// How many filters hold each silent degenerate constraint.
struct SilentFilterCounts {
  std::size_t false_positive = 0;  ///< [−∞, ∞]
  std::size_t false_negative = 0;  ///< [∞, ∞]
};

/// Dense or arena-routed array of per-stream filters.
class FilterBank {
 public:
  /// Detached bank: no storage, size 0. The state of a dynamic query's
  /// bank before its filters are bound into the shared arena (and after
  /// they are released); any access trips the size check.
  FilterBank() = default;

  /// Owning bank: `num_streams` default-constructed filters.
  explicit FilterBank(std::size_t num_streams)
      : owned_(num_streams), size_(num_streams) {}

  /// Arena-routed view of one query's `column` across the `num_arenas`
  /// arenas at `arenas` (stream id -> arena id % S, row id / S). The
  /// pointer array and the arenas outlive the view — the view points at
  /// the owner's arena set rather than copying it; the caller may tag the
  /// view with the storage generation it was bound at (see FilterArena) so
  /// stale views are detectable after a rebind.
  FilterBank(FilterArena* const* arenas, std::size_t num_arenas,
             std::size_t column, std::size_t num_streams,
             std::uint64_t generation = 0)
      : size_(num_streams), generation_(generation), arenas_(arenas),
        num_arenas_(num_arenas), column_(column) {
    ASF_CHECK(arenas_ != nullptr && num_arenas_ > 0);
    for (std::size_t s = 0; s < num_arenas_; ++s) {
      ASF_CHECK(arenas_[s] != nullptr);
    }
  }

  FilterBank(FilterBank&&) = default;
  FilterBank& operator=(FilterBank&&) = default;

  std::size_t size() const { return size_; }

  /// The storage generation this view was bound at (0 for owning and
  /// detached banks). Compared against the engine's rebind counter to
  /// catch use of a view that survived a rebind.
  std::uint64_t bound_generation() const { return generation_; }

  /// A copy of stream `id`'s filter, in every mode (arena views rebuild
  /// it from the arena's lanes, see FilterArena::cell). The copy is const
  /// so a mutating call on it fails to compile instead of silently
  /// updating a temporary; mutate through Deploy / SyncReference, or
  /// mutable_at() on owning banks.
  const Filter at(StreamId id) const;

  /// Mutable access to stream `id`'s filter; owning banks only.
  Filter& mutable_at(StreamId id) {
    ASF_CHECK(num_arenas_ == 0);
    ASF_DCHECK(id < size_);
    return owned_[id];
  }

  /// Installs a constraint on one stream given its current value.
  void Deploy(StreamId id, const FilterConstraint& constraint,
              Value current_value);

  /// Installs every entry of `batch`, each against its stream's current
  /// value `values[id]` — the same end state as Deploy per entry in batch
  /// order, written in one pass over the view's column.
  void DeployColumn(const DeployBatch& batch, const std::vector<Value>& values);

  /// Syncs one stream's membership reference to its current (probed)
  /// value: the probed value becomes the last-reported one.
  void SyncReference(StreamId id, Value current_value);

  /// Syncs every stream's membership reference to `values[id]` — the
  /// same end state and touched marks as SyncReference per stream, in one
  /// pass over the view's column.
  void SyncColumn(const std::vector<Value>& values);

  /// Numbers of filters currently in the [−∞, ∞] (false positive) and
  /// [∞, ∞] (false negative) states, counted in one pass.
  SilentFilterCounts CountSilentFilters() const;

  /// Number of streams with any interval filter installed.
  std::size_t CountInstalled() const;

 private:
  std::vector<Filter> owned_;  ///< empty for views
  std::size_t size_ = 0;
  std::uint64_t generation_ = 0;
  /// The arena set of an arena-routed view (num_arenas_ > 0); not owned.
  FilterArena* const* arenas_ = nullptr;
  std::size_t num_arenas_ = 0;
  std::size_t column_ = 0;
};

}  // namespace asf

#endif  // ASF_FILTER_FILTER_BANK_H_
