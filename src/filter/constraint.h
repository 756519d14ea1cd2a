#ifndef ASF_FILTER_CONSTRAINT_H_
#define ASF_FILTER_CONSTRAINT_H_

#include <string>
#include <vector>

#include "common/interval.h"
#include "common/types.h"

/// \file
/// Filter constraints as assigned by the server's constraint assignment
/// unit (paper Figure 3). A constraint is either absent ("no filter is
/// installed at a stream, all updates from the stream are reported",
/// paper §3.1) or a closed interval, with the two degenerate interval forms
/// playing named roles in FT-NRP (§5.1.1):
///   [−∞, ∞] — false-positive filter: the stream never reports and is kept
///             in the answer set;
///   [∞, ∞]  — false-negative filter: the stream never reports and is kept
///             out of the answer set.

namespace asf {

/// A stream-side filtering rule.
class FilterConstraint {
 public:
  /// Constructs the "no filter installed" constraint (report everything).
  FilterConstraint() : has_filter_(false), interval_(Interval::Always()) {}

  /// Constructs an interval constraint.
  explicit FilterConstraint(const Interval& interval)
      : has_filter_(true), interval_(interval) {}

  /// No filter installed: every update is reported.
  static FilterConstraint NoFilter() { return FilterConstraint(); }

  /// Interval filter [lo, hi].
  static FilterConstraint Range(const Interval& interval) {
    return FilterConstraint(interval);
  }

  /// The FT-NRP false-positive filter [−∞, ∞].
  static FilterConstraint FalsePositive() {
    return FilterConstraint(Interval::Always());
  }

  /// The FT-NRP false-negative filter [∞, ∞].
  static FilterConstraint FalseNegative() {
    return FilterConstraint(Interval::Never());
  }

  /// True when an interval filter is installed.
  bool has_filter() const { return has_filter_; }

  /// The interval (meaningful only when has_filter()).
  const Interval& interval() const { return interval_; }

  /// True for the [−∞, ∞] constraint: the stream can never cross it, so it
  /// never reports.
  bool IsFalsePositiveFilter() const { return has_filter_ && interval_.all(); }

  /// True for the [∞, ∞] constraint: likewise silent.
  bool IsFalseNegativeFilter() const {
    return has_filter_ && interval_.empty();
  }

  /// True when the constraint can never generate a report (either silent
  /// degenerate form).
  bool IsSilent() const {
    return IsFalsePositiveFilter() || IsFalseNegativeFilter();
  }

  bool operator==(const FilterConstraint& other) const {
    if (has_filter_ != other.has_filter_) return false;
    return !has_filter_ || interval_ == other.interval_;
  }
  bool operator!=(const FilterConstraint& other) const {
    return !(*this == other);
  }

  /// "none", "[lo, hi]", "FP[-inf, inf]" or "FN[empty]".
  std::string ToString() const;

 private:
  bool has_filter_;
  Interval interval_;
};

/// One server→source constraint install: `constraint` for stream `id`.
struct StreamDeploy {
  StreamId id = 0;
  FilterConstraint constraint;
};

/// A query's installs sent as one unit — one message per entry, in entry
/// order. The server sends a whole column this way when it initializes or
/// uninstalls a query (DESIGN.md §9).
using DeployBatch = std::vector<StreamDeploy>;

}  // namespace asf

#endif  // ASF_FILTER_CONSTRAINT_H_
