#ifndef ASF_PROTOCOL_SERVER_CONTEXT_H_
#define ASF_PROTOCOL_SERVER_CONTEXT_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/interval.h"
#include "common/types.h"
#include "filter/constraint.h"
#include "net/message_stats.h"

/// \file
/// The server's view of the distributed system (paper Figure 3): a cache of
/// the last value each stream reported, plus the messaging primitives the
/// constraint-assignment unit uses. Every primitive is accounted in
/// MessageStats; protocols have NO other way to observe stream values, so
/// message counts are correct by construction.

namespace asf {

/// The wires. Implemented by the engine against the simulated stream set
/// and filter bank; protocols never see the true values directly.
struct Transport {
  /// Requests the stream's current value (one request + one response). The
  /// implementation must also sync the stream's filter reference, since the
  /// probed value becomes the last-reported one. Returns nullopt when the
  /// delivery model lost the exchange (partitioned link, or bounded
  /// retransmission exhausted — DESIGN.md §11); the context then serves
  /// its cached value.
  std::function<std::optional<Value>(StreamId)> probe;

  /// Probes every stream at once: writes each stream's value into
  /// `values` (one entry per stream) and syncs every filter reference —
  /// what `probe` for each stream in id order does when no exchange is
  /// lost. Optional: it returns false, having done nothing, when the
  /// delivery model may lose an exchange, and the context then probes
  /// stream by stream.
  std::function<bool(std::vector<Value>& values)> probe_all;

  /// Asks one stream "respond with your value if it lies in `region`". One
  /// request always; one response only if the value is inside (in which
  /// case the filter reference is synced).
  std::function<std::optional<Value>(StreamId, const Interval&)> region_probe;

  /// Installs a filter constraint at the stream (one message). The stream
  /// resets its membership reference against its current value locally.
  std::function<void(StreamId, const FilterConstraint&)> deploy;

  /// Installs a batch of constraints, as `deploy` per entry in batch
  /// order, in one call. Optional: without it the context sends a batch
  /// through `deploy` entry by entry.
  std::function<void(const DeployBatch&)> deploy_batch;
};

/// How a server→all-streams transmission is charged (DESIGN.md §3). The
/// paper's counts are consistent with either reading in different places;
/// the default charges one message per recipient (no multicast in the
/// network), and `bench/ablation_broadcast` quantifies the alternative.
enum class BroadcastCostModel : int {
  kPerRecipient = 0,   ///< deploy-all to n streams costs n messages
  kSingleMessage = 1,  ///< a broadcast medium: one message reaches all
};

/// Per-query server state: value cache + counted messaging.
class ServerContext {
 public:
  ServerContext(std::size_t num_streams, Transport transport,
                MessageStats* stats,
                BroadcastCostModel broadcast = BroadcastCostModel::kPerRecipient)
      : transport_(std::move(transport)),
        stats_(stats),
        broadcast_(broadcast),
        cache_(num_streams, 0.0),
        cache_time_(num_streams, -1.0),
        deployed_(num_streams) {
    ASF_CHECK(stats != nullptr);
    ASF_CHECK(transport_.probe != nullptr);
    ASF_CHECK(transport_.region_probe != nullptr);
    ASF_CHECK(transport_.deploy != nullptr);
  }

  std::size_t num_streams() const { return cache_.size(); }

  /// Last value the server has seen from `id` (via update, probe, or
  /// region-probe response). Zero-initialized before any contact.
  Value cached(StreamId id) const {
    ASF_DCHECK(id < cache_.size());
    return cache_[id];
  }

  /// Simulated time the cached value was learned; −1 if never.
  SimTime cached_time(StreamId id) const {
    ASF_DCHECK(id < cache_time_.size());
    return cache_time_[id];
  }

  /// The whole cache, indexed by StreamId (for ranking helpers).
  const std::vector<Value>& cache() const { return cache_; }

  /// Records a value reported BY the stream (kValueUpdate was already
  /// counted by the engine when the filter fired).
  void RecordReport(StreamId id, Value v, SimTime t) {
    ASF_DCHECK(id < cache_.size());
    cache_[id] = v;
    cache_time_[id] = t;
  }

  /// Probes one stream: counts a request + response, refreshes the cache.
  /// When the exchange is lost to the fault process the request is still
  /// charged but no response arrives: the stale cached value is served
  /// (the protocol proceeds, possibly conservatively) — this is what keeps
  /// every protocol terminating under arbitrary loss.
  Value Probe(StreamId id, SimTime t) {
    stats_->Count(MessageType::kProbeRequest);
    const std::optional<Value> v = transport_.probe(id);
    if (!v.has_value()) return cached(id);
    stats_->Count(MessageType::kProbeResponse);
    RecordReport(id, *v, t);
    return *v;
  }

  /// Probes every stream ("request all streams to send their values" —
  /// the first step of every protocol's Initialization phase). Under the
  /// broadcast model the request side costs one message; the n responses
  /// are always individual.
  void ProbeAll(SimTime t) {
    if (transport_.probe_all && transport_.probe_all(cache_)) {
      const bool single = broadcast_ == BroadcastCostModel::kSingleMessage;
      stats_->Count(MessageType::kProbeRequest, single ? 1 : cache_.size());
      stats_->Count(MessageType::kProbeResponse, cache_.size());
      std::fill(cache_time_.begin(), cache_time_.end(), t);
      return;
    }
    if (broadcast_ == BroadcastCostModel::kSingleMessage) {
      stats_->Count(MessageType::kProbeRequest);
      for (StreamId id = 0; id < cache_.size(); ++id) {
        const std::optional<Value> v = transport_.probe(id);
        if (!v.has_value()) continue;
        stats_->Count(MessageType::kProbeResponse);
        RecordReport(id, *v, t);
      }
      return;
    }
    for (StreamId id = 0; id < cache_.size(); ++id) Probe(id, t);
  }

  /// Region probe of one stream: counts a request; counts a response and
  /// refreshes the cache only when the stream's value lies in `region`.
  /// Returns whether it responded.
  bool RegionProbe(StreamId id, const Interval& region, SimTime t) {
    stats_->Count(MessageType::kRegionProbeRequest);
    const std::optional<Value> v = transport_.region_probe(id, region);
    if (!v.has_value()) return false;
    stats_->Count(MessageType::kProbeResponse);
    RecordReport(id, *v, t);
    return true;
  }

  /// Region probe of a group of streams ("the server queries the clients
  /// if their values are within R'", Figure 5 step 4(I)(iii)). Returns the
  /// responders. Under the broadcast model the request side costs one
  /// message for the whole group.
  std::vector<StreamId> RegionProbeGroup(const std::vector<StreamId>& targets,
                                         const Interval& region, SimTime t) {
    if (broadcast_ == BroadcastCostModel::kSingleMessage &&
        !targets.empty()) {
      stats_->Count(MessageType::kRegionProbeRequest);
      std::vector<StreamId> responders;
      for (StreamId id : targets) {
        const std::optional<Value> v = transport_.region_probe(id, region);
        if (!v.has_value()) continue;
        stats_->Count(MessageType::kProbeResponse);
        RecordReport(id, *v, t);
        responders.push_back(id);
      }
      return responders;
    }
    std::vector<StreamId> responders;
    for (StreamId id : targets) {
      if (RegionProbe(id, region, t)) responders.push_back(id);
    }
    return responders;
  }

  /// Deploys a constraint to one stream (one message).
  void Deploy(StreamId id, const FilterConstraint& constraint) {
    ASF_DCHECK(id < deployed_.size());
    stats_->Count(MessageType::kFilterDeploy);
    deployed_[id] = constraint;
    transport_.deploy(id, constraint);
  }

  /// Deploys each entry of `batch` (one message each), in batch order, as
  /// one batch on the wires.
  void DeployEach(const DeployBatch& batch) {
    stats_->Count(MessageType::kFilterDeploy, batch.size());
    for (const StreamDeploy& d : batch) {
      ASF_DCHECK(d.id < deployed_.size());
      deployed_[d.id] = d.constraint;
    }
    SendBatch(batch);
  }

  /// Deploys the same constraint to every stream, in stream order, as one
  /// batch: n messages by default, one under the broadcast model
  /// (DESIGN.md §3).
  void DeployAll(const FilterConstraint& constraint) {
    const bool single = broadcast_ == BroadcastCostModel::kSingleMessage &&
                        !deployed_.empty();
    stats_->Count(MessageType::kFilterDeploy, single ? 1 : deployed_.size());
    DeployBatch batch(deployed_.size(), StreamDeploy{0, constraint});
    for (StreamId id = 0; id < deployed_.size(); ++id) {
      batch[id].id = id;
      deployed_[id] = constraint;
    }
    SendBatch(batch);
  }

  BroadcastCostModel broadcast_model() const { return broadcast_; }

  /// True when the run's delivery model may delay messages (DESIGN.md
  /// §9). Protocols consult this only to *relax* zero-delay belief
  /// assertions — e.g. "a member never reports an in-range value" holds
  /// under instant delivery but not while deploys or updates are in
  /// transit; their recovery paths handle the late messages either way.
  bool delayed_delivery() const { return delayed_delivery_; }
  void set_delayed_delivery(bool delayed) { delayed_delivery_ = delayed; }

  /// The constraint the server last deployed to `id`.
  const FilterConstraint& deployed(StreamId id) const {
    ASF_DCHECK(id < deployed_.size());
    return deployed_[id];
  }

  MessageStats* stats() { return stats_; }

 private:
  void SendBatch(const DeployBatch& batch) {
    if (transport_.deploy_batch) {
      transport_.deploy_batch(batch);
      return;
    }
    for (const StreamDeploy& d : batch) transport_.deploy(d.id, d.constraint);
  }

  Transport transport_;
  MessageStats* stats_;
  BroadcastCostModel broadcast_;
  bool delayed_delivery_ = false;
  std::vector<Value> cache_;
  std::vector<SimTime> cache_time_;
  std::vector<FilterConstraint> deployed_;
};

}  // namespace asf

#endif  // ASF_PROTOCOL_SERVER_CONTEXT_H_
