#ifndef ASF_NET_NETWORK_MODEL_H_
#define ASF_NET_NETWORK_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "filter/constraint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scheduler.h"

/// \file
/// Simulated message delivery between stream sources and the server.
///
/// The paper assumes messages arrive instantaneously inside the event that
/// produced them (DESIGN.md §1); this subsystem makes delivery a
/// first-class, pluggable model so message savings become observable
/// latency/staleness trade-offs. The engines route every source→server
/// update message and every server→source constraint deployment through a
/// NetworkModel, which decides *when* (and, for batching, *how coalesced*)
/// the message reaches the other end — inline for zero-delay models,
/// as scheduler events otherwise. Control-plane request/response exchanges
/// (probes, region probes) are modeled as zero-time RPCs; they are observed
/// for accounting and — under a faulty configuration — may fail after
/// bounded retransmission (DESIGN.md §9 and §11 record the full contract).
///
/// Four base models ship (`MakeNetworkModel`):
///  * InstantNet          — the paper's semantics, byte-identical to the
///                          pre-subsystem engines;
///  * FixedLatencyNet     — per-link constant delay plus optional uniform
///                          jitter, FIFO per link and direction;
///  * BatchedNet          — sources coalesce filter crossings and flush on
///                          a global Δ grid (the paper's natural batching
///                          relaxation: one wire message per dirty source
///                          per window, latest value per query);
///  * BoundedBandwidthNet — per-source uplink FIFO served at a fixed rate,
///                          so bursts induce queueing delay.
///
/// Any base model composes with the *fault stages* of net/fault_pipeline.h
/// — probabilistic loss (i.i.d. or Gilbert-Elliott bursts), bounded
/// reordering, and scheduled partitions — which also turn the control
/// plane into retransmitting state machines (deploy acks + capped
/// exponential backoff, probe retry with cached-value failover, and
/// summary-vector reconciliation at partition up-edges). DESIGN.md §11.

namespace asf {

/// Which delivery model a run uses, plus its parameters. Parsed from the
/// `--net=` spec (`ParseNetSpec`) or filled directly.
struct NetConfig {
  enum class Kind : int {
    kInstant = 0,           ///< deliver inside the producing event
    kFixedLatency = 1,      ///< constant per-link delay + uniform jitter
    kBatched = 2,           ///< coalesce crossings, flush every Δ
    kBoundedBandwidth = 3,  ///< per-source FIFO uplink with service rate
  };

  Kind kind = Kind::kInstant;
  /// kFixedLatency: constant one-way delay per message (time units).
  double latency = 0;
  /// kFixedLatency: extra per-message delay drawn uniformly from
  /// [0, jitter) (deterministic under the run seed).
  double jitter = 0;
  /// kBatched: flush period. Sources flush pending crossings at the next
  /// multiple of delta strictly after the first pending crossing.
  double delta = 0;
  /// kBoundedBandwidth: uplink service rate in messages per time unit
  /// (each message occupies the link for 1/rate).
  double rate = 0;

  // --- Fault stages, composable with any base model (DESIGN.md §11) ---
  /// Per-wire-message drop probability in [0, 1] (`loss:p`). Applies to
  /// update messages, deploy transmissions, deploy acks and probe
  /// exchanges, per direction.
  double loss = 0;
  /// Mean loss-burst length (`loss:p:burst`). 1 = i.i.d. drops; > 1 runs a
  /// per-(link, direction) Gilbert-Elliott chain whose bad state drops
  /// everything, tuned so the stationary drop rate is `loss` and the mean
  /// bad sojourn is `loss_burst` messages.
  double loss_burst = 1;
  /// Bounded out-of-order delivery (`reorder:k`): each surviving update
  /// wire message is held back behind up to k later messages on its link
  /// (hold drawn uniformly from {0..k}); stale payloads are suppressed at
  /// the server via per-link sequence numbers.
  std::uint32_t reorder = 0;
  /// Scheduled link-down windows (`partition:t0,t1,...`), strictly
  /// increasing boundaries: every link is down in [t0,t1), [t2,t3), ...;
  /// an odd count leaves the final window open to the horizon. Messages
  /// and RPCs that hit a down window are dropped; at each up-edge the
  /// sources run a summary-vector reconciliation exchange with the server
  /// unless `norecon` is set.
  std::vector<double> partition;
  /// Deploy retransmission initial timeout (`rto:t[:max]`); 0 = auto
  /// (max(1, 4·(latency+jitter))). Backoff doubles per attempt.
  double rto = 0;
  /// Retransmission backoff cap; 0 = auto (64·initial).
  double rto_max = 0;
  /// Adaptive retransmission timeout (`rto:adaptive[:max]`; on by
  /// default, `rto:fixed[:max]` turns it off). Active only while `rto`
  /// is 0 (an explicit timeout always wins): each link runs an RFC 6298
  /// SRTT/RTTVAR estimator over Karn-filtered deploy-ack round trips, and
  /// once a link has a sample its backoff base becomes
  /// clamp(srtt + 4·rttvar, 1, cap) instead of the conservative
  /// RtoInitial(). Links without a sample keep RtoInitial().
  bool rto_adaptive = true;
  /// Staleness compensation (`comp:g`): every constraint installs at the
  /// source with each finite interval bound pulled inward by g, so
  /// boundary-approaching values report an expected-delay bound early.
  double comp = 0;
  /// Summary-vector reconciliation at partition up-edges (`norecon`
  /// disables it): reconnecting sources report their current values and
  /// the server replays un-acked constraint installs over the handshake.
  bool reconcile = true;

  Status Validate() const;

  /// True when any fault stage is active (the engines then wrap the base
  /// model in a FaultPipeline).
  bool HasFaults() const {
    return loss > 0 || reorder > 0 || !partition.empty();
  }

  /// False when the configured parameters make the model observably
  /// identical to InstantNet (zero latency+jitter, zero Δ, infinite rate,
  /// zero-rate fault stages); such models must deliver inline so runs stay
  /// byte-identical.
  bool DelaysDelivery() const;

  /// The resolved retransmission timeout parameters.
  double RtoInitial() const;
  double RtoMax() const;

  /// Canonical `--net=` spec form ("instant", "latency:5:2", "batch:10",
  /// "bw:0.5", "latency:5+loss:0.1:4+partition:100,200").
  std::string ToString() const;
};

std::string_view NetKindName(NetConfig::Kind kind);

/// Parses a `--net=` spec: stages joined by `+`, at most one base model
/// (`instant`, `latency:<d>[:<jitter>]`, `batch:<delta>`, `bw:<rate>`)
/// plus fault stages `loss:<p>[:<burst>]`, `reorder:<k>`,
/// `partition:<t0>,<t1>[,...]`, `rto:<t>[:<max>]` (or `rto:adaptive[:<max>]`
/// / `rto:fixed[:<max>]`), `comp:<g>`, `norecon`.
/// Malformed specs yield a precise InvalidArgument diagnostic.
Result<NetConfig> ParseNetSpec(const std::string& spec);

/// Run-level delivery accounting, owned by the model. Message *costs*
/// stay in MessageStats (counted once, at server arrival / source
/// install — see DESIGN.md §9); NetStats measures what delivery *did* to
/// them: coalescing, delay, drops, retransmissions.
///
/// Crossings obey the conservation invariant (checked in tests):
///   crossings == delivered_crossings + dropped_loss + dropped_partition
///                + dropped_retired + in_flight_crossings_at_end.
struct NetStats {
  /// Source-side filter crossings offered to the network (one per fired
  /// query per update). Under batching several crossings may coalesce
  /// into one delivered payload.
  std::uint64_t crossings = 0;
  /// Physical source→server wire messages delivered (batch: one per
  /// flush per dirty source).
  std::uint64_t update_messages = 0;
  /// Per-query payloads delivered to the server (== crossings for
  /// non-coalescing models).
  std::uint64_t update_payloads = 0;
  /// Crossings in payloads that reached a live query's server context
  /// (including reordered payloads suppressed as stale on arrival).
  std::uint64_t delivered_crossings = 0;
  /// Server→source constraint installs delivered to sources.
  std::uint64_t deploy_messages = 0;
  /// Control-plane RPC exchanges observed (probes/region probes).
  std::uint64_t control_rpcs = 0;
  /// Update crossings in payloads that arrived after their query retired
  /// and were dropped (the engine's books for that query are closed).
  std::uint64_t dropped_retired = 0;
  /// Constraint installs that arrived after their query retired.
  std::uint64_t deploy_dropped_retired = 0;
  /// Wire messages still undelivered when the run hit its horizon (any
  /// direction, including held reordered messages and in-flight control
  /// traffic).
  std::uint64_t in_flight_at_end = 0;
  /// Update crossings still undelivered at the horizon.
  std::uint64_t in_flight_crossings_at_end = 0;

  // --- Fault stages (zero without a fault pipeline; DESIGN.md §11) ---
  /// Update crossings dropped by the loss process / inside a partition
  /// window.
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
  /// Crossings in delivered payloads suppressed at the server because a
  /// newer payload from the same link had already been applied
  /// (reordering duplicate suppression).
  std::uint64_t suppressed_stale = 0;
  /// Deploy transmissions (first sends + retransmissions), and how they
  /// fared. deploy_dropped counts deploy/ack wire copies lost to
  /// loss/partition.
  std::uint64_t deploy_attempts = 0;
  std::uint64_t deploy_retransmits = 0;
  std::uint64_t deploy_dropped = 0;
  std::uint64_t deploy_acks = 0;
  /// Retransmitted installs the source had already applied (suppressed by
  /// sequence number; still re-acked).
  std::uint64_t deploy_dup_suppressed = 0;
  /// Acks for a superseded or already-acked sequence number, ignored.
  std::uint64_t deploy_stale_acks = 0;
  /// Deploy channels whose latest install was never acked by the horizon.
  std::uint64_t deploy_unacked_at_end = 0;
  /// Probe exchanges re-attempted after a lost request/response, and
  /// probes that exhausted their attempts (or hit a partition) and served
  /// the server's cached value instead.
  std::uint64_t probe_retransmits = 0;
  std::uint64_t probe_failovers = 0;
  /// Partition up-edge summary-vector exchanges (one per link) and the
  /// constraint installs replayed over them.
  std::uint64_t reconcile_exchanges = 0;
  std::uint64_t reconcile_deploys = 0;

  /// Server-side staleness: delivery time minus the (latest coalesced)
  /// crossing time, one sample per delivered payload. Empty for
  /// zero-delay models (staleness is identically zero).
  OnlineStats delay;
  /// BoundedBandwidth only: uplink queue length seen by each enqueued
  /// message (0 = idle link).
  OnlineStats queue_depth;

  /// Crossings coalesced per wire message — 1.0 without batching; the
  /// batching win the Δ sweep measures.
  double MessagesPerFlush() const {
    return update_messages == 0
               ? 0.0
               : static_cast<double>(crossings) /
                     static_cast<double>(update_messages);
  }

  /// One-line human-readable summary.
  std::string ToString() const;
};

/// Delivery model interface. One instance serves one run (models keep
/// per-link state); the engine binds its scheduler and arrival sinks
/// before the first send.
class NetworkModel {
 public:
  /// Per-query payload of an update message arriving at the server.
  struct Payload {
    std::size_t slot = 0;       ///< destination query slot index
    Value value = 0;            ///< value that crossed (latest if coalesced)
    SimTime crossed_at = 0;     ///< when that crossing happened
    std::uint64_t crossings = 1;  ///< crossings coalesced into this payload
    /// Per-link wire sequence number, stamped by the fault pipeline when
    /// reordering is possible (0 otherwise). The server suppresses
    /// payloads whose seq is not newer than the last applied for the
    /// (slot, stream) pair, so its cache never regresses.
    std::uint64_t seq = 0;
  };

  /// One call = one physical wire message arriving at the server, carrying
  /// `count` per-query payloads. The pointer is valid for the call only.
  using UpdateSink = std::function<void(StreamId id, const Payload* payloads,
                                        std::size_t count, SimTime at)>;
  /// One server→source constraint install arriving at stream `id`.
  using DeploySink = std::function<void(std::size_t slot, StreamId id,
                                        const FilterConstraint& constraint,
                                        SimTime at)>;
  /// A whole deploy batch arriving at once, inside the send: what the
  /// deploy sink would see entry by entry, in batch order.
  using DeployBatchSink = std::function<void(
      std::size_t slot, const DeployBatch& batch, SimTime at)>;
  /// Partition-reconnect summary-vector exchange hook the engine binds:
  /// invoked once per up-edge, at that simulated time.
  using ReconcileSink = std::function<void(SimTime at)>;

  /// What an update wire message's final egress decided (fault pipeline).
  enum class EgressAction {
    kDeliver,   ///< proceed: account the delivery and call the sink
    kConsumed,  ///< dropped or held back; the hook owns it from here
  };
  /// Outbound interceptor the fault pipeline installs on its inner base
  /// model: invoked once per update wire message at the instant the model
  /// would deliver it, with a mutable payload vector (so sequence numbers
  /// can be stamped).
  using UpdateEgress =
      std::function<EgressAction(StreamId id, std::vector<Payload>& payloads,
                                 SimTime at)>;

  virtual ~NetworkModel() = default;
  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Wires the model into an engine. `scheduler` is where delayed
  /// deliveries are scheduled (the serial engine's event loop, or the
  /// sharded coordinator's delivery queue). Must be called exactly once,
  /// before any Send*. `on_deploy_batch` is optional: without it, batches
  /// delivered inline reach `on_deploy` entry by entry.
  void Bind(Scheduler* scheduler, UpdateSink on_update, DeploySink on_deploy,
            DeployBatchSink on_deploy_batch = nullptr);

  /// Binds the engine's reconnect-reconciliation handler. Only fault
  /// pipelines with a partition schedule ever invoke it; the base models
  /// ignore it.
  virtual void BindReconcile(ReconcileSink sink) { (void)sink; }

  /// Run-start hook, called by the engine once per run after its
  /// lifecycle events are scheduled and before the first stream event:
  /// models schedule their deterministic timers here (partition
  /// reconnect exchanges), so event FIFO seniority at equal timestamps
  /// matches between the serial and sharded engines.
  virtual void StartRun(SimTime horizon) { (void)horizon; }

  /// Data plane: stream `id` changed to `v` at `now`, crossing the filter
  /// of each query slot in `slots` (ascending, no duplicates). The model
  /// delivers through the update sink — inline before returning for
  /// zero-delay models.
  virtual void SendUpdate(StreamId id, Value v,
                          const std::vector<std::size_t>& slots,
                          SimTime now) = 0;

  /// Control plane, server→source: deliver `constraint` to stream `id` on
  /// behalf of query `slot`.
  virtual void SendDeploy(std::size_t slot, StreamId id,
                          const FilterConstraint& constraint, SimTime now) = 0;

  /// Control plane, server→source: `batch`'s installs on behalf of query
  /// `slot`, sent in batch order at `now`. A model that delivers deploys
  /// inline hands the whole batch to the deploy-batch sink in one call;
  /// every other model sends it entry by entry, as SendDeploy would.
  virtual void SendDeployBatch(std::size_t slot, const DeployBatch& batch,
                               SimTime now) {
    for (const StreamDeploy& d : batch) {
      SendDeploy(slot, d.id, d.constraint, now);
    }
  }

  /// Control-plane request/response exchange (probe/region probe). Zero
  /// simulated time passes (DESIGN.md §9). Returns false when the fault
  /// process lost the exchange — partitioned link, or every bounded
  /// retransmission dropped — in which case the caller serves its cached
  /// value instead (DESIGN.md §11). The lossless base models always
  /// succeed.
  virtual bool ControlRpc(StreamId id, SimTime now) {
    (void)id;
    (void)now;
    ++stats_.control_rpcs;
    return true;
  }

  /// `count` control-plane exchanges sent at once (a probe of every
  /// stream). Returns true, having accounted them as `count` ControlRpc
  /// calls, when no exchange can be lost — the lossless base models.
  /// Returns false, having done nothing, when each exchange draws its own
  /// fate; the caller then makes `count` ControlRpc calls in order.
  virtual bool ControlRpcBatch(std::size_t count, SimTime now) {
    (void)now;
    stats_.control_rpcs += count;
    return true;
  }

  /// Update payloads currently in flight toward query `slot` — what the
  /// oracle consults to attribute a tolerance violation to transit delay.
  virtual std::uint64_t InFlight(std::size_t slot) const {
    return slot < in_flight_.size() ? in_flight_[slot] : 0;
  }

  /// Closes the books at the run horizon: records messages that never
  /// arrived. Call once, after the last event has run.
  virtual void Finalize(SimTime horizon) {
    (void)horizon;
    stats_.in_flight_at_end = pending_wire_;
    stats_.in_flight_crossings_at_end = pending_crossings_;
  }

  virtual NetStats& stats() { return stats_; }
  virtual const NetStats& stats() const { return stats_; }

  /// Installs the fault pipeline's egress interceptor (pipeline-internal;
  /// set before Bind).
  void set_update_egress(UpdateEgress egress) { egress_ = std::move(egress); }

  /// Observability endpoints (DESIGN.md §14): histogram sink for
  /// staleness / queue depth / RTO samples, and the tracer ring wire
  /// drops are recorded on. Null (the default) = off; one branch per
  /// feed site. Engines set this before Run; FaultPipeline overrides to
  /// forward to its wrapped base model as well. All feed sites run on
  /// the model's owning (scheduler) thread.
  virtual void set_obs(obs::NetMetricsSink* sink, obs::Tracer* tracer,
                       std::uint16_t ring) {
    obs_sink_ = sink;
    obs_tracer_ = tracer;
    obs_ring_ = ring;
  }

  /// Pipeline-only: accounts and delivers a wire message the egress hook
  /// consumed earlier (a surviving message the pipeline delivers itself,
  /// or a held reordered message released late). Staleness is sampled
  /// against the actual delivery time `at`.
  void DeliverHeldUpdate(StreamId id, std::vector<Payload>& payloads,
                         SimTime at) {
    AccountAndDeliver(id, payloads, at, /*sample_delay=*/true);
  }

 protected:
  NetworkModel() = default;

  /// Subclass hook run at Bind time (after the sinks are set).
  virtual void OnBind() {}

  /// Final egress of one update wire message: consults the fault
  /// interceptor (if any), then accounts the delivery and hands the
  /// message to the engine. `sample_delay` is false only on the
  /// zero-delay inline path, where staleness is identically zero and no
  /// samples are recorded (byte-identity with the pre-subsystem engines).
  void EmitUpdate(StreamId id, std::vector<Payload>& payloads, SimTime at,
                  bool sample_delay) {
    if (egress_ && egress_(id, payloads, at) == EgressAction::kConsumed) {
      return;
    }
    AccountAndDeliver(id, payloads, at, sample_delay);
  }

  void AddInFlight(std::size_t slot, std::uint64_t n = 1) {
    if (slot >= in_flight_.size()) in_flight_.resize(slot + 1, 0);
    in_flight_[slot] += n;
  }
  void SubInFlight(std::size_t slot) {
    ASF_DCHECK(slot < in_flight_.size() && in_flight_[slot] > 0);
    --in_flight_[slot];
  }

  Scheduler* scheduler_ = nullptr;
  UpdateSink update_sink_;
  DeploySink deploy_sink_;
  DeployBatchSink deploy_batch_sink_;
  NetStats stats_;
  /// Observability endpoints (see set_obs); null = off.
  obs::NetMetricsSink* obs_sink_ = nullptr;
  obs::Tracer* obs_tracer_ = nullptr;
  std::uint16_t obs_ring_ = 0;
  /// Wire messages enqueued but not yet delivered (any direction).
  std::uint64_t pending_wire_ = 0;
  /// Update crossings enqueued but not yet delivered.
  std::uint64_t pending_crossings_ = 0;

 private:
  void AccountAndDeliver(StreamId id, std::vector<Payload>& payloads,
                         SimTime at, bool sample_delay) {
    ++stats_.update_messages;
    stats_.update_payloads += payloads.size();
    if (sample_delay) {
      for (const Payload& p : payloads) stats_.delay.Add(at - p.crossed_at);
      if (obs_sink_ != nullptr) {
        for (const Payload& p : payloads) {
          obs_sink_->staleness->Add(at - p.crossed_at);
        }
      }
    }
    update_sink_(id, payloads.data(), payloads.size(), at);
  }

  UpdateEgress egress_;
  std::vector<std::uint64_t> in_flight_;
};

/// Staleness compensation (DESIGN.md §11): the constraint as installed at
/// the source under guard band `margin` — each finite interval bound
/// pulled inward by `margin`, collapsing to the original midpoint when the
/// bands cross. No-filter and the silent FP/FN forms pass through.
FilterConstraint CompensateConstraint(const FilterConstraint& constraint,
                                      double margin);

/// Builds the model `config` describes. `seed` feeds the model's
/// deterministic randomness (latency jitter, fault draws); models derive
/// decorrelated substreams so protocol RNG consumption is unaffected.
/// Configurations with active fault stages come back wrapped in a
/// FaultPipeline (net/fault_pipeline.h).
std::unique_ptr<NetworkModel> MakeNetworkModel(const NetConfig& config,
                                               std::uint64_t seed);

}  // namespace asf

#endif  // ASF_NET_NETWORK_MODEL_H_
