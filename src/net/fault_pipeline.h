#ifndef ASF_NET_FAULT_PIPELINE_H_
#define ASF_NET_FAULT_PIPELINE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/network_model.h"

/// \file
/// Fault injection over any base delivery model, plus the
/// disruption-tolerant control plane that survives it (DESIGN.md §11).
///
/// The pipeline decorates a base NetworkModel. Updates keep riding the
/// base model's data plane (batching, queueing and latency behave exactly
/// as configured); the fault stages apply at the base model's *egress* —
/// the instant it would hand a wire message to the server — in a fixed
/// order: partition check, loss draw, reorder hold. The control plane the
/// pipeline owns outright:
///
///  * deploys become a retransmitting state machine per (query, stream)
///    channel — sequence numbers, transport acks, per-request timeout
///    with capped exponential backoff (base adapted per link from an
///    RFC 6298 SRTT/RTTVAR estimate over Karn-filtered acks unless a
///    fixed `rto:t` pins it), duplicate suppression at the source,
///    last-writer-wins supersession at the server;
///  * probes stay zero-time RPCs but draw the same loss/partition
///    processes, retry a bounded number of times, and fail over to the
///    server's cached value when the link is down;
///  * at every partition up-edge the sources run a summary-vector
///    reconciliation exchange: each reports its current value (the
///    server refreshes every live query's view) and the server replays
///    still-unacked constraint installs over the reliable handshake.
///
/// Every random decision comes from one decorrelated RNG substream whose
/// draw sites occur in replayed-event order, so a (config, seed) pair
/// fully determines the fault schedule and the serial and sharded engines
/// stay byte-identical under any composite configuration.
namespace asf {

/// RFC 6298 round-trip-time estimator for one control-plane link:
/// SRTT/RTTVAR exponential smoothing (gains 1/8 and 1/4), with Karn's
/// rule applied by the caller — retransmitted exchanges are never
/// sampled, so a retransmit ack can't be mistaken for a fast original.
class RttEstimator {
 public:
  /// Folds in one measurement. The first sample initialises srtt = R,
  /// rttvar = R/2 (RFC 6298 §2.2); later samples smooth.
  void AddSample(double rtt) {
    if (!has_sample_) {
      has_sample_ = true;
      srtt_ = rtt;
      rttvar_ = rtt / 2.0;
      return;
    }
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - rtt);
    srtt_ = 0.875 * srtt_ + 0.125 * rtt;
  }

  bool has_sample() const { return has_sample_; }
  double srtt() const { return srtt_; }
  double rttvar() const { return rttvar_; }

  /// The retransmission timeout the estimate implies:
  /// clamp(srtt + 4·rttvar, min_rto, max_rto). Meaningful only once
  /// has_sample().
  double Rto(double min_rto, double max_rto) const {
    return std::min(max_rto, std::max(min_rto, srtt_ + 4.0 * rttvar_));
  }

 private:
  bool has_sample_ = false;
  double srtt_ = 0;
  double rttvar_ = 0;
};

class FaultPipeline final : public NetworkModel {
 public:
  /// `config` must have HasFaults() or a nonzero rto/comp; `base` is the
  /// delivery model faults are injected into (never exposed directly —
  /// the pipeline forwards its stats).
  FaultPipeline(const NetConfig& config, std::unique_ptr<NetworkModel> base,
                std::uint64_t seed);

  void SendUpdate(StreamId id, Value v, const std::vector<std::size_t>& slots,
                  SimTime now) override;
  void SendDeploy(std::size_t slot, StreamId id,
                  const FilterConstraint& constraint, SimTime now) override;
  bool ControlRpc(StreamId id, SimTime now) override;
  /// Always false: loss draws are per stream and in order.
  bool ControlRpcBatch(std::size_t count, SimTime now) override {
    (void)count;
    (void)now;
    return false;
  }
  std::uint64_t InFlight(std::size_t slot) const override;
  void Finalize(SimTime horizon) override;
  void StartRun(SimTime horizon) override;
  void BindReconcile(ReconcileSink sink) override {
    reconcile_sink_ = std::move(sink);
  }

  NetStats& stats() override { return base_->stats(); }
  const NetStats& stats() const override { return base_->stats(); }

  /// Forwards to the wrapped base model too, so staleness samples taken
  /// at the base's egress land in the same sink.
  void set_obs(obs::NetMetricsSink* sink, obs::Tracer* tracer,
               std::uint16_t ring) override {
    NetworkModel::set_obs(sink, tracer, ring);
    base_->set_obs(sink, tracer, ring);
  }

  /// True when the partition schedule has every link up at `t` (links are
  /// down in [t0,t1), [t2,t3), ...).
  bool LinkUp(SimTime t) const;

 protected:
  void OnBind() override;

 private:
  /// Per-(link, direction) Gilbert-Elliott loss chain; lazily entered at
  /// its stationary distribution on first use.
  struct GeChain {
    bool init = false;
    bool bad = false;
  };

  /// A surviving update wire message held back for bounded reordering.
  /// A message with wire seqno s and hold draw h releases once the link's
  /// latest survivor seqno reaches its `key` = s + h (ties release in
  /// seqno order), so at most k later messages can ever overtake it; what
  /// is still held at the horizon counts as in flight.
  struct Held {
    std::vector<Payload> payloads;
    std::uint64_t crossings = 0;
    std::uint64_t seq = 0;
    std::uint64_t key = 0;
  };

  /// Retransmitting deploy channel, one per (query slot, stream) pair.
  /// `seq` is the last install the server issued, `applied_seq` the last
  /// the source applied; `pending` means the latest install is un-acked
  /// and its retransmit timeout is due at (`rto_at`, `rto_seq`) — the
  /// scheduler key the timer event must dispatch under. At most one timer
  /// event is queued per channel (`timer_armed`, at `timer_at`); it may be
  /// older than the key it serves and re-arms itself there when it fires
  /// (DESIGN.md §11). `sent_at` / `retransmitted` feed the adaptive RTO
  /// estimator: an ack is RTT-sampled only when the current seq was never
  /// retransmitted (Karn's rule). `owner` lets a deploy copy's event reach
  /// the pipeline without capturing it (see Transmit).
  struct Channel {
    FaultPipeline* owner = nullptr;
    std::size_t slot = 0;
    StreamId id = 0;
    std::uint64_t seq = 0;
    std::uint64_t applied_seq = 0;
    FilterConstraint constraint;
    bool pending = false;
    std::uint32_t attempt = 0;
    SimTime rto_at = 0;
    std::uint64_t rto_seq = 0;
    EventId timer = 0;
    SimTime timer_at = 0;
    bool timer_armed = false;
    SimTime sent_at = 0;
    bool retransmitted = false;
  };

  static std::uint64_t ChannelKey(std::size_t slot, StreamId id) {
    return (static_cast<std::uint64_t>(slot) << 32) |
           static_cast<std::uint64_t>(id);
  }

  EgressAction OnUpdateEgress(StreamId id, std::vector<Payload>& payloads,
                              SimTime at);
  void DeliverStashed(StreamId id, Held& held, SimTime at);
  bool LossDraw(std::vector<GeChain>* chains, StreamId id);
  /// One-way control-plane transit time on the base model (0 unless the
  /// base is latency:<d>[:<j>]; jitter draws come from the pipeline RNG).
  SimTime CtlDelay();
  void Transmit(Channel& ch, SimTime now, bool reliable);
  void ArmTimer(Channel& ch, SimTime now);
  /// Queues the channel's timer event at (rto_at, rto_seq).
  void QueueTimer(Channel& ch);
  void OnDeployArrival(Channel& ch, std::uint64_t seq,
                       const FilterConstraint& constraint, SimTime at,
                       bool want_ack);
  void OnDeployAck(Channel& ch, std::uint64_t seq);
  void OnDeployTimeout(Channel& ch, std::uint64_t timer_seq);
  void OnReconnect(SimTime t);

  const NetConfig config_;
  const std::unique_ptr<NetworkModel> base_;
  Rng rng_;
  const double rto_initial_;
  const double rto_cap_;
  /// True when no fixed `rto:t` pins the base and adaptive estimation is
  /// enabled: ArmTimer derives its base from rtt_ once a link has a
  /// sample (DESIGN.md §11).
  const bool rto_adaptive_;
  /// Per-link (stream id) RTT estimators, shared across query slots —
  /// the round trip is a property of the link, not of the channel.
  std::vector<RttEstimator> rtt_;

  std::vector<GeChain> up_;    ///< source→server loss chains
  std::vector<GeChain> down_;  ///< server→source loss chains
  std::vector<std::uint64_t> msg_seq_;  ///< per-link update wire seqno
  /// Per-link reorder stash, sorted by (key, seq).
  std::vector<std::vector<Held>> held_;
  std::vector<std::uint64_t> stash_in_flight_;  ///< per-slot held payloads
  std::uint64_t stash_msgs_ = 0;
  std::uint64_t stash_crossings_ = 0;
  /// Deploy/ack wire copies currently in transit.
  std::uint64_t pending_ctl_wire_ = 0;
  /// Never erased, so scheduled events address a channel by pointer;
  /// reconnect replay sorts the keys it visits.
  std::unordered_map<std::uint64_t, Channel> channels_;
  ReconcileSink reconcile_sink_;
};

}  // namespace asf

#endif  // ASF_NET_FAULT_PIPELINE_H_
