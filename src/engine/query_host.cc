#include "engine/query_host.h"

#include <algorithm>
#include <utility>

#include "engine/protocol_factory.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace asf {
namespace engine_internal {

namespace {
// A transport closure must never touch a view that survived an arena
// rebind; the generation tags make that checkable.
inline void AssertViewFresh(const FilterBank& bank, const FilterArena& arena) {
  (void)bank;
  (void)arena;
  ASF_DCHECK(bank.bound_generation() == arena.generation());
}
}  // namespace

QueryHost::QueryHost(const RunOptions& options, const Binding& binding)
    : options_(options), values_(binding.values), now_(binding.clock),
      events_(binding.events), ring_(binding.trace_ring),
      wall_start_(binding.wall_start) {
  const std::size_t n = options_.source.NumStreams();
  const std::size_t num_arenas = std::max<std::size_t>(1, binding.arenas);
  ASF_CHECK(n > 0);

  // Arena s holds streams {s, s + S, s + 2S, ...}: rows = how many ids
  // below n are congruent to s.
  const DispatchPolicy dispatch = ResolveDispatchPolicy(options_.dispatch);
  for (std::size_t s = 0; s < num_arenas; ++s) {
    arenas_.push_back(std::make_unique<FilterArena>(
        n / num_arenas + (s < n % num_arenas ? 1 : 0)));
    arenas_.back()->SetDispatchPolicy(dispatch);
    arenas_.back()->set_profiler(options_.obs.profiler);
    arena_ptrs_.push_back(arenas_.back().get());
  }
  // Compaction relocations retag the moved column's owner in one place —
  // the arenas evolve in lockstep, so the hook lives on arena 0 only and
  // the other arenas' Release returns are merely cross-checked
  // (RetireSlot).
  arenas_.front()->set_relocation_callback(
      [this](std::size_t from, std::size_t to) {
        const std::size_t owner = column_owner_[from];
        column_owner_[to] = owner;
        slots_[owner]->column = to;
      });

  if (options_.spill.enabled()) {
    spiller_ = QueryStateSpiller::Create(options_.spill);
  }

  // Every source→server update and server→source deploy travels through
  // the delivery model (DESIGN.md §9): inline for instant-equivalent
  // configs, as events on the engine's event scheduler otherwise.
  net_ = MakeNetworkModel(options_.net, options_.seed);
  net_delayed_ = options_.net.DelaysDelivery();
  net_->Bind(
      &events_,
      [this](StreamId id, const NetworkModel::Payload* payloads,
             std::size_t count, SimTime at) {
        OnNetUpdate(id, payloads, count, at);
      },
      [this](std::size_t slot, StreamId id, const FilterConstraint& constraint,
             SimTime at) { OnNetDeploy(slot, id, constraint, at); },
      [this](std::size_t slot, const DeployBatch& batch, SimTime at) {
        OnNetDeployBatch(slot, batch, at);
      });
  net_->BindReconcile([this](SimTime at) { OnNetReconcile(at); });

  // Observability attachment (DESIGN.md §14). Rings below ring_ belong to
  // the engine's other writer threads; the host writes ring_. All hooks
  // are inert — they record quantities the run already computed and never
  // schedule, draw randomness, or block.
  const obs::ObsHooks& obs = options_.obs;
  if (obs.tracer != nullptr) obs.tracer->EnsureRings(ring_ + 1u);
  if (obs.tracer != nullptr || obs.metrics != nullptr) {
    net_->set_obs(obs.metrics != nullptr ? obs.metrics->net_sink() : nullptr,
                  obs.tracer, ring_);
  }
  if (spiller_) spiller_->set_obs(obs.tracer, ring_, obs.profiler, &now_);
}

QueryHost::~QueryHost() = default;

std::size_t QueryHost::AddQuery(const QueryDeployment& deployment) {
  const SimTime start =
      deployment.start < 0 ? options_.query_start : deployment.start;
  return DeployQuery(deployment, start);
}

std::size_t QueryHost::DeployQuery(const QueryDeployment& deployment,
                                   SimTime at) {
  ASF_CHECK_MSG(!ran_, "DeployQuery after Run()");
  ASF_CHECK_MSG(at >= 0 && at < options_.duration,
                "deploy time outside [0, duration)");
  const std::size_t index = slots_.size();
  // Before its deploy event a slot is just a record — the deployment and
  // its lifecycle window. The runtime (filters, server context, RNG,
  // protocol) is wired by the deploy event itself (WireSlot), so resident
  // runtime state scales with the peak live population, not with
  // cumulative deployments (DESIGN.md §13).
  auto slot = std::make_unique<Slot>();
  slot->deployment = deployment;
  slot->index = index;
  slot->deploy_at = at;
  slot->stats.name = deployment.name;
  slots_.push_back(std::move(slot));
  if (deployment.end != kNeverRetire) RetireQuery(index, deployment.end);
  return index;
}

void QueryHost::RetireQuery(std::size_t slot, SimTime at) {
  ASF_CHECK_MSG(!ran_, "RetireQuery after Run()");
  ASF_CHECK(slot < slots_.size());
  ASF_CHECK_MSG(at > slots_[slot]->deploy_at,
                "retire time must follow the deploy time");
  slots_[slot]->retire_at = at;
}

std::vector<LifecycleEvent> QueryHost::LifecycleSchedule() const {
  std::vector<LifecycleEvent> schedule;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const auto slot = static_cast<std::uint32_t>(i);
    schedule.push_back({slots_[i]->deploy_at, 0, slot, true});
    if (slots_[i]->retire_at < options_.duration) {
      schedule.push_back({slots_[i]->retire_at, 0, slot, false});
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const LifecycleEvent& a, const LifecycleEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.deploy != b.deploy) return a.deploy;
              return a.slot < b.slot;
            });
  return schedule;
}

void QueryHost::WireSlot(Slot& slot) {
  const std::size_t index = slot.index;
  // The wires between this query's server context and the sources.
  // Probes and deploys sync/reset this query's filter references only;
  // other queries' filters are untouched (per-query isolation). The bank
  // pointer is stable; its *view* is rebound as the arenas grow and
  // compact, which the generation tag asserts. Probes are blocking
  // zero-time RPCs the network model only observes; deploys route through
  // it and take effect at the source on *delivery* (OnNetDeploy).
  slot.filters = std::make_unique<FilterBank>();  // detached until bound
  FilterBank* bank = slot.filters.get();
  Transport transport;
  transport.probe = [this, bank](StreamId id) -> std::optional<Value> {
    AssertViewFresh(*bank, *arenas_.front());
    // A lost exchange (partition / bounded retransmission exhausted)
    // reports no value; the server context serves its cache instead.
    if (!net_->ControlRpc(id, now_)) return std::nullopt;
    const Value v = values_[id];
    bank->SyncReference(id, v);  // the probed value is now "reported"
    return v;
  };
  transport.probe_all = [this, bank](std::vector<Value>& cache) {
    AssertViewFresh(*bank, *arenas_.front());
    // Nets that may lose an exchange probe stream by stream instead.
    if (!net_->ControlRpcBatch(values_.size(), now_)) return false;
    std::copy(values_.begin(), values_.end(), cache.begin());
    bank->SyncColumn(values_);
    return true;
  };
  transport.region_probe =
      [this, bank](StreamId id, const Interval& region) -> std::optional<Value> {
    AssertViewFresh(*bank, *arenas_.front());
    // A lost region probe is indistinguishable from an out-of-region
    // silence at the server — exactly the conservative reading.
    if (!net_->ControlRpc(id, now_)) return std::nullopt;
    const Value v = values_[id];
    if (!region.Contains(v)) return std::nullopt;
    bank->SyncReference(id, v);
    return v;
  };
  transport.deploy = [this, index](StreamId id,
                                   const FilterConstraint& constraint) {
    net_->SendDeploy(index, id, constraint, now_);
  };
  transport.deploy_batch = [this, index](const DeployBatch& batch) {
    net_->SendDeployBatch(index, batch, now_);
  };
  const QueryDeployment& dep = slot.deployment;
  slot.ctx = std::make_unique<ServerContext>(values_.size(),
                                             std::move(transport),
                                             &slot.stats.messages,
                                             dep.broadcast);
  slot.rng = std::make_unique<Rng>(QuerySlotSeed(options_.seed, index));
  slot.protocol = MakeProtocol(dep.query, dep.protocol, dep.rank_r,
                               dep.fraction, dep.ft, slot.ctx.get(),
                               slot.rng.get());
  // Lets protocols relax their zero-delay belief assertions while
  // messages may be in transit (DESIGN.md §9).
  slot.ctx->set_delayed_delivery(net_delayed_);
}

void QueryHost::BindView(Slot& slot) {
  *slot.filters =
      FilterBank(arena_ptrs_.data(), arena_ptrs_.size(), slot.column,
                 values_.size(), arenas_.front()->generation());
}

void QueryHost::RebindLiveViews() {
  for (const std::size_t owner : column_owner_) BindView(*slots_[owner]);
}

void QueryHost::InstallSlot(std::size_t index) {
  obs::ScopedPhase obs_phase(options_.obs.profiler, obs::Phase::kLifecycle);
  Slot& slot = *slots_[index];
  ASF_CHECK(!slot.live);
  WireSlot(slot);

  // Take the same column in every arena; the arenas evolve in lockstep,
  // so the indices and generations always agree. Growth invalidates every
  // live view (the storage reallocates), so rebind them all; otherwise
  // only the new column needs a view.
  const std::uint64_t generation_before = arenas_.front()->generation();
  slot.column = arenas_.front()->Acquire();
  for (std::size_t s = 1; s < arenas_.size(); ++s) {
    ASF_CHECK(arenas_[s]->Acquire() == slot.column);
  }
  column_owner_.push_back(index);
  ASF_CHECK(column_owner_.size() == arenas_.front()->live());
  slot.live = true;
  if (arenas_.front()->generation() != generation_before) {
    RebindLiveViews();
  } else {
    BindView(slot);
  }
  peak_live_ = std::max(peak_live_, live());

  // The query's sample stream opens now: it sees only updates generated
  // inside its live window.
  slot.answer_sampled_upto = updates_generated_;
  slot.stats.deployed_at = now_;
  ASF_TRACE_EVENT(options_.obs.tracer, ring_, obs::TraceEventType::kDeploy,
                  now_, static_cast<std::uint32_t>(index), 0, live());

  slot.stats.messages.set_phase(MessagePhase::kInit);
  slot.protocol->Initialize(now_);
  slot.stats.messages.set_phase(MessagePhase::kMaintenance);
  const SilentFilterCounts silent = slot.filters->CountSilentFilters();
  slot.stats.fp_filters_installed = silent.false_positive;
  slot.stats.fn_filters_installed = silent.false_negative;
  slot.answer_cur_size = static_cast<double>(slot.protocol->answer().size());
  if (options_.oracle.check_every_update) RunOracle(slot);
}

void QueryHost::RetireSlot(std::size_t index) {
  obs::ScopedPhase obs_phase(options_.obs.profiler, obs::Phase::kLifecycle);
  Slot& slot = *slots_[index];
  ASF_CHECK(slot.live);

  // Uninstall this query's filters: the server tells every stream to drop
  // the constraint (a pass-through deploy), the termination counterpart of
  // the initial installation. Charged as maintenance kFilterDeploy under
  // the query's broadcast model, like any other redeploy. Delivered
  // inline, the uninstall writes no cell (OnNetDeployBatch).
  uninstalling_ = index;
  slot.ctx->DeployAll(FilterConstraint::NoFilter());
  uninstalling_ = kNoSlot;

  // Close the books inside the live window.
  FlushAnswerSamples(slot, updates_generated_);
  slot.stats.retired_at = now_;
  slot.stats.reinits = slot.protocol->reinit_count();
  slot.live = false;

  // Release the column in every arena; the last live column compacts into
  // the hole, the same move everywhere, so arena 0's relocation callback
  // retags the moved owner once and the other arenas' returns are only
  // cross-checked. Rebind every live view against the bumped generation.
  const std::size_t moved = arenas_.front()->Release(slot.column);
  for (std::size_t s = 1; s < arenas_.size(); ++s) {
    ASF_CHECK(arenas_[s]->Release(slot.column) == moved);
  }
  column_owner_.pop_back();
  slot.column = FilterArena::kNoColumn;
  *slot.filters = FilterBank();  // detach: any further access trips checks
  RebindLiveViews();

  ASF_TRACE_EVENT(options_.obs.tracer, ring_, obs::TraceEventType::kRetire,
                  now_, static_cast<std::uint32_t>(index), 0, live());

  // Books are closed and nothing live references the slot's runtime any
  // more: append the record to the spill log and free the hot copies
  // (DESIGN.md §13). The arena column is already gone — the arenas
  // themselves never spill.
  if (spiller_) SpillRetired(slot);
}

void QueryHost::SpillRetired(Slot& slot) {
  ASF_CHECK_MSG(!slot.live, "spill of a live slot");
  ASF_CHECK_MSG(!slot.spilled.valid(), "slot spilled twice");
  slot.spilled = spiller_->Spill(slot.stats);
  slot.stats_resident = false;
  slot.stats = QueryRunStats();
  slot.deployment = QueryDeployment();
  slot.protocol.reset();
  slot.ctx.reset();
  slot.rng.reset();
  slot.filters.reset();
  slot.update_seq_floor.clear();
  slot.update_seq_floor.shrink_to_fit();
}

void QueryHost::RouteCrossings(StreamId id, Value v, SimTime t,
                               const std::vector<std::uint32_t>& columns) {
  // Fired columns map to slot indices *now* (columns move under
  // compaction, slots never do).
  fired_slots_.clear();
  for (const std::uint32_t c : columns) {
    fired_slots_.push_back(column_owner_[c]);
  }
  if (!fired_slots_.empty()) {
    ASF_TRACE_EVENT(options_.obs.tracer, ring_,
                    obs::TraceEventType::kWireSend, t, id, v,
                    fired_slots_.size());
    net_->SendUpdate(id, v, fired_slots_, t);
  }
  if (options_.oracle.check_every_update) AuditLive();
}

void QueryHost::RunOracle(Slot& slot) {
  const QueryDeployment& dep = slot.deployment;
  const OracleCheck check =
      JudgeAnswer(dep.query, dep.protocol, dep.rank_r, dep.fraction, values_,
                  slot.protocol->answer());
  QueryRunStats& out = slot.stats;
  ++out.oracle_checks;
  if (!check.ok) {
    ++out.oracle_violations;
    // Attribute the violation to transit when update payloads for this
    // query are still in flight — the staleness share of the error budget
    // (always zero under instant delivery).
    if (net_->InFlight(slot.index) > 0) ++out.oracle_violations_in_flight;
  }
  out.max_f_plus = std::max(out.max_f_plus, check.f_plus);
  out.max_f_minus = std::max(out.max_f_minus, check.f_minus);
  out.max_worst_rank = std::max(out.max_worst_rank, check.worst_rank);
}

void QueryHost::AuditLive() {
  // Judgments are independent of each other, so live-column order serves
  // as well as slot order.
  for (const std::size_t owner : column_owner_) RunOracle(*slots_[owner]);
}

void QueryHost::OracleSampleTick() {
  AuditLive();
  if (events_.now() + options_.oracle.sample_interval <= options_.duration) {
    events_.ScheduleAfter(options_.oracle.sample_interval,
                          [this] { OracleSampleTick(); });
  }
}

void QueryHost::DeliverUpdate(Slot& slot, StreamId id, Value v, SimTime t) {
  slot.stats.messages.Count(MessageType::kValueUpdate);
  ++slot.stats.updates_reported;
  // The answer can only change while this slot handles the payload: close
  // the run of unchanged samples first (at the pre-delivery size), then
  // sample the new size once. Under instant delivery this reproduces the
  // classic per-fired-update sequence exactly; under delayed delivery a
  // second payload arriving before the next generated update leaves the
  // sample clock alone (one sample per generated update, never more).
  FlushAnswerSamples(slot,
                     updates_generated_ > 0 ? updates_generated_ - 1 : 0);
  slot.protocol->HandleUpdate(id, v, t);
  slot.answer_cur_size = static_cast<double>(slot.protocol->answer().size());
  if (slot.answer_sampled_upto < updates_generated_) {
    slot.stats.answer_size.AddRepeated(slot.answer_cur_size, 1);
    ++slot.answer_sampled_upto;
  }
}

void QueryHost::OnNetUpdate(StreamId id, const NetworkModel::Payload* payloads,
                            std::size_t count, SimTime at) {
  obs::ScopedPhase obs_phase(options_.obs.profiler, obs::Phase::kNetFlush);
  ASF_TRACE_EVENT(options_.obs.tracer, ring_,
                  obs::TraceEventType::kWireDeliver, at, id,
                  count != 0 ? payloads[count - 1].value : 0, count);
  // One invocation = one physical wire message: it serves every query
  // whose filter fired (each still accounts a logical update so
  // per-query costs remain comparable to a single-query run), and under
  // batching a payload may stand for several coalesced crossings.
  ++physical_updates_;
  bool delivered = false;
  for (std::size_t i = 0; i < count; ++i) {
    const NetworkModel::Payload& p = payloads[i];
    Slot& slot = *slots_[p.slot];
    if (!slot.live) {
      // The query retired while the message was in flight; its books are
      // closed and its arena column is gone (DESIGN.md §9).
      net_->stats().dropped_retired += p.crossings;
      continue;
    }
    net_->stats().delivered_crossings += p.crossings;
    if (p.seq != 0) {
      // A reordering link stamped wire seqnos: suppress anything an
      // overtaker already obsoleted for this (query, stream) pair.
      if (slot.update_seq_floor.size() <= id) {
        slot.update_seq_floor.resize(id + 1, 0);
      }
      if (p.seq <= slot.update_seq_floor[id]) {
        net_->stats().suppressed_stale += p.crossings;
        continue;
      }
      slot.update_seq_floor[id] = p.seq;
    }
    DeliverUpdate(slot, id, p.value, at);
    if (net_delayed_) slot.stats.update_delay.Add(at - p.crossed_at);
    delivered = true;
  }
  // Under delayed delivery the per-update audit must also judge at
  // arrival instants — the answer just changed between generated updates.
  // (Inline deliveries are covered by the audit in RouteCrossings.)
  if (net_delayed_ && delivered && options_.oracle.check_every_update) {
    AuditLive();
  }
}

void QueryHost::OnNetDeploy(std::size_t slot_index, StreamId id,
                            const FilterConstraint& constraint, SimTime at) {
  Slot& slot = *slots_[slot_index];
  if (!slot.live) {
    // Retirement already uninstalled the column; drop the stale install.
    ++net_->stats().deploy_dropped_retired;
    ASF_TRACE_EVENT(options_.obs.tracer, ring_, obs::TraceEventType::kWireDrop,
                    at, id, 0, slot_index);
    return;
  }
  (void)at;
  AssertViewFresh(*slot.filters, *arenas_.front());
  // The agent resets the membership reference against its *current* local
  // value (DESIGN.md §4, first bullet) — under delayed delivery that is
  // the value at arrival, not at send. Routed through the bank, so a
  // sharded arena records the touched cell for its epoch's self-healing
  // replay (DESIGN.md §8). Staleness compensation shrinks the installed
  // band by the configured guard margin (DESIGN.md §11).
  slot.filters->Deploy(id, CompensateConstraint(constraint, options_.net.comp),
                       values_[id]);
}

void QueryHost::OnNetDeployBatch(std::size_t slot_index,
                                 const DeployBatch& batch, SimTime at) {
  Slot& slot = *slots_[slot_index];
  if (slot_index == uninstalling_) {
    // A retiring query's uninstall: the Release that follows discards the
    // column's cells, so none is written. The per-stream dirty marks the
    // deploys would leave in the dispatch index are kept, so its rebuild
    // schedule is that of the cell-by-cell uninstall.
    ASF_DCHECK(batch.size() == values_.size());
    for (const auto& arena : arenas_) arena->MarkColumnRedeployed(slot.column);
    return;
  }
  // Inline batches arrive inside InstallSlot, RetireSlot or a live
  // query's reaction.
  ASF_DCHECK(slot.live);
  if (options_.net.comp > 0) {
    // Compensated installs: each entry's band shrinks on its own way in.
    for (const StreamDeploy& d : batch) {
      OnNetDeploy(slot_index, d.id, d.constraint, at);
    }
    return;
  }
  AssertViewFresh(*slot.filters, *arenas_.front());
  // Every agent resets its reference against its current value, as
  // OnNetDeploy per entry would — one pass down the query's column.
  slot.filters->DeployColumn(batch, values_);
}

void QueryHost::OnNetReconcile(SimTime at) {
  // Each reconnecting source reports the data half of its summary vector
  // — its current value — and the server applies the entries its
  // per-query view missed: the filter reference re-syncs for every live
  // query, and values the cache is stale on are delivered as ordinary
  // (charged) reports so the protocol repairs its answer. The deploy half
  // (still-unacked constraint installs) is replayed by the fault pipeline
  // itself over the same handshake (DESIGN.md §11). Slot order: a repair
  // may send, and sends draw the delivery model's randomness.
  net_->stats().reconcile_exchanges += values_.size();
  for (const auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    if (!slot.live) continue;
    for (StreamId id = 0; id < values_.size(); ++id) {
      const Value v = values_[id];
      slot.filters->SyncReference(id, v);
      if (slot.ctx->cached(id) != v) DeliverUpdate(slot, id, v, at);
    }
  }
  if (options_.oracle.check_every_update) AuditLive();
}

void QueryHost::FlushAnswerSamples(Slot& slot, std::uint64_t upto) {
  if (upto > slot.answer_sampled_upto) {
    slot.stats.answer_size.AddRepeated(slot.answer_cur_size,
                                       upto - slot.answer_sampled_upto);
    slot.answer_sampled_upto = upto;
  }
}

void QueryHost::BeginRun() {
  ASF_CHECK_MSG(!ran_, "Run() called twice");
  ASF_CHECK_MSG(!slots_.empty(), "Run() without any deployed query");
  ASF_CHECK(values_.size() == options_.source.NumStreams());
  ran_ = true;

  // Gauges read state the run maintains anyway; they are sampled only at
  // snapshot grid points and cleared before Run returns (the lambdas
  // capture `this`).
  obs::MetricsRegistry* const reg = options_.obs.metrics;
  if (reg == nullptr) return;
  reg->RegisterGauge("updates_generated", [this] {
    return static_cast<double>(updates_generated_);
  });
  reg->RegisterGauge("live_queries",
                     [this] { return static_cast<double>(live()); });
  reg->RegisterGauge("net_crossings", [this] {
    return static_cast<double>(net_->stats().crossings);
  });
  reg->RegisterGauge("net_wire_updates", [this] {
    return static_cast<double>(net_->stats().update_messages);
  });
  reg->RegisterGauge("net_staleness_mean",
                     [this] { return net_->stats().delay.mean(); });
  reg->RegisterGauge("spill_resident_bytes", [this] {
    return spiller_
               ? static_cast<double>(spiller_->Telemetry().pool_resident_bytes)
               : 0.0;
  });
  reg->RegisterGauge("replay_fraction", [this] {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wall_start_)
                               .count();
    return elapsed > 0 ? replay_seconds_ / elapsed : 0.0;
  });
}

void QueryHost::StartTimers() {
  // Periodic oracle sampling, if requested. OracleSampleTick reschedules
  // itself (a plain member function — no self-referential std::function).
  if (options_.oracle.sample_interval > 0) {
    events_.ScheduleAt(std::min(options_.query_start +
                                    options_.oracle.sample_interval,
                                options_.duration),
                       [this] { OracleSampleTick(); });
  }
  net_->StartRun(options_.duration);
}

void QueryHost::EndRun() {
  net_->Finalize(options_.duration);
  for (const std::size_t owner : column_owner_) {
    // Close every live slot's trailing run of unchanged answer-size
    // samples so each has exactly one sample per update generated in its
    // live window. Retired slots closed their books already.
    Slot& slot = *slots_[owner];
    FlushAnswerSamples(slot, updates_generated_);
    slot.stats.reinits = slot.protocol->reinit_count();
    slot.stats.retired_at = options_.duration;
  }
  if (options_.obs.metrics != nullptr) options_.obs.metrics->ClearGauges();
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start_)
                      .count();
}

const QueryRunStats& QueryHost::query_stats(std::size_t i) const {
  ASF_CHECK(i < slots_.size());
  // Fault a spilled record back on demand. The method stays const in
  // spirit — the observable stats are identical, only their storage moves
  // from the spill log to RAM (unique_ptr makes the write representable).
  Slot& slot = *slots_[i];
  if (!slot.stats_resident) {
    ASF_CHECK_MSG(spiller_ != nullptr && slot.spilled.valid(),
                  "non-resident stats without a spilled record");
    slot.stats = spiller_->Fault(slot.spilled);
    slot.stats_resident = true;
  }
  return slot.stats;
}

SpillTelemetry QueryHost::spill_telemetry() const {
  return spiller_ ? spiller_->Telemetry() : SpillTelemetry();
}

DispatchStats QueryHost::dispatch_stats() const {
  DispatchStats stats;
  for (const auto& arena : arenas_) stats += arena->dispatch_stats();
  return stats;
}

RunTotals QueryHost::totals() const {
  RunTotals totals;
  totals.updates_generated = updates_generated_;
  totals.physical_updates = physical_updates_;
  totals.peak_live_queries = peak_live_;
  totals.net = net_->stats();
  totals.dispatch_policy = arenas_.front()->dispatch_policy();
  totals.dispatch = dispatch_stats();
  totals.wall_seconds = wall_seconds_;
  totals.replay_seconds = replay_seconds_;
  totals.spill = spill_telemetry();
  return totals;
}

}  // namespace engine_internal
}  // namespace asf
