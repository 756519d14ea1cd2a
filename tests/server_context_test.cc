#include "protocol/server_context.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "filter/filter_arena.h"
#include "net/network_model.h"
#include "net_counters.h"
#include "query_stats_equal.h"
#include "test_harness.h"

namespace asf {
namespace {

TEST(ServerContextTest, CacheStartsCold) {
  TestSystem sys({10, 20, 30});
  EXPECT_EQ(sys.ctx()->num_streams(), 3u);
  EXPECT_EQ(sys.ctx()->cached(0), 0.0);
  EXPECT_EQ(sys.ctx()->cached_time(0), -1.0);
}

TEST(ServerContextTest, ProbeCountsRequestAndResponse) {
  TestSystem sys({10, 20});
  const Value v = sys.ctx()->Probe(1, 5.0);
  EXPECT_EQ(v, 20);
  EXPECT_EQ(sys.ctx()->cached(1), 20);
  EXPECT_EQ(sys.ctx()->cached_time(1), 5.0);
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kProbeRequest),
            1u);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      1u);
  EXPECT_EQ(sys.stats().Total(), 2u);
}

TEST(ServerContextTest, ProbeAllCostsTwoPerStream) {
  TestSystem sys({1, 2, 3, 4});
  sys.ctx()->ProbeAll(0);
  EXPECT_EQ(sys.stats().Total(), 8u);
  for (StreamId id = 0; id < 4; ++id) {
    EXPECT_EQ(sys.ctx()->cached(id), sys.value(id));
  }
}

TEST(ServerContextTest, RegionProbeOnlyRespondsInside) {
  TestSystem sys({100, 500});
  // Stream 0 (value 100) is outside [400, 600]: request counted, no
  // response, cache untouched.
  EXPECT_FALSE(sys.ctx()->RegionProbe(0, Interval(400, 600), 1.0));
  EXPECT_EQ(sys.ctx()->cached(0), 0.0);
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit,
                              MessageType::kRegionProbeRequest),
            1u);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      0u);
  // Stream 1 (value 500) responds and refreshes the cache.
  EXPECT_TRUE(sys.ctx()->RegionProbe(1, Interval(400, 600), 2.0));
  EXPECT_EQ(sys.ctx()->cached(1), 500);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      1u);
}

TEST(ServerContextTest, DeployInstallsAndRecords) {
  TestSystem sys({50});
  const FilterConstraint c = FilterConstraint::Range(Interval(0, 100));
  sys.ctx()->Deploy(0, c);
  EXPECT_EQ(sys.ctx()->deployed(0), c);
  EXPECT_TRUE(sys.filters().at(0).constraint() == c);
  EXPECT_TRUE(sys.filters().at(0).reference_inside());
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kFilterDeploy),
            1u);
}

TEST(ServerContextTest, DeployAllCostsOnePerStream) {
  TestSystem sys({1, 2, 3});
  sys.ctx()->DeployAll(FilterConstraint::FalsePositive());
  EXPECT_EQ(sys.stats().Total(), 3u);
  EXPECT_EQ(sys.filters().CountSilentFilters().false_positive, 3u);
}

TEST(ServerContextTest, RecordReportRefreshesCacheWithoutMessages) {
  TestSystem sys({5});
  sys.ctx()->RecordReport(0, 42, 7.0);
  EXPECT_EQ(sys.ctx()->cached(0), 42);
  EXPECT_EQ(sys.ctx()->cached_time(0), 7.0);
  EXPECT_EQ(sys.stats().Total(), 0u);
}

TEST(ServerContextTest, ProbeSyncsClientFilterReference) {
  TestSystem sys({50});
  sys.ctx()->Deploy(0, FilterConstraint::Range(Interval(0, 100)));
  // Drift out silently is impossible with a range filter; but a probe after
  // deployment must leave the reference consistent with the probed value.
  sys.ctx()->Probe(0, 1.0);
  EXPECT_TRUE(sys.filters().at(0).reference_inside());
}

TEST(ServerContextTest, RegionProbeGroupReturnsResponders) {
  TestSystem sys({100, 500, 450, 900});
  const auto responders =
      sys.ctx()->RegionProbeGroup({0, 1, 2, 3}, Interval(400, 600), 1.0);
  EXPECT_EQ(responders, (std::vector<StreamId>{1, 2}));
  // 4 requests + 2 responses.
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit,
                              MessageType::kRegionProbeRequest),
            4u);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      2u);
}

class BroadcastTestSystem {
 public:
  explicit BroadcastTestSystem(std::vector<Value> initial)
      : values_(std::move(initial)),
        filters_(values_.size()),
        ctx_(values_.size(), MakeTransport(), &stats_,
             BroadcastCostModel::kSingleMessage) {}

  ServerContext* ctx() { return &ctx_; }
  MessageStats& stats() { return stats_; }

 private:
  Transport MakeTransport() {
    Transport t;
    t.probe = [this](StreamId id) { return values_[id]; };
    t.region_probe = [this](StreamId id,
                            const Interval& region) -> std::optional<Value> {
      if (!region.Contains(values_[id])) return std::nullopt;
      return values_[id];
    };
    t.deploy = [this](StreamId id, const FilterConstraint& constraint) {
      filters_.Deploy(id, constraint, values_[id]);
    };
    return t;
  }

  std::vector<Value> values_;
  FilterBank filters_;
  MessageStats stats_;
  ServerContext ctx_;
};

TEST(ServerContextTest, BroadcastModelChargesDeployAllOnce) {
  BroadcastTestSystem sys({1, 2, 3, 4});
  sys.ctx()->DeployAll(FilterConstraint::Range(Interval(0, 10)));
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kFilterDeploy),
            1u);
  // The constraint still reached every stream.
  for (StreamId id = 0; id < 4; ++id) {
    EXPECT_EQ(sys.ctx()->deployed(id),
              FilterConstraint::Range(Interval(0, 10)));
  }
}

TEST(ServerContextTest, BroadcastModelChargesProbeAllRequestOnce) {
  BroadcastTestSystem sys({1, 2, 3, 4});
  sys.ctx()->ProbeAll(0);
  // 1 broadcast request + 4 responses.
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kProbeRequest),
            1u);
  EXPECT_EQ(
      sys.stats().count(MessagePhase::kInit, MessageType::kProbeResponse),
      4u);
  EXPECT_EQ(sys.ctx()->cached(3), 4);
}

TEST(ServerContextTest, BroadcastModelChargesRegionGroupOnce) {
  BroadcastTestSystem sys({100, 500, 450, 900});
  const auto responders =
      sys.ctx()->RegionProbeGroup({0, 1, 2, 3}, Interval(400, 600), 1.0);
  EXPECT_EQ(responders.size(), 2u);
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit,
                              MessageType::kRegionProbeRequest),
            1u);
}

TEST(ServerContextTest, PerRecipientIsTheDefaultModel) {
  TestSystem sys({1, 2, 3});
  EXPECT_EQ(static_cast<int>(sys.ctx()->broadcast_model()),
            static_cast<int>(BroadcastCostModel::kPerRecipient));
  sys.ctx()->DeployAll(FilterConstraint::FalsePositive());
  EXPECT_EQ(sys.stats().count(MessagePhase::kInit, MessageType::kFilterDeploy),
            3u);
}

TEST(ServerContextTest, PhaseAccountingSplitsInitAndMaintenance) {
  TestSystem sys({1, 2});
  sys.ctx()->Probe(0, 0.0);
  sys.stats().set_phase(MessagePhase::kMaintenance);
  sys.ctx()->Probe(1, 1.0);
  EXPECT_EQ(sys.stats().InitTotal(), 2u);
  EXPECT_EQ(sys.stats().MaintenanceTotal(), 2u);
}

/// One query's server context over `n` streams whose filters are column
/// 1 of S lockstep arenas (stream id -> arena id % S, row id / S), probing
/// through a real network model. The transport is wired as the engine
/// wires it (QueryHost::WireSlot), with or without the batched probe_all.
class ArenaProbeSystem {
 public:
  ArenaProbeSystem(const std::string& net, std::size_t shards,
                   BroadcastCostModel broadcast, bool batched,
                   const std::vector<Value>& values)
      : values_(values) {
    auto config = ParseNetSpec(net);
    EXPECT_TRUE(config.ok()) << net;
    net_ = MakeNetworkModel(*config, /*seed=*/17);
    const std::size_t n = values_.size();
    for (std::size_t k = 0; k < shards; ++k) {
      arenas_.push_back(
          std::make_unique<FilterArena>(n / shards + (k < n % shards ? 1 : 0)));
      arenas_.back()->EnableCellTracking(true);
      ptrs_.push_back(arenas_.back().get());
    }
    // Column 0 belongs to another query; this one owns column 1, whose
    // lanes still hold a former tenant's all-covering bounds.
    for (int c = 0; c < 2; ++c) {
      for (const auto& arena : arenas_) arena->Acquire();
    }
    for (const auto& arena : arenas_) {
      for (StreamId row = 0; row < arena->num_streams(); ++row) {
        arena->Deploy(row, 1, FilterConstraint::Range(Interval(-1e9, 1e9)),
                      0);
      }
      arena->Release(1);
      EXPECT_EQ(arena->Acquire(), 1u);
    }
    bank_ = FilterBank(ptrs_.data(), ptrs_.size(), 1, n);
    Transport t;
    t.probe = [this](StreamId id) -> std::optional<Value> {
      ++per_stream_probes_;
      if (!net_->ControlRpc(id, now_)) return std::nullopt;
      bank_.SyncReference(id, values_[id]);
      return values_[id];
    };
    if (batched) {
      t.probe_all = [this](std::vector<Value>& cache) {
        if (!net_->ControlRpcBatch(values_.size(), now_)) return false;
        std::copy(values_.begin(), values_.end(), cache.begin());
        bank_.SyncColumn(values_);
        return true;
      };
    }
    t.region_probe = [](StreamId, const Interval&) -> std::optional<Value> {
      return std::nullopt;
    };
    t.deploy = [this](StreamId id, const FilterConstraint& constraint) {
      bank_.Deploy(id, constraint, values_[id]);
    };
    ctx_ = std::make_unique<ServerContext>(n, std::move(t), &stats_,
                                           broadcast);
  }

  ServerContext* ctx() { return ctx_.get(); }
  std::vector<Value>& values() { return values_; }
  const MessageStats& stats() const { return stats_; }
  const NetStats& net() const { return net_->stats(); }
  std::size_t per_stream_probes() const { return per_stream_probes_; }
  FilterArena& arena(std::size_t s) { return *arenas_[s]; }
  std::size_t shards() const { return arenas_.size(); }

 private:
  std::vector<Value> values_;
  std::unique_ptr<NetworkModel> net_;
  std::vector<std::unique_ptr<FilterArena>> arenas_;
  std::vector<FilterArena*> ptrs_;
  FilterBank bank_;
  MessageStats stats_;
  std::unique_ptr<ServerContext> ctx_;
  SimTime now_ = 0;
  std::size_t per_stream_probes_ = 0;
};

/// The reinit case: column 1 holds range, silent and no-filter cells
/// whose references were taken against older values, and column 0 holds
/// a neighbour's filters. A batched ProbeAll must leave what the
/// per-stream loop leaves: messages, cache and cache times,
/// control_rpcs, every reference bit and every touched list.
TEST(ServerContextTest, BatchedProbeAllMatchesPerStreamProbes) {
  constexpr std::size_t kStreams = 70;
  std::vector<Value> initial(kStreams);
  for (StreamId id = 0; id < kStreams; ++id) {
    initial[id] = static_cast<Value>((id * 37) % 100);
  }
  for (const BroadcastCostModel broadcast :
       {BroadcastCostModel::kPerRecipient,
        BroadcastCostModel::kSingleMessage}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE("broadcast " + std::to_string(static_cast<int>(broadcast)) +
                   " S=" + std::to_string(shards));
      ArenaProbeSystem per_stream("instant", shards, broadcast, false,
                                  initial);
      ArenaProbeSystem batched("instant", shards, broadcast, true, initial);
      for (ArenaProbeSystem* sys : {&per_stream, &batched}) {
        for (StreamId id = 0; id < kStreams; ++id) {
          switch (id % 5) {
            case 0: break;  // no filter installed
            case 1:
              sys->ctx()->Deploy(id, FilterConstraint::FalsePositive());
              break;
            case 2:
              sys->ctx()->Deploy(id, FilterConstraint::FalseNegative());
              break;
            default:
              sys->ctx()->Deploy(
                  id, FilterConstraint::Range(Interval(20, 60 + id % 7)));
          }
          // The neighbour's column keeps its own reference throughout.
          FilterArena& arena = sys->arena(id % shards);
          arena.Deploy(id / shards, 0,
                       FilterConstraint::Range(Interval(0, 50)),
                       sys->values()[id]);
        }
        for (StreamId id = 0; id < kStreams; ++id) {
          sys->values()[id] = static_cast<Value>((id * 53 + 11) % 100);
        }
        for (std::size_t s = 0; s < shards; ++s) sys->arena(s).ClearTouched();
        sys->ctx()->ProbeAll(4.5);
      }
      EXPECT_EQ(per_stream.per_stream_probes(), kStreams);
      EXPECT_EQ(batched.per_stream_probes(), 0u);

      ExpectSameMessages(batched.stats(), per_stream.stats());
      EXPECT_EQ(batched.ctx()->cache(), per_stream.ctx()->cache());
      for (StreamId id = 0; id < kStreams; ++id) {
        EXPECT_EQ(batched.ctx()->cached_time(id),
                  per_stream.ctx()->cached_time(id));
      }
      EXPECT_EQ(batched.net().control_rpcs, per_stream.net().control_rpcs);
      EXPECT_EQ(batched.net().control_rpcs, kStreams);

      std::size_t flipped = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        FilterArena& want = per_stream.arena(s);
        FilterArena& got = batched.arena(s);
        for (StreamId row = 0; row < want.num_streams(); ++row) {
          for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_EQ(got.ReferenceInside(row, c),
                      want.ReferenceInside(row, c))
                << "arena " << s << " row " << row << " column " << c;
          }
          EXPECT_EQ(got.TouchedColumns(row), want.TouchedColumns(row));
          const StreamId id = static_cast<StreamId>(row * shards + s);
          flipped += want.ReferenceInside(row, 1) !=
                     Interval(20, 60 + id % 7).Contains(initial[id]);
        }
      }
      // The new values moved some references, so the sync did work.
      EXPECT_GT(flipped, 0u);
    }
  }
}

/// A fault pipeline draws each probe's loss in stream order, so it
/// refuses the batch and the context probes stream by stream — with the
/// same draws, hence the same messages and counters, as a context that
/// has no batched probe at all.
TEST(ServerContextTest, FaultPipelineProbesStreamByStream) {
  std::vector<Value> values(40);
  for (StreamId id = 0; id < values.size(); ++id) values[id] = id * 2.5;
  for (const char* net : {"loss:0.3", "latency:2+loss:0.2:3"}) {
    SCOPED_TRACE(net);
    ArenaProbeSystem per_stream(net, 3, BroadcastCostModel::kPerRecipient,
                                false, values);
    ArenaProbeSystem batched(net, 3, BroadcastCostModel::kPerRecipient, true,
                             values);
    per_stream.ctx()->ProbeAll(1.0);
    batched.ctx()->ProbeAll(1.0);
    EXPECT_EQ(batched.per_stream_probes(), values.size());
    ExpectSameMessages(batched.stats(), per_stream.stats());
    EXPECT_EQ(batched.ctx()->cache(), per_stream.ctx()->cache());
    const auto counters = NetCounters(batched.net());
    const auto want = NetCounters(per_stream.net());
    for (std::size_t i = 0; i < counters.size(); ++i) {
      EXPECT_EQ(counters[i].second, want[i].second) << counters[i].first;
    }
    // Losses happened: some probes went unanswered.
    EXPECT_LT(batched.stats().count(MessagePhase::kInit,
                                    MessageType::kProbeResponse),
              values.size());
  }
}

TEST(ServerContextTest, OnlyLosslessModelsAcceptABatchedRpc) {
  for (const char* net : {"instant", "latency:3", "batch:5", "bw:10"}) {
    auto config = ParseNetSpec(net);
    ASSERT_TRUE(config.ok()) << net;
    auto model = MakeNetworkModel(*config, 1);
    EXPECT_TRUE(model->ControlRpcBatch(25, 0)) << net;
    EXPECT_EQ(model->stats().control_rpcs, 25u) << net;
  }
  for (const char* net : {"loss:0.1", "partition:5,10", "reorder:2"}) {
    auto config = ParseNetSpec(net);
    ASSERT_TRUE(config.ok()) << net;
    auto model = MakeNetworkModel(*config, 1);
    EXPECT_FALSE(model->ControlRpcBatch(25, 0)) << net;
    EXPECT_EQ(model->stats().control_rpcs, 0u) << net;
  }
}

}  // namespace
}  // namespace asf
