#include "engine/config.h"

namespace asf {

std::string_view ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kNoFilter:
      return "NoFilter";
    case ProtocolKind::kZtNrp:
      return "ZT-NRP";
    case ProtocolKind::kFtNrp:
      return "FT-NRP";
    case ProtocolKind::kRtp:
      return "RTP";
    case ProtocolKind::kZtRp:
      return "ZT-RP";
    case ProtocolKind::kFtRp:
      return "FT-RP";
  }
  return "unknown";
}

RangeQuery QuerySpec::MakeRange() const {
  ASF_CHECK_MSG(type == Type::kRange, "query spec is not a range query");
  return RangeQuery(range_lo, range_hi);
}

RankQuery QuerySpec::MakeRank() const {
  ASF_CHECK_MSG(type == Type::kRank, "query spec is not a rank query");
  switch (rank_kind) {
    case RankKind::kNearest:
      return RankQuery::NearestNeighbors(k, query_point);
    case RankKind::kMax:
      return RankQuery::TopK(k);
    case RankKind::kMin:
      return RankQuery::BottomK(k);
  }
  ASF_CHECK(false);
  return RankQuery::TopK(k);
}

Status QuerySpec::Validate() const {
  switch (type) {
    case Type::kRange:
      if (!(range_lo <= range_hi)) {
        return Status::InvalidArgument("range query needs lo <= hi");
      }
      return Status::OK();
    case Type::kRank:
      if (k == 0) return Status::InvalidArgument("rank query needs k > 0");
      if (rank_kind == RankKind::kNearest &&
          !(query_point == query_point && query_point != kInf &&
            query_point != -kInf)) {
        return Status::InvalidArgument("k-NN query point must be finite");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown query type");
}

Status SourceSpec::Validate() const {
  switch (type) {
    case Type::kRandomWalk:
      return walk.Validate();
    case Type::kTrace:
      if (trace == nullptr) {
        return Status::InvalidArgument("trace source needs a trace");
      }
      return trace->Validate();
    case Type::kCustom:
      if (custom == nullptr) {
        return Status::InvalidArgument("custom source needs a stream set");
      }
      if (custom->size() == 0) {
        return Status::InvalidArgument("custom source has no streams");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown source type");
}

namespace {

/// The shard count must be >= 1 and, above 1, the source partitionable
/// with a merge order that reproduces the serial one.
Status ValidateSharding(std::size_t shards, const SourceSpec& source) {
  if (shards == 0) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (shards == 1) return Status::OK();
  if (source.type == SourceSpec::Type::kCustom) {
    return Status::InvalidArgument(
        "custom stream sources cannot be partitioned across shards");
  }
  if (source.type == SourceSpec::Type::kTrace && source.trace != nullptr) {
    // The sharded merge orders same-timestamp updates from *different*
    // shards by stream id, but the serial engine replays them in trace
    // order — the byte-identical contract would silently break. Reject
    // the ambiguous case up front: records at one timestamp must all
    // live in one shard (same-shard ties keep their trace order in the
    // shard log). Continuous-time sources cannot tie (DESIGN.md §8).
    const std::vector<TraceRecord>& records = source.trace->records;
    for (std::size_t i = 1; i < records.size(); ++i) {
      if (records[i].time == records[i - 1].time &&
          records[i].stream % shards != records[i - 1].stream % shards) {
        return Status::InvalidArgument(
            "trace has same-timestamp records on streams in different "
            "shards; the sharded merge order would diverge from the "
            "serial replay order — use shards=1 for this trace");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status RunOptions::Validate() const {
  ASF_RETURN_IF_ERROR(source.Validate());
  // Written so NaN fails every test: a NaN or infinite time would sail
  // through ordinary comparisons and abort (or never end) inside the
  // engine.
  if (!(duration > 0 && duration < kInf)) {
    return Status::InvalidArgument("duration must be finite and > 0");
  }
  if (!(query_start >= 0 && query_start < duration)) {
    return Status::InvalidArgument("query_start must lie in [0, duration)");
  }
  if (!(oracle.sample_interval >= 0)) {
    return Status::InvalidArgument("oracle sample_interval must be >= 0");
  }
  ASF_RETURN_IF_ERROR(ValidateSharding(shards, source));
  ASF_RETURN_IF_ERROR(net.Validate());
  ASF_RETURN_IF_ERROR(spill.Validate());
  return Status::OK();
}

Status QuerySetup::Validate(std::size_t num_streams) const {
  ASF_RETURN_IF_ERROR(query.Validate());
  const bool is_range = query.type == QuerySpec::Type::kRange;
  switch (protocol) {
    case ProtocolKind::kNoFilter:
      break;  // supports both query classes
    case ProtocolKind::kZtNrp:
    case ProtocolKind::kFtNrp:
      if (!is_range) {
        return Status::InvalidArgument(
            "ZT-NRP/FT-NRP handle range (non-rank-based) queries only");
      }
      break;
    case ProtocolKind::kRtp:
    case ProtocolKind::kZtRp:
    case ProtocolKind::kFtRp:
      if (is_range) {
        return Status::InvalidArgument(
            "RTP/ZT-RP/FT-RP handle rank-based queries only");
      }
      break;
  }
  if (query.type == QuerySpec::Type::kRank && query.k > num_streams) {
    return Status::InvalidArgument(
        "rank requirement k exceeds the stream population");
  }
  if (protocol == ProtocolKind::kFtNrp || protocol == ProtocolKind::kFtRp) {
    ASF_RETURN_IF_ERROR(fraction.Validate());
  }
  return Status::OK();
}

Status SystemConfig::Validate() const {
  ASF_RETURN_IF_ERROR(RunOptions::Validate());
  return QuerySetup::Validate(source.NumStreams());
}

std::unique_ptr<StreamSet> MakeStreams(const SourceSpec& source,
                                       StreamPartition partition) {
  switch (source.type) {
    case SourceSpec::Type::kRandomWalk:
      return std::make_unique<RandomWalkStreams>(source.walk, partition);
    case SourceSpec::Type::kTrace:
      return std::make_unique<TraceStreams>(source.trace, partition);
    case SourceSpec::Type::kCustom:
      return nullptr;  // borrowed, not replicable (see SourceSpec::Custom)
  }
  return nullptr;
}

}  // namespace asf
