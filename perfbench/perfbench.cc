/// The repository benchmark's measuring program (run.py composes it into
/// one benchmark run; NOTES.md explains the workloads and metrics).
///
/// It drives the serial engine through its public API only —
/// SimulationCore, ExpandChurn, SourceSpec and the obs attachment — over
/// three named workloads, in one of four modes:
///
///   timed  untraced iterations of the workload for --seconds: per-phase
///          wall times, the result totals of every iteration, peak RSS
///   trace  the traced run: one iteration with a handler-timing stream
///          set as the source, bracketed by the stream floor probe
///          (stream generation + event kernel alone), and one with the
///          phase profiler attached
///   audit  replica 0 once, untimed, with oracle sampling and spill off
///   probe  layer-isolation probes at the workload's own sizes:
///          SelectFilterHolders and the FilterArena column lifecycle
///
///   asf_perfbench <mode> --workload=<name> --seed=<n> [--seconds=<s>]
///                 [--spill-dir=<dir>] [--scale=<f>]
///
/// Each mode prints one JSON object on stdout. Spans and timings are taken
/// from outside the engine: this file adds no trace point to the library.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/interval.h"
#include "common/rng.h"
#include "engine/churn.h"
#include "engine/sim_core.h"
#include "filter/filter_arena.h"
#include "metrics/provenance.h"
#include "obs/profiler.h"
#include "protocol/heuristics.h"
#include "sim/scheduler.h"
#include "stream/random_walk.h"

namespace asf {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  ASF_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ------------------------------------------------------------- workloads

enum class Kind { kStaticRange, kChurnRange, kKnnLossy };

/// One named workload. Tolerances and query shapes are fixed here; the
/// seed (a benchmark argument) drives the streams, the churn schedule and
/// the protocol and network randomness.
///
/// A workload is `replicas` independent simulations of one configuration,
/// replica j under seed ReplicaSeed(seed, j). Message costs and run times
/// differ from seed to seed by more than from run to run; summing over
/// replicas keeps one seed's figures close to another's.
struct Workload {
  const char* name;
  Kind kind;
  std::size_t streams;
  SimTime duration;
  std::size_t replicas;
  const char* net;  ///< ParseNetSpec form
  bool spill;       ///< timed and traced runs spill retired query state
};

constexpr Workload kWorkloads[] = {
    {"static_range", Kind::kStaticRange, 10000, 1500, 2, "instant", false},
    {"churn_range", Kind::kChurnRange, 2000, 1000, 4, "instant", true},
    {"knn_lossy", Kind::kKnnLossy, 2000, 300, 8, "latency:4+loss:0.05:3",
     false},
};

std::uint64_t ReplicaSeed(std::uint64_t seed, std::size_t replica) {
  return MixSeed(seed, replica);
}

constexpr double kEps = 0.3;             // FT-NRP ε+ = ε−
constexpr double kRangeLo = 400;         // static_range query
constexpr double kRangeHi = 600;
constexpr double kChurnArrivalRate = 1;  // churn_range arrivals per unit
constexpr double kChurnLifetime = 250;   // churn_range mean lifetime
constexpr std::size_t kKnnK = 20;        // knn_lossy RTP query
constexpr std::size_t kKnnR = 5;
constexpr double kKnnPoint = 500;
/// Simulated-time period of the audit run's oracle sampling.
constexpr SimTime kOracleInterval = 20;

RandomWalkConfig WalkConfig(const Workload& w, std::uint64_t seed) {
  RandomWalkConfig walk;
  walk.num_streams = w.streams;
  walk.seed = seed;
  return walk;
}

/// The workload's query deployments. For churn_range this is the churn
/// expansion (the only non-trivial part of the set-up it times).
std::vector<QueryDeployment> MakeDeployments(const Workload& w,
                                             std::uint64_t seed) {
  QueryDeployment dep;
  switch (w.kind) {
    case Kind::kStaticRange:
      dep.name = "range";
      dep.query = QuerySpec::Range(kRangeLo, kRangeHi);
      dep.protocol = ProtocolKind::kFtNrp;
      dep.fraction = {kEps, kEps};
      return {dep};
    case Kind::kKnnLossy:
      dep.name = "knn";
      dep.query = QuerySpec::Knn(kKnnK, kKnnPoint);
      dep.protocol = ProtocolKind::kRtp;
      dep.rank_r = kKnnR;
      return {dep};
    case Kind::kChurnRange: {
      ChurnSpec spec;
      spec.arrival_rate = kChurnArrivalRate;
      spec.mean_lifetime = kChurnLifetime;
      spec.seed = seed;
      ChurnMixEntry entry;
      entry.protocol = ProtocolKind::kFtNrp;
      entry.eps_plus = kEps;
      entry.eps_minus = kEps;
      spec.mix.push_back(entry);
      return ExpandChurn(spec, w.duration).value();
    }
  }
  return {};
}

// ---------------------------------------------------------- result totals

/// FNV-1a over 64-bit words.
class Hasher {
 public:
  void Add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// What a run computed, reduced to exact integers: the totals every output
/// check compares, plus a hash over each query's full outcome. Oracle
/// observations are kept apart (only the audit run samples the oracle).
struct Totals {
  std::uint64_t queries = 0;
  std::uint64_t peak_live = 0;
  std::uint64_t updates_generated = 0;
  std::uint64_t physical_updates = 0;
  std::uint64_t maint_logical = 0;
  /// Shared update messages + every query's non-update maintenance
  /// (MultiQueryResult::PhysicalMaintenanceTotal's definition).
  std::uint64_t maint_physical = 0;
  std::uint64_t init_msgs = 0;
  std::uint64_t maint_updates = 0;
  std::uint64_t maint_probes = 0;  ///< plain + region probe requests
  std::uint64_t maint_deploys = 0;
  std::uint64_t updates_reported = 0;
  std::uint64_t reinits = 0;
  std::uint64_t query_hash = 0;
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_violations = 0;
};

/// Result assembly: reads every query's outcome back from the core
/// (faulting spilled records back in) and folds it into Totals.
Totals Assemble(const SimulationCore& core) {
  Totals t;
  Hasher hash;
  t.queries = core.num_queries();
  for (std::size_t i = 0; i < core.num_queries(); ++i) {
    const QueryRunStats& q = core.query_stats(i);
    const MessageStats& m = q.messages;
    const std::uint64_t maint = m.MaintenanceTotal();
    const std::uint64_t maint_updates =
        m.count(MessagePhase::kMaintenance, MessageType::kValueUpdate);
    t.maint_logical += maint;
    t.maint_physical += maint - maint_updates;
    t.maint_updates += maint_updates;
    t.init_msgs += m.InitTotal();
    t.maint_probes +=
        m.count(MessagePhase::kMaintenance, MessageType::kProbeRequest) +
        m.count(MessagePhase::kMaintenance, MessageType::kRegionProbeRequest);
    t.maint_deploys +=
        m.count(MessagePhase::kMaintenance, MessageType::kFilterDeploy);
    t.updates_reported += q.updates_reported;
    t.reinits += q.reinits;
    t.oracle_checks += q.oracle_checks;
    t.oracle_violations += q.oracle_violations;
    for (int p = 0; p < kNumMessagePhases; ++p) {
      for (int ty = 0; ty < kNumMessageTypes; ++ty) {
        hash.Add(m.count(static_cast<MessagePhase>(p),
                         static_cast<MessageType>(ty)));
      }
    }
    hash.Add(q.updates_reported);
    hash.Add(q.reinits);
    hash.Add(static_cast<std::uint64_t>(q.fp_filters_installed));
    hash.Add(static_cast<std::uint64_t>(q.fn_filters_installed));
    hash.Add(q.answer_size.count());
    hash.Add(q.answer_size.mean());
    hash.Add(q.deployed_at);
    hash.Add(q.retired_at);
  }
  t.physical_updates = core.physical_updates();
  t.maint_physical += t.physical_updates;
  t.updates_generated = core.updates_generated();
  t.peak_live = core.peak_live_queries();
  t.query_hash = hash.value();
  return t;
}

// ------------------------------------------------------------------ JSON

/// Minimal JSON object writer for the one-object-per-mode output.
class Json {
 public:
  Json& Int(const char* key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return Raw(key, buf);
  }
  Json& Str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    quoted += '"';
    return Raw(key, quoted);
  }
  Json& Raw(const char* key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_.append("\"").append(key).append("\":").append(json);
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A JSON array of already-encoded elements.
std::string JoinArray(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (const std::string& e : elements) {
    if (out.size() > 1) out += ',';
    out += e;
  }
  out += ']';
  return out;
}

std::string NumArray(const std::vector<double>& values) {
  std::vector<std::string> elements;
  for (const double v : values) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    elements.emplace_back(buf);
  }
  return JoinArray(elements);
}

std::string TotalsJson(const Totals& t) {
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016" PRIx64, t.query_hash);
  return Json()
      .Int("queries", t.queries)
      .Int("peak_live", t.peak_live)
      .Int("updates_generated", t.updates_generated)
      .Int("physical_updates", t.physical_updates)
      .Int("maint_logical", t.maint_logical)
      .Int("maint_physical", t.maint_physical)
      .Int("init_msgs", t.init_msgs)
      .Int("maint_updates", t.maint_updates)
      .Int("maint_probes", t.maint_probes)
      .Int("maint_deploys", t.maint_deploys)
      .Int("updates_reported", t.updates_reported)
      .Int("reinits", t.reinits)
      .Str("query_hash", hash)
      .str();
}

std::string NetJson(const NetStats& n) {
  return Json()
      .Int("crossings", n.crossings)
      .Int("update_messages", n.update_messages)
      .Int("deploy_messages", n.deploy_messages)
      .Int("delivered_crossings", n.delivered_crossings)
      .Int("dropped_loss", n.dropped_loss)
      .Int("dropped_partition", n.dropped_partition)
      .Int("dropped_retired", n.dropped_retired)
      .Int("in_flight_crossings_at_end", n.in_flight_crossings_at_end)
      .Int("in_flight_at_end", n.in_flight_at_end)
      .Int("deploy_retransmits", n.deploy_retransmits)
      .Int("probe_retransmits", n.probe_retransmits)
      .Int("probe_failovers", n.probe_failovers)
      .Num("staleness_mean", n.delay.mean())
      .str();
}

std::string ProvenanceJson() {
  Json json;
  for (const auto& [key, value] : BuildProvenance()) {
    json.Str(key.c_str(), value);
  }
#if defined(__clang__)
  json.Str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  json.Str("compiler", std::string("gcc ") + __VERSION__);
#else
  json.Str("compiler", "unknown");
#endif
  json.Int("hardware_threads", std::thread::hardware_concurrency());
  return json.str();
}

// ------------------------------------------------------------- iteration

/// A StreamSet that forwards a RandomWalkStreams population unchanged and
/// times calls into the engine's update handler. Passed to the engine
/// through SourceSpec::Custom, so the run's values, counts and results are
/// those of the plain walk source. Every kSampleEvery-th call is timed and
/// the total scaled up: two clock reads per update would otherwise cost
/// about as much as a cheap update itself.
class HandlerTimedStreams : public StreamSet {
 public:
  static constexpr std::uint64_t kSampleEvery = 16;

  explicit HandlerTimedStreams(const RandomWalkConfig& config)
      : StreamSet(config.num_streams), inner_(config) {
    for (StreamId id = 0; id < size(); ++id) {
      SetInitialValue(id, inner_.value(id));
    }
    inner_.set_update_handler([this](StreamId id, Value v, SimTime t) {
      if (++calls_ % kSampleEvery != 0) {
        ApplyUpdate(id, v, t);
        return;
      }
      const Clock::time_point start = Clock::now();
      ApplyUpdate(id, v, t);
      sampled_seconds_ += Seconds(start, Clock::now());
      ++sampled_;
    });
  }
  // The inner set's handler holds `this`.
  HandlerTimedStreams(const HandlerTimedStreams&) = delete;
  HandlerTimedStreams& operator=(const HandlerTimedStreams&) = delete;

  void Start(Scheduler* scheduler, SimTime horizon) override {
    inner_.Start(scheduler, horizon);
  }

  /// Estimated seconds inside the engine's handler over all calls.
  double handler_seconds() const {
    return sampled_ == 0 ? 0.0
                         : sampled_seconds_ * static_cast<double>(calls_) /
                               static_cast<double>(sampled_);
  }

 private:
  RandomWalkStreams inner_;
  std::uint64_t calls_ = 0;
  std::uint64_t sampled_ = 0;
  double sampled_seconds_ = 0;
};

/// How one iteration is run beyond the workload itself.
struct IterationSetup {
  std::string spill_dir;          ///< empty = spill off
  SimTime oracle_interval = 0;    ///< 0 = no oracle sampling
  obs::Profiler* profiler = nullptr;
  bool time_handler = false;      ///< source through HandlerTimedStreams
};

/// One benchmark-side span: a call into one layer, timed from outside.
struct Span {
  const char* name;
  double start_s;  ///< from the iteration's start
  double dur_s;
};

struct Iteration {
  double churn_expand_s = 0;  ///< building the deployment schedule
  double construct_s = 0;     ///< SimulationCore construction
  double deploy_s = 0;        ///< AddQuery for every deployment
  double run_s = 0;           ///< SimulationCore::Run
  double assembly_s = 0;      ///< reading every query's outcome back
  double handler_s = 0;       ///< time_handler only
  std::uint64_t stream_updates = 0;  ///< every value change the source made
  Totals totals;
  NetStats net;
  DispatchStats dispatch;
  SpillTelemetry spill;
  std::vector<Span> spans;

  double setup_s() const { return churn_expand_s + construct_s + deploy_s; }
  double total_s() const { return setup_s() + run_s + assembly_s; }
};

/// Set-up and the objects it produced, run or not.
struct Prepared {
  std::unique_ptr<HandlerTimedStreams> timed_streams;
  std::unique_ptr<SimulationCore> core;
  Clock::time_point start;
  Clock::time_point expanded, constructed, deployed;
};

Prepared Prepare(const Workload& w, std::uint64_t seed, const NetConfig& net,
                 const IterationSetup& setup) {
  Prepared p;
  p.start = Clock::now();
  const std::vector<QueryDeployment> deployments = MakeDeployments(w, seed);
  p.expanded = Clock::now();
  SimulationCore::Options options;
  const RandomWalkConfig walk = WalkConfig(w, seed);
  if (setup.time_handler) {
    p.timed_streams = std::make_unique<HandlerTimedStreams>(walk);
    options.source = SourceSpec::Custom(p.timed_streams.get());
  } else {
    options.source = SourceSpec::Walk(walk);
  }
  options.duration = w.duration;
  options.seed = seed;
  options.net = net;
  options.oracle.sample_interval = setup.oracle_interval;
  options.spill.dir = setup.spill_dir;
  options.obs.profiler = setup.profiler;
  p.core = std::make_unique<SimulationCore>(options);
  p.constructed = Clock::now();
  for (const QueryDeployment& dep : deployments) p.core->AddQuery(dep);
  p.deployed = Clock::now();
  return p;
}

Iteration RunIteration(const Workload& w, std::uint64_t seed,
                       const NetConfig& net, const IterationSetup& setup) {
  Prepared p = Prepare(w, seed, net, setup);
  p.core->Run();
  const Clock::time_point ran = Clock::now();
  Iteration it;
  it.totals = Assemble(*p.core);
  const Clock::time_point assembled = Clock::now();

  it.churn_expand_s = Seconds(p.start, p.expanded);
  it.construct_s = Seconds(p.expanded, p.constructed);
  it.deploy_s = Seconds(p.constructed, p.deployed);
  it.run_s = Seconds(p.deployed, ran);
  it.assembly_s = Seconds(ran, assembled);
  it.spans = {{"churn_expand", 0, it.churn_expand_s},
              {"construct", Seconds(p.start, p.expanded), it.construct_s},
              {"deploy", Seconds(p.start, p.constructed), it.deploy_s},
              {"run", Seconds(p.start, p.deployed), it.run_s},
              {"assembly", Seconds(p.start, ran), it.assembly_s}};
  if (p.timed_streams) {
    it.handler_s = p.timed_streams->handler_seconds();
    it.stream_updates = p.timed_streams->updates_generated();
  }
  it.net = p.core->net_stats();
  it.dispatch = p.core->dispatch_stats();
  it.spill = p.core->spill_telemetry();
  return it;
}

std::string IterationJson(const Iteration& it) {
  return Json()
      .Num("churn_expand_s", it.churn_expand_s)
      .Num("construct_s", it.construct_s)
      .Num("deploy_s", it.deploy_s)
      .Num("setup_s", it.setup_s())
      .Num("run_s", it.run_s)
      .Num("assembly_s", it.assembly_s)
      .Num("total_s", it.total_s())
      .Raw("totals", TotalsJson(it.totals))
      .Raw("net", NetJson(it.net))
      .str();
}

double PeakRssKiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

// ----------------------------------------------------------------- modes

/// Untraced iterations, replicas in turn: first for kWarmupSeconds
/// (discarded; a fresh process runs its first iterations slower), then
/// whole rounds over every replica until `seconds` have passed (at least
/// kMinRounds). Set-up-only repetitions follow, so set-up time gets a
/// stable median.
std::string TimedMode(const Workload& w, std::uint64_t seed,
                      const NetConfig& net, double seconds,
                      const std::string& spill_dir) {
  constexpr double kWarmupSeconds = 2;
  constexpr std::size_t kMinRounds = 3;
  constexpr std::size_t kExtraSetups = 20;
  IterationSetup setup;
  if (w.spill) setup.spill_dir = spill_dir;
  const auto after = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };

  const Clock::time_point warm = after(kWarmupSeconds);
  for (std::size_t i = 0; Clock::now() < warm; ++i) {
    RunIteration(w, ReplicaSeed(seed, i % w.replicas), net, setup);
  }

  std::vector<std::string> iterations;
  std::vector<double> setup_samples;
  const Clock::time_point deadline = after(seconds);
  for (std::size_t round = 0; round < kMinRounds || Clock::now() < deadline;
       ++round) {
    for (std::size_t j = 0; j < w.replicas; ++j) {
      const Iteration it = RunIteration(w, ReplicaSeed(seed, j), net, setup);
      setup_samples.push_back(it.setup_s());
      iterations.push_back(
          Json().Int("replica", j).Raw("run", IterationJson(it)).str());
    }
  }
  for (std::size_t i = 0; i < kExtraSetups; ++i) {
    const Prepared p =
        Prepare(w, ReplicaSeed(seed, i % w.replicas), net, setup);
    setup_samples.push_back(Seconds(p.start, p.deployed));
  }

  return Json()
      .Int("replicas", w.replicas)
      .Raw("iterations", JoinArray(iterations))
      .Raw("setup_samples", NumArray(setup_samples))
      .Num("peak_rss_kib", PeakRssKiB())
      .str();
}

std::string SpansJson(const std::vector<Span>& spans) {
  std::vector<std::string> elements;
  for (const Span& span : spans) {
    elements.push_back(Json()
                           .Str("name", span.name)
                           .Num("start_s", span.start_s)
                           .Num("dur_s", span.dur_s)
                           .str());
  }
  return JoinArray(elements);
}

/// Stream generation + event kernel alone: the workload's walk population
/// driven to its horizon with a handler that only counts. Returns updates
/// per second.
double StreamFloorRate(const Workload& w, std::uint64_t seed) {
  RandomWalkStreams streams(WalkConfig(w, seed));
  Scheduler scheduler;
  std::uint64_t count = 0;
  streams.set_update_handler([&count](StreamId, Value, SimTime) { ++count; });
  const Clock::time_point start = Clock::now();
  streams.Start(&scheduler, w.duration);
  scheduler.RunUntil(w.duration);
  return static_cast<double>(count) / Seconds(start, Clock::now());
}

/// The traced run of replica 0, as two instrumented iterations so neither
/// instrument inflates the other's numbers: one with the engine's update
/// handler timed from the source side (spans, handler time, layer
/// counters), one with the phase profiler attached (exclusive phase
/// times). The stream floor probe runs twice right before and twice right
/// after the first, so the floor/handler split sees the same host speed.
std::string TraceMode(const Workload& w, std::uint64_t seed,
                      const NetConfig& net, const std::string& spill_dir) {
  IterationSetup setup;
  if (w.spill) setup.spill_dir = spill_dir;
  setup.time_handler = true;
  const std::uint64_t replica_seed = ReplicaSeed(seed, 0);
  std::vector<double> floor = {StreamFloorRate(w, replica_seed),
                               StreamFloorRate(w, replica_seed)};
  const Iteration it = RunIteration(w, replica_seed, net, setup);
  floor.push_back(StreamFloorRate(w, replica_seed));
  floor.push_back(StreamFloorRate(w, replica_seed));

  obs::Profiler profiler;
  IterationSetup profiled_setup;
  profiled_setup.spill_dir = setup.spill_dir;
  profiled_setup.profiler = &profiler;
  const Iteration profiled =
      RunIteration(w, replica_seed, net, profiled_setup);
  const obs::ProfileReport report = profiler.Merged();
  Json phases;
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Phase::kNumPhases);
       ++i) {
    phases.Num(obs::PhaseName(static_cast<obs::Phase>(i)), report.seconds[i]);
  }

  return Json()
      .Raw("run", IterationJson(it))
      .Num("floor_updates_per_s", Median(floor))
      .Num("handler_s", it.handler_s)
      .Int("stream_updates", it.stream_updates)
      .Raw("spans", SpansJson(it.spans))
      .Raw("dispatch", Json()
                           .Int("scan_dispatches", it.dispatch.scan_dispatches)
                           .Int("index_dispatches", it.dispatch.index_dispatches)
                           .Int("index_rebuilds", it.dispatch.index_rebuilds)
                           .Int("max_stream_rebuilds",
                                it.dispatch.max_stream_rebuilds)
                           .str())
      .Raw("spill", Json()
                        .Int("records_spilled", it.spill.records_spilled)
                        .Int("spilled_bytes", it.spill.spilled_bytes)
                        .Int("resident_bytes", it.spill.pool_resident_bytes)
                        .str())
      .Raw("profiled_run", IterationJson(profiled))
      .Raw("phases", phases.str())
      .str();
}

/// Replica 0 once, untimed, judged by the oracle at a fixed sim-time
/// period, with spill off.
std::string AuditMode(const Workload& w, std::uint64_t seed,
                      const NetConfig& net) {
  IterationSetup setup;
  setup.oracle_interval = kOracleInterval;
  const Iteration it = RunIteration(w, ReplicaSeed(seed, 0), net, setup);
  return Json()
      .Raw("run", IterationJson(it))
      .Int("oracle_checks", it.totals.oracle_checks)
      .Int("oracle_violations", it.totals.oracle_violations)
      .str();
}

/// Median seconds per call of `call`, over seven batches each sized to
/// take at least 20 ms.
template <typename F>
double MedianSecondsPerCall(F&& call) {
  std::size_t batch = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) call();
    if (Seconds(start, Clock::now()) >= 0.02 || batch >= (1u << 20)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  for (int rep = 0; rep < 7; ++rep) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) call();
    per_call.push_back(Seconds(start, Clock::now()) /
                       static_cast<double>(batch));
  }
  return Median(per_call);
}

std::vector<Value> UniformValues(std::size_t n, Rng* rng) {
  std::vector<Value> values(n);
  for (Value& v : values) v = rng->Uniform(0, 1000);
  return values;
}

/// SelectFilterHolders over all n streams with FT-NRP's boundary-nearest
/// priority and an ε·n budget.
double SelectHoldersMicros(const Workload& w, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Value> values = UniformValues(w.streams, &rng);
  std::vector<StreamId> candidates(w.streams);
  std::iota(candidates.begin(), candidates.end(), StreamId{0});
  const Interval range(kRangeLo, kRangeHi);
  const std::function<double(StreamId)> priority = [&](StreamId id) {
    return range.DistanceToBoundary(values[id]);
  };
  const auto count = static_cast<std::size_t>(kEps * w.streams);
  std::size_t sink = 0;
  const double s = MedianSecondsPerCall([&] {
    sink += SelectFilterHolders(candidates, count,
                                SelectionHeuristic::kBoundaryNearest, priority,
                                &rng)
                .size();
  });
  ASF_CHECK(sink > 0);
  return 1e6 * s;
}

/// One query's column lifecycle in the FilterArena at the workload's
/// stream count and peak live population: Acquire, a range filter
/// deployed on every stream, and the Release of a random live column.
double ArenaLifecycleMicros(const Workload& w, std::uint64_t seed,
                            std::size_t peak_live) {
  Rng rng(seed);
  const std::vector<Value> values = UniformValues(w.streams, &rng);
  FilterArena arena(w.streams);
  arena.SetDispatchPolicy(DispatchPolicy::kAuto);
  const FilterConstraint range =
      FilterConstraint::Range(Interval(kRangeLo, kRangeHi));
  const auto install = [&](std::size_t column) {
    for (StreamId id = 0; id < w.streams; ++id) {
      arena.Deploy(id, column, range, values[id]);
    }
  };
  // The resident population the cycling query joins; one dispatch per
  // stream builds the interval index where auto dispatch would use it.
  for (std::size_t q = 1; q < peak_live; ++q) install(arena.Acquire());
  if (arena.live() > 0) {
    std::vector<std::uint32_t> fired;
    for (StreamId id = 0; id < w.streams; ++id) {
      arena.DispatchUpdate(id, values[id], &fired);
    }
  }
  return 1e6 * MedianSecondsPerCall([&] {
           install(arena.Acquire());
           arena.Release(static_cast<std::size_t>(
               rng.UniformInt(0, static_cast<std::int64_t>(arena.live()) - 1)));
         });
}

/// The layer-isolation probes at replica 0's sizes and seed.
std::string ProbeMode(const Workload& w, std::uint64_t run_seed) {
  const std::uint64_t seed = ReplicaSeed(run_seed, 0);
  std::size_t peak_live = 1;
  if (w.kind == Kind::kChurnRange) {
    peak_live = PeakConcurrency(MakeDeployments(w, seed), 0, w.duration);
  }
  const Clock::time_point t1 = Clock::now();
  const double select_us = SelectHoldersMicros(w, seed);
  const Clock::time_point t2 = Clock::now();
  const double lifecycle_us = ArenaLifecycleMicros(w, seed, peak_live);
  const Clock::time_point t3 = Clock::now();
  return Json()
      .Num("select_holders_us", select_us)
      .Num("lifecycle_us", lifecycle_us)
      .Int("peak_live", peak_live)
      .Raw("probe_seconds", Json()
                                .Num("select_holders", Seconds(t1, t2))
                                .Num("arena_lifecycle", Seconds(t2, t3))
                                .str())
      .str();
}

int Main(int argc, char** argv) {
  const Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok() || parsed->positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: asf_perfbench timed|trace|audit|probe "
                 "--workload=<name> --seed=<n> [--seconds=<s>] "
                 "[--spill-dir=<dir>] [--scale=<f>]\n");
    return 2;
  }
  const Flags& flags = *parsed;
  const std::string mode = flags.positional()[0];
  // Timing numbers from an unoptimized library mean nothing.
  for (const auto& [key, value] : BuildProvenance()) {
    if (key == "build_type" && value != "Release") {
      std::fprintf(stderr, "asf_perfbench: refusing a %s build\n",
                   value.c_str());
      return 2;
    }
  }

  const std::string name = flags.GetString("workload", "");
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) found = &w;
  }
  const Result<std::int64_t> seed = flags.GetInt("seed", 1);
  const Result<double> seconds = flags.GetDouble("seconds", 10);
  const Result<double> scale = flags.GetDouble("scale", 1);
  if (found == nullptr || !seed.ok() || *seed < 0 || !seconds.ok() ||
      !scale.ok() || *scale <= 0 || *scale > 1) {
    std::fprintf(stderr, "asf_perfbench: bad --workload/--seed/--seconds/"
                         "--scale\n");
    return 2;
  }
  // --scale shortens the simulated horizon (the benchmark's own tests run
  // at a tiny scale); the benchmark proper always runs at 1.
  Workload w = *found;
  w.duration *= *scale;
  const auto run_seed = static_cast<std::uint64_t>(*seed);
  const NetConfig net = ParseNetSpec(w.net).value();
  const std::string spill_dir = flags.GetString("spill-dir", "");
  if (w.spill && spill_dir.empty() && (mode == "timed" || mode == "trace")) {
    std::fprintf(stderr, "asf_perfbench: %s needs --spill-dir\n", w.name);
    return 2;
  }

  std::string body;
  if (mode == "timed") {
    body = TimedMode(w, run_seed, net, *seconds, spill_dir);
  } else if (mode == "trace") {
    body = TraceMode(w, run_seed, net, spill_dir);
  } else if (mode == "audit") {
    body = AuditMode(w, run_seed, net);
  } else if (mode == "probe") {
    body = ProbeMode(w, run_seed);
  } else {
    std::fprintf(stderr, "asf_perfbench: unknown mode %s\n", mode.c_str());
    return 2;
  }
  std::printf("%s\n", Json()
                          .Str("mode", mode)
                          .Str("workload", w.name)
                          .Int("seed", run_seed)
                          .Raw("provenance", ProvenanceJson())
                          .Raw("result", body)
                          .str()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace asf

int main(int argc, char** argv) { return asf::perfbench::Main(argc, argv); }
