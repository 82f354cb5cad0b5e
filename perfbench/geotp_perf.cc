// GeoTP performance benchmark.
//
// Runs one named workload on the simulated geo-distributed deployment for a
// wall-clock budget, as a sequence of episodes. Each episode assembles a
// fresh deployment and loads its initial database (timed as set-up), drives
// a closed-loop client for a fixed span of simulated time (timed as the
// run), drains in-flight work, and checks every key any committed
// transaction wrote against a sequential oracle: YCSB and TPC-C writes are
// deltas, so a key's final value must equal the sum of the committed deltas,
// on the owning data source and on every replica of it. Every reported
// metric is the median over the episodes of the run, except latency, which
// pools every measured transaction of the run. Host time is thread
// CPU time, made robust to a shared machine as described at kRepeats.
//
//   geotp_perf --workload ycsb --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics with all observability off.
// --trace 1 repeats the episodes with the span tracer, the executor
// profiler and the metrics registry on, and reports per-layer metrics: host
// time per message-handling layer, per-transaction work counts, simulated
// time per span, and micro-timings of single layers (codec, compressor,
// lock manager, engine, shard map, workload generator) on inputs drawn from
// the same workload. Trace artifacts of the last episode are written to
// --out-dir.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/compress.h"
#include "common/random.h"
#include "datasource/data_source.h"
#include "middleware/middleware.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "protocol/messages.h"
#include "replication/replicator.h"
#include "runtime/codec.h"
#include "runtime/sim_runtime.h"
#include "sharding/shard_map.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "storage/engine.h"
#include "storage/lock_manager.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace geotp {
namespace perf {
namespace {

using Clock = std::chrono::steady_clock;
using runtime::MessageType;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the calling thread. The simulator is single-threaded, so
/// this is the host cost of simulating, without the time the thread spent
/// descheduled on a shared machine.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kYcsb, kTpcc, kReplicated, kHotspot };

struct Workload {
  const char* name;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    // Paper topology, YCSB theta 0.7, 20% distributed: the GeoTP commit
    // path (decentralized prepare, latency-aware scheduling) at moderate
    // contention.
    {"ycsb", Kind::kYcsb},
    // TPC-C mix over 64 warehouses: long multi-table write sets and the
    // warehouse/district hotspots.
    {"tpcc", Kind::kTpcc},
    // Every data source a 3-replica group: quorum-gated prepare/commit,
    // compressed log shipping, group commit on the leaders.
    {"replicated", Kind::kReplicated},
    // Skewed YCSB (theta 0.9, 30% distributed) routed through a chunked
    // shard map: lock waits and deadlock victims on hot rows. The hotspot
    // balancer stays off: with its migrations running, a data source
    // occasionally keeps a prepared branch whose decision never arrives,
    // so the workload would not be failure-free.
    {"hotspot", Kind::kHotspot},
};

/// Closed-loop client terminals (paper default).
constexpr int kTerminals = 64;
/// Simulated warmup (its commits count toward host cost only) and
/// measurement window of every episode.
constexpr Micros kWarmup = SecToMicros(2);
constexpr Micros kMeasure = SecToMicros(30);

/// RTTs from the DM to each data source: Beijing (co-located), Shanghai,
/// Singapore, London (paper §VII-A3).
const std::vector<double> kRttsMs = {0.0, 27.0, 73.0, 251.0};
/// Per-message gaussian jitter on the DM's WAN links, as a fraction of the
/// mean: real WAN latency is not constant, and without it every far-source
/// transaction takes the same simulated time to the microsecond.
constexpr double kJitterFrac = 0.05;
const char* const kRegions[] = {"beijing", "shanghai", "singapore", "london"};
constexpr int kReplicasPerGroup = 3;
/// Simulated time after the client stops for in-flight work to finish.
constexpr Micros kDrain = SecToMicros(10);
/// Host cost on a shared machine. Two kinds of interference from elsewhere
/// on the machine move CPU time: bursts of a fraction of a second, and
/// drifts of the whole machine's speed over tens of seconds.
///
/// Bursts: each end-to-end episode is simulated kRepeats times from the
/// same seed (the simulation is deterministic, so every repeat does
/// identical work), its run phase is timed in slices of kSlice simulated
/// time, and each slice is charged the least CPU time any repeat took.
///
/// Drift: after every slice a fixed calibration kernel is timed the same
/// way, and CPU times are scaled by kKernelReferenceS / (the kernel's time
/// during the episode), i.e. reported as they would read on a machine on
/// which the kernel takes kKernelReferenceS.
constexpr int kRepeats = 2;
constexpr Micros kSlice = SecToMicros(1);
/// About the kernel's time on an idle 4-vCPU Xeon KVM guest at 2.1 GHz, so
/// that figures read close to raw CPU time on such a machine.
constexpr double kKernelReferenceS = 0.0011;

/// Calibration kernel: lookups in an ordered map of 8192 nodes (a few
/// hundred KB) with node churn, plus one short heap string per lookup --
/// the pointer-chasing, allocator-heavy mix the simulator itself runs
/// (event queue, hash maps, std::function), so neighbours slow both alike.
/// On a shared 4-vCPU KVM guest, per-episode raw CPU time moved by 11-16%
/// (standard deviation) while CPU time scaled by this kernel moved by
/// 2-5%, and the scaled level of separate processes agreed within 3%; a
/// DRAM-latency kernel (hash table and pointer chase over 260 MB) tracked
/// worse on both counts. Independent of the GeoTP code, so a change to the
/// system cannot move it.
class CalibrationKernel {
 public:
  CalibrationKernel() {
    uint64_t x = 0x2545F4914F6CDD1DULL;
    for (uint64_t i = 0; i < kNodes; ++i) {
      x = XorShift(x);
      map_[x] = i;
    }
  }

  /// CPU seconds of one fixed batch of lookups.
  double TimedRun() {
    const double start = ThreadCpuSeconds();
    uint64_t x = 0x9E3779B97F4A7C15ULL + runs_++;
    uint64_t sum = 0;
    for (int i = 0; i < kLookups; ++i) {
      x = XorShift(x);
      auto it = map_.lower_bound(x);
      if (it == map_.end()) it = map_.begin();
      sum += it->second;
      if ((x & 7) == 0) {
        // Move one node in eight, so the map's layout keeps changing.
        const uint64_t value = it->second;
        map_.erase(it);
        map_[XorShift(x + value)] = value;
      }
      const std::string scratch(24 + (x & 31), 'k');
      sum += scratch.size();
    }
    sink_ += sum;
    return ThreadCpuSeconds() - start;
  }

 private:
  static constexpr uint64_t kNodes = 8192;
  static constexpr int kLookups = 6000;
  static uint64_t XorShift(uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    return x ^ (x << 17);
  }

  std::map<uint64_t, uint64_t> map_;
  uint64_t runs_ = 0;
  uint64_t sink_ = 0;  ///< keeps the lookups observable
};

struct SliceTiming {
  double run_cpu = 0.0;     ///< simulating the slice
  double kernel_cpu = 0.0;  ///< the calibration kernel right after it
};

workload::YcsbConfig YcsbFor(Kind kind, const std::vector<NodeId>& sources) {
  workload::YcsbConfig ycsb;
  ycsb.data_sources = sources;
  // Replicated deployments load every record three times.
  ycsb.records_per_node = kind == Kind::kYcsb ? 100000 : 50000;
  ycsb.theta = 0.7;
  ycsb.distributed_ratio = 0.2;
  if (kind == Kind::kHotspot) {
    // Zipf head on the DM-local source, touched by distributed
    // transactions that hold its locks across WAN round trips: the
    // contention GeoTP's postponement is designed to shorten.
    ycsb.theta = 0.9;
    ycsb.distributed_ratio = 0.3;
  }
  return ycsb;
}

workload::TpccConfig TpccFor(const std::vector<NodeId>& sources) {
  workload::TpccConfig tpcc;
  tpcc.data_sources = sources;
  tpcc.warehouses_per_node = 16;  // paper §VII-A2
  tpcc.items = 5000;
  tpcc.customers_per_district = 500;
  tpcc.distributed_ratio = 0.2;
  return tpcc;
}

std::unique_ptr<workload::WorkloadGenerator> GeneratorFor(
    Kind kind, const std::vector<NodeId>& sources) {
  if (kind == Kind::kTpcc) {
    return std::make_unique<workload::TpccGenerator>(TpccFor(sources));
  }
  return std::make_unique<workload::YcsbGenerator>(YcsbFor(kind, sources));
}

/// Every key of the initial database (value 0), in load order.
void ForEachInitialKey(Kind kind, const std::vector<NodeId>& sources,
                       const std::function<void(const RecordKey&)>& fn) {
  if (kind != Kind::kTpcc) {
    const workload::YcsbConfig ycsb = YcsbFor(kind, sources);
    const uint64_t total = ycsb.records_per_node * sources.size();
    for (uint64_t k = 0; k < total; ++k) fn(RecordKey{ycsb.table_id, k});
    return;
  }
  using workload::TpccGenerator;
  const workload::TpccConfig tpcc = TpccFor(sources);
  const uint64_t warehouses = tpcc.warehouses_per_node * sources.size();
  const auto districts = static_cast<uint64_t>(tpcc.districts_per_warehouse);
  for (uint64_t w = 0; w < warehouses; ++w) {
    fn(RecordKey{workload::kWarehouse, TpccGenerator::WarehouseKey(w)});
    for (uint64_t d = 0; d < districts; ++d) {
      fn(RecordKey{workload::kDistrict, TpccGenerator::DistrictKey(w, d)});
      for (uint64_t c = 0; c < tpcc.customers_per_district; ++c) {
        fn(RecordKey{workload::kCustomer,
                     TpccGenerator::CustomerKey(w, d, c)});
      }
    }
    for (uint64_t item = 0; item < tpcc.items; ++item) {
      fn(RecordKey{workload::kStock, TpccGenerator::StockKey(w, item)});
    }
  }
}

// ---------------------------------------------------------------------------
// One simulated deployment: client + DM in Beijing, four data sources (or
// replica groups) at the paper's RTTs.
// ---------------------------------------------------------------------------

struct Topology {
  NodeId client = kInvalidNode;
  NodeId dm = kInvalidNode;
  /// One entry per logical data source: its replicas, seed leader first.
  std::vector<std::vector<NodeId>> groups;
  sim::LatencyMatrix matrix{1};
};

Topology MakeTopology(Kind kind) {
  Topology topo;
  if (kind != Kind::kReplicated) {
    sim::DefaultTopology paper = sim::DefaultTopology::Make(kRttsMs,
                                                            kJitterFrac);
    topo.client = paper.client;
    topo.dm = paper.middleware;
    for (NodeId ds : paper.data_sources) topo.groups.push_back({ds});
    topo.matrix = paper.matrix;
    return topo;
  }
  // Replica groups: followers share their leader's region (LAN), so the
  // quorum costs a LAN round trip and the shipped log crosses no WAN link
  // the unreplicated deployment does not already have.
  sim::TopologyBuilder builder;
  topo.client = builder.AddNode(sim::NodeRole::kClient, "client", "beijing");
  topo.dm = builder.AddNode(sim::NodeRole::kMiddleware, "dm", "beijing");
  for (size_t i = 0; i < kRttsMs.size(); ++i) {
    std::vector<NodeId> group;
    for (int r = 0; r < kReplicasPerGroup; ++r) {
      const NodeId node = builder.AddNode(
          sim::NodeRole::kDataSource,
          "ds" + std::to_string(i + 1) + "r" + std::to_string(r),
          kRegions[i]);
      if (kRttsMs[i] > 0.0) {
        builder.SetRttMsJitter(topo.dm, node, kRttsMs[i], kJitterFrac);
        builder.SetRttMs(topo.client, node, kRttsMs[i]);
      }
      group.push_back(node);
    }
    topo.groups.push_back(std::move(group));
  }
  for (size_t i = 0; i < kRttsMs.size(); ++i) {
    for (size_t j = i + 1; j < kRttsMs.size(); ++j) {
      if (kRttsMs[i] <= 0.0 && kRttsMs[j] <= 0.0) continue;
      for (NodeId a : topo.groups[i]) {
        for (NodeId b : topo.groups[j]) {
          builder.SetRttMs(a, b, std::max(kRttsMs[i], kRttsMs[j]));
        }
      }
    }
  }
  topo.matrix = builder.Build();
  return topo;
}

/// Counters of one deployment at the end of its run phase.
struct RunCounters {
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t net_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t gc_entries = 0;
  uint64_t gc_fsyncs = 0;
  uint64_t lock_waits = 0;
  uint64_t deadlocks = 0;
  uint64_t lock_timeouts = 0;
  uint64_t early_aborts = 0;
  uint64_t decentralized_prepares = 0;
  uint64_t explicit_prepares = 0;
  uint64_t repl_entries = 0;
  uint64_t repl_raw = 0;
  uint64_t repl_wire = 0;
  middleware::MiddlewareStats dm;
  metrics::RunStats client;
};

class Deployment {
 public:
  Deployment(const Workload& workload, uint64_t seed, bool observe)
      : observe_(observe) {
    Topology topo = MakeTopology(workload.kind);
    network_ = std::make_unique<sim::Network>(&loop_, topo.matrix, seed);
    runtime_ = std::make_unique<runtime::SimRuntime>(&loop_, network_.get());

    middleware::MiddlewareConfig dm_config =
        middleware::MiddlewareConfig::GeoTP();
    std::vector<NodeId> logical;
    for (const auto& group : topo.groups) logical.push_back(group[0]);

    generator_ = GeneratorFor(workload.kind, logical);
    middleware::Catalog catalog;
    generator_->RegisterTables(&catalog);
    if (workload.kind == Kind::kHotspot) {
      const workload::YcsbConfig ycsb = YcsbFor(workload.kind, logical);
      catalog.InstallShardMap(sharding::ShardMap::FromRangePartition(
          ycsb.table_id, ycsb.records_per_node, logical,
          /*chunks_per_owner=*/8));
    }

    for (const auto& group : topo.groups) {
      std::vector<datasource::DataSourceNode*>& members = groups_[group[0]];
      if (group.size() > 1) catalog.SetReplicaGroup(group[0], group);
      for (NodeId node : group) {
        datasource::DataSourceConfig ds_config =
            datasource::DataSourceConfig::MySql();
        ds_config.early_abort = dm_config.early_abort;
        auto source = std::make_unique<datasource::DataSourceNode>(
            runtime_->EnvFor(node), ds_config);
        if (group.size() > 1) {
          replication::GroupConfig repl;
          repl.logical = group[0];
          repl.replicas = group;
          repl.middlewares = {topo.dm};
          source->EnableReplication(repl);
        }
        source->Attach();
        members.push_back(source.get());
        sources_.push_back(std::move(source));
      }
    }

    // Initial database, identical on every replica of the owning group.
    ForEachInitialKey(workload.kind, logical, [&](const RecordKey& key) {
      for (datasource::DataSourceNode* node : groups_[catalog.Route(key)]) {
        node->engine().store().Put(key, 0);
      }
    });

    dm_ = std::make_unique<middleware::MiddlewareNode>(
        runtime_->EnvFor(topo.dm), /*ordinal=*/0, std::move(catalog),
        dm_config);
    dm_->Attach();
    if (observe_) {
      obs::GlobalMetrics().Clear();
      dm_->AttachMetrics(&obs::GlobalMetrics());
      for (const auto& source : sources_) {
        source->RegisterMetrics(&obs::GlobalMetrics());
      }
    }

    workload::DriverConfig driver_config;
    driver_config.terminals = kTerminals;
    driver_config.warmup = kWarmup;
    driver_config.measure = kMeasure;
    driver_config.seed = seed * 7919 + 17;
    driver_ = std::make_unique<workload::ClientDriver>(
        runtime_->EnvFor(topo.client), topo.dm, generator_.get(),
        driver_config);
    driver_->SetCommitObserver([this](const workload::TxnSpec& spec) {
      ++commits_;
      for (const auto& round : spec.rounds) {
        for (const protocol::ClientOp& op : round) {
          if (!op.is_write) continue;
          int64_t& slot = oracle_[op.key];
          slot = op.is_delta ? slot + op.value : op.value;
        }
      }
    });
    driver_->Attach();
  }

  ~Deployment() {
    // Registry gauges borrow the nodes about to be destroyed.
    if (observe_) obs::GlobalMetrics().Clear();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Starts the client and runs warmup + measurement in simulated time, in
  /// slices of kSlice, and returns each slice's host CPU time.
  /// `kernel` (may be null) is timed after every slice.
  std::vector<SliceTiming> Run(CalibrationKernel* kernel) {
    std::vector<SliceTiming> slices;
    driver_->Start();
    for (Micros t = kSlice; t <= kWarmup + kMeasure; t += kSlice) {
      SliceTiming slice;
      const double cpu_before = ThreadCpuSeconds();
      loop_.RunUntil(t);
      slice.run_cpu = ThreadCpuSeconds() - cpu_before;
      if (kernel != nullptr) slice.kernel_cpu = kernel->TimedRun();
      slices.push_back(slice);
    }
    return slices;
  }

  /// Commits observed so far (warmup included).
  uint64_t commits() const { return commits_; }

  RunCounters Counters() const {
    RunCounters c;
    c.events = loop_.events_processed();
    c.messages = network_->total_messages();
    for (NodeId n = 0; n < network_->num_nodes(); ++n) {
      c.net_bytes += network_->StatsFor(n).bytes_sent;
    }
    for (const auto& source : sources_) {
      c.wal_fsyncs += source->engine().wal().fsyncs();
      c.gc_entries += source->committer().stats().entries;
      c.gc_fsyncs += source->committer().stats().fsyncs;
      const storage::LockStats& locks = source->engine().locks().stats();
      c.lock_waits += locks.grants_after_wait;
      c.deadlocks += locks.deadlocks;
      const datasource::DataSourceStats& ds = source->stats();
      c.lock_timeouts += ds.lock_timeouts;
      c.early_aborts += ds.early_aborts_sent;
      c.decentralized_prepares += ds.decentralized_prepares;
      c.explicit_prepares += ds.explicit_prepares;
      if (source->replicator() != nullptr) {
        const replication::LogShipperStats& ship =
            source->replicator()->shipper_stats();
        c.repl_entries += ship.entries_shipped;
        c.repl_raw += ship.wan_bytes_raw;
        c.repl_wire += ship.wan_bytes_wire;
      }
    }
    c.dm = dm_->stats();
    c.client = driver_->stats();
    return c;
  }

  /// Stops the client and lets in-flight transactions, decisions and log
  /// shipping finish.
  void Drain() {
    driver_->Stop();
    loop_.RunUntil(loop_.Now() + kDrain);
  }

  /// Checks the drained deployment against the oracle. On failure returns
  /// false with a description in `error`.
  bool Verify(std::string* error) const {
    if (dm_->InFlight() != 0) {
      *error = std::to_string(dm_->InFlight()) +
               " transactions still open at the DM after the drain";
      return false;
    }
    for (const auto& source : sources_) {
      if (source->engine().ActiveCount() != 0) {
        *error = "data source " + std::to_string(source->id()) + " holds " +
                 std::to_string(source->engine().ActiveCount()) +
                 " live branches after the drain";
        return false;
      }
    }
    for (const auto& [key, expected] : oracle_) {
      // The catalog consults the shard map first, when there is one.
      const auto group = groups_.find(dm_->catalog().Route(key));
      if (group == groups_.end()) {
        *error = "key routes to no data source";
        return false;
      }
      for (datasource::DataSourceNode* node : group->second) {
        const auto record = node->engine().store().Get(key);
        const int64_t got = record ? record->value : 0;
        if (got != expected) {
          *error = "key (" + std::to_string(key.table) + "," +
                   std::to_string(key.key) + ") on node " +
                   std::to_string(node->id()) + ": expected " +
                   std::to_string(expected) + ", found " +
                   std::to_string(got);
          return false;
        }
      }
    }
    return true;
  }

  size_t oracle_keys() const { return oracle_.size(); }

 private:
  const bool observe_;
  // Declaration order is teardown order in reverse: actors go before the
  // runtime, network and loop they hold pointers into.
  sim::EventLoop loop_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<runtime::SimRuntime> runtime_;
  std::vector<std::unique_ptr<datasource::DataSourceNode>> sources_;
  std::unordered_map<NodeId, std::vector<datasource::DataSourceNode*>>
      groups_;
  std::unique_ptr<workload::WorkloadGenerator> generator_;
  std::unique_ptr<middleware::MiddlewareNode> dm_;
  std::unique_ptr<workload::ClientDriver> driver_;
  std::unordered_map<RecordKey, int64_t, RecordKeyHash> oracle_;
  uint64_t commits_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Per-episode samples of every metric, reported as medians.
class Series {
 public:
  void Add(const std::string& name, const char* unit, double value) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      it = index_.emplace(name, entries_.size()).first;
      entries_.push_back(Entry{name, unit, {}});
    }
    entries_[it->second].values.push_back(std::isfinite(value) ? value : 0.0);
  }

  /// {"name": {"value": median, "unit": ".."}, ...}
  std::string MediansJson() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g", Median(entries_[i].values));
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

  void PrintSummary(FILE* out) const {
    for (const Entry& e : entries_) {
      const auto [lo, hi] = std::minmax_element(e.values.begin(),
                                                e.values.end());
      std::fprintf(out, "  %-30s %14.4f %s  (n=%zu, min %.4f, max %.4f)\n",
                   e.name.c_str(), Median(e.values), e.unit, e.values.size(),
                   *lo, *hi);
    }
  }

 private:
  struct Entry {
    std::string name;
    const char* unit;
    std::vector<double> values;
  };

  std::map<std::string, size_t> index_;
  std::vector<Entry> entries_;
};

/// The message-handling layer a profiler slot belongs to (by message type;
/// shard-migration messages do not occur in these workloads).
enum Layer { kClientLayer, kDmLayer, kDsLayer, kReplLayer, kMonitorLayer,
             kNumLayers };

int LayerOf(MessageType type) {
  switch (type) {
    case MessageType::kClientRoundResponse:
    case MessageType::kClientTxnResult:
    case MessageType::kOverloadedResponse:
      return kClientLayer;
    case MessageType::kClientRoundRequest:
    case MessageType::kClientFinishRequest:
    case MessageType::kBranchExecuteResponse:
    case MessageType::kVoteMessage:
    case MessageType::kDecisionAck:
    case MessageType::kFollowerReadResponse:
      return kDmLayer;
    case MessageType::kBranchExecuteRequest:
    case MessageType::kPrepareRequest:
    case MessageType::kPrepareBatch:
    case MessageType::kDecisionRequest:
    case MessageType::kDecisionBatch:
    case MessageType::kPeerAbortRequest:
    case MessageType::kFollowerReadRequest:
      return kDsLayer;
    case MessageType::kReplAppendRequest:
    case MessageType::kReplAppendAck:
    case MessageType::kReplVoteRequest:
    case MessageType::kReplVoteResponse:
    case MessageType::kLeaderAnnounce:
    case MessageType::kNotLeaderResponse:
      return kReplLayer;
    case MessageType::kPingRequest:
    case MessageType::kPingResponse:
      return kMonitorLayer;
    default:
      return -1;
  }
}

const char* const kLayerMetric[kNumLayers] = {
    "host_client_us_per_txn", "host_dm_us_per_txn", "host_ds_us_per_txn",
    "host_repl_us_per_txn", "host_monitor_us_per_txn"};

/// Spans whose mean simulated duration is reported, with metric names.
const std::pair<const char*, const char*> kSpanMetrics[] = {
    {"dm.txn", "span_dm_txn_ms"},
    {"dm.analysis", "span_dm_analysis_ms"},
    {"ds.branch_exec", "span_ds_branch_exec_ms"},
    {"ds.prepare_fsync", "span_ds_prepare_fsync_ms"},
    {"ds.quorum", "span_ds_quorum_ms"},
    {"dm.prepare_wait", "span_dm_prepare_wait_ms"},
    {"dm.log_fsync", "span_dm_log_fsync_ms"},
    {"dm.commit", "span_dm_commit_ms"},
    {"ds.commit_fsync", "span_ds_commit_fsync_ms"},
    {"ds.commit_quorum", "span_ds_commit_quorum_ms"},
};

/// Quantile `q` (0..1) of a latency histogram, in ms, interpolated linearly
/// inside the bucket that holds the rank. Histogram::Percentile returns the
/// bucket's upper bound, which for a tight latency cluster (every London
/// round trip) is the same number run after run.
double QuantileMs(const metrics::Histogram& h, double q) {
  double prev_us = 0.0;
  double prev_frac = 0.0;
  for (const auto& [upper_us, frac] : h.Cdf()) {
    const auto upper = static_cast<double>(upper_us);
    if (frac >= q) {
      // Buckets are 1 us wide below 1 ms and grow by 1% above.
      const double lower =
          std::max(prev_us, upper < 1000.0 ? upper - 1.0 : upper / 1.01);
      return (lower + (q - prev_frac) / (frac - prev_frac) * (upper - lower)) /
             1000.0;
    }
    prev_us = upper;
    prev_frac = frac;
  }
  return MicrosToMs(h.max());
}

void AddEndToEnd(Series* s, double setup_s, double run_cpu_s,
                 uint64_t commits, const RunCounters& c) {
  const auto txns = static_cast<double>(commits);
  s->Add("tps", "1/s", c.client.ThroughputTps());
  s->Add("cpu_us_per_txn", "us", Ratio(run_cpu_s * 1e6, txns));
  s->Add("msgs_per_txn", "count", Ratio(static_cast<double>(c.messages), txns));
  s->Add("setup_s", "s", setup_s);
}

/// Latency over every measured transaction of the run, pooled across its
/// episodes rather than a median of per-episode figures: one TPC-C episode
/// puts only about 70 transactions above its p99, the pooled run hundreds.
void AddLatency(Series* s, const metrics::Histogram& latency) {
  s->Add("p50_ms", "ms", QuantileMs(latency, 0.50));
  s->Add("p99_ms", "ms", QuantileMs(latency, 0.99));
  s->Add("mean_ms", "ms", latency.Mean() / 1000.0);
}

void AddPerLayer(Series* s, double run_s, uint64_t commits,
                 const RunCounters& c) {
  const auto txns = static_cast<double>(commits);
  auto per_txn = [txns](uint64_t v) {
    return Ratio(static_cast<double>(v), txns);
  };

  // Host time by layer: handler time from the profiler, the rest (timer
  // callbacks such as engine cost completions and group-commit flushes,
  // event-loop overhead, tracing) as "timers".
  const double run_us = run_s * 1e6;
  double handler_us[kNumLayers] = {};
  const obs::Profiler& profiler = obs::GlobalProfiler();
  for (int t = 0; t < obs::Profiler::kMaxMessageTypes; ++t) {
    const int layer = LayerOf(static_cast<MessageType>(t));
    if (layer < 0) continue;
    handler_us[layer] += static_cast<double>(profiler.handler_slot(t).total.load(
                             std::memory_order_relaxed)) /
                         1000.0;
  }
  double handlers_total = 0.0;
  s->Add("traced_wall_us_per_txn", "us", Ratio(run_us, txns));
  for (int layer = 0; layer < kNumLayers; ++layer) {
    s->Add(kLayerMetric[layer], "us", Ratio(handler_us[layer], txns));
    handlers_total += handler_us[layer];
  }
  s->Add("host_timers_us_per_txn", "us", Ratio(run_us - handlers_total, txns));

  // Work counts.
  s->Add("events_per_txn", "count", per_txn(c.events));
  s->Add("net_bytes_per_txn", "bytes", per_txn(c.net_bytes));
  s->Add("wal_fsyncs_per_txn", "count", per_txn(c.wal_fsyncs));
  s->Add("group_commit_batch", "count",
         Ratio(static_cast<double>(c.gc_entries),
               static_cast<double>(c.gc_fsyncs)));
  s->Add("dm_log_fsyncs_per_txn", "count", per_txn(c.dm.log_flushes));
  s->Add("abort_events_per_txn", "count",
         Ratio(static_cast<double>(c.client.abort_events),
               static_cast<double>(c.client.committed)));
  s->Add("lock_waits_per_txn", "count", per_txn(c.lock_waits));
  s->Add("deadlocks", "count", static_cast<double>(c.deadlocks));
  s->Add("lock_timeouts", "count", static_cast<double>(c.lock_timeouts));
  s->Add("early_aborts_per_txn", "count", per_txn(c.early_aborts));
  s->Add("decentralized_prepare_share", "ratio",
         Ratio(static_cast<double>(c.decentralized_prepares),
               static_cast<double>(c.decentralized_prepares +
                                   c.explicit_prepares)));
  s->Add("admission_blocks_per_txn", "count", per_txn(c.dm.admission_blocks));
  s->Add("distributed_share", "ratio",
         Ratio(static_cast<double>(c.dm.committed_distributed),
               static_cast<double>(c.dm.committed)));
  s->Add("repl_entries_per_txn", "count", per_txn(c.repl_entries));
  s->Add("repl_wire_bytes_per_txn", "bytes", per_txn(c.repl_wire));
  s->Add("repl_compression_ratio", "ratio",
         Ratio(static_cast<double>(c.repl_raw),
               static_cast<double>(c.repl_wire)));

  // Where simulated latency goes: mean duration of each closed span.
  std::map<std::string, std::pair<double, uint64_t>> spans;
  for (const obs::SpanRecord& span : obs::GlobalTracer().Snapshot()) {
    if (span.end < span.start) continue;
    auto& [sum, count] = spans[span.name];
    sum += MicrosToMs(span.Duration());
    ++count;
  }
  for (const auto& [span_name, metric] : kSpanMetrics) {
    const auto it = spans.find(span_name);
    s->Add(metric, "ms",
           it == spans.end()
               ? 0.0
               : Ratio(it->second.first,
                       static_cast<double>(it->second.second)));
  }
}

// ---------------------------------------------------------------------------
// Single-layer micro-timings (--trace 1): each layer's public entry points
// called directly on transactions drawn from the workload's generator.
// ---------------------------------------------------------------------------

/// Host ns per operation of `pass` (which returns the operations it did),
/// repeated for at least 50 ms; median of five such measurements.
template <typename Pass>
double NsPerOp(Pass pass) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t ops = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
      ops += pass();
      elapsed = SecondsSince(start);
    } while (elapsed < 0.05);
    samples.push_back(Ratio(elapsed * 1e9, static_cast<double>(ops)));
  }
  return Median(std::move(samples));
}

/// Runs the micro-timings; clears `*ok` if any layer returned a wrong
/// result.
void AddMicro(Series* s, Kind kind, uint64_t seed, bool* ok) {
  const std::vector<NodeId> sources = {2, 3, 4, 5};
  std::unique_ptr<workload::WorkloadGenerator> generator =
      GeneratorFor(kind, sources);
  Rng rng(seed);
  constexpr size_t kTxns = 2000;
  std::vector<workload::TxnSpec> specs;
  for (size_t i = 0; i < kTxns; ++i) specs.push_back(generator->Next(rng));

  s->Add("generator_ns_per_txn", "ns", NsPerOp([&]() {
           for (size_t i = 0; i < 256; ++i) generator->Next(rng);
           return uint64_t{256};
         }));

  // Wire codec: one BranchExecuteRequest per transaction round.
  std::vector<std::unique_ptr<protocol::BranchExecuteRequest>> requests;
  for (size_t i = 0; i < specs.size(); ++i) {
    for (size_t r = 0; r < specs[i].rounds.size(); ++r) {
      auto req = std::make_unique<protocol::BranchExecuteRequest>();
      req->from = 1;
      req->to = 2;
      req->xid = Xid{static_cast<TxnId>(i + 1), 2};
      req->round_seq = r;
      req->begin_branch = r == 0;
      req->ops = specs[i].rounds[r];
      req->last_statement = r + 1 == specs[i].rounds.size();
      req->peers = {3, 4};
      req->coordinator = 1;
      requests.push_back(std::move(req));
    }
  }
  s->Add("codec_ns_per_msg", "ns", NsPerOp([&]() {
           for (const auto& req : requests) {
             const std::string bytes = runtime::EncodeMessage(*req);
             const std::unique_ptr<runtime::MessageBase> back =
                 runtime::DecodeMessage(bytes);
             if (back == nullptr ||
                 back->type() != MessageType::kBranchExecuteRequest ||
                 static_cast<const protocol::BranchExecuteRequest&>(*back)
                         .ops.size() != req->ops.size()) {
               *ok = false;
             }
           }
           return static_cast<uint64_t>(requests.size());
         }));

  // WAN compressor: encoded frames packed into 16 KiB blocks, compressed,
  // decompressed and hash-verified.
  std::vector<std::string> blocks(1);
  for (const auto& req : requests) {
    if (blocks.back().size() >= 16384) blocks.emplace_back();
    blocks.back() += runtime::EncodeMessage(*req);
  }
  uint64_t raw_bytes = 0;
  for (const std::string& block : blocks) raw_bytes += block.size();
  const double ns_per_pass = NsPerOp([&]() {
    for (const std::string& raw : blocks) {
      std::string wire;
      std::string back;
      const common::WireCodec codec =
          common::EncodePayload(common::WireCodec::kBlock, raw, &wire);
      if (!common::DecodePayload(codec, wire, raw.size(),
                                 common::ContentHash64(raw), &back) ||
          back != raw) {
        *ok = false;
      }
    }
    return uint64_t{1};
  });
  s->Add("compress_ns_per_kb", "ns",
         Ratio(ns_per_pass, static_cast<double>(raw_bytes) / 1024.0));

  // Lock manager: each transaction's locks taken and released, no
  // contention.
  s->Add("lock_ns_per_op", "ns", NsPerOp([&]() {
           storage::LockManager locks;
           uint64_t requested = 0;
           uint64_t granted = 0;
           for (size_t i = 0; i < specs.size(); ++i) {
             const Xid xid{static_cast<TxnId>(i + 1), 2};
             for (const auto& round : specs[i].rounds) {
               for (const protocol::ClientOp& op : round) {
                 ++requested;
                 locks.RequestLock(xid, op.key,
                                   op.is_write ? storage::LockMode::kExclusive
                                               : storage::LockMode::kShared,
                                   [&granted](Status st) {
                                     if (st.ok()) ++granted;
                                   });
               }
             }
             locks.ReleaseAll(xid);
           }
           if (granted != requested) *ok = false;
           return requested;
         }));

  // Transaction engine: begin, execute, prepare, commit.
  s->Add("engine_ns_per_op", "ns", NsPerOp([&]() {
           storage::TransactionEngine engine(storage::MySqlEngineConfig());
           uint64_t ops = 0;
           for (size_t i = 0; i < specs.size(); ++i) {
             const Xid xid{static_cast<TxnId>(i + 1), 2};
             if (!engine.Begin(xid).ok()) *ok = false;
             for (const auto& round : specs[i].rounds) {
               for (const protocol::ClientOp& op : round) {
                 storage::Operation operation;
                 operation.key = op.key;
                 operation.is_write = op.is_write;
                 operation.write_value = op.value;
                 operation.is_delta = op.is_delta;
                 engine.ExecuteOp(xid, operation, [ok](Status st, int64_t) {
                   if (!st.ok()) *ok = false;
                 });
                 ++ops;
               }
             }
             if (!engine.Prepare(xid, 0).ok() || !engine.Commit(xid, 0).ok()) {
               *ok = false;
             }
           }
           return ops;
         }));

  // Shard map: route every accessed key through a 256-range map.
  const uint64_t keys_per_node = uint64_t{1} << 20;
  const sharding::ShardMap map = sharding::ShardMap::FromRangePartition(
      /*table=*/1, keys_per_node, sources, /*chunks_per_owner=*/64);
  std::vector<RecordKey> keys;
  for (const workload::TxnSpec& spec : specs) {
    for (const auto& round : spec.rounds) {
      for (const protocol::ClientOp& op : round) {
        keys.push_back(RecordKey{
            1, RecordKeyHash()(op.key) % (keys_per_node * sources.size())});
      }
    }
  }
  s->Add("shard_route_ns", "ns", NsPerOp([&]() {
           for (const RecordKey& key : keys) {
             if (map.Route(key) == kInvalidNode) *ok = false;
           }
           return static_cast<uint64_t>(keys.size());
         }));
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "geotp_perf: %s\nusage: geotp_perf --workload "
               "ycsb|tpcc|replicated|hotspot --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0) {
    Usage("--workload, --seed and a positive --seconds are required");
  }
  return args;
}

uint64_t EpisodeSeed(uint64_t seed, int episode) {
  // splitmix64 over (seed, episode): distinct, reproducible streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(episode) +
               0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) | 1;
}

/// Episodes per run at least, whatever the budget, so medians have company.
constexpr int kMinEpisodes = 3;

/// Correctness and transaction totals over the episodes of a run.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  metrics::Histogram latency;  ///< every measured commit
};

/// One episode: kRepeats identical simulations for the end-to-end metrics,
/// or one with tracing on for the per-layer metrics (`kernel` null). The
/// first simulation is also drained and verified.
void RunEpisode(const Workload& workload, uint64_t seed,
                CalibrationKernel* kernel, Series* series,
                Outcome* outcome, std::string* metrics_json) {
  const bool trace = kernel == nullptr;
  const int repeats = trace ? 1 : kRepeats;
  double setup_s = 0.0;
  std::vector<SliceTiming> best;  // per-slice minimum over the repeats
  RunCounters counters;
  uint64_t commits = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    if (trace) obs::GlobalTracer().Reset();
    const double setup_start = ThreadCpuSeconds();
    Deployment deployment(workload, seed, trace);
    const double setup = ThreadCpuSeconds() - setup_start;
    setup_s = rep == 0 ? setup : std::min(setup_s, setup);

    if (trace) obs::GlobalProfiler().Reset();
    const auto run_start = Clock::now();
    const std::vector<SliceTiming> slices = deployment.Run(kernel);
    const double run_wall_s = SecondsSince(run_start);
    if (rep > 0) {
      for (size_t i = 0; i < slices.size(); ++i) {
        best[i].run_cpu = std::min(best[i].run_cpu, slices[i].run_cpu);
        best[i].kernel_cpu =
            std::min(best[i].kernel_cpu, slices[i].kernel_cpu);
      }
      if (deployment.commits() != commits) {
        outcome->correct = false;
        std::fprintf(stderr,
                     "seed %llu: repeat %d committed %llu transactions, the "
                     "first %llu: the simulation is not deterministic\n",
                     static_cast<unsigned long long>(seed), rep,
                     static_cast<unsigned long long>(deployment.commits()),
                     static_cast<unsigned long long>(commits));
      }
      continue;
    }
    best = slices;
    counters = deployment.Counters();
    commits = deployment.commits();
    if (trace) {
      // The profiler's handler times are wall time; so is their total.
      AddPerLayer(series, run_wall_s, commits, counters);
      *metrics_json = obs::GlobalMetrics().SnapshotJson();
    }

    deployment.Drain();
    std::string error;
    if (commits == 0) {
      outcome->correct = false;
      std::fprintf(stderr, "seed %llu: no transaction committed\n",
                   static_cast<unsigned long long>(seed));
    } else if (!deployment.Verify(&error)) {
      outcome->correct = false;
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed), error.c_str());
    }
    outcome->attempted += counters.client.committed + counters.client.aborted;
    outcome->failed += counters.client.aborted;
    outcome->latency.Merge(counters.client.latency);
    std::fprintf(stderr,
                 "seed %llu: setup %.3f s, run %.3f s, %llu commits, %zu "
                 "keys verified\n",
                 static_cast<unsigned long long>(seed), setup, run_wall_s,
                 static_cast<unsigned long long>(commits),
                 deployment.oracle_keys());
  }
  if (!trace) {
    double run_cpu_s = 0.0;
    double kernel_cpu_s = 0.0;
    for (const SliceTiming& slice : best) {
      run_cpu_s += slice.run_cpu;
      kernel_cpu_s += slice.kernel_cpu;
    }
    const double scale = Ratio(
        kKernelReferenceS * static_cast<double>(best.size()), kernel_cpu_s);
    std::fprintf(stderr, "seed %llu: raw cpu %.3f us/txn, kernel scale %.3f\n",
                 static_cast<unsigned long long>(seed),
                 Ratio(run_cpu_s * 1e6, static_cast<double>(commits)), scale);
    AddEndToEnd(series, setup_s * scale, run_cpu_s * scale, commits,
                counters);
  }
}

void WriteArtifacts(const std::string& dir, const std::string& prefix,
                    const std::string& metrics_json) {
  const std::string base = dir + "/" + prefix;
  obs::Tracer& tracer = obs::GlobalTracer();
  {
    std::ofstream out(base + "_trace.json");
    tracer.ExportChromeTrace(out, /*pid=*/0);
  }
  {
    std::ofstream out(base + "_slowest.txt");
    out << obs::SlowestTracesReport(tracer.Snapshot(), /*k=*/8);
  }
  {
    std::ofstream out(base + "_metrics.json");
    out << metrics_json;
  }
  {
    std::ofstream out(base + "_profile.json");
    out << obs::GlobalProfiler().ReportJson();
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());

  if (args.trace) {
    obs::TraceConfig trace_config;
    // A fifth of the transactions: enough spans for stable means, small
    // enough that the exported trace stays a few megabytes.
    trace_config.sample_rate = 0.2;
    obs::GlobalTracer().Enable(trace_config);
    obs::GlobalProfiler().Enable();
  }

  Series series;
  Outcome outcome;
  std::string metrics_json;
  int episodes = 0;
  const auto start = Clock::now();
  // End-to-end runs time the calibration kernel; traced runs do not need it.
  std::unique_ptr<CalibrationKernel> kernel;
  if (!args.trace) kernel = std::make_unique<CalibrationKernel>();
  while (episodes < kMinEpisodes || SecondsSince(start) < args.seconds) {
    RunEpisode(*workload, EpisodeSeed(args.seed, episodes), kernel.get(),
               &series, &outcome, &metrics_json);
    ++episodes;
  }

  if (args.trace) {
    AddMicro(&series, workload->kind, args.seed, &outcome.correct);
    if (!args.out_dir.empty()) {
      WriteArtifacts(args.out_dir, workload->name, metrics_json);
    }
    obs::GlobalTracer().Disable();
    obs::GlobalProfiler().Disable();
  } else {
    AddLatency(&series, outcome.latency);
  }

  std::fprintf(stderr, "%s: %d episodes in %.1f s\n", workload->name,
               episodes, SecondsSince(start));
  series.PrintSummary(stderr);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      series.MediansJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perf
}  // namespace geotp

int main(int argc, char** argv) { return geotp::perf::Main(argc, argv); }
