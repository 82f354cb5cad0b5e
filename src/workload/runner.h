// Experiment runner: describes a full simulated deployment (topology,
// data sources, middleware or baseline system), builds it, drives it with
// a client for warmup + measurement, and returns the metrics every
// bench/test consumes.
//
// This is the library's top-level convenience API; examples/quickstart.cpp
// shows it end to end.
#ifndef GEOTP_WORKLOAD_RUNNER_H_
#define GEOTP_WORKLOAD_RUNNER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "datasource/data_source.h"
#include "metrics/stats.h"
#include "middleware/middleware.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/engine.h"
#include "workload/deployment.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace geotp {
namespace workload {

enum class WorkloadKind { kYcsb, kTpcc };

struct ExperimentConfig {
  SystemKind system = SystemKind::kGeoTP;
  WorkloadKind workload = WorkloadKind::kYcsb;

  /// RTTs from DM to each data source in ms (paper default topology).
  std::vector<double> ds_rtts_ms = {0.0, 27.0, 73.0, 251.0};
  double jitter_frac = 0.0;
  /// Engine cost model per data source; sources past the end of the list
  /// (all of them when it is empty) run the MySQL preset (paper default).
  std::vector<storage::EngineConfig> engines;

  YcsbConfig ycsb;  ///< data_sources filled in by the runner
  TpccConfig tpcc;  ///< data_sources filled in by the runner
  DriverConfig driver;

  /// Hook to tweak the middleware config after the preset is applied
  /// (ablations over alpha, ping interval, admission knobs, ...).
  std::function<void(middleware::MiddlewareConfig*)> dm_tweak;

  /// Hook to tweak each data source's config after the engine preset is
  /// applied (group-commit policy, fsync costs, ...).
  std::function<void(datasource::DataSourceConfig*)> ds_tweak;

  /// Hook run after assembly, before Start() — used by the dynamic-network
  /// experiment (Fig. 11b) to schedule latency re-configuration events.
  std::function<void(sim::EventLoop*, sim::Network*)> pre_run;

  /// Elastic sharding: overlay the workload's range-partitioned table with
  /// chunked shards and run the hotspot-driven balancer at the DM (YCSB
  /// only — TPC-C partitions by warehouse high bits).
  bool sharding = false;
  uint64_t shard_chunks_per_source = 8;
  sharding::BalancerConfig balancer;  ///< enabled flag is set by the runner

  /// Pre-populate every data source's store with its partition's records
  /// (YCSB only). Makes shard-migration snapshot size reflect the real
  /// resident data — a whole-chunk move then costs its full ingest time —
  /// instead of just the keys the run happened to write.
  bool preload = false;

  /// Distributed tracing: fraction of transactions sampled into the
  /// global tracer (0 = tracing fully off, the default — see obs/trace.h).
  /// The runner enables/resets the tracer around the run and leaves the
  /// recorded spans in GlobalTracer() for the caller to export.
  double trace_sample_rate = 0.0;
  /// Register every node's stats on GlobalMetrics() and snapshot the
  /// registry into ExperimentResult::metrics_json before teardown.
  bool collect_metrics = false;

  uint64_t seed = 42;
};

/// The inherited SourceTotals sum WAL, group-commit, source and migration
/// stats over every data source (middleware systems only).
struct ExperimentResult : Cluster::SourceTotals {
  metrics::RunStats run;
  middleware::MiddlewareStats dm;
  metrics::PhaseBreakdown breakdown;  ///< the DM's per-phase latency
  middleware::OverloadStats overload;  ///< the DM's admission controller
  core::LatencyMonitorStats monitor;    ///< the DM's latency monitor
  std::unordered_map<int, TypeStats> per_type;
  /// Per-tenant driver accounting (multi-tenant overload runs).
  std::unordered_map<uint32_t, TenantStats> tenants;
  std::vector<std::pair<double, double>> throughput_series;
  uint64_t events_processed = 0;
  uint64_t network_messages = 0;
  /// Host wall-clock time RunExperiment spent simulating this run. The
  /// loopback smoke reports measured-vs-sim-predicted throughput; this is
  /// the companion metric — what the prediction itself cost to compute.
  double wall_seconds = 0.0;
  size_t footprint_bytes = 0;
  /// GlobalMetrics() snapshot taken before teardown (collect_metrics runs
  /// only; empty otherwise). Gauges/histograms borrow node state, so this
  /// is the only safe place to evaluate them.
  std::string metrics_json;
  /// Spans recorded during the run (trace_sample_rate > 0 only).
  size_t trace_spans = 0;

  /// Physical WAL flushes per committed transaction — the Fig. 6-style
  /// durability-cost metric bench_group_commit sweeps.
  double FsyncsPerCommit() const {
    return run.committed == 0 ? 0.0
                              : static_cast<double>(wal_fsyncs) /
                                    static_cast<double>(run.committed);
  }

  double Tps() const { return run.ThroughputTps(); }
  double AbortRate() const { return run.AbortRate(); }
  double MeanLatencyMs() const { return run.latency.Mean() / 1000.0; }
  double P99LatencyMs() const {
    return MicrosToMs(run.latency.P99());
  }
};

/// Runs one experiment to completion: describes the deployment, builds it
/// on the simulator (workload/deployment.h), drives it with one client
/// and collects the metrics. Every SystemKind takes this one path.
ExperimentResult RunExperiment(const ExperimentConfig& config);

}  // namespace workload
}  // namespace geotp

#endif  // GEOTP_WORKLOAD_RUNNER_H_
