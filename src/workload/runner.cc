#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/sim_runtime.h"
#include "sim/topology.h"

namespace geotp {
namespace workload {

namespace {

ExperimentResult RunExperimentInner(const ExperimentConfig& config) {
  if (config.trace_sample_rate > 0.0) {
    obs::TraceConfig trace_config;
    trace_config.sample_rate = config.trace_sample_rate;
    obs::GlobalTracer().Reset();
    obs::GlobalTracer().Enable(trace_config);
  }
  sim::DefaultTopology topo =
      sim::DefaultTopology::Make(config.ds_rtts_ms, config.jitter_frac);
  sim::EventLoop loop;
  sim::Network network(&loop, topo.matrix, config.seed);
  runtime::SimRuntime runtime(&loop, &network);

  std::unique_ptr<WorkloadGenerator> generator;
  if (config.workload == WorkloadKind::kYcsb) {
    YcsbConfig ycsb = config.ycsb;
    ycsb.data_sources = topo.data_sources;
    generator = std::make_unique<YcsbGenerator>(ycsb);
  } else {
    TpccConfig tpcc = config.tpcc;
    tpcc.data_sources = topo.data_sources;
    generator = std::make_unique<TpccGenerator>(tpcc);
  }

  const bool yugabyte = config.system == SystemKind::kYugabyte;
  const bool ycsb = config.workload == WorkloadKind::kYcsb;
  Deployment deployment;
  deployment.system = config.system;
  // Yugabyte has no middleware hop: the client talks to the tablets.
  if (!yugabyte) deployment.middlewares = {topo.middleware};
  for (NodeId source : topo.data_sources) deployment.groups.push_back({source});
  generator->RegisterTables(&deployment.catalog);
  if (config.system < SystemKind::kScalarDb) {  // a middleware system
    deployment.dm = ConfigForSystem(config.system);
    if (config.dm_tweak) config.dm_tweak(&deployment.dm);
  }
  if (config.sharding && ycsb) {
    deployment.shard_map = sharding::ShardMap::FromRangePartition(
        config.ycsb.table_id, config.ycsb.records_per_node, topo.data_sources,
        config.shard_chunks_per_source);
    deployment.dm.balancer = config.balancer;
    deployment.dm.balancer.enabled = true;
  }
  if (config.preload && ycsb) {
    for (size_t i = 0; i < topo.data_sources.size(); ++i) {
      deployment.records.push_back(RecordRange{
          RecordKey{config.ycsb.table_id, i * config.ycsb.records_per_node},
          config.ycsb.records_per_node, 0});
    }
  }
  deployment.ds_tweak = [&config, &topo](NodeId node,
                                         datasource::DataSourceConfig* ds) {
    const size_t i = static_cast<size_t>(
        std::find(topo.data_sources.begin(), topo.data_sources.end(), node) -
        topo.data_sources.begin());
    if (i < config.engines.size()) ds->engine = config.engines[i];
    if (config.ds_tweak) config.ds_tweak(ds);
  };
  std::unique_ptr<Cluster> cluster = Build(deployment, &runtime);
  if (config.collect_metrics) {
    obs::GlobalMetrics().Clear();
    cluster->RegisterMetrics(&obs::GlobalMetrics());
  }

  DriverConfig driver_config = config.driver;
  driver_config.seed = config.seed * 7919 + 17;
  ClientDriver driver(runtime.EnvFor(topo.client),
                      yugabyte ? topo.data_sources.front() : topo.middleware,
                      generator.get(), driver_config);
  if (yugabyte) {
    const middleware::Catalog& catalog = cluster->catalog();
    driver.SetRouter([&catalog](const TxnSpec& spec) {
      return FirstKeyOwner(catalog, spec);
    });
  }
  driver.Attach();

  if (config.pre_run) config.pre_run(&loop, &network);
  driver.Start();
  loop.RunUntil(driver_config.warmup + driver_config.measure);

  ExperimentResult result;
  result.run = driver.stats();
  result.per_type = driver.type_stats();
  result.tenants = driver.tenant_stats();
  result.throughput_series = driver.series().Points();
  result.events_processed = loop.events_processed();
  result.network_messages = network.total_messages();
  if (cluster->num_dms() > 0) {
    middleware::MiddlewareNode& dm = cluster->dm();
    result.dm = dm.stats();
    result.breakdown = dm.breakdown();
    result.overload = dm.admission().stats();
    result.footprint_bytes = dm.footprint().ApproxBytes();
  }
  static_cast<Cluster::SourceTotals&>(result) = cluster->Totals();
  // Snapshot observability state before the nodes (which the registry's
  // gauge callbacks borrow) go out of scope.
  if (config.collect_metrics) {
    result.metrics_json = obs::GlobalMetrics().SnapshotJson();
    obs::GlobalMetrics().Clear();
  }
  if (config.trace_sample_rate > 0.0) {
    result.trace_spans = obs::GlobalTracer().span_count();
    obs::GlobalTracer().Disable();  // spans stay readable via Snapshot()
  }
  return result;
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  const auto wall_start = std::chrono::steady_clock::now();
  ExperimentResult result = RunExperimentInner(config);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace workload
}  // namespace geotp
