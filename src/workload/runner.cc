#include "workload/runner.h"

#include <chrono>

#include <memory>
#include <utility>

#include "baselines/baseline_runners.h"
#include "common/logging.h"
#include "datasource/data_source.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/topology.h"

namespace geotp {
namespace workload {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kSSP:
      return "SSP";
    case SystemKind::kSSPLocal:
      return "SSP(local)";
    case SystemKind::kQuro:
      return "QURO";
    case SystemKind::kChiller:
      return "Chiller";
    case SystemKind::kGeoTPO1:
      return "GeoTP(O1)";
    case SystemKind::kGeoTPO1O2:
      return "GeoTP(O1~O2)";
    case SystemKind::kGeoTP:
      return "GeoTP";
    case SystemKind::kScalarDb:
      return "ScalarDB";
    case SystemKind::kScalarDbPlus:
      return "ScalarDB+";
    case SystemKind::kYugabyte:
      return "YugabyteDB";
  }
  return "?";
}

middleware::MiddlewareConfig ConfigForSystem(SystemKind kind) {
  using middleware::MiddlewareConfig;
  switch (kind) {
    case SystemKind::kSSP:
      return MiddlewareConfig::SSP();
    case SystemKind::kSSPLocal:
      return MiddlewareConfig::SSPLocal();
    case SystemKind::kQuro:
      return MiddlewareConfig::Quro();
    case SystemKind::kChiller:
      return MiddlewareConfig::Chiller();
    case SystemKind::kGeoTPO1:
      return MiddlewareConfig::GeoTPO1();
    case SystemKind::kGeoTPO1O2:
      return MiddlewareConfig::GeoTPO1O2();
    case SystemKind::kGeoTP:
      return MiddlewareConfig::GeoTP();
    default:
      GEOTP_CHECK(false, "not a middleware system: "
                             << SystemName(kind));
  }
  return MiddlewareConfig::SSP();
}

namespace {

ExperimentResult RunExperimentInner(const ExperimentConfig& config);

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

namespace {

ExperimentResult RunExperimentInner(const ExperimentConfig& config) {
  if (config.system == SystemKind::kScalarDb ||
      config.system == SystemKind::kScalarDbPlus) {
    return baselines::RunScalarDbExperiment(config);
  }
  if (config.system == SystemKind::kYugabyte) {
    return baselines::RunYugabyteExperiment(config);
  }

  // ----- middleware-based systems ------------------------------------------
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

  middleware::MiddlewareConfig dm_config = ConfigForSystem(config.system);
  if (config.dm_tweak) config.dm_tweak(&dm_config);

  // Data sources.
  std::vector<std::unique_ptr<datasource::DataSourceNode>> sources;
  for (size_t i = 0; i < topo.data_sources.size(); ++i) {
    const sql::Dialect dialect = i < config.dialects.size()
                                     ? config.dialects[i]
                                     : sql::Dialect::kMySql;
    datasource::DataSourceConfig ds_config =
        dialect == sql::Dialect::kPostgres
            ? datasource::DataSourceConfig::Postgres()
            : datasource::DataSourceConfig::MySql();
    ds_config.early_abort = dm_config.early_abort;
    if (config.ds_tweak) config.ds_tweak(&ds_config);
    sources.push_back(std::make_unique<datasource::DataSourceNode>(
        topo.data_sources[i], &network, ds_config));
    sources.back()->Attach();
  }

  // Workload generator + catalog.
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
  middleware::Catalog catalog;
  generator->RegisterTables(&catalog);
  if (config.sharding && config.workload == WorkloadKind::kYcsb) {
    catalog.InstallShardMap(sharding::ShardMap::FromRangePartition(
        config.ycsb.table_id, config.ycsb.records_per_node,
        topo.data_sources, config.shard_chunks_per_source));
    dm_config.balancer = config.balancer;
    dm_config.balancer.enabled = true;
  }

  if (config.preload && config.workload == WorkloadKind::kYcsb) {
    for (size_t i = 0; i < sources.size(); ++i) {
      const uint64_t base = i * config.ycsb.records_per_node;
      for (uint64_t k = 0; k < config.ycsb.records_per_node; ++k) {
        sources[i]->engine().store().Apply(
            RecordKey{config.ycsb.table_id, base + k}, 0);
      }
    }
  }

  middleware::MiddlewareNode dm(topo.middleware, /*ordinal=*/0, &network,
                                std::move(catalog), dm_config);
  dm.Attach();
  if (config.collect_metrics) {
    obs::GlobalMetrics().Clear();
    dm.AttachMetrics(&obs::GlobalMetrics());
    for (const auto& src : sources) {
      src->RegisterMetrics(&obs::GlobalMetrics());
    }
  }

  DriverConfig driver_config = config.driver;
  driver_config.seed = config.seed * 7919 + 17;
  ClientDriver driver(topo.client, &network, topo.middleware,
                      generator.get(), driver_config);
  driver.Attach();

  if (config.pre_run) config.pre_run(&loop, &network);
  driver.Start();
  loop.RunUntil(driver_config.warmup + driver_config.measure);

  ExperimentResult result;
  result.run = driver.stats();
  result.dm = dm.stats();
  result.breakdown = dm.breakdown();
  result.overload = dm.admission().stats();
  result.per_type = driver.type_stats();
  result.tenants = driver.tenant_stats();
  result.throughput_series = driver.series().Points();
  result.events_processed = loop.events_processed();
  result.network_messages = network.total_messages();
  result.footprint_bytes = dm.footprint().ApproxBytes();
  for (const auto& src : sources) {
    result.wal_entries += src->engine().wal().entries().size();
    result.wal_fsyncs += src->engine().wal().fsyncs();
    metrics::Accumulate(&result.sources, src->stats());
    metrics::Accumulate(&result.group_commit, src->committer().stats());
    metrics::Accumulate(&result.migration, src->migrator().stats());
  }
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

}  // namespace workload
}  // namespace geotp
