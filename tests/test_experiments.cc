// End-to-end experiment-runner tests: the headline paper shapes must hold
// on small, fast runs (the benches regenerate the full figures).
#include <gtest/gtest.h>

#include "sim/event_loop.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "workload/runner.h"

namespace geotp {
namespace workload {
namespace {

ExperimentConfig Base() {
  ExperimentConfig config;
  config.driver.terminals = 32;
  config.driver.warmup = SecToMicros(3);
  config.driver.measure = SecToMicros(15);
  config.ycsb.distributed_ratio = 0.5;
  return config;
}

TEST(ExperimentTest, RunsAreDeterministicForSameSeed) {
  ExperimentConfig config = Base();
  config.system = SystemKind::kGeoTP;
  const auto a = RunExperiment(config);
  const auto b = RunExperiment(config);
  EXPECT_EQ(a.run.committed, b.run.committed);
  EXPECT_EQ(a.run.abort_events, b.run.abort_events);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(ExperimentTest, SeedsChangeOutcomes) {
  ExperimentConfig config = Base();
  config.system = SystemKind::kGeoTP;
  const auto a = RunExperiment(config);
  config.seed = 999;
  const auto b = RunExperiment(config);
  EXPECT_NE(a.run.committed, b.run.committed);
}

TEST(ExperimentTest, GeoTpBeatsSspAtMediumContention) {
  // The headline claim at MC (Fig. 5 / Fig. 7).
  ExperimentConfig config = Base();
  config.ycsb.theta = 0.9;
  config.system = SystemKind::kSSP;
  const auto ssp = RunExperiment(config);
  config.system = SystemKind::kGeoTP;
  const auto geotp = RunExperiment(config);
  EXPECT_GT(geotp.Tps(), ssp.Tps() * 1.5)
      << "geotp=" << geotp.Tps() << " ssp=" << ssp.Tps();
  EXPECT_LT(geotp.MeanLatencyMs(), ssp.MeanLatencyMs());
}

TEST(ExperimentTest, DecentralizedPrepareCutsDistributedLatency) {
  // O1 removes one WAN round trip from distributed commits (Fig. 4a):
  // ~100ms on the default topology's 251ms max link at low contention.
  ExperimentConfig config = Base();
  config.ycsb.theta = 0.3;
  config.system = SystemKind::kSSP;
  const auto ssp = RunExperiment(config);
  config.system = SystemKind::kGeoTPO1;
  const auto o1 = RunExperiment(config);
  const double ssp_dist = ssp.run.distributed_latency.Mean() / 1000.0;
  const double o1_dist = o1.run.distributed_latency.Mean() / 1000.0;
  EXPECT_LT(o1_dist, ssp_dist - 80.0)
      << "o1=" << o1_dist << "ms ssp=" << ssp_dist << "ms";
}

TEST(ExperimentTest, AblationOrderingAtHighContention) {
  // Fig. 12's story: O1 alone collapses at high skew; O2 rescues it; O3
  // further cuts p99/aborts.
  ExperimentConfig config = Base();
  config.ycsb.theta = 1.5;
  config.driver.measure = SecToMicros(30);
  config.system = SystemKind::kGeoTPO1;
  const auto o1 = RunExperiment(config);
  config.system = SystemKind::kGeoTPO1O2;
  const auto o2 = RunExperiment(config);
  config.system = SystemKind::kGeoTP;
  const auto o3 = RunExperiment(config);
  EXPECT_GT(o2.Tps(), o1.Tps() * 2);
  // O3 matches O2 on throughput (within noise at this scale; the full
  // bench at 64 terminals shows the gain) while cutting the abort rate.
  EXPECT_GT(o3.Tps(), o2.Tps() * 0.9);
  EXPECT_LT(o3.AbortRate(), o2.AbortRate());
}

TEST(ExperimentTest, CentralizedTxnsSufferFromDistributedContention) {
  // The Fig. 1b motivation: centralized-transaction latency under medium
  // contention grows with the remote data source's latency even though
  // those transactions never touch it.
  auto run_with_ds2_rtt = [](double rtt_ms) {
    ExperimentConfig config;
    config.system = SystemKind::kSSP;
    config.ds_rtts_ms = {10.0, rtt_ms};
    config.ycsb.theta = 0.9;
    config.ycsb.distributed_ratio = 0.2;
    config.driver.terminals = 32;
    config.driver.warmup = SecToMicros(3);
    config.driver.measure = SecToMicros(15);
    const auto result = RunExperiment(config);
    return result.run.centralized_latency.Mean() / 1000.0;
  };
  const double at_20 = run_with_ds2_rtt(20.0);
  const double at_100 = run_with_ds2_rtt(100.0);
  EXPECT_GT(at_100, at_20 * 1.3)
      << "at20=" << at_20 << "ms at100=" << at_100 << "ms";
}

TEST(ExperimentTest, TpccRunsAllFiveTypes) {
  ExperimentConfig config = Base();
  config.workload = WorkloadKind::kTpcc;
  config.system = SystemKind::kGeoTP;
  const auto result = RunExperiment(config);
  EXPECT_GT(result.run.committed, 50u);
  // All five transaction types appear in the per-type stats.
  int types_seen = 0;
  for (const auto& [tag, stats] : result.per_type) {
    if (stats.committed > 0) ++types_seen;
  }
  EXPECT_EQ(types_seen, 5);
}

TEST(ExperimentTest, DynamicLatencyHookRuns) {
  // Fig. 11b plumbing: re-shape a link mid-run; GeoTP keeps committing.
  ExperimentConfig config = Base();
  config.system = SystemKind::kGeoTP;
  config.pre_run = [](sim::EventLoop* loop, sim::Network* network) {
    loop->Schedule(SecToMicros(8), [network]() {
      network->matrix().SetSymmetric(1, 3, sim::LinkSpec::FromRttMs(150.0));
    });
  };
  const auto result = RunExperiment(config);
  EXPECT_GT(result.run.committed, 100u);
  EXPECT_FALSE(result.throughput_series.empty());
}

TEST(ExperimentTest, JitterProducesVariedLatencies) {
  ExperimentConfig config = Base();
  config.system = SystemKind::kGeoTP;
  config.jitter_frac = 0.2;
  const auto result = RunExperiment(config);
  EXPECT_GT(result.run.committed, 50u);
  EXPECT_GT(result.run.latency.max(), result.run.latency.min());
}

TEST(ExperimentTest, HeterogeneousDialectsWork) {
  ExperimentConfig config = Base();
  config.system = SystemKind::kGeoTP;
  config.engines = {storage::PostgresEngineConfig(),
                    storage::MySqlEngineConfig(),
                    storage::PostgresEngineConfig(),
                    storage::MySqlEngineConfig()};
  const auto result = RunExperiment(config);
  EXPECT_GT(result.run.committed, 100u);
}

TEST(ExperimentTest, BreakdownIsPopulated) {
  ExperimentConfig config = Base();
  config.system = SystemKind::kGeoTP;
  const auto result = RunExperiment(config);
  EXPECT_GT(result.breakdown.count(metrics::TxnPhase::kExecution), 0u);
  EXPECT_GT(result.breakdown.MeanMs(metrics::TxnPhase::kExecution), 1.0);
}

TEST(ExperimentTest, SystemNamesAreDistinct) {
  std::set<std::string> names;
  for (int s = 0; s <= static_cast<int>(SystemKind::kYugabyte); ++s) {
    names.insert(SystemName(static_cast<SystemKind>(s)));
  }
  EXPECT_EQ(names.size(), 10u);
}

}  // namespace
}  // namespace workload
}  // namespace geotp
