// Figure 6: resource utilisation and per-transaction breakdown.
//
// 6a/6b (CPU / memory of a Java process) cannot be reproduced in a
// discrete-event simulation; we report the simulator-native proxies
// documented in DESIGN.md: coordination work per committed transaction
// (events + messages — CPU proxy) and metadata bytes (memory proxy).
// 6c (the per-phase latency breakdown of one transaction lifecycle) is
// reproduced directly.
#include "bench_common.h"

using namespace geotp;
using namespace geotp::bench;

int main() {
  PrintHeader("Fig. 6a/6b — resource proxies (SSP vs GeoTP, YCSB MC)");
  std::printf("%-12s %16s %16s %16s %14s %14s\n", "system", "events/commit",
              "msgs/commit", "footprint bytes", "wal entries", "fsyncs/commit");
  for (SystemKind system : {SystemKind::kSSP, SystemKind::kGeoTP}) {
    ExperimentConfig config = DefaultConfig();
    config.system = system;
    config.ycsb.theta = 0.9;
    config.ycsb.distributed_ratio = 0.2;
    const auto r = RunTracked(config);
    const double commits = static_cast<double>(
        r.run.committed > 0 ? r.run.committed : 1);
    std::printf("%-12s %16.1f %16.1f %16zu %14llu %14.2f\n",
                Label(system).c_str(),
                static_cast<double>(r.events_processed) / commits,
                static_cast<double>(r.network_messages) / commits,
                r.footprint_bytes,
                static_cast<unsigned long long>(r.wal_entries),
                r.FsyncsPerCommit());
  }
  std::printf(
      "Expected shape: GeoTP does LESS coordination per committed txn\n"
      "(~30%% CPU-efficiency win in the paper) while holding extra hot-\n"
      "record metadata (the paper's ~300MB memory delta).\n");

  PrintHeader("Fig. 6c — per-transaction phase breakdown (GeoTP, YCSB MC)");
  ExperimentConfig config = DefaultConfig();
  config.system = SystemKind::kGeoTP;
  config.ycsb.theta = 0.9;
  config.ycsb.distributed_ratio = 0.2;
  const auto r = RunTracked(config);
  std::printf("%-12s %10s %10s %10s\n", "phase", "mean", "p50", "p99");
  for (int p = 0; p < static_cast<int>(metrics::TxnPhase::kNumPhases); ++p) {
    const auto phase = static_cast<metrics::TxnPhase>(p);
    std::printf("%-12s %8.2fms %8.2fms %8.2fms\n", metrics::TxnPhaseName(phase),
                r.breakdown.MeanMs(phase), r.breakdown.P50Ms(phase),
                r.breakdown.P99Ms(phase));
  }
  std::printf("mean end-to-end latency: %.1f ms\n", r.MeanLatencyMs());
  // Shard-map visibility: migrations (if any) show up in the perf
  // trajectory of every bench JSON that reports DM stats.
  std::printf("shard_map_epoch=%llu shard_redirects=%llu\n",
              static_cast<unsigned long long>(r.dm.shard_map_epoch),
              static_cast<unsigned long long>(r.dm.shard_redirects));
  std::printf(
      "Expected shape (paper Fig. 6c): analysis ~1ms, prepare-wait a few\n"
      "ms (decentralized prepare overlaps execution), execution and commit\n"
      "each ~1 WAN round trip and dominating.\n");

  PrintHeader("Overload-control counters (GeoTP, admission enabled)");
  // A deliberately over-offered run so the admission/shed/backoff path has
  // something to count: 512 closed-loop terminals against an in-flight
  // budget of 96 and bounded source run queues.
  ExperimentConfig oc = DefaultConfig();
  oc.system = SystemKind::kGeoTP;
  oc.driver.terminals = 512;
  oc.driver.warmup = SecToMicros(2);
  oc.driver.measure = SecToMicros(8);
  oc.driver.retry_budget = 16;
  oc.ycsb.theta = 0.9;
  oc.ycsb.distributed_ratio = 0.2;
  oc.dm_tweak = [](middleware::MiddlewareConfig* dm) {
    dm->overload.max_inflight = 96;
    dm->overload.max_dispatch_queue = 256;
  };
  oc.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->max_run_queue = 64;
  };
  const auto o = RunTracked(oc);
  std::printf("admitted=%llu shed_inflight=%llu shed_tenant=%llu "
              "shed_dispatch=%llu shed_source=%llu\n",
              static_cast<unsigned long long>(o.overload.admitted),
              static_cast<unsigned long long>(o.overload.shed_inflight),
              static_cast<unsigned long long>(o.overload.shed_tenant),
              static_cast<unsigned long long>(o.overload.shed_dispatch),
              static_cast<unsigned long long>(o.overload.shed_source));
  std::printf("peak_inflight=%llu peak_dispatch_queue=%llu "
              "run_queue_rejections=%llu\n",
              static_cast<unsigned long long>(o.overload.peak_inflight),
              static_cast<unsigned long long>(o.overload.peak_dispatch_queue),
              static_cast<unsigned long long>(o.sources.run_queue_rejections));
  std::printf("client: sheds=%llu retries=%llu retry_exhausted=%llu "
              "tput=%.1f txn/s\n",
              static_cast<unsigned long long>(o.run.sheds),
              static_cast<unsigned long long>(o.run.retries),
              static_cast<unsigned long long>(o.run.retry_exhausted),
              o.Tps());
  return 0;
}
