// Elastic sharding: skewed YCSB whose hot keys live on the FAR data
// source (mirror_keyspace pins the zipf head to the 251 ms London node),
// swept over skew x {static placement, hotspot-driven rebalancing}.
//
// With static placement the latency-aware scheduler can only hide the WAN
// round trips to the hot partition; with the balancer on, the hot chunks
// migrate to the DM-local source early in the run and both the p50
// latency and the distributed-transaction ratio drop. Acceptance: >= 20%
// p50 latency or distributed-ratio improvement at the headline skew.
//
// Second scenario — skew WITHIN one chunk: the far partition is a single
// huge preloaded chunk whose zipf head occupies a tiny sub-range.
// Migrating the whole chunk means ingesting every resident record at the
// destination, which blows the migration timeout every attempt; with
// online split the balancer carves the hot sub-range out (footprint heat
// histogram) and migrates only that. Acceptance: split p50 >= 20% better
// than the no-split baseline.
//
// Third scenario — large-range STREAMING: the same oversized preloaded
// chunk, but with a timeout that lets the whole-chunk move finish. The
// snapshot no longer ships as one message: it streams in bounded chunks
// under the destination's credit window, so the source's stream memory
// (its unacked retransmit buffer) must stay capped at the window while
// tens of chunks cross the WAN. Acceptance: the oversized migration
// completes, streams in >= 16 chunks, and the peak unacked-chunk
// watermark never exceeds the configured window.
#include "bench_common.h"

using namespace geotp;
using namespace geotp::bench;

namespace {

struct Row {
  ExperimentResult result;
  double p50_ms = 0;
  double dist_ratio = 0;
};

Row RunOne(double theta, bool elastic) {
  ExperimentConfig config = DefaultConfig();
  config.system = SystemKind::kGeoTP;
  config.workload = workload::WorkloadKind::kYcsb;
  config.ycsb.theta = theta;
  config.ycsb.distributed_ratio = 0.3;
  // Hot head on the far (251 ms) partition: the scenario static
  // placement cannot fix.
  config.ycsb.mirror_keyspace = true;
  config.driver.terminals = 64;
  config.driver.warmup = SecToMicros(8);   // migrations settle in warmup
  config.driver.measure = SecToMicros(20);
  config.sharding = elastic;
  config.shard_chunks_per_source = 8;
  config.balancer.interval = MsToMicros(300);
  config.balancer.min_heat = 10;  // low bar: the rtt-gain test gates moves
  config.balancer.min_rtt_gain = MsToMicros(40);
  config.balancer.max_concurrent = 2;
  config.balancer.migration_timeout = SecToMicros(5);

  Row row;
  row.result = RunTracked(config);
  row.p50_ms = MicrosToMs(row.result.run.latency.P50());
  const auto& dm = row.result.dm;
  row.dist_ratio = dm.committed == 0
                       ? 0.0
                       : static_cast<double>(dm.committed_distributed) /
                             static_cast<double>(dm.committed);
  return row;
}

// Skew-within-chunk: one huge preloaded chunk per source, hot zipf head
// inside the far one. `split` toggles the balancer's online range split;
// without it the only move available is the whole 60k-record chunk, whose
// destination ingest (migration_apply_cost per record) cannot finish
// inside the migration timeout — boundaries stay frozen, exactly PR 3's
// gap.
Row RunSkewWithinChunk(bool split) {
  ExperimentConfig config = DefaultConfig();
  config.system = SystemKind::kGeoTP;
  config.workload = workload::WorkloadKind::kYcsb;
  config.ycsb.theta = 1.2;  // tight hot head inside the chunk
  config.ycsb.records_per_node = 60000;
  config.ycsb.distributed_ratio = 0.3;
  config.ycsb.mirror_keyspace = true;
  config.driver.terminals = 64;
  config.driver.warmup = SecToMicros(8);
  config.driver.measure = SecToMicros(20);
  config.sharding = true;
  config.shard_chunks_per_source = 1;  // chunk == partition: max skew-in-chunk
  config.preload = true;
  config.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->migration_apply_cost = 30;  // 60k records => 1.8 s ingest
  };
  config.balancer.interval = MsToMicros(300);
  config.balancer.min_heat = 10;
  config.balancer.min_rtt_gain = MsToMicros(40);
  config.balancer.max_concurrent = 2;
  config.balancer.migration_timeout = SecToMicros(1);
  config.balancer.split_enabled = split;

  Row row;
  row.result = RunTracked(config);
  row.p50_ms = MicrosToMs(row.result.run.latency.P50());
  const auto& dm = row.result.dm;
  row.dist_ratio = dm.committed == 0
                       ? 0.0
                       : static_cast<double>(dm.committed_distributed) /
                             static_cast<double>(dm.committed);
  return row;
}

// Large-range streaming: one huge preloaded chunk per source, whole-chunk
// migration allowed to complete (no split, generous timeout). Exercises
// the chunked stream + credit window end to end at bench scale.
constexpr uint64_t kStreamWindow = 4;
constexpr uint64_t kStreamChunkRecords = 1024;

Row RunLargeRangeStreaming() {
  ExperimentConfig config = DefaultConfig();
  config.system = SystemKind::kGeoTP;
  config.workload = workload::WorkloadKind::kYcsb;
  config.ycsb.theta = 1.2;
  config.ycsb.records_per_node = 60000;
  config.ycsb.distributed_ratio = 0.3;
  config.ycsb.mirror_keyspace = true;
  config.driver.terminals = 64;
  config.driver.warmup = SecToMicros(8);
  config.driver.measure = SecToMicros(20);
  config.sharding = true;
  config.shard_chunks_per_source = 1;  // one oversized range per source
  config.preload = true;
  config.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->migration_apply_cost = 10;  // 60k records => 600 ms total ingest
    ds->migration_chunk_records = kStreamChunkRecords;  // ~59 chunks
    ds->migration_stream_window = kStreamWindow;
  };
  config.balancer.interval = MsToMicros(300);
  config.balancer.min_heat = 10;
  config.balancer.min_rtt_gain = MsToMicros(40);
  config.balancer.max_concurrent = 2;
  config.balancer.migration_timeout = SecToMicros(8);  // streaming fits
  config.balancer.split_enabled = false;  // force the whole-range move

  Row row;
  row.result = RunTracked(config);
  row.p50_ms = MicrosToMs(row.result.run.latency.P50());
  const auto& dm = row.result.dm;
  row.dist_ratio = dm.committed == 0
                       ? 0.0
                       : static_cast<double>(dm.committed_distributed) /
                             static_cast<double>(dm.committed);
  return row;
}

void PrintDetail(double theta, const char* label, const Row& row) {
  std::printf(
      "%5.2f %-9s tput=%8.1f txn/s  p50=%8.1f ms  p99=%9.1f ms  "
      "dist=%5.1f%%  abort=%5.1f%%  epoch=%llu\n",
      theta, label, row.result.Tps(), row.p50_ms,
      MicrosToMs(row.result.run.latency.P99()), 100.0 * row.dist_ratio,
      100.0 * row.result.AbortRate(),
      static_cast<unsigned long long>(row.result.dm.shard_map_epoch));
  std::fflush(stdout);
}

}  // namespace

int main() {
  PrintHeader(
      "Rebalance sweep (GeoTP, mirrored YCSB: hot keys on the 251ms node)");
  std::printf("%5s %-9s\n", "theta", "placement");

  double headline_p50_gain = 0.0;
  double headline_dist_gain = 0.0;
  for (double theta : {0.9, 1.2}) {
    const Row fixed = RunOne(theta, /*elastic=*/false);
    PrintDetail(theta, "static", fixed);
    const Row elastic = RunOne(theta, /*elastic=*/true);
    PrintDetail(theta, "elastic", elastic);
    if (theta == 0.9) {
      headline_p50_gain =
          fixed.p50_ms <= 0 ? 0.0 : 1.0 - elastic.p50_ms / fixed.p50_ms;
      headline_dist_gain =
          fixed.dist_ratio <= 0
              ? 0.0
              : 1.0 - elastic.dist_ratio / fixed.dist_ratio;
    }
  }

  std::printf(
      "summary: theta=0.9 p50 improvement=%.1f%%  distributed-ratio "
      "improvement=%.1f%% (target >= 20%% on either)\n",
      100.0 * headline_p50_gain, 100.0 * headline_dist_gain);
  std::printf(
      "\nSkew-within-chunk (theta 1.2 head inside one preloaded 60k-record "
      "chunk,\nwhole-chunk ingest 1.8s vs 1s migration timeout):\n");
  std::printf("%5s %-9s\n", "theta", "split");
  const Row no_split = RunSkewWithinChunk(/*split=*/false);
  PrintDetail(1.2, "no-split", no_split);
  const Row with_split = RunSkewWithinChunk(/*split=*/true);
  PrintDetail(1.2, "split", with_split);
  const double split_p50_gain =
      no_split.p50_ms <= 0 ? 0.0 : 1.0 - with_split.p50_ms / no_split.p50_ms;
  std::printf(
      "summary: skew-within-chunk p50 no-split=%.1f ms  split=%.1f ms  "
      "improvement=%.1f%% (target >= 20%%)\n",
      no_split.p50_ms, with_split.p50_ms, 100.0 * split_p50_gain);

  std::printf(
      "\nLarge-range streaming (oversized 60k-record chunk, whole-range "
      "move,\nchunked snapshot under a %llu-chunk credit window):\n",
      static_cast<unsigned long long>(kStreamWindow));
  const Row streaming = RunLargeRangeStreaming();
  PrintDetail(1.2, "stream", streaming);
  const auto& mig = streaming.result.migration;
  std::printf(
      "summary: streaming chunks=%llu records=%llu peak_unacked=%llu "
      "(window %llu) retransmits=%llu streams_completed=%llu "
      "cutovers_reported=%llu map_epoch=%llu\n",
      static_cast<unsigned long long>(mig.snapshot_chunks_sent),
      static_cast<unsigned long long>(mig.snapshot_records_sent),
      static_cast<unsigned long long>(mig.peak_unacked_chunks),
      static_cast<unsigned long long>(kStreamWindow),
      static_cast<unsigned long long>(mig.chunk_retransmits),
      static_cast<unsigned long long>(mig.streams_completed),
      static_cast<unsigned long long>(mig.cutovers_reported),
      static_cast<unsigned long long>(streaming.result.dm.shard_map_epoch));
  const double wan_ratio =
      mig.wan_bytes_wire == 0
          ? 0.0
          : static_cast<double>(mig.wan_bytes_raw) /
                static_cast<double>(mig.wan_bytes_wire);
  std::printf("wan: raw_bytes=%llu wire_bytes=%llu ratio=%.2f\n",
              static_cast<unsigned long long>(mig.wan_bytes_raw),
              static_cast<unsigned long long>(mig.wan_bytes_wire), wan_ratio);

  const bool sweep_pass =
      headline_p50_gain >= 0.20 || headline_dist_gain >= 0.20;
  const bool split_pass = split_p50_gain >= 0.20;
  // The oversized move must complete (epoch advanced past 0) by streaming
  // in bounded chunks, with the source's stream memory capped by the
  // receiver's credit window.
  const bool stream_pass = streaming.result.dm.shard_map_epoch >= 1 &&
                           mig.streams_completed >= 1 &&
                           mig.snapshot_chunks_sent >= 16 &&
                           mig.peak_unacked_chunks <= kStreamWindow;
  const bool pass = sweep_pass && split_pass && stream_pass;
  PrintSimWallSummary();
  std::printf("acceptance: %s\n", pass ? "PASS" : "FAIL");
  std::printf(
      "\nExpected shape: under static placement every hot transaction pays\n"
      "251 ms round trips; the balancer co-locates the hot chunks with the\n"
      "DM region within the warmup and the measured p50 collapses toward\n"
      "the local RTT, with fewer multi-source transactions. In the\n"
      "skew-within-chunk scenario the no-split balancer keeps attempting\n"
      "(and timing out on) the oversized whole-chunk move, so the hot head\n"
      "stays remote; with online split the hot sub-range is carved out\n"
      "within the warmup and migrated in one ~100 ms ingest. In the\n"
      "streaming scenario the same oversized range is allowed to move\n"
      "whole: the snapshot crosses as dozens of bounded chunks, the\n"
      "destination's credit window backpressures the source (peak unacked\n"
      "chunks <= window), and the migration still completes inside the\n"
      "relaxed timeout.\n");
  return pass ? 0 : 1;
}
