// Group-commit sweep: batch delay x concurrency.
//
// The paper's Fig. 6 cost breakdown shows durability (the XA PREPARE and
// COMMIT fsyncs) dominating data-source time. This bench quantifies how
// much of that cost group commit amortizes: for each terminal count it
// runs the unbatched baseline (one fsync per record on the same serial
// log device: max_batch_size = 1) against group commit at several batch-delay
// settings, reporting committed throughput, mean latency, WAL entries vs
// physical fsyncs, and fsyncs per committed transaction.
//
// Acceptance tracking: at >= 64 terminals the batched rows must show
// >= 30% fewer fsyncs per commit than the unbatched baseline (the closing
// summary line states the measured reduction).
// WAN accounting: a second, replicated scenario measures the bytes the
// leader->follower log shipping puts on the (simulated) WAN: the packed
// entry batches vs their sealed, block-compressed envelopes. Acceptance
// additionally requires a >= 2x compression ratio on the shipped entry
// batches (the "wan:" line; scripts/run_bench.sh lifts it into
// BENCH_group_commit.json).
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "replication/replicator.h"
#include "runtime/sim_runtime.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "workload/deployment.h"
#include "workload/driver.h"
#include "workload/ycsb.h"

using namespace geotp;
using namespace geotp::bench;

namespace {

struct Row {
  int terminals;
  const char* label;
  ExperimentResult result;
};

ExperimentResult RunOne(int terminals, bool batching, Micros batch_delay) {
  ExperimentConfig config = DefaultConfig();
  config.system = SystemKind::kGeoTP;
  config.driver.terminals = terminals;
  config.ycsb.theta = 0.7;
  config.ycsb.distributed_ratio = 0.2;
  config.ds_tweak = [batching, batch_delay](datasource::DataSourceConfig* ds) {
    if (!batching) ds->group_commit.max_batch_size = 1;
    ds->group_commit.max_batch_delay = batch_delay;
  };
  return RunTracked(config);
}

void PrintDetail(const Row& row) {
  const auto& r = row.result;
  std::printf(
      "%4d %-14s  tput=%8.1f txn/s  mean=%7.1f ms  entries=%7llu  "
      "fsyncs=%7llu  fsyncs/commit=%6.2f  max_batch=%llu\n",
      row.terminals, row.label, r.Tps(), r.MeanLatencyMs(),
      static_cast<unsigned long long>(r.wal_entries),
      static_cast<unsigned long long>(r.wal_fsyncs), r.FsyncsPerCommit(),
      static_cast<unsigned long long>(r.group_commit.max_batch_entries));
}

// ---------------------------------------------------------------------------
// WAN log-shipping accounting: two 3-replica groups behind one DM, same
// YCSB mix as the sweep above, built from a workload::Deployment (the
// single-DM runner does not wire replication). The leaders' shippers count every
// entry batch twice — packed bytes before the codec and bytes actually
// sent — so one run yields the ratio directly.
// ---------------------------------------------------------------------------

struct WanResult {
  uint64_t raw = 0;
  uint64_t wire = 0;
};

WanResult RunWanShipping() {
  const ReplicatedTopology topo = MakeReplicatedTopology({27, 73});
  sim::EventLoop loop;
  sim::Network network(&loop, topo.matrix);
  runtime::SimRuntime runtime(&loop, &network);

  workload::YcsbConfig ycsb;
  ycsb.data_sources = {topo.groups[0][0], topo.groups[1][0]};
  ycsb.theta = 0.7;
  ycsb.distributed_ratio = 0.2;
  workload::YcsbGenerator gen(ycsb);
  workload::Deployment deployment;
  deployment.middlewares = {topo.dm};
  deployment.groups = topo.groups;
  gen.RegisterTables(&deployment.catalog);
  const std::unique_ptr<workload::Cluster> cluster =
      workload::Build(deployment, &runtime);

  workload::DriverConfig driver_config;
  driver_config.terminals = 64;
  driver_config.warmup = SecToMicros(2);
  driver_config.measure = SecToMicros(12);
  workload::ClientDriver driver(runtime.EnvFor(topo.client), topo.dm, &gen,
                                driver_config);
  driver.Attach();
  driver.Start();
  loop.RunUntil(driver_config.warmup + driver_config.measure);

  WanResult out;
  for (const auto& node : cluster->sources()) {
    if (node->replicator() != nullptr && node->replicator()->IsLeader()) {
      out.raw += node->replicator()->shipper_stats().wan_bytes_raw;
      out.wire += node->replicator()->shipper_stats().wan_bytes_wire;
    }
  }
  return out;
}

}  // namespace

int main() {
  PrintHeader("Group commit sweep (GeoTP, YCSB theta=0.7, 20% distributed)");
  std::printf("%4s %-14s\n", "term", "policy");

  const int kTerminals[] = {16, 64, 256};
  const Micros kDelays[] = {0, 200, 1000, 3000};

  double baseline_64 = 0.0;
  double best_batched_64 = -1.0;
  for (int terminals : kTerminals) {
    const ExperimentResult unbatched =
        RunOne(terminals, /*batching=*/false, 0);
    PrintDetail(Row{terminals, "unbatched", unbatched});
    if (terminals >= 64 && baseline_64 == 0.0) {
      baseline_64 = unbatched.FsyncsPerCommit();
    }
    for (Micros delay : kDelays) {
      char label[32];
      std::snprintf(label, sizeof(label), "batch(%lldus)",
                    static_cast<long long>(delay));
      const ExperimentResult batched = RunOne(terminals, true, delay);
      PrintDetail(Row{terminals, label, batched});
      if (terminals == 64 &&
          (best_batched_64 < 0 ||
           batched.FsyncsPerCommit() < best_batched_64)) {
        best_batched_64 = batched.FsyncsPerCommit();
      }
    }
  }

  std::printf(
      "\nWAN log shipping (two 3-replica groups, same YCSB mix, group "
      "commit on):\n");
  const WanResult wan = RunWanShipping();
  const double wan_ratio =
      wan.wire == 0 ? 0.0 : static_cast<double>(wan.raw) /
                                static_cast<double>(wan.wire);
  std::printf(
      "wan: raw_bytes=%llu wire_bytes=%llu ratio=%.2f (target >= 2.0)\n",
      static_cast<unsigned long long>(wan.raw),
      static_cast<unsigned long long>(wan.wire), wan_ratio);

  if (baseline_64 > 0.0 && best_batched_64 >= 0.0) {
    const double reduction = 1.0 - best_batched_64 / baseline_64;
    std::printf(
        "summary: fsyncs/commit at 64 terminals: unbatched=%.2f "
        "batched(best)=%.2f reduction=%.1f%% (target >= 30%%)\n",
        baseline_64, best_batched_64, 100.0 * reduction);
    PrintSimWallSummary();
    const bool pass = reduction >= 0.30 && wan_ratio >= 2.0;
    std::printf("acceptance: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
  }
  return 1;
}
