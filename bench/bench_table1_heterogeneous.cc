// Table I: heterogeneous deployments. S1 = MySQL on all 4 nodes; S2 =
// PostgreSQL on N1 & N3, MySQL on N2 & N4; S3 = PostgreSQL everywhere.
// dr in {25%, 75%}; SSP vs GeoTP, throughput and average latency.
#include "bench_common.h"

using namespace geotp;
using namespace geotp::bench;

int main() {
  PrintHeader("Table I — heterogeneous deployments (YCSB MC)");
  const storage::EngineConfig my = storage::MySqlEngineConfig();
  const storage::EngineConfig pg = storage::PostgresEngineConfig();
  struct Scenario {
    const char* name;
    std::vector<storage::EngineConfig> engines;
  };
  const Scenario scenarios[] = {
      {"S1 (all MySQL)", {my, my, my, my}},
      {"S2 (PG/My mixed)", {pg, my, pg, my}},
      {"S3 (all PostgreSQL)", {pg, pg, pg, pg}},
  };
  std::printf("%-20s %-8s %-12s %18s %18s\n", "scenario", "dr", "system",
              "throughput(txn/s)", "avg latency(ms)");
  for (const Scenario& scenario : scenarios) {
    for (double dr : {0.25, 0.75}) {
      for (SystemKind system : {SystemKind::kSSP, SystemKind::kGeoTP}) {
        ExperimentConfig config = DefaultConfig();
        config.system = system;
        config.engines = scenario.engines;
        config.ycsb.theta = 0.9;
        config.ycsb.distributed_ratio = dr;
        const auto r = RunTracked(config);
        std::printf("%-20s %-8.0f%% %-12s %18.1f %18.1f\n", scenario.name,
                    dr * 100, Label(system).c_str(), r.Tps(),
                    r.MeanLatencyMs());
        std::fflush(stdout);
      }
    }
  }
  std::printf(
      "\nExpected shape (paper Table I): GeoTP wins every cell — 3.6x to\n"
      "7.5x throughput and 62%%-87.8%% lower latency — regardless of the\n"
      "engine mix; both engines suffer long contention spans under SSP.\n");
  return 0;
}
