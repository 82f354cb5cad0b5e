// Shared helpers for the figure/table regeneration benches. Every bench is
// a standalone binary printing the same rows/series the paper reports;
// EXPERIMENTS.md records paper-vs-measured for each.
#ifndef GEOTP_BENCH_BENCH_COMMON_H_
#define GEOTP_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/topology.h"
#include "workload/runner.h"

namespace geotp {
namespace bench {

using workload::ExperimentConfig;
using workload::ExperimentResult;
using workload::SystemKind;
using workload::SystemName;
// NOTE: benches call RunTracked (below), not workload::RunExperiment,
// so every simulation gets sim-wall accounting and GEOTP_TRACE support.

/// Default measurement windows: long enough for stable numbers, short
/// enough that a full bench suite finishes in minutes.
inline ExperimentConfig DefaultConfig() {
  ExperimentConfig config;
  config.driver.terminals = 64;
  config.driver.warmup = SecToMicros(4);
  config.driver.measure = SecToMicros(24);
  return config;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::string& label, const ExperimentResult& r) {
  std::printf(
      "%-24s  tput=%8.1f txn/s  mean=%9.1f ms  p99=%10.1f ms  "
      "abort=%5.1f%%\n",
      label.c_str(), r.Tps(), r.MeanLatencyMs(), r.P99LatencyMs(),
      100.0 * r.AbortRate());
}

inline std::string Label(SystemKind system) { return SystemName(system); }

/// Prints every counter of a GEOTP_STAT_FIELDS struct on one line as
/// "name=value" pairs, in the order its field list names them. With
/// `per` > 0 each value is divided by it ("name/txn=0.123" for a count of
/// committed transactions).
template <class S>
void PrintStats(const S& stats, uint64_t per = 0) {
  const std::vector<std::string> names =
      SplitStatFieldNames(stats.FieldNames());
  size_t next = 0;
  auto print_one = [&](uint64_t value) {
    const char* sep = next == 0 ? "" : " ";
    if (per == 0) {
      std::printf("%s%s=%llu", sep, names[next].c_str(),
                  static_cast<unsigned long long>(value));
    } else {
      std::printf("%s%s/txn=%.3f", sep, names[next].c_str(),
                  static_cast<double>(value) / static_cast<double>(per));
    }
    ++next;
  };
  auto print = [&](const auto&... fields) {
    (print_one(static_cast<const uint64_t&>(fields)), ...);
  };
  stats.Fields(print);
  std::printf("\n");
}

/// The topology of the replicated scenarios: client + DM in one region;
/// data source i in region i at rtts_ms[i] from both, with two followers
/// co-located in its region (the builder defaults same-region links to the
/// LAN RTT) 1 ms further away; sources reach each other at the larger of
/// their two RTTs.
struct ReplicatedTopology {
  NodeId client = kInvalidNode;
  NodeId dm = kInvalidNode;
  std::vector<std::vector<NodeId>> groups;  ///< seed leader first
  sim::LatencyMatrix matrix{1};
};

inline ReplicatedTopology MakeReplicatedTopology(
    const std::vector<double>& rtts_ms) {
  sim::TopologyBuilder builder;
  ReplicatedTopology topo;
  topo.client = builder.AddNode(sim::NodeRole::kClient, "c1", "bj");
  topo.dm = builder.AddNode(sim::NodeRole::kMiddleware, "dm1", "bj");
  builder.SetRttMs(topo.client, topo.dm, 0.5);
  for (size_t i = 0; i < rtts_ms.size(); ++i) {
    const NodeId leader =
        builder.AddNode(sim::NodeRole::kDataSource,
                        "ds" + std::to_string(i + 1),
                        "region" + std::to_string(i));
    builder.SetRttMs(topo.dm, leader, rtts_ms[i]);
    builder.SetRttMs(topo.client, leader, rtts_ms[i]);
    for (size_t j = 0; j < i; ++j) {
      builder.SetRttMs(topo.groups[j][0], leader,
                       std::max(rtts_ms[i], rtts_ms[j]));
    }
    topo.groups.push_back({leader});
  }
  for (size_t i = 0; i < rtts_ms.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      const NodeId follower =
          builder.AddNode(sim::NodeRole::kDataSource, "follower",
                          "region" + std::to_string(i));
      builder.SetRttMs(topo.dm, follower, rtts_ms[i] + 1.0);
      builder.SetRttMs(topo.client, follower, rtts_ms[i] + 1.0);
      topo.groups[i].push_back(follower);
    }
  }
  topo.matrix = builder.Build();
  return topo;
}

/// Process-wide accumulator for the host wall-clock cost of every tracked
/// simulation in a bench binary. The acceptance benches print the summary
/// line just before their acceptance verdict, so the committed
/// bench/out/BENCH_*.json snapshots record what the sim run itself cost
/// per committed transaction — the counterpart to the loopback smoke's
/// measured-vs-predicted comparison.
struct SimWallTotals {
  double seconds = 0.0;
  uint64_t committed = 0;
};

inline SimWallTotals& SimWall() {
  static SimWallTotals totals;
  return totals;
}

/// Observability opt-in: GEOTP_TRACE=1 (scripts/run_bench.sh --trace)
/// samples every transaction, collects the metrics registry, and enables
/// the executor profiler; PrintSimWallSummary then writes the artifacts
/// next to the bench snapshots. Off (the default) nothing is touched, so
/// the committed BENCH_*.json numbers stay bit-identical.
inline bool TraceRequested() {
  const char* env = std::getenv("GEOTP_TRACE");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

/// Metrics snapshot of the most recent traced run (the registry's gauges
/// die with the experiment's nodes; the JSON survives here).
inline std::string& LastMetricsJson() {
  static std::string json;
  return json;
}

inline void DumpObsArtifacts();

/// Every bench simulation funnels through here (the bench namespace
/// shadows workload::RunExperiment with this wrapper): sim-wall
/// accounting always, plus — under GEOTP_TRACE — full sampling, metrics
/// collection, the profiler, and an atexit artifact dump so any bench
/// binary works with scripts/run_bench.sh --trace.
inline ExperimentResult RunTracked(const ExperimentConfig& config) {
  ExperimentConfig run_config = config;
  if (TraceRequested()) {
    run_config.trace_sample_rate = 1.0;
    run_config.collect_metrics = true;
    obs::GlobalProfiler().Enable();
    // Touch every function-local static DumpObsArtifacts reads BEFORE
    // registering the atexit hook: atexit handlers and static
    // destructors unwind as one LIFO stack, so anything first
    // constructed after the registration would already be destroyed
    // when the dump runs.
    obs::GlobalTracer();
    LastMetricsJson();
    static const bool registered = []() {
      std::atexit([]() { DumpObsArtifacts(); });
      return true;
    }();
    (void)registered;
  }
  ExperimentResult result = workload::RunExperiment(run_config);
  if (TraceRequested()) LastMetricsJson() = result.metrics_json;
  SimWall().seconds += result.wall_seconds;
  SimWall().committed += result.run.committed;
  return result;
}

/// Writes trace/metrics/profiler artifacts for a traced bench run:
/// <prefix>_trace.json (Chrome trace-event, Perfetto loadable — the LAST
/// experiment's spans; each run resets the tracer), <prefix>_slowest.txt,
/// <prefix>_metrics.json, <prefix>_profile.json (cumulative handler/queue
/// timings across every run of the binary). Prefix from GEOTP_TRACE_OUT,
/// default "bench/out/trace".
inline void DumpObsArtifacts() {
  const char* env = std::getenv("GEOTP_TRACE_OUT");
  const std::string prefix = env != nullptr && env[0] != '\0'
                                 ? env
                                 : "bench/out/trace";
  obs::Tracer& tracer = obs::GlobalTracer();
  {
    std::ofstream out(prefix + "_trace.json");
    tracer.ExportChromeTrace(out, /*pid=*/0);
  }
  {
    std::ofstream out(prefix + "_slowest.txt");
    out << obs::SlowestTracesReport(tracer.Snapshot(), /*k=*/8);
  }
  {
    std::ofstream out(prefix + "_metrics.json");
    out << LastMetricsJson();
  }
  {
    std::ofstream out(prefix + "_profile.json");
    out << obs::GlobalProfiler().ReportJson();
  }
  std::printf("obs artifacts: %s_{trace,metrics,profile}.json (%zu spans)\n",
              prefix.c_str(), tracer.span_count());
}

inline void PrintSimWallSummary() {
  const SimWallTotals& t = SimWall();
  std::printf("sim-wall: %.2f s host time, %llu committed txns, %.1f "
              "us/committed-txn\n",
              t.seconds, static_cast<unsigned long long>(t.committed),
              t.committed == 0 ? 0.0 : t.seconds * 1e6 / t.committed);
  // Trace artifacts (GEOTP_TRACE) are written by RunTracked's atexit
  // hook, after the final experiment's spans are in.
}

}  // namespace bench
}  // namespace geotp

#endif  // GEOTP_BENCH_BENCH_COMMON_H_
