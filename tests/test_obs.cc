// Observability layer tests: tracer mechanics, the cross-node trace tree
// a sampled experiment produces, span continuity across a leader failover,
// the metrics registry, the runtime profiler, and the pluggable log sink.
#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "datasource/data_source.h"
#include "gtest/gtest.h"
#include "metrics/stats.h"
#include "middleware/middleware.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/sim_runtime.h"
#include "sim/topology.h"
#include "sim_fixture.h"
#include "workload/deployment.h"
#include "workload/driver.h"
#include "workload/runner.h"
#include "workload/ycsb.h"

namespace geotp {
namespace {

// Each test owns the process-global tracer for its duration.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::GlobalTracer().Reset();
    obs::TraceConfig config;
    config.sample_rate = 1.0;
    obs::GlobalTracer().Enable(config);
  }
  void TearDown() override {
    obs::GlobalTracer().Disable();
    obs::GlobalTracer().Reset();
  }
};

TEST_F(TracerTest, BeginEndRecordsSpanTree) {
  obs::Tracer& tracer = obs::GlobalTracer();
  EXPECT_TRUE(tracer.enabled());
  EXPECT_TRUE(tracer.Sample(0.999));

  const obs::TraceContext root_ctx = tracer.NewTrace(0xdeadbeef, /*node=*/1);
  EXPECT_TRUE(root_ctx.valid());

  obs::TraceContext child_ctx;
  const obs::SpanHandle root =
      tracer.BeginSpan(root_ctx, "dm.txn", /*node=*/1, /*start=*/100,
                       &child_ctx);
  ASSERT_NE(root, obs::kInvalidSpan);
  EXPECT_EQ(child_ctx.trace_id, root_ctx.trace_id);
  EXPECT_NE(child_ctx.span_id, 0u);

  const obs::SpanHandle child =
      tracer.BeginSpan(child_ctx, "ds.branch_exec", /*node=*/2, /*start=*/150);
  ASSERT_NE(child, obs::kInvalidSpan);
  tracer.EndSpan(child, 250);
  tracer.EndSpan(root, 400);

  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const obs::SpanRecord& r = spans[0];
  const obs::SpanRecord& c = spans[1];
  EXPECT_EQ(r.name, "dm.txn");
  EXPECT_EQ(r.trace_id, root_ctx.trace_id);
  EXPECT_EQ(r.span_id, child_ctx.span_id);
  EXPECT_EQ(r.Duration(), 300);
  EXPECT_EQ(c.name, "ds.branch_exec");
  EXPECT_EQ(c.trace_id, r.trace_id);
  EXPECT_EQ(c.parent_span_id, r.span_id);
  EXPECT_EQ(c.node, 2);
  EXPECT_EQ(c.Duration(), 100);
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  obs::Tracer& tracer = obs::GlobalTracer();
  tracer.Disable();
  EXPECT_FALSE(tracer.Sample(0.0));
  const obs::TraceContext ctx{42, 0, 0};
  EXPECT_EQ(tracer.BeginSpan(ctx, "x", 1, 0), obs::kInvalidSpan);
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST_F(TracerTest, InvalidContextRecordsNothing) {
  obs::Tracer& tracer = obs::GlobalTracer();
  EXPECT_EQ(tracer.BeginSpan(obs::TraceContext{}, "x", 1, 0),
            obs::kInvalidSpan);
  tracer.EndSpan(obs::kInvalidSpan, 10);  // no-op, must not crash
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST_F(TracerTest, SpanCapDropsBeyondMax) {
  obs::Tracer& tracer = obs::GlobalTracer();
  obs::TraceConfig config;
  config.sample_rate = 1.0;
  config.max_spans = 4;
  tracer.Reset();
  tracer.Enable(config);
  const obs::TraceContext ctx = tracer.NewTrace(7, 1);
  for (int i = 0; i < 10; ++i) {
    const obs::SpanHandle h = tracer.BeginSpan(ctx, "s", 1, i);
    tracer.EndSpan(h, i + 1);
  }
  EXPECT_EQ(tracer.span_count(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST_F(TracerTest, TextDumpRoundTripsAcrossProcessBoundary) {
  obs::Tracer& tracer = obs::GlobalTracer();
  obs::TraceContext child_ctx;
  const obs::SpanHandle root =
      tracer.BeginSpan(tracer.NewTrace(3, 5), "dm.txn", 5, 10, &child_ctx);
  const obs::SpanHandle open =
      tracer.BeginSpan(child_ctx, "ds.quorum", 6, 20);  // left open
  (void)open;
  tracer.EndSpan(root, 90);

  std::ostringstream dump;
  tracer.DumpText(dump);
  std::istringstream in(dump.str());
  std::vector<obs::SpanRecord> parsed;
  EXPECT_EQ(obs::ReadSpansText(in, &parsed), 2u);
  const std::vector<obs::SpanRecord> original = tracer.Snapshot();
  ASSERT_EQ(parsed.size(), original.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, original[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, original[i].span_id);
    EXPECT_EQ(parsed[i].parent_span_id, original[i].parent_span_id);
    EXPECT_EQ(parsed[i].name, original[i].name);
    EXPECT_EQ(parsed[i].node, original[i].node);
    EXPECT_EQ(parsed[i].start, original[i].start);
    EXPECT_EQ(parsed[i].end, original[i].end);
  }

  // The merged Chrome export tags each process's spans with its pid.
  const std::string json = obs::ChromeTraceJson({{0, original}, {1, parsed}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("dm.txn"), std::string::npos);
}

TEST_F(TracerTest, SlowestReportRanksRootSpans) {
  obs::Tracer& tracer = obs::GlobalTracer();
  for (int i = 0; i < 3; ++i) {
    obs::TraceContext child_ctx;
    const obs::SpanHandle root = tracer.BeginSpan(
        tracer.NewTrace(100 + i, 1), "dm.txn", 1, 0, &child_ctx);
    const obs::SpanHandle child =
        tracer.BeginSpan(child_ctx, "dm.analysis", 1, 5);
    tracer.EndSpan(child, 10);
    tracer.EndSpan(root, (i + 1) * 1000);  // slowest is the last one
  }
  const std::string report =
      obs::SlowestTracesReport(tracer.Snapshot(), /*k=*/2);
  EXPECT_NE(report.find("dm.txn"), std::string::npos);
  EXPECT_NE(report.find("dm.analysis"), std::string::npos);
  // Only k=2 roots reported: 3000us and 2000us, never the 1000us one.
  EXPECT_NE(report.find("3000"), std::string::npos);
  EXPECT_EQ(report.find("1000 us"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end trace trees from a sampled experiment.
// ---------------------------------------------------------------------------

using TraceIndex = std::map<uint64_t, std::vector<obs::SpanRecord>>;

TraceIndex IndexByTrace(const std::vector<obs::SpanRecord>& spans) {
  TraceIndex index;
  for (const obs::SpanRecord& span : spans) {
    if (span.trace_id == obs::kSystemTraceId) continue;
    index[span.trace_id].push_back(span);
  }
  return index;
}

/// Every span's parent must exist within its own trace (or be the trace
/// root with parent 0): the propagation chain never produces orphans.
void ExpectWellFormed(const TraceIndex& index) {
  for (const auto& [trace_id, spans] : index) {
    std::set<uint64_t> ids;
    for (const obs::SpanRecord& span : spans) ids.insert(span.span_id);
    for (const obs::SpanRecord& span : spans) {
      if (span.parent_span_id == 0) continue;
      EXPECT_TRUE(ids.count(span.parent_span_id))
          << "orphan span '" << span.name << "' in trace " << trace_id;
    }
  }
}

TEST(TraceExperimentTest, DistributedTxnSpansFormOneConnectedTree) {
  workload::ExperimentConfig config;
  config.system = workload::SystemKind::kGeoTP;
  config.ds_rtts_ms = {1.0, 5.0};  // two data sources keeps the run fast
  config.ycsb.distributed_ratio = 1.0;
  config.driver.terminals = 8;
  config.driver.warmup = MsToMicros(200);
  config.driver.measure = SecToMicros(2);
  config.trace_sample_rate = 1.0;
  const auto result = workload::RunExperiment(config);
  ASSERT_GT(result.run.committed, 20u);
  EXPECT_GT(result.trace_spans, 0u);

  const TraceIndex index = IndexByTrace(obs::GlobalTracer().Snapshot());
  EXPECT_GE(index.size(), result.run.committed);
  ExpectWellFormed(index);

  // At least one distributed transaction: DM spans plus branch execution
  // on BOTH data sources, all under one trace id.
  bool found = false;
  for (const auto& [trace_id, spans] : index) {
    std::set<NodeId> exec_nodes;
    std::set<std::string> names;
    for (const obs::SpanRecord& span : spans) {
      names.insert(span.name);
      if (span.name == "ds.branch_exec") exec_nodes.insert(span.node);
    }
    if (exec_nodes.size() >= 2 && names.count("dm.analysis") &&
        names.count("dm.prepare_wait") && names.count("dm.commit")) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found)
      << "no trace covered DM analysis/prepare/commit plus branch "
         "execution on two data sources";
  obs::GlobalTracer().Reset();
}

TEST(TraceExperimentTest, SamplingRateZeroRecordsNoSpans) {
  workload::ExperimentConfig config;
  config.system = workload::SystemKind::kGeoTP;
  config.ds_rtts_ms = {1.0, 5.0};
  config.driver.terminals = 4;
  config.driver.warmup = MsToMicros(100);
  config.driver.measure = SecToMicros(1);
  const auto result = workload::RunExperiment(config);
  ASSERT_GT(result.run.committed, 0u);
  EXPECT_EQ(result.trace_spans, 0u);
  EXPECT_FALSE(obs::GlobalTracer().enabled());
}

// Leader failover mid-run: spans from transactions interrupted by the
// crash stay well-formed (no orphans; open spans render as zero-duration)
// and the promotion itself is visible as a repl.promotion system span.
TEST(TraceExperimentTest, SpansStayWellFormedAcrossLeaderFailover) {
  obs::GlobalTracer().Reset();
  obs::TraceConfig trace_config;
  trace_config.sample_rate = 1.0;
  obs::GlobalTracer().Enable(trace_config);

  sim::TopologyBuilder builder;
  const NodeId client = builder.AddNode(sim::NodeRole::kClient, "c1", "r0");
  const NodeId dm = builder.AddNode(sim::NodeRole::kMiddleware, "dm1", "r0");
  std::vector<NodeId> sources;
  std::vector<std::vector<NodeId>> groups;
  const double rtts[2] = {5.0, 20.0};
  for (int i = 0; i < 2; ++i) {
    const std::string region = "region" + std::to_string(i);
    const NodeId leader =
        builder.AddNode(sim::NodeRole::kDataSource, "ds", region);
    std::vector<NodeId> group = {leader};
    for (int k = 0; k < 2; ++k) {
      group.push_back(
          builder.AddNode(sim::NodeRole::kDataSource, "dsf", region));
      builder.SetRttMs(dm, group.back(), rtts[i]);
      builder.SetRttMs(client, group.back(), rtts[i]);
    }
    builder.SetRttMs(dm, leader, rtts[i]);
    builder.SetRttMs(client, leader, rtts[i]);
    sources.push_back(leader);
    groups.push_back(std::move(group));
  }
  builder.SetRttMs(sources[0], sources[1], 20.0);
  builder.SetRttMs(client, dm, 0.5);

  sim::EventLoop loop;
  sim::Network network(&loop, builder.Build());
  runtime::SimRuntime runtime(&loop, &network);

  workload::YcsbConfig ycsb;
  ycsb.data_sources = sources;
  ycsb.distributed_ratio = 0.5;
  workload::YcsbGenerator gen(ycsb);
  workload::Deployment deployment;
  deployment.middlewares = {dm};
  deployment.groups = groups;
  gen.RegisterTables(&deployment.catalog);
  const std::unique_ptr<workload::Cluster> cluster =
      workload::Build(deployment, &runtime);

  workload::DriverConfig driver_config;
  driver_config.terminals = 16;
  driver_config.warmup = MsToMicros(500);
  driver_config.measure = SecToMicros(6);
  workload::ClientDriver driver(runtime.EnvFor(client), dm, &gen,
                                driver_config);
  driver.Attach();
  driver.Start();

  // Kill the hot group's leader one third into the window — transactions
  // with prepares in flight against it see the failover.
  loop.ScheduleAt(driver_config.warmup + driver_config.measure / 3,
                  [&cluster]() { cluster->sources()[0]->Crash(); });
  loop.RunUntil(driver_config.warmup + driver_config.measure);

  EXPECT_GE(cluster->dm().stats().failovers_observed, 1u);
  EXPECT_GT(driver.stats().committed, 50u);

  const std::vector<obs::SpanRecord> spans = obs::GlobalTracer().Snapshot();
  ExpectWellFormed(IndexByTrace(spans));
  bool promotion_seen = false;
  size_t quorum_spans = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.trace_id == obs::kSystemTraceId && span.name == "repl.promotion") {
      promotion_seen = true;
      EXPECT_GE(span.Duration(), 0);
    }
    if (span.name == "ds.quorum") quorum_spans++;
  }
  EXPECT_TRUE(promotion_seen) << "failover left no repl.promotion span";
  EXPECT_GT(quorum_spans, 0u);

  obs::GlobalTracer().Disable();
  obs::GlobalTracer().Reset();
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, GaugesHistogramsSnapshot) {
  obs::MetricsRegistry registry;
  double gauge_value = 1.5;
  registry.RegisterGauge("ds.2.inflight", [&]() { return gauge_value; });
  registry.RegisterGauge("ds.2.commits", []() { return 3667232.0; });

  metrics::Histogram hist;
  hist.Record(100);
  hist.Record(200);
  registry.RegisterHistogram("dm.0.phase.execution", [&]() { return &hist; });
  EXPECT_EQ(registry.gauge_count(), 2u);

  std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"ds.2.inflight\":1.5"), std::string::npos) << json;
  // Counters print exactly, not in 6-digit scientific notation.
  EXPECT_NE(json.find("\"ds.2.commits\":3667232"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dm.0.phase.execution\":{\"count\":2"),
            std::string::npos)
      << json;
  // Gauges are evaluated at snapshot time.
  gauge_value = 4.0;
  json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"ds.2.inflight\":4"), std::string::npos) << json;

  registry.Clear();
  EXPECT_EQ(registry.gauge_count(), 0u);
  EXPECT_EQ(registry.SnapshotJson(), "{\"gauges\":{},\"histograms\":{}}");
}

struct ProbeStats {
  uint64_t sent = 0;
  uint64_t peak_depth = 0;
  uint64_t dropped = 0;
  GEOTP_STAT_FIELDS(sent, HighWater(peak_depth), dropped)
};

TEST(MetricsRegistryTest, RegisterStatsExportsEveryListedField) {
  ProbeStats probe;
  obs::MetricsRegistry registry;
  registry.RegisterStats("ds.3.probe.", probe);
  EXPECT_EQ(registry.gauge_count(), 3u);
  probe.sent = 7;
  probe.peak_depth = 2;
  probe.dropped = 1;
  EXPECT_EQ(registry.SnapshotJson(),
            "{\"gauges\":{\"ds.3.probe.dropped\":1,\"ds.3.probe.peak_depth\":2,"
            "\"ds.3.probe.sent\":7},\"histograms\":{}}");
}

TEST(MetricsRegistryTest, AccumulateSumsCountersAndMaxesHighWater) {
  ProbeStats total;
  metrics::Accumulate(&total, ProbeStats{3, 5, 1});
  metrics::Accumulate(&total, ProbeStats{4, 2, 0});
  EXPECT_EQ(total.sent, 7u);
  EXPECT_EQ(total.peak_depth, 5u);
  EXPECT_EQ(total.dropped, 1u);

  // The real structs mark their watermarks the same way.
  storage::GroupCommitStats gc;
  metrics::Accumulate(&gc, storage::GroupCommitStats{10, 40, 8});
  metrics::Accumulate(&gc, storage::GroupCommitStats{5, 30, 12});
  EXPECT_EQ(gc.fsyncs, 15u);
  EXPECT_EQ(gc.entries, 70u);
  EXPECT_EQ(gc.max_batch_entries, 12u);
  sharding::ShardMigratorStats a;
  sharding::ShardMigratorStats b;
  a.snapshot_chunks_sent = 4;
  a.peak_unacked_chunks = 6;
  b.snapshot_chunks_sent = 3;
  b.peak_unacked_chunks = 2;
  b.peak_buffered_chunks = 9;
  metrics::Accumulate(&a, b);
  EXPECT_EQ(a.snapshot_chunks_sent, 7u);
  EXPECT_EQ(a.peak_unacked_chunks, 6u);
  EXPECT_EQ(a.peak_buffered_chunks, 9u);
}

TEST(MetricsRegistryTest, ReplicatedShardedClusterExportsEveryStatsStruct) {
  testing_support::MiniCluster::Options options;
  options.replication_factor = 3;
  options.sharding = true;
  options.dm.balancer.enabled = true;
  testing_support::MiniCluster cluster(options);
  obs::MetricsRegistry registry;
  cluster.dm().AttachMetrics(&registry);
  for (datasource::DataSourceNode* source : cluster.source_ptrs()) {
    source->RegisterMetrics(&registry);
  }
  for (uint64_t tag = 1; tag <= 3; ++tag) {
    ASSERT_TRUE(cluster
                    .RunTxn(tag, {testing_support::MiniCluster::Write(
                                      cluster.KeyOn(0, tag), 1),
                                  testing_support::MiniCluster::Write(
                                      cluster.KeyOn(1, tag), 2)})
                    .ok());
  }
  const std::string json = registry.SnapshotJson();
  // One named field from each of the eleven stats structs.
  for (const char* name : {
           "dm.0.committed",                    // MiddlewareStats
           "dm.0.overload.admitted",            // OverloadStats
           "dm.0.log_commit.fsyncs",            // GroupCommitStats (DM log)
           "dm.0.balancer.ticks",               // BalancerStats
           "ds.2.commits",                      // DataSourceStats
           "ds.2.locks.grants_immediate",       // LockStats
           "ds.2.group_commit.max_batch_entries",  // GroupCommitStats
           "ds.2.migrator.migrations_started",  // ShardMigratorStats
           "ds.2.agent.prepares_initiated",     // GeoAgentStats
           "ds.2.replicator.appends_received",  // ReplicatorStats
           "ds.2.shipper.entries_shipped",      // LogShipperStats
           "ds.2.election.elections_started",   // ElectionStats
       }) {
    EXPECT_NE(json.find("\"" + std::string(name) + "\":"), std::string::npos)
        << name;
  }
  EXPECT_NE(json.find("\"dm.0.committed\":3,"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ds.2.shipper.entries_shipped\":0,"),
            std::string::npos)
      << "the leader shipped no log entries";
}

TEST(MetricsRegistryTest, ExperimentCollectsNodeMetrics) {
  workload::ExperimentConfig config;
  config.system = workload::SystemKind::kGeoTP;
  config.ds_rtts_ms = {1.0, 5.0};
  config.driver.terminals = 4;
  config.driver.warmup = MsToMicros(100);
  config.driver.measure = SecToMicros(2);
  config.collect_metrics = true;
  const auto result = workload::RunExperiment(config);
  ASSERT_GT(result.run.committed, 0u);
  // DM and per-source stats, their subsystems, and the phase histograms
  // all export; the snapshot is taken with the DM's final counts.
  const std::string& json = result.metrics_json;
  EXPECT_NE(json.find("\"dm.0.committed\":" +
                      std::to_string(result.dm.committed) + ","),
            std::string::npos);
  EXPECT_NE(json.find("\"dm.0.overload.admitted\""), std::string::npos);
  EXPECT_NE(json.find("\"ds.2.commits\""), std::string::npos);
  EXPECT_NE(json.find("\"ds.2.locks.deadlocks\""), std::string::npos);
  EXPECT_NE(json.find("\"dm.0.phase."), std::string::npos);
}

// ---------------------------------------------------------------------------
// Profiler.
// ---------------------------------------------------------------------------

TEST(ProfilerTest, RecordsSlotsAndReports) {
  obs::Profiler profiler;
  EXPECT_FALSE(profiler.enabled());
  profiler.Enable();
  profiler.RecordHandler(/*msg_type=*/3, /*ns=*/500);
  profiler.RecordHandler(3, 1500);
  profiler.RecordQueueWait(250);
  profiler.RecordTimerLag(7);
  EXPECT_EQ(profiler.handler_slot(3).count.load(), 2u);
  EXPECT_EQ(profiler.handler_slot(3).total.load(), 2000u);
  EXPECT_EQ(profiler.handler_slot(3).max.load(), 1500u);
  EXPECT_EQ(profiler.queue_wait().count.load(), 1u);
  EXPECT_EQ(profiler.timer_lag().max.load(), 7u);

  const std::string json = profiler.ReportJson();
  EXPECT_NE(json.find("\"handlers_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"timer_lag_us\""), std::string::npos);

  profiler.Reset();
  EXPECT_EQ(profiler.handler_slot(3).count.load(), 0u);
}

TEST(ProfilerTest, SimRunPopulatesHandlerProfile) {
  obs::GlobalProfiler().Reset();
  obs::GlobalProfiler().Enable();
  workload::ExperimentConfig config;
  config.system = workload::SystemKind::kGeoTP;
  config.ds_rtts_ms = {1.0, 5.0};
  config.driver.terminals = 4;
  config.driver.warmup = MsToMicros(100);
  config.driver.measure = SecToMicros(1);
  const auto result = workload::RunExperiment(config);
  obs::GlobalProfiler().Disable();
  ASSERT_GT(result.run.committed, 0u);
  uint64_t recorded = 0;
  for (int t = 0; t < obs::Profiler::kMaxMessageTypes; ++t) {
    recorded += obs::GlobalProfiler().handler_slot(t).count.load();
  }
  EXPECT_GT(recorded, 0u) << "no handler timings recorded by the sim backend";
  obs::GlobalProfiler().Reset();
}

// ---------------------------------------------------------------------------
// Pluggable log sink.
// ---------------------------------------------------------------------------

TEST(LoggingTest, CaptureSinkReceivesRecordsWithPrefix) {
  CaptureSink capture(/*max_lines=*/4);
  SetLogSink(&capture);
  SetLogPrefix("node7");
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);

  GEOTP_INFO("hello " << 42);
  GEOTP_DEBUG("filtered below the threshold");
  for (int i = 0; i < 6; ++i) GEOTP_WARN("w" << i);

  SetLogLevel(saved);
  SetLogPrefix("");
  SetLogSink(nullptr);

  EXPECT_EQ(capture.size(), 4u);  // bounded window
  const std::string joined = capture.Joined();
  EXPECT_EQ(joined.find("filtered"), std::string::npos);
  EXPECT_NE(joined.find("w5"), std::string::npos);
  const std::vector<std::string> lines = capture.Drain();
  EXPECT_EQ(capture.size(), 0u);
  ASSERT_FALSE(lines.empty());
  // Every formatted line carries the per-process prefix.
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("node7"), std::string::npos) << line;
  }
}

TEST(LoggingTest, FormatLineIncludesLevelAndLocation) {
  SetLogPrefix("");
  const std::string line =
      FormatLogLine(LogLevel::kWarn, "middleware.cc", 99, "msg body");
  EXPECT_NE(line.find("WARN"), std::string::npos);
  EXPECT_NE(line.find("middleware.cc:99"), std::string::npos);
  EXPECT_NE(line.find("msg body"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-phase latency percentiles (Fig. 6c satellite).
// ---------------------------------------------------------------------------

TEST(PhaseBreakdownTest, PercentilesTrackRecordedTail) {
  metrics::PhaseBreakdown breakdown;
  // 95 fast executions and 5 slow ones: p50 stays low, p99 sees the tail.
  for (int i = 0; i < 95; ++i) {
    breakdown.Record(metrics::TxnPhase::kExecution, MsToMicros(10));
  }
  for (int i = 0; i < 5; ++i) {
    breakdown.Record(metrics::TxnPhase::kExecution, MsToMicros(500));
  }
  EXPECT_NEAR(breakdown.P50Ms(metrics::TxnPhase::kExecution), 10.0, 2.0);
  EXPECT_GT(breakdown.P99Ms(metrics::TxnPhase::kExecution), 100.0);
  EXPECT_GT(breakdown.MeanMs(metrics::TxnPhase::kExecution), 10.0);
  // Unrecorded phases report zeros, not garbage.
  EXPECT_EQ(breakdown.P99Ms(metrics::TxnPhase::kAnalysis), 0.0);
}

}  // namespace
}  // namespace geotp
