// Microbenchmarks (google-benchmark) for the building blocks: lock
// manager, hotspot footprint (hash index + LRU), geo-scheduler planning,
// SQL parse + rewrite, event loop, network delivery and zipfian sampling.
// These quantify the DM-side overheads the paper reports as negligible
// (Fig. 6c "analysis ~1ms" for a whole transaction; the per-call costs
// here are sub-microsecond).
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/geo_scheduler.h"
#include "core/hotspot_footprint.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sql/parser.h"
#include "sql/rewriter.h"
#include "storage/lock_manager.h"

namespace geotp {
namespace {

void BM_LockAcquireRelease(benchmark::State& state) {
  storage::LockManager lm;
  uint64_t txn = 1;
  for (auto _ : state) {
    const Xid xid{txn++, 0};
    for (uint64_t k = 0; k < 5; ++k) {
      lm.RequestLock(xid, RecordKey{1, k}, storage::LockMode::kExclusive,
                     [](Status) {});
    }
    lm.ReleaseAll(xid);
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_LockAcquireRelease);

void BM_LockContendedQueue(benchmark::State& state) {
  const auto waiters = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    storage::LockManager lm;
    lm.RequestLock(Xid{1, 0}, RecordKey{1, 7}, storage::LockMode::kExclusive,
                   [](Status) {});
    state.ResumeTiming();
    for (uint64_t w = 0; w < waiters; ++w) {
      lm.RequestLock(Xid{100 + w, 0}, RecordKey{1, 7},
                     storage::LockMode::kExclusive, [](Status) {});
    }
    lm.ReleaseAll(Xid{1, 0});  // grants cascade through the queue
    for (uint64_t w = 0; w < waiters; ++w) lm.ReleaseAll(Xid{100 + w, 0});
  }
}
BENCHMARK(BM_LockContendedQueue)->Arg(4)->Arg(16)->Arg(64);

void BM_DeadlockCheckDeepChain(benchmark::State& state) {
  // Chain of N transactions each holding key i and waiting on key i+1;
  // the check walks the chain.
  const auto n = static_cast<uint64_t>(state.range(0));
  storage::LockManager lm;
  for (uint64_t i = 0; i < n; ++i) {
    lm.RequestLock(Xid{i, 0}, RecordKey{1, i}, storage::LockMode::kExclusive,
                   [](Status) {});
  }
  for (uint64_t i = 0; i + 1 < n; ++i) {
    lm.RequestLock(Xid{i, 0}, RecordKey{1, i + 1},
                   storage::LockMode::kExclusive, [](Status) {});
  }
  uint64_t probe = n + 1;
  for (auto _ : state) {
    // A fresh txn queueing at the chain tail: full DFS, no cycle.
    const Xid xid{probe++, 0};
    storage::LockRequestId id = lm.RequestLock(
        xid, RecordKey{1, 0}, storage::LockMode::kExclusive, [](Status) {});
    lm.CancelRequest(id, Status::Aborted("bench"));
  }
}
BENCHMARK(BM_DeadlockCheckDeepChain)->Arg(8)->Arg(32);

void BM_FootprintDispatchComplete(benchmark::State& state) {
  core::HotspotFootprint fp;
  Rng rng(1);
  std::vector<RecordKey> keys(5);
  for (auto _ : state) {
    for (auto& key : keys) key = RecordKey{1, rng.NextU64(10000)};
    fp.OnDispatch(keys);
    fp.OnComplete(keys, 1000, true);
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_FootprintDispatchComplete);

void BM_FootprintForecast(benchmark::State& state) {
  core::HotspotFootprint fp;
  Rng rng(2);
  for (int i = 0; i < 50000; ++i) {
    RecordKey key{1, rng.NextU64(100000)};
    fp.OnDispatch({key});
    fp.OnComplete({key}, 500, true);
  }
  std::vector<RecordKey> keys(5);
  for (auto _ : state) {
    for (auto& key : keys) key = RecordKey{1, rng.NextU64(100000)};
    benchmark::DoNotOptimize(fp.ForecastLel(keys));
    benchmark::DoNotOptimize(fp.AbortProbability(keys));
  }
}
BENCHMARK(BM_FootprintForecast);

// The footprint full at its default 100k capacity, as a long YCSB run
// leaves it, with keys drawn as the YCSB generator draws them from four
// 100k-record partitions (a zipf(0.7) partition, then zipf(0.7) within
// it). A little under half of the dispatched keys miss and evict a record
// (the miss_rate counter). One iteration is a five-key round as the DM
// consults it: forecast and abort probability, dispatch, completion.
void BM_FootprintAtCapacity(benchmark::State& state) {
  constexpr uint64_t kPerPartition = 100000;
  core::HotspotFootprint fp;
  Rng rng(5);
  auto draw = [&rng]() {
    const uint64_t lo =
        BoundedZipfSample(0, 4 * kPerPartition, 0.7, rng) / kPerPartition *
        kPerPartition;
    return RecordKey{1, BoundedZipfSample(lo, lo + kPerPartition, 0.7, rng)};
  };
  std::vector<RecordKey> keys(5);
  auto round = [&]() {
    for (auto& key : keys) key = draw();
    benchmark::DoNotOptimize(fp.ForecastLel(keys));
    benchmark::DoNotOptimize(fp.AbortProbability(keys));
    fp.OnDispatch(keys);
    fp.OnComplete(keys, 1000, true);
  };
  while (fp.evictions() < 200000) round();  // fill, then churn a while
  const uint64_t evictions_before = fp.evictions();
  for (auto _ : state) round();
  // At capacity every miss inserts one record and evicts one.
  state.counters["miss_rate"] =
      static_cast<double>(fp.evictions() - evictions_before) /
      static_cast<double>(state.iterations() * keys.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_FootprintAtCapacity);

void BM_SchedulerPlanRound(benchmark::State& state) {
  sim::EventLoop loop;
  sim::Network net(&loop, sim::LatencyMatrix(8));
  core::LatencyMonitor monitor(0, &net, {});
  core::HotspotFootprint fp;
  core::SchedulerConfig config;
  config.policy = core::SchedulerPolicy::kLatencyAwareForecast;
  core::GeoScheduler scheduler(config, &monitor, &fp);
  Rng rng(3);
  std::vector<core::ParticipantPlanInput> inputs(3);
  for (int i = 0; i < 3; ++i) {
    inputs[static_cast<size_t>(i)].data_source = i + 1;
    inputs[static_cast<size_t>(i)].keys = {RecordKey{1, rng.NextU64(100)}};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.ScheduleRound(inputs, -1, rng));
  }
}
BENCHMARK(BM_SchedulerPlanRound);

void BM_ParseUpdate(benchmark::State& state) {
  sql::Parser parser;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.Parse(
        "UPDATE savings SET val = val + 100 WHERE key = 74321; "
        "/* last statement */"));
  }
}
BENCHMARK(BM_ParseUpdate);

void BM_RewriteBranchPrepare(benchmark::State& state) {
  const Xid xid{1234567, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sql::Rewriter::BranchPrepare(sql::Dialect::kMySql, xid));
    benchmark::DoNotOptimize(
        sql::Rewriter::BranchPrepare(sql::Dialect::kPostgres, xid));
  }
}
BENCHMARK(BM_RewriteBranchPrepare);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < 1000; ++i) {
      loop.Schedule((i * 31) % 997, []() {});
    }
    loop.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopScheduleRun);

// Event loop under the simulator's event mix: network deliveries (whose
// closures carry the in-flight message) interleaved with lock-wait style
// timeouts, half of which the delivery handler cancels before they fire.
struct BenchMessage : sim::MessageBase {
  size_t index = 0;
  size_t WireSize() const override { return 96; }
};

void BM_NetworkDeliveryWithTimeouts(benchmark::State& state) {
  constexpr int kNodes = 4;
  constexpr size_t kBatch = 256;
  sim::EventLoop loop;
  sim::LatencyMatrix matrix(kNodes);
  for (int a = 0; a < kNodes; ++a) {
    for (int b = a + 1; b < kNodes; ++b) {
      matrix.SetSymmetric(a, b, sim::LinkSpec::FromRttMs(10.0 * (a + b)));
    }
  }
  sim::Network net(&loop, matrix);
  std::vector<sim::EventId> timeouts(kBatch, sim::kInvalidEvent);
  uint64_t fired = 0;
  for (int node = 0; node < kNodes; ++node) {
    net.RegisterNode(node, [&](std::unique_ptr<sim::MessageBase> msg) {
      const size_t i = static_cast<BenchMessage&>(*msg).index;
      if (i % 2 == 0) loop.Cancel(timeouts[i]);
    });
  }
  for (auto _ : state) {
    for (size_t i = 0; i < kBatch; ++i) {
      auto msg = std::make_unique<BenchMessage>();
      msg->from = static_cast<NodeId>(i % kNodes);
      msg->to = static_cast<NodeId>((i + 1) % kNodes);
      msg->index = i;
      net.Send(std::move(msg));
      timeouts[i] = loop.Schedule(MsToMicros(50), [&fired, i]() {
        fired += i;
      });
    }
    loop.Run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_NetworkDeliveryWithTimeouts);

void BM_BoundedZipfSample(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedZipfSample(0, 4000000, 0.9, rng));
  }
}
BENCHMARK(BM_BoundedZipfSample);

}  // namespace
}  // namespace geotp

BENCHMARK_MAIN();
