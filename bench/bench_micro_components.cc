// Microbenchmarks (google-benchmark) for the building blocks: lock
// manager, record store, transaction engine, hotspot footprint (hash index
// + LRU), geo-scheduler planning, event loop, network delivery and
// zipfian sampling.
// These quantify the DM-side overheads the paper reports as negligible
// (Fig. 6c "analysis ~1ms" for a whole transaction; the per-call costs
// here are sub-microsecond).
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/geo_scheduler.h"
#include "core/hotspot_footprint.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/engine.h"
#include "storage/lock_manager.h"
#include "storage/record_store.h"

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

// A data source's table of 100k records read at zipf(0.7) keys, the YCSB
// access skew: one probe per lookup.
void BM_RecordStoreLookup(benchmark::State& state) {
  constexpr uint64_t kRecords = 100000;
  storage::RecordStore store;
  for (uint64_t k = 0; k < kRecords; ++k) {
    store.Put(RecordKey{1, k}, static_cast<int64_t>(k));
  }
  Rng rng(6);
  std::vector<RecordKey> keys(4096);
  for (auto& key : keys) {
    key = RecordKey{1, BoundedZipfSample(0, kRecords, 0.7, rng)};
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(keys[next]));
    next = (next + 1) & (keys.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordStoreLookup);

// One branch's life on a free engine: begin, five row operations at
// zipf(0.7) keys (reads and read-modify-writes) whose locks are all
// granted synchronously, then prepare and commit.
void BM_EngineExecuteOpUncontended(benchmark::State& state) {
  constexpr uint64_t kRecords = 100000;
  storage::TransactionEngine engine(storage::MySqlEngineConfig());
  for (uint64_t k = 0; k < kRecords; ++k) {
    engine.store().Put(RecordKey{1, k}, 0);
  }
  Rng rng(7);
  std::vector<RecordKey> keys(4096);
  for (auto& key : keys) {
    key = RecordKey{1, BoundedZipfSample(0, kRecords, 0.7, rng)};
  }
  size_t next = 0;
  uint64_t txn = 1;
  int64_t sum = 0;
  bool ok = true;
  for (auto _ : state) {
    const Xid xid{txn++, 0};
    ok &= engine.Begin(xid).ok();
    for (int i = 0; i < 5; ++i) {
      storage::Operation op;
      op.key = keys[next];
      next = (next + 1) & (keys.size() - 1);
      op.is_write = i % 2 == 1;
      op.write_value = 1;
      op.is_delta = true;
      engine.ExecuteOp(xid, op, [&](Status st, int64_t value) {
        ok &= st.ok();
        sum += value;
      });
    }
    ok &= engine.Prepare(xid, 0).ok();
    ok &= engine.Commit(xid, 0).ok();
  }
  if (!ok) state.SkipWithError("an engine call failed");
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_EngineExecuteOpUncontended);

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
  core::LatencyMonitor monitor(0, &net, &loop, {});
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
struct BenchMessage : runtime::MessageBase {
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
    net.RegisterNode(node, [&](std::unique_ptr<runtime::MessageBase> msg) {
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
