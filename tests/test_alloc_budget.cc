// Heap allocations per committed transaction on fixed-seed simulated runs:
// a budget the transaction path must stay within. The simulation is
// deterministic, so the count is exact run to run, where host CPU time
// cannot resolve a move of a few percent; a change that adds an
// allocation to every operation, lock grant or round fails here. This
// binary replaces the global operator new and delete to count.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "workload/runner.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};

void* Allocate(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line, so the compiler does not pair an inlined free() with the
// operator new it saw at a call site and warn of a mismatch.
__attribute__((noinline)) void Release(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = Allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = Allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }

namespace geotp {
namespace workload {
namespace {

constexpr Micros kWarmup = SecToMicros(2);
constexpr Micros kMeasure = SecToMicros(4);

struct Count {
  uint64_t allocations = 0;
  uint64_t committed = 0;
  double PerTxn() const {
    return committed == 0 ? 0.0
                          : static_cast<double>(allocations) /
                                static_cast<double>(committed);
  }
};

/// GeoTP on the paper topology, 64 terminals, seed 1: heap allocations
/// from the end of warmup to the end of the measurement window, and the
/// transactions committed in that window.
Count CountAllocations(WorkloadKind workload) {
  ExperimentConfig config;
  config.system = SystemKind::kGeoTP;
  config.workload = workload;
  config.driver.terminals = 64;
  config.driver.warmup = kWarmup;
  config.driver.measure = kMeasure;
  config.seed = 1;
  config.pre_run = [](sim::EventLoop* loop, sim::Network*) {
    loop->ScheduleAt(kWarmup, []() {
      allocations = 0;
      counting = true;
    });
    loop->ScheduleAt(kWarmup + kMeasure - 1, []() { counting = false; });
  };
  const ExperimentResult result = RunExperiment(config);
  Count count;
  count.allocations = allocations.load();
  count.committed = result.run.committed;
  std::printf("%s: %llu allocations over %llu commits = %.1f per txn\n",
              workload == WorkloadKind::kTpcc ? "tpcc" : "ycsb",
              static_cast<unsigned long long>(count.allocations),
              static_cast<unsigned long long>(count.committed),
              count.PerTxn());
  return count;
}

TEST(AllocBudgetTest, CountingSeesTheRun) {
  // The counter is live only inside the window: a run that commits and
  // allocates nothing would make the budgets below vacuous.
  const Count count = CountAllocations(WorkloadKind::kYcsb);
  EXPECT_GT(count.committed, 1000u);
  EXPECT_GT(count.allocations, count.committed);
  EXPECT_FALSE(counting.load());
}

// Budgets: the measured count plus about 5%.

TEST(AllocBudgetTest, TpccAllocationsPerCommit) {
  // 107.6 before the DM kept footprint charge handles and the lock
  // manager, engine, DM and source stopped regrowing per-round buffers;
  // 40.0 before the DM reused its transaction entries, participants and
  // round scratch.
  const Count count = CountAllocations(WorkloadKind::kTpcc);
  ASSERT_GT(count.committed, 500u);
  EXPECT_LE(count.PerTxn(), 30.5);  // measured 28.9
}

TEST(AllocBudgetTest, YcsbAllocationsPerCommit) {
  // 88.2, then 42.0 before the DM's round path stopped allocating.
  const Count count = CountAllocations(WorkloadKind::kYcsb);
  ASSERT_GT(count.committed, 1000u);
  EXPECT_LE(count.PerTxn(), 32.0);  // measured 30.5
}

}  // namespace
}  // namespace workload
}  // namespace geotp
