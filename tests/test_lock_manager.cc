// Tests for the strict-2PL lock manager: grant/wait/release semantics,
// FIFO fairness, upgrades, cancellation, deadlock detection, plus a
// randomized property test checking structural invariants.
#include "storage/lock_manager.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace geotp {
namespace storage {
namespace {

Xid T(uint64_t n) { return Xid{n, 0}; }
RecordKey K(uint64_t k) { return RecordKey{1, k}; }

struct Capture {
  bool fired = false;
  Status status;
  LockCallback Cb() {
    return [this](Status st) {
      fired = true;
      status = std::move(st);
    };
  }
};

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  Capture a, b;
  EXPECT_EQ(lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb()),
            kInvalidLockRequest);
  EXPECT_EQ(lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb()),
            kInvalidLockRequest);
  EXPECT_TRUE(a.fired && a.status.ok());
  EXPECT_TRUE(b.fired && b.status.ok());
  EXPECT_EQ(lm.HoldersOn(K(1)), 2u);
}

TEST(LockManagerTest, ExclusiveBlocksShared) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a.Cb());
  LockRequestId id = lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  EXPECT_NE(id, kInvalidLockRequest);
  EXPECT_FALSE(b.fired);
  EXPECT_EQ(lm.WaitersOn(K(1)), 1u);
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(b.fired && b.status.ok());
}

TEST(LockManagerTest, SharedBlocksExclusive) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kExclusive, b.Cb());
  EXPECT_FALSE(b.fired);
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(b.fired && b.status.ok());
}

TEST(LockManagerTest, ReentrantSharedThenShared) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kShared, b.Cb());
  EXPECT_TRUE(b.fired && b.status.ok());
  EXPECT_EQ(lm.HoldersOn(K(1)), 1u);
}

TEST(LockManagerTest, ExclusiveCoversShared) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kShared, b.Cb());
  EXPECT_TRUE(b.fired && b.status.ok());
  EXPECT_TRUE(lm.Holds(T(1), K(1), LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeSoleHolderImmediate) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, b.Cb());
  EXPECT_TRUE(b.fired && b.status.ok());
  EXPECT_TRUE(lm.Holds(T(1), K(1), LockMode::kExclusive));
  EXPECT_EQ(lm.stats().upgrades, 1u);
}

TEST(LockManagerTest, UpgradeWaitsForOtherSharers) {
  LockManager lm;
  Capture a, b, up;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  LockRequestId id = lm.RequestLock(T(1), K(1), LockMode::kExclusive, up.Cb());
  EXPECT_NE(id, kInvalidLockRequest);
  EXPECT_FALSE(up.fired);
  lm.ReleaseAll(T(2));
  EXPECT_TRUE(up.fired && up.status.ok());
  EXPECT_TRUE(lm.Holds(T(1), K(1), LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeJumpsQueue) {
  LockManager lm;
  Capture a, b, waiter, up;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  lm.RequestLock(T(3), K(1), LockMode::kExclusive, waiter.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, up.Cb());
  // T2 releases: the upgrade (queue front) must win over T3.
  lm.ReleaseAll(T(2));
  EXPECT_TRUE(up.fired && up.status.ok());
  EXPECT_FALSE(waiter.fired);
}

TEST(LockManagerTest, FifoNoBargingPastQueuedExclusive) {
  LockManager lm;
  Capture a, x, s;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kExclusive, x.Cb());
  // A shared request arriving after a queued X must wait (no barging),
  // even though it is compatible with the current holder.
  lm.RequestLock(T(3), K(1), LockMode::kShared, s.Cb());
  EXPECT_FALSE(s.fired);
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(x.fired);
  EXPECT_FALSE(s.fired);
  lm.ReleaseAll(T(2));
  EXPECT_TRUE(s.fired);
}

TEST(LockManagerTest, BatchedSharedGrantsTogether) {
  LockManager lm;
  Capture x, s1, s2;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, x.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, s1.Cb());
  lm.RequestLock(T(3), K(1), LockMode::kShared, s2.Cb());
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(s1.fired && s2.fired);
  EXPECT_EQ(lm.HoldersOn(K(1)), 2u);
}

TEST(LockManagerTest, CancelParkedRequestFiresStatus) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a.Cb());
  LockRequestId id = lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  lm.CancelRequest(id, Status::TimedOut("lock wait timeout"));
  EXPECT_TRUE(b.fired);
  EXPECT_TRUE(b.status.IsTimedOut());
  EXPECT_EQ(lm.WaitersOn(K(1)), 0u);
}

TEST(LockManagerTest, CancelUnblocksCompatibleWaitersBehind) {
  LockManager lm;
  Capture holder, x, s;
  lm.RequestLock(T(1), K(1), LockMode::kShared, holder.Cb());
  LockRequestId xid = lm.RequestLock(T(2), K(1), LockMode::kExclusive, x.Cb());
  lm.RequestLock(T(3), K(1), LockMode::kShared, s.Cb());
  EXPECT_FALSE(s.fired);
  // Cancelling the X waiter lets the compatible S behind it through.
  lm.CancelRequest(xid, Status::Aborted("gone"));
  EXPECT_TRUE(s.fired && s.status.ok());
}

TEST(LockManagerTest, CancelAfterGrantIsNoop) {
  LockManager lm;
  Capture a, b;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a.Cb());
  LockRequestId id = lm.RequestLock(T(2), K(1), LockMode::kExclusive, b.Cb());
  lm.ReleaseAll(T(1));
  EXPECT_TRUE(b.fired && b.status.ok());
  lm.CancelRequest(id, Status::TimedOut("late"));  // must not re-fire
  EXPECT_TRUE(b.status.ok());
}

TEST(LockManagerTest, ReleaseAllFreesEveryKey) {
  LockManager lm;
  Capture cbs[5];
  for (uint64_t k = 0; k < 5; ++k) {
    lm.RequestLock(T(1), K(k), LockMode::kExclusive, cbs[k].Cb());
  }
  lm.ReleaseAll(T(1));
  for (uint64_t k = 0; k < 5; ++k) {
    EXPECT_FALSE(lm.Holds(T(1), K(k), LockMode::kShared));
    EXPECT_EQ(lm.HoldersOn(K(k)), 0u);
  }
}

TEST(LockManagerTest, ReleaseUnknownOwnerIsNoop) {
  LockManager lm;
  lm.ReleaseAll(T(99));  // must not crash
}

TEST(LockManagerTest, TwoTxnDeadlockDetected) {
  LockManager lm;
  Capture a1, b1, a2, b2;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, a1.Cb());
  lm.RequestLock(T(2), K(2), LockMode::kExclusive, b1.Cb());
  // T1 waits on key2 (held by T2)...
  lm.RequestLock(T(1), K(2), LockMode::kExclusive, a2.Cb());
  EXPECT_FALSE(a2.fired);
  // ...and T2 requesting key1 would close the cycle -> victim aborted.
  lm.RequestLock(T(2), K(1), LockMode::kExclusive, b2.Cb());
  EXPECT_TRUE(b2.fired);
  EXPECT_TRUE(b2.status.IsAborted());
  EXPECT_EQ(lm.stats().deadlocks, 1u);
}

TEST(LockManagerTest, ThreeTxnDeadlockCycleDetected) {
  LockManager lm;
  Capture cb;
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, cb.Cb());
  lm.RequestLock(T(2), K(2), LockMode::kExclusive, cb.Cb());
  lm.RequestLock(T(3), K(3), LockMode::kExclusive, cb.Cb());
  lm.RequestLock(T(1), K(2), LockMode::kExclusive, cb.Cb());  // T1 -> T2
  lm.RequestLock(T(2), K(3), LockMode::kExclusive, cb.Cb());  // T2 -> T3
  Capture victim;
  lm.RequestLock(T(3), K(1), LockMode::kExclusive, victim.Cb());  // closes
  EXPECT_TRUE(victim.fired);
  EXPECT_TRUE(victim.status.IsAborted());
}

TEST(LockManagerTest, UpgradeDeadlockDetected) {
  // Two shared holders both upgrading: the second upgrade is the victim.
  LockManager lm;
  Capture s1, s2, u1, u2;
  lm.RequestLock(T(1), K(1), LockMode::kShared, s1.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, s2.Cb());
  lm.RequestLock(T(1), K(1), LockMode::kExclusive, u1.Cb());
  EXPECT_FALSE(u1.fired);
  lm.RequestLock(T(2), K(1), LockMode::kExclusive, u2.Cb());
  EXPECT_TRUE(u2.fired);
  EXPECT_TRUE(u2.status.IsAborted());
  // T2 releasing lets T1's upgrade through.
  lm.ReleaseAll(T(2));
  EXPECT_TRUE(u1.fired && u1.status.ok());
}

TEST(LockManagerTest, NoFalsePositiveOnSharedChain) {
  LockManager lm;
  Capture a, b, c;
  lm.RequestLock(T(1), K(1), LockMode::kShared, a.Cb());
  lm.RequestLock(T(2), K(1), LockMode::kShared, b.Cb());
  // T3 waiting on an X behind the sharers is not a deadlock.
  lm.RequestLock(T(3), K(1), LockMode::kExclusive, c.Cb());
  EXPECT_FALSE(c.fired);
  EXPECT_EQ(lm.stats().deadlocks, 0u);
}

// ---------------------------------------------------------------------------
// Randomized property tests: after arbitrary request/release/cancel traffic
// every grant is compatibility-consistent and nothing leaks.
// ---------------------------------------------------------------------------

/// Random lock traffic: each step one transaction requests a lock, releases
/// everything (commit/abort) or times out its parked request.
class RandomTraffic {
 public:
  RandomTraffic(uint64_t seed, int txns, uint64_t keys)
      : rng_(seed), keys_(keys), txns_(static_cast<size_t>(txns)) {}

  void Step(LockManager& lm) {
    const size_t t = static_cast<size_t>(rng_.NextU64(txns_.size()));
    TxnState& txn = txns_[t];
    const double action = rng_.NextDouble();
    if (action < 0.6 && txn.pending == kInvalidLockRequest) {
      const uint64_t k = rng_.NextU64(keys_);
      const LockMode mode =
          rng_.NextBool(0.5) ? LockMode::kShared : LockMode::kExclusive;
      // NOTE: the callback may fire much later (on another txn's release),
      // so it captures only long-lived state.
      std::vector<TxnState>& txns = txns_;
      LockRequestId id = lm.RequestLock(
          T(t), K(k), mode, [&txns, t, k, mode](Status st) {
            if (st.ok()) {
              auto& held = txns[t].held;
              auto it = held.find(k);
              if (it == held.end() || mode == LockMode::kExclusive) {
                held[k] = it != held.end() &&
                                  it->second == LockMode::kExclusive
                              ? LockMode::kExclusive
                              : mode;
              }
              txns[t].pending = kInvalidLockRequest;
            }
          });
      if (id != kInvalidLockRequest) txn.pending = id;
    } else if (action < 0.8) {
      // Release everything (commit/abort).
      if (txn.pending != kInvalidLockRequest) {
        lm.CancelRequest(txn.pending, Status::Aborted("release"));
        txn.pending = kInvalidLockRequest;
      }
      lm.ReleaseAll(T(t));
      txn.held.clear();
    } else if (txn.pending != kInvalidLockRequest) {
      // Timeout the pending request.
      lm.CancelRequest(txn.pending, Status::TimedOut("timeout"));
      txn.pending = kInvalidLockRequest;
    }
  }

  /// No key may have an X holder together with any other holder.
  void CheckConsistency() const {
    for (uint64_t k = 0; k < keys_; ++k) {
      int x_holders = 0, s_holders = 0;
      for (const TxnState& txn : txns_) {
        auto it = txn.held.find(k);
        if (it == txn.held.end()) continue;
        (it->second == LockMode::kExclusive ? x_holders : s_holders)++;
      }
      ASSERT_LE(x_holders, 1) << "key " << k;
      if (x_holders == 1) {
        ASSERT_EQ(s_holders, 0) << "key " << k;
      }
    }
  }

  /// Cancels every parked request and releases every owner.
  void Drain(LockManager& lm) {
    for (size_t t = 0; t < txns_.size(); ++t) {
      TxnState& txn = txns_[t];
      if (txn.pending != kInvalidLockRequest) {
        lm.CancelRequest(txn.pending, Status::Aborted("drain"));
        txn.pending = kInvalidLockRequest;
      }
      lm.ReleaseAll(T(t));
      txn.held.clear();
    }
  }

 private:
  struct TxnState {
    std::map<uint64_t, LockMode> held;
    LockRequestId pending = kInvalidLockRequest;
  };

  Rng rng_;
  uint64_t keys_;
  std::vector<TxnState> txns_;
};

TEST(LockManagerPropertyTest, RandomTrafficKeepsInvariants) {
  LockManager lm;
  constexpr uint64_t kKeys = 8;
  RandomTraffic traffic(0xFEED, /*txns=*/24, kKeys);
  for (int step = 0; step < 20000; ++step) {
    traffic.Step(lm);
    if (step % 500 == 0) traffic.CheckConsistency();
  }

  // Drain: release everything; nothing may remain held or parked.
  traffic.Drain(lm);
  EXPECT_EQ(lm.total_waiters(), 0u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(lm.HoldersOn(K(k)), 0u);
    EXPECT_EQ(lm.WaitersOn(K(k)), 0u);
  }
}

// Bounded memory: once every owner released and every parked request was
// cancelled, the lock table holds no key and no owner. A wider key space
// than above makes the table grow and shift entries on erase.
TEST(LockManagerPropertyTest, DrainedTableIsEmpty) {
  for (uint64_t seed : {1, 2, 3}) {
    LockManager lm;
    RandomTraffic traffic(seed, /*txns=*/32, /*keys=*/256);
    size_t peak_keys = 0;
    for (int step = 0; step < 20000; ++step) {
      traffic.Step(lm);
      peak_keys = std::max(peak_keys, lm.locked_keys());
      if (step % 1000 == 0) traffic.CheckConsistency();
    }
    EXPECT_GT(peak_keys, 16u) << "seed " << seed;
    traffic.Drain(lm);
    EXPECT_EQ(lm.locked_keys(), 0u) << "seed " << seed;
    EXPECT_EQ(lm.owners(), 0u) << "seed " << seed;
    EXPECT_EQ(lm.total_waiters(), 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// TryLock: the synchronous grant path counts exactly as RequestLock does.
// ---------------------------------------------------------------------------

void AddDelta(LockStats* total, const LockStats& after,
              const LockStats& before) {
  total->grants_immediate += after.grants_immediate - before.grants_immediate;
  total->grants_after_wait +=
      after.grants_after_wait - before.grants_after_wait;
  total->cancellations += after.cancellations - before.cancellations;
  total->upgrades += after.upgrades - before.upgrades;
  total->deadlocks += after.deadlocks - before.deadlocks;
}

/// Owner 1's script: fresh S, re-entrant S, S->X upgrade, fresh X, S
/// covered by X, fresh S on another key. Contended, owner 2 first takes a
/// conflicting lock on the step's key (X on a fresh key, S beside an
/// upgrade) and releases once owner 1 parked, so every non-re-entrant step
/// is granted after a wait. With `try_first` each step goes through
/// TryLock() and falls back to RequestLock(), as the engine does.
/// Returns owner 1's summed per-step stats deltas.
LockStats RunScript(bool contended, bool try_first) {
  struct Step {
    uint64_t key;
    LockMode mode;
  };
  const Step script[] = {{1, LockMode::kShared},    {1, LockMode::kShared},
                         {1, LockMode::kExclusive}, {2, LockMode::kExclusive},
                         {2, LockMode::kShared},    {3, LockMode::kShared}};
  LockManager lm;
  LockStats total;
  for (const Step& step : script) {
    const bool held = lm.Holds(T(1), K(step.key), LockMode::kShared);
    const bool reentrant = lm.Holds(T(1), K(step.key), step.mode);
    if (contended && !reentrant) {
      Capture blocker;
      lm.RequestLock(T(2), K(step.key),
                     held ? LockMode::kShared : LockMode::kExclusive,
                     blocker.Cb());
      EXPECT_TRUE(blocker.fired && blocker.status.ok());
    }
    const LockStats before = lm.stats();
    Capture grant;
    if (!try_first || !lm.TryLock(T(1), K(step.key), step.mode)) {
      const LockRequestId id =
          lm.RequestLock(T(1), K(step.key), step.mode, grant.Cb());
      EXPECT_EQ(id != kInvalidLockRequest, contended && !reentrant);
      lm.ReleaseAll(T(2));
      EXPECT_TRUE(grant.fired && grant.status.ok());
    }
    AddDelta(&total, lm.stats(), before);
    EXPECT_TRUE(lm.Holds(T(1), K(step.key), step.mode));
  }
  lm.ReleaseAll(T(1));
  EXPECT_EQ(lm.locked_keys(), 0u);
  EXPECT_EQ(lm.owners(), 0u);
  return total;
}

TEST(LockManagerTest, TryLockCountsLikeRequestLock) {
  for (bool contended : {false, true}) {
    const LockStats via_try = RunScript(contended, /*try_first=*/true);
    const LockStats via_request = RunScript(contended, /*try_first=*/false);
    EXPECT_EQ(via_try.grants_immediate, via_request.grants_immediate);
    EXPECT_EQ(via_try.grants_after_wait, via_request.grants_after_wait);
    EXPECT_EQ(via_try.upgrades, via_request.upgrades);
    EXPECT_EQ(via_try.cancellations, 0u);
    EXPECT_EQ(via_try.deadlocks, 0u);
  }
  // The parked path counts the same grants and upgrades as the
  // synchronous one; only their split between immediate and after-wait
  // moves (the two re-entrant steps stay immediate).
  const LockStats sync = RunScript(/*contended=*/false, /*try_first=*/true);
  const LockStats parked = RunScript(/*contended=*/true, /*try_first=*/true);
  EXPECT_EQ(sync.grants_immediate, 6u);
  EXPECT_EQ(sync.grants_after_wait, 0u);
  EXPECT_EQ(parked.grants_immediate, 2u);
  EXPECT_EQ(parked.grants_after_wait, 4u);
  EXPECT_EQ(sync.upgrades, 1u);
  EXPECT_EQ(parked.upgrades, 1u);
}

}  // namespace
}  // namespace storage
}  // namespace geotp
