// Tests for the XA transaction engine: state machine, in-place writes with
// undo, crash behaviour, pending-operation cancellation.
#include "storage/engine.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace geotp {
namespace storage {
namespace {

Xid T(uint64_t n) { return Xid{n, 7}; }
RecordKey K(uint64_t k) { return RecordKey{1, k}; }

Operation ReadOp(uint64_t k) {
  Operation op;
  op.key = K(k);
  op.is_write = false;
  return op;
}

Operation WriteOp(uint64_t k, int64_t v) {
  Operation op;
  op.key = K(k);
  op.is_write = true;
  op.write_value = v;
  return op;
}

class EngineTest : public ::testing::Test {
 protected:
  TransactionEngine engine_;

  // Executes synchronously (no contention in these tests unless stated).
  Status Exec(const Xid& xid, const Operation& op, int64_t* value = nullptr) {
    Status result = Status::Internal("callback not fired");
    engine_.ExecuteOp(xid, op, [&](Status st, int64_t v) {
      result = std::move(st);
      if (value != nullptr) *value = v;
    });
    return result;
  }
};

TEST_F(EngineTest, BeginTwiceFails) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  EXPECT_EQ(engine_.Begin(T(1)).code(), StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, WriteSetHasOneFinalValuePerKeyInFirstWriteOrder) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(9, 1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(4, 2)).ok());
  Operation delta = WriteOp(9, 5);
  delta.is_delta = true;
  ASSERT_TRUE(Exec(T(1), delta).ok());  // 9: 1 + 5
  ASSERT_TRUE(Exec(T(1), ReadOp(7)).ok());
  const std::vector<std::pair<RecordKey, int64_t>> want = {{K(9), 6},
                                                           {K(4), 2}};
  EXPECT_EQ(engine_.WriteSetOf(T(1)), want);
  // A branch that reuses a retired entry starts with an empty write set.
  ASSERT_TRUE(engine_.Commit(T(1)).ok());
  EXPECT_TRUE(engine_.WriteSetOf(T(1)).empty());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  EXPECT_TRUE(engine_.WriteSetOf(T(2)).empty());
  ASSERT_TRUE(Exec(T(2), WriteOp(4, 8)).ok());
  const std::vector<std::pair<RecordKey, int64_t>> reused = {{K(4), 8}};
  EXPECT_EQ(engine_.WriteSetOf(T(2)), reused);
}

TEST_F(EngineTest, WriteSetKeepsFirstWriteOrderUnderManyRewrites) {
  // 60 writes over 13 keys, each key rewritten several times, interleaved:
  // one element per key, ordered by the key's first write, carrying the
  // key's last value (the order a follower or a migration target applies).
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  std::vector<std::pair<RecordKey, int64_t>> want;
  for (int64_t i = 0; i < 60; ++i) {
    const RecordKey key = K(static_cast<uint64_t>((i * 7) % 13) * 1000 + 3);
    ASSERT_TRUE(Exec(T(1), WriteOp(key.key, i + 1)).ok());
    auto it = std::find_if(want.begin(), want.end(),
                           [&](const auto& w) { return w.first == key; });
    if (it == want.end()) {
      want.emplace_back(key, i + 1);
    } else {
      it->second = i + 1;
    }
  }
  ASSERT_EQ(want.size(), 13u);
  EXPECT_EQ(want.front().first, K(3));
  EXPECT_EQ(want[1].first, K(7003));
  EXPECT_EQ(engine_.WriteSetOf(T(1)), want);
}

TEST_F(EngineTest, ReadMissingKeyReturnsZero) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  int64_t value = -1;
  ASSERT_TRUE(Exec(T(1), ReadOp(5), &value).ok());
  EXPECT_EQ(value, 0);
}

TEST_F(EngineTest, WriteThenReadOwnWrite) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 42)).ok());
  int64_t value = 0;
  ASSERT_TRUE(Exec(T(1), ReadOp(5), &value).ok());
  EXPECT_EQ(value, 42);
}

TEST_F(EngineTest, CommitMakesWriteDurable) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 42)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1)).ok());
  ASSERT_TRUE(engine_.Commit(T(1)).ok());
  EXPECT_EQ(engine_.store().Get(K(5))->value, 42);
  EXPECT_EQ(engine_.StateOf(T(1)), TxnState::kAborted);  // GC'ed
}

TEST_F(EngineTest, RollbackUndoesWritesInReverse) {
  engine_.store().Put(K(5), 100);
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 2)).ok());
  ASSERT_TRUE(engine_.Rollback(T(1)).ok());
  EXPECT_EQ(engine_.store().Get(K(5))->value, 100);
}

TEST_F(EngineTest, RollbackReleasesLocks) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(engine_.Rollback(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  EXPECT_TRUE(Exec(T(2), WriteOp(5, 2)).ok());  // lock must be free
}

TEST_F(EngineTest, PrepareBlocksFurtherOps) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1)).ok());
  EXPECT_TRUE(Exec(T(1), WriteOp(6, 2)).IsAborted());
}

TEST_F(EngineTest, PrepareTwiceFails) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1)).ok());
  EXPECT_TRUE(engine_.Prepare(T(1)).IsAborted());
}

TEST_F(EngineTest, OnePhaseCommitFromActive) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 7)).ok());
  ASSERT_TRUE(engine_.Commit(T(1)).ok());  // XA COMMIT ... ONE PHASE
  EXPECT_EQ(engine_.store().Get(K(5))->value, 7);
}

TEST_F(EngineTest, CommitUnknownBranchFails) {
  EXPECT_TRUE(engine_.Commit(T(9)).IsNotFound());
}

TEST_F(EngineTest, RollbackUnknownBranchIsIdempotent) {
  EXPECT_TRUE(engine_.Rollback(T(9)).ok());
}

TEST_F(EngineTest, RollbackAfterPrepareAllowed) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1)).ok());
  ASSERT_TRUE(engine_.Rollback(T(1)).ok());
  EXPECT_EQ(engine_.store().Get(K(5))->value, 0);
}

TEST_F(EngineTest, WalRecordsPrepareAndCommit) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1)).ok());
  EXPECT_EQ(engine_.wal().stats().prepares, 1u);
  EXPECT_EQ(engine_.wal().stats().commits, 0u);
  ASSERT_TRUE(engine_.Commit(T(1)).ok());
  EXPECT_EQ(engine_.wal().stats().prepares, 1u);
  EXPECT_EQ(engine_.wal().stats().commits, 1u);
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(engine_.Rollback(T(2)).ok());
  EXPECT_EQ(engine_.wal().stats().aborts, 1u);
  // Appending buffers entries; physical flushes are accounted separately
  // (under group commit the two diverge — one fsync can cover them all).
  EXPECT_EQ(engine_.wal().stats().Entries(), 3u);
  EXPECT_EQ(engine_.wal().fsyncs(), 0u);
  engine_.NoteWalFsync();
  EXPECT_EQ(engine_.wal().fsyncs(), 1u);
}

TEST_F(EngineTest, LockWaitParksOp) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  Status waiter_status = Status::Internal("pending");
  engine_.ExecuteOp(T(2), WriteOp(5, 2), [&](Status st, int64_t) {
    waiter_status = std::move(st);
  });
  EXPECT_TRUE(engine_.HasPendingOp(T(2)));
  ASSERT_TRUE(engine_.Commit(T(1)).ok());
  EXPECT_TRUE(waiter_status.ok());
  EXPECT_FALSE(engine_.HasPendingOp(T(2)));
  EXPECT_EQ(engine_.store().Get(K(5))->value, 2);
}

TEST_F(EngineTest, CancelPendingOpFiresTimeout) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  Status waiter_status = Status::Internal("pending");
  engine_.ExecuteOp(T(2), WriteOp(5, 2), [&](Status st, int64_t) {
    waiter_status = std::move(st);
  });
  engine_.CancelPendingOp(T(2), Status::TimedOut("lock wait"));
  EXPECT_TRUE(waiter_status.IsTimedOut());
  EXPECT_EQ(engine_.StateOf(T(2)), TxnState::kActive);  // caller decides
}

TEST_F(EngineTest, RollbackCancelsPendingOp) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  Status waiter_status = Status::Internal("pending");
  engine_.ExecuteOp(T(2), WriteOp(5, 2), [&](Status st, int64_t) {
    waiter_status = std::move(st);
  });
  ASSERT_TRUE(engine_.Rollback(T(2)).ok());
  EXPECT_TRUE(waiter_status.IsAborted());
}

TEST_F(EngineTest, PrepareWithPendingOpFails) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  engine_.ExecuteOp(T(2), WriteOp(5, 2), [](Status, int64_t) {});
  EXPECT_TRUE(engine_.Prepare(T(2)).IsAborted());
  (void)engine_.Rollback(T(2));
}

TEST_F(EngineTest, CrashAbortsActiveKeepsPrepared) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 1)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(2), WriteOp(6, 2)).ok());

  engine_.Crash();

  // T1 (prepared) survives as in-doubt; T2 (active) rolled back.
  auto prepared = engine_.PreparedXids();
  ASSERT_EQ(prepared.size(), 1u);
  EXPECT_EQ(prepared[0].txn_id, T(1).txn_id);
  EXPECT_EQ(engine_.store().Get(K(6))->value, 0);
  // The in-doubt branch can still commit after recovery.
  ASSERT_TRUE(engine_.Commit(T(1)).ok());
  EXPECT_EQ(engine_.store().Get(K(5))->value, 1);
}

TEST_F(EngineTest, EarlyOnePhaseCommitIsLiveUntilDurable) {
  engine_.store().Put(K(5), 1);
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 7)).ok());
  ASSERT_TRUE(engine_.CommitEarly(T(1)).ok());
  // The write is visible and the lock is free at once...
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  int64_t read = 0;
  ASSERT_TRUE(Exec(T(2), ReadOp(5), &read).ok());
  EXPECT_EQ(read, 7);
  ASSERT_TRUE(Exec(T(2), WriteOp(5, 9)).ok());
  // ...but no snapshot ships it before its record is durable.
  const auto value_of_5 = [this]() {
    for (const auto& [key, value] : engine_.CommittedRecords()) {
      if (key == K(5)) return value;
    }
    return int64_t{-1};
  };
  EXPECT_EQ(value_of_5(), 1);
  engine_.CommitDurable(T(1));
  EXPECT_EQ(value_of_5(), 7);  // T2 is still live
  ASSERT_TRUE(engine_.Commit(T(2)).ok());
  EXPECT_EQ(value_of_5(), 9);
}

TEST_F(EngineTest, CrashUndoesEarlyCommitsThatAreNotDurable) {
  engine_.store().Put(K(5), 1);
  // T1 and T2 commit early over each other; T3 writes over both and is
  // still active. T4 commits early and its record is durable.
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 7)).ok());
  ASSERT_TRUE(engine_.CommitEarly(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(2), WriteOp(5, 9)).ok());
  ASSERT_TRUE(Exec(T(2), WriteOp(6, 4)).ok());
  ASSERT_TRUE(engine_.CommitEarly(T(2)).ok());
  ASSERT_TRUE(engine_.Begin(T(3)).ok());
  ASSERT_TRUE(Exec(T(3), WriteOp(5, 11)).ok());
  ASSERT_TRUE(engine_.Begin(T(4)).ok());
  ASSERT_TRUE(Exec(T(4), WriteOp(7, 3)).ok());
  ASSERT_TRUE(engine_.CommitEarly(T(4)).ok());
  engine_.CommitDurable(T(4));

  engine_.Crash();

  EXPECT_EQ(engine_.store().Get(K(5))->value, 1);
  EXPECT_EQ(engine_.store().Get(K(6))->value, 0);
  EXPECT_EQ(engine_.store().Get(K(7))->value, 3);
  EXPECT_EQ(engine_.ActiveCount(), 0u);
}

TEST_F(EngineTest, EarlyCommitOfAPreparedBranchIsFinal) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(5, 7)).ok());
  ASSERT_TRUE(engine_.Prepare(T(1)).ok());
  ASSERT_TRUE(engine_.CommitEarly(T(1)).ok());
  // Its outcome was already fixed: snapshots ship it, and a crash keeps it.
  const auto records = engine_.CommittedRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, 7);
  engine_.Crash();
  EXPECT_EQ(engine_.store().Get(K(5))->value, 7);
}

TEST_F(EngineTest, DeadlockVictimGetsAborted) {
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  ASSERT_TRUE(Exec(T(1), WriteOp(1, 1)).ok());
  ASSERT_TRUE(Exec(T(2), WriteOp(2, 2)).ok());
  engine_.ExecuteOp(T(1), WriteOp(2, 3), [](Status, int64_t) {});
  Status victim = Status::Internal("pending");
  engine_.ExecuteOp(T(2), WriteOp(1, 4), [&](Status st, int64_t) {
    victim = std::move(st);
  });
  EXPECT_TRUE(victim.IsAborted());
}

TEST_F(EngineTest, EngineConfigPresetsDiffer) {
  EngineConfig mysql = MySqlEngineConfig();
  EngineConfig postgres = PostgresEngineConfig();
  EXPECT_NE(mysql.read_cost, postgres.read_cost);
  EXPECT_GT(mysql.prepare_fsync_cost, 0);
  EXPECT_GT(postgres.prepare_fsync_cost, 0);
}

TEST_F(EngineTest, ActiveCountTracksLiveBranches) {
  EXPECT_EQ(engine_.ActiveCount(), 0u);
  ASSERT_TRUE(engine_.Begin(T(1)).ok());
  ASSERT_TRUE(engine_.Begin(T(2)).ok());
  EXPECT_EQ(engine_.ActiveCount(), 2u);
  ASSERT_TRUE(engine_.Commit(T(1)).ok());
  EXPECT_EQ(engine_.ActiveCount(), 1u);
}

}  // namespace
}  // namespace storage
}  // namespace geotp
