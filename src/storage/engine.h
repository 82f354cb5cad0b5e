// TransactionEngine: the XA-capable transactional core of one data source.
//
// It wires together the lock manager, record store, undo log and WAL into
// the participant-side state machine:
//
//        ExecuteOp*            Prepare             Commit
//   ACTIVE ----------> ACTIVE ---------> PREPARED --------> COMMITTED
//      \__________________ Rollback ________________/-> ABORTED  (X)
//
// Writes are applied in place under exclusive locks with undo entries
// (strict 2PL, as in InnoDB); Rollback undoes them in reverse order.
// Commit is also allowed straight from ACTIVE to model the XA one-phase
// commit used for centralized transactions.
//
// The engine is time-free: durations (execution cost, fsync cost) are a
// *cost model* the data-source node charges on the event loop. Only lock
// waits are asynchronous here, surfaced through callbacks.
#ifndef GEOTP_STORAGE_ENGINE_H_
#define GEOTP_STORAGE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/lock_manager.h"
#include "storage/record_store.h"
#include "storage/wal.h"

namespace geotp {
namespace storage {

/// Cost model of one data-source engine. Defaults approximate a MySQL /
/// PostgreSQL class server at serializable isolation: a few hundred
/// microseconds per row operation (parse + B-tree + locking), ~2 ms
/// group-commit fsync for XA PREPARE, ~1 ms for the commit record.
struct EngineConfig {
  Micros read_cost = 200;
  Micros write_cost = 400;
  Micros prepare_fsync_cost = 2000;
  Micros commit_fsync_cost = 1000;
  /// Lock-wait timeout enforced by the data-source node (paper: 5 s).
  Micros lock_wait_timeout = SecToMicros(5);
};

/// Engine-flavour presets used for the heterogeneous-deployment study
/// (Table I). The numbers differ slightly so S1/S2/S3 are distinguishable.
EngineConfig MySqlEngineConfig();
EngineConfig PostgresEngineConfig();

enum class TxnState : uint8_t { kActive, kPrepared, kCommitted, kAborted };

struct Operation {
  RecordKey key;
  bool is_write = false;
  int64_t write_value = 0;
  /// Read-modify-write: the final value is current + write_value, resolved
  /// AFTER the exclusive lock is granted (resolving it earlier reads a
  /// stale base and loses concurrent updates).
  bool is_delta = false;
};

/// Outcome of one operation: status + value read (reads only).
using OpCallback = std::function<void(Status, int64_t value)>;

class TransactionEngine {
 public:
  explicit TransactionEngine(EngineConfig config = EngineConfig());

  const EngineConfig& config() const { return config_; }
  RecordStore& store() { return store_; }
  const RecordStore& store() const { return store_; }
  LockManager& locks() { return locks_; }
  const Wal& wal() const { return wal_; }

  /// Reports one physical WAL fsync (the data-source node's GroupCommitter
  /// calls this once per completed flush, however many entries it covered).
  void NoteWalFsync() { wal_.NoteFsync(); }

  /// Begins a transaction branch. Fails if the xid is already known.
  Status Begin(const Xid& xid);

  /// Executes one operation: acquires the lock (S for reads, X for writes)
  /// and applies it. The callback may fire synchronously (lock free) or
  /// later (lock wait). A pending lock request is cancelled by Rollback()
  /// or CancelPendingOp().
  void ExecuteOp(const Xid& xid, const Operation& op, OpCallback callback);

  /// True if the xid has a lock request parked in the wait queue.
  bool HasPendingOp(const Xid& xid) const;

  /// Cancels the parked lock request (lock-wait timeout). The op callback
  /// fires with the given status. The transaction stays ACTIVE; the caller
  /// decides whether to roll back.
  void CancelPendingOp(const Xid& xid, Status status);

  /// XA prepare: persists the branch (WAL entry). ACTIVE -> PREPARED.
  /// Fails with kAborted if there is a pending (unfinished) operation.
  Status Prepare(const Xid& xid, Micros now);

  /// The branch's write set as (key, final absolute value) elements, one
  /// per key in first-write order, each built as `Write{key, value}`.
  /// Valid while the branch is ACTIVE or PREPARED (undo entries still
  /// present). Used to ship writes to replication followers, which build
  /// their wire element type directly.
  template <class Write = std::pair<RecordKey, int64_t>>
  std::vector<Write> WriteSetOf(const Xid& xid) const;

  /// Committed values of the resident records accepted by `filter` (all
  /// of them when empty). Writes of live (ACTIVE / PREPARED) branches are
  /// applied in place under locks, so the raw store is dirty; this view
  /// rolls them back through their undo entries. Snapshot transfer (shard
  /// migration — range-filtered — and follower bootstrap) reads this so
  /// uncommitted values never leave the node.
  std::vector<std::pair<RecordKey, int64_t>> CommittedRecords(
      const std::function<bool(const RecordKey&)>& filter = {}) const;

  /// Failover path: recreates a prepared branch from a replicated write
  /// set — takes exclusive locks, applies the writes with undo, and moves
  /// straight to PREPARED so a later Commit/Rollback behaves normally.
  /// The caller guarantees a quiescent engine (locks must be free).
  Status InstallPreparedBranch(
      const Xid& xid, const std::vector<std::pair<RecordKey, int64_t>>& writes,
      Micros now);

  /// XA commit: PREPARED -> COMMITTED (or ACTIVE -> COMMITTED for the
  /// one-phase path). Releases all locks.
  Status Commit(const Xid& xid, Micros now);

  /// Rolls back: undoes writes, cancels pending lock requests, releases
  /// locks. Legal from ACTIVE or PREPARED; idempotent on ABORTED.
  Status Rollback(const Xid& xid, Micros now);

  /// State query; kAborted for unknown xids (they may have been GC'ed).
  TxnState StateOf(const Xid& xid) const;

  /// Crash simulation: every non-prepared transaction is rolled back
  /// (paper §V-A setting ❷); PREPARED branches survive as in-doubt.
  void Crash(Micros now);

  /// In-doubt branches after a crash/restart, for coordinator recovery.
  std::vector<Xid> PreparedXids() const;

  /// Number of live (ACTIVE or PREPARED) branches.
  size_t ActiveCount() const { return txns_.size(); }

 private:
  struct UndoEntry {
    RecordKey key;
    int64_t old_value;
  };
  struct TxnData {
    TxnState state = TxnState::kActive;
    std::vector<UndoEntry> undo;
    LockRequestId pending_request = kInvalidLockRequest;
  };

  TxnData* Find(const Xid& xid);
  const TxnData* Find(const Xid& xid) const;
  void Finish(const Xid& xid, TxnData& data, TxnState final_state);
  /// Applies `op` under its granted lock and fires `callback`.
  void RunGranted(TxnData& txn, const Operation& op,
                  const OpCallback& callback);

  EngineConfig config_;
  RecordStore store_;
  LockManager locks_;
  Wal wal_;
  std::unordered_map<Xid, TxnData, XidHash> txns_;
};

template <class Write>
std::vector<Write> TransactionEngine::WriteSetOf(const Xid& xid) const {
  std::vector<Write> writes;
  const TxnData* data = Find(xid);
  if (data == nullptr) return writes;
  const std::vector<UndoEntry>& undo = data->undo;
  writes.reserve(undo.size());
  for (size_t i = 0; i < undo.size(); ++i) {
    bool seen = false;
    for (size_t j = 0; j < i && !seen; ++j) seen = undo[j].key == undo[i].key;
    if (seen) continue;  // several writes to one key: one final value
    auto record = store_.Get(undo[i].key);
    writes.push_back(Write{undo[i].key, record ? record->value : 0});
  }
  return writes;
}

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_ENGINE_H_
