#include "storage/engine.h"

#include <utility>

#include "common/logging.h"

namespace geotp {
namespace storage {

EngineConfig MySqlEngineConfig() {
  EngineConfig config;
  config.read_cost = 220;
  config.write_cost = 420;
  config.prepare_fsync_cost = 2200;
  config.commit_fsync_cost = 1000;
  return config;
}

EngineConfig PostgresEngineConfig() {
  EngineConfig config;
  config.read_cost = 180;
  config.write_cost = 460;
  config.prepare_fsync_cost = 1800;
  config.commit_fsync_cost = 1200;
  return config;
}

TransactionEngine::TransactionEngine(EngineConfig config)
    : config_(config) {}

TransactionEngine::TxnData* TransactionEngine::Find(const Xid& xid) {
  auto it = txns_.find(xid);
  return it == txns_.end() ? nullptr : &it->second;
}

const TransactionEngine::TxnData* TransactionEngine::Find(
    const Xid& xid) const {
  auto it = txns_.find(xid);
  return it == txns_.end() ? nullptr : &it->second;
}

Status TransactionEngine::Begin(const Xid& xid) {
  auto [it, inserted] = txns_.try_emplace(xid);
  if (!inserted) {
    return Status::AlreadyExists("xa branch exists: " + xid.ToString());
  }
  (void)it;
  return Status::OK();
}

void TransactionEngine::ExecuteOp(const Xid& xid, const Operation& op,
                                  OpCallback callback) {
  TxnData* data = Find(xid);
  if (data == nullptr || data->state != TxnState::kActive) {
    callback(Status::Aborted("op on non-active branch " + xid.ToString()), 0);
    return;
  }
  GEOTP_CHECK(data->pending_request == kInvalidLockRequest,
              "one outstanding op per branch: " << xid.ToString());

  const LockMode mode = op.is_write ? LockMode::kExclusive : LockMode::kShared;
  if (locks_.TryLock(xid, op.key, mode)) {
    RunGranted(*data, op, callback);
    return;
  }
  // Contended: park (or be refused as a deadlock victim). Capture by
  // value: `op` lives on the caller's stack.
  const Operation operation = op;
  const Xid owner = xid;
  LockRequestId id = locks_.RequestLock(
      owner, operation.key, mode,
      [this, owner, operation, cb = std::move(callback)](Status status) {
        TxnData* txn = Find(owner);
        if (txn != nullptr) txn->pending_request = kInvalidLockRequest;
        if (!status.ok()) {
          cb(status, 0);
          return;
        }
        if (txn == nullptr || txn->state != TxnState::kActive) {
          cb(Status::Aborted("branch gone while waiting"), 0);
          return;
        }
        RunGranted(*txn, operation, cb);
      });
  if (id != kInvalidLockRequest) {
    // Parked. The callback above fires later; remember the id so Rollback
    // or a timeout can cancel it.
    TxnData* txn = Find(xid);
    GEOTP_CHECK(txn != nullptr, "txn vanished while parking");
    txn->pending_request = id;
  }
}

void TransactionEngine::RunGranted(TxnData& txn, const Operation& op,
                                   const OpCallback& callback) {
  if (!op.is_write) {
    auto record = store_.Get(op.key);
    callback(Status::OK(), record ? record->value : 0);
    return;
  }
  // One probe: read the base, log it for undo, write in place. The slot
  // reference dies before the callback, which may insert.
  int64_t& value = store_.FindOrInsert(op.key);
  txn.undo.push_back(UndoEntry{op.key, value});
  value = op.is_delta ? value + op.write_value : op.write_value;
  const int64_t final_value = value;
  callback(Status::OK(), final_value);
}

bool TransactionEngine::HasPendingOp(const Xid& xid) const {
  const TxnData* data = Find(xid);
  return data != nullptr && data->pending_request != kInvalidLockRequest;
}

void TransactionEngine::CancelPendingOp(const Xid& xid, Status status) {
  TxnData* data = Find(xid);
  if (data == nullptr || data->pending_request == kInvalidLockRequest) return;
  const LockRequestId id = data->pending_request;
  data->pending_request = kInvalidLockRequest;
  locks_.CancelRequest(id, std::move(status));
}

Status TransactionEngine::Prepare(const Xid& xid, Micros now) {
  TxnData* data = Find(xid);
  if (data == nullptr) {
    return Status::NotFound("prepare: unknown branch " + xid.ToString());
  }
  if (data->state != TxnState::kActive) {
    return Status::Aborted("prepare: branch not active");
  }
  if (data->pending_request != kInvalidLockRequest) {
    return Status::Aborted("prepare: operation still in flight");
  }
  data->state = TxnState::kPrepared;
  wal_.Append(WalEntryType::kPrepare, xid, now);
  return Status::OK();
}

std::vector<std::pair<RecordKey, int64_t>>
TransactionEngine::CommittedRecords(
    const std::function<bool(const RecordKey&)>& filter) const {
  // At most one live branch can hold the exclusive lock on a key, so its
  // OLDEST undo entry (vector order) carries the pre-branch committed
  // value.
  std::unordered_map<RecordKey, int64_t, RecordKeyHash> uncommitted;
  for (const auto& [xid, data] : txns_) {
    std::unordered_map<RecordKey, int64_t, RecordKeyHash> first_undo;
    for (const UndoEntry& undo : data.undo) {
      if (filter && !filter(undo.key)) continue;
      first_undo.emplace(undo.key, undo.old_value);  // keeps the oldest
    }
    uncommitted.insert(first_undo.begin(), first_undo.end());
  }
  std::vector<std::pair<RecordKey, int64_t>> records;
  store_.ForEach([&](const RecordKey& key, int64_t value) {
    if (filter && !filter(key)) return;
    auto it = uncommitted.find(key);
    records.emplace_back(key, it != uncommitted.end() ? it->second : value);
  });
  return records;
}

Status TransactionEngine::InstallPreparedBranch(
    const Xid& xid, const std::vector<std::pair<RecordKey, int64_t>>& writes,
    Micros now) {
  GEOTP_RETURN_NOT_OK(Begin(xid));
  TxnData* data = Find(xid);
  for (const auto& [key, value] : writes) {
    // The engine is quiescent during failover promotion, so every lock
    // grant is synchronous.
    const bool granted = locks_.TryLock(xid, key, LockMode::kExclusive);
    GEOTP_CHECK(granted, "install: lock contention on " << key.ToString());
    int64_t& slot = store_.FindOrInsert(key);
    data->undo.push_back(UndoEntry{key, slot});
    slot = value;
  }
  data->state = TxnState::kPrepared;
  wal_.Append(WalEntryType::kPrepare, xid, now);
  return Status::OK();
}

Status TransactionEngine::Commit(const Xid& xid, Micros now) {
  TxnData* data = Find(xid);
  if (data == nullptr) {
    return Status::NotFound("commit: unknown branch " + xid.ToString());
  }
  if (data->state != TxnState::kPrepared &&
      data->state != TxnState::kActive) {
    return Status::Aborted("commit: branch not committable");
  }
  if (data->pending_request != kInvalidLockRequest) {
    return Status::Aborted("commit: operation still in flight");
  }
  wal_.Append(WalEntryType::kCommit, xid, now);
  Finish(xid, *data, TxnState::kCommitted);
  return Status::OK();
}

Status TransactionEngine::Rollback(const Xid& xid, Micros now) {
  TxnData* data = Find(xid);
  if (data == nullptr) return Status::OK();  // idempotent
  if (data->state == TxnState::kCommitted) {
    return Status::Internal("rollback after commit: " + xid.ToString());
  }
  // Cancel an in-flight lock request; its callback observes kAborted.
  if (data->pending_request != kInvalidLockRequest) {
    const LockRequestId id = data->pending_request;
    data->pending_request = kInvalidLockRequest;
    locks_.CancelRequest(id, Status::Aborted("rolled back"));
    data = Find(xid);  // callback may have touched the map
    if (data == nullptr) return Status::OK();
  }
  // Undo in reverse order.
  for (auto it = data->undo.rbegin(); it != data->undo.rend(); ++it) {
    store_.Put(it->key, it->old_value);
  }
  wal_.Append(WalEntryType::kAbort, xid, now);
  Finish(xid, *data, TxnState::kAborted);
  return Status::OK();
}

TxnState TransactionEngine::StateOf(const Xid& xid) const {
  const TxnData* data = Find(xid);
  return data == nullptr ? TxnState::kAborted : data->state;
}

void TransactionEngine::Crash(Micros now) {
  std::vector<Xid> to_abort;
  for (const auto& [xid, data] : txns_) {
    if (data.state != TxnState::kPrepared) to_abort.push_back(xid);
  }
  for (const Xid& xid : to_abort) {
    (void)Rollback(xid, now);
  }
}

std::vector<Xid> TransactionEngine::PreparedXids() const {
  std::vector<Xid> out;
  for (const auto& [xid, data] : txns_) {
    if (data.state == TxnState::kPrepared) out.push_back(xid);
  }
  return out;
}

void TransactionEngine::Finish(const Xid& xid, TxnData& data,
                               TxnState final_state) {
  data.state = final_state;
  locks_.ReleaseAll(xid);
  txns_.erase(xid);
}

}  // namespace storage
}  // namespace geotp
