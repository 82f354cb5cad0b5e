#include "datasource/data_source.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/wire.h"

namespace geotp {
namespace datasource {
namespace {

/// Geo-agent <-> database LAN round trip (the decentralized prepare costs
/// one of these instead of a WAN round trip; paper §IV-A).
constexpr Micros kAgentLanRtt = 300;

}  // namespace

using protocol::BranchExecuteRequest;
using protocol::BranchExecuteResponse;
using protocol::DecisionAck;
using protocol::DecisionBatch;
using protocol::DecisionItem;
using protocol::DecisionRequest;
using protocol::PeerAbortRequest;
using protocol::PingRequest;
using protocol::PingResponse;
using protocol::PrepareBatch;
using protocol::PrepareRequest;
using protocol::ReplEntryType;
using protocol::Vote;
using protocol::VoteMessage;

DataSourceNode::DataSourceNode(runtime::ActorEnv env, DataSourceConfig config)
    : id_(env.node),
      network_(env.transport),
      timer_(env.timer),
      wal_device_(env.OpenStorage("wal")),
      config_(config),
      engine_(config.engine),
      committer_(timer_, wal_device_.get(), config.group_commit),
      migrator_(std::make_unique<sharding::ShardMigrator>(this)) {
  // A record tagged with a replicated log entry ships that entry as its
  // batch goes to the device, and the replica's copy of it is durable once
  // the flush completes.
  committer_.set_on_fsync([this]() {
    engine_.NoteWalFsync();
    if (replicator_ != nullptr) replicator_->OnWalFlushed();
  });
  committer_.set_on_flush_start([this](uint64_t tag) {
    if (tag != 0) replicator_->OnWalFlushStart();
  });
}

void DataSourceNode::Attach() {
  network_->RegisterNode(
      id_, [this](std::unique_ptr<runtime::MessageBase> msg) {
        HandleMessage(std::move(msg), timer_->Now());
      });
  // Same executor-affinity rule as MiddlewareNode::Attach: announces sent by
  // Replicator::Start can draw same-tick replies on the actor thread, so the
  // start itself must run there rather than on the attaching thread.
  if (replicator_ != nullptr) {
    timer_->Schedule(0, [this]() { replicator_->Start(); });
  }
}

void DataSourceNode::EnableReplication(
    const replication::GroupConfig& group) {
  replicator_ = std::make_unique<replication::Replicator>(this, group);
}

obs::SpanHandle DataSourceNode::BeginBranchSpan(TxnId txn,
                                                const char* name) {
  if (!obs::GlobalTracer().enabled()) return obs::kInvalidSpan;
  auto it = branches_.find(txn);
  if (it == branches_.end() || !it->second.trace.valid()) {
    return obs::kInvalidSpan;
  }
  return obs::GlobalTracer().BeginSpan(it->second.trace, name, id_,
                                       timer_->Now());
}

void DataSourceNode::EndBranchSpan(obs::SpanHandle span) {
  if (span != obs::kInvalidSpan) {
    obs::GlobalTracer().EndSpan(span, timer_->Now());
  }
}

void DataSourceNode::SendVote(NodeId to, const Xid& xid, Vote vote) {
  auto branch = branches_.find(xid.txn_id);
  if (branch != branches_.end() && branch->second.held_response != nullptr) {
    SendHeldResponse(std::move(branch->second.held_response), vote);
    return;
  }
  auto msg = std::make_unique<VoteMessage>();
  msg->from = id_;
  msg->to = to;
  msg->xid = xid;
  msg->vote = vote;
  msg->acked_commits = TakeQueuedAcks(to);
  network_->Send(std::move(msg));
}

void DataSourceNode::SendDecisionAck(NodeId to, const Xid& xid,
                                     bool committed, bool one_phase,
                                     Status status) {
  auto ack = std::make_unique<DecisionAck>();
  ack->from = id_;
  ack->to = to;
  ack->xid = xid;
  ack->committed = committed;
  ack->one_phase = one_phase;
  ack->status = std::move(status);
  stats_.acks_sent_alone++;
  network_->Send(std::move(ack));
}

void DataSourceNode::QueueCommitAck(NodeId dm, TxnId txn) {
  AckQueue& queue = ack_queues_[dm];
  queue.txns.push_back(txn);
  if (queue.txns.size() > 1) return;
  queue.flush = timer_->Schedule(kAckDelayBound, [this, dm]() {
    AckQueue& due = ack_queues_[dm];
    due.flush = runtime::kInvalidTimer;
    const std::vector<TxnId> txns = std::move(due.txns);
    due.txns.clear();
    for (TxnId txn : txns) {
      SendDecisionAck(dm, Xid{txn, logical_id()}, /*committed=*/true,
                      /*one_phase=*/false, Status::OK());
    }
  });
}

std::vector<TxnId> DataSourceNode::TakeQueuedAcks(NodeId dm) {
  auto it = ack_queues_.find(dm);
  if (it == ack_queues_.end() || it->second.txns.empty()) return {};
  AckQueue& queue = it->second;
  timer_->Cancel(queue.flush);
  queue.flush = runtime::kInvalidTimer;
  stats_.acks_piggybacked += queue.txns.size();
  std::vector<TxnId> txns = std::move(queue.txns);
  queue.txns.clear();
  return txns;
}

void DataSourceNode::RegisterMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const std::string prefix = "ds." + std::to_string(id_) + ".";
  registry->RegisterStats(prefix, stats_);
  registry->RegisterStats(prefix + "locks.", engine_.locks().stats());
  registry->RegisterStats(prefix + "wal.", engine_.wal().stats());
  registry->RegisterStats(prefix + "group_commit.", committer_.stats());
  registry->RegisterStats(prefix + "migrator.", migrator_->stats());
  if (replicator_ != nullptr) {
    registry->RegisterStats(prefix + "replicator.", replicator_->stats());
    registry->RegisterStats(prefix + "shipper.", replicator_->shipper_stats());
    registry->RegisterStats(prefix + "election.",
                            replicator_->election_stats());
  }
  registry->RegisterGauge(prefix + "inflight_branches", [this]() {
    return static_cast<double>(engine_.ActiveCount());
  });
  registry->RegisterGauge(prefix + "wal_fsyncs", [this]() {
    return static_cast<double>(wal_device_->fsyncs());
  });
  registry->RegisterGauge(prefix + "wal_bytes", [this]() {
    return static_cast<double>(wal_device_->bytes_flushed());
  });
  // Live tombstones; expired ones linger only until the next insert.
  registry->RegisterGauge(prefix + "retained.tombstones", [this]() {
    const Micros now = timer_->Now();
    return static_cast<double>(std::count_if(
        tombstones_.begin(), tombstones_.end(), [now](const auto& entry) {
          return entry.second + kTombstoneLifetime > now;
        }));
  });
  // Outcomes waiting for their commit entry to apply here.
  registry->RegisterGauge(prefix + "retained.commit_waiters", [this]() {
    return static_cast<double>(
        replicator_ != nullptr ? replicator_->commit_waiters() : 0);
  });
  // Commit-entry index per committed transaction, kept for decision
  // retries after a failover (never pruned yet).
  registry->RegisterGauge(prefix + "retained.commit_entries", [this]() {
    return static_cast<double>(
        replicator_ != nullptr ? replicator_->commit_entries() : 0);
  });
}

void DataSourceNode::OnIngestApplied(
    uint64_t migration_id, uint64_t chunk_seq, uint64_t delta_seq,
    const std::vector<protocol::ReplWrite>& writes) {
  migrator_->NoteIngestApplied(migration_id, chunk_seq, delta_seq, writes);
}

void DataSourceNode::OnLogWiped() { migrator_->ForgetIngestJournal(); }

uint64_t DataSourceNode::AppendRecordEntry(ReplEntryType type,
                                           const Xid& xid,
                                           NodeId coordinator) {
  const storage::TxnState state = engine_.StateOf(xid);
  const bool loggable =
      state == storage::TxnState::kActive ||
      (type == ReplEntryType::kCommit && state == storage::TxnState::kPrepared);
  if (replicator_ == nullptr || !loggable || engine_.HasPendingOp(xid)) {
    return 0;
  }
  return replicator_->AppendRecordEntry(type, xid, coordinator);
}

void DataSourceNode::PrepareDurably(const Xid& xid, NodeId coordinator,
                                    std::function<void()> on_refused) {
  // The branch transitions (and the vote goes out) only when the shared
  // fsync completes.
  const obs::SpanHandle fsync_span =
      BeginBranchSpan(xid.txn_id, "ds.prepare_fsync");
  const uint64_t tag =
      AppendRecordEntry(ReplEntryType::kPrepare, xid, coordinator);
  committer_.Append(
      config_.engine.prepare_fsync_cost,
      wire::Pack(storage::LogRecord{storage::LogRecordType::kPrepare, xid}),
      [this, xid, coordinator, fsync_span,
       on_refused = std::move(on_refused)]() {
        EndBranchSpan(fsync_span);
        if (crashed_) return;
        if (engine_.Prepare(xid, timer_->Now()).ok()) {
          AfterLocalPrepare(xid, coordinator);
        } else {
          on_refused();
        }
      },
      tag);
}

void DataSourceNode::AfterLocalPrepare(const Xid& xid, NodeId coordinator) {
  uint64_t logged = 0;
  if (replicator_ != nullptr) {
    logged = replicator_->PrepareEntryIndex(xid.txn_id);
    if (logged == 0) {
      // The entry did not ship with the record (the node did not lead
      // when the record's batch went to the device): the group has no
      // prepare to vote for.
      (void)engine_.Rollback(xid, timer_->Now());
      stats_.rollbacks++;
      SendVote(coordinator, xid, Vote::kFailure);
      ForgetBranch(xid.txn_id);
      return;
    }
    // A replica that lost the leadership after the entry shipped leaves
    // it in doubt: the group's log commits, aborts or cuts it, and the
    // vote is the promoted leader's re-vote.
    if (!replicator_->IsLeader()) return;
  }
  // The quorum span covers the replication wait left after the local
  // flush when the group has peers; without replication it closes in the
  // same tick (a pass-through), so a sampled transaction's span chain is
  // the same shape either way.
  const obs::SpanHandle quorum = BeginBranchSpan(xid.txn_id, "ds.quorum");
  auto deliver = [this, xid, coordinator, quorum]() {
    EndBranchSpan(quorum);
    if (crashed_) return;
    SendVote(coordinator, xid, Vote::kPrepared);
  };
  if (logged != 0) {
    replicator_->AwaitQuorum(logged, std::move(deliver));
    return;
  }
  deliver();
}

void DataSourceNode::ForgetBranch(TxnId txn) {
  branches_.erase(txn);
  migrator_->OnBranchResolved();
}

void DataSourceNode::DropUnloggedBranches() {
  // Coordinators re-route every branch the group's log does not hold to
  // the new leader (a replay, or an in-doubt decision there), so such a
  // branch is stale here. One the log holds stays in doubt until the log
  // settles it.
  std::vector<TxnId> stale;
  for (const auto& [txn, info] : branches_) {
    if (replicator_->PrepareEntryIndex(txn) == 0 && !CommitLogged(txn)) {
      stale.push_back(txn);
    }
  }
  for (TxnId txn : stale) {
    auto it = branches_.find(txn);
    const std::shared_ptr<ExecState> held =
        std::move(it->second.held_response);
    branches_.erase(it);
    // A batch still running here fails and reports as usual; a held
    // response reports the rollback the same way.
    (void)engine_.Rollback(Xid{txn, logical_id()}, timer_->Now());
    stats_.rollbacks++;
    if (held != nullptr) {
      SendHeldResponse(held, Vote::kRollbacked);
    }
  }
  if (!stale.empty()) migrator_->OnBranchResolved();
}

Status DataSourceNode::CommitHeldBranch(const Xid& xid) {
  // Capture the write set before Commit releases it.
  std::vector<std::pair<RecordKey, int64_t>> writes;
  if (ForwardsCommittedWrites()) writes = engine_.WriteSetOf(xid);
  Status st = engine_.Commit(xid, timer_->Now());
  if (st.ok()) NoteCommitted(writes);
  return st;
}

bool DataSourceNode::ForwardsCommittedWrites() const {
  return migrator_->WantsCommittedWrites() &&
         (replicator_ == nullptr || replicator_->IsLeader());
}

void DataSourceNode::NoteCommitted(
    const std::vector<std::pair<RecordKey, int64_t>>& writes) {
  stats_.commits++;
  if (ForwardsCommittedWrites()) migrator_->OnCommittedWrites(writes);
}

bool DataSourceNode::CommitLogged(TxnId txn) const {
  return replicator_ != nullptr &&
         replicator_->CommitEntryIndex(txn).has_value();
}

void DataSourceNode::NoteLocalRollback(TxnId txn) {
  if (replicator_ != nullptr) replicator_->ReplicateAbortIfPrepared(txn);
}

bool DataSourceNode::RedirectIfNotLeader(NodeId requester) {
  if (replicator_ == nullptr || replicator_->IsLeader()) return false;
  auto redirect = std::make_unique<protocol::NotLeaderResponse>();
  redirect->from = id_;
  redirect->to = requester;
  redirect->group = replicator_->group_id();
  redirect->epoch = replicator_->epoch();
  redirect->leader_hint = replicator_->leader_hint();
  network_->Send(std::move(redirect));
  return true;
}

void DataSourceNode::HandleMessage(std::unique_ptr<runtime::MessageBase> msg,
                                   Micros arrived_at) {
  if (crashed_) return;
  if (msg->type() == runtime::MessageType::kFollowerReadRequest) {
    // Shard guard ahead of the replicator: a follower of a group the map
    // no longer places these keys on must not serve them (its copy froze
    // at cutover while its replication freshness keeps advancing). A
    // not-ok reply sends the DM down the leader path, which redirects.
    auto& read = static_cast<protocol::FollowerReadRequest&>(*msg);
    if (!migrator_->OwnsKeys(read.keys)) {
      auto resp = std::make_unique<protocol::FollowerReadResponse>();
      resp->from = id_;
      resp->to = read.from;
      resp->group = read.group;
      resp->txn_id = read.txn_id;
      resp->round_seq = read.round_seq;
      resp->ok = false;
      network_->Send(std::move(resp));
      return;
    }
  }
  if (replicator_ != nullptr && replicator_->HandleMessage(msg.get())) {
    return;
  }
  // Promotion barrier: a freshly promoted leader whose inherited log
  // entries have not all applied yet must not serve transactional work —
  // an exec admitted now would read values the deferred applies are about
  // to overwrite (lost update). Park and replay once the barrier clears
  // (one follower round trip); replication traffic above still flows, as
  // it is what clears the barrier.
  if (replicator_ != nullptr && !replicator_->ReadyToServe() &&
      ParkedDuringPromotion(msg->type())) {
    parked_.push_back(ParkedMessage{arrived_at, std::move(msg)});
    return;
  }
  if (migrator_->HandleMessage(msg.get())) return;
  switch (msg->type()) {
    case runtime::MessageType::kBranchExecuteRequest: {
      auto& exec = static_cast<BranchExecuteRequest&>(*msg);
      if (RedirectIfNotLeader(exec.from)) return;
      OnExecute(exec, arrived_at);
      return;
    }
    case runtime::MessageType::kPrepareRequest: {
      auto& prep = static_cast<PrepareRequest&>(*msg);
      if (RedirectIfNotLeader(prep.from)) return;
      OnPrepare(prep.xid, prep.from);
      return;
    }
    case runtime::MessageType::kPrepareBatch: {
      auto& batch = static_cast<PrepareBatch&>(*msg);
      if (RedirectIfNotLeader(batch.from)) return;
      for (const Xid& xid : batch.xids) OnPrepare(xid, batch.from);
      return;
    }
    case runtime::MessageType::kDecisionRequest: {
      auto& decision = static_cast<DecisionRequest&>(*msg);
      if (RedirectIfNotLeader(decision.from)) return;
      OnDecision(decision.item, decision.from);
      return;
    }
    case runtime::MessageType::kDecisionBatch: {
      auto& batch = static_cast<DecisionBatch&>(*msg);
      if (RedirectIfNotLeader(batch.from)) return;
      for (const DecisionItem& item : batch.items) {
        OnDecision(item, batch.from);
      }
      return;
    }
    case runtime::MessageType::kPeerAbortRequest:
      OnPeerAbort(static_cast<PeerAbortRequest&>(*msg));
      return;
    case runtime::MessageType::kPingRequest:
      OnPing(static_cast<PingRequest&>(*msg));
      return;
    default:
      GEOTP_CHECK(false, "data source " << id_ << ": unknown message");
  }
}

bool DataSourceNode::ParkedDuringPromotion(runtime::MessageType type) {
  switch (type) {
    case runtime::MessageType::kBranchExecuteRequest:
    case runtime::MessageType::kPrepareRequest:
    case runtime::MessageType::kPrepareBatch:
    case runtime::MessageType::kDecisionRequest:
    case runtime::MessageType::kDecisionBatch:
    case runtime::MessageType::kPeerAbortRequest:
    // A snapshot cut during the barrier would miss the inherited writes.
    case runtime::MessageType::kShardMigrateRequest:
    // Destination-side ingest raw-applies to the store; admitted during
    // the barrier it would race the deferred inherited-entry applies just
    // like an exec would, and the stream position it lifts from the
    // ingest journal would trail what the group already applied.
    // (Bootstrap snapshots — migration_id 0 — are consumed by the
    // Replicator before parking is consulted.)
    case runtime::MessageType::kShardSnapshotChunk:
    case runtime::MessageType::kShardDeltaBatch:
      return true;
    default:
      return false;
  }
}

void DataSourceNode::OnInheritedMigrations(
    const std::vector<replication::Replicator::InheritedMigration>&
        migrations) {
  migrator_->OnInheritedMigrations(migrations);
}

void DataSourceNode::OnReplicatorReady() {
  if (parked_.empty()) return;
  if (crashed_) {
    parked_.clear();
    return;
  }
  std::vector<ParkedMessage> replay;
  replay.swap(parked_);
  for (ParkedMessage& parked : replay) {
    HandleMessage(std::move(parked.msg), parked.arrived_at);
  }
}

void DataSourceNode::OnExecute(BranchExecuteRequest& req, Micros arrived_at) {
  auto state = std::make_shared<ExecState>();
  state->arrived_at = arrived_at;
  state->xid = req.xid;
  state->round_seq = req.round_seq;
  state->ops = std::move(req.ops);
  const std::vector<protocol::ClientOp>& ops = state->ops;
  state->last_statement = req.last_statement;
  state->commit_one_phase = req.commit_one_phase;
  state->started_at = timer_->Now();
  state->reply_to = req.from;
  if (obs::GlobalTracer().enabled() && req.trace.valid()) {
    state->exec_span = obs::GlobalTracer().BeginSpan(
        req.trace, "ds.branch_exec", id_, state->started_at);
  }

  // Elastic sharding: refuse batches on fenced (mid-migration) ranges —
  // the client retries and, post-cutover, routes to the new owner — and
  // bounce batches routed under a stale shard-map epoch with a redirect.
  const sharding::ShardRange* moved = nullptr;
  switch (migrator_->CheckOps(ops, &moved)) {
    case sharding::ShardMigrator::RouteCheck::kServe:
      break;
    case sharding::ShardMigrator::RouteCheck::kFenced:
      stats_.shard_fenced_rejections++;
      SendExecuteResponse(state,
                          Status::Unavailable("shard range migrating"),
                          /*rolled_back=*/false);
      return;
    case sharding::ShardMigrator::RouteCheck::kMoved: {
      stats_.shard_redirects_sent++;
      auto redirect = std::make_unique<protocol::ShardRedirect>();
      redirect->from = id_;
      redirect->to = req.from;
      redirect->txn_id = req.xid.txn_id;
      redirect->round_seq = req.round_seq;
      redirect->entry = *moved;
      network_->Send(std::move(redirect));
      return;
    }
  }

  // Early abort may have outrun this (possibly postponed) request.
  if (IsTombstoned(req.xid.txn_id)) {
    SendExecuteResponse(state, Status::Aborted("transaction early-aborted"),
                        /*rolled_back=*/true);
    return;
  }

  if (req.begin_branch) {
    Status st = engine_.Begin(req.xid);
    if (!st.ok()) {
      SendExecuteResponse(state, st, /*rolled_back=*/false);
      return;
    }
    BranchInfo info;
    info.peers = req.peers;
    info.coordinator = req.coordinator;
    info.trace = req.trace;
    branches_[req.xid.txn_id] = std::move(info);
  } else if (branches_.count(req.xid.txn_id) == 0) {
    SendExecuteResponse(state, Status::Aborted("branch gone"),
                        /*rolled_back=*/true);
    return;
  }
  BranchInfo& branch = branches_[req.xid.txn_id];
  // A later round can add participants: the last statement's prepare and
  // an early abort go to the peers the DM sent with this batch.
  branch.peers = req.peers;
  if (!branch.trace.valid()) branch.trace = req.trace;
  if (req.commit_one_phase) branch.one_phase_batch = state;
  branch.keys.reserve(branch.keys.size() + ops.size());
  for (const protocol::ClientOp& op : ops) branch.keys.push_back(op.key);
  state->values.reserve(ops.size());

  stats_.batches_executed++;
  RegisterExec(state);
  RunNextOp(state);
}

void DataSourceNode::RegisterExec(const std::shared_ptr<ExecState>& state) {
  uint32_t slot;
  if (free_exec_slots_.empty()) {
    slot = static_cast<uint32_t>(exec_slots_.size());
    exec_slots_.emplace_back();
  } else {
    slot = free_exec_slots_.back();
    free_exec_slots_.pop_back();
  }
  exec_slots_[slot].state = state;
  state->handle = (uint64_t{exec_slots_[slot].generation} << 32) | slot;
}

std::shared_ptr<DataSourceNode::ExecState> DataSourceNode::LiveExec(
    uint64_t handle) const {
  const ExecSlot& slot = exec_slots_[static_cast<uint32_t>(handle)];
  if (slot.generation != handle >> 32) return nullptr;
  return slot.state;
}

void DataSourceNode::RetireExec(ExecState& state) {
  GEOTP_CHECK(state.handle != 0, "batch " << state.xid.ToString()
                                          << " finished twice");
  const auto index = static_cast<uint32_t>(state.handle);
  ExecSlot& slot = exec_slots_[index];
  slot.generation++;
  slot.state.reset();
  free_exec_slots_.push_back(index);
  state.handle = 0;
}

void DataSourceNode::RunNextOp(const std::shared_ptr<ExecState>& state) {
  if (state->next_op >= state->ops.size()) {
    FinishExecSuccess(state);
    return;
  }
  const protocol::ClientOp& cop = state->ops[state->next_op];
  storage::Operation op;
  op.key = cop.key;
  op.is_write = cop.is_write;
  op.write_value = cop.value;
  // Deltas resolve inside the engine after the lock grant; resolving here
  // would read a stale base while the batch waits in a lock queue.
  op.is_delta = cop.is_delta;

  state->timeout_event = runtime::kInvalidTimer;
  const uint64_t handle = state->handle;
  const auto on_op = [this, handle](Status status, int64_t value) {
    const std::shared_ptr<ExecState> state = LiveExec(handle);
    if (state == nullptr) return;  // finished; its timeout is gone too
    if (state->timeout_event != runtime::kInvalidTimer) {
      timer_->Cancel(state->timeout_event);
      state->timeout_event = runtime::kInvalidTimer;
    }
    if (!status.ok()) {
      FinishExecFailure(state, status);
      return;
    }
    // Lock granted and the operation applied; charge the row cost.
    const bool is_write = state->ops[state->next_op].is_write;
    const Micros cost =
        is_write ? config_.engine.write_cost : config_.engine.read_cost;
    stats_.ops_executed++;
    state->pending_value = value;
    const auto after_row_cost = [this, handle]() {
      const std::shared_ptr<ExecState> state = LiveExec(handle);
      if (state == nullptr) return;
      state->values.push_back(state->pending_value);
      state->next_op++;
      RunNextOp(state);
    };
    static_assert(runtime::kStoredInline<decltype(after_row_cost)>);
    timer_->Schedule(cost, after_row_cost);
  };
  static_assert(runtime::kStoredInline<decltype(on_op)>);
  // If the request parked in the lock queue, arm the lock-wait timeout.
  if (engine_.ExecuteOp(state->xid, op, on_op)) {
    state->timeout_event = timer_->Schedule(
        kLockWaitTimeout, [this, handle]() {
          const std::shared_ptr<ExecState> state = LiveExec(handle);
          if (state == nullptr) return;
          state->timeout_event = runtime::kInvalidTimer;
          stats_.lock_timeouts++;
          engine_.CancelPendingOp(
              state->xid, Status::TimedOut("lock wait timeout"));
        });
  }
}

void DataSourceNode::FinishExecSuccess(const std::shared_ptr<ExecState>& state) {
  RetireExec(*state);
  if (state->commit_one_phase) {
    // The batch ends the transaction's only branch and carries its COMMIT:
    // commit now, so the locks go without waiting a WAN round trip for a
    // decision, and respond with the durable outcome.
    state->finished_at = timer_->Now();
    EndBranchSpan(state->exec_span);
    state->exec_span = obs::kInvalidSpan;
    CommitBranch(state->xid, [this, state](Status st) {
      if (state->decision_waiter != kInvalidNode) {
        SendDecisionAck(state->decision_waiter, state->xid, st.ok(),
                        /*one_phase=*/true, st);
      }
      if (!st.ok()) {
        SendExecuteResponse(state, std::move(st), /*rolled_back=*/true);
        return;
      }
      stats_.exec_commits++;
      SendExecuteResponse(state, Status::OK(), /*rolled_back=*/false,
                          /*committed=*/true);
    });
    return;
  }
  auto it = branches_.find(state->xid.txn_id);
  if (!state->last_statement || it == branches_.end()) {
    SendExecuteResponse(state, Status::OK(), /*rolled_back=*/false);
    return;
  }
  if (it->second.peers.empty()) {
    // Algorithm 1 line 8: a last statement with no peers votes IDLE, on
    // this response; the branch stays active for the one-phase commit.
    SendExecuteResponse(state, Status::OK(), /*rolled_back=*/false,
                        /*committed=*/false, Vote::kIdle);
    return;
  }
  // Implicit yes-vote: the response waits for the decentralized prepare
  // and carries its vote, so the DM gets one message instead of two. The
  // footprint's local latency still ends with the ops.
  state->finished_at = timer_->Now();
  EndBranchSpan(state->exec_span);
  state->exec_span = obs::kInvalidSpan;
  it->second.held_response = state;
  AsyncPrepare(state->xid, it->second.peers, it->second.coordinator);
}

void DataSourceNode::FinishExecFailure(const std::shared_ptr<ExecState>& state,
                                       Status status) {
  RetireExec(*state);
  if (state->timeout_event != runtime::kInvalidTimer) {
    timer_->Cancel(state->timeout_event);
    state->timeout_event = runtime::kInvalidTimer;
  }
  auto it = branches_.find(state->xid.txn_id);
  if (it != branches_.end()) {
    // Local failure: roll back the branch, then (early abort) notify peers
    // directly, bypassing the DM (§IV-A, Fig. 4b).
    const std::vector<NodeId> peers = std::move(it->second.peers);
    branches_.erase(it);
    stats_.rollbacks++;
    AsyncRollback(state->xid, peers);
  }
  if (state->decision_waiter != kInvalidNode) {
    SendDecisionAck(state->decision_waiter, state->xid, /*committed=*/false,
                    /*one_phase=*/true, status);
  }
  SendExecuteResponse(state, std::move(status), /*rolled_back=*/true);
}

void DataSourceNode::SendExecuteResponse(
    const std::shared_ptr<ExecState>& state, Status status, bool rolled_back,
    bool committed, Vote vote) {
  auto resp = std::make_unique<BranchExecuteResponse>();
  resp->from = id_;
  resp->to = state->reply_to;
  resp->xid = state->xid;
  resp->round_seq = state->round_seq;
  resp->status = std::move(status);
  resp->values = std::move(state->values);
  const Micros end =
      state->finished_at != 0 ? state->finished_at : timer_->Now();
  resp->local_exec_latency = end - state->started_at;
  resp->rolled_back = rolled_back;
  resp->committed = committed;
  resp->vote = vote;
  if (vote != Vote::kNone) stats_.votes_on_response++;
  resp->acked_commits = TakeQueuedAcks(resp->to);
  resp->residence = timer_->Now() - state->arrived_at;
  FillReport(*resp);
  EndBranchSpan(state->exec_span);
  state->exec_span = obs::kInvalidSpan;
  network_->Send(std::move(resp));
}

void DataSourceNode::SendHeldResponse(std::shared_ptr<ExecState> held,
                                      Vote vote) {
  SendExecuteResponse(held, Status::OK(), /*rolled_back=*/false,
                      /*committed=*/false, vote);
}

void DataSourceNode::OnPrepare(const Xid& xid, NodeId coordinator) {
  // Explicit prepare: the classic 2PC path, or the §III case of a source
  // that is not processing the transaction's last statement.
  stats_.explicit_prepares++;
  PrepareDurably(xid, coordinator, [this, xid, coordinator]() {
    (void)engine_.Rollback(xid, timer_->Now());
    SendVote(coordinator, xid, Vote::kFailure);
    branches_.erase(xid.txn_id);
  });
}

void DataSourceNode::AsyncPrepare(const Xid& xid, std::vector<NodeId> peers,
                                  NodeId coordinator) {
  stats_.prepares_initiated++;
  // conn.end(): one LAN hop between the agent and the database (vs. the
  // WAN round trip the DM-driven prepare would cost, §IV-A).
  timer_->Schedule(kAgentLanRtt, [this, xid, peers = std::move(peers),
                                  coordinator]() mutable {
    if (crashed_) return;
    stats_.decentralized_prepares++;
    PrepareDurably(xid, coordinator, [this, xid, peers = std::move(peers),
                                      coordinator]() {
      // Rolled back while the prepare was in flight (a peer's early
      // abort): the rollback path already reported to the DM, on the
      // held response.
      if (engine_.StateOf(xid) != storage::TxnState::kActive) return;
      SendVote(coordinator, xid, Vote::kFailure);
      AsyncRollback(xid, peers);
    });
  });
}

void DataSourceNode::AsyncRollback(const Xid& xid,
                                   const std::vector<NodeId>& peers) {
  Tombstone(xid.txn_id);
  (void)engine_.Rollback(xid, timer_->Now());
  NoteLocalRollback(xid.txn_id);
  if (!config_.early_abort) return;
  for (NodeId peer : peers) {
    if (peer == id_) continue;
    auto req = std::make_unique<PeerAbortRequest>();
    req->from = id_;
    req->to = peer;
    req->txn_id = xid.txn_id;
    network_->Send(std::move(req));
    stats_.early_aborts_sent++;
  }
}

void DataSourceNode::OnPeerAbort(const PeerAbortRequest& req) {
  stats_.early_aborts_received++;
  if (AbortBranch(req.txn_id)) return;
  // The branch has not arrived yet (postponed dispatch) or was already
  // finished; the tombstone refuses the former.
  Tombstone(req.txn_id);
  stats_.tombstone_hits++;
}

bool DataSourceNode::AbortBranch(TxnId txn) {
  // A replica that is not the leader leaves its branches to the group's
  // log (in doubt) or to the coordinator's re-route to the new leader: a
  // rollback and a vote from here would speak for a branch it lost.
  if (replicator_ != nullptr && !replicator_->IsLeader()) return false;
  auto it = branches_.find(txn);
  if (it == branches_.end()) return false;
  const NodeId coordinator = it->second.coordinator;
  const std::shared_ptr<ExecState> held = std::move(it->second.held_response);
  const Xid xid{txn, logical_id()};
  branches_.erase(it);
  // The DM's abort decision clears the tombstone; expiry covers the
  // participants it skips because they already confirmed.
  Tombstone(txn);
  const bool had_pending = engine_.HasPendingOp(xid);
  (void)engine_.Rollback(xid, timer_->Now());
  NoteLocalRollback(txn);
  stats_.rollbacks++;
  // A held response answers with the vote; a running batch fails and
  // reports itself.
  if (held != nullptr) {
    SendHeldResponse(held, Vote::kRollbacked);
  } else if (!had_pending && coordinator != kInvalidNode) {
    SendVote(coordinator, xid, Vote::kRollbacked);
  }
  return true;
}

void DataSourceNode::Tombstone(TxnId txn) {
  const Micros now = timer_->Now();
  while (!tombstone_order_.empty() &&
         tombstone_order_.front().first + kTombstoneLifetime <= now) {
    const auto [at, expired] = tombstone_order_.front();
    tombstone_order_.pop_front();
    auto it = tombstones_.find(expired);
    if (it != tombstones_.end() && it->second == at) tombstones_.erase(it);
  }
  tombstones_[txn] = now;
  tombstone_order_.emplace_back(now, txn);
}

bool DataSourceNode::IsTombstoned(TxnId txn) const {
  auto it = tombstones_.find(txn);
  return it != tombstones_.end() &&
         it->second + kTombstoneLifetime > timer_->Now();
}

void DataSourceNode::OnDecision(const DecisionItem& item,
                                NodeId coordinator) {
  tombstones_.erase(item.xid.txn_id);  // the txn is finished
  const Xid xid = item.xid;
  if (!item.commit) {
    (void)engine_.Rollback(xid, timer_->Now());
    NoteLocalRollback(xid.txn_id);
    stats_.rollbacks++;
    branches_.erase(xid.txn_id);
    migrator_->OnBranchResolved();
    SendDecisionAck(coordinator, xid, /*committed=*/false,
                    /*one_phase=*/false, Status::OK());
    return;
  }
  auto branch = branches_.find(xid.txn_id);
  if (branch != branches_.end() && branch->second.one_phase_batch) {
    // The branch's commit-carrying batch still runs or commits here: its
    // own commit answers the decision, so the writes commit once.
    branch->second.one_phase_batch->decision_waiter = coordinator;
    return;
  }
  // Decision retry after a failover: if the commit entry already exists
  // and the branch is gone (committed via log apply), just confirm once
  // the entry is quorum-durable.
  if (replicator_ != nullptr && replicator_->IsLeader()) {
    const auto index = replicator_->CommitEntryIndex(xid.txn_id);
    const storage::TxnState state = engine_.StateOf(xid);
    if (index.has_value() && state != storage::TxnState::kActive &&
        state != storage::TxnState::kPrepared) {
      replicator_->AwaitQuorum(*index, [this, item, coordinator]() {
        if (crashed_) return;
        AckCommit(item, coordinator, Status::OK());
      });
      return;
    }
  }
  CommitBranch(xid, [this, item, coordinator](Status st) {
    AckCommit(item, coordinator, std::move(st));
  });
}

void DataSourceNode::AckCommit(const DecisionItem& item, NodeId coordinator,
                               Status status) {
  if (item.lazy_ack && status.ok()) {
    QueueCommitAck(coordinator, item.xid.txn_id);
    return;
  }
  const bool committed = status.ok();
  SendDecisionAck(coordinator, item.xid, committed, item.one_phase,
                  std::move(status));
}

void DataSourceNode::CommitBranch(const Xid& xid,
                                  std::function<void(Status)> done) {
  const storage::TxnState held = engine_.StateOf(xid);
  if (held != storage::TxnState::kActive &&
      held != storage::TxnState::kPrepared) {
    // The branch died here (a crash, a rollback) or never began: there is
    // nothing to commit, so no COMMIT record either.
    if (branches_.erase(xid.txn_id) > 0) migrator_->OnBranchResolved();
    done(Status::NotFound("commit: unknown branch " + xid.ToString()));
    return;
  }
  // The commit record shares the WAL device's flush with any concurrent
  // prepare/commit records (group commit).
  const obs::SpanHandle fsync_span =
      BeginBranchSpan(xid.txn_id, "ds.commit_fsync");
  std::string record =
      wire::Pack(storage::LogRecord{storage::LogRecordType::kCommit, xid});
  if (replicator_ == nullptr) {
    // Early lock release: the branch commits in the engine as its record
    // joins the batch, and only its outcome waits for the flush. The
    // committer makes records durable in append order, so a transaction
    // that takes these locks cannot vote or be answered before this
    // commit is durable. The write set is read before the release: a
    // migration forwards it at the flush's end, when later writers may
    // have changed the rows.
    std::vector<std::pair<RecordKey, int64_t>> writes =
        engine_.WriteSetOf(xid);
    Status st = engine_.CommitEarly(xid, timer_->Now());
    committer_.Append(
        config_.engine.commit_fsync_cost, std::move(record),
        [this, xid, fsync_span, st = std::move(st),
         writes = std::move(writes), done = std::move(done)]() mutable {
          EndBranchSpan(fsync_span);
          if (crashed_) return;
          engine_.CommitDurable(xid);
          if (st.ok()) NoteCommitted(writes);
          ForgetBranch(xid.txn_id);
          done(std::move(st));
        });
    return;
  }
  const uint64_t tag =
      AppendRecordEntry(ReplEntryType::kCommit, xid, kInvalidNode);
  committer_.Append(
      config_.engine.commit_fsync_cost, std::move(record),
      [this, xid, fsync_span, done = std::move(done)]() mutable {
        EndBranchSpan(fsync_span);
        if (crashed_) return;
        if (const auto index = replicator_->CommitEntryIndex(xid.txn_id)) {
          // The log holds the commit entry (it shipped with this record
          // or an earlier one): the group's log decides. Its apply here
          // commits the branch, and then `done` runs;
          // cutting it drops `done` (the coordinator resolves the
          // transaction at the leader that cut it). The span covers what
          // is left of the quorum round after the flush.
          const obs::SpanHandle quorum =
              BeginBranchSpan(xid.txn_id, "ds.commit_quorum");
          replicator_->AwaitCommitApplied(
              *index, [this, quorum, done = std::move(done)]() {
                EndBranchSpan(quorum);
                done(Status::OK());
              });
          return;
        }
        // The entry did not ship with the record: the commit is outside
        // the group. An un-prepared branch dies here, as in a crash; the
        // coordinator resolves a prepared one at the leader, which holds
        // it in doubt.
        if (engine_.StateOf(xid) == storage::TxnState::kActive) {
          (void)engine_.Rollback(xid, timer_->Now());
          stats_.rollbacks++;
          ForgetBranch(xid.txn_id);
          done(Status::Aborted("commit entry not in the group's log"));
        }
      },
      tag);
}

template <class M>
void DataSourceNode::FillReport(M& msg) {
  // Capacity signal: live branches (active + prepared, including parked
  // lock waiters) — the balancer's load term.
  msg.inflight = engine_.ActiveCount();
  stats_.peak_inflight = std::max(stats_.peak_inflight, msg.inflight);
  // Shard-map anti-entropy: a DM whose epoch trails pushes its map here; a
  // DM behind this epoch pings this node for the map.
  msg.shard_epoch = migrator_->map().epoch();
}

void DataSourceNode::OnPing(const PingRequest& req) {
  auto pong = std::make_unique<PingResponse>();
  pong->from = id_;
  pong->to = req.from;
  pong->seq = req.seq;
  pong->sent_at = req.sent_at;
  FillReport(*pong);
  // Shard-map anti-entropy: hand the whole map to a DM whose ping proves
  // it missed a publish.
  const sharding::ShardMap& map = migrator_->map();
  if (!map.empty() && req.shard_epoch < map.epoch()) {
    pong->map_entries = map.ranges();
    stats_.shard_map_serves++;
  }
  pong->acked_commits = TakeQueuedAcks(pong->to);
  network_->Send(std::move(pong));
}

void DataSourceNode::OnCoordinatorFailure(NodeId middleware) {
  std::vector<TxnId> to_abort;
  for (const auto& [txn, info] : branches_) {
    if (info.coordinator != middleware) continue;
    const Xid xid{txn, logical_id()};
    // A branch whose commit entry is in the log is decided: it commits.
    if (engine_.StateOf(xid) == storage::TxnState::kActive &&
        !CommitLogged(txn)) {
      to_abort.push_back(txn);
    }
  }
  for (TxnId txn : to_abort) {
    (void)engine_.Rollback(Xid{txn, logical_id()}, timer_->Now());
    NoteLocalRollback(txn);
    stats_.rollbacks++;
    branches_.erase(txn);
  }
}

void DataSourceNode::Crash() {
  crashed_ = true;
  network_->Partition(id_);
  // The replicated log keeps the prefix the WAL made durable; it reads the
  // WAL's pending records before they go.
  if (replicator_ != nullptr) replicator_->OnCrash();
  // The WAL device's open batch dies with the node: entries waiting for a
  // group-commit fsync were never durable, so their waiters must not fire.
  committer_.Reset();
  // Data sources abort every branch that has not completed the prepare
  // phase (paper §V-A common setting ❷).
  engine_.Crash(timer_->Now());
  branches_.clear();
  parked_.clear();  // undelivered work dies with the node
  for (auto& [dm, queue] : ack_queues_) {
    if (queue.flush != runtime::kInvalidTimer) timer_->Cancel(queue.flush);
  }
  ack_queues_.clear();  // the DM re-sends its decisions after the failover
  migrator_->OnCrash();
}

void DataSourceNode::Restart() {
  crashed_ = false;
  network_->Restore(id_);
  // A restarted replica rejoins as a follower; any leadership it held was
  // superseded by the election its crash triggered.
  if (replicator_ != nullptr) replicator_->OnRestart();
}

}  // namespace datasource
}  // namespace geotp
