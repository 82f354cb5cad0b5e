#include "datasource/data_source.h"

#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace geotp {
namespace datasource {
namespace {

/// True when std::function keeps a callable of type F in its own small
/// buffer instead of a heap block: at most two pointers, trivially
/// copyable (libstdc++'s rule).
template <class F>
constexpr bool kStoredInline =
    sizeof(F) <= 2 * sizeof(void*) && std::is_trivially_copyable_v<F>;

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
      agent_(std::make_unique<GeoAgent>(this)),
      migrator_(std::make_unique<sharding::ShardMigrator>(this)) {
  committer_.set_on_fsync([this]() { engine_.NoteWalFsync(); });
}

void DataSourceNode::Attach() {
  network_->RegisterNode(
      id_, [this](std::unique_ptr<runtime::MessageBase> msg) {
        HandleMessage(std::move(msg));
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

obs::TraceContext DataSourceNode::BranchTrace(TxnId txn) const {
  auto it = branches_.find(txn);
  return it == branches_.end() ? obs::TraceContext{} : it->second.trace;
}

void DataSourceNode::RegisterMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const std::string prefix = "ds." + std::to_string(id_) + ".";
  registry->RegisterStats(prefix, stats_);
  registry->RegisterStats(prefix + "locks.", engine_.locks().stats());
  registry->RegisterStats(prefix + "group_commit.", committer_.stats());
  registry->RegisterStats(prefix + "migrator.", migrator_->stats());
  registry->RegisterStats(prefix + "agent.", agent_->stats());
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
}

void DataSourceNode::OnIngestApplied(uint64_t migration_id,
                                     uint64_t chunk_seq, uint64_t delta_seq,
                                     uint64_t content_hash) {
  migrator_->NoteIngestApplied(migration_id, chunk_seq, delta_seq,
                               content_hash);
}

void DataSourceNode::AfterLocalPrepare(const Xid& xid, NodeId coordinator,
                                       std::function<void()> deliver_vote) {
  // The quorum span covers the replication wait when the group has peers;
  // without replication it closes in the same tick (a pass-through), so a
  // sampled transaction's span chain is the same shape either way.
  obs::SpanHandle quorum = obs::kInvalidSpan;
  if (obs::GlobalTracer().enabled()) {
    const obs::TraceContext trace = BranchTrace(xid.txn_id);
    if (trace.valid()) {
      quorum = obs::GlobalTracer().BeginSpan(trace, "ds.quorum", id_,
                                             loop()->Now());
    }
  }
  auto deliver = [this, quorum,
                  deliver_vote = std::move(deliver_vote)]() {
    if (quorum != obs::kInvalidSpan) {
      obs::GlobalTracer().EndSpan(quorum, loop()->Now());
    }
    deliver_vote();
  };
  if (replicator_ != nullptr && replicator_->IsLeader()) {
    replicator_->ReplicatePrepare(
        xid, engine_.WriteSetOf<protocol::ReplWrite>(xid), coordinator,
        std::move(deliver));
    return;
  }
  deliver();
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

void DataSourceNode::HandleMessage(std::unique_ptr<runtime::MessageBase> msg) {
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
    parked_.push_back(std::move(msg));
    return;
  }
  if (migrator_->HandleMessage(msg.get())) return;
  switch (msg->type()) {
    case runtime::MessageType::kBranchExecuteRequest: {
      auto& exec = static_cast<BranchExecuteRequest&>(*msg);
      if (RedirectIfNotLeader(exec.from)) return;
      OnExecute(exec);
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
      OnDecision(DecisionItem{decision.xid, decision.commit,
                              decision.one_phase},
                 decision.from);
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
      agent_->OnPeerAbort(static_cast<PeerAbortRequest&>(*msg));
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
    // like an exec would. (Bootstrap snapshots — migration_id 0 — are
    // consumed by the Replicator before parking is consulted.)
    case runtime::MessageType::kShardSnapshotChunk:
    case runtime::MessageType::kShardDeltaBatch:
    // A seed offer answered during the barrier would consult an ingest
    // journal the deferred inherited-entry applies are still extending —
    // the decline would under-claim and chunks would re-cross the WAN.
    case runtime::MessageType::kShardSeedOffer:
    case runtime::MessageType::kShardSeedDecline:
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
  std::vector<std::unique_ptr<runtime::MessageBase>> replay;
  replay.swap(parked_);
  for (auto& msg : replay) {
    HandleMessage(std::move(msg));
  }
}

void DataSourceNode::OnExecute(const BranchExecuteRequest& req) {
  auto state = std::make_shared<ExecState>();
  state->xid = req.xid;
  state->round_seq = req.round_seq;
  state->ops = req.ops;
  state->last_statement = req.last_statement;
  state->started_at = loop()->Now();
  state->reply_to = req.from;
  if (obs::GlobalTracer().enabled() && req.trace.valid()) {
    state->exec_span = obs::GlobalTracer().BeginSpan(
        req.trace, "ds.branch_exec", id_, state->started_at);
  }

  // Elastic sharding: refuse batches on fenced (mid-migration) ranges —
  // the client retries and, post-cutover, routes to the new owner — and
  // bounce batches routed under a stale shard-map epoch with a redirect.
  const sharding::ShardRange* moved = nullptr;
  switch (migrator_->CheckOps(req.ops, &moved)) {
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
  if (agent_->IsTombstoned(req.xid.txn_id)) {
    SendExecuteResponse(state, Status::Aborted("transaction early-aborted"),
                        /*rolled_back=*/true);
    return;
  }

  if (req.begin_branch) {
    // Bounded run queue: a full engine refuses NEW branches retryably.
    // Branches already begun here (the else arm) always run — refusing
    // them mid-transaction would wedge admitted work behind the very
    // queue it is supposed to drain.
    if (config_.max_run_queue > 0 &&
        engine_.ActiveCount() >= config_.max_run_queue) {
      stats_.run_queue_rejections++;
      SendExecuteResponse(state, Status::Unavailable("run queue full"),
                          /*rolled_back=*/false);
      return;
    }
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
  if (!branch.trace.valid()) branch.trace = req.trace;
  for (const protocol::ClientOp& op : req.ops) {
    branch.keys.push_back(op.key);
  }

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

  state->timeout_event = sim::kInvalidEvent;
  const uint64_t handle = state->handle;
  const auto on_op = [this, handle](Status status, int64_t value) {
    const std::shared_ptr<ExecState> state = LiveExec(handle);
    if (state == nullptr) return;  // finished; its timeout is gone too
    if (state->timeout_event != sim::kInvalidEvent) {
      loop()->Cancel(state->timeout_event);
      state->timeout_event = sim::kInvalidEvent;
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
    static_assert(kStoredInline<decltype(after_row_cost)>);
    loop()->Schedule(cost, after_row_cost);
  };
  static_assert(kStoredInline<decltype(on_op)>);
  engine_.ExecuteOp(state->xid, op, on_op);

  // If the request parked in the lock queue, arm the lock-wait timeout
  // (innodb_lock_wait_timeout; paper default 5 s).
  if (engine_.HasPendingOp(state->xid)) {
    state->timeout_event = loop()->Schedule(
        config_.engine.lock_wait_timeout, [this, handle]() {
          const std::shared_ptr<ExecState> state = LiveExec(handle);
          if (state == nullptr) return;
          state->timeout_event = sim::kInvalidEvent;
          stats_.lock_timeouts++;
          engine_.CancelPendingOp(
              state->xid, Status::TimedOut("lock wait timeout"));
        });
  }
}

void DataSourceNode::FinishExecSuccess(const std::shared_ptr<ExecState>& state) {
  RetireExec(*state);
  SendExecuteResponse(state, Status::OK(), /*rolled_back=*/false);
  if (state->last_statement) {
    auto it = branches_.find(state->xid.txn_id);
    if (it != branches_.end()) {
      agent_->AsyncPrepare(state->xid, it->second.peers,
                           it->second.coordinator);
    }
  }
}

void DataSourceNode::FinishExecFailure(const std::shared_ptr<ExecState>& state,
                                       Status status) {
  RetireExec(*state);
  if (state->timeout_event != sim::kInvalidEvent) {
    loop()->Cancel(state->timeout_event);
    state->timeout_event = sim::kInvalidEvent;
  }
  auto it = branches_.find(state->xid.txn_id);
  if (it != branches_.end()) {
    // Local failure: roll back the branch, then (early abort) notify peers
    // directly, bypassing the DM (§IV-A, Fig. 4b).
    const std::vector<NodeId> peers = it->second.peers;
    const NodeId coordinator = it->second.coordinator;
    branches_.erase(it);
    agent_->Tombstone(state->xid.txn_id);
    (void)engine_.Rollback(state->xid, loop()->Now());
    stats_.rollbacks++;
    if (config_.early_abort && !peers.empty()) {
      agent_->AsyncRollback(state->xid, peers, coordinator,
                            /*notify_dm=*/false);
    }
  }
  SendExecuteResponse(state, std::move(status), /*rolled_back=*/true);
}

void DataSourceNode::SendExecuteResponse(
    const std::shared_ptr<ExecState>& state, Status status,
    bool rolled_back) {
  auto resp = std::make_unique<BranchExecuteResponse>();
  resp->from = id_;
  resp->to = state->reply_to;
  resp->xid = state->xid;
  resp->round_seq = state->round_seq;
  resp->status = std::move(status);
  resp->values = state->values;
  resp->local_exec_latency = loop()->Now() - state->started_at;
  resp->rolled_back = rolled_back;
  if (state->exec_span != obs::kInvalidSpan) {
    obs::GlobalTracer().EndSpan(state->exec_span, loop()->Now());
    state->exec_span = obs::kInvalidSpan;
  }
  network_->Send(std::move(resp));
}

void DataSourceNode::OnPrepare(const Xid& xid, NodeId coordinator) {
  // Explicit prepare: the classic 2PC path, or the §III case of a source
  // that is not processing the transaction's last statement. The prepare
  // record joins the WAL device's open batch; the branch transitions (and
  // the vote goes out) only when the shared fsync completes.
  stats_.explicit_prepares++;
  obs::SpanHandle fsync_span = obs::kInvalidSpan;
  if (obs::GlobalTracer().enabled()) {
    const obs::TraceContext trace = BranchTrace(xid.txn_id);
    if (trace.valid()) {
      fsync_span = obs::GlobalTracer().BeginSpan(trace, "ds.prepare_fsync",
                                                 id_, loop()->Now());
    }
  }
  committer_.Append(config_.engine.prepare_fsync_cost,
                    "PREPARE xid=" + xid.ToString() + "\n",
                    [this, xid, coordinator, fsync_span]() {
    if (fsync_span != obs::kInvalidSpan) {
      obs::GlobalTracer().EndSpan(fsync_span, loop()->Now());
    }
    if (crashed_) return;
    Status st = engine_.Prepare(xid, loop()->Now());
    if (st.ok()) {
      // Vote only after the prepare record is quorum-durable on the
      // replica group (no-op without replication).
      AfterLocalPrepare(xid, coordinator, [this, xid, coordinator]() {
        if (crashed_) return;
        auto vote = std::make_unique<VoteMessage>();
        vote->from = id_;
        vote->to = coordinator;
        vote->xid = xid;
        vote->vote = Vote::kPrepared;
        network_->Send(std::move(vote));
      });
      return;
    }
    auto vote = std::make_unique<VoteMessage>();
    vote->from = id_;
    vote->to = coordinator;
    vote->xid = xid;
    vote->vote = Vote::kFailure;
    (void)engine_.Rollback(xid, loop()->Now());
    branches_.erase(xid.txn_id);
    network_->Send(std::move(vote));
  });
}

void DataSourceNode::OnDecision(const DecisionItem& item,
                                NodeId coordinator) {
  agent_->ClearTombstone(item.xid.txn_id);
  const Xid xid = item.xid;
  if (item.commit) {
    const bool one_phase = item.one_phase;
    // Decision retry after a failover: if the commit entry already exists
    // and the branch is gone (committed via log apply), just confirm once
    // the entry is quorum-durable.
    if (replicator_ != nullptr && replicator_->IsLeader()) {
      const auto index = replicator_->CommitEntryIndex(xid.txn_id);
      const storage::TxnState state = engine_.StateOf(xid);
      if (index.has_value() && state != storage::TxnState::kActive &&
          state != storage::TxnState::kPrepared) {
        replicator_->AwaitQuorum(
            *index, [this, xid, coordinator, one_phase]() {
              if (crashed_) return;
              auto ack = std::make_unique<DecisionAck>();
              ack->from = id_;
              ack->to = coordinator;
              ack->xid = xid;
              ack->committed = true;
              ack->one_phase = one_phase;
              ack->status = Status::OK();
              network_->Send(std::move(ack));
            });
        return;
      }
    }
    // The commit record shares the WAL device's flush with any concurrent
    // prepare/commit records (group commit).
    obs::SpanHandle fsync_span = obs::kInvalidSpan;
    if (obs::GlobalTracer().enabled()) {
      const obs::TraceContext trace = BranchTrace(xid.txn_id);
      if (trace.valid()) {
        fsync_span = obs::GlobalTracer().BeginSpan(trace, "ds.commit_fsync",
                                                   id_, loop()->Now());
      }
    }
    committer_.Append(
        config_.engine.commit_fsync_cost,
        "COMMIT xid=" + xid.ToString() + "\n",
        [this, xid, coordinator, one_phase, fsync_span]() {
          if (fsync_span != obs::kInvalidSpan) {
            obs::GlobalTracer().EndSpan(fsync_span, loop()->Now());
          }
          if (crashed_) return;
          auto finish = [this, xid, coordinator, one_phase]() {
            if (crashed_) return;
            // Capture the write set before Commit releases it: an active
            // outbound migration forwards the intersecting writes to the
            // shard's destination as deltas.
            std::vector<std::pair<RecordKey, int64_t>> migrating_writes;
            if (migrator_->WantsCommittedWrites()) {
              migrating_writes = engine_.WriteSetOf(xid);
            }
            Status st = engine_.Commit(xid, loop()->Now());
            if (!st.ok() && replicator_ != nullptr &&
                replicator_->CommitEntryIndex(xid.txn_id).has_value()) {
              // The branch already committed through the replicated log
              // (apply callback raced a duplicate decision): success.
              st = Status::OK();
            }
            if (st.ok()) {
              stats_.commits++;
              migrator_->OnCommittedWrites(migrating_writes);
            }
            branches_.erase(xid.txn_id);
            migrator_->OnBranchResolved();
            auto ack = std::make_unique<DecisionAck>();
            ack->from = id_;
            ack->to = coordinator;
            ack->xid = xid;
            ack->committed = st.ok();
            ack->one_phase = one_phase;
            ack->status = std::move(st);
            network_->Send(std::move(ack));
          };
          const storage::TxnState state = engine_.StateOf(xid);
          const bool committable =
              (state == storage::TxnState::kActive ||
               state == storage::TxnState::kPrepared) &&
              !engine_.HasPendingOp(xid);
          if (replicator_ != nullptr && replicator_->IsLeader() &&
              committable) {
            // Quorum-replicate the commit (with its write set) before the
            // local commit becomes durable and is acknowledged.
            obs::SpanHandle quorum = obs::kInvalidSpan;
            if (obs::GlobalTracer().enabled()) {
              const obs::TraceContext trace = BranchTrace(xid.txn_id);
              if (trace.valid()) {
                quorum = obs::GlobalTracer().BeginSpan(
                    trace, "ds.commit_quorum", id_, loop()->Now());
              }
            }
            replicator_->ReplicateCommit(
                xid, engine_.WriteSetOf<protocol::ReplWrite>(xid),
                [this, quorum, finish = std::move(finish)]() {
                  if (quorum != obs::kInvalidSpan) {
                    obs::GlobalTracer().EndSpan(quorum, loop()->Now());
                  }
                  finish();
                });
          } else {
            finish();
          }
        });
  } else {
    (void)engine_.Rollback(xid, loop()->Now());
    NoteLocalRollback(xid.txn_id);
    stats_.rollbacks++;
    branches_.erase(xid.txn_id);
    migrator_->OnBranchResolved();
    auto ack = std::make_unique<DecisionAck>();
    ack->from = id_;
    ack->to = coordinator;
    ack->xid = xid;
    ack->committed = false;
    ack->status = Status::OK();
    network_->Send(std::move(ack));
  }
}

void DataSourceNode::AbortBranchForMigration(TxnId txn) {
  auto it = branches_.find(txn);
  if (it == branches_.end()) return;
  const NodeId coordinator = it->second.coordinator;
  const Xid xid{txn, logical_id()};
  branches_.erase(it);
  // The tombstone refuses batches already in flight toward the fence; the
  // DM's abort decision clears it.
  agent_->Tombstone(txn);
  // With a pending lock request, the rollback cancels it and the exec
  // failure path reports to the DM; otherwise confirm via a ROLLBACKED
  // vote (same split as the peer-abort path).
  const bool had_pending = engine_.HasPendingOp(xid);
  (void)engine_.Rollback(xid, loop()->Now());
  NoteLocalRollback(txn);
  stats_.rollbacks++;
  if (!had_pending && coordinator != kInvalidNode) {
    auto vote = std::make_unique<VoteMessage>();
    vote->from = id_;
    vote->to = coordinator;
    vote->xid = xid;
    vote->vote = Vote::kRollbacked;
    network_->Send(std::move(vote));
  }
}

void DataSourceNode::OnPing(const PingRequest& req) {
  auto pong = std::make_unique<PingResponse>();
  pong->from = id_;
  pong->to = req.from;
  pong->seq = req.seq;
  pong->sent_at = req.sent_at;
  // Capacity signal: live branches (active + prepared, including parked
  // lock waiters) — the balancer's load term.
  pong->inflight = engine_.ActiveCount();
  stats_.peak_inflight = std::max(stats_.peak_inflight, pong->inflight);
  // Saturation signal: run-queue depth against its bound (0 = unbounded).
  pong->run_queue = pong->inflight;
  pong->run_queue_limit = config_.max_run_queue;
  // Shard-map anti-entropy: report our epoch, and hand the whole map to a
  // DM whose ping proves it missed a publish.
  const sharding::ShardMap& map = migrator_->map();
  pong->shard_epoch = map.epoch();
  if (!map.empty() && req.shard_epoch < map.epoch()) {
    pong->map_entries = map.ranges();
    stats_.shard_map_serves++;
  }
  network_->Send(std::move(pong));
}

void DataSourceNode::OnCoordinatorFailure(NodeId middleware) {
  std::vector<TxnId> to_abort;
  for (const auto& [txn, info] : branches_) {
    if (info.coordinator != middleware) continue;
    const Xid xid{txn, logical_id()};
    if (engine_.StateOf(xid) == storage::TxnState::kActive) {
      to_abort.push_back(txn);
    }
  }
  for (TxnId txn : to_abort) {
    (void)engine_.Rollback(Xid{txn, logical_id()}, loop()->Now());
    stats_.rollbacks++;
    branches_.erase(txn);
  }
}

void DataSourceNode::Crash() {
  crashed_ = true;
  network_->Partition(id_);
  // The WAL device's open batch dies with the node: entries waiting for a
  // group-commit fsync were never durable, so their waiters must not fire.
  committer_.Reset();
  // Data sources abort every branch that has not completed the prepare
  // phase (paper §V-A common setting ❷).
  engine_.Crash(loop()->Now());
  branches_.clear();
  parked_.clear();  // undelivered work dies with the node
  migrator_->OnCrash();
  if (replicator_ != nullptr) replicator_->OnCrash();
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
