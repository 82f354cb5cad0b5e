#include "middleware/middleware.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "datasource/data_source.h"

namespace geotp {
namespace middleware {

using protocol::BranchExecuteRequest;
using protocol::BranchExecuteResponse;
using protocol::ClientFinishRequest;
using protocol::ClientOp;
using protocol::ClientRoundRequest;
using protocol::ClientRoundResponse;
using protocol::ClientTxnResult;
using protocol::DecisionAck;
using protocol::DecisionRequest;
using protocol::FollowerReadRequest;
using protocol::FollowerReadResponse;
using protocol::LeaderAnnounce;
using protocol::NotLeaderResponse;
using protocol::PingResponse;
using protocol::PrepareRequest;
using protocol::Vote;
using protocol::VoteMessage;

const char* CommitProtocolName(CommitProtocol protocol) {
  switch (protocol) {
    case CommitProtocol::kTwoPhase:
      return "2pc";
    case CommitProtocol::kDecentralized:
      return "decentralized-prepare";
    case CommitProtocol::kLocalNoAtomicity:
      return "local-no-atomicity";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Presets (paper §VII-A1 baselines)
// ---------------------------------------------------------------------------

MiddlewareConfig MiddlewareConfig::SSP() {
  MiddlewareConfig config;
  config.name = "SSP";
  config.commit_protocol = CommitProtocol::kTwoPhase;
  config.scheduler.policy = core::SchedulerPolicy::kImmediate;
  return config;
}

MiddlewareConfig MiddlewareConfig::SSPLocal() {
  MiddlewareConfig config;
  config.name = "SSP(local)";
  config.commit_protocol = CommitProtocol::kLocalNoAtomicity;
  config.scheduler.policy = core::SchedulerPolicy::kImmediate;
  return config;
}

MiddlewareConfig MiddlewareConfig::Quro() {
  MiddlewareConfig config;
  config.name = "QURO";
  config.commit_protocol = CommitProtocol::kTwoPhase;
  config.scheduler.policy = core::SchedulerPolicy::kImmediate;
  config.quro_reorder = true;
  return config;
}

MiddlewareConfig MiddlewareConfig::Chiller() {
  MiddlewareConfig config;
  config.name = "Chiller";
  config.commit_protocol = CommitProtocol::kDecentralized;
  config.scheduler.policy = core::SchedulerPolicy::kChiller;
  return config;
}

MiddlewareConfig MiddlewareConfig::GeoTPO1() {
  MiddlewareConfig config;
  config.name = "GeoTP(O1)";
  config.commit_protocol = CommitProtocol::kDecentralized;
  config.scheduler.policy = core::SchedulerPolicy::kImmediate;
  config.early_abort = true;
  return config;
}

MiddlewareConfig MiddlewareConfig::GeoTPO1O2() {
  MiddlewareConfig config = GeoTPO1();
  config.name = "GeoTP(O1~O2)";
  config.scheduler.policy = core::SchedulerPolicy::kLatencyAware;
  return config;
}

MiddlewareConfig MiddlewareConfig::GeoTP() {
  MiddlewareConfig config = GeoTPO1();
  config.name = "GeoTP";
  config.scheduler.policy = core::SchedulerPolicy::kLatencyAwareForecast;
  config.scheduler.admission.enabled = true;
  return config;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

MiddlewareNode::MiddlewareNode(runtime::ActorEnv env, uint32_t ordinal,
                               Catalog catalog, MiddlewareConfig config)
    : id_(env.node),
      ordinal_(ordinal),
      network_(env.transport),
      timer_(env.timer),
      log_device_(env.OpenStorage("decision.log")),
      catalog_(std::move(catalog)),
      config_(std::move(config)),
      footprint_(std::make_unique<core::HotspotFootprint>(config_.footprint)),
      monitor_(std::make_unique<core::LatencyMonitor>(
          id_, network_, timer_, catalog_.AllDataSources(), config_.monitor)),
      scheduler_(std::make_unique<core::GeoScheduler>(
          config_.scheduler, monitor_.get(), footprint_.get())),
      rng_(0xD1CEBA5E + id_),
      trace_rng_(0x714ACE00 + id_),
      admission_(config_.overload),
      log_committer_(timer_, log_device_.get(), config_.log_group_commit) {
  log_committer_.set_on_fsync([this]() { stats_.log_flushes++; });
  if (config_.balancer.enabled) {
    balancer_ =
        std::make_unique<sharding::ShardBalancer>(this, config_.balancer);
  }
}

MiddlewareNode::~MiddlewareNode() = default;

void MiddlewareNode::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const std::string prefix = "dm." + std::to_string(ordinal_) + ".";
  registry->RegisterStats(prefix, stats_);
  registry->RegisterStats(prefix + "overload.", admission_.stats());
  registry->RegisterStats(prefix + "log_commit.", log_committer_.stats());
  if (balancer_ != nullptr) {
    registry->RegisterStats(prefix + "balancer.", balancer_->stats());
  }
  registry->RegisterGauge(prefix + "inflight", [this]() {
    return static_cast<double>(txns_.size());
  });
  registry->RegisterGauge(prefix + "dispatch_depth", [this]() {
    return static_cast<double>(MaxDispatchDepth());
  });
  for (int i = 0; i < static_cast<int>(metrics::TxnPhase::kNumPhases); ++i) {
    const auto phase = static_cast<metrics::TxnPhase>(i);
    registry->RegisterHistogram(
        prefix + "phase." + metrics::TxnPhaseName(phase),
        [this, phase]() { return &breakdown_.histogram(phase); });
  }
}

void MiddlewareNode::Attach() {
  network_->RegisterNode(
      id_, [this](std::unique_ptr<runtime::MessageBase> msg) {
        HandleMessage(std::move(msg));
      });
  // Probe the *physical* replicas serving each logical source: the current
  // leader (aliased to the logical id so scheduling estimates survive a
  // failover) and its followers (so follower-read routing can pick the
  // nearest replica by measured RTT).
  monitor_->SetTargetProvider([this]() {
    std::vector<core::PingTarget> targets;
    for (NodeId logical : catalog_.AllDataSources()) {
      const NodeId leader = catalog_.LeaderOf(logical);
      targets.push_back(core::PingTarget{leader, logical});
      for (NodeId follower : catalog_.FollowersOf(logical)) {
        targets.push_back(core::PingTarget{follower, follower});
      }
    }
    return targets;
  });
  monitor_->SetShardEpochProvider([this]() { return catalog_.ShardEpoch(); });
  // Start the active side (ping sends, balancer ticks) on the actor's own
  // executor: Attach may be called from a setup thread, and on the loopback
  // runtime an in-process peer can answer the first ping while SendPings()
  // is still iterating — all monitor state must stay on the actor thread.
  timer_->Schedule(0, [this]() {
    monitor_->Start();
    if (balancer_ != nullptr) balancer_->Start();
  });
}

void MiddlewareNode::HandleMessage(std::unique_ptr<runtime::MessageBase> msg) {
  if (crashed_) return;
  switch (msg->type()) {
    case runtime::MessageType::kClientRoundRequest:
      OnClientRound(static_cast<ClientRoundRequest&>(*msg));
      return;
    case runtime::MessageType::kBranchExecuteResponse:
      OnExecResponse(static_cast<BranchExecuteResponse&>(*msg));
      return;
    case runtime::MessageType::kVoteMessage:
      OnVote(static_cast<VoteMessage&>(*msg));
      return;
    case runtime::MessageType::kClientFinishRequest:
      OnClientFinish(static_cast<ClientFinishRequest&>(*msg));
      return;
    case runtime::MessageType::kDecisionAck:
      OnDecisionAck(static_cast<DecisionAck&>(*msg));
      return;
    case runtime::MessageType::kFollowerReadResponse:
      OnFollowerReadResponse(static_cast<FollowerReadResponse&>(*msg));
      return;
    case runtime::MessageType::kLeaderAnnounce:
      OnLeaderAnnounce(static_cast<LeaderAnnounce&>(*msg));
      return;
    case runtime::MessageType::kNotLeaderResponse:
      OnNotLeader(static_cast<NotLeaderResponse&>(*msg));
      return;
    case runtime::MessageType::kPingResponse:
      OnPingResponse(static_cast<PingResponse&>(*msg));
      return;
    case runtime::MessageType::kShardMapUpdate:
      OnShardMapUpdate(static_cast<protocol::ShardMapUpdate&>(*msg));
      return;
    case runtime::MessageType::kShardRedirect:
      OnShardRedirect(static_cast<protocol::ShardRedirect&>(*msg));
      return;
    case runtime::MessageType::kShardCutoverReady:
    case runtime::MessageType::kShardMigrateAborted:
      if (balancer_ != nullptr) balancer_->HandleMessage(msg.get());
      return;
    default:
      GEOTP_CHECK(false, "middleware " << id_ << ": unknown message");
  }
}

void MiddlewareNode::BeginPrepareSpan(Txn& txn) {
  if (!txn.trace.valid() || txn.prepare_span != obs::kInvalidSpan) return;
  txn.prepare_span = obs::GlobalTracer().BeginSpan(
      txn.trace, "dm.prepare_wait", id_, loop()->Now());
}

void MiddlewareNode::CloseTxnSpans(Txn& txn, Micros now) {
  obs::Tracer& tracer = obs::GlobalTracer();
  for (obs::SpanHandle* h : {&txn.analysis_span, &txn.prepare_span,
                             &txn.fsync_span, &txn.commit_span,
                             &txn.root_span}) {
    if (*h != obs::kInvalidSpan) {
      tracer.EndSpan(*h, now);
      *h = obs::kInvalidSpan;
    }
  }
}

MiddlewareNode::Txn* MiddlewareNode::FindTxn(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : &it->second;
}

std::vector<NodeId> MiddlewareNode::ParticipantIds(const Txn& txn) const {
  std::vector<NodeId> ids;
  ids.reserve(txn.participants.size());
  for (const auto& [node, p] : txn.participants) ids.push_back(node);
  return ids;
}

// ---------------------------------------------------------------------------
// Execution phase
// ---------------------------------------------------------------------------

void MiddlewareNode::OnClientRound(const ClientRoundRequest& req) {
  TxnId id = req.txn_id;
  if (id == kInvalidTxn) {
    // Overload gate — NEW transactions only. Continuation rounds of
    // admitted transactions bypass it unconditionally: admitted work must
    // finish, because finishing is what frees the budget.
    if (config_.overload.enabled()) {
      const ShedReason verdict =
          admission_.Consider(req.tenant, MaxDispatchDepth(),
                              monitor_->MaxOccupancy(), loop()->Now());
      if (verdict != ShedReason::kNone) {
        ShedClientRound(req);
        return;
      }
    }
    id = MakeTxnId(ordinal_, next_seq_++);
    Txn txn;
    txn.id = id;
    txn.client_tag = req.client_tag;
    txn.tenant = req.tenant;
    txn.client = req.from;
    txn.ts_begin = loop()->Now();
    // Trace-sampling decision (dedicated rng stream: the draw must not
    // perturb rng_'s scheduling/jitter sequence). The root span's context
    // is what every outbound envelope of this transaction carries.
    obs::Tracer& tracer = obs::GlobalTracer();
    if (tracer.enabled() && tracer.Sample(trace_rng_.NextDouble())) {
      const obs::TraceContext root =
          tracer.NewTrace(trace_rng_.NextU64(), id_);
      txn.root_span =
          tracer.BeginSpan(root, "dm.txn", id_, txn.ts_begin, &txn.trace);
    }
    txns_.emplace(id, std::move(txn));
  }
  Txn* txn = FindTxn(id);
  GEOTP_CHECK(txn != nullptr, "round for unknown txn");
  if (txn->aborting) return;  // result message will settle the client

  txn->pending_ops = req.ops;
  txn->last_round = req.last_round;
  txn->round_values.assign(req.ops.size(), 0);
  txn->analysis_total += config_.analysis_cost;
  if (txn->trace.valid() && txn->analysis_span == obs::kInvalidSpan) {
    txn->analysis_span = obs::GlobalTracer().BeginSpan(
        txn->trace, "dm.analysis", id_, loop()->Now());
  }
  // Parse / rewrite / route / schedule cost at the DM.
  loop()->Schedule(config_.analysis_cost,
                   [this, id]() { PlanAndDispatchRound(id); });
}

void MiddlewareNode::PlanAndDispatchRound(TxnId id) {
  Txn* txn = FindTxn(id);
  if (txn == nullptr || txn->aborting) return;
  if (txn->analysis_span != obs::kInvalidSpan) {
    obs::GlobalTracer().EndSpan(txn->analysis_span, loop()->Now());
    txn->analysis_span = obs::kInvalidSpan;
  }

  // Group operations (with their positions in the round) per data source.
  std::map<NodeId, std::vector<std::pair<ClientOp, size_t>>> groups;
  for (size_t i = 0; i < txn->pending_ops.size(); ++i) {
    const ClientOp& op = txn->pending_ops[i];
    groups[catalog_.Route(op.key)].emplace_back(op, i);
  }
  GEOTP_CHECK(!groups.empty(), "empty round");

  std::vector<core::ParticipantPlanInput> inputs;
  inputs.reserve(groups.size());
  for (const auto& [node, ops] : groups) {
    core::ParticipantPlanInput input;
    input.data_source = node;
    for (const auto& [op, slot] : ops) input.keys.push_back(op.key);
    inputs.push_back(std::move(input));
  }

  // Admission control (late transaction scheduling) applies to the first
  // round — the paper's Algorithm 2 admits whole transactions.
  const bool allow_admission = txn->round_seq == 0;
  core::ScheduleDecision decision = scheduler_->ScheduleRound(
      inputs, allow_admission ? txn->admission_attempts : -1, rng_);
  if (allow_admission) {
    if (decision.verdict == core::AdmissionVerdict::kBlock) {
      stats_.admission_blocks++;
      txn->admission_attempts++;
      loop()->Schedule(decision.retry_backoff,
                       [this, id]() { PlanAndDispatchRound(id); });
      return;
    }
    if (decision.verdict == core::AdmissionVerdict::kAbort) {
      stats_.admission_aborts++;
      StartAbort(*txn, Status::Aborted("late-scheduling admission abort"));
      return;
    }
  }

  const uint64_t round_seq = txn->round_seq;
  txn->round_outstanding = groups.size();

  // Participants begun in earlier rounds but absent from the final round
  // are told to prepare right away (§III).
  if (txn->last_round &&
      config_.commit_protocol == CommitProtocol::kDecentralized) {
    for (auto& [node, p] : txn->participants) {
      if (p.begun && groups.count(node) == 0) {
        QueuePrepare(catalog_.LeaderOf(node), Xid{txn->id, node});
      }
    }
  }

  size_t plan_idx = 0;
  for (auto& [node, ops_slots] : groups) {
    auto batch = ops_slots;
    if (config_.quro_reorder) {
      // QURO: exclusive locks as late as possible inside the batch.
      std::stable_partition(
          batch.begin(), batch.end(),
          [](const std::pair<ClientOp, size_t>& e) { return !e.first.is_write; });
    }
    Participant& p = txn->participants[node];
    p.exec_outstanding = true;
    p.round_keys.clear();
    p.op_slots.clear();
    bool all_reads = true;
    for (const auto& [op, slot] : batch) {
      p.round_keys.push_back(op.key);
      p.op_slots.push_back(slot);
      if (op.is_write) all_reads = false;
    }
    // Final-round all-read batches may be served by a replication
    // follower (stale-bounded); everything else runs at the leader.
    p.via_follower = config_.follower_reads && txn->last_round &&
                     !p.begun && all_reads &&
                     catalog_.HasReplicaGroup(node);

    const Micros postpone = decision.plans[plan_idx++].postpone;
    const NodeId target = node;
    std::vector<ClientOp> batch_ops;
    batch_ops.reserve(batch.size());
    for (const auto& [op, slot] : batch) batch_ops.push_back(op);

    loop()->Schedule(postpone, [this, id, target, round_seq,
                                ops = std::move(batch_ops)]() mutable {
      Txn* txn = FindTxn(id);
      if (txn == nullptr || txn->aborting) return;
      Participant& p = txn->participants[target];
      if (p.via_follower) {
        p.last_batch = ops;
        if (TryFollowerRead(*txn, target, ops, round_seq)) return;
        p.via_follower = false;  // no usable follower
      }
      SendBranchBatch(*txn, target, std::move(ops), round_seq);
    });
  }
  txn->round_seq++;
}

void MiddlewareNode::SendBranchBatch(Txn& txn, NodeId logical,
                                     std::vector<ClientOp> ops,
                                     uint64_t round_seq) {
  Participant& p = txn.participants[logical];
  p.exec_outstanding = true;
  p.via_follower = false;
  if (!p.begun) p.begun_round = round_seq;
  auto req = std::make_unique<BranchExecuteRequest>();
  req->from = id_;
  req->to = catalog_.LeaderOf(logical);
  req->trace = txn.trace;
  req->xid = Xid{txn.id, logical};
  req->round_seq = round_seq;
  req->begin_branch = !p.begun;
  req->last_statement =
      txn.last_round &&
      config_.commit_protocol == CommitProtocol::kDecentralized;
  // Peers (for early abort) are the other branch-executing participants,
  // addressed at their current leaders.
  for (const auto& [node, q] : txn.participants) {
    if (node == logical || q.via_follower) continue;
    req->peers.push_back(catalog_.LeaderOf(node));
  }
  req->coordinator = id_;
  p.begun = true;
  p.last_batch = ops;
  req->ops = std::move(ops);
  // Charge the hotspot footprint at actual dispatch (a_cnt++); the
  // matching release happens in OnExecResponse or FinishTxn. A failover
  // retry keeps the original charge.
  if (!p.footprint_charged) {
    footprint_->OnDispatch(p.round_keys);
    p.footprint_charged = true;
  }
  network_->Send(std::move(req));
}

bool MiddlewareNode::TryFollowerRead(Txn& txn, NodeId logical,
                                     const std::vector<ClientOp>& ops,
                                     uint64_t round_seq) {
  const std::vector<NodeId> followers = catalog_.FollowersOf(logical);
  if (followers.empty()) return false;
  // Prefer the nearest follower by the monitor's measured RTT. Only fresh
  // estimates count: a crashed follower's estimate freezes at its last
  // (attractive) value, and pinning every read to it would turn follower
  // reads into a 100% timeout path. Fall back to hashing while no
  // follower has a fresh sample.
  const Micros freshness_bound = 10 * config_.monitor.ping_interval;
  NodeId target = followers[txn.id % followers.size()];
  Micros best_rtt = 0;
  for (NodeId follower : followers) {
    if (monitor_->SampleAge(follower) > freshness_bound) continue;
    const Micros rtt = monitor_->RttEstimate(follower);
    if (rtt > 0 && (best_rtt == 0 || rtt < best_rtt)) {
      best_rtt = rtt;
      target = follower;
    }
  }
  auto req = std::make_unique<FollowerReadRequest>();
  req->from = id_;
  req->to = target;
  req->trace = txn.trace;
  req->group = logical;
  req->txn_id = txn.id;
  req->round_seq = round_seq;
  for (const ClientOp& op : ops) req->keys.push_back(op.key);
  req->max_staleness = config_.follower_read_stale_bound;
  network_->Send(std::move(req));
  // A crashed follower never answers: fall back to the leader.
  const TxnId id = txn.id;
  loop()->Schedule(config_.follower_read_timeout, [this, id, logical,
                                                   round_seq]() {
    Txn* t = FindTxn(id);
    if (t == nullptr || t->aborting || t->round_seq != round_seq + 1) return;
    auto it = t->participants.find(logical);
    if (it == t->participants.end()) return;
    Participant& p = it->second;
    if (!p.via_follower || !p.exec_outstanding) return;
    stats_.follower_read_fallbacks++;
    FallBackToLeader(*t, logical);
  });
  return true;
}

void MiddlewareNode::FallBackToLeader(Txn& txn, NodeId logical) {
  Participant& p = txn.participants[logical];
  p.via_follower = false;
  std::vector<ClientOp> ops = p.last_batch;
  SendBranchBatch(txn, logical, std::move(ops), txn.round_seq - 1);
}

void MiddlewareNode::OnFollowerReadResponse(const FollowerReadResponse& resp) {
  Txn* txn = FindTxn(resp.txn_id);
  if (txn == nullptr || txn->aborting) return;
  auto it = txn->participants.find(resp.group);
  if (it == txn->participants.end()) return;
  Participant& p = it->second;
  if (!p.via_follower || !p.exec_outstanding) return;  // fell back already
  if (resp.round_seq + 1 != txn->round_seq) return;    // stale round
  if (!resp.ok) {
    // Staleness bound exceeded at the follower: run at the leader.
    stats_.follower_read_fallbacks++;
    FallBackToLeader(*txn, resp.group);
    return;
  }
  stats_.follower_reads++;
  p.exec_outstanding = false;
  p.via_follower = false;
  for (size_t i = 0; i < p.op_slots.size() && i < resp.values.size(); ++i) {
    txn->round_values[p.op_slots[i]] = resp.values[i];
  }
  if (txn->round_outstanding > 0) txn->round_outstanding--;
  MaybeCompleteRound(*txn);
}

void MiddlewareNode::OnExecResponse(const BranchExecuteResponse& resp) {
  Txn* txn = FindTxn(resp.xid.txn_id);
  if (txn == nullptr) return;  // late response after the txn settled
  auto it = txn->participants.find(catalog_.LogicalOf(resp.from));
  if (it == txn->participants.end()) return;
  Participant& p = it->second;
  if (!p.exec_outstanding) return;  // duplicate/stale
  p.exec_outstanding = false;

  // Feed the hotspot footprint (Eq. 4 update + counter maintenance).
  if (p.footprint_charged) {
    footprint_->OnComplete(p.round_keys, resp.local_exec_latency,
                           resp.status.ok());
    p.footprint_charged = false;
  }

  if (!resp.status.ok()) {
    if (resp.rolled_back) p.rollback_confirmed = true;
    if (txn->aborting) {
      CheckAbortDone(*txn);
    } else {
      StartAbort(*txn, resp.status);
    }
    return;
  }

  // Place read results into their slots in the client round.
  for (size_t i = 0; i < p.op_slots.size() && i < resp.values.size(); ++i) {
    txn->round_values[p.op_slots[i]] = resp.values[i];
  }
  if (txn->round_outstanding > 0) txn->round_outstanding--;
  MaybeCompleteRound(*txn);
}

void MiddlewareNode::MaybeCompleteRound(Txn& txn) {
  if (txn.aborting || txn.round_outstanding != 0) return;
  txn.ts_exec_done = loop()->Now();
  auto resp = std::make_unique<ClientRoundResponse>();
  resp->from = id_;
  resp->to = txn.client;
  resp->client_tag = txn.client_tag;
  resp->txn_id = txn.id;
  resp->status = Status::OK();
  resp->values = txn.round_values;
  network_->Send(std::move(resp));
}

// ---------------------------------------------------------------------------
// Commit phase
// ---------------------------------------------------------------------------

void MiddlewareNode::OnClientFinish(const ClientFinishRequest& req) {
  Txn* txn = FindTxn(req.txn_id);
  if (txn == nullptr) return;  // settled already (client will see result)
  txn->commit_requested = true;
  txn->ts_commit_req = loop()->Now();
  if (txn->aborting) return;  // abort result is on its way
  if (!req.commit) {
    StartAbort(*txn, Status::Aborted("client rollback"));
    return;
  }
  StartCommit(*txn);
}

void MiddlewareNode::StartCommit(Txn& txn) {
  switch (config_.commit_protocol) {
    case CommitProtocol::kDecentralized: {
      // Votes arrive asynchronously from the geo-agents (implicit
      // decentralized prepare, Algorithm 1): wait for them.
      txn.phase = Phase::kWaitCommitVotes;
      BeginPrepareSpan(txn);
      CheckVotesComplete(txn);
      return;
    }
    case CommitProtocol::kTwoPhase: {
      if (txn.participants.size() == 1) {
        // XA one-phase commit for centralized transactions: 1 WAN RTT.
        txn.ts_votes = loop()->Now();
        DispatchDecision(txn, /*commit=*/true, /*one_phase=*/true);
        return;
      }
      txn.phase = Phase::kWaitCommitVotes;
      BeginPrepareSpan(txn);
      for (auto& [node, p] : txn.participants) {
        if (!p.begun) continue;
        QueuePrepare(catalog_.LeaderOf(node), Xid{txn.id, node});
      }
      return;
    }
    case CommitProtocol::kLocalNoAtomicity: {
      // SSP(local): decentralized commit, no atomicity guarantee — the
      // decision goes out without a prepare phase.
      txn.ts_votes = loop()->Now();
      DispatchDecision(txn, /*commit=*/true, /*one_phase=*/true);
      return;
    }
  }
}

void MiddlewareNode::OnVote(const VoteMessage& vote) {
  Txn* txn = FindTxn(vote.xid.txn_id);
  if (txn == nullptr) {
    // A promoted leader re-voted a prepared branch of a transaction we no
    // longer track: resolve it from the decision log (presumed abort).
    if (vote.vote == Vote::kPrepared) ResolveOrphanVote(vote);
    return;
  }
  auto it = txn->participants.find(catalog_.LogicalOf(vote.from));
  if (it == txn->participants.end()) return;
  Participant& p = it->second;
  p.has_vote = true;
  p.vote = vote.vote;

  switch (vote.vote) {
    case Vote::kPrepared:
    case Vote::kIdle:
      if (txn->phase == Phase::kWaitCommitVotes) CheckVotesComplete(*txn);
      return;
    case Vote::kFailure:
    case Vote::kRollbackOnly:
    case Vote::kRollbacked:
      p.rollback_confirmed = true;
      if (txn->aborting) {
        CheckAbortDone(*txn);
      } else {
        StartAbort(*txn, Status::Aborted("participant voted " +
                                         std::string(VoteName(vote.vote))));
      }
      return;
  }
}

void MiddlewareNode::CheckVotesComplete(Txn& txn) {
  GEOTP_CHECK(txn.phase == Phase::kWaitCommitVotes, "wrong phase");
  size_t begun = 0;
  for (auto& [node, p] : txn.participants) {
    if (!p.begun) continue;
    ++begun;
    if (!p.has_vote) return;  // still waiting (Algorithm 1 line 21)
    const bool good_vote =
        p.vote == Vote::kPrepared ||
        (p.vote == Vote::kIdle && txn.participants.size() == 1);
    if (!good_vote) return;  // failure votes route through OnVote
  }
  if (begun == 0) {
    // Degenerate: nothing begun (all rounds empty) — commit trivially.
    txn.ts_votes = loop()->Now();
    FinishTxn(txn, /*committed=*/true);
    return;
  }
  txn.ts_votes = loop()->Now();
  if (txn.prepare_span != obs::kInvalidSpan) {
    obs::GlobalTracer().EndSpan(txn.prepare_span, txn.ts_votes);
    txn.prepare_span = obs::kInvalidSpan;
  }
  const bool one_phase = txn.participants.size() == 1 &&
                         txn.participants.begin()->second.vote == Vote::kIdle;
  if (one_phase) {
    // Centralized fast path: no decision log needed; the single source's
    // commit is the decision.
    DispatchDecision(txn, /*commit=*/true, /*one_phase=*/true);
  } else {
    FlushLogAndDispatch(txn, /*commit=*/true);
  }
}

void MiddlewareNode::FlushLogAndDispatch(Txn& txn, bool commit) {
  // The decision joins the decision log's open group-commit batch; it is
  // logged (and dispatched) only when the shared flush completes. A DM
  // crash loses the open batch — exactly the decisions that were never
  // durable, so recovery's presumed abort stays correct.
  const TxnId id = txn.id;
  if (txn.trace.valid() && txn.fsync_span == obs::kInvalidSpan) {
    txn.fsync_span = obs::GlobalTracer().BeginSpan(
        txn.trace, "dm.log_fsync", id_, loop()->Now());
  }
  log_committer_.Append(
      config_.log_flush_cost,
      "DECISION txn=" + std::to_string(id) + (commit ? " C\n" : " A\n"),
      [this, id, commit]() {
    Txn* txn = FindTxn(id);
    if (txn == nullptr) return;
    if (txn->fsync_span != obs::kInvalidSpan) {
      obs::GlobalTracer().EndSpan(txn->fsync_span, loop()->Now());
      txn->fsync_span = obs::kInvalidSpan;
    }
    log_.push_back(DecisionLogEntry{id, commit});
    stats_.log_entries_flushed++;
    DispatchDecision(*txn, commit, /*one_phase=*/false);
  });
}

void MiddlewareNode::DispatchDecision(Txn& txn, bool commit, bool one_phase) {
  txn.phase = commit ? Phase::kCommitDispatched : Phase::kAborting;
  txn.decision_one_phase = one_phase;
  txn.ts_decision = loop()->Now();
  if (txn.trace.valid() && txn.commit_span == obs::kInvalidSpan) {
    txn.commit_span = obs::GlobalTracer().BeginSpan(
        txn.trace, commit ? "dm.commit" : "dm.abort", id_, txn.ts_decision);
  }
  size_t sent = 0;
  for (auto& [node, p] : txn.participants) {
    if (!p.begun) continue;
    if (!commit && p.rollback_confirmed) continue;  // already rolled back
    QueueDecision(catalog_.LeaderOf(node), Xid{txn.id, node}, commit,
                  one_phase);
    ++sent;
  }
  if (!commit) {
    CheckAbortDone(txn);
  } else if (sent == 0) {
    FinishTxn(txn, /*committed=*/true);
  }
}

// ---------------------------------------------------------------------------
// Coalesced dispatch
// ---------------------------------------------------------------------------

void MiddlewareNode::QueuePrepare(NodeId dest, const Xid& xid) {
  DispatchQueue& queue = dispatch_queues_[dest];
  queue.prepares.push_back(xid);
  admission_.NoteDispatchDepth(queue.depth());
  ScheduleDispatchFlush();
}

void MiddlewareNode::QueueDecision(NodeId dest, const Xid& xid, bool commit,
                                   bool one_phase) {
  DispatchQueue& queue = dispatch_queues_[dest];
  queue.decisions.push_back(protocol::DecisionItem{xid, commit, one_phase});
  admission_.NoteDispatchDepth(queue.depth());
  ScheduleDispatchFlush();
}

size_t MiddlewareNode::MaxDispatchDepth() const {
  size_t depth = 0;
  for (const auto& [dest, queue] : dispatch_queues_) {
    depth = std::max(depth, queue.depth());
  }
  return depth;
}

void MiddlewareNode::ShedClientRound(const ClientRoundRequest& req) {
  auto shed = std::make_unique<protocol::OverloadedResponse>();
  shed->from = id_;
  shed->to = req.from;
  shed->client_tag = req.client_tag;
  shed->tenant = req.tenant;
  shed->retry_after_hint = admission_.RetryHint();
  network_->Send(std::move(shed));
}

void MiddlewareNode::ScheduleDispatchFlush() {
  if (dispatch_flush_scheduled_) return;
  dispatch_flush_scheduled_ = true;
  // Delay 0: fires later in the same event-loop tick, after whatever
  // cascade (a group-commit flush releasing many transactions at once)
  // finished queueing — so same-destination messages merge.
  loop()->Schedule(0, [this]() { FlushDispatchQueues(); });
}

void MiddlewareNode::FlushDispatchQueues() {
  dispatch_flush_scheduled_ = false;
  if (crashed_) {
    dispatch_queues_.clear();
    return;
  }
  // Every destination's prepares leave before any decision.
  for (auto& [dest, queue] : dispatch_queues_) {
    std::vector<Xid>& xids = queue.prepares;
    if (xids.empty()) continue;
    stats_.prepare_requests_sent += xids.size();
    if (xids.size() == 1) {
      auto prep = std::make_unique<PrepareRequest>();
      prep->from = id_;
      prep->to = dest;
      prep->xid = xids.front();
      // Singleton envelopes carry the transaction's context; batches rely
      // on the branch context stored at the source (one envelope cannot
      // carry many contexts).
      if (Txn* t = FindTxn(prep->xid.txn_id)) prep->trace = t->trace;
      network_->Send(std::move(prep));
      continue;
    }
    auto batch = std::make_unique<protocol::PrepareBatch>();
    batch->from = id_;
    batch->to = dest;
    batch->xids = std::move(xids);
    stats_.prepare_batches_sent++;
    stats_.dispatches_coalesced += batch->xids.size() - 1;
    network_->Send(std::move(batch));
  }
  for (auto& [dest, queue] : dispatch_queues_) {
    std::vector<protocol::DecisionItem>& items = queue.decisions;
    if (items.empty()) continue;
    stats_.decisions_sent += items.size();
    if (items.size() == 1) {
      auto decision = std::make_unique<DecisionRequest>();
      decision->from = id_;
      decision->to = dest;
      decision->xid = items.front().xid;
      decision->commit = items.front().commit;
      decision->one_phase = items.front().one_phase;
      if (Txn* t = FindTxn(decision->xid.txn_id)) decision->trace = t->trace;
      network_->Send(std::move(decision));
      continue;
    }
    auto batch = std::make_unique<protocol::DecisionBatch>();
    batch->from = id_;
    batch->to = dest;
    batch->items = std::move(items);
    stats_.decision_batches_sent++;
    stats_.dispatches_coalesced += batch->items.size() - 1;
    network_->Send(std::move(batch));
  }
  dispatch_queues_.clear();
}

void MiddlewareNode::OnDecisionAck(const DecisionAck& ack) {
  Txn* txn = FindTxn(ack.xid.txn_id);
  if (txn == nullptr) return;
  auto it = txn->participants.find(catalog_.LogicalOf(ack.from));
  if (it == txn->participants.end()) return;
  Participant& p = it->second;
  if (txn->phase == Phase::kCommitDispatched) {
    if (!ack.committed) {
      if (ack.one_phase) {
        // A one-phase commit can fail cleanly (e.g. the source crashed and
        // aborted the never-prepared branch): the transaction aborts.
        txn->abort_status = Status::Aborted("one-phase commit failed");
        FinishTxn(*txn, /*committed=*/false);
        return;
      }
      // A PREPARED participant failed a logged commit decision — only
      // tolerated in kLocalNoAtomicity (the paper's SSP(local) accepts
      // inconsistency); in XA modes it would be an atomicity violation.
      GEOTP_CHECK(
          config_.commit_protocol == CommitProtocol::kLocalNoAtomicity,
          "participant failed a committed decision");
    }
    p.decision_acked = true;
    for (auto& [node, q] : txn->participants) {
      if (q.begun && !q.decision_acked) return;
    }
    FinishTxn(*txn, /*committed=*/true);
    return;
  }
  if (txn->phase == Phase::kAborting) {
    p.rollback_confirmed = true;
    CheckAbortDone(*txn);
  }
}

// ---------------------------------------------------------------------------
// Abort path
// ---------------------------------------------------------------------------

void MiddlewareNode::StartAbort(Txn& txn, Status status) {
  if (txn.aborting) return;
  txn.aborting = true;
  txn.abort_status = std::move(status);
  txn.phase = Phase::kAborting;
  // Flush the abort decision, then notify unconfirmed participants. With
  // early abort the geo-agents have already propagated peer aborts; the
  // DM's decisions are belt-and-braces so no participant is orphaned, and
  // whichever confirmation arrives first settles the participant.
  FlushLogAndDispatch(txn, /*commit=*/false);
}

void MiddlewareNode::CheckAbortDone(Txn& txn) {
  if (!txn.aborting) return;
  if (txn.phase != Phase::kAborting) return;  // log flush still pending
  for (auto& [node, p] : txn.participants) {
    if (p.begun && !p.rollback_confirmed) return;
  }
  FinishTxn(txn, /*committed=*/false);
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

void MiddlewareNode::FinishTxn(Txn& txn, bool committed) {
  const Micros now = loop()->Now();
  CloseTxnSpans(txn, now);
  // Release footprint charges for participants whose execute response
  // never arrived (dispatch skipped mid-abort, or settled early) so a_cnt
  // does not leak — a leaked a_cnt drives Eq. 9 to 1 permanently.
  for (auto& [node, p] : txn.participants) {
    if (p.footprint_charged) {
      footprint_->OnRelease(p.round_keys);
      p.footprint_charged = false;
    }
  }
  if (committed) {
    stats_.committed++;
    size_t begun = 0;
    for (const auto& [node, p] : txn.participants) {
      if (p.begun) ++begun;
    }
    if (begun > 1) stats_.committed_distributed++;
    breakdown_.Record(metrics::TxnPhase::kAnalysis, txn.analysis_total);
    breakdown_.Record(metrics::TxnPhase::kExecution,
                      txn.ts_exec_done - txn.ts_begin);
    if (txn.ts_votes > 0 && txn.ts_commit_req > 0) {
      breakdown_.Record(metrics::TxnPhase::kPrepare,
                        std::max<Micros>(0, txn.ts_votes - txn.ts_commit_req));
    }
    if (txn.ts_decision > 0) {
      breakdown_.Record(metrics::TxnPhase::kCommit, now - txn.ts_decision);
    }
  } else {
    stats_.aborted++;
  }

  auto result = std::make_unique<ClientTxnResult>();
  result->from = id_;
  result->to = txn.client;
  result->client_tag = txn.client_tag;
  result->txn_id = txn.id;
  result->status = committed ? Status::OK() : txn.abort_status;
  network_->Send(std::move(result));
  if (config_.overload.enabled()) {
    admission_.Release(txn.tenant);
  }
  txns_.erase(txn.id);
}

// ---------------------------------------------------------------------------
// Replication failover (src/replication)
// ---------------------------------------------------------------------------

void MiddlewareNode::OnLeaderAnnounce(const LeaderAnnounce& announce) {
  if (catalog_.UpdateLeader(announce.group, announce.leader,
                            announce.epoch)) {
    HandleFailover(announce.group);
  }
}

void MiddlewareNode::OnNotLeader(const NotLeaderResponse& redirect) {
  if (catalog_.UpdateLeader(redirect.group, redirect.leader_hint,
                            redirect.epoch)) {
    HandleFailover(redirect.group);
  }
}

void MiddlewareNode::HandleFailover(NodeId logical) {
  stats_.failovers_observed++;
  std::vector<TxnId> to_abort;
  for (auto& [txn_id, txn] : txns_) {
    auto it = txn.participants.find(logical);
    if (it == txn.participants.end()) continue;
    Participant& p = it->second;
    switch (txn.phase) {
      case Phase::kExecuting: {
        if (!p.exec_outstanding) {
          // Idle after its round completed. A final-round branch has a
          // decentralized prepare in flight at the source; if that died
          // un-replicated with the old leader, no vote will ever come —
          // promoted leaders only re-vote quorum-staged prepares. Give
          // the vote the same grace as the kWaitCommitVotes case (it may
          // still be in flight, or resurface via a re-vote), then abort.
          // Without this, a crash in the prepare-fsync window wedges the
          // transaction forever once the client's COMMIT arrives.
          if (txn.last_round && p.begun && !p.has_vote &&
              config_.commit_protocol == CommitProtocol::kDecentralized) {
            const TxnId waiting = txn_id;
            loop()->Schedule(
                config_.failover_vote_grace, [this, waiting, logical]() {
                  Txn* t = FindTxn(waiting);
                  if (t == nullptr || t->aborting) return;
                  if (t->phase != Phase::kExecuting &&
                      t->phase != Phase::kWaitCommitVotes) {
                    return;
                  }
                  auto pit = t->participants.find(logical);
                  if (pit == t->participants.end() || pit->second.has_vote) {
                    return;
                  }
                  StartAbort(*t, Status::Unavailable(
                                     "prepare lost in failover"));
                });
          }
          break;
        }
        if (p.via_follower) break;       // follower-read timeout handles it
        if (p.begun && p.begun_round + 1 == txn.round_seq) {
          // The branch began in the round now in flight: its state died
          // un-replicated with the old leader, so replaying the whole
          // batch on the new leader is exact.
          stats_.branch_retries++;
          p.begun = false;
          p.has_vote = false;
          std::vector<ClientOp> ops = p.last_batch;
          SendBranchBatch(txn, logical, std::move(ops), txn.round_seq - 1);
        } else {
          // Effects of earlier rounds were lost with the old leader; the
          // batch cannot be replayed in isolation.
          to_abort.push_back(txn_id);
        }
        break;
      }
      case Phase::kWaitCommitVotes: {
        if (!p.begun || p.has_vote) break;
        // If the prepare reached a quorum the promoted leader re-votes it;
        // otherwise it died with the old leader — presume abort after a
        // grace period.
        const TxnId waiting = txn_id;
        loop()->Schedule(config_.failover_vote_grace,
                         [this, waiting, logical]() {
                           Txn* t = FindTxn(waiting);
                           if (t == nullptr || t->aborting ||
                               t->phase != Phase::kWaitCommitVotes) {
                             return;
                           }
                           auto pit = t->participants.find(logical);
                           if (pit == t->participants.end() ||
                               pit->second.has_vote) {
                             return;
                           }
                           StartAbort(*t, Status::Unavailable(
                                              "prepare lost in failover"));
                         });
        break;
      }
      case Phase::kCommitDispatched: {
        if (!p.begun || p.decision_acked) break;
        // Re-send the undecided commit; the new leader resolves it
        // idempotently against its replicated log.
        QueueDecision(catalog_.LeaderOf(logical), Xid{txn.id, logical},
                      /*commit=*/true, txn.decision_one_phase);
        break;
      }
      case Phase::kAborting: {
        if (!p.begun || p.rollback_confirmed) break;
        QueueDecision(catalog_.LeaderOf(logical), Xid{txn.id, logical},
                      /*commit=*/false, /*one_phase=*/false);
        break;
      }
    }
  }
  for (TxnId txn_id : to_abort) {
    Txn* txn = FindTxn(txn_id);
    if (txn != nullptr && !txn->aborting) {
      StartAbort(*txn, Status::Unavailable("data source leader failover"));
    }
  }
}

// ---------------------------------------------------------------------------
// Elastic sharding (src/sharding)
// ---------------------------------------------------------------------------

void MiddlewareNode::OnShardMapUpdate(const protocol::ShardMapUpdate& update) {
  catalog_.mutable_shard_map().Adopt(update.entries);
  NoteShardEpoch(catalog_.ShardEpoch());
}

void MiddlewareNode::OnPingResponse(const protocol::PingResponse& pong) {
  monitor_->OnPong(pong);
  // Anti-entropy, both directions. A source that saw our stale epoch sent
  // its map along: adopt it (bounds DM staleness by one ping interval
  // instead of one redirect). A source whose own epoch trails the catalog
  // missed a publish (partitioned, restarted): push it the current map.
  if (!pong.map_entries.empty() &&
      catalog_.mutable_shard_map().Adopt(pong.map_entries)) {
    stats_.shard_map_pulls++;
    NoteShardEpoch(catalog_.ShardEpoch());
  }
  if (catalog_.HasShardMap() && pong.shard_epoch < catalog_.ShardEpoch()) {
    // One push per round trip, not per ping: pings fire every 10 ms while
    // a WAN repair takes an RTT to reflect in the pong's epoch, so an
    // unspaced push would send dozens of identical full maps per repair.
    const Micros spacing =
        std::max<Micros>(monitor_->RttEstimate(pong.from),
                         config_.monitor.ping_interval);
    Micros& last = shard_push_at_[pong.from];
    if (last == 0 || loop()->Now() - last >= spacing) {
      last = loop()->Now();
      stats_.shard_map_pushes++;
      auto update = std::make_unique<protocol::ShardMapUpdate>();
      update->from = id_;
      update->to = pong.from;
      update->entries = catalog_.shard_map().ranges();
      network_->Send(std::move(update));
    }
  }
}

void MiddlewareNode::OnShardRedirect(const protocol::ShardRedirect& redirect) {
  stats_.shard_redirects++;
  catalog_.mutable_shard_map().Adopt({redirect.entry});
  NoteShardEpoch(catalog_.ShardEpoch());

  Txn* txn = FindTxn(redirect.txn_id);
  if (txn == nullptr || txn->aborting) return;
  const NodeId logical = catalog_.LogicalOf(redirect.from);
  auto it = txn->participants.find(logical);
  if (it == txn->participants.end()) return;
  Participant& p = it->second;
  if (!p.exec_outstanding || p.via_follower) return;
  if (txn->phase != Phase::kExecuting ||
      redirect.round_seq + 1 != txn->round_seq) {
    return;  // stale bounce of an earlier round
  }
  if (p.begun && p.begun_round + 1 != txn->round_seq) {
    // Earlier rounds of this branch executed at the old owner; their
    // effects cannot follow the shard. Abort; the client's retry routes
    // under the adopted map.
    StartAbort(*txn, Status::Unavailable("shard moved mid-transaction"));
    return;
  }
  // The bounced batch would have been the branch's first — nothing began
  // at the old owner (the bounce happened before Begin).
  p.begun = false;
  p.has_vote = false;

  // Re-route the bounced batch under the patched placement. The batch may
  // split: moved keys go to the new owner, unmoved keys stay.
  std::vector<ClientOp> ops = p.last_batch;
  std::vector<size_t> slots = p.op_slots;
  if (p.footprint_charged) {
    // Release the old charge; the re-dispatch re-charges per new group.
    footprint_->OnRelease(p.round_keys);
    p.footprint_charged = false;
  }
  std::map<NodeId, std::pair<std::vector<ClientOp>, std::vector<size_t>>>
      groups;
  for (size_t i = 0; i < ops.size(); ++i) {
    auto& group = groups[catalog_.Route(ops[i].key)];
    group.first.push_back(ops[i]);
    group.second.push_back(i < slots.size() ? slots[i] : i);
  }
  // A target that already has a batch of this round in flight cannot take
  // a second one (one outstanding batch per participant): abort-and-retry.
  for (const auto& [target, group] : groups) {
    if (target == logical) continue;
    auto pit = txn->participants.find(target);
    if (pit != txn->participants.end() && pit->second.exec_outstanding) {
      StartAbort(*txn, Status::Unavailable("shard moved mid-round"));
      return;
    }
  }
  if (groups.count(logical) == 0) txn->participants.erase(it);
  txn->round_outstanding += groups.size() - 1;
  stats_.shard_reroutes++;
  const uint64_t round_seq = txn->round_seq - 1;
  for (auto& [target, group] : groups) {
    Participant& q = txn->participants[target];
    q.op_slots = std::move(group.second);
    q.round_keys.clear();
    for (const ClientOp& op : group.first) q.round_keys.push_back(op.key);
    SendBranchBatch(*txn, target, std::move(group.first), round_seq);
  }
}

void MiddlewareNode::ResolveOrphanVote(const VoteMessage& vote) {
  bool committed = false;
  for (const DecisionLogEntry& entry : log_) {
    if (entry.txn_id == vote.xid.txn_id) committed = entry.commit;
  }
  if (!committed) stats_.presumed_aborts++;
  QueueDecision(vote.from, vote.xid, committed, /*one_phase=*/false);
}

// ---------------------------------------------------------------------------
// Failure & recovery (§V-A)
// ---------------------------------------------------------------------------

void MiddlewareNode::Crash() {
  crashed_ = true;
  network_->Partition(id_);
  txns_.clear();  // in-memory coordinator state is lost; log_ survives
  admission_.Reset();  // the budget died with the coordinated transactions
  // Decisions in the decision log's open batch were never durable: the
  // crash loses them (their transactions resolve via presumed abort).
  log_committer_.Reset();
  dispatch_queues_.clear();
}

void MiddlewareNode::Restart(
    const std::vector<datasource::DataSourceNode*>& sources) {
  crashed_ = false;
  network_->Restore(id_);
  // The balancer's tick chain ended at the crash; without it, in-flight
  // migrations would never be timeout-cancelled and their fenced ranges
  // would stay unavailable forever.
  if (balancer_ != nullptr) balancer_->Start();
  // ❶: on DM disconnect, sources abort branches that have not prepared.
  for (auto* src : sources) {
    src->OnCoordinatorFailure(id_);
  }
  // Collect in-doubt (prepared) branches of this DM and resolve them from
  // the decision log: logged commit -> commit; otherwise abort.
  for (auto* src : sources) {
    for (const Xid& xid : src->engine().PreparedXids()) {
      if ((xid.txn_id >> 48) != ordinal_) continue;  // another DM's txn
      bool committed = false;
      for (const auto& entry : log_) {
        if (entry.txn_id == xid.txn_id) committed = entry.commit;
      }
      QueueDecision(src->id(), xid, committed, /*one_phase=*/false);
    }
  }
}

}  // namespace middleware
}  // namespace geotp
