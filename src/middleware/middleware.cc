#include "middleware/middleware.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/wire.h"
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

namespace {

/// Per-round DM work: parse/rewrite/route/schedule (Fig. 6c "analysis").
constexpr Micros kAnalysisCost = 300;
/// Commit/abort decision log fsync at the DM (Algorithm 1 FlushLog).
constexpr Micros kLogFlushCost = 500;
/// Retired transaction entries and participant map nodes kept for reuse:
/// about the transactions a DM starts between two that settle.
constexpr size_t kSpareTxns = 256;
constexpr size_t kSpareParticipants = 512;
/// After a leader failover, branches whose prepare vote does not resurface
/// within this grace period are aborted (their prepare never reached a
/// quorum and died with the old leader).
constexpr Micros kFailoverVoteGrace = MsToMicros(500);

}  // namespace

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
      footprint_(std::make_unique<core::HotspotFootprint>()),
      monitor_(std::make_unique<core::LatencyMonitor>(
          id_, network_, timer_, catalog_.AllDataSources())),
      scheduler_(std::make_unique<core::GeoScheduler>(
          config_.scheduler, monitor_.get(), footprint_.get())),
      rng_(0xD1CEBA5E + id_),
      trace_rng_(0x714ACE00 + id_),
      admission_(config_.overload),
      log_committer_(timer_, log_device_.get(), storage::GroupCommitConfig()) {
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
  registry->RegisterStats(prefix + "monitor.", monitor_->stats());
  if (balancer_ != nullptr) {
    registry->RegisterStats(prefix + "balancer.", balancer_->stats());
  }
  registry->RegisterGauge(prefix + "inflight", [this]() {
    return static_cast<double>(txns_.size());
  });
  registry->RegisterGauge(prefix + "settling", [this]() {
    return static_cast<double>(std::count_if(
        txns_.begin(), txns_.end(),
        [](const auto& entry) { return entry.second.answered; }));
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
  // failover) and, only while follower reads are on, its followers (so
  // follower-read routing can pick the nearest replica by measured RTT;
  // nothing else reads a follower's estimate).
  monitor_->SetTargetProvider([this]() {
    std::vector<core::PingTarget> targets;
    for (NodeId logical : catalog_.AllDataSources()) {
      const NodeId leader = catalog_.LeaderOf(logical);
      targets.push_back(core::PingTarget{leader, logical});
      if (!config_.follower_reads) continue;
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
    case runtime::MessageType::kVoteMessage: {
      auto& vote = static_cast<VoteMessage&>(*msg);
      OnLazyAcks(vote.from, vote.acked_commits);
      OnVote(vote.from, vote.xid, vote.vote);
      return;
    }
    case runtime::MessageType::kClientFinishRequest:
      OnClientFinish(static_cast<ClientFinishRequest&>(*msg));
      return;
    case runtime::MessageType::kDecisionAck: {
      auto& ack = static_cast<DecisionAck&>(*msg);
      OnDecisionAck(ack.from, ack.xid.txn_id, ack.committed, ack.one_phase);
      return;
    }
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
      txn.trace, "dm.prepare_wait", id_, timer_->Now());
}

MiddlewareNode::Txn* MiddlewareNode::FindTxn(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : &it->second;
}

MiddlewareNode::Txn& MiddlewareNode::AddTxn(TxnId id) {
  Txn* txn = nullptr;
  if (spare_txns_.empty()) {
    txn = &txns_[id];
  } else {
    Txns::node_type node = std::move(spare_txns_.back());
    spare_txns_.pop_back();
    node.key() = id;
    txn = &txns_.insert(std::move(node)).position->second;
  }
  txn->id = id;
  return *txn;
}

void MiddlewareNode::Participant::Reset() {
  Participant fresh;
  fresh.round_keys.swap(round_keys);
  fresh.op_slots.swap(op_slots);
  fresh.next_batch.swap(next_batch);
  fresh.last_batch.swap(last_batch);
  std::swap(fresh.charge, charge);
  *this = std::move(fresh);
  round_keys.clear();
  op_slots.clear();
  next_batch.clear();
  last_batch.clear();
}

void MiddlewareNode::RetireTxn(Txn& txn) {
  Participants& participants = txn.participants;
  while (!participants.empty()) {
    Participants::node_type node = participants.extract(participants.begin());
    footprint_->OnRelease(&node.mapped().charge);  // settled at the answer
    if (spare_participants_.size() >= kSpareParticipants) continue;
    node.mapped().Reset();
    spare_participants_.push_back(std::move(node));
  }
  Txns::node_type node = txns_.extract(txn.id);
  if (spare_txns_.size() >= kSpareTxns) return;
  Txn& spare = node.mapped();
  std::vector<int64_t> values = std::move(spare.round_values);
  spare = Txn();
  spare.round_values = std::move(values);
  spare.round_values.clear();
  spare_txns_.push_back(std::move(node));
}

MiddlewareNode::Participant& MiddlewareNode::JoinParticipant(Txn& txn,
                                                             NodeId node) {
  auto it = txn.participants.lower_bound(node);
  if (it != txn.participants.end() && it->first == node) return it->second;
  if (spare_participants_.empty()) {
    return txn.participants.emplace_hint(it, node, Participant())->second;
  }
  Participants::node_type spare = std::move(spare_participants_.back());
  spare_participants_.pop_back();
  spare.key() = node;
  return txn.participants.insert(it, std::move(spare))->second;
}

size_t MiddlewareNode::BegunBranches(const Txn& txn) {
  size_t begun = 0;
  for (const auto& [node, p] : txn.participants) {
    if (p.begun) ++begun;
  }
  return begun;
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

void MiddlewareNode::OnClientRound(ClientRoundRequest& req) {
  TxnId id = req.txn_id;
  if (id == kInvalidTxn) {
    // Overload gate — NEW transactions only. Continuation rounds of
    // admitted transactions bypass it unconditionally: admitted work must
    // finish, because finishing is what frees the budget.
    if (config_.overload.enabled() &&
        admission_.Consider(req.tenant, timer_->Now()) != ShedReason::kNone) {
      ShedClientRound(req);
      return;
    }
    id = MakeTxnId(ordinal_, next_seq_++);
    Txn& txn = AddTxn(id);
    txn.client_tag = req.client_tag;
    txn.tenant = req.tenant;
    txn.client = req.from;
    txn.ts_begin = timer_->Now();
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
  }
  Txn* txn = FindTxn(id);
  GEOTP_CHECK(txn != nullptr, "round for unknown txn");
  if (txn->aborting) return;  // result message will settle the client

  txn->pending_ops = std::move(req.ops);
  txn->last_round = req.last_round || req.commit;
  txn->commit_on_round = req.commit;
  txn->round_values.assign(txn->pending_ops.size(), 0);
  txn->analysis_total += kAnalysisCost;
  if (txn->trace.valid() && txn->analysis_span == obs::kInvalidSpan) {
    txn->analysis_span = obs::GlobalTracer().BeginSpan(
        txn->trace, "dm.analysis", id_, timer_->Now());
  }
  // Parse / rewrite / route / schedule cost at the DM.
  const auto plan = [this, id]() { PlanAndDispatchRound(id); };
  static_assert(runtime::kStoredInline<decltype(plan)>);
  timer_->Schedule(kAnalysisCost, plan);
}

void MiddlewareNode::PlanAndDispatchRound(TxnId id) {
  Txn* txn = FindTxn(id);
  if (txn == nullptr || txn->aborting) return;
  if (txn->analysis_span != obs::kInvalidSpan) {
    obs::GlobalTracer().EndSpan(txn->analysis_span, timer_->Now());
    txn->analysis_span = obs::kInvalidSpan;
  }

  // Group operations (with their positions in the round) per data source,
  // in data-source order: sorting (source, position) pairs keeps each
  // group's operations in round order.
  const std::vector<ClientOp>& ops = txn->pending_ops;
  GEOTP_CHECK(!ops.empty(), "empty round");
  std::vector<std::pair<NodeId, size_t>>& routes = round_routes_;
  routes.clear();
  routes.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    routes.emplace_back(catalog_.Route(ops[i].key), i);
  }
  std::sort(routes.begin(), routes.end());
  // The group that starts at routes[i] ends at group_end(i).
  const auto group_end = [&routes](size_t i) {
    const NodeId node = routes[i].first;
    while (i < routes.size() && routes[i].first == node) ++i;
    return i;
  };
  size_t num_groups = 0;
  for (size_t i = 0; i < routes.size(); i = group_end(i)) ++num_groups;

  std::vector<core::ParticipantPlanInput>& inputs = round_inputs_;
  while (inputs.size() > num_groups) {
    spare_inputs_.push_back(std::move(inputs.back()));
    inputs.pop_back();
  }
  while (inputs.size() < num_groups) {
    if (spare_inputs_.empty()) {
      inputs.emplace_back();
      continue;
    }
    inputs.push_back(std::move(spare_inputs_.back()));
    spare_inputs_.pop_back();
  }
  for (size_t begin = 0, g = 0; g < num_groups; ++g) {
    const size_t end = group_end(begin);
    core::ParticipantPlanInput& input = inputs[g];
    input.data_source = routes[begin].first;
    input.keys.clear();
    for (size_t r = begin; r < end; ++r) {
      input.keys.push_back(ops[routes[r].second].key);
    }
    begin = end;
  }

  // Admission control (late transaction scheduling) applies to the first
  // round — the paper's Algorithm 2 admits whole transactions.
  const bool allow_admission = txn->round_seq == 0;
  core::ScheduleDecision& decision = round_decision_;
  scheduler_->ScheduleRound(
      inputs, allow_admission ? txn->admission_attempts : -1, rng_, &decision);
  if (allow_admission) {
    if (decision.verdict == core::AdmissionVerdict::kBlock) {
      stats_.admission_blocks++;
      txn->admission_attempts++;
      const auto retry = [this, id]() { PlanAndDispatchRound(id); };
      static_assert(runtime::kStoredInline<decltype(retry)>);
      timer_->Schedule(decision.retry_backoff, retry);
      return;
    }
    if (decision.verdict == core::AdmissionVerdict::kAbort) {
      stats_.admission_aborts++;
      StartAbort(*txn, Status::Aborted("late-scheduling admission abort"));
      return;
    }
  }

  const uint64_t round_seq = txn->round_seq;
  txn->round_outstanding = num_groups;

  // Participants begun in earlier rounds but absent from the final round
  // are told to prepare right away (§III).
  if (txn->last_round &&
      config_.commit_protocol == CommitProtocol::kDecentralized) {
    size_t g = 0;
    for (auto& [node, p] : txn->participants) {
      while (g < num_groups && inputs[g].data_source < node) ++g;
      const bool in_round = g < num_groups && inputs[g].data_source == node;
      if (p.begun && !in_round) {
        QueuePrepare(catalog_.LeaderOf(node), Xid{txn->id, node});
      }
    }
  }

  auto batch_end = routes.begin();
  for (size_t g = 0; g < num_groups; ++g) {
    const NodeId target = inputs[g].data_source;
    const auto batch_begin = batch_end;
    batch_end += static_cast<ptrdiff_t>(inputs[g].keys.size());
    if (config_.quro_reorder) {
      // QURO: exclusive locks as late as possible inside the batch.
      std::stable_partition(batch_begin, batch_end,
                            [&ops](const std::pair<NodeId, size_t>& r) {
                              return !ops[r.second].is_write;
                            });
    }
    Participant& p = JoinParticipant(*txn, target);
    p.exec_outstanding = true;
    p.round_keys.clear();
    p.op_slots.clear();
    p.next_batch.clear();
    bool all_reads = true;
    for (auto r = batch_begin; r != batch_end; ++r) {
      const ClientOp& op = ops[r->second];
      p.round_keys.push_back(op.key);
      p.op_slots.push_back(r->second);
      p.next_batch.push_back(op);
      if (op.is_write) all_reads = false;
    }
    // Final-round all-read batches may be served by a replication
    // follower (stale-bounded); everything else runs at the leader.
    p.via_follower = config_.follower_reads && txn->last_round &&
                     !p.begun && all_reads &&
                     catalog_.HasReplicaGroup(target);

    uint32_t ticket;
    if (free_tickets_.empty()) {
      ticket = static_cast<uint32_t>(postponed_.size());
      postponed_.emplace_back();
    } else {
      ticket = free_tickets_.back();
      free_tickets_.pop_back();
    }
    postponed_[ticket] = PostponedDispatch{id, target, round_seq};
    const auto dispatch = [this, ticket]() { DispatchPostponed(ticket); };
    static_assert(runtime::kStoredInline<decltype(dispatch)>);
    timer_->Schedule(decision.plans[g].postpone, dispatch);
  }
  txn->round_seq++;
}

void MiddlewareNode::DispatchPostponed(uint32_t ticket) {
  const PostponedDispatch postponed = postponed_[ticket];
  free_tickets_.push_back(ticket);
  Txn* txn = FindTxn(postponed.txn);
  if (txn == nullptr || txn->aborting) return;
  const NodeId target = postponed.target;
  Participant& p = txn->participants[target];
  p.last_batch.swap(p.next_batch);
  if (p.via_follower &&
      TryFollowerRead(*txn, target, p.last_batch, postponed.round_seq)) {
    return;
  }
  p.via_follower = false;  // no usable follower
  SendBranchBatch(*txn, target, postponed.round_seq);
}

void MiddlewareNode::SendBranchBatch(Txn& txn, NodeId logical,
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
  // A last statement's response carries the branch's vote (Algorithm 1):
  // IDLE with no peers, else whatever the decentralized prepare ends in.
  const bool idle = req->last_statement && req->peers.empty();
  p.vote_on_response = req->last_statement && !idle;
  // With the client's COMMIT on the round and no other branch in the
  // transaction, the IDLE vote is already the decision: the source
  // commits one-phase as the batch ends, a WAN round trip (and its lock
  // hold) sooner than a DM-sent XA COMMIT ... ONE PHASE.
  p.commit_one_phase =
      idle && txn.commit_on_round && txn.participants.size() == 1;
  req->commit_one_phase = p.commit_one_phase;
  p.sent_to = req->to;
  p.sent_at = timer_->Now();
  p.begun = true;
  req->ops = p.last_batch;
  // Charge the hotspot footprint at actual dispatch (a_cnt++); the
  // matching release happens in OnExecResponse or FinishTxn. A failover
  // retry keeps the original charge.
  if (p.charge.empty()) footprint_->OnDispatch(p.round_keys, &p.charge);
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
  const Micros freshness_bound = 10 * core::kPingInterval;
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
  timer_->Schedule(config_.follower_read_timeout, [this, id, logical,
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
  SendBranchBatch(txn, logical, txn.round_seq - 1);
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
  PlaceReads(*txn, p, resp.values);
  if (txn->round_outstanding > 0) txn->round_outstanding--;
  MaybeCompleteRound(*txn);
}

void MiddlewareNode::PlaceReads(Txn& txn, const Participant& p,
                                const std::vector<int64_t>& values) {
  for (size_t i = 0; i < p.op_slots.size() && i < values.size(); ++i) {
    if (p.op_slots[i] < txn.round_values.size()) {
      txn.round_values[p.op_slots[i]] = values[i];
    }
  }
}

void MiddlewareNode::OnExecResponse(const BranchExecuteResponse& resp) {
  OnSourceReport(resp.from, resp.inflight, resp.shard_epoch);
  OnLazyAcks(resp.from, resp.acked_commits);
  Txn* txn = FindTxn(resp.xid.txn_id);
  Participant* found = nullptr;
  if (txn != nullptr) {
    auto it = txn->participants.find(catalog_.LogicalOf(resp.from));
    if (it != txn->participants.end()) found = &it->second;
  }
  // Late (the txn settled), duplicate/stale, or from a deposed replica
  // whose batch went to the new leader since (its rollback there says
  // nothing of the batch). A vote it carries still counts as a vote.
  if (found == nullptr || !found->exec_outstanding ||
      resp.from != found->sent_to) {
    OnVote(resp.from, resp.xid, resp.vote);
    return;
  }
  Participant& p = *found;
  p.exec_outstanding = false;
  p.vote_on_response = false;
  // The round trip less the time the request spent at the source, which
  // the source timed on its own clock (clamped: the two clocks may round
  // apart on a link of near-zero latency).
  monitor_->OnTrafficSample(
      resp.from,
      std::max<Micros>(0, timer_->Now() - p.sent_at - resp.residence));

  // Feed the hotspot footprint (Eq. 4 update + counter maintenance).
  footprint_->OnComplete(&p.charge, resp.local_exec_latency,
                         resp.status.ok());

  if (!resp.status.ok()) {
    if (resp.rolled_back) p.rollback_confirmed = true;
    if (txn->aborting) {
      CheckAbortDone(*txn);
    } else {
      StartAbort(*txn, resp.status);
    }
    return;
  }

  PlaceReads(*txn, p, resp.values);
  if (resp.committed) {
    // The only branch committed one-phase as its last batch ended, so the
    // transaction is done: no decision to dispatch, nothing to log.
    stats_.exec_commits++;
    txn->ts_exec_done = timer_->Now();
    FinishTxn(*txn, /*committed=*/true);
    return;
  }
  if (txn->round_outstanding > 0) txn->round_outstanding--;
  // The vote lands before the round completes, so a bundled COMMIT that
  // the round's end starts finds it; a failure vote aborts instead.
  OnVote(resp.from, resp.xid, resp.vote);
  if (Txn* live = FindTxn(resp.xid.txn_id)) MaybeCompleteRound(*live);
}

void MiddlewareNode::MaybeCompleteRound(Txn& txn) {
  if (txn.aborting || txn.round_outstanding != 0) return;
  txn.ts_exec_done = timer_->Now();
  if (txn.commit_on_round) {
    txn.ts_commit_req = txn.ts_exec_done;
    StartCommit(txn);
    return;
  }
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
  txn->ts_commit_req = timer_->Now();
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
      if (BegunBranches(txn) <= 1) {
        // XA one-phase commit for centralized transactions: 1 WAN RTT.
        txn.ts_votes = timer_->Now();
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
      txn.ts_votes = timer_->Now();
      DispatchDecision(txn, /*commit=*/true, /*one_phase=*/true);
      return;
    }
  }
}

void MiddlewareNode::OnVote(NodeId from, const Xid& xid, Vote vote) {
  if (vote == Vote::kNone) return;  // a response that carries no vote
  Txn* txn = FindTxn(xid.txn_id);
  if (txn == nullptr) {
    // A promoted leader re-voted a prepared branch of a transaction we no
    // longer track: resolve it from the decision log (presumed abort).
    if (vote == Vote::kPrepared) ResolveOrphanVote(from, xid);
    return;
  }
  auto it = txn->participants.find(catalog_.LogicalOf(from));
  if (it == txn->participants.end()) return;
  Participant& p = it->second;
  p.has_vote = true;
  p.vote = vote;

  switch (vote) {
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
                                         std::string(VoteName(vote))));
      }
      return;
    case Vote::kNone:
      return;  // returned above
  }
}

void MiddlewareNode::CheckVotesComplete(Txn& txn) {
  GEOTP_CHECK(txn.phase == Phase::kWaitCommitVotes, "wrong phase");
  const size_t begun = BegunBranches(txn);
  if (begun > 1) {
    // A branch voted IDLE while its only peer was a follower read, which
    // then fell back to the leader and began a second branch: the IDLE
    // branch must prepare after all.
    for (auto& [node, p] : txn.participants) {
      if (!p.begun || !p.has_vote || p.vote != Vote::kIdle) continue;
      p.has_vote = false;
      QueuePrepare(catalog_.LeaderOf(node), Xid{txn.id, node});
    }
  }
  bool idle = false;  // only the sole begun branch may vote IDLE
  for (auto& [node, p] : txn.participants) {
    if (!p.begun) continue;
    if (!p.has_vote) return;  // still waiting (Algorithm 1 line 21)
    idle = p.vote == Vote::kIdle;
    const bool good_vote = p.vote == Vote::kPrepared || (idle && begun == 1);
    if (!good_vote) return;  // failure votes route through OnVote
  }
  if (begun == 0) {
    // Degenerate: nothing begun (all rounds empty) — commit trivially.
    txn.ts_votes = timer_->Now();
    FinishTxn(txn, /*committed=*/true);
    return;
  }
  txn.ts_votes = timer_->Now();
  if (txn.prepare_span != obs::kInvalidSpan) {
    obs::GlobalTracer().EndSpan(txn.prepare_span, txn.ts_votes);
    txn.prepare_span = obs::kInvalidSpan;
  }
  if (idle) {
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
        txn.trace, "dm.log_fsync", id_, timer_->Now());
  }
  log_committer_.Append(
      kLogFlushCost,
      wire::Pack(storage::LogRecord{commit ? storage::LogRecordType::kCommit
                                           : storage::LogRecordType::kAbort,
                                    Xid{id, kInvalidNode}}),
      [this, id, commit]() {
    Txn* txn = FindTxn(id);
    if (txn == nullptr) return;
    if (txn->fsync_span != obs::kInvalidSpan) {
      obs::GlobalTracer().EndSpan(txn->fsync_span, timer_->Now());
      txn->fsync_span = obs::kInvalidSpan;
    }
    log_.FindOrInsert(id) = commit;  // a later decision overwrites
    stats_.log_entries_flushed++;
    // GeoTP answers a commit here: every branch is durably prepared and the
    // decision is durable, so the outcome is fixed. The transaction settles
    // (FinishTxn) on its last DecisionAck, which its sources send lazily.
    // SSP answers only then, as an XA commit() returns after phase 2.
    if (commit && config_.commit_protocol == CommitProtocol::kDecentralized) {
      AnswerClient(*txn, true);
    }
    DispatchDecision(*txn, commit, /*one_phase=*/false);
  });
}

void MiddlewareNode::DispatchDecision(Txn& txn, bool commit, bool one_phase) {
  txn.phase = commit ? Phase::kCommitDispatched : Phase::kAborting;
  txn.decision_one_phase = one_phase;
  txn.ts_decision = timer_->Now();
  if (txn.trace.valid() && txn.commit_span == obs::kInvalidSpan) {
    txn.commit_span = obs::GlobalTracer().BeginSpan(
        txn.trace, commit ? "dm.commit" : "dm.abort", id_, txn.ts_decision);
  }
  size_t sent = 0;
  for (auto& [node, p] : txn.participants) {
    if (!p.begun) continue;
    if (!commit && p.rollback_confirmed) continue;  // already rolled back
    QueueDecision(catalog_.LeaderOf(node), Xid{txn.id, node}, commit,
                  one_phase, /*lazy_ack=*/txn.answered);
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
                                   bool one_phase, bool lazy_ack) {
  DispatchQueue& queue = dispatch_queues_[dest];
  queue.decisions.push_back(
      protocol::DecisionItem{xid, commit, one_phase, lazy_ack});
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
  timer_->Schedule(0, [this]() { FlushDispatchQueues(); });
}

void MiddlewareNode::FlushDispatchQueues() {
  dispatch_flush_scheduled_ = false;
  if (crashed_) {
    dispatch_queues_.clear();
    return;
  }
  // Every destination's prepares leave before any decision. None carries
  // a trace context: the source opens its prepare and commit spans under
  // the context it kept from the branch's BranchExecuteRequest.
  for (auto& [dest, queue] : dispatch_queues_) {
    std::vector<Xid>& xids = queue.prepares;
    if (xids.empty()) continue;
    stats_.prepare_requests_sent += xids.size();
    if (xids.size() == 1) {
      auto prep = std::make_unique<PrepareRequest>();
      prep->from = id_;
      prep->to = dest;
      prep->xid = xids.front();
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
      decision->item = items.front();
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

void MiddlewareNode::OnLazyAcks(NodeId from, const std::vector<TxnId>& txns) {
  for (TxnId txn : txns) {
    OnDecisionAck(from, txn, /*committed=*/true, /*one_phase=*/false);
  }
}

void MiddlewareNode::OnDecisionAck(NodeId from, TxnId txn_id, bool committed,
                                   bool one_phase) {
  Txn* txn = FindTxn(txn_id);
  if (txn == nullptr) return;
  auto it = txn->participants.find(catalog_.LogicalOf(from));
  if (it == txn->participants.end()) return;
  Participant& p = it->second;
  if (txn->phase == Phase::kCommitDispatched) {
    if (!committed) {
      if (one_phase) {
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
  if (!txn.answered) AnswerClient(txn, committed);
  // Settle: the commit phase (and its span) ends with the last ack.
  const Micros now = timer_->Now();
  if (committed && txn.ts_decision > 0) {
    breakdown_.Record(metrics::TxnPhase::kCommit, now - txn.ts_decision);
  }
  if (txn.commit_span != obs::kInvalidSpan) {
    obs::GlobalTracer().EndSpan(txn.commit_span, now);
  }
  RetireTxn(txn);
}

void MiddlewareNode::AnswerClient(Txn& txn, bool committed) {
  txn.answered = true;
  const Micros now = timer_->Now();
  obs::Tracer& tracer = obs::GlobalTracer();
  for (obs::SpanHandle* h : {&txn.analysis_span, &txn.prepare_span,
                             &txn.fsync_span, &txn.root_span}) {
    if (*h != obs::kInvalidSpan) {
      tracer.EndSpan(*h, now);
      *h = obs::kInvalidSpan;
    }
  }
  // Release footprint charges for participants whose execute response
  // never arrived (dispatch skipped mid-abort, or settled early) so a_cnt
  // does not leak — a leaked a_cnt drives Eq. 9 to 1 permanently.
  for (auto& [node, p] : txn.participants) footprint_->OnRelease(&p.charge);
  if (committed) {
    stats_.committed++;
    if (BegunBranches(txn) > 1) stats_.committed_distributed++;
    breakdown_.Record(metrics::TxnPhase::kAnalysis, txn.analysis_total);
    breakdown_.Record(metrics::TxnPhase::kExecution,
                      txn.ts_exec_done - txn.ts_begin);
    if (txn.ts_votes > 0 && txn.ts_commit_req > 0) {
      breakdown_.Record(metrics::TxnPhase::kPrepare,
                        std::max<Micros>(0, txn.ts_votes - txn.ts_commit_req));
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
  // A commit-carrying round got no round response: its reads come here.
  if (committed && txn.commit_on_round) {
    result->values = std::move(txn.round_values);
  }
  network_->Send(std::move(result));
  if (config_.overload.enabled()) {
    admission_.Release(txn.tenant);
  }
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
  std::vector<TxnId> in_doubt;
  for (auto& [txn_id, txn] : txns_) {
    auto it = txn.participants.find(logical);
    if (it == txn.participants.end()) continue;
    Participant& p = it->second;
    switch (txn.phase) {
      case Phase::kExecuting: {
        if (!p.exec_outstanding) {
          // Idle after its round completed. A branch that sat out the
          // final round has an explicit prepare in flight at the source;
          // if that died un-replicated with the old leader, no vote will
          // ever come — promoted leaders only re-vote quorum-staged
          // prepares. Give the vote the same grace as the
          // kWaitCommitVotes case (it may still be in flight, or
          // resurface via a re-vote), then abort. Without this, a crash in
          // the prepare-fsync window wedges the transaction forever once
          // the client's COMMIT arrives.
          if (txn.last_round && p.begun && !p.has_vote &&
              config_.commit_protocol == CommitProtocol::kDecentralized) {
            ArmFailoverVoteGrace(txn_id, logical);
          }
          break;
        }
        if (p.via_follower) break;       // follower-read timeout handles it
        // A leader re-elected at a higher epoch kept the branch and still
        // runs the batch, so its response comes as usual (a step-down
        // that rolled a commit-carrying batch back answers with the
        // failure). A replay there would fail: the branch exists.
        if (catalog_.LeaderOf(logical) == p.sent_to) break;
        if (p.commit_one_phase) {
          // The batch carried the commit. Had the old leader made the
          // commit quorum-durable before dying, a replay would apply the
          // branch's writes twice. Resolve it as an in-doubt one-phase
          // commit instead: the new leader acks it if the commit entry
          // survived, and fails it (a clean abort) if the branch died
          // with the old leader. The log keeps no reads, so the client's
          // result carries none.
          p.exec_outstanding = false;
          p.commit_one_phase = false;
          txn.round_values.clear();
          txn.ts_exec_done = timer_->Now();
          txn.phase = Phase::kCommitDispatched;
          txn.decision_one_phase = true;
          txn.ts_decision = txn.ts_exec_done;
          QueueDecision(catalog_.LeaderOf(logical), Xid{txn.id, logical},
                        /*commit=*/true, /*one_phase=*/true);
          break;
        }
        if (p.vote_on_response && txn.commit_on_round) {
          // The old leader held the response for the branch's prepare, so
          // the PREPARE entry may have shipped and the new leader may hold
          // the branch in doubt, where a replay would fail. Resolve it in
          // doubt like the one-phase case: the new leader's re-vote
          // decides, and a branch that never prepared aborts after the
          // vote grace. The round's reads are given up with the response.
          p.exec_outstanding = false;
          p.vote_on_response = false;
          txn.round_values.clear();
          if (txn.round_outstanding > 0) txn.round_outstanding--;
          ArmFailoverVoteGrace(txn_id, logical);
          in_doubt.push_back(txn_id);
          break;
        }
        if (p.begun && p.begun_round + 1 == txn.round_seq) {
          // The branch began in the round now in flight: its state died
          // un-replicated with the old leader, so replaying the whole
          // batch on the new leader is exact.
          stats_.branch_retries++;
          p.begun = false;
          p.has_vote = false;
          SendBranchBatch(txn, logical, txn.round_seq - 1);
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
        ArmFailoverVoteGrace(txn_id, logical);
        break;
      }
      case Phase::kCommitDispatched: {
        if (!p.begun || p.decision_acked) break;
        // Re-send the undecided commit; the new leader resolves it
        // idempotently against its replicated log.
        QueueDecision(catalog_.LeaderOf(logical), Xid{txn.id, logical},
                      /*commit=*/true, txn.decision_one_phase,
                      /*lazy_ack=*/txn.answered);
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
  // A bundled COMMIT whose round just completed waits for the re-vote.
  for (TxnId txn_id : in_doubt) {
    if (Txn* txn = FindTxn(txn_id)) MaybeCompleteRound(*txn);
  }
  for (TxnId txn_id : to_abort) {
    Txn* txn = FindTxn(txn_id);
    if (txn != nullptr && !txn->aborting) {
      StartAbort(*txn, Status::Unavailable("data source leader failover"));
    }
  }
}

void MiddlewareNode::ArmFailoverVoteGrace(TxnId txn_id, NodeId logical) {
  // A transaction never returns from kWaitCommitVotes to kExecuting, so
  // one phase test serves both arming sites.
  timer_->Schedule(kFailoverVoteGrace, [this, txn_id, logical]() {
    Txn* t = FindTxn(txn_id);
    if (t == nullptr || t->aborting) return;
    if (t->phase != Phase::kExecuting &&
        t->phase != Phase::kWaitCommitVotes) {
      return;
    }
    auto pit = t->participants.find(logical);
    if (pit == t->participants.end() || pit->second.has_vote) return;
    StartAbort(*t, Status::Unavailable("prepare lost in failover"));
  });
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
  OnLazyAcks(pong.from, pong.acked_commits);
  // A source that saw our stale epoch sent its map along: adopt it (bounds
  // DM staleness by one ping interval instead of one redirect; the monitor
  // pings a source that reports a newer epoch whatever its traffic).
  if (!pong.map_entries.empty() &&
      catalog_.mutable_shard_map().Adopt(pong.map_entries)) {
    stats_.shard_map_pulls++;
    NoteShardEpoch(catalog_.ShardEpoch());
  }
  OnSourceReport(pong.from, pong.inflight, pong.shard_epoch);
}

void MiddlewareNode::OnSourceReport(NodeId from, uint64_t inflight,
                                    uint64_t shard_epoch) {
  monitor_->OnReport(from, inflight, shard_epoch);
  // A source whose own epoch trails the catalog missed a publish
  // (partitioned, restarted): push it the current map.
  if (catalog_.HasShardMap() && shard_epoch < catalog_.ShardEpoch()) {
    // One push per round trip, not per report: reports arrive every few
    // ms while a WAN repair takes an RTT to reflect in the source's epoch,
    // so an unspaced push would send dozens of identical full maps per
    // repair.
    const Micros spacing =
        std::max<Micros>(monitor_->RttEstimate(from), core::kPingInterval);
    Micros& last = shard_push_at_[from];
    if (last == 0 || timer_->Now() - last >= spacing) {
      last = timer_->Now();
      stats_.shard_map_pushes++;
      auto update = std::make_unique<protocol::ShardMapUpdate>();
      update->from = id_;
      update->to = from;
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
  // Release the old charge; the re-dispatch re-charges per new group.
  footprint_->OnRelease(&p.charge);
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
  // Every target joins the transaction before any batch leaves, so each
  // batch's peer list (and its IDLE/one-phase eligibility) sees the rest.
  for (auto& [target, group] : groups) {
    Participant& q = JoinParticipant(*txn, target);
    q.op_slots = std::move(group.second);
    q.round_keys.clear();
    for (const ClientOp& op : group.first) q.round_keys.push_back(op.key);
  }
  const uint64_t round_seq = txn->round_seq - 1;
  for (auto& [target, group] : groups) {
    txn->participants[target].last_batch = std::move(group.first);
    SendBranchBatch(*txn, target, round_seq);
  }
}

void MiddlewareNode::ResolveOrphanVote(NodeId from, const Xid& xid) {
  const bool* logged = log_.Find(xid.txn_id);
  const bool committed = logged != nullptr && *logged;
  if (!committed) stats_.presumed_aborts++;
  QueueDecision(from, xid, committed, /*one_phase=*/false);
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
      const bool* logged = log_.Find(xid.txn_id);
      const bool committed = logged != nullptr && *logged;
      QueueDecision(src->id(), xid, committed, /*one_phase=*/false);
    }
  }
}

}  // namespace middleware
}  // namespace geotp
