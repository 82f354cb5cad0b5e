#include "baselines/scalardb.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace geotp {
namespace baselines {

using protocol::ClientFinishRequest;
using protocol::ClientOp;
using protocol::ClientRoundRequest;
using protocol::ClientRoundResponse;
using protocol::ClientTxnResult;

ScalarDbNode::ScalarDbNode(runtime::ActorEnv env, middleware::Catalog catalog,
                           ScalarDbConfig config)
    : id_(env.node),
      network_(env.transport),
      timer_(env.timer),
      catalog_(std::move(catalog)),
      config_(std::move(config)),
      footprint_(std::make_unique<core::HotspotFootprint>(config_.footprint)),
      monitor_(std::make_unique<core::LatencyMonitor>(
          id_, network_, timer_, catalog_.AllDataSources(),
          config_.monitor)),
      rng_(0x5CA1A3DB + id_) {
  core::SchedulerConfig sched;
  if (config_.plus) {
    // Eq. 3 postponing over the monitor's latency estimates. The Eq. 9
    // admission heuristic models a lock wait queue (a_cnt - 1 waiters);
    // under ScalarDB's OCC there is no queue — accesses fail fast at
    // prepare — so admission is configurable and off by default here
    // (DESIGN.md documents the deviation).
    sched.policy = core::SchedulerPolicy::kLatencyAwareForecast;
    sched.forecast_scale = 0.0;  // pure Eq. 3 postponing
    sched.admission = config_.admission;
  } else {
    sched.policy = core::SchedulerPolicy::kImmediate;
  }
  scheduler_ = std::make_unique<core::GeoScheduler>(sched, monitor_.get(),
                                                    footprint_.get());
}

ScalarDbNode::~ScalarDbNode() = default;

void ScalarDbNode::Attach() {
  network_->RegisterNode(
      id_, [this](std::unique_ptr<runtime::MessageBase> msg) {
        HandleMessage(std::move(msg));
      });
  if (config_.plus) monitor_->Start();
}

void ScalarDbNode::HandleMessage(std::unique_ptr<runtime::MessageBase> msg) {
  switch (msg->type()) {
    case runtime::MessageType::kClientRoundRequest:
      OnClientRound(static_cast<ClientRoundRequest&>(*msg));
      return;
    case runtime::MessageType::kStoreReadResponse:
      OnReadResponse(static_cast<StoreReadResponse&>(*msg));
      return;
    case runtime::MessageType::kClientFinishRequest:
      OnClientFinish(static_cast<ClientFinishRequest&>(*msg));
      return;
    case runtime::MessageType::kStorePrepareResponse:
      OnPrepareResponse(static_cast<StorePrepareResponse&>(*msg));
      return;
    case runtime::MessageType::kStoreDecisionAck:
      OnDecisionAck(static_cast<StoreDecisionAck&>(*msg));
      return;
    case runtime::MessageType::kPingResponse:
      monitor_->OnPong(static_cast<protocol::PingResponse&>(*msg));
      return;
    default:
      GEOTP_CHECK(false, "scalardb: unknown message");
  }
}

ScalarDbNode::Txn* ScalarDbNode::FindTxn(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : &it->second;
}

void ScalarDbNode::OnClientRound(const ClientRoundRequest& req) {
  TxnId id = req.txn_id;
  if (id == kInvalidTxn) {
    id = MakeTxnId(/*middleware_ordinal=*/1, next_seq_++);
    Txn txn;
    txn.id = id;
    txn.client_tag = req.client_tag;
    txn.client = req.from;
    txns_.emplace(id, std::move(txn));
  }
  Txn* txn = FindTxn(id);
  GEOTP_CHECK(txn != nullptr, "round for unknown txn");
  if (txn->aborting) return;
  txn->pending_ops = req.ops;
  txn->round_values.assign(req.ops.size(), 0);
  loop()->Schedule(config_.analysis_cost, [this, id]() { PlanRound(id); });
}

void ScalarDbNode::PlanRound(TxnId id) {
  Txn* txn = FindTxn(id);
  if (txn == nullptr || txn->aborting) return;

  std::map<NodeId, std::vector<std::pair<ClientOp, size_t>>> groups;
  for (size_t i = 0; i < txn->pending_ops.size(); ++i) {
    groups[catalog_.Route(txn->pending_ops[i].key)].emplace_back(
        txn->pending_ops[i], i);
  }

  std::vector<core::ParticipantPlanInput> inputs;
  for (const auto& [node, ops] : groups) {
    core::ParticipantPlanInput input;
    input.data_source = node;
    for (const auto& [op, slot] : ops) input.keys.push_back(op.key);
    inputs.push_back(std::move(input));
  }

  const bool allow_admission = config_.plus && txn->round_seq == 0;
  core::ScheduleDecision decision = scheduler_->ScheduleRound(
      inputs, allow_admission ? txn->admission_attempts : -1, rng_);
  if (allow_admission) {
    if (decision.verdict == core::AdmissionVerdict::kBlock) {
      stats_.admission_blocks++;
      txn->admission_attempts++;
      loop()->Schedule(decision.retry_backoff,
                       [this, id]() { PlanRound(id); });
      return;
    }
    if (decision.verdict == core::AdmissionVerdict::kAbort) {
      FinishTxn(*txn, /*committed=*/false);
      return;
    }
  }
  if (config_.plus) {
    for (const auto& input : inputs) footprint_->OnDispatch(input.keys);
  }

  txn->outstanding = groups.size();
  txn->round_seq++;
  size_t plan_idx = 0;
  for (auto& [node, ops] : groups) {
    Staged& staged = txn->participants[node];
    staged.read_outstanding = true;
    const uint64_t req_id = next_req_id_++;
    read_reqs_[req_id] = {id, node};

    std::vector<RecordKey> keys;
    for (const auto& [op, slot] : ops) {
      keys.push_back(op.key);
      StagedOp sop;
      sop.key = op.key;
      sop.is_write = op.is_write;
      sop.write_value = op.value;  // deltas resolved at read-response time
      staged.ops.push_back(sop);
      staged.op_slots.push_back(slot);
    }

    const Micros postpone = decision.plans[plan_idx++].postpone;
    const NodeId target = node;
    loop()->Schedule(postpone, [this, id, target, req_id, keys]() {
      Txn* txn = FindTxn(id);
      if (txn == nullptr || txn->aborting) return;
      auto req = std::make_unique<StoreReadRequest>();
      req->from = id_;
      req->to = target;
      req->txn = id;
      req->req_id = req_id;
      req->keys = keys;
      network_->Send(std::move(req));
    });
  }
}

void ScalarDbNode::OnReadResponse(const StoreReadResponse& resp) {
  auto req_it = read_reqs_.find(resp.req_id);
  if (req_it == read_reqs_.end()) return;
  const auto [txn_id, node] = req_it->second;
  read_reqs_.erase(req_it);
  Txn* txn = FindTxn(txn_id);
  if (txn == nullptr || txn->aborting) return;
  Staged& staged = txn->participants[node];
  staged.read_outstanding = false;

  // Record versions; resolve delta writes against the read values. The
  // staged entries for this round are the tail added in PlanRound.
  const size_t base = staged.ops.size() - resp.results.size();
  for (size_t i = 0; i < resp.results.size(); ++i) {
    StagedOp& sop = staged.ops[base + i];
    sop.expected_version = resp.results[i].version;
    const size_t slot = staged.op_slots[base + i];
    const ClientOp& cop = txn->pending_ops[slot];
    if (sop.is_write) {
      sop.write_value =
          cop.is_delta ? resp.results[i].value + cop.value : cop.value;
      txn->round_values[slot] = sop.write_value;
    } else {
      txn->round_values[slot] = resp.results[i].value;
    }
  }

  if (--txn->outstanding == 0) {
    auto round = std::make_unique<ClientRoundResponse>();
    round->from = id_;
    round->to = txn->client;
    round->client_tag = txn->client_tag;
    round->txn_id = txn->id;
    round->status = Status::OK();
    round->values = txn->round_values;
    network_->Send(std::move(round));
  }
}

void ScalarDbNode::OnClientFinish(const ClientFinishRequest& req) {
  Txn* txn = FindTxn(req.txn_id);
  if (txn == nullptr) return;
  txn->commit_requested = true;
  if (txn->aborting) return;
  if (!req.commit) {
    DispatchDecision(*txn, /*commit=*/false);
    return;
  }

  // Prepare: validate versions + install intents, latency-aware in Plus.
  std::vector<core::ParticipantPlanInput> inputs;
  for (const auto& [node, staged] : txn->participants) {
    core::ParticipantPlanInput input;
    input.data_source = node;
    for (const auto& op : staged.ops) input.keys.push_back(op.key);
    inputs.push_back(std::move(input));
  }
  core::ScheduleDecision decision =
      scheduler_->ScheduleRound(inputs, /*attempt=*/-1, rng_);

  const TxnId id = txn->id;
  txn->outstanding = txn->participants.size();
  size_t plan_idx = 0;
  for (auto& [node, staged] : txn->participants) {
    staged.prepare_outstanding = true;
    const Micros postpone = decision.plans[plan_idx++].postpone;
    const NodeId target = node;
    auto ops = staged.ops;
    loop()->Schedule(postpone, [this, id, target, ops]() {
      Txn* txn = FindTxn(id);
      if (txn == nullptr) return;
      auto req = std::make_unique<StorePrepareRequest>();
      req->from = id_;
      req->to = target;
      req->txn = id;
      req->ops = ops;
      network_->Send(std::move(req));
    });
  }
}

void ScalarDbNode::OnPrepareResponse(const StorePrepareResponse& resp) {
  Txn* txn = FindTxn(resp.txn);
  if (txn == nullptr) return;
  auto it = txn->participants.find(resp.from);
  if (it == txn->participants.end() || !it->second.prepare_outstanding) return;
  Staged& staged = it->second;
  staged.prepare_outstanding = false;
  staged.prepared_ok = resp.status.ok();
  if (!resp.status.ok()) {
    stats_.prepare_conflicts++;
    txn->aborting = true;
  }
  if (config_.plus) {
    // Footprint feedback: prepare success stands in for commit success.
    std::vector<RecordKey> keys;
    for (const auto& op : staged.ops) keys.push_back(op.key);
    footprint_->OnComplete(keys, /*measured_lel=*/0, resp.status.ok());
  }
  if (--txn->outstanding > 0) return;

  if (txn->aborting) {
    DispatchDecision(*txn, /*commit=*/false);
    return;
  }
  // Commit-state record (the coordinator table write), then promote.
  const TxnId id = txn->id;
  loop()->Schedule(config_.commit_state_cost, [this, id]() {
    Txn* txn = FindTxn(id);
    if (txn == nullptr) return;
    DispatchDecision(*txn, /*commit=*/true);
  });
}

void ScalarDbNode::DispatchDecision(Txn& txn, bool commit) {
  txn.aborting = !commit;
  txn.outstanding = 0;
  for (auto& [node, staged] : txn.participants) {
    staged.decision_outstanding = true;
    txn.outstanding++;
    auto req = std::make_unique<StoreDecisionRequest>();
    req->from = id_;
    req->to = node;
    req->txn = txn.id;
    req->commit = commit;
    network_->Send(std::move(req));
  }
  if (txn.outstanding == 0) FinishTxn(txn, commit);
}

void ScalarDbNode::OnDecisionAck(const StoreDecisionAck& ack) {
  Txn* txn = FindTxn(ack.txn);
  if (txn == nullptr) return;
  auto it = txn->participants.find(ack.from);
  if (it == txn->participants.end() || !it->second.decision_outstanding) {
    return;
  }
  it->second.decision_outstanding = false;
  if (--txn->outstanding == 0) FinishTxn(*txn, ack.commit);
}

void ScalarDbNode::FinishTxn(Txn& txn, bool committed) {
  if (committed) {
    stats_.committed++;
  } else {
    stats_.aborted++;
  }
  auto result = std::make_unique<ClientTxnResult>();
  result->from = id_;
  result->to = txn.client;
  result->client_tag = txn.client_tag;
  result->txn_id = txn.id;
  result->status =
      committed ? Status::OK() : Status::Conflict("consensus commit");
  network_->Send(std::move(result));
  txns_.erase(txn.id);
}

}  // namespace baselines
}  // namespace geotp
