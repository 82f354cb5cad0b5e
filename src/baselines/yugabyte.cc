#include "baselines/yugabyte.h"

#include <utility>

#include "common/logging.h"

namespace geotp {
namespace baselines {

using protocol::ClientFinishRequest;
using protocol::ClientOp;
using protocol::ClientRoundRequest;
using protocol::ClientRoundResponse;
using protocol::ClientTxnResult;

YbTabletNode::YbTabletNode(runtime::ActorEnv env,
                           const middleware::Catalog* catalog,
                           YbConfig config)
    : id_(env.node),
      network_(env.transport),
      timer_(env.timer),
      catalog_(catalog),
      config_(config) {}

void YbTabletNode::Attach() {
  network_->RegisterNode(
      id_, [this](std::unique_ptr<runtime::MessageBase> msg) {
        HandleMessage(std::move(msg));
      });
}

void YbTabletNode::HandleMessage(std::unique_ptr<runtime::MessageBase> msg) {
  switch (msg->type()) {
    case runtime::MessageType::kClientRoundRequest:
      OnClientRound(static_cast<ClientRoundRequest&>(*msg));
      return;
    case runtime::MessageType::kYbBatchResponse:
      OnBatchResponse(static_cast<YbBatchResponse&>(*msg));
      return;
    case runtime::MessageType::kClientFinishRequest:
      OnClientFinish(static_cast<ClientFinishRequest&>(*msg));
      return;
    case runtime::MessageType::kYbBatchRequest:
      OnBatch(static_cast<YbBatchRequest&>(*msg));
      return;
    case runtime::MessageType::kYbResolveRequest:
      OnResolve(static_cast<YbResolveRequest&>(*msg));
      return;
    case runtime::MessageType::kPingRequest: {
      auto& ping = static_cast<protocol::PingRequest&>(*msg);
      auto pong = std::make_unique<protocol::PingResponse>();
      pong->from = id_;
      pong->to = ping.from;
      pong->seq = ping.seq;
      pong->sent_at = ping.sent_at;
      network_->Send(std::move(pong));
      return;
    }
    default:
      GEOTP_CHECK(false, "yugabyte: unknown message");
  }
}

YbTabletNode::Txn* YbTabletNode::FindTxn(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Coordinator role
// ---------------------------------------------------------------------------

void YbTabletNode::OnClientRound(const ClientRoundRequest& req) {
  TxnId id = req.txn_id;
  if (id == kInvalidTxn) {
    // Ordinal derived from the node id so coordinators never collide.
    id = MakeTxnId(static_cast<uint32_t>(100 + id_), next_seq_++);
    Txn txn;
    txn.id = id;
    txn.client_tag = req.client_tag;
    txn.client = req.from;
    txn.conflict_retries_left = config_.conflict_retries;
    txns_.emplace(id, std::move(txn));
  }
  Txn* txn = FindTxn(id);
  GEOTP_CHECK(txn != nullptr, "round for unknown txn");
  if (txn->aborting) return;
  txn->pending_ops = req.ops;
  txn->round_values.assign(req.ops.size(), 0);

  // Group by owner tablet.
  std::map<NodeId, std::vector<std::pair<StagedOp, size_t>>> groups;
  for (size_t i = 0; i < req.ops.size(); ++i) {
    const ClientOp& cop = req.ops[i];
    StagedOp sop;
    sop.key = cop.key;
    sop.is_write = cop.is_write;
    // Deltas resolve at the owner against the committed value.
    sop.write_value = cop.value;
    groups[catalog_->Route(cop.key)].emplace_back(sop, i);
  }
  txn->outstanding = groups.size();
  if (groups.size() > 1 || groups.begin()->first != id_) {
    txn->single_shard = false;
  }

  for (auto& [node, ops_slots] : groups) {
    std::vector<StagedOp> ops;
    std::vector<size_t> slots;
    for (auto& [op, slot] : ops_slots) {
      ops.push_back(op);
      slots.push_back(slot);
    }
    // Mark participation at dispatch: the node may install intents even if
    // the transaction later aborts before its response is processed, and
    // AbortTxn must clean them up.
    txn->participants[node] = true;
    if (node == id_) {
      DispatchLocalBatch(id, std::move(ops), std::move(slots));
    } else {
      DispatchRemoteBatch(id, node, std::move(ops), std::move(slots));
    }
  }
}

void YbTabletNode::DispatchLocalBatch(TxnId id, std::vector<StagedOp> ops,
                                      std::vector<size_t> slots) {
  // Local fast path: consensus append + per-op work.
  const Micros cost =
      config_.consensus_cost +
      static_cast<Micros>(ops.size()) * config_.cost.write_cost;
  loop()->Schedule(cost, [this, id, ops = std::move(ops),
                          slots = std::move(slots)]() {
    Txn* txn = FindTxn(id);
    if (txn == nullptr || txn->aborting) return;
    std::vector<ReadResult> results;
    Status st = ApplyBatchLocally(id, ops, &results);
    if (!st.ok()) {
      stats_.intent_conflicts++;
      // Wait-on-conflict: retry internally before aborting to the client.
      if (txn->conflict_retries_left > 0) {
        txn->conflict_retries_left--;
        loop()->Schedule(config_.conflict_backoff, [this, id, ops, slots]() {
          Txn* txn = FindTxn(id);
          if (txn == nullptr || txn->aborting) return;
          DispatchLocalBatch(id, ops, slots);
        });
        return;
      }
      AbortTxn(*txn);
      return;
    }
    for (size_t i = 0; i < ops.size() && i < results.size(); ++i) {
      txn->round_values[slots[i]] = results[i].value;
    }
    CompleteRoundPart(*txn);
  });
}

void YbTabletNode::DispatchRemoteBatch(TxnId id, NodeId target,
                                       std::vector<StagedOp> ops,
                                       std::vector<size_t> slots) {
  const uint64_t req_id = next_req_id_++;
  PendingBatch pending;
  pending.txn = id;
  pending.target = target;
  pending.ops = ops;
  pending.slots = std::move(slots);
  batch_reqs_[req_id] = std::move(pending);
  auto batch = std::make_unique<YbBatchRequest>();
  batch->from = id_;
  batch->to = target;
  batch->txn = id;
  batch->req_id = req_id;
  batch->ops = std::move(ops);
  network_->Send(std::move(batch));
}

void YbTabletNode::CompleteRoundPart(Txn& txn) {
  if (--txn.outstanding > 0) return;
  auto round = std::make_unique<ClientRoundResponse>();
  round->from = id_;
  round->to = txn.client;
  round->client_tag = txn.client_tag;
  round->txn_id = txn.id;
  round->status = Status::OK();
  round->values = txn.round_values;
  network_->Send(std::move(round));
}

void YbTabletNode::OnBatchResponse(const YbBatchResponse& resp) {
  auto req_it = batch_reqs_.find(resp.req_id);
  if (req_it == batch_reqs_.end()) return;
  PendingBatch pending = std::move(req_it->second);
  batch_reqs_.erase(req_it);
  Txn* txn = FindTxn(pending.txn);
  if (txn == nullptr || txn->aborting) return;
  if (!resp.status.ok()) {
    stats_.intent_conflicts++;
    if (txn->conflict_retries_left > 0) {
      txn->conflict_retries_left--;
      const TxnId id = pending.txn;
      loop()->Schedule(config_.conflict_backoff,
                       [this, pending = std::move(pending)]() {
                         Txn* txn = FindTxn(pending.txn);
                         if (txn == nullptr || txn->aborting) return;
                         DispatchRemoteBatch(pending.txn, pending.target,
                                             pending.ops, pending.slots);
                       });
      (void)id;
      return;
    }
    AbortTxn(*txn);
    return;
  }
  // One result per op, in op order (writes return the written value).
  for (size_t i = 0; i < pending.slots.size() && i < resp.results.size();
       ++i) {
    txn->round_values[pending.slots[i]] = resp.results[i].value;
  }
  CompleteRoundPart(*txn);
}

void YbTabletNode::OnClientFinish(const ClientFinishRequest& req) {
  Txn* txn = FindTxn(req.txn_id);
  if (txn == nullptr) return;
  if (txn->aborting) return;
  if (!req.commit) {
    AbortTxn(*txn);
    return;
  }
  // Commit: flip the local transaction status record (consensus write),
  // respond to the client immediately, resolve intents asynchronously.
  const TxnId id = txn->id;
  loop()->Schedule(config_.consensus_cost + config_.cost.commit_fsync_cost,
                   [this, id]() {
                     Txn* txn = FindTxn(id);
                     if (txn == nullptr) return;
                     if (txn->single_shard) {
                       stats_.single_shard++;
                     } else {
                       stats_.distributed++;
                     }
                     for (auto& [node, has_intents] : txn->participants) {
                       if (!has_intents) continue;
                       if (node == id_) {
                         store_.CommitIntents(id);
                       } else {
                         auto resolve = std::make_unique<YbResolveRequest>();
                         resolve->from = id_;
                         resolve->to = node;
                         resolve->txn = id;
                         resolve->commit = true;
                         network_->Send(std::move(resolve));
                       }
                     }
                     FinishTxn(*txn, /*committed=*/true);
                   });
}

void YbTabletNode::AbortTxn(Txn& txn) {
  txn.aborting = true;
  for (auto& [node, has_intents] : txn.participants) {
    if (!has_intents) continue;
    if (node == id_) {
      store_.AbortIntents(txn.id);
    } else {
      auto resolve = std::make_unique<YbResolveRequest>();
      resolve->from = id_;
      resolve->to = node;
      resolve->txn = txn.id;
      resolve->commit = false;
      network_->Send(std::move(resolve));
    }
  }
  FinishTxn(txn, /*committed=*/false);
}

void YbTabletNode::FinishTxn(Txn& txn, bool committed) {
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
      committed ? Status::OK() : Status::Conflict("intent conflict");
  network_->Send(std::move(result));
  txns_.erase(txn.id);
}

// ---------------------------------------------------------------------------
// Tablet role
// ---------------------------------------------------------------------------

Status YbTabletNode::ApplyBatchLocally(TxnId txn,
                                       const std::vector<StagedOp>& ops,
                                       std::vector<ReadResult>* results) {
  for (const StagedOp& op : ops) {
    if (op.is_write) {
      auto current = store_.Get(op.key);
      const int64_t final_value = current->value + op.write_value;
      Status st = store_.PutIntent(op.key, txn, final_value);
      if (!st.ok()) return st;  // fail-fast on foreign intent
      results->push_back(ReadResult{final_value, current->version});
    } else {
      auto rec = store_.Get(op.key);
      results->push_back(ReadResult{rec->value, rec->version});
    }
  }
  return Status::OK();
}

void YbTabletNode::OnBatch(const YbBatchRequest& req) {
  const Micros cost =
      config_.consensus_cost +
      static_cast<Micros>(req.ops.size()) * config_.cost.write_cost;
  auto ops = req.ops;
  const NodeId reply_to = req.from;
  const TxnId txn = req.txn;
  const uint64_t req_id = req.req_id;
  loop()->Schedule(cost, [this, ops, reply_to, txn, req_id]() {
    auto resp = std::make_unique<YbBatchResponse>();
    resp->from = id_;
    resp->to = reply_to;
    resp->txn = txn;
    resp->req_id = req_id;
    std::vector<ReadResult> results;
    // Partial intents from a conflicting batch are left in place: the
    // coordinator either retries (idempotent re-install) or aborts the
    // transaction, whose resolve message cleans every intent up.
    Status st = ApplyBatchLocally(txn, ops, &results);
    resp->status = std::move(st);
    resp->results = std::move(results);
    network_->Send(std::move(resp));
  });
}

void YbTabletNode::OnResolve(const YbResolveRequest& req) {
  if (req.commit) {
    store_.CommitIntents(req.txn);
  } else {
    store_.AbortIntents(req.txn);
  }
}

}  // namespace baselines
}  // namespace geotp
