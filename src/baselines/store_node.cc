#include "baselines/store_node.h"

#include <utility>

#include "common/logging.h"

namespace geotp {
namespace baselines {

StoreNode::StoreNode(runtime::ActorEnv env, storage::EngineConfig cost_model)
    : id_(env.node),
      network_(env.transport),
      timer_(env.timer),
      cost_(cost_model) {}

void StoreNode::Attach() {
  network_->RegisterNode(
      id_, [this](std::unique_ptr<runtime::MessageBase> msg) {
        HandleMessage(std::move(msg));
      });
}

void StoreNode::HandleMessage(std::unique_ptr<runtime::MessageBase> msg) {
  switch (msg->type()) {
    case runtime::MessageType::kStoreReadRequest:
      OnRead(static_cast<StoreReadRequest&>(*msg));
      return;
    case runtime::MessageType::kStorePrepareRequest:
      OnPrepare(static_cast<StorePrepareRequest&>(*msg));
      return;
    case runtime::MessageType::kStoreDecisionRequest:
      OnDecision(static_cast<StoreDecisionRequest&>(*msg));
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
      GEOTP_CHECK(false, "store node " << id_ << ": unknown message");
  }
}

void StoreNode::OnRead(const StoreReadRequest& req) {
  const Micros cost =
      cost_.read_cost * static_cast<Micros>(req.keys.size());
  auto keys = req.keys;
  const NodeId reply_to = req.from;
  const TxnId txn = req.txn;
  const uint64_t req_id = req.req_id;
  loop()->Schedule(cost, [this, keys, reply_to, txn, req_id]() {
    auto resp = std::make_unique<StoreReadResponse>();
    resp->from = id_;
    resp->to = reply_to;
    resp->txn = txn;
    resp->req_id = req_id;
    resp->status = Status::OK();
    for (const RecordKey& key : keys) {
      auto rec = store_.Get(key);
      resp->results.push_back(ReadResult{rec->value, rec->version});
      stats_.reads++;
    }
    network_->Send(std::move(resp));
  });
}

void StoreNode::OnPrepare(const StorePrepareRequest& req) {
  const Micros cost =
      cost_.write_cost * static_cast<Micros>(req.ops.size()) +
      cost_.prepare_fsync_cost;
  auto ops = req.ops;
  const NodeId reply_to = req.from;
  const TxnId txn = req.txn;
  loop()->Schedule(cost, [this, ops, reply_to, txn]() {
    Status status = Status::OK();
    for (const StagedOp& op : ops) {
      // Consensus commit: every accessed record must still carry the
      // version the transaction read, and must not hold a foreign intent.
      Status st = store_.ValidateVersion(op.key, txn, op.expected_version);
      if (st.ok() && op.is_write) {
        st = store_.PutIntent(op.key, txn, op.write_value);
      }
      if (!st.ok()) {
        status = st;
        break;
      }
    }
    if (status.ok()) {
      stats_.prepares_ok++;
    } else {
      stats_.prepare_conflicts++;
      store_.AbortIntents(txn);
    }
    auto resp = std::make_unique<StorePrepareResponse>();
    resp->from = id_;
    resp->to = reply_to;
    resp->txn = txn;
    resp->status = std::move(status);
    network_->Send(std::move(resp));
  });
}

void StoreNode::OnDecision(const StoreDecisionRequest& req) {
  const Micros cost = req.commit ? cost_.commit_fsync_cost : 0;
  const NodeId reply_to = req.from;
  const TxnId txn = req.txn;
  const bool commit = req.commit;
  loop()->Schedule(cost, [this, reply_to, txn, commit]() {
    if (commit) {
      store_.CommitIntents(txn);
      stats_.commits++;
    } else {
      store_.AbortIntents(txn);
      stats_.aborts++;
    }
    auto ack = std::make_unique<StoreDecisionAck>();
    ack->from = id_;
    ack->to = reply_to;
    ack->txn = txn;
    ack->commit = commit;
    network_->Send(std::move(ack));
  });
}

}  // namespace baselines
}  // namespace geotp
