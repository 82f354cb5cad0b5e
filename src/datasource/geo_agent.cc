#include "datasource/geo_agent.h"

#include <utility>

#include "common/logging.h"
#include "datasource/data_source.h"

namespace geotp {
namespace datasource {
namespace {

/// Geo-agent <-> database LAN round trip (the decentralized prepare costs
/// one of these instead of a WAN round trip; paper §IV-A).
constexpr Micros kAgentLanRtt = 300;

}  // namespace

using protocol::PeerAbortRequest;
using protocol::Vote;
using protocol::VoteMessage;

void GeoAgent::AsyncPrepare(const Xid& xid, const std::vector<NodeId>& peers,
                            NodeId coordinator) {
  stats_.prepares_initiated++;
  DataSourceNode* node = node_;
  // conn.end(): one LAN hop between the agent and the database (vs. the
  // WAN round trip the DM-driven prepare would cost, §IV-A).
  const bool centralized = peers.empty();
  node->loop()->Schedule(kAgentLanRtt, [this, node, xid, peers, coordinator,
                                        centralized]() {
    if (node->crashed()) return;
    if (centralized) {
      if (node->engine().StateOf(xid) != storage::TxnState::kActive) return;
      // Algorithm 1 line 8: no peers -> IDLE; the branch stays active and
      // commits one-phase. No prepare record, no fsync.
      auto vote = std::make_unique<VoteMessage>();
      vote->from = node->id();
      vote->to = coordinator;
      vote->xid = xid;
      vote->vote = Vote::kIdle;
      node->network()->Send(std::move(vote));
      return;
    }
    // The prepare record joins the WAL device's open batch; the branch
    // transitions (and the vote goes out) at the shared fsync completion.
    obs::SpanHandle fsync_span = obs::kInvalidSpan;
    if (obs::GlobalTracer().enabled()) {
      const obs::TraceContext trace = node->BranchTrace(xid.txn_id);
      if (trace.valid()) {
        fsync_span = obs::GlobalTracer().BeginSpan(
            trace, "ds.prepare_fsync", node->id(), node->loop()->Now());
      }
    }
    node->committer().Append(
        node->config().engine.prepare_fsync_cost,
        "PREPARE xid=" + xid.ToString() + "\n",
        [this, node, xid, peers, coordinator, fsync_span]() {
          if (fsync_span != obs::kInvalidSpan) {
            obs::GlobalTracer().EndSpan(fsync_span, node->loop()->Now());
          }
          if (node->crashed()) return;
          if (node->engine().StateOf(xid) != storage::TxnState::kActive) {
            // Rolled back while the prepare was in flight (early abort
            // from a peer); the rollback path already reported to the DM.
            return;
          }
          Status st = node->engine().Prepare(xid, node->loop()->Now());
          if (st.ok()) {
            node->stats_.decentralized_prepares++;
            // With replication, the PREPARED vote waits until the prepare
            // entry (and its write set) is durable on a group quorum.
            node->AfterLocalPrepare(
                xid, coordinator, [node, xid, coordinator]() {
                  if (node->crashed()) return;
                  auto gated_vote = std::make_unique<VoteMessage>();
                  gated_vote->from = node->id();
                  gated_vote->to = coordinator;
                  gated_vote->xid = xid;
                  gated_vote->vote = Vote::kPrepared;
                  node->network()->Send(std::move(gated_vote));
                });
          } else {
            auto vote = std::make_unique<VoteMessage>();
            vote->from = node->id();
            vote->to = coordinator;
            vote->xid = xid;
            vote->vote = Vote::kFailure;
            node->network()->Send(std::move(vote));
            AsyncRollback(xid, peers, coordinator, /*notify_dm=*/false);
          }
        });
  });
}

void GeoAgent::AsyncRollback(const Xid& xid, const std::vector<NodeId>& peers,
                             NodeId coordinator, bool notify_dm) {
  DataSourceNode* node = node_;
  Tombstone(xid.txn_id);
  (void)node->engine().Rollback(xid, node->loop()->Now());
  node->NoteLocalRollback(xid.txn_id);
  if (node->config().early_abort) {
    for (NodeId peer : peers) {
      if (peer == node->id()) continue;
      auto req = std::make_unique<PeerAbortRequest>();
      req->from = node->id();
      req->to = peer;
      req->txn_id = xid.txn_id;
      req->origin = node->id();
      node->network()->Send(std::move(req));
      stats_.peer_aborts_sent++;
      node->stats_.early_aborts_sent++;
    }
  }
  if (notify_dm && coordinator != kInvalidNode) {
    auto vote = std::make_unique<VoteMessage>();
    vote->from = node->id();
    vote->to = coordinator;
    vote->xid = xid;
    vote->vote = Vote::kRollbacked;
    node->network()->Send(std::move(vote));
  }
}

void GeoAgent::OnPeerAbort(const PeerAbortRequest& req) {
  stats_.peer_aborts_received++;
  DataSourceNode* node = node_;
  node->stats_.early_aborts_received++;
  Tombstone(req.txn_id);

  auto it = node->branches_.find(req.txn_id);
  if (it == node->branches_.end()) {
    // The branch has not arrived yet (postponed dispatch) or was already
    // finished; the tombstone covers the former case.
    stats_.tombstone_hits++;
    return;
  }
  const NodeId coordinator = it->second.coordinator;
  const Xid local_xid{req.txn_id, node->logical_id()};
  node->branches_.erase(it);
  // Rolling back cancels any pending lock request; the in-flight exec
  // state (if any) observes kAborted and reports failure to the DM, which
  // counts as this participant's rollback confirmation. If no exec was in
  // flight (branch idle between rounds, or already prepared), confirm via
  // a ROLLBACKED vote.
  const bool had_pending = node->engine().HasPendingOp(local_xid);
  (void)node->engine().Rollback(local_xid, node->loop()->Now());
  node->NoteLocalRollback(local_xid.txn_id);
  node->stats_.rollbacks++;
  if (!had_pending && coordinator != kInvalidNode) {
    auto vote = std::make_unique<VoteMessage>();
    vote->from = node->id();
    vote->to = coordinator;
    vote->xid = local_xid;
    vote->vote = Vote::kRollbacked;
    node->network()->Send(std::move(vote));
  }
}

}  // namespace datasource
}  // namespace geotp
