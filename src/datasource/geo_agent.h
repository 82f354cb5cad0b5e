// GeoAgent: the data-source-side component GeoTP deploys next to each
// database (paper §III-B, §IV-A).
//
// Responsibilities:
//  * Decentralized prepare: after the branch's last statement completes,
//    issue XA END / XA PREPARE (via a LAN round trip to the engine) and
//    report the vote to the DM — eliminating the WAN prepare round trip.
//  * Early abort: when a local branch fails before commitment, directly
//    notify the peer data sources' agents (PeerAbortRequest), bypassing
//    the DM, and confirm the local rollback to the DM with a ROLLBACKED
//    vote.
//  * Tombstones: a PeerAbortRequest can outrun the (possibly postponed)
//    BranchExecuteRequest; the agent remembers aborted transactions and
//    refuses late-arriving branches.
#ifndef GEOTP_DATASOURCE_GEO_AGENT_H_
#define GEOTP_DATASOURCE_GEO_AGENT_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "protocol/messages.h"

namespace geotp {
namespace datasource {

class DataSourceNode;

struct GeoAgentStats {
  uint64_t prepares_initiated = 0;
  uint64_t peer_aborts_sent = 0;
  uint64_t peer_aborts_received = 0;
  uint64_t tombstone_hits = 0;
  GEOTP_STAT_FIELDS(prepares_initiated, peer_aborts_sent,
                    peer_aborts_received, tombstone_hits)
};

class GeoAgent {
 public:
  explicit GeoAgent(DataSourceNode* node) : node_(node) {}

  /// Initiates the implicit decentralized prepare for `xid` after its last
  /// statement executed (Algorithm 1, AsyncPrepare). Sends the vote
  /// (kPrepared / kIdle / kFailure) to `coordinator` when done.
  void AsyncPrepare(const Xid& xid, const std::vector<NodeId>& peers,
                    NodeId coordinator);

  /// Early abort: rolls back the local branch and proactively notifies
  /// peers (Algorithm 1, AsyncRollback). `notify_dm` additionally sends a
  /// ROLLBACKED vote so the DM's WaitForRollback() completes.
  void AsyncRollback(const Xid& xid, const std::vector<NodeId>& peers,
                     NodeId coordinator, bool notify_dm);

  /// Handles a PeerAbortRequest from another data source's agent.
  void OnPeerAbort(const protocol::PeerAbortRequest& req);

  /// True if the transaction was aborted via early abort (arriving
  /// branches must be refused).
  bool IsTombstoned(TxnId txn) const { return tombstones_.count(txn) > 0; }
  void Tombstone(TxnId txn) { tombstones_.insert(txn); }
  /// Decision processing clears the tombstone (the txn is finished).
  void ClearTombstone(TxnId txn) { tombstones_.erase(txn); }

  const GeoAgentStats& stats() const { return stats_; }

 private:
  DataSourceNode* node_;
  GeoAgentStats stats_;
  std::unordered_set<TxnId> tombstones_;
};

}  // namespace datasource
}  // namespace geotp

#endif  // GEOTP_DATASOURCE_GEO_AGENT_H_
