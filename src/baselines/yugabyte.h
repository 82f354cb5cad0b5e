// YbTabletNode: a YugabyteDB-style data node.
//
// Each node stores one partition (versioned records with write intents)
// and can coordinate transactions that start on it — there is no separate
// middleware hop. The behaviours the paper leans on (Fig. 13 discussion):
//
//  * single-shard transactions commit in one client round trip and apply
//    their updates asynchronously after commitment;
//  * distributed transactions write provisional records (intents) during
//    execution, commit by flipping a local status record, and resolve
//    intents asynchronously;
//  * write-write conflicts on intents fail fast — under high contention
//    the retry storm collapses throughput, which is where GeoTP wins.
#ifndef GEOTP_BASELINES_YUGABYTE_H_
#define GEOTP_BASELINES_YUGABYTE_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/store_messages.h"
#include "middleware/catalog.h"
#include "protocol/messages.h"
#include "sim/network.h"
#include "storage/engine.h"
#include "storage/versioned_store.h"

namespace geotp {
namespace baselines {

struct YbConfig {
  storage::EngineConfig cost;  ///< per-op + fsync cost model
  /// Raft-ish local replication/flush charged on every batch and commit.
  Micros consensus_cost = 400;
  /// Wait-on-conflict: a batch hitting a foreign intent is retried
  /// internally after this backoff, up to `conflict_retries` times,
  /// before the transaction aborts to the client.
  Micros conflict_backoff = MsToMicros(10);
  int conflict_retries = 8;
};

struct YbStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t intent_conflicts = 0;
  uint64_t single_shard = 0;
  uint64_t distributed = 0;
};

class YbTabletNode {
 public:
  YbTabletNode(runtime::ActorEnv env, const middleware::Catalog* catalog,
               YbConfig config);

  void Attach();

  NodeId id() const { return id_; }
  storage::VersionedStore& store() { return store_; }
  const YbStats& stats() const { return stats_; }
  runtime::ITimer* loop() { return timer_; }

 private:
  struct Txn {
    TxnId id = kInvalidTxn;
    uint64_t client_tag = 0;
    NodeId client = kInvalidNode;
    std::map<NodeId, bool> participants;  ///< node -> has intents
    std::vector<int64_t> round_values;
    std::vector<protocol::ClientOp> pending_ops;
    size_t outstanding = 0;
    bool aborting = false;
    bool single_shard = true;
    int conflict_retries_left = 0;
  };

  void HandleMessage(std::unique_ptr<runtime::MessageBase> msg);
  // Coordinator role.
  void OnClientRound(const protocol::ClientRoundRequest& req);
  void DispatchLocalBatch(TxnId id, std::vector<StagedOp> ops,
                          std::vector<size_t> slots);
  void DispatchRemoteBatch(TxnId id, NodeId target, std::vector<StagedOp> ops,
                           std::vector<size_t> slots);
  void OnBatchResponse(const YbBatchResponse& resp);
  void CompleteRoundPart(Txn& txn);
  void OnClientFinish(const protocol::ClientFinishRequest& req);
  void AbortTxn(Txn& txn);
  void FinishTxn(Txn& txn, bool committed);
  // Tablet role.
  void OnBatch(const YbBatchRequest& req);
  void OnResolve(const YbResolveRequest& req);
  /// Executes a batch against the local store; fail-fast on intent
  /// conflict. Fills `results` for reads.
  Status ApplyBatchLocally(TxnId txn, const std::vector<StagedOp>& ops,
                           std::vector<ReadResult>* results);

  Txn* FindTxn(TxnId id);

  NodeId id_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  const middleware::Catalog* catalog_;
  YbConfig config_;
  storage::VersionedStore store_;
  YbStats stats_;
  uint64_t next_seq_ = 1;
  uint64_t next_req_id_ = 1;
  struct PendingBatch {
    TxnId txn = kInvalidTxn;
    NodeId target = kInvalidNode;
    std::vector<StagedOp> ops;      ///< kept for wait-on-conflict retries
    std::vector<size_t> slots;
  };

  std::unordered_map<TxnId, Txn> txns_;
  std::unordered_map<uint64_t, PendingBatch> batch_reqs_;
};

}  // namespace baselines
}  // namespace geotp

#endif  // GEOTP_BASELINES_YUGABYTE_H_
