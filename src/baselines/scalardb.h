// ScalarDbNode: a ScalarDB-style universal transaction manager.
//
// Unlike the XA middleware, ScalarDB does not use the transactional
// capabilities of the underlying data sources (paper §VII-B): it reads
// records with versions during execution, buffers writes, and runs a
// consensus-commit protocol at commit time — validate versions + install
// intents (prepare), write the coordinator commit-state record, promote
// intents (commit). All concurrency control happens at the DM, which is
// what limits its scalability in the paper's Fig. 5.
//
// ScalarDB+ (paper §VII-A1 ④) layers GeoTP's latency-aware scheduling on
// top, and only that: read and prepare dispatches are postponed per Eq. 3
// so that low-latency stores hold their intents (and expose their read
// versions) for the minimum span. It keeps no hotspot footprint and runs
// no Eq. 9 late transaction admission, which does not fit OCC.
#ifndef GEOTP_BASELINES_SCALARDB_H_
#define GEOTP_BASELINES_SCALARDB_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/store_messages.h"
#include "core/geo_scheduler.h"
#include "core/latency_monitor.h"
#include "middleware/catalog.h"
#include "protocol/messages.h"
#include "runtime/runtime.h"

namespace geotp {
namespace baselines {

struct ScalarDbStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t prepare_conflicts = 0;
};

class ScalarDbNode {
 public:
  /// `plus` selects ScalarDB+ (Eq. 3 postponing of reads and prepares).
  ScalarDbNode(runtime::ActorEnv env, middleware::Catalog catalog, bool plus);
  ~ScalarDbNode();

  void Attach();

  NodeId id() const { return id_; }
  const ScalarDbStats& stats() const { return stats_; }
  runtime::ITimer* loop() { return timer_; }

 private:
  struct Staged {
    std::vector<StagedOp> ops;          ///< per participant, version-filled
    std::vector<size_t> op_slots;       ///< positions in the client round
    bool read_outstanding = false;
    bool prepare_outstanding = false;
    bool prepared_ok = false;
    bool decision_outstanding = false;
  };

  struct Txn {
    TxnId id = kInvalidTxn;
    uint64_t client_tag = 0;
    NodeId client = kInvalidNode;
    std::map<NodeId, Staged> participants;
    std::vector<int64_t> round_values;
    std::vector<protocol::ClientOp> pending_ops;
    bool aborting = false;
    /// The client's COMMIT rode on the last round (see Commit).
    bool commit_on_round = false;
    size_t outstanding = 0;
  };

  void HandleMessage(std::unique_ptr<runtime::MessageBase> msg);
  void OnClientRound(const protocol::ClientRoundRequest& req);
  void PlanRound(TxnId id);
  void OnReadResponse(const StoreReadResponse& resp);
  void OnClientFinish(const protocol::ClientFinishRequest& req);
  /// Consensus commit: the prepare round, then the commit-state record and
  /// the decision. Runs on the client's COMMIT, or as a commit-carrying
  /// round completes.
  void Commit(Txn& txn);
  void OnPrepareResponse(const StorePrepareResponse& resp);
  void OnDecisionAck(const StoreDecisionAck& ack);
  void DispatchDecision(Txn& txn, bool commit);
  void FinishTxn(Txn& txn, bool committed);

  Txn* FindTxn(TxnId id);

  NodeId id_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  middleware::Catalog catalog_;
  bool plus_;
  std::unique_ptr<core::LatencyMonitor> monitor_;
  std::unique_ptr<core::GeoScheduler> scheduler_;
  Rng rng_;
  ScalarDbStats stats_;
  uint64_t next_seq_ = 1;
  uint64_t next_req_id_ = 1;
  std::unordered_map<TxnId, Txn> txns_;
  std::unordered_map<uint64_t, std::pair<TxnId, NodeId>> read_reqs_;
};

}  // namespace baselines
}  // namespace geotp

#endif  // GEOTP_BASELINES_SCALARDB_H_
