// StoreNode: a plain versioned record store exposed over the network.
// This is what a data source looks like to ScalarDB: no transactions, just
// reads-with-version, conditional intent installation and intent
// promotion. Costs mirror the XA engine's cost model.
#ifndef GEOTP_BASELINES_STORE_NODE_H_
#define GEOTP_BASELINES_STORE_NODE_H_

#include <memory>

#include "baselines/store_messages.h"
#include "protocol/messages.h"
#include "runtime/runtime.h"
#include "storage/engine.h"
#include "storage/versioned_store.h"

namespace geotp {
namespace baselines {

struct StoreNodeStats {
  uint64_t reads = 0;
  uint64_t prepares_ok = 0;
  uint64_t prepare_conflicts = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
};

class StoreNode {
 public:
  StoreNode(runtime::ActorEnv env,
            storage::EngineConfig cost_model = storage::EngineConfig());

  void Attach();

  NodeId id() const { return id_; }
  storage::VersionedStore& store() { return store_; }
  const StoreNodeStats& stats() const { return stats_; }
  runtime::ITimer* loop() { return timer_; }

 private:
  void HandleMessage(std::unique_ptr<runtime::MessageBase> msg);
  void OnRead(const StoreReadRequest& req);
  void OnPrepare(const StorePrepareRequest& req);
  void OnDecision(const StoreDecisionRequest& req);

  NodeId id_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  storage::EngineConfig cost_;
  storage::VersionedStore store_;
  StoreNodeStats stats_;
};

}  // namespace baselines
}  // namespace geotp

#endif  // GEOTP_BASELINES_STORE_NODE_H_
