// Deployment: one plain description of a deployment, and Build(), the one
// way to turn it into running server actors on any runtime backend.
//
// A Deployment names the system under test, the middleware ids, the data
// sources' replica groups, the catalog (plus an optional chunked shard
// map), the per-node data-source config and the initial records. Build()
// constructs every server actor of it — data sources with replication,
// middlewares, or a baseline's coordinator and stores — on a
// runtime::Runtime (the simulator or the loopback runtime), optionally
// only the nodes one process hosts. Clients stay with the caller: the
// generators, routers and commit observers differ per site.
#ifndef GEOTP_WORKLOAD_DEPLOYMENT_H_
#define GEOTP_WORKLOAD_DEPLOYMENT_H_

#include <functional>
#include <memory>
#include <vector>

#include "baselines/scalardb.h"
#include "baselines/store_node.h"
#include "baselines/yugabyte.h"
#include "datasource/data_source.h"
#include "middleware/catalog.h"
#include "middleware/middleware.h"
#include "obs/metrics_registry.h"
#include "replication/replication_config.h"
#include "runtime/runtime.h"
#include "sharding/shard_map.h"
#include "workload/generator.h"

namespace geotp {
namespace workload {

/// Every system the paper evaluates; the middleware systems come first.
enum class SystemKind : int {
  kSSP,         ///< ShardingSphere, XA 2PC
  kSSPLocal,    ///< ShardingSphere "local" mode (no atomicity)
  kQuro,        ///< QURO reordering on the SSP platform
  kChiller,     ///< Chiller scheduling on the GeoTP platform
  kGeoTPO1,     ///< decentralized prepare only (ablation)
  kGeoTPO1O2,   ///< + latency-aware scheduling (ablation)
  kGeoTP,       ///< full GeoTP (O1~O3)
  kScalarDb,    ///< ScalarDB-style middleware (DM-side concurrency control)
  kScalarDbPlus,///< ScalarDB + GeoTP's scheduling & heuristics
  kYugabyte,    ///< YugabyteDB-style distributed database
};

const char* SystemName(SystemKind kind);

/// Middleware preset for a given system (middleware-based systems only).
middleware::MiddlewareConfig ConfigForSystem(SystemKind kind);

/// `count` consecutive keys of one table, starting at `first`, all holding
/// `value`.
struct RecordRange {
  RecordKey first;
  uint64_t count = 1;
  int64_t value = 0;
};

struct Deployment {
  SystemKind system = SystemKind::kGeoTP;
  /// Middleware node ids; a middleware's ordinal is its index. ScalarDB(+)
  /// runs its coordinator on middlewares[0]; Yugabyte has no middleware.
  std::vector<NodeId> middlewares;
  /// Data-source replica groups. groups[i][0] is the logical id (the id
  /// the catalog routes to) and the seed leader; a group of one member is
  /// an unreplicated source.
  std::vector<std::vector<NodeId>> groups;
  middleware::Catalog catalog;
  /// Chunked shard map overlaid on the catalog (empty = static routing).
  sharding::ShardMap shard_map;
  /// Config of every middleware (middleware systems only). The balancer
  /// runs on the first middleware only.
  middleware::MiddlewareConfig dm = middleware::MiddlewareConfig::GeoTP();
  /// Per-node tweak of each data source's config, applied after the MySQL
  /// preset and the middleware's early-abort mode.
  std::function<void(NodeId, datasource::DataSourceConfig*)> ds_tweak;
  replication::ReplicationConfig repl;
  /// Initial database, loaded on every replica of the owning group.
  std::vector<RecordRange> records;
};

/// The server actors of one deployment (the hosted part of it). Owns them;
/// the runtime they were built on must outlive the cluster.
class Cluster {
 public:
  /// Durability and subsystem stats summed over every hosted data source
  /// with metrics::Accumulate (counters summed, high-water fields maxed).
  struct SourceTotals {
    /// WAL entries vs physical fsyncs: they diverge under group commit.
    uint64_t wal_entries = 0;
    uint64_t wal_fsyncs = 0;
    datasource::DataSourceStats sources;
    storage::GroupCommitStats group_commit;
    /// The rebalance bench reads the peaks to assert the credit window
    /// bounded the source's stream memory.
    sharding::ShardMigratorStats migration;
  };

  /// Middleware `ordinal` (middleware systems only).
  middleware::MiddlewareNode& dm(size_t ordinal = 0) {
    return *dms_[ordinal];
  }
  size_t num_dms() const { return dms_.size(); }
  /// Hosted data sources in construction order: groups in order, replicas
  /// in group order.
  const std::vector<std::unique_ptr<datasource::DataSourceNode>>& sources()
      const {
    return sources_;
  }
  /// Hosted members of replica group `i`, in group order.
  const std::vector<datasource::DataSourceNode*>& group(size_t i) const {
    return groups_[i];
  }
  /// The deployment's catalog with replica groups and shard map installed.
  const middleware::Catalog& catalog() const { return catalog_; }

  /// Registers every hosted middleware's and data source's stats on
  /// `registry` (the registry borrows the nodes: clear it before the
  /// cluster goes away).
  void RegisterMetrics(obs::MetricsRegistry* registry);

  SourceTotals Totals() const;

 private:
  friend std::unique_ptr<Cluster> Build(const Deployment&, runtime::Runtime*,
                                        const std::vector<NodeId>&);
  Cluster() = default;

  middleware::Catalog catalog_;
  std::vector<std::unique_ptr<datasource::DataSourceNode>> sources_;
  std::vector<std::vector<datasource::DataSourceNode*>> groups_;
  std::vector<std::unique_ptr<middleware::MiddlewareNode>> dms_;
  std::vector<std::unique_ptr<baselines::StoreNode>> stores_;
  std::unique_ptr<baselines::ScalarDbNode> scalardb_;
  std::vector<std::unique_ptr<baselines::YbTabletNode>> tablets_;
};

/// Constructs and attaches the server actors of `deployment` on `runtime`:
/// the data sources group by group (each replica constructed, replication
/// enabled, attached), the initial records, then the middlewares in
/// ordinal order — or the baseline's stores and coordinator, or its
/// tablets. Only nodes in `hosted` are built; empty hosts every node.
std::unique_ptr<Cluster> Build(const Deployment& deployment,
                               runtime::Runtime* runtime,
                               const std::vector<NodeId>& hosted = {});

/// Yugabyte's client routing (ClientDriver::SetRouter): the tablet owning
/// a transaction's first key coordinates it.
NodeId FirstKeyOwner(const middleware::Catalog& catalog, const TxnSpec& spec);

}  // namespace workload
}  // namespace geotp

#endif  // GEOTP_WORKLOAD_DEPLOYMENT_H_
