#include "workload/deployment.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace geotp {
namespace workload {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kSSP:
      return "SSP";
    case SystemKind::kSSPLocal:
      return "SSP(local)";
    case SystemKind::kQuro:
      return "QURO";
    case SystemKind::kChiller:
      return "Chiller";
    case SystemKind::kGeoTPO1:
      return "GeoTP(O1)";
    case SystemKind::kGeoTPO1O2:
      return "GeoTP(O1~O2)";
    case SystemKind::kGeoTP:
      return "GeoTP";
    case SystemKind::kScalarDb:
      return "ScalarDB";
    case SystemKind::kScalarDbPlus:
      return "ScalarDB+";
    case SystemKind::kYugabyte:
      return "YugabyteDB";
  }
  return "?";
}

middleware::MiddlewareConfig ConfigForSystem(SystemKind kind) {
  using middleware::MiddlewareConfig;
  switch (kind) {
    case SystemKind::kSSP:
      return MiddlewareConfig::SSP();
    case SystemKind::kSSPLocal:
      return MiddlewareConfig::SSPLocal();
    case SystemKind::kQuro:
      return MiddlewareConfig::Quro();
    case SystemKind::kChiller:
      return MiddlewareConfig::Chiller();
    case SystemKind::kGeoTPO1:
      return MiddlewareConfig::GeoTPO1();
    case SystemKind::kGeoTPO1O2:
      return MiddlewareConfig::GeoTPO1O2();
    case SystemKind::kGeoTP:
      return MiddlewareConfig::GeoTP();
    default:
      GEOTP_CHECK(false, "not a middleware system: "
                             << SystemName(kind));
  }
  return MiddlewareConfig::SSP();
}

void Cluster::RegisterMetrics(obs::MetricsRegistry* registry) {
  for (const auto& dm : dms_) dm->AttachMetrics(registry);
  for (const auto& source : sources_) source->RegisterMetrics(registry);
}

Cluster::SourceTotals Cluster::Totals() const {
  SourceTotals totals;
  for (const auto& source : sources_) {
    totals.wal_entries += source->engine().wal().entries().size();
    totals.wal_fsyncs += source->engine().wal().fsyncs();
    metrics::Accumulate(&totals.sources, source->stats());
    metrics::Accumulate(&totals.group_commit, source->committer().stats());
    metrics::Accumulate(&totals.migration, source->migrator().stats());
  }
  return totals;
}

std::unique_ptr<Cluster> Build(const Deployment& deployment,
                               runtime::Runtime* runtime,
                               const std::vector<NodeId>& hosted) {
  auto is_hosted = [&hosted](NodeId node) {
    return hosted.empty() ||
           std::find(hosted.begin(), hosted.end(), node) != hosted.end();
  };
  std::unique_ptr<Cluster> cluster(new Cluster());
  cluster->catalog_ = deployment.catalog;
  middleware::Catalog& catalog = cluster->catalog_;
  if (!deployment.shard_map.empty()) {
    catalog.InstallShardMap(deployment.shard_map);
  }
  for (const auto& group : deployment.groups) {
    if (group.size() > 1) catalog.SetReplicaGroup(group[0], group);
  }

  switch (deployment.system) {
    case SystemKind::kScalarDb:
    case SystemKind::kScalarDbPlus: {
      for (const auto& group : deployment.groups) {
        if (!is_hosted(group[0])) continue;
        cluster->stores_.push_back(std::make_unique<baselines::StoreNode>(
            runtime->EnvFor(group[0])));
        cluster->stores_.back()->Attach();
      }
      const NodeId coordinator = deployment.middlewares.at(0);
      if (is_hosted(coordinator)) {
        baselines::ScalarDbConfig db_config;
        db_config.plus = deployment.system == SystemKind::kScalarDbPlus;
        cluster->scalardb_ = std::make_unique<baselines::ScalarDbNode>(
            runtime->EnvFor(coordinator), catalog, db_config);
        cluster->scalardb_->Attach();
      }
      return cluster;
    }
    case SystemKind::kYugabyte:
      for (const auto& group : deployment.groups) {
        if (!is_hosted(group[0])) continue;
        cluster->tablets_.push_back(std::make_unique<baselines::YbTabletNode>(
            runtime->EnvFor(group[0]), &catalog, baselines::YbConfig()));
        cluster->tablets_.back()->Attach();
      }
      return cluster;
    default:
      break;
  }

  for (const auto& group : deployment.groups) {
    std::vector<datasource::DataSourceNode*>& members =
        cluster->groups_.emplace_back();
    for (NodeId node : group) {
      if (!is_hosted(node)) continue;
      datasource::DataSourceConfig config =
          datasource::DataSourceConfig::MySql();
      config.early_abort = deployment.dm.early_abort;
      if (deployment.ds_tweak) deployment.ds_tweak(node, &config);
      auto source = std::make_unique<datasource::DataSourceNode>(
          runtime->EnvFor(node), config);
      if (group.size() > 1) {
        replication::GroupConfig repl;
        repl.logical = group[0];
        repl.replicas = group;
        repl.middlewares = deployment.middlewares;
        repl.config = deployment.repl;
        source->EnableReplication(repl);
      }
      source->Attach();
      members.push_back(source.get());
      cluster->sources_.push_back(std::move(source));
    }
  }

  std::unordered_map<NodeId, size_t> group_of;
  for (size_t i = 0; i < deployment.groups.size(); ++i) {
    group_of[deployment.groups[i][0]] = i;
  }
  for (const RecordRange& range : deployment.records) {
    for (uint64_t k = 0; k < range.count; ++k) {
      const RecordKey key{range.first.table, range.first.key + k};
      for (datasource::DataSourceNode* node :
           cluster->groups_[group_of.at(catalog.Route(key))]) {
        node->engine().store().Put(key, range.value);
      }
    }
  }

  for (size_t j = 0; j < deployment.middlewares.size(); ++j) {
    const NodeId id = deployment.middlewares[j];
    if (!is_hosted(id)) continue;
    middleware::MiddlewareConfig config = deployment.dm;
    if (j > 0) {
      config.balancer.enabled = false;  // one balancer per deployment
    } else if (config.balancer.enabled) {
      config.balancer.peer_middlewares.assign(
          deployment.middlewares.begin() + 1, deployment.middlewares.end());
    }
    cluster->dms_.push_back(std::make_unique<middleware::MiddlewareNode>(
        runtime->EnvFor(id), static_cast<uint32_t>(j), catalog, config));
    cluster->dms_.back()->Attach();
  }
  return cluster;
}

NodeId FirstKeyOwner(const middleware::Catalog& catalog, const TxnSpec& spec) {
  for (const auto& round : spec.rounds) {
    if (!round.empty()) return catalog.Route(round.front().key);
  }
  GEOTP_CHECK(false, "empty transaction");
  return kInvalidNode;
}

}  // namespace workload
}  // namespace geotp
