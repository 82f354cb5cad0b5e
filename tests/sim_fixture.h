// Shared test fixture: a small simulated deployment (client + middleware +
// N data sources) with a scriptable client, used by the integration tests.
#ifndef GEOTP_TESTS_SIM_FIXTURE_H_
#define GEOTP_TESTS_SIM_FIXTURE_H_

#include <map>
#include <memory>
#include <vector>

#include "protocol/messages.h"
#include "runtime/sim_runtime.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "workload/deployment.h"

namespace geotp {
namespace testing_support {

/// Node ids: 0 = client, 1 = middleware, 2..2+n-1 = data sources (replica
/// group leaders when replication_factor > 1), then (rf-1) followers per
/// source appended in group order, then additional middlewares (when
/// num_middlewares > 1) appended last.
class MiniCluster {
 public:
  struct Options {
    int num_data_sources = 2;
    std::vector<double> rtts_ms = {10.0, 100.0};  ///< DM <-> DS RTTs
    middleware::MiddlewareConfig dm = middleware::MiddlewareConfig::GeoTP();
    uint64_t keys_per_node = 1000;
    uint32_t table = 1;
    /// Replicas per data source (1 = replication off).
    int replication_factor = 1;
    /// Leader <-> follower RTT (same-region replicas).
    double follower_rtt_ms = 2.0;
    replication::ReplicationConfig repl;
    /// WAL group-commit policy applied to every data source.
    storage::GroupCommitConfig group_commit;
    /// Fig. 15 deployment: additional middlewares (same config, same
    /// catalog, registered with every replica group).
    int num_middlewares = 1;
    /// Elastic sharding: overlay the table with chunked shards. The
    /// balancer runs on the FIRST middleware iff options.dm.balancer is
    /// enabled (peer middlewares are wired automatically).
    bool sharding = false;
    uint64_t chunks_per_source = 4;
    /// Hook to tweak every data source's config after the preset is
    /// applied (migration stream knobs, apply costs, ...).
    std::function<void(datasource::DataSourceConfig*)> ds_tweak;
    /// Per-node variant of ds_tweak (applied after it), for asymmetric
    /// deployments — e.g. a WAN compression knob set on some nodes only.
    std::function<void(NodeId, datasource::DataSourceConfig*)> ds_tweak_node;
  };

  MiniCluster() : MiniCluster(Options()) {}

  explicit MiniCluster(Options options) : options_(options) {
    const int n = options.num_data_sources;
    const int rf = options.replication_factor;
    const int followers_per_group = rf - 1;
    const int extra_dms = options.num_middlewares - 1;
    const int total_nodes = 2 + n * rf + extra_dms;
    auto rtt_of = [&options](int i) {
      return i < static_cast<int>(options.rtts_ms.size())
                 ? options.rtts_ms[static_cast<size_t>(i)]
                 : 50.0;
    };
    auto follower_id = [n, followers_per_group](int group, int k) {
      return 2 + n + group * followers_per_group + k;
    };

    sim::LatencyMatrix matrix(total_nodes);
    matrix.SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(0.5));
    for (int i = 0; i < n; ++i) {
      const double rtt = rtt_of(i);
      matrix.SetSymmetric(1, 2 + i, sim::LinkSpec::FromRttMs(rtt));
      matrix.SetSymmetric(0, 2 + i, sim::LinkSpec::FromRttMs(rtt));
      for (int j = 0; j < i; ++j) {
        matrix.SetSymmetric(2 + j, 2 + i, sim::LinkSpec::FromRttMs(50.0));
      }
      // Followers live in the leader's region: cheap links to their leader
      // and to each other, leader-like links to everything else.
      for (int k = 0; k < followers_per_group; ++k) {
        const NodeId f = follower_id(i, k);
        matrix.SetSymmetric(2 + i, f,
                            sim::LinkSpec::FromRttMs(options.follower_rtt_ms));
        matrix.SetSymmetric(1, f, sim::LinkSpec::FromRttMs(
                                      rtt + options.follower_rtt_ms));
        matrix.SetSymmetric(0, f, sim::LinkSpec::FromRttMs(
                                      rtt + options.follower_rtt_ms));
        for (int other = 0; other < total_nodes; ++other) {
          if (other == f || other <= 1 || other == 2 + i) continue;
          const bool same_group = other >= follower_id(i, 0) &&
                                  other < follower_id(i + 1, 0);
          matrix.SetSymmetric(f, other,
                              sim::LinkSpec::FromRttMs(
                                  same_group ? options.follower_rtt_ms
                                             : 50.0));
        }
      }
    }
    // Additional middlewares share the first DM's region (client-local).
    std::vector<NodeId> dm_ids = {1};
    for (int j = 0; j < extra_dms; ++j) {
      const NodeId dm_id = 2 + n * rf + j;
      dm_ids.push_back(dm_id);
      matrix.SetSymmetric(0, dm_id, sim::LinkSpec::FromRttMs(0.5));
      matrix.SetSymmetric(1, dm_id, sim::LinkSpec::FromRttMs(0.5));
      for (int i = 0; i < n; ++i) {
        matrix.SetSymmetric(dm_id, 2 + i,
                            sim::LinkSpec::FromRttMs(rtt_of(i)));
        for (int k = 0; k < followers_per_group; ++k) {
          matrix.SetSymmetric(dm_id, follower_id(i, k),
                              sim::LinkSpec::FromRttMs(
                                  rtt_of(i) + options.follower_rtt_ms));
        }
      }
    }
    network_ = std::make_unique<sim::Network>(&loop_, matrix);
    runtime_ = std::make_unique<runtime::SimRuntime>(&loop_, network_.get());

    workload::Deployment deployment;
    deployment.middlewares = dm_ids;
    std::vector<NodeId> ds_ids;
    for (int i = 0; i < n; ++i) {
      ds_ids.push_back(2 + i);
      std::vector<NodeId> group = {2 + i};
      for (int k = 0; k < followers_per_group; ++k) {
        group.push_back(follower_id(i, k));
      }
      deployment.groups.push_back(std::move(group));
    }
    deployment.catalog.AddRangePartitionedTable(options.table,
                                                options.keys_per_node, ds_ids);
    if (options.sharding) {
      deployment.shard_map = sharding::ShardMap::FromRangePartition(
          options.table, options.keys_per_node, ds_ids,
          options.chunks_per_source);
    }
    deployment.dm = options.dm;
    deployment.repl = options.repl;
    deployment.ds_tweak = [this](NodeId node,
                                 datasource::DataSourceConfig* config) {
      config->group_commit = options_.group_commit;
      if (options_.ds_tweak) options_.ds_tweak(config);
      if (options_.ds_tweak_node) options_.ds_tweak_node(node, config);
    };
    cluster_ = workload::Build(deployment, runtime_.get());

    network_->RegisterNode(
        0, [this](std::unique_ptr<runtime::MessageBase> msg) {
          OnClientMessage(std::move(msg));
        });
  }

  sim::EventLoop& loop() { return loop_; }
  sim::Network& network() { return *network_; }
  middleware::MiddlewareNode& dm() { return cluster_->dm(); }
  /// Middleware `j` (0 = the primary at node id 1).
  middleware::MiddlewareNode& dm(int j) {
    return cluster_->dm(static_cast<size_t>(j));
  }
  datasource::DataSourceNode& source(int i) {
    return *replica_group(i).front();
  }
  /// Follower `k` of data source `i` (replication_factor > 1 only).
  datasource::DataSourceNode& follower(int i, int k) {
    return *replica_group(i)[static_cast<size_t>(k + 1)];
  }
  /// All replicas of group `i`: the seed leader first, then followers.
  const std::vector<datasource::DataSourceNode*>& replica_group(int i) {
    return cluster_->group(static_cast<size_t>(i));
  }
  /// The replica currently leading group `i` (nullptr mid-election).
  datasource::DataSourceNode* leader_of(int i) {
    for (auto* node : replica_group(i)) {
      if (!node->crashed() && node->replicator() != nullptr &&
          node->replicator()->IsLeader()) {
        return node;
      }
    }
    return nullptr;
  }
  /// Every replica: the seed leaders first, then the followers.
  std::vector<datasource::DataSourceNode*> source_ptrs() {
    std::vector<datasource::DataSourceNode*> out;
    for (int i = 0; i < options_.num_data_sources; ++i) {
      out.push_back(&source(i));
    }
    for (int i = 0; i < options_.num_data_sources; ++i) {
      out.insert(out.end(), replica_group(i).begin() + 1,
                 replica_group(i).end());
    }
    return out;
  }

  /// Key living on data source `i` at local offset `off`.
  RecordKey KeyOn(int i, uint64_t off) const {
    return RecordKey{options_.table,
                     static_cast<uint64_t>(i) * options_.keys_per_node + off};
  }

  // ----- scriptable client ------------------------------------------------

  struct ClientTxn {
    uint64_t tag;
    NodeId coordinator = 1;
    TxnId txn_id = kInvalidTxn;
    uint32_t tenant = 0;
    std::vector<protocol::ClientRoundResponse> round_responses;
    bool has_result = false;
    Status result;
    Micros result_at = 0;
    // Overload control: shed replies observed for this tag.
    int sheds = 0;
    Micros last_retry_hint = 0;
  };

  /// Sends one round (to `coordinator`, default the primary DM); returns
  /// the client-side handle. `tenant` rides on the request for the DM's
  /// per-tenant admission metering.
  ClientTxn* SendRound(uint64_t tag, std::vector<protocol::ClientOp> ops,
                       bool last_round, NodeId coordinator = 1,
                       uint32_t tenant = 0) {
    ClientTxn& txn = txns_[tag];
    txn.tag = tag;
    txn.coordinator = coordinator;
    txn.tenant = tenant;
    auto req = std::make_unique<protocol::ClientRoundRequest>();
    req->from = 0;
    req->to = coordinator;
    req->client_tag = tag;
    req->txn_id = txn.txn_id;
    req->tenant = tenant;
    req->ops = std::move(ops);
    req->last_round = last_round;
    network_->Send(std::move(req));
    return &txn;
  }

  void SendCommit(uint64_t tag) {
    auto req = std::make_unique<protocol::ClientFinishRequest>();
    req->from = 0;
    req->to = txns_[tag].coordinator;
    req->client_tag = tag;
    req->txn_id = txns_[tag].txn_id;
    req->commit = true;
    network_->Send(std::move(req));
  }

  ClientTxn& txn(uint64_t tag) { return txns_[tag]; }

  /// ShardCutoverReady messages addressed to the client node — the
  /// migration edge-case tests drive the balancer's protocol by hand from
  /// node 0 and observe readiness here.
  const std::vector<protocol::ShardCutoverReady>& cutovers() const {
    return cutovers_;
  }

  /// ShardMigrateAborted notices addressed to the client node (a promoted
  /// source leader aborting an inherited migration from its log).
  const std::vector<protocol::ShardMigrateAborted>& aborted_migrations()
      const {
    return aborted_;
  }

  /// Preloads `count` committed records (value 0) at offsets [0, count)
  /// of data source `i`'s partition, on every replica of the group — the
  /// streaming-migration tests use it to make ranges large enough that a
  /// snapshot takes many chunks.
  void PreloadRange(int i, uint64_t count) {
    for (auto* replica : replica_group(i)) {
      for (uint64_t off = 0; off < count; ++off) {
        replica->engine().store().Apply(KeyOn(i, off), 0);
      }
    }
  }

  /// Advances virtual time by `ms` milliseconds. The DM's latency monitor
  /// pings forever, so the loop never drains on its own — tests drive it
  /// with bounded horizons.
  void RunFor(double ms) { loop_.RunUntil(loop_.Now() + MsToMicros(ms)); }

  /// Convenience: runs a full single-round transaction to completion.
  /// Returns the final status.
  Status RunTxn(uint64_t tag, std::vector<protocol::ClientOp> ops,
                NodeId coordinator = 1) {
    SendRound(tag, std::move(ops), /*last_round=*/true, coordinator);
    // Drive until the round response, then commit, then the result.
    RunFor(3000);
    ClientTxn& t = txns_[tag];
    if (t.has_result) return t.result;  // aborted before commit
    SendCommit(tag);
    RunFor(3000);
    return t.result;
  }

  static protocol::ClientOp Read(RecordKey key) {
    protocol::ClientOp op;
    op.key = key;
    return op;
  }
  static protocol::ClientOp Write(RecordKey key, int64_t value,
                                  bool delta = false) {
    protocol::ClientOp op;
    op.key = key;
    op.is_write = true;
    op.value = value;
    op.is_delta = delta;
    return op;
  }

 private:
  void OnClientMessage(std::unique_ptr<runtime::MessageBase> msg) {
    if (auto* round = dynamic_cast<protocol::ClientRoundResponse*>(msg.get())) {
      ClientTxn& txn = txns_[round->client_tag];
      txn.txn_id = round->txn_id;
      txn.round_responses.push_back(*round);
    } else if (auto* result =
                   dynamic_cast<protocol::ClientTxnResult*>(msg.get())) {
      ClientTxn& txn = txns_[result->client_tag];
      txn.has_result = true;
      txn.result = result->status;
      txn.result_at = loop_.Now();
    } else if (auto* shed =
                   dynamic_cast<protocol::OverloadedResponse*>(msg.get())) {
      ClientTxn& txn = txns_[shed->client_tag];
      txn.sheds++;
      txn.last_retry_hint = shed->retry_after_hint;
    } else if (auto* cutover =
                   dynamic_cast<protocol::ShardCutoverReady*>(msg.get())) {
      cutovers_.push_back(*cutover);
    } else if (auto* aborted =
                   dynamic_cast<protocol::ShardMigrateAborted*>(msg.get())) {
      aborted_.push_back(*aborted);
    }
  }

  Options options_;
  sim::EventLoop loop_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<runtime::SimRuntime> runtime_;
  std::unique_ptr<workload::Cluster> cluster_;
  std::map<uint64_t, ClientTxn> txns_;
  std::vector<protocol::ShardCutoverReady> cutovers_;
  std::vector<protocol::ShardMigrateAborted> aborted_;
};

}  // namespace testing_support
}  // namespace geotp

#endif  // GEOTP_TESTS_SIM_FIXTURE_H_
