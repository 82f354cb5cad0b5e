// YCSB transactional workload (paper §VII-A2).
//
// Each transaction has `ops_per_txn` operations (default 5), each a read
// or write with 50/50 probability. Keys follow a scrambled zipfian over
// each data node's partition; the skew factor theta controls contention
// (0.3 / 0.9 / 1.5 = low / medium / high). A transaction is centralized
// (all keys on one node) or distributed (keys spread over
// `nodes_per_distributed_txn` nodes) according to `distributed_ratio`.
// Multi-round interactive transactions (Fig. 14b/c) split the operations
// evenly over `rounds` client interactions.
#ifndef GEOTP_WORKLOAD_YCSB_H_
#define GEOTP_WORKLOAD_YCSB_H_

#include <memory>
#include <vector>

#include "workload/generator.h"

namespace geotp {
namespace workload {

struct YcsbConfig {
  std::vector<NodeId> data_sources;
  uint64_t records_per_node = 1000000;  ///< paper: 1M x 1KB per node
  int ops_per_txn = 5;
  double read_ratio = 0.5;
  double theta = 0.9;                   ///< skew factor (medium contention)
  double distributed_ratio = 0.2;
  int nodes_per_distributed_txn = 2;
  int rounds = 1;
  uint32_t table_id = 1;
  /// Fig. 1b motivation workload: pin every transaction's anchor node to
  /// data source 0 (centralized txns run on DS1 only; distributed ones
  /// span DS1 + a remote node).
  bool pin_anchor_to_first_node = false;
  /// Mirror the zipfian so the hot head sits at the END of the key space
  /// (the last data source). Used by the multi-region deployment
  /// (Fig. 15): each region's clients are hot on their own region's
  /// partition while sharing the cold middle.
  bool mirror_keyspace = false;
};

class YcsbGenerator : public WorkloadGenerator {
 public:
  explicit YcsbGenerator(YcsbConfig config);

  TxnSpec Next(Rng& rng) override;
  void RegisterTables(middleware::Catalog* catalog) const override;

  const YcsbConfig& config() const { return config_; }

 private:
  /// Global-zipf key conditioned on node `node_idx`'s partition.
  uint64_t SampleKey(size_t node_idx, Rng& rng);

  YcsbConfig config_;
  /// The global zipf over the whole key space (anchor-node choice) and
  /// restricted to each node's partition, built once.
  BoundedZipf global_;
  std::vector<BoundedZipf> partitions_;
};

}  // namespace workload
}  // namespace geotp

#endif  // GEOTP_WORKLOAD_YCSB_H_
