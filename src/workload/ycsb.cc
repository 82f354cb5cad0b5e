#include "workload/ycsb.h"

#include <algorithm>

#include "common/logging.h"

namespace geotp {
namespace workload {

YcsbGenerator::YcsbGenerator(YcsbConfig config)
    : config_(std::move(config)),
      global_(0, config_.records_per_node * config_.data_sources.size(),
              config_.theta) {
  GEOTP_CHECK(!config_.data_sources.empty(), "need data sources");
  GEOTP_CHECK(config_.ops_per_txn >= 1, "need ops");
  GEOTP_CHECK(config_.rounds >= 1, "need rounds");
  for (size_t node = 0; node < config_.data_sources.size(); ++node) {
    const uint64_t lo = node * config_.records_per_node;
    partitions_.emplace_back(lo, lo + config_.records_per_node,
                             config_.theta);
  }
}

void YcsbGenerator::RegisterTables(middleware::Catalog* catalog) const {
  catalog->AddRangePartitionedTable(config_.table_id,
                                    config_.records_per_node,
                                    config_.data_sources);
}

uint64_t YcsbGenerator::SampleKey(size_t node_idx, Rng& rng) {
  // Global zipf conditioned on the node's partition: the table's zipfian
  // is anchored at global key 0, so the DM-co-located head partition holds
  // the hot records while remote partitions are nearly uniform ("hot
  // records are often in the intra-region ones", paper §I). This is also
  // what the Fig. 1b motivation experiment needs: centralized transactions
  // on DS1 share hot records with distributed transactions.
  const uint64_t total =
      config_.records_per_node * config_.data_sources.size();
  if (config_.mirror_keyspace) {
    // Sample the mirrored node's range in the unmirrored distribution,
    // then reflect: the hot head lands on the LAST partition.
    const size_t mirrored_node = config_.data_sources.size() - 1 - node_idx;
    return total - 1 - partitions_[mirrored_node].Sample(rng);
  }
  return partitions_[node_idx].Sample(rng);
}

TxnSpec YcsbGenerator::Next(Rng& rng) {
  TxnSpec spec;
  const size_t num_nodes = config_.data_sources.size();
  spec.distributed =
      num_nodes > 1 && rng.NextBool(config_.distributed_ratio);

  // The anchor node follows the global zipf mass (hot node dominates under
  // skew); distributed transactions add uniformly-chosen other nodes.
  const uint64_t total_keys =
      config_.records_per_node * static_cast<uint64_t>(num_nodes);
  std::vector<size_t> nodes;
  nodes.reserve(static_cast<size_t>(
      std::max(1, config_.nodes_per_distributed_txn)));
  if (config_.pin_anchor_to_first_node) {
    nodes.push_back(0);
  } else {
    uint64_t anchor_key = global_.Sample(rng);
    if (config_.mirror_keyspace) anchor_key = total_keys - 1 - anchor_key;
    nodes.push_back(
        static_cast<size_t>(anchor_key / config_.records_per_node));
  }
  if (spec.distributed) {
    const int want = std::min<int>(config_.nodes_per_distributed_txn,
                                   static_cast<int>(num_nodes));
    while (static_cast<int>(nodes.size()) < want) {
      const auto candidate = static_cast<size_t>(rng.NextU64(num_nodes));
      if (std::find(nodes.begin(), nodes.end(), candidate) == nodes.end()) {
        nodes.push_back(candidate);
      }
    }
  }

  // Generate the operations; key collisions within a transaction are
  // avoided (re-entrant locks would hide contention).
  std::vector<protocol::ClientOp> ops;
  ops.reserve(static_cast<size_t>(config_.ops_per_txn));
  std::vector<uint64_t> used;
  used.reserve(ops.capacity());
  for (int i = 0; i < config_.ops_per_txn; ++i) {
    const size_t node = nodes[static_cast<size_t>(i) % nodes.size()];
    uint64_t key = 0;
    for (int tries = 0; tries < 16; ++tries) {
      key = SampleKey(node, rng);
      if (std::find(used.begin(), used.end(), key) == used.end()) break;
    }
    used.push_back(key);
    protocol::ClientOp op;
    op.key = RecordKey{config_.table_id, key};
    op.is_write = !rng.NextBool(config_.read_ratio);
    if (op.is_write) {
      op.is_delta = true;
      op.value = static_cast<int64_t>(rng.NextU64(100)) - 50;
    }
    ops.push_back(op);
  }

  // Split into interactive rounds.
  const int rounds =
      std::min(config_.rounds, static_cast<int>(ops.size()));
  spec.rounds.resize(static_cast<size_t>(rounds));
  for (auto& round : spec.rounds) {
    round.reserve(ops.size() / static_cast<size_t>(rounds) + 1);
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    spec.rounds[i * static_cast<size_t>(rounds) / ops.size()].push_back(
        ops[i]);
  }
  return spec;
}

}  // namespace workload
}  // namespace geotp
