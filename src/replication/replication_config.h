// Configuration of one replica group (leader-follower log shipping).
//
// Each DataSourceNode can lead (or follow in) a replica group identified by
// the *logical* node id — the id the catalog routes keys to, which stays
// stable across failovers. Group membership is fixed at deployment time;
// leadership moves between members via election epochs.
#ifndef GEOTP_REPLICATION_REPLICATION_CONFIG_H_
#define GEOTP_REPLICATION_REPLICATION_CONFIG_H_

#include <vector>

#include "common/types.h"

namespace geotp {
namespace replication {

struct ReplicationConfig {
  /// Leader -> follower heartbeat (also drives retransmission of entries
  /// followers have not acked yet).
  Micros heartbeat_interval = MsToMicros(20);
  /// A follower that has not heard from a leader for this long starts an
  /// election. Staggered per replica ordinal so elections do not collide.
  Micros election_timeout = MsToMicros(120);
  Micros election_stagger = MsToMicros(40);
};

/// Deployment wiring of one replica group.
struct GroupConfig {
  /// Logical data source id = the seed leader's node id. Catalog routes and
  /// Xids use this id; it survives failovers.
  NodeId logical = kInvalidNode;
  /// All members (the seed leader first, then followers). A member's
  /// position here is its ordinal for election staggering.
  std::vector<NodeId> replicas;
  /// Middlewares to announce leadership changes to.
  std::vector<NodeId> middlewares;
  ReplicationConfig config;

  size_t QuorumSize() const { return replicas.size() / 2 + 1; }
};

}  // namespace replication
}  // namespace geotp

#endif  // GEOTP_REPLICATION_REPLICATION_CONFIG_H_
