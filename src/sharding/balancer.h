// ShardBalancer: hotspot-driven shard placement, run inside one
// middleware (DM).
//
// Every `interval` it scores each shard range by the access heat the DM's
// HotspotFootprint observed since the last tick and plans range
// operations:
//
//  * Split. A range whose heat concentrates in a small contiguous
//    sub-span (intra-chunk skew, detected from the footprint's heat
//    histogram) is split at the hot sub-range's boundaries, so the next
//    tick can migrate just the heat instead of the whole chunk.
//  * Merge. Adjacent same-owner ranges that stayed cold for several
//    consecutive ticks merge back, bounding map growth.
//  * Migrate. A hot range parked far from the DM region driving it is
//    migrated toward a better source. Placement is two-objective: the
//    RTT gain (owner RTT - destination RTT, from the LatencyMonitor)
//    minus a load penalty — the destination's reported in-flight load
//    (capacity signal piggybacked on ping pongs) plus a bias per range
//    recently placed on it — so hot chunks spread across sources instead
//    of piling onto the single nearest node.
//
// Migrations run the ShardMigrator's snapshot + delta + fenced cutover
// protocol; on ShardCutoverReady the balancer adopts the new placement
// and publishes the map to every DM and data-source replica. Stalled
// migrations are cancelled after `migration_timeout`; placement only ever
// changes at cutover (or at a split/merge, which changes boundaries but
// not ownership), so a cancelled migration can never lose data.
#ifndef GEOTP_SHARDING_BALANCER_H_
#define GEOTP_SHARDING_BALANCER_H_

#include <map>
#include <vector>

#include "common/types.h"
#include "protocol/messages.h"
#include "sharding/shard_map.h"
#include "sim/network.h"

namespace geotp {
namespace middleware {
class MiddlewareNode;
}  // namespace middleware

namespace sharding {

struct BalancerConfig {
  /// Master switch: exactly one DM of a deployment should enable it.
  bool enabled = false;
  /// Evaluation cadence (also drives migration-timeout checks).
  Micros interval = MsToMicros(400);
  /// A migration not cut over within this window is cancelled.
  Micros migration_timeout = SecToMicros(8);
  /// Minimum footprint accesses per interval for a range to count as hot.
  uint64_t min_heat = 50;
  /// Minimum two-objective score (RTT gain - load penalty) to justify a
  /// move.
  Micros min_rtt_gain = MsToMicros(20);
  /// Concurrent migrations cap.
  int max_concurrent = 1;
  /// Per-range cooldown after a completed move (anti ping-pong).
  Micros range_cooldown = SecToMicros(4);
  /// Other DMs to publish map updates to (data sources are discovered
  /// from the catalog; the owning DM adopts locally).
  std::vector<NodeId> peer_middlewares;

  // ----- capacity-aware placement (two-objective scorer) ------------------
  /// Score penalty (us) per unit of the destination's reported in-flight
  /// load IN EXCESS of the current owner's (live branches, EWMA of the
  /// capacity signal on ping pongs; relative, so moving heat off a busy
  /// owner onto an idle node is free). 0 restores the single-objective
  /// nearest-by-RTT placement.
  Micros capacity_weight = 1000;
  /// Score penalty (us) per range recently placed on (migrating to, or
  /// moved within the cooldown window to) the destination. Spreads a
  /// burst of hot ranges before the measured load has time to react.
  /// Deliberately much smaller than typical inter-source RTT deltas: it
  /// deflects only once several ranges pile into one cooldown window,
  /// without trading real RTT gains for cosmetic balance.
  Micros placement_bias = MsToMicros(5);

  // ----- online split / merge ---------------------------------------------
  bool split_enabled = true;
  /// Histogram buckets for intra-range skew detection.
  int split_buckets = 16;
  /// A contiguous sub-span holding at least this fraction of the range's
  /// heat counts as the hot sub-range. High on purpose: a mildly skewed
  /// range migrates whole in one snapshot+fence cycle; splitting it
  /// piecemeal would pay a fence window per piece and leave the warm
  /// remainder behind. Only a sharply concentrated head is worth carving
  /// out.
  double split_skew_fraction = 0.8;
  /// Split only when the hot sub-range spans at most this fraction of the
  /// range's width (otherwise the whole range is hot and migrating it
  /// outright is right).
  double split_max_fraction = 0.5;
  /// Minimum width of a split-off sub-range (the hot window is widened to
  /// this); ranges narrower than twice this never split.
  uint64_t split_min_keys = 64;
  bool merge_enabled = true;
  /// Adjacent same-owner ranges with zero heat for this many consecutive
  /// ticks merge back (one merge per tick). Patient by default: a
  /// twitchy merge would undo a split between two bursts of a slow hot
  /// workload and the boundaries would flap.
  int merge_cold_ticks = 20;
};

struct BalancerStats {
  uint64_t ticks = 0;
  uint64_t migrations_started = 0;
  uint64_t migrations_completed = 0;
  uint64_t migrations_cancelled = 0;
  uint64_t map_publishes = 0;
  uint64_t splits = 0;             ///< split operations performed
  uint64_t merges = 0;             ///< merge operations performed
  /// Hot candidates whose raw RTT gain cleared min_rtt_gain but whose
  /// two-objective score did not for any destination (placement bounded
  /// by load).
  uint64_t capacity_deferrals = 0;
  /// Cutovers published although the source/dest leader epoch moved since
  /// planning — safe because the migration state is log-replicated (the
  /// promoted leader re-fenced from the journaled cutover record).
  uint64_t logged_epoch_overrides = 0;
  /// Migrations a promoted source leader aborted from its log
  /// (ShardMigrateAborted), cancelled here without waiting for the
  /// timeout.
  uint64_t aborted_by_source = 0;
  /// In-flight migrations re-pointed at a new destination leader after a
  /// failover there — the source re-offers sent-chunk hashes and resumes
  /// past the declined prefix instead of waiting for the timeout cancel.
  uint64_t migrations_repointed = 0;
  GEOTP_STAT_FIELDS(ticks, migrations_started, migrations_completed,
                    migrations_cancelled, map_publishes, splits, merges,
                    capacity_deferrals, logged_epoch_overrides,
                    aborted_by_source, migrations_repointed)
};

class ShardBalancer {
 public:
  ShardBalancer(middleware::MiddlewareNode* dm, BalancerConfig config);

  /// Arms the periodic evaluation timer.
  void Start();

  /// Consumes ShardCutoverReady / ShardMigrateAborted. Returns false for
  /// unrelated messages.
  bool HandleMessage(runtime::MessageBase* msg);

  /// Chaos/test hook: splits the range covering (`table`, `at`) at `at`,
  /// publishes the new boundaries. Refused (false) when the split point is
  /// invalid or the range is mid-migration.
  bool ForceSplit(uint32_t table, uint64_t at);

  /// Chaos/test hook: merges the range covering (`table`, `key`) with its
  /// successor (must be span-adjacent, same owner, neither migrating),
  /// publishes. Returns false when not mergeable.
  bool ForceMerge(uint32_t table, uint64_t key);

  const BalancerStats& stats() const { return stats_; }
  size_t InFlight() const { return in_flight_.size(); }

 private:
  struct Migration {
    uint64_t id = 0;
    ShardRange range;  ///< span + owner at planning time
    NodeId source = kInvalidNode;  ///< logical owner at start
    NodeId dest = kInvalidNode;
    uint64_t new_version = 0;
    Micros deadline = 0;
    /// Leadership epochs of both groups when the migration was planned: a
    /// failover at either end invalidates the fence / install state, so a
    /// cutover report from a superseded term must not be published.
    uint64_t source_leader_epoch = 0;
    uint64_t dest_leader_epoch = 0;
  };

  /// Identifies a range by span; split/merge retire old spans and their
  /// bookkeeping with them.
  struct SpanKey {
    uint32_t table = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;
    bool operator<(const SpanKey& other) const {
      if (table != other.table) return table < other.table;
      if (lo != other.lo) return lo < other.lo;
      return hi < other.hi;
    }
  };
  static SpanKey KeyOf(const ShardRange& range) {
    return SpanKey{range.table, range.lo, range.hi};
  }

  struct RangeState {
    /// Cumulative footprint t_cnt at the last tick (heat = delta).
    uint64_t last_heat = 0;
    bool heat_seeded = false;
    Micros cooldown_until = 0;
    int cold_ticks = 0;  ///< consecutive zero-heat ticks (merge signal)
  };

  void ArmTick(uint64_t generation);
  void Tick();
  void CancelExpired();
  /// Detects a destination-leader epoch change on an in-flight migration
  /// and re-sends the ShardMigrateRequest with the new leader; the source
  /// treats the duplicate as a re-point and re-seeds by hash decline.
  void RepointFailedDestinations();
  /// One round of range maintenance: at most one split OR one merge
  /// (publishing the new boundaries), else migration planning. A split's
  /// hot child is put up for migration in the same tick — it inherits the
  /// parent's heat evidence; waiting for the child to re-qualify would
  /// let a slow hot workload's boundaries flap instead of moving.
  void PlanRangeOps();
  void PlanMigrations(const std::vector<uint64_t>& heat);
  /// Plans one migration for `range` if a destination clears the
  /// two-objective score. Returns true when a request went out.
  bool StartMigration(const ShardRange& range, uint64_t heat,
                      std::map<NodeId, int>& placed);
  /// Splits `range` when its heat concentrates in a small sub-span.
  /// Returns true if a split was performed (map changed + published);
  /// `hot_child` receives the split-off hot sub-range.
  bool TrySplit(const ShardRange& range, ShardRange* hot_child);
  /// Merges one cold adjacent same-owner pair. True if merged.
  bool TryMergeCold();
  /// Two-objective destination choice for `range`: max over destinations
  /// of RTT gain minus load penalty. Returns kInvalidNode when no
  /// destination clears min_rtt_gain; sets `deferred` when the RTT gain
  /// alone would have cleared it (capacity bounded the placement).
  NodeId PickDestination(const ShardRange& range, Micros owner_rtt,
                         std::map<NodeId, int>& placed, bool* deferred) const;
  /// Per-destination placement pressure (in-flight migrations), the
  /// `placed` input both migration-planning paths share.
  std::map<NodeId, int> PlacedPressure() const;
  /// Shared post-boundary-change bookkeeping for splits of `original`
  /// (stats, heat re-seeding of the new spans, epoch note, publish).
  void FinishSplit(const ShardRange& original);
  /// Shared post-merge bookkeeping: retires the merged spans' state and
  /// seeds the combined range at `idx`.
  void FinishMerge(size_t idx, const SpanKey& left, const SpanKey& right);
  void OnCutoverReady(const protocol::ShardCutoverReady& ready);
  /// A promoted source leader aborted the migration from its log: cancel
  /// it here immediately (the timeout would get there eventually).
  void OnMigrateAborted(uint64_t migration_id);
  /// Next strictly-increasing map version (single-writer invariant).
  uint64_t MintVersion();
  /// True if `range` overlaps an in-flight migration's span.
  bool Migrating(const ShardRange& range) const;
  /// Seeds heat bookkeeping for a new span at the current cumulative
  /// footprint count (so boundary changes don't read as heat spikes).
  void SeedSpan(const ShardRange& range);
  uint64_t FootprintCount(const ShardRange& range) const;
  /// Broadcasts the authoritative map to peers and every data-source
  /// replica (the local catalog is already updated).
  void Publish();

  middleware::MiddlewareNode* dm_;
  BalancerConfig config_;
  std::map<SpanKey, RangeState> range_state_;
  std::vector<Migration> in_flight_;
  uint64_t next_migration_id_ = 1;
  uint64_t next_version_ = 0;
  uint64_t generation_ = 0;  ///< invalidates pre-crash tick chains
  BalancerStats stats_;
};

}  // namespace sharding
}  // namespace geotp

#endif  // GEOTP_SHARDING_BALANCER_H_
