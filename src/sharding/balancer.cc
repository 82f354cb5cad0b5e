#include "sharding/balancer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/hotspot_footprint.h"
#include "middleware/middleware.h"
#include "protocol/messages.h"

namespace geotp {
namespace sharding {
namespace {

/// Histogram buckets for intra-range skew detection.
constexpr size_t kSplitBuckets = 16;
/// A contiguous sub-span holding at least this fraction of the range's
/// heat counts as the hot sub-range. High on purpose: a mildly skewed
/// range migrates whole in one snapshot+fence cycle; splitting it
/// piecemeal would pay a fence window per piece and leave the warm
/// remainder behind. Only a sharply concentrated head is worth carving
/// out.
constexpr double kSplitSkewFraction = 0.8;
/// Split only when the hot sub-range spans at most this fraction of the
/// range's width (otherwise the whole range is hot and migrating it
/// outright is right).
constexpr double kSplitMaxFraction = 0.5;

}  // namespace

using protocol::ShardCutoverReady;
using protocol::ShardMapUpdate;
using protocol::ShardMigrateCancel;
using protocol::ShardMigrateRequest;

ShardBalancer::ShardBalancer(middleware::MiddlewareNode* dm,
                             BalancerConfig config)
    : dm_(dm), config_(std::move(config)) {}

void ShardBalancer::Start() {
  // Version allocation is monotone for the balancer's whole lifetime:
  // resetting it per tick could mint the same version for two in-flight
  // migrations and defeat the per-range staleness check.
  next_version_ = std::max(next_version_, dm_->catalog().ShardEpoch());
  // The generation guard kills any tick chain from before a crash, so a
  // restart (which calls Start() again) never ends up with two chains.
  ArmTick(++generation_);
}

void ShardBalancer::ArmTick(uint64_t generation) {
  dm_->timer()->Schedule(config_.interval, [this, generation]() {
    if (generation != generation_) return;  // superseded by a restart
    if (dm_->crashed()) return;  // chain ends; Restart() starts a new one
    Tick();
    ArmTick(generation);
  });
}

bool ShardBalancer::HandleMessage(runtime::MessageBase* msg) {
  switch (msg->type()) {
    case runtime::MessageType::kShardCutoverReady:
      OnCutoverReady(static_cast<ShardCutoverReady&>(*msg));
      return true;
    case runtime::MessageType::kShardMigrateAborted: {
      const auto& aborted = static_cast<protocol::ShardMigrateAborted&>(*msg);
      OnMigrateAborted(aborted.migration_id);
      return true;
    }
    default:
      return false;
  }
}

void ShardBalancer::Tick() {
  if (dm_->crashed()) return;
  stats_.ticks++;
  CancelExpired();
  RepointFailedDestinations();
  PlanRangeOps();
}

void ShardBalancer::RepointFailedDestinations() {
  middleware::Catalog& catalog = dm_->catalog();
  for (Migration& m : in_flight_) {
    const uint64_t dest_epoch = catalog.EpochOf(m.dest);
    if (dest_epoch == m.dest_leader_epoch) continue;
    // The destination group elected a new leader mid-stream. The old
    // leader's ordering buffer died with it, but every acked chunk and
    // delta is quorum-durable in the group's log — so instead of letting
    // the timeout cancel-and-restart the whole transfer, point the source
    // at the new leader. It re-sends its unacked chunks and deltas, and
    // the new leader skips what its ingest journal shows applied; only
    // the unacked tail re-crosses the WAN. The timeout stays armed as
    // backstop.
    m.dest_leader_epoch = dest_epoch;
    stats_.migrations_repointed++;
    GEOTP_INFO("balancer: re-pointing migration "
               << m.id << " at new leader of group " << m.dest);
    auto req = std::make_unique<ShardMigrateRequest>();
    req->from = dm_->id();
    req->to = catalog.LeaderOf(m.source);
    req->migration_id = m.id;
    req->range = m.range;
    req->dest = m.dest;
    req->dest_leader = catalog.LeaderOf(m.dest);
    req->new_version = m.new_version;
    req->timeout = config_.migration_timeout;
    dm_->transport()->Send(std::move(req));
  }
}

uint64_t ShardBalancer::MintVersion() {
  next_version_ =
      std::max(next_version_, dm_->catalog().ShardEpoch()) + 1;
  return next_version_;
}

bool ShardBalancer::Migrating(const ShardRange& range) const {
  for (const Migration& m : in_flight_) {
    if (m.range.table == range.table && m.range.lo < range.hi &&
        range.lo < m.range.hi) {
      return true;
    }
  }
  return false;
}

uint64_t ShardBalancer::FootprintCount(const ShardRange& range) const {
  uint64_t total = 0;
  const auto records = dm_->footprint().Range(
      RecordKey{range.table, range.lo}, RecordKey{range.table, range.hi - 1});
  for (const auto& [key, stats] : records) total += stats.t_cnt;
  return total;
}

void ShardBalancer::SeedSpan(const ShardRange& range) {
  RangeState& state = range_state_[KeyOf(range)];
  state.last_heat = FootprintCount(range);
  state.heat_seeded = true;
  state.cold_ticks = 0;
}

void ShardBalancer::CancelExpired() {
  const Micros now = dm_->timer()->Now();
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (now < it->deadline) {
      ++it;
      continue;
    }
    stats_.migrations_cancelled++;
    // Both ends hold per-migration state: the source its outbound fence /
    // delta queue, the destination its inbound ordering buffer.
    for (NodeId end : {it->source, it->dest}) {
      auto cancel = std::make_unique<ShardMigrateCancel>();
      cancel->from = dm_->id();
      cancel->to = dm_->catalog().LeaderOf(end);
      cancel->migration_id = it->id;
      dm_->transport()->Send(std::move(cancel));
    }
    it = in_flight_.erase(it);
  }
}

void ShardBalancer::PlanRangeOps() {
  middleware::Catalog& catalog = dm_->catalog();
  if (!catalog.HasShardMap()) return;
  const ShardMap& map = catalog.shard_map();

  // Per-range heat since the last tick, from the footprint's range
  // scans (the same statistics that drive the Eq. 5/9 forecasts). The
  // footprint is an LRU cache: evictions reset per-record t_cnt, so the
  // cumulative sum can shrink between ticks. A shrunken sum means the
  // range re-accumulated at least `total` accesses since eviction — use
  // that instead of clamping the delta to zero, which would starve a
  // hot-but-churning range forever. Boundary changes retire old spans'
  // bookkeeping; new spans are seeded at their current cumulative count
  // (SeedSpan) so a split does not read as a heat spike.
  const std::vector<ShardRange> ranges = map.ranges();  // copy: ops mutate
  std::vector<uint64_t> heat(ranges.size(), 0);
  std::map<SpanKey, RangeState> next_state;
  for (size_t i = 0; i < ranges.size(); ++i) {
    const uint64_t total = FootprintCount(ranges[i]);
    RangeState state;
    auto it = range_state_.find(KeyOf(ranges[i]));
    if (it != range_state_.end()) state = it->second;
    if (state.heat_seeded) {
      heat[i] = total >= state.last_heat ? total - state.last_heat : total;
    }
    state.last_heat = total;
    state.heat_seeded = true;
    state.cold_ticks = heat[i] == 0 ? state.cold_ticks + 1 : 0;
    next_state[KeyOf(ranges[i])] = state;
  }
  range_state_ = std::move(next_state);

  // At most one boundary change per tick: it mutates the map, so heat and
  // migration planning restart cleanly against the new spans next tick —
  // except the split's hot child, which migrates right away on the
  // parent's heat evidence.
  if (config_.split_enabled) {
    const Micros now = dm_->timer()->Now();
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (heat[i] < config_.min_heat) continue;
      if (Migrating(ranges[i])) continue;
      // The post-migration cooldown guards splits like migrations: a
      // freshly landed range must settle before its boundaries move
      // again (the children inherit the remaining window).
      const auto it = range_state_.find(KeyOf(ranges[i]));
      if (it != range_state_.end() && now < it->second.cooldown_until) {
        continue;
      }
      ShardRange hot_child;
      if (TrySplit(ranges[i], &hot_child)) {
        std::map<NodeId, int> placed = PlacedPressure();
        StartMigration(hot_child, heat[i], placed);
        return;
      }
    }
  }
  if (config_.merge_enabled && TryMergeCold()) return;

  PlanMigrations(heat);
}

void ShardBalancer::FinishSplit(const ShardRange& original) {
  stats_.splits++;
  // The children inherit the parent's remaining cooldown (a split must
  // not launder away the anti-flap window).
  Micros inherited_cooldown = 0;
  const auto parent = range_state_.find(KeyOf(original));
  if (parent != range_state_.end()) {
    inherited_cooldown = parent->second.cooldown_until;
  }
  // Seed the new spans so the boundary change is heat-neutral.
  for (const ShardRange& r : dm_->catalog().shard_map().ranges()) {
    if (r.table == original.table && r.lo >= original.lo &&
        r.lo < original.hi) {
      SeedSpan(r);
      range_state_[KeyOf(r)].cooldown_until = inherited_cooldown;
    }
  }
  dm_->NoteShardEpoch(dm_->catalog().ShardEpoch());
  Publish();
}

void ShardBalancer::FinishMerge(size_t idx, const SpanKey& left,
                                const SpanKey& right) {
  stats_.merges++;
  range_state_.erase(left);
  range_state_.erase(right);
  SeedSpan(dm_->catalog().shard_map().ranges()[idx]);
  dm_->NoteShardEpoch(dm_->catalog().ShardEpoch());
  Publish();
}

bool ShardBalancer::TrySplit(const ShardRange& range, ShardRange* hot_child) {
  const uint64_t width = range.hi - range.lo;
  if (width < 2 * config_.split_min_keys) return false;
  const core::HotspotFootprint::HeatHistogram hist =
      dm_->footprint().Histogram(RecordKey{range.table, range.lo},
                                 RecordKey{range.table, range.hi - 1},
                                 kSplitBuckets);
  if (hist.empty() || hist.total == 0) return false;

  // Smallest contiguous bucket window holding >= kSplitSkewFraction of
  // the heat (two pointers).
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(hist.total) *
                               kSplitSkewFraction));
  size_t best_lo = 0, best_hi = kSplitBuckets;  // [lo, hi)
  uint64_t sum = 0;
  for (size_t lo = 0, hi = 0; hi < kSplitBuckets || sum >= target;) {
    if (sum >= target) {
      if (hi - lo < best_hi - best_lo) {
        best_lo = lo;
        best_hi = hi;
      }
      sum -= hist.buckets[lo++];
    } else {
      sum += hist.buckets[hi++];
    }
  }
  uint64_t hot_lo = hist.extent_lo + best_lo * hist.bucket_width;
  uint64_t hot_hi = hist.extent_lo + best_hi * hist.bucket_width;
  // Widen to the minimum split width, clamp into the range.
  if (hot_hi - hot_lo < config_.split_min_keys) {
    hot_hi = hot_lo + config_.split_min_keys;
  }
  hot_lo = std::max(hot_lo, range.lo);
  hot_hi = std::min(hot_hi, range.hi);
  if (hot_hi <= hot_lo) return false;
  // Only split when the hot sub-range is a small part of the span —
  // otherwise the whole range is hot and migrating it outright is right.
  if (static_cast<double>(hot_hi - hot_lo) >
      static_cast<double>(width) * kSplitMaxFraction) {
    return false;
  }

  middleware::Catalog& catalog = dm_->catalog();
  bool split = false;
  // Right boundary first: splitting at hot_hi leaves [lo, hot_hi), whose
  // index still covers hot_lo for the second cut.
  if (hot_hi < range.hi) {
    split |= catalog.mutable_shard_map().SplitAt(range.table, hot_hi,
                                                 MintVersion());
  }
  if (hot_lo > range.lo) {
    split |= catalog.mutable_shard_map().SplitAt(range.table, hot_lo,
                                                 MintVersion());
  }
  if (!split) return false;
  GEOTP_INFO("balancer: split " << range.ToString() << " around hot ["
                                << hot_lo << "," << hot_hi << ")");
  if (hot_child != nullptr) {
    const ShardRange* child =
        catalog.shard_map().RangeOf(RecordKey{range.table, hot_lo});
    GEOTP_CHECK(child != nullptr, "split lost its hot child");
    *hot_child = *child;
  }
  FinishSplit(range);
  return true;
}

bool ShardBalancer::TryMergeCold() {
  middleware::Catalog& catalog = dm_->catalog();
  const std::vector<ShardRange>& ranges = catalog.shard_map().ranges();
  const Micros now = dm_->timer()->Now();
  for (size_t i = 0; i + 1 < ranges.size(); ++i) {
    const ShardRange& left = ranges[i];
    const ShardRange& right = ranges[i + 1];
    if (left.table != right.table || left.hi != right.lo ||
        left.owner != right.owner) {
      continue;
    }
    if (Migrating(left) || Migrating(right)) continue;
    bool cold = true;
    for (const ShardRange* r : {&left, &right}) {
      auto it = range_state_.find(KeyOf(*r));
      if (it == range_state_.end() ||
          it->second.cold_ticks < config_.merge_cold_ticks ||
          now < it->second.cooldown_until) {
        cold = false;
        break;
      }
    }
    if (!cold) continue;
    // Copies, not references: Merge() mutates the range vector, so `left`
    // and `right` would dangle past this point.
    const ShardRange left_copy = left;
    const ShardRange right_copy = right;
    if (!catalog.mutable_shard_map().Merge(i, MintVersion())) continue;
    GEOTP_INFO("balancer: merged " << left_copy.ToString() << " + "
                                   << right_copy.ToString());
    FinishMerge(i, KeyOf(left_copy), KeyOf(right_copy));
    return true;
  }
  return false;
}

NodeId ShardBalancer::PickDestination(const ShardRange& range,
                                      Micros owner_rtt,
                                      std::map<NodeId, int>& placed,
                                      bool* deferred) const {
  // Two-objective score per destination: RTT gain minus a load penalty.
  // The load penalty has a measured term and a placement term (ranges
  // already migrating to / recently landed on the destination), so a
  // burst of hot ranges spreads before the measured signal reacts. The
  // measured term is RELATIVE — destination in-flight load (reported on
  // ping pongs) minus the current owner's — so moving heat onto an idle
  // node near the DM is never penalized just because the deployment is
  // busy, and a range can only be deflected toward a less-loaded node,
  // never bounced back (the reverse move's RTT gain is negative): no
  // flapping. Only sampled destinations qualify (an unsampled estimate
  // reads 0, which would look infinitely attractive).
  const double owner_load = dm_->monitor().LoadEstimate(range.owner);
  NodeId best = kInvalidNode;
  Micros best_score = 0;
  bool rtt_gain_cleared = false;
  for (NodeId dest : dm_->catalog().AllDataSources()) {
    if (dest == range.owner) continue;
    const Micros dest_rtt = dm_->monitor().RttEstimate(dest);
    if (dest_rtt <= 0) continue;
    const Micros gain = owner_rtt - dest_rtt;
    if (gain >= config_.min_rtt_gain) rtt_gain_cleared = true;
    const double excess_load =
        std::max(0.0, dm_->monitor().LoadEstimate(dest) - owner_load);
    const Micros penalty =
        static_cast<Micros>(config_.capacity_weight * excess_load) +
        config_.placement_bias * placed[dest];
    const Micros score = gain - penalty;
    if (score < config_.min_rtt_gain) continue;
    if (best == kInvalidNode || score > best_score) {
      best = dest;
      best_score = score;
    }
  }
  if (deferred != nullptr) {
    *deferred = best == kInvalidNode && rtt_gain_cleared;
  }
  return best;
}

std::map<NodeId, int> ShardBalancer::PlacedPressure() const {
  // Placement pressure per destination: migrations currently in flight
  // toward it. Deliberately NOT ranges that already landed — completed
  // placements show up in the destination's measured load (the relative
  // capacity term) within an EWMA window; double-counting them here made
  // the balancer scatter co-accessed hot ranges across sources and
  // trade real RTT gains for cosmetic balance.
  std::map<NodeId, int> placed;
  for (const Migration& m : in_flight_) placed[m.dest]++;
  return placed;
}

void ShardBalancer::PlanMigrations(const std::vector<uint64_t>& heat) {
  middleware::Catalog& catalog = dm_->catalog();
  const std::vector<ShardRange>& ranges = catalog.shard_map().ranges();
  const Micros now = dm_->timer()->Now();
  std::map<NodeId, int> placed = PlacedPressure();

  struct Candidate {
    size_t idx;
    uint64_t heat;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < ranges.size() && i < heat.size(); ++i) {
    if (heat[i] < config_.min_heat) continue;
    const auto it = range_state_.find(KeyOf(ranges[i]));
    if (it != range_state_.end() && now < it->second.cooldown_until) continue;
    if (Migrating(ranges[i])) continue;
    candidates.push_back(Candidate{i, heat[i]});
  }
  // Hottest first: each migration costs a fence window, so spend it on
  // the ranges that remove the most WAN round trips.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.heat > b.heat;
            });

  for (const Candidate& c : candidates) {
    if (static_cast<int>(in_flight_.size()) >= config_.max_concurrent) break;
    StartMigration(ranges[c.idx], c.heat, placed);
  }
}

bool ShardBalancer::StartMigration(const ShardRange& range, uint64_t heat,
                                   std::map<NodeId, int>& placed) {
  if (static_cast<int>(in_flight_.size()) >= config_.max_concurrent) {
    return false;
  }
  middleware::Catalog& catalog = dm_->catalog();
  const Micros owner_rtt = dm_->monitor().RttEstimate(range.owner);
  if (owner_rtt <= 0) return false;
  bool deferred = false;
  const NodeId dest = PickDestination(range, owner_rtt, placed, &deferred);
  if (dest == kInvalidNode) {
    if (deferred) stats_.capacity_deferrals++;
    return false;
  }
  Migration m;
  m.id = next_migration_id_++;
  m.range = range;
  m.source = range.owner;
  m.dest = dest;
  m.new_version = MintVersion();
  m.deadline = dm_->timer()->Now() + config_.migration_timeout;
  m.source_leader_epoch = catalog.EpochOf(range.owner);
  m.dest_leader_epoch = catalog.EpochOf(dest);
  stats_.migrations_started++;
  placed[dest]++;  // later candidates in this tick see the pressure
  GEOTP_INFO("balancer: migrating " << range.ToString() << " -> " << dest
                                    << " (heat " << heat << ")");
  auto req = std::make_unique<ShardMigrateRequest>();
  req->from = dm_->id();
  req->to = catalog.LeaderOf(range.owner);
  req->migration_id = m.id;
  req->range = range;
  req->dest = dest;
  req->dest_leader = catalog.LeaderOf(dest);
  req->new_version = m.new_version;
  req->timeout = config_.migration_timeout;
  dm_->transport()->Send(std::move(req));
  in_flight_.push_back(m);
  return true;
}

bool ShardBalancer::ForceSplit(uint32_t table, uint64_t at) {
  middleware::Catalog& catalog = dm_->catalog();
  if (!catalog.HasShardMap()) return false;
  const ShardRange* range =
      catalog.shard_map().RangeOf(RecordKey{table, at});
  if (range == nullptr || Migrating(*range)) return false;
  const ShardRange original = *range;
  if (!catalog.mutable_shard_map().SplitAt(table, at, MintVersion())) {
    return false;
  }
  FinishSplit(original);
  return true;
}

bool ShardBalancer::ForceMerge(uint32_t table, uint64_t key) {
  middleware::Catalog& catalog = dm_->catalog();
  if (!catalog.HasShardMap()) return false;
  const std::vector<ShardRange>& ranges = catalog.shard_map().ranges();
  for (size_t i = 0; i + 1 < ranges.size(); ++i) {
    if (ranges[i].table != table ||
        !ranges[i].Contains(RecordKey{table, key})) {
      continue;
    }
    if (Migrating(ranges[i]) || Migrating(ranges[i + 1])) return false;
    const SpanKey left = KeyOf(ranges[i]);
    const SpanKey right = KeyOf(ranges[i + 1]);
    if (!catalog.mutable_shard_map().Merge(i, MintVersion())) return false;
    FinishMerge(i, left, right);
    return true;
  }
  return false;
}

void ShardBalancer::OnCutoverReady(const protocol::ShardCutoverReady& ready) {
  const uint64_t migration_id = ready.migration_id;
  const ShardRange& range = ready.range;
  auto it = std::find_if(
      in_flight_.begin(), in_flight_.end(),
      [migration_id](const Migration& m) { return m.id == migration_id; });
  if (it == in_flight_.end()) return;  // cancelled; placement unchanged
  const Migration m = *it;
  in_flight_.erase(it);
  middleware::Catalog& catalog = dm_->catalog();
  const bool epoch_moved =
      catalog.EpochOf(m.source) != m.source_leader_epoch ||
      catalog.EpochOf(m.dest) != m.dest_leader_epoch;
  if (epoch_moved) {
    if (!ready.logged) {
      // Fallback path (unreplicated source): a failover at either end
      // since planning invalidates the protocol state behind this report
      // (the fence and the installed records were node-local and died
      // with the deposed leader): do NOT publish — the range stays at the
      // source, which is always safe — and let a later tick retry the
      // migration against the new leadership. This compare is inherently
      // racy (a LeaderAnnounce still in flight at publish time defeats
      // it), which is exactly why replicated groups journal the cutover
      // instead.
      stats_.migrations_cancelled++;
      auto cancel = std::make_unique<ShardMigrateCancel>();
      cancel->from = dm_->id();
      cancel->to = catalog.LeaderOf(m.source);
      cancel->migration_id = m.id;
      dm_->transport()->Send(std::move(cancel));
      return;
    }
    // The source group journaled the cutover through its replicated log:
    // the transfer is quorum-durable at the destination, and any promoted
    // source leader re-fences the range from the record before serving.
    // Publishing is safe regardless of what the (possibly still in
    // flight) LeaderAnnounce did to our epoch view.
    stats_.logged_epoch_overrides++;
    GEOTP_INFO("balancer: publishing migration " << m.id
               << " across a leader-epoch change (cutover is journaled in "
               << "the source group's log)");
  }
  stats_.migrations_completed++;
  GEOTP_CHECK(range.owner == m.dest && range.version == m.new_version &&
                  range.SameSpan(m.range),
              "cutover report does not match the planned migration");
  catalog.mutable_shard_map().Adopt({range});
  dm_->NoteShardEpoch(catalog.ShardEpoch());
  range_state_[KeyOf(range)].cooldown_until =
      dm_->timer()->Now() + config_.range_cooldown;
  Publish();
}

void ShardBalancer::OnMigrateAborted(uint64_t migration_id) {
  auto it = std::find_if(
      in_flight_.begin(), in_flight_.end(),
      [migration_id](const Migration& m) { return m.id == migration_id; });
  if (it == in_flight_.end()) return;  // already cancelled / completed
  const Migration m = *it;
  in_flight_.erase(it);
  stats_.migrations_cancelled++;
  stats_.aborted_by_source++;
  // The source already resolved its side from the log; flush the
  // destination's ordering buffer (idempotent if the source's own cancel
  // got there first).
  auto cancel = std::make_unique<ShardMigrateCancel>();
  cancel->from = dm_->id();
  cancel->to = dm_->catalog().LeaderOf(m.dest);
  cancel->migration_id = m.id;
  dm_->transport()->Send(std::move(cancel));
}

void ShardBalancer::Publish() {
  stats_.map_publishes++;
  middleware::Catalog& catalog = dm_->catalog();
  std::vector<NodeId> targets = config_.peer_middlewares;
  for (NodeId logical : catalog.AllDataSources()) {
    targets.push_back(catalog.LeaderOf(logical));
    for (NodeId follower : catalog.FollowersOf(logical)) {
      targets.push_back(follower);
    }
  }
  for (NodeId target : targets) {
    if (target == dm_->id()) continue;  // adopted locally already
    auto update = std::make_unique<ShardMapUpdate>();
    update->from = dm_->id();
    update->to = target;
    update->entries = catalog.shard_map().ranges();
    dm_->transport()->Send(std::move(update));
  }
}

}  // namespace sharding
}  // namespace geotp
