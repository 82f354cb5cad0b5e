// Tests for the hotspot footprint: hash index + LRU structure, charge
// handles, Eq. 4 w_lat updates, Eq. 5 forecasts and Eq. 9 abort
// probability, randomized structural property tests, and a differential
// test against a naive key-based ordered-map model.
#include "core/hotspot_footprint.h"

#include <algorithm>
#include <cmath>
#include <list>
#include <map>

#include <gtest/gtest.h>

#include "common/random.h"

namespace geotp {
namespace core {
namespace {

RecordKey K(uint64_t k) { return RecordKey{1, k}; }
std::vector<RecordKey> Keys(std::initializer_list<uint64_t> ks) {
  std::vector<RecordKey> out;
  for (uint64_t k : ks) out.push_back(K(k));
  return out;
}

/// One access to `keys` that finishes: dispatched, then settled.
void Access(HotspotFootprint* fp, const std::vector<RecordKey>& keys,
            Micros lel, bool committed) {
  FootprintCharge charge;
  fp->OnDispatch(keys, &charge);
  fp->OnComplete(&charge, lel, committed);
}

/// One access to `keys` still in flight (its a_cnt stays charged).
void Hold(HotspotFootprint* fp, const std::vector<RecordKey>& keys) {
  FootprintCharge charge;
  fp->OnDispatch(keys, &charge);
}

/// Eq. 5 alone.
Micros ForecastLel(const HotspotFootprint& fp,
                   const std::vector<RecordKey>& keys) {
  return fp.Forecast(keys, nullptr);
}

/// Eq. 9 over one key set.
double AbortProbability(const HotspotFootprint& fp,
                        const std::vector<RecordKey>& keys) {
  double success = 1.0;
  fp.Forecast(keys, &success);
  return 1.0 - success;
}

TEST(FootprintTest, DispatchTracksActiveCount) {
  HotspotFootprint fp;
  FootprintCharge first;
  FootprintCharge second;
  fp.OnDispatch(Keys({1, 2}), &first);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(fp.Lookup(K(1))->a_cnt, 1);
  fp.OnDispatch(Keys({1}), &second);
  EXPECT_EQ(fp.Lookup(K(1))->a_cnt, 2);
  fp.OnComplete(&second, 1000, true);
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(fp.Lookup(K(1))->a_cnt, 1);
  EXPECT_EQ(fp.Lookup(K(2))->a_cnt, 1);
}

TEST(FootprintTest, CompleteUpdatesCounters) {
  HotspotFootprint fp;
  Access(&fp, Keys({1}), 1000, true);
  const RecordStats* stats = fp.Lookup(K(1));
  EXPECT_EQ(stats->t_cnt, 1u);
  EXPECT_EQ(stats->c_cnt, 1u);
  Access(&fp, Keys({1}), 1000, false);
  EXPECT_EQ(stats->t_cnt, 2u);
  EXPECT_EQ(stats->c_cnt, 1u);
  EXPECT_DOUBLE_EQ(stats->SuccessRatio(), 0.5);
}

TEST(FootprintTest, WLatConvergesTowardMeasurement) {
  FootprintConfig config;
  config.alpha = 0.5;
  HotspotFootprint fp(config);
  // Single-key subtransactions: the weight w_r is 1, so w_lat converges
  // toward the measured LEL.
  for (int i = 0; i < 40; ++i) {
    Access(&fp, Keys({1}), 10000, true);
  }
  EXPECT_NEAR(fp.Lookup(K(1))->w_lat, 10000.0, 500.0);
}

TEST(FootprintTest, AbortedCompletionsDoNotMoveWLat) {
  HotspotFootprint fp;
  Access(&fp, Keys({1}), 500, true);
  const double w = fp.Lookup(K(1))->w_lat;
  Access(&fp, Keys({1}), 999999, false);
  EXPECT_DOUBLE_EQ(fp.Lookup(K(1))->w_lat, w);
}

TEST(FootprintTest, ForecastSumsTrackedKeys) {
  HotspotFootprint fp;
  for (int i = 0; i < 30; ++i) {
    Access(&fp, Keys({1}), 4000, true);
    Access(&fp, Keys({2}), 2000, true);
  }
  const Micros forecast = ForecastLel(fp, Keys({1, 2}));
  EXPECT_NEAR(static_cast<double>(forecast), 6000.0, 600.0);
  // Untracked keys contribute nothing.
  EXPECT_EQ(ForecastLel(fp, Keys({99})), 0);
}

TEST(FootprintTest, AbortProbabilityMatchesEquation9) {
  HotspotFootprint fp;
  // Build history: 10 accesses, 5 committed -> success ratio 0.5.
  for (int i = 0; i < 10; ++i) {
    Access(&fp, Keys({1}), 100, i < 5);
  }
  // Queue depth: 3 concurrent accessors -> exponent max(3-1, 0) = 2.
  Hold(&fp, Keys({1}));
  Hold(&fp, Keys({1}));
  Hold(&fp, Keys({1}));
  EXPECT_NEAR(AbortProbability(fp, Keys({1})), 1.0 - std::pow(0.5, 2), 1e-9);
}

TEST(FootprintTest, AbortProbabilityZeroWhenIdle) {
  HotspotFootprint fp;
  for (int i = 0; i < 10; ++i) {
    Access(&fp, Keys({1}), 100, false);  // terrible history
  }
  // No concurrent accessors -> exponent 0 -> never blocked.
  EXPECT_DOUBLE_EQ(AbortProbability(fp, Keys({1})), 0.0);
}

TEST(FootprintTest, AbortProbabilityMultipliesAcrossKeys) {
  HotspotFootprint fp;
  for (uint64_t k : {1u, 2u}) {
    for (int i = 0; i < 10; ++i) {
      Access(&fp, Keys({k}), 100, i < 5);
    }
    Hold(&fp, Keys({k}));
    Hold(&fp, Keys({k}));  // a_cnt = 2 -> exponent 1
  }
  EXPECT_NEAR(AbortProbability(fp, Keys({1, 2})), 1.0 - 0.25, 1e-9);
}

TEST(FootprintTest, OnReleaseOnlyDropsActiveCount) {
  HotspotFootprint fp;
  FootprintCharge charge;
  fp.OnDispatch(Keys({1}), &charge);
  fp.OnRelease(&charge);
  EXPECT_TRUE(charge.empty());
  const RecordStats* stats = fp.Lookup(K(1));
  EXPECT_EQ(stats->a_cnt, 0);
  EXPECT_EQ(stats->t_cnt, 0u);
}

TEST(FootprintTest, DuplicateKeyChargedAndSettledTwice) {
  HotspotFootprint fp;
  FootprintCharge charge;
  fp.OnDispatch(Keys({5, 6, 5}), &charge);
  EXPECT_EQ(charge.size(), 3u);
  EXPECT_EQ(fp.Lookup(K(5))->a_cnt, 2);
  fp.OnComplete(&charge, 900, true);
  EXPECT_EQ(fp.Lookup(K(5))->a_cnt, 0);
  EXPECT_EQ(fp.Lookup(K(5))->t_cnt, 2u);
  EXPECT_EQ(fp.Lookup(K(5))->c_cnt, 2u);
  EXPECT_EQ(fp.Lookup(K(6))->t_cnt, 1u);

  fp.OnDispatch(Keys({5, 5}), &charge);
  EXPECT_EQ(fp.Lookup(K(5))->a_cnt, 2);
  fp.OnRelease(&charge);
  EXPECT_EQ(fp.Lookup(K(5))->a_cnt, 0);
  EXPECT_EQ(fp.Lookup(K(5))->t_cnt, 2u);
  EXPECT_TRUE(fp.CheckInvariants());
}

TEST(FootprintTest, ChargedRecordSurvivesEvictionUntilSettled) {
  FootprintConfig config;
  config.capacity = 10;
  HotspotFootprint fp(config);
  FootprintCharge held;
  fp.OnDispatch(Keys({777, 778}), &held);
  // Churn far past capacity: the charged records sit at the cold end and
  // eviction skips them.
  for (uint64_t k = 0; k < 200; ++k) Access(&fp, Keys({k}), 100, true);
  EXPECT_GT(fp.evictions(), 150u);
  ASSERT_NE(fp.Lookup(K(777)), nullptr);
  ASSERT_NE(fp.Lookup(K(778)), nullptr);
  EXPECT_EQ(fp.Lookup(K(777))->a_cnt, 1);
  // The handle still reaches the same records: settling updates them.
  fp.OnComplete(&held, 5000, true);
  EXPECT_EQ(fp.Lookup(K(777))->a_cnt, 0);
  EXPECT_EQ(fp.Lookup(K(777))->t_cnt, 1u);
  EXPECT_EQ(fp.Lookup(K(778))->c_cnt, 1u);
  EXPECT_TRUE(fp.CheckInvariants());
  // Settled, they are ordinary records and go with the next churn.
  for (uint64_t k = 1000; k < 1020; ++k) Access(&fp, Keys({k}), 100, true);
  EXPECT_EQ(fp.Lookup(K(777)), nullptr);
  EXPECT_EQ(fp.Lookup(K(778)), nullptr);
  EXPECT_TRUE(fp.CheckInvariants());
}

TEST(FootprintDeathTest, StaleChargeStopsTheRun) {
  // A charge settled twice would decrement another dispatch's a_cnt (or a
  // recycled slot's record): the footprint stops the run instead.
  HotspotFootprint fp;
  FootprintCharge charge;
  fp.OnDispatch(Keys({1}), &charge);
  const FootprintCharge stale = charge;
  fp.OnRelease(&charge);
  FootprintCharge copy = stale;
  EXPECT_DEATH(fp.OnRelease(&copy), "holds no a_cnt");
  copy = stale;
  EXPECT_DEATH(fp.OnComplete(&copy, 100, true), "holds no a_cnt");
}

TEST(FootprintTest, LruEvictsColdRecords) {
  FootprintConfig config;
  config.capacity = 100;
  HotspotFootprint fp(config);
  for (uint64_t k = 0; k < 500; ++k) {
    Access(&fp, Keys({k}), 100, true);
  }
  EXPECT_LE(fp.size(), 100u);
  EXPECT_GT(fp.evictions(), 0u);
  // The most recent keys survive.
  EXPECT_NE(fp.Lookup(K(499)), nullptr);
  EXPECT_EQ(fp.Lookup(K(0)), nullptr);
  EXPECT_TRUE(fp.CheckInvariants());
}

TEST(FootprintTest, BusyRecordsNotEvicted) {
  FootprintConfig config;
  config.capacity = 10;
  HotspotFootprint fp(config);
  Hold(&fp, Keys({777}));  // a_cnt = 1, never completed
  for (uint64_t k = 0; k < 100; ++k) {
    Access(&fp, Keys({k}), 100, true);
  }
  ASSERT_NE(fp.Lookup(K(777)), nullptr);
  EXPECT_EQ(fp.Lookup(K(777))->a_cnt, 1);
  EXPECT_TRUE(fp.CheckInvariants());
}

TEST(FootprintTest, RangeScanOrdered) {
  HotspotFootprint fp;
  for (uint64_t k : {50u, 10u, 30u, 20u, 40u}) {
    Access(&fp, Keys({k}), 100, true);
  }
  auto range = fp.Range(K(15), K(45));
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].first.key, 20u);
  EXPECT_EQ(range[1].first.key, 30u);
  EXPECT_EQ(range[2].first.key, 40u);
}

TEST(FootprintTest, RangeAcrossTables) {
  HotspotFootprint fp;
  Hold(&fp, {RecordKey{1, 5}, RecordKey{2, 5}});
  auto range = fp.Range(RecordKey{1, 0}, RecordKey{1, 100});
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0].first.table, 1u);
}

TEST(FootprintPropertyTest, RandomTrafficKeepsInvariants) {
  Rng rng(0xABCD);
  FootprintConfig config;
  config.capacity = 64;
  HotspotFootprint fp(config);
  std::vector<FootprintCharge> outstanding;
  for (int step = 0; step < 30000; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.5) {
      std::vector<RecordKey> keys;
      const int n = static_cast<int>(rng.NextU64(4)) + 1;
      for (int i = 0; i < n; ++i) keys.push_back(K(rng.NextU64(1000)));
      outstanding.emplace_back();
      fp.OnDispatch(keys, &outstanding.back());
    } else if (!outstanding.empty()) {
      const size_t idx = rng.NextU64(outstanding.size());
      fp.OnComplete(&outstanding[idx], static_cast<Micros>(rng.NextU64(5000)),
                    rng.NextBool(0.8));
      outstanding.erase(outstanding.begin() + static_cast<long>(idx));
    }
    if (step % 1000 == 0) {
      ASSERT_TRUE(fp.CheckInvariants()) << "step " << step;
    }
  }
  EXPECT_TRUE(fp.CheckInvariants());
}

TEST(FootprintPropertyTest, HeavyEvictionChurn) {
  Rng rng(0x1234);
  FootprintConfig config;
  config.capacity = 8;
  HotspotFootprint fp(config);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t k = rng.NextU64(10000);
    Access(&fp, Keys({k}), 100, true);
    if (step % 500 == 0) {
      ASSERT_TRUE(fp.CheckInvariants());
    }
  }
  EXPECT_LE(fp.size(), 8u);
  EXPECT_GT(fp.evictions(), 10000u);
}

TEST(FootprintTest, ApproxBytesGrowsWithSize) {
  HotspotFootprint fp;
  const size_t empty = fp.ApproxBytes();
  for (uint64_t k = 0; k < 100; ++k) Hold(&fp, Keys({k}));
  EXPECT_GT(fp.ApproxBytes(), empty);
}

// ---------------------------------------------------------------------------
// Differential test: the footprint against a naive model of its contract —
// an ordered map of records plus a list LRU (front = most recent) that
// evicts from the cold end, skipping busy records and the record being
// touched. The model settles a dispatch by its keys, the footprint by the
// charge handle the dispatch returned: both must reach the same records.
// ---------------------------------------------------------------------------

class ReferenceFootprint {
 public:
  explicit ReferenceFootprint(FootprintConfig config) : config_(config) {}

  void OnDispatch(const std::vector<RecordKey>& keys) {
    for (const RecordKey& key : keys) Touch(key).a_cnt++;
  }

  void OnComplete(const std::vector<RecordKey>& keys, Micros lel,
                  bool committed) {
    if (keys.empty()) return;
    double w_sum = 0.0;
    for (const RecordKey& key : keys) {
      const RecordStats* stats = Lookup(key);
      w_sum += stats != nullptr ? stats->w_lat : kInitialWLat;
    }
    if (w_sum <= 0.0) w_sum = 1.0;
    for (const RecordKey& key : keys) {
      RecordStats& stats = Touch(key);
      if (committed) {
        const double weight = stats.w_lat > 0.0 ? stats.w_lat / w_sum
                                                : 1.0 / keys.size();
        stats.w_lat = config_.alpha * stats.w_lat +
                      (1.0 - config_.alpha) *
                          (static_cast<double>(lel) * weight);
      }
      stats.t_cnt++;
      if (committed) stats.c_cnt++;
      if (stats.a_cnt > 0) stats.a_cnt--;
    }
  }

  void OnRelease(const std::vector<RecordKey>& keys) {
    for (const RecordKey& key : keys) {
      auto it = records_.find(key);
      if (it != records_.end() && it->second.stats.a_cnt > 0) {
        it->second.stats.a_cnt--;
      }
    }
  }

  Micros ForecastLel(const std::vector<RecordKey>& keys) const {
    double total = 0.0;
    for (const RecordKey& key : keys) {
      if (const RecordStats* stats = Lookup(key)) total += stats->w_lat;
    }
    return static_cast<Micros>(total);
  }

  double AbortProbability(const std::vector<RecordKey>& keys) const {
    double success = 1.0;
    for (const RecordKey& key : keys) {
      const RecordStats* stats = Lookup(key);
      if (stats == nullptr || stats->a_cnt <= 1) continue;
      success *= std::pow(stats->SuccessRatio(),
                          static_cast<double>(stats->a_cnt - 1));
    }
    return 1.0 - success;
  }

  const RecordStats* Lookup(const RecordKey& key) const {
    auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second.stats;
  }

  std::vector<std::pair<RecordKey, RecordStats>> Range(
      const RecordKey& lo, const RecordKey& hi) const {
    std::vector<std::pair<RecordKey, RecordStats>> out;
    for (auto it = records_.lower_bound(lo);
         it != records_.end() && !(hi < it->first); ++it) {
      out.emplace_back(it->first, it->second.stats);
    }
    return out;
  }

  size_t size() const { return records_.size(); }
  uint64_t evictions() const { return evictions_; }
  /// Busy records passed over on the way to a victim.
  uint64_t busy_skips() const { return busy_skips_; }

 private:
  struct Entry {
    RecordStats stats;
    std::list<RecordKey>::iterator lru;
  };

  RecordStats& Touch(const RecordKey& key) {
    auto it = records_.find(key);
    if (it != records_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.stats;
    }
    lru_.push_front(key);
    Entry entry;
    entry.stats.w_lat = kInitialWLat;
    entry.lru = lru_.begin();
    records_.emplace(key, entry);
    while (records_.size() > config_.capacity) {
      // Coldest idle record, never the head (the record being touched).
      const auto head = std::prev(lru_.rend());
      const auto victim = std::find_if(
          lru_.rbegin(), head,
          [&](const RecordKey& k) { return records_.at(k).stats.a_cnt == 0; });
      busy_skips_ += static_cast<uint64_t>(std::distance(lru_.rbegin(), victim));
      if (victim == head) break;  // everything busy: soft overflow
      records_.erase(*victim);
      lru_.erase(std::next(victim).base());
      ++evictions_;
    }
    return records_.at(key).stats;
  }

  FootprintConfig config_;
  std::map<RecordKey, Entry> records_;
  std::list<RecordKey> lru_;
  uint64_t evictions_ = 0;
  uint64_t busy_skips_ = 0;
};

void ExpectSameStats(const RecordStats& got, const RecordStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.w_lat, want.w_lat) << where;
  EXPECT_EQ(got.t_cnt, want.t_cnt) << where;
  EXPECT_EQ(got.c_cnt, want.c_cnt) << where;
  EXPECT_EQ(got.a_cnt, want.a_cnt) << where;
}

TEST(FootprintDifferentialTest, MatchesReferenceModel) {
  constexpr uint64_t kKeys = 600;
  // Capacity 8 is small enough that every resident record is often busy,
  // so the footprint overflows softly; 64 mostly evicts normally.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    FootprintConfig config;
    config.capacity = seed % 2 == 0 ? 8 : 64;
    config.alpha = 0.6;
    bool overflowed = false;
    HotspotFootprint fp(config);
    ReferenceFootprint ref(config);
    // Half the draws come from a hot set of 40 keys, half spread over two
    // tables of kKeys: hot records stay resident, the rest churn the LRU.
    auto draw = [&]() {
      if (rng.NextBool(0.5)) return RecordKey{1, rng.NextU64(40)};
      return RecordKey{static_cast<uint32_t>(1 + rng.NextU64(2)),
                       rng.NextU64(kKeys)};
    };
    auto draw_set = [&]() {
      std::vector<RecordKey> keys;
      const int n = static_cast<int>(rng.NextU64(5)) + 1;
      for (int i = 0; i < n; ++i) keys.push_back(draw());  // may repeat
      return keys;
    };
    struct Outstanding {
      std::vector<RecordKey> keys;
      FootprintCharge charge;
    };
    std::vector<Outstanding> outstanding;

    for (int step = 0; step < 6000; ++step) {
      const double action = rng.NextDouble();
      if (action < 0.45 || outstanding.empty()) {
        outstanding.push_back(Outstanding{draw_set(), FootprintCharge()});
        fp.OnDispatch(outstanding.back().keys, &outstanding.back().charge);
        ref.OnDispatch(outstanding.back().keys);
      } else if (action < 0.97) {
        // Settle a random outstanding dispatch; old ones linger, so busy
        // records sit at the cold end and force eviction to skip them.
        const size_t idx = rng.NextU64(outstanding.size());
        Outstanding settled = std::move(outstanding[idx]);
        outstanding.erase(outstanding.begin() + static_cast<long>(idx));
        if (rng.NextBool(0.15)) {
          fp.OnRelease(&settled.charge);
          ref.OnRelease(settled.keys);
        } else {
          const Micros lel = static_cast<Micros>(rng.NextU64(20000));
          const bool committed = rng.NextBool(0.75);
          fp.OnComplete(&settled.charge, lel, committed);
          ref.OnComplete(settled.keys, lel, committed);
        }
      } else {
        // A round of one to three participants, one settled at once: the
        // fused scan reads Eq. 5 per participant and Eq. 9 over the
        // round, with the model's per-key values multiplied in order.
        std::vector<std::vector<RecordKey>> round;
        std::vector<RecordKey> all_keys;
        const int participants = static_cast<int>(rng.NextU64(3)) + 1;
        double success = 1.0;
        for (int i = 0; i < participants; ++i) {
          round.push_back(draw_set());
          all_keys.insert(all_keys.end(), round.back().begin(),
                          round.back().end());
          EXPECT_EQ(fp.Forecast(round.back(), &success),
                    ref.ForecastLel(round.back()));
        }
        EXPECT_EQ(1.0 - success, ref.AbortProbability(all_keys));
        Access(&fp, round.front(), 700, true);
        ref.OnDispatch(round.front());
        ref.OnComplete(round.front(), 700, true);
      }
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      // After every step: the same tracked records with the same stats,
      // the same evictions, and a consistent structure.
      ASSERT_EQ(fp.size(), ref.size()) << where;
      ASSERT_EQ(fp.evictions(), ref.evictions()) << where;
      ASSERT_TRUE(fp.CheckInvariants()) << where;
      const RecordKey all_lo{0, 0};
      const RecordKey all_hi{UINT32_MAX, UINT64_MAX};
      const auto tracked = fp.Range(all_lo, all_hi);
      const auto want_tracked = ref.Range(all_lo, all_hi);
      ASSERT_EQ(tracked.size(), want_tracked.size()) << where;
      for (size_t r = 0; r < tracked.size(); ++r) {
        ASSERT_EQ(tracked[r].first, want_tracked[r].first) << where;
        ExpectSameStats(tracked[r].second, want_tracked[r].second, where);
      }
      overflowed |= fp.size() > config.capacity;
      if (step % 100 != 0) continue;

      for (uint32_t table = 1; table <= 2; ++table) {
        for (uint64_t k = 0; k < kKeys; ++k) {
          const RecordKey key{table, k};
          const RecordStats* got = fp.Lookup(key);
          const RecordStats* want = ref.Lookup(key);
          ASSERT_EQ(got == nullptr, want == nullptr)
              << where << " key " << key.ToString();
          if (got != nullptr) ExpectSameStats(*got, *want, where);
        }
      }
      const auto probe = draw_set();
      EXPECT_EQ(ForecastLel(fp, probe), ref.ForecastLel(probe)) << where;
      EXPECT_EQ(AbortProbability(fp, probe), ref.AbortProbability(probe))
          << where;

      // Range and Histogram over a random window; it may span tables.
      const RecordKey a = draw();
      const RecordKey b = draw();
      const RecordKey lo = std::min(a, b);
      const RecordKey hi = a < b ? b : a;
      const auto got = fp.Range(lo, hi);
      const auto want = ref.Range(lo, hi);
      ASSERT_EQ(got.size(), want.size()) << where;
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].first, want[r].first) << where;
        ExpectSameStats(got[r].second, want[r].second, where);
      }
      const RecordKey table_lo{1, 0};
      const RecordKey table_hi{1, kKeys};
      const size_t buckets = 1 + rng.NextU64(12);
      const auto hist = fp.Histogram(table_lo, table_hi, buckets);
      const auto in_table = ref.Range(table_lo, table_hi);
      ASSERT_EQ(hist.empty(), in_table.empty()) << where;
      if (in_table.empty()) continue;
      EXPECT_EQ(hist.extent_lo, in_table.front().first.key) << where;
      EXPECT_EQ(hist.extent_hi, in_table.back().first.key) << where;
      std::vector<uint64_t> expected(buckets, 0);
      uint64_t total = 0;
      for (const auto& [key, stats] : in_table) {
        const size_t bucket = std::min<uint64_t>(
            (key.key - hist.extent_lo) / hist.bucket_width, buckets - 1);
        expected[bucket] += stats.t_cnt;
        total += stats.t_cnt;
      }
      EXPECT_EQ(hist.bucket_width,
                (hist.extent_hi - hist.extent_lo) / buckets + 1)
          << where;
      EXPECT_EQ(hist.buckets, expected) << where;
      EXPECT_EQ(hist.total, total) << where;
    }
    // The traffic really exercised eviction past busy records.
    EXPECT_GT(fp.evictions(), 1000u) << "seed " << seed;
    EXPECT_GT(ref.busy_skips(), 100u) << "seed " << seed;
    if (config.capacity == 8) {
      EXPECT_TRUE(overflowed) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace geotp
