// Model tests for common::FlatMap, the one open-addressing table: each
// operation against std::unordered_map, for both key types the tables use
// (RecordKey with its occupancy word in the key's padding, and TxnId).
#include "common/flat_map.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"

namespace geotp {
namespace common {
namespace {

template <typename K>
struct KeySpace;

template <>
struct KeySpace<RecordKey> {
  using Hash = RecordKeyHash;
  /// Key `i`, alternating between two tables, so equal `key` fields also
  /// differ by table.
  static RecordKey Key(uint64_t i) {
    return RecordKey{static_cast<uint32_t>(i % 2), i / 2};
  }
  static std::vector<RecordKey> Edges() {
    return {{0, 0}, {0, UINT64_MAX}, {UINT32_MAX, 0},
            {UINT32_MAX, UINT64_MAX}};
  }
};

template <>
struct KeySpace<TxnId> {
  using Hash = TxnIdHash;
  static TxnId Key(uint64_t i) { return i; }  // dense, like transaction ids
  static std::vector<TxnId> Edges() { return {0, UINT64_MAX}; }
};

template <typename K>
class FlatMapTest : public ::testing::Test {
 protected:
  using Space = KeySpace<K>;
  using Map = FlatMap<K, uint64_t, typename Space::Hash>;
  using Model = std::unordered_map<K, uint64_t, typename Space::Hash>;

  /// Every model key is found with its value, every probe key not in the
  /// model is absent, and ForEach visits each key exactly once.
  static void ExpectMatches(const Map& map, const Model& model,
                            const std::vector<K>& probes) {
    ASSERT_EQ(map.size(), model.size());
    ASSERT_EQ(map.empty(), model.empty());
    for (const K& key : probes) {
      const auto it = model.find(key);
      const uint64_t* got = map.Find(key);
      ASSERT_EQ(got != nullptr, it != model.end());
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
    }
    Model visited;
    map.ForEach([&](const K& key, uint64_t value) {
      EXPECT_TRUE(visited.emplace(key, value).second);
    });
    EXPECT_EQ(visited, model);
  }

  /// `count` keys whose home slot in a 16-slot table is 14 or 15, so their
  /// probe run wraps around the end of the array into slots 0, 1, ...
  static std::vector<K> KeysHomedAtTheEnd(size_t count) {
    std::vector<K> keys;
    for (uint64_t i = 0; keys.size() < count; ++i) {
      const K key = Space::Key(i);
      if ((typename Space::Hash()(key) & 15) >= 14) keys.push_back(key);
    }
    return keys;
  }
};

using KeyTypes = ::testing::Types<RecordKey, TxnId>;
TYPED_TEST_SUITE(FlatMapTest, KeyTypes);

// Random inserts, overwrites and erases over a small key space (long probe
// runs, frequent back-shifts) plus the edge keys, through several growths.
TYPED_TEST(FlatMapTest, MatchesAnUnorderedMapModel) {
  using Space = typename TestFixture::Space;
  typename TestFixture::Map map;
  typename TestFixture::Model model;
  constexpr uint64_t kSpace = 1200;
  std::vector<TypeParam> probes = Space::Edges();
  for (uint64_t i = 0; i < kSpace; ++i) probes.push_back(Space::Key(i));
  std::mt19937_64 rng(0xF1A7);
  for (uint64_t step = 1; step <= 40000; ++step) {
    // The first quarter mostly inserts, so the table grows past 1024 slots.
    TypeParam key = Space::Key(rng() % kSpace);
    if (step % 97 == 0) key = Space::Edges()[rng() % Space::Edges().size()];
    if (rng() % 100 < (step < 10000 ? 85u : 55u)) {
      map.FindOrInsert(key) = step;
      model[key] = step;
    } else {
      ASSERT_EQ(map.Erase(key), model.erase(key) == 1);
    }
    ASSERT_EQ(map.size(), model.size());
    const auto it = model.find(key);
    const uint64_t* got = map.Find(key);
    ASSERT_EQ(got != nullptr, it != model.end());
    if (got != nullptr) {
      ASSERT_EQ(*got, it->second);
    }
    if (step % 1000 == 0) {
      TestFixture::ExpectMatches(map, model, probes);
      if (this->HasFatalFailure()) return;
    }
  }
  TestFixture::ExpectMatches(map, model, probes);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 0u);
  for (const TypeParam& key : probes) EXPECT_EQ(map.Find(key), nullptr);
}

// 16 slots at first, doubled when an insert would pass 3/4 full, and every
// key still found after each doubling (a grow must rehash).
TYPED_TEST(FlatMapTest, GrowsByDoublingAtThreeQuartersFull) {
  using Space = typename TestFixture::Space;
  typename TestFixture::Map map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.Find(Space::Key(0)), nullptr);
  EXPECT_FALSE(map.Erase(Space::Key(0)));
  for (uint64_t n = 1; n <= 3000; ++n) {
    map.FindOrInsert(Space::Key(n)) = n;
    size_t expected = 16;
    while (4 * n > 3 * expected) expected *= 2;
    ASSERT_EQ(map.capacity(), expected) << n << " keys";
    // Overwriting a present key never grows the table.
    map.FindOrInsert(Space::Key(n)) = n;
    ASSERT_EQ(map.capacity(), expected);
    if ((n & (n - 1)) == 0 || 4 * (n + 1) > 3 * expected) {
      for (uint64_t k = 1; k <= n; ++k) {
        const uint64_t* got = map.Find(Space::Key(k));
        ASSERT_NE(got, nullptr) << k << " of " << n;
        ASSERT_EQ(*got, k);
      }
    }
  }
  EXPECT_EQ(map.capacity(), 4096u);
}

// A probe run that wraps past the last slot: erasing any member, in many
// orders, leaves every other member reachable from its home slot.
TYPED_TEST(FlatMapTest, ErasesInsideRunsThatWrap) {
  const auto keys = TestFixture::KeysHomedAtTheEnd(10);  // 10 of 16 slots
  std::mt19937_64 rng(42);
  for (int round = 0; round < 200; ++round) {
    typename TestFixture::Map map;
    typename TestFixture::Model model;
    for (size_t i = 0; i < keys.size(); ++i) {
      map.FindOrInsert(keys[i]) = i + 1;
      model[keys[i]] = i + 1;
    }
    ASSERT_EQ(map.capacity(), 16u);
    std::vector<size_t> order(keys.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t i : order) {
      ASSERT_TRUE(map.Erase(keys[i]));
      ASSERT_FALSE(map.Erase(keys[i]));
      model.erase(keys[i]);
      TestFixture::ExpectMatches(map, model, keys);
      if (this->HasFatalFailure()) return;
    }
  }
}

// Zero and all-ones keys are ordinary keys: nothing reads occupancy from a
// key value, so an empty slot never passes for one of them.
TYPED_TEST(FlatMapTest, EdgeKeysAreOrdinaryKeys) {
  using Space = typename TestFixture::Space;
  const auto edges = Space::Edges();
  typename TestFixture::Map map;
  typename TestFixture::Model model;
  map.FindOrInsert(Space::Key(7)) = 1;
  model[Space::Key(7)] = 1;
  std::vector<TypeParam> probes = edges;
  probes.push_back(Space::Key(7));
  TestFixture::ExpectMatches(map, model, probes);
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_FALSE(map.Erase(edges[i]));
    map.FindOrInsert(edges[i]) = 100 + i;
    model[edges[i]] = 100 + i;
    TestFixture::ExpectMatches(map, model, probes);
  }
  for (const TypeParam& key : edges) {
    EXPECT_TRUE(map.Erase(key));
    model.erase(key);
    TestFixture::ExpectMatches(map, model, probes);
  }
}

// FindOrInsert value-initializes a new entry, also in a slot an erase just
// vacated, and returns the stored value for a present one.
TYPED_TEST(FlatMapTest, FindOrInsertValueInitializes) {
  using Space = typename TestFixture::Space;
  typename TestFixture::Map map;
  for (uint64_t i = 0; i < 100; ++i) {
    uint64_t& value = map.FindOrInsert(Space::Key(i));
    EXPECT_EQ(value, 0u);
    value = i + 1000;
  }
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(map.FindOrInsert(Space::Key(i)), i + 1000);
  }
  for (uint64_t i = 0; i < 100; i += 2) ASSERT_TRUE(map.Erase(Space::Key(i)));
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(map.FindOrInsert(Space::Key(i)), i % 2 == 0 ? 0 : i + 1000);
  }
  for (const TypeParam& key : Space::Edges()) {
    EXPECT_EQ(map.FindOrInsert(key), 0u);
  }
}

// EraseIf tests each entry exactly once and drops exactly the matching
// ones, also when the erased entries sit in runs that wrap.
TYPED_TEST(FlatMapTest, EraseIfMatchesTheModel) {
  using Space = typename TestFixture::Space;
  std::mt19937_64 rng(7);
  for (int round = 0; round < 50; ++round) {
    typename TestFixture::Map map;
    typename TestFixture::Model model;
    std::vector<TypeParam> probes = TestFixture::KeysHomedAtTheEnd(8);
    for (const TypeParam& key : Space::Edges()) probes.push_back(key);
    const uint64_t extra = rng() % 400;
    for (uint64_t i = 0; i < extra; ++i) probes.push_back(Space::Key(i));
    for (const TypeParam& key : probes) {
      const uint64_t value = rng() % 1000;
      map.FindOrInsert(key) = value;
      model[key] = value;
    }
    const uint64_t cut = rng() % 1000;
    typename TestFixture::Model tested;
    const size_t erased = map.EraseIf([&](const TypeParam& key, uint64_t v) {
      EXPECT_TRUE(tested.emplace(key, v).second) << "tested twice";
      return v >= cut;
    });
    EXPECT_EQ(tested, model);
    size_t expected = 0;
    for (auto it = model.begin(); it != model.end();) {
      if (it->second >= cut) {
        it = model.erase(it);
        ++expected;
      } else {
        ++it;
      }
    }
    EXPECT_EQ(erased, expected);
    TestFixture::ExpectMatches(map, model, probes);
    if (this->HasFatalFailure()) return;
  }
  typename TestFixture::Map empty;
  EXPECT_EQ(empty.EraseIf([](const TypeParam&, uint64_t) { return true; }),
            0u);
}

}  // namespace
}  // namespace common
}  // namespace geotp
