// Tests for the open-addressing record store and its KeyTable: randomized
// model tests against std::map across several table growths (and, for the
// table, erases), plus edge keys.
#include "storage/record_store.h"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace geotp {
namespace storage {
namespace {

TEST(RecordStoreTest, AbsentKeyReadsNullopt) {
  RecordStore store;
  EXPECT_FALSE(store.Get(RecordKey{1, 0}).has_value());
  store.Put(RecordKey{1, 5}, 7);
  EXPECT_FALSE(store.Get(RecordKey{2, 5}).has_value());
  EXPECT_FALSE(store.Get(RecordKey{1, 6}).has_value());
  EXPECT_EQ(store.Get(RecordKey{1, 5})->value, 7);
}

TEST(RecordStoreTest, EdgeKeysAreOrdinaryKeys) {
  // Occupancy is not encoded in any key value: zero keys and all-ones keys
  // store and read back like any other.
  RecordStore store;
  const std::vector<RecordKey> keys = {
      RecordKey{0, 0}, RecordKey{0, UINT64_MAX}, RecordKey{UINT32_MAX, 0},
      RecordKey{UINT32_MAX, UINT64_MAX}};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_FALSE(store.Get(keys[i]).has_value());
    store.Put(keys[i], static_cast<int64_t>(i) - 2);
  }
  EXPECT_EQ(store.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(store.Get(keys[i]).has_value());
    EXPECT_EQ(store.Get(keys[i])->value, static_cast<int64_t>(i) - 2);
  }
}

TEST(RecordStoreTest, FindOrInsertCreatesZeroAndWritesInPlace) {
  RecordStore store;
  int64_t& slot = store.FindOrInsert(RecordKey{3, 9});
  EXPECT_EQ(slot, 0);
  slot = 41;
  EXPECT_EQ(store.Get(RecordKey{3, 9})->value, 41);
  store.FindOrInsert(RecordKey{3, 9}) += 1;
  EXPECT_EQ(store.Get(RecordKey{3, 9})->value, 42);
  EXPECT_EQ(store.size(), 1u);
}

// Random Put / Apply / FindOrInsert / Get traffic over two tables, checked
// against std::map after every step. 20k keys take the table from empty
// through about eleven doublings.
TEST(RecordStorePropertyTest, MatchesMapModelAcrossGrowth) {
  Rng rng(0x5EED);
  RecordStore store;
  std::map<RecordKey, int64_t> model;
  constexpr uint64_t kKeysPerTable = 10000;
  auto draw = [&rng]() {
    const uint32_t table = rng.NextBool(0.5) ? 1 : 7;
    switch (rng.NextU64(8)) {
      case 0:
        return RecordKey{table, 0};
      case 1:
        return RecordKey{table, UINT64_MAX};
      default:
        // Spread the ids so neighbouring keys land on scattered slots.
        return RecordKey{table, rng.NextU64(kKeysPerTable) * 0x9E3779B9ULL};
    }
  };
  size_t growth_checks = 0;
  size_t last_size = 0;
  for (int step = 0; step < 60000; ++step) {
    const RecordKey key = draw();
    const int64_t value = static_cast<int64_t>(rng.NextU64(1000)) - 500;
    switch (rng.NextU64(4)) {
      case 0:
        store.Put(key, value);
        model[key] = value;
        break;
      case 1:
        store.Apply(key, value);
        model[key] = value;
        break;
      case 2:
        store.FindOrInsert(key) += value;
        model[key] += value;
        break;
      default: {
        auto it = model.find(key);
        auto got = store.Get(key);
        ASSERT_EQ(got.has_value(), it != model.end()) << key.ToString();
        if (got) {
          ASSERT_EQ(got->value, it->second) << key.ToString();
        }
        break;
      }
    }
    ASSERT_EQ(store.size(), model.size());
    // Re-check the whole store each time the size crosses a power of two,
    // i.e. around every growth step.
    if ((store.size() & (store.size() - 1)) == 0 &&
        store.size() != last_size) {
      last_size = store.size();
      ++growth_checks;
      for (const auto& [k, v] : model) {
        auto got = store.Get(k);
        ASSERT_TRUE(got.has_value()) << k.ToString();
        ASSERT_EQ(got->value, v) << k.ToString();
      }
    }
  }
  EXPECT_GE(growth_checks, 3u);
  EXPECT_GT(model.size(), 4096u);

  // ForEach visits every resident key exactly once, with its value.
  std::map<RecordKey, int64_t> visited;
  size_t calls = 0;
  store.ForEach([&](const RecordKey& key, int64_t value) {
    ++calls;
    EXPECT_TRUE(visited.emplace(key, value).second) << key.ToString();
  });
  EXPECT_EQ(calls, model.size());
  EXPECT_EQ(visited, model);
}

// Erase (the lock table's path) against a map model: backward-shift
// deletion must keep every other key reachable from its home slot.
TEST(KeyTablePropertyTest, EraseMatchesMapModel) {
  Rng rng(0xE7A5E);
  KeyTable<uint64_t> table;
  std::map<RecordKey, uint64_t> model;
  for (int step = 0; step < 40000; ++step) {
    // A small key space keeps probe runs long and erases frequent.
    const RecordKey key{static_cast<uint32_t>(rng.NextU64(2)),
                        rng.NextU64(600)};
    if (rng.NextBool(0.55)) {
      const uint64_t value = rng.NextU64(1 << 20);
      table.FindOrInsert(key) = value;
      model[key] = value;
    } else {
      table.Erase(key);
      model.erase(key);
    }
    ASSERT_EQ(table.size(), model.size());
    if (step % 1000 == 0) {
      for (uint64_t k = 0; k < 600; ++k) {
        for (uint32_t t = 0; t < 2; ++t) {
          const RecordKey probe{t, k};
          auto it = model.find(probe);
          const uint64_t* got = table.Find(probe);
          ASSERT_EQ(got != nullptr, it != model.end()) << probe.ToString();
          if (got != nullptr) {
            ASSERT_EQ(*got, it->second) << probe.ToString();
          }
        }
      }
    }
  }
  std::map<RecordKey, uint64_t> visited;
  table.ForEach([&](const RecordKey& key, uint64_t value) {
    EXPECT_TRUE(visited.emplace(key, value).second) << key.ToString();
  });
  EXPECT_EQ(visited, model);
}

}  // namespace
}  // namespace storage
}  // namespace geotp
