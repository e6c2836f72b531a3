// Tests for the CAD View cache layer: key canonicalization, LRU eviction at
// the byte budget, invalidation, statistics, per-owner budgets, and
// concurrent lookup/insert hammering on the thread pool.

#include "src/core/view_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/thread_pool.h"

namespace dbx {
namespace {

// A minimal view whose ApproxCadViewBytes is >= `payload` bytes, so tests can
// drive the byte budget with precise sizes.
CadView MakeViewOfSize(size_t payload, const std::string& pivot = "p") {
  CadView view;
  view.pivot_attr = pivot;
  CadViewRow row;
  row.pivot_value.assign(payload, 'x');
  view.rows.push_back(std::move(row));
  return view;
}

ViewCacheKey MakeKey(const std::string& dataset,
                     std::vector<std::string> predicates,
                     const std::string& params = "fp") {
  return ViewCacheKey::Make(dataset, std::move(predicates), "Class", {},
                            params);
}

TEST(CanonicalizePredicateTest, CollapsesAndTrimsWhitespace) {
  EXPECT_EQ(CanonicalizePredicate("  Odor  =   'none'  "), "Odor = 'none'");
  EXPECT_EQ(CanonicalizePredicate("a\t=\n1"), "a = 1");
  EXPECT_EQ(CanonicalizePredicate("already canonical"), "already canonical");
  EXPECT_EQ(CanonicalizePredicate("   "), "");
  EXPECT_EQ(CanonicalizePredicate(""), "");
}

TEST(ViewCacheKeyTest, PredicateOrderAndWhitespaceInsensitive) {
  ViewCacheKey a = MakeKey("m", {"a = 1", "b = 2"});
  ViewCacheKey b = MakeKey("m", {"b   =  2", "a =\t1"});
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.canonical,
            "ds|1:m;pred|5:a = 1;pred|5:b = 2;pivot|5:Class;params|2:fp;");
}

TEST(ViewCacheKeyTest, DuplicatePredicatesCollapse) {
  ViewCacheKey a = MakeKey("m", {"a = 1", "a  =  1", "a = 1"});
  ViewCacheKey b = MakeKey("m", {"a = 1"});
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.canonical, "ds|1:m;pred|5:a = 1;pivot|5:Class;params|2:fp;");
}

TEST(ViewCacheKeyTest, EveryComponentDistinguishes) {
  ViewCacheKey base = MakeKey("m", {"a = 1"});
  EXPECT_NE(base.canonical, MakeKey("m2", {"a = 1"}).canonical);
  EXPECT_NE(base.canonical, MakeKey("m", {"a = 2"}).canonical);
  EXPECT_NE(base.canonical, MakeKey("m", {}).canonical);
  EXPECT_NE(base.canonical, MakeKey("m", {"a = 1"}, "fp2").canonical);
  EXPECT_NE(base.canonical,
            ViewCacheKey::Make("m", {"a = 1"}, "Odor", {}, "fp").canonical);
  EXPECT_NE(base.canonical,
            ViewCacheKey::Make("m", {"a = 1"}, "Class", {"e"}, "fp").canonical);
}

TEST(ViewCacheKeyTest, LengthPrefixingPreventsComponentCollisions) {
  // Without length prefixes, ("ab", "c") and ("a", "bc") could serialize to
  // the same canonical string.
  ViewCacheKey a = MakeKey("ab", {"c"});
  ViewCacheKey b = MakeKey("a", {"bc"});
  EXPECT_NE(a.canonical, b.canonical);
}

TEST(CadViewOptionsFingerprintTest, SensitiveToOutputAffectingFields) {
  CadViewOptions base;
  auto fp = CadViewOptionsFingerprint(base);
  ASSERT_TRUE(fp.has_value());

  CadViewOptions changed = base;
  changed.seed = base.seed + 1;
  EXPECT_NE(*CadViewOptionsFingerprint(changed), *fp);

  changed = base;
  changed.iunits_per_value = 7;
  EXPECT_NE(*CadViewOptionsFingerprint(changed), *fp);

  changed = base;
  changed.similarity_alpha = 0.9;
  EXPECT_NE(*CadViewOptionsFingerprint(changed), *fp);

  changed = base;
  changed.discretizer.max_numeric_bins = 4;
  EXPECT_NE(*CadViewOptionsFingerprint(changed), *fp);

  changed = base;
  changed.user_compare_attrs = {"Price"};
  EXPECT_NE(*CadViewOptionsFingerprint(changed), *fp);

  changed = base;
  changed.clustering_sample = 128;
  EXPECT_NE(*CadViewOptionsFingerprint(changed), *fp);
}

TEST(CadViewOptionsFingerprintTest, ThreadCountIsOutputNeutral) {
  CadViewOptions a;
  CadViewOptions b;
  b.num_threads = 8;
  EXPECT_EQ(*CadViewOptionsFingerprint(a), *CadViewOptionsFingerprint(b));
}

TEST(CadViewOptionsFingerprintTest, OpaquePreferenceIsUncacheable) {
  CadViewOptions o;
  o.preference = [](const IUnit&) { return 1.0; };
  EXPECT_FALSE(CadViewOptionsFingerprint(o).has_value());
}

TEST(CacheStatsLineTest, PrintsEveryCounterInDeclarationOrder) {
  ViewCacheStats stats;
  stats.hits = 1;
  stats.misses = 2;
  stats.inserts = 3;
  stats.evictions = 4;
  stats.invalidations = 5;
  stats.oversize_rejects = 6;
  stats.owner_budget_rejects = 7;
  stats.hit_saved_ms = 8.5;
  stats.bytes_in_use = 9;
  stats.entries = 10;
  stats.byte_budget = 11;
  EXPECT_EQ(CacheStatsLine(stats),
            "hits=1 misses=2 inserts=3 evictions=4 invalidations=5 "
            "oversize_rejects=6 owner_budget_rejects=7 hit_saved_ms=8.500 "
            "bytes_in_use=9 entries=10 byte_budget=11");
}

TEST(ViewCacheTest, LookupMissThenHit) {
  ViewCache cache(1u << 20);
  ViewCacheKey key = MakeKey("m", {"a = 1"});
  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, MakeViewOfSize(100), 12.5);
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->view.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(hit->build_cost_ms, 12.5);

  ViewCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes_in_use, 100u);
}

TEST(ViewCacheTest, HitCountersPerEntry) {
  ViewCache cache(1u << 20);
  ViewCacheKey key = MakeKey("m", {"a = 1"});
  cache.Insert(key, MakeViewOfSize(10), 1.0);
  cache.Lookup(key);
  cache.Lookup(key);
  cache.Lookup(key);
  auto infos = cache.Snapshot().entries;
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].hits, 3u);
}

TEST(ViewCacheTest, EvictsLeastRecentlyUsedAtByteBudget) {
  // Budget fits roughly two payload-dominated entries of ~4 KiB each.
  const size_t payload = 4096;
  const size_t entry_bytes = ApproxCadViewBytes(MakeViewOfSize(payload));
  ViewCache cache(2 * entry_bytes + entry_bytes / 2);

  ViewCacheKey k1 = MakeKey("m", {"a = 1"});
  ViewCacheKey k2 = MakeKey("m", {"a = 2"});
  ViewCacheKey k3 = MakeKey("m", {"a = 3"});
  cache.Insert(k1, MakeViewOfSize(payload), 1.0);
  cache.Insert(k2, MakeViewOfSize(payload), 1.0);
  // Touch k1 so k2 is the LRU victim.
  ASSERT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, MakeViewOfSize(payload), 1.0);

  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_EQ(cache.Lookup(k2), nullptr) << "LRU entry should have been evicted";
  EXPECT_NE(cache.Lookup(k3), nullptr);

  ViewCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes_in_use, stats.byte_budget);
}

TEST(ViewCacheTest, EntryLargerThanBudgetIsRejected) {
  ViewCache cache(512);
  ViewCacheKey key = MakeKey("m", {"a = 1"});
  cache.Insert(key, MakeViewOfSize(4096), 1.0);
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.stats().oversize_rejects, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ViewCacheTest, EvictedEntryRemainsValidForHolders) {
  const size_t payload = 2048;
  const size_t entry_bytes = ApproxCadViewBytes(MakeViewOfSize(payload));
  ViewCache cache(entry_bytes + entry_bytes / 2);
  ViewCacheKey k1 = MakeKey("m", {"a = 1"});
  cache.Insert(k1, MakeViewOfSize(payload, "keepme"), 1.0);
  auto held = cache.Lookup(k1);
  ASSERT_NE(held, nullptr);
  // Force k1 out.
  cache.Insert(MakeKey("m", {"a = 2"}), MakeViewOfSize(payload), 1.0);
  EXPECT_EQ(cache.Lookup(k1), nullptr);
  EXPECT_EQ(held->view.pivot_attr, "keepme");  // still usable
}

TEST(ViewCacheTest, InvalidateDatasetDropsOnlyThatDataset) {
  ViewCache cache(1u << 20);
  ViewCacheKey km = MakeKey("mushroom", {"a = 1"});
  ViewCacheKey kc = MakeKey("cars", {"a = 1"});
  cache.Insert(km, MakeViewOfSize(64), 1.0);
  cache.Insert(kc, MakeViewOfSize(64), 1.0);

  cache.InvalidateDataset("mushroom");
  EXPECT_EQ(cache.Lookup(km), nullptr);
  EXPECT_NE(cache.Lookup(kc), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ViewCacheTest, ClearDropsEverything) {
  ViewCache cache(1u << 20);
  cache.Insert(MakeKey("a", {}), MakeViewOfSize(64), 1.0);
  cache.Insert(MakeKey("b", {}), MakeViewOfSize(64), 1.0);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(ViewCacheTest, ConcurrentLookupInsertHammering) {
  // Many threads, overlapping key space, a budget small enough to force
  // evictions mid-flight. TSAN (scripts/check_tsan.sh runs the `unit` label)
  // verifies the locking; here we check nothing crashes and the stats add up.
  const size_t payload = 512;
  const size_t entry_bytes = ApproxCadViewBytes(MakeViewOfSize(payload));
  ViewCache cache(8 * entry_bytes);

  const size_t kOps = 400;
  Status st = ParallelFor(
      TestThreads(8), 0, kOps, 1, [&](size_t i) -> Status {
        ViewCacheKey key =
            MakeKey("m", {"a = " + std::to_string(i % 16)});
        if (cache.Lookup(key) == nullptr) {
          cache.Insert(key, MakeViewOfSize(payload), 1.0);
        }
        if (i % 64 == 0) cache.InvalidateDataset("m");
        ViewCacheStats stats = cache.stats();
        if (stats.bytes_in_use > stats.byte_budget) {
          return Status::Internal("budget exceeded under concurrency");
        }
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();

  ViewCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kOps);
  EXPECT_LE(stats.bytes_in_use, stats.byte_budget);
  EXPECT_LE(stats.entries, 8u);
}


// --- Snapshot dataset ids ----------------------------------------------------

TEST(SnapshotDatasetIdTest, DistinctPerRegistration) {
  const std::string a = MakeSnapshotDatasetId("T");
  const std::string b = MakeSnapshotDatasetId("T");
  EXPECT_NE(a, b) << "two registrations must never share a key space";
  EXPECT_EQ(a.rfind("T@", 0), 0u);
  EXPECT_EQ(b.rfind("T@", 0), 0u);
  // Same-name-different-table and different-name ids all stay disjoint.
  EXPECT_NE(MakeSnapshotDatasetId("U"), MakeSnapshotDatasetId("U"));
}

TEST(SnapshotDatasetIdTest, KeysOverDistinctSnapshotsNeverCollide) {
  // The stale-view scenario: two sessions register different tables
  // under the same name into one shared cache. Snapshot ids keep the
  // identical build request from hitting the other session's entry.
  ViewCache cache;
  const std::string snap1 = MakeSnapshotDatasetId("T");
  const std::string snap2 = MakeSnapshotDatasetId("T");
  cache.Insert(MakeKey(snap1, {"a = 1"}), MakeViewOfSize(100), 1.0);
  EXPECT_EQ(cache.Lookup(MakeKey(snap2, {"a = 1"})), nullptr);
  EXPECT_NE(cache.Lookup(MakeKey(snap1, {"a = 1"})), nullptr);
}

// --- Per-owner byte budgets --------------------------------------------------

TEST(ViewCacheOwnerTest, AttributesAndReleasesBytes) {
  ViewCache cache(1u << 20);
  CadView v = MakeViewOfSize(1000);
  const size_t bytes = ApproxCadViewBytes(v);
  cache.Insert(MakeKey("m", {"a = 1"}), std::move(v), 1.0, "s1");
  EXPECT_EQ(cache.OwnerBytes("s1"), bytes);
  EXPECT_EQ(cache.OwnerBytes("s2"), 0u);
  cache.InvalidateDataset("m");
  EXPECT_EQ(cache.OwnerBytes("s1"), 0u);
}

TEST(ViewCacheOwnerTest, BudgetRejectsInsertThatWouldExceedIt) {
  ViewCache cache(1u << 20);
  CadView first = MakeViewOfSize(1000);
  const size_t first_bytes = ApproxCadViewBytes(first);
  // Budget admits exactly the first entry.
  cache.SetOwnerBudget("s1", first_bytes);
  cache.Insert(MakeKey("m", {"a = 1"}), std::move(first), 1.0, "s1");
  EXPECT_EQ(cache.OwnerBytes("s1"), first_bytes);
  EXPECT_EQ(cache.stats().inserts, 1u);

  cache.Insert(MakeKey("m", {"a = 2"}), MakeViewOfSize(1000), 1.0, "s1");
  ViewCacheStats stats = cache.stats();
  EXPECT_EQ(stats.owner_budget_rejects, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(cache.Lookup(MakeKey("m", {"a = 2"})), nullptr);
  EXPECT_EQ(cache.OwnerBytes("s1"), first_bytes);

  // Another owner and unattributed inserts are unaffected by s1's budget.
  cache.Insert(MakeKey("m", {"a = 3"}), MakeViewOfSize(1000), 1.0, "s2");
  cache.Insert(MakeKey("m", {"a = 4"}), MakeViewOfSize(1000), 1.0);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(ViewCacheOwnerTest, InvalidationFreesBudgetForNewInserts) {
  ViewCache cache(1u << 20);
  CadView v = MakeViewOfSize(1000);
  const size_t bytes = ApproxCadViewBytes(v);
  cache.SetOwnerBudget("s1", bytes);
  cache.Insert(MakeKey("m", {"a = 1"}), std::move(v), 1.0, "s1");
  cache.InvalidateDataset("m");
  // The owner's attribution was released with the entry, so the budget
  // admits a new insert of the same size.
  cache.Insert(MakeKey("m", {"a = 2"}), MakeViewOfSize(1000), 1.0, "s1");
  EXPECT_EQ(cache.stats().owner_budget_rejects, 0u);
  EXPECT_EQ(cache.OwnerBytes("s1"), bytes);
}

TEST(ViewCacheOwnerTest, EvictionReleasesOwnerBytes) {
  CadView probe = MakeViewOfSize(1000);
  const size_t bytes = ApproxCadViewBytes(probe);
  // A cache sized for one entry: the second insert evicts the first.
  ViewCache cache(bytes + bytes / 2);
  cache.Insert(MakeKey("m", {"a = 1"}), std::move(probe), 1.0, "s1");
  cache.Insert(MakeKey("m", {"a = 2"}), MakeViewOfSize(1000), 1.0, "s2");
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.OwnerBytes("s1"), 0u);
  EXPECT_EQ(cache.OwnerBytes("s2"), bytes);
}

TEST(ViewCacheOwnerTest, ZeroBudgetRemovesTheCap) {
  ViewCache cache(1u << 20);
  cache.SetOwnerBudget("s1", 1);  // rejects everything
  cache.Insert(MakeKey("m", {"a = 1"}), MakeViewOfSize(1000), 1.0, "s1");
  EXPECT_EQ(cache.stats().owner_budget_rejects, 1u);
  cache.SetOwnerBudget("s1", 0);  // cap removed
  cache.Insert(MakeKey("m", {"a = 2"}), MakeViewOfSize(1000), 1.0, "s1");
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.OwnerBytes("s1"), 0u);
}

}  // namespace
}  // namespace dbx
