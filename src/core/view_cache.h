// Copyright (c) DBExplorer reproduction authors.
// Session-scoped memoization of CAD View builds. The TPFacet workflow (paper
// §6) is a sequence of drill-downs whose selection contexts overlap almost
// entirely; this layer keys finished views by their canonicalized build
// request so drill-back, undo and repeated CADVIEW statements short-circuit.
// Every miss builds from scratch, scanning its own pivot column.
//
// Determinism contract: for any cache state — cold, warm, or partially
// evicted — the serialized CAD View handed back to a caller is byte-identical
// to an uncached build, because a hit returns the bytes of the original build
// verbatim. Wall-clock timings remain the one legitimately run-varying field,
// as everywhere else in the pipeline.
//
// Thread safety: every public method is safe to call concurrently; builds
// already fan out on the shared thread pool, so lookups/inserts from parallel
// sessions hold one internal mutex and entries are immutable after insert.

#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/cad_view.h"
#include "src/core/cad_view_builder.h"
#include "src/util/mutex.h"
#include "src/util/result.h"
#include "src/util/thread_annotations.h"

namespace dbx {

class Counter;
class Gauge;
class MetricsRegistry;

/// Collapses whitespace runs to single spaces and trims, so textually
/// different spellings of one predicate ("a  =  1" vs "a = 1") key equal.
std::string CanonicalizePredicate(const std::string& predicate);

/// Mints a dataset id naming one *registration* of a table, not the bare
/// table name: "name@<n>" with a process-unique, monotonically increasing
/// n. Cache keys built from snapshot ids can never collide across two
/// registrations of the same name — two engines sharing one cache that each
/// register a different table as "T" get disjoint key spaces instead of
/// serving each other's views. Invalidation then only has to drop
/// the superseded snapshot's entries to reclaim budget, never for
/// correctness.
std::string MakeSnapshotDatasetId(const std::string& name);

/// Canonicalized identity of one CAD View build request: dataset, selection
/// predicate set, pivot attribute, pivot values, and build parameters.
struct ViewCacheKey {
  /// The table registration; InvalidateDataset drops its entries.
  std::string dataset;
  /// Length-prefixed serialization of every component; the map key.
  std::string canonical;

  /// Builds a key. `predicates` are canonicalized, sorted and deduplicated
  /// (order/whitespace-insensitive: they are AND-ed); `params` fingerprints
  /// every build parameter that shapes the output bytes (see
  /// CadViewOptionsFingerprint).
  static ViewCacheKey Make(std::string dataset,
                           std::vector<std::string> predicates,
                           std::string pivot_attr,
                           std::vector<std::string> pivot_values,
                           std::string params);
};

/// Deterministic fingerprint of every CadViewOptions field that affects the
/// built view's bytes. `num_threads` is excluded (the thread-pool determinism
/// contract makes it output-neutral); `pivot_attr`/`pivot_values` are carried
/// by the key itself. Returns nullopt when `options.preference` is set — an
/// opaque std::function cannot be fingerprinted, so such builds are
/// uncacheable.
std::optional<std::string> CadViewOptionsFingerprint(
    const CadViewOptions& options);

/// One immutable cache entry: a finished view.
struct CachedCadView {
  CadView view;
  /// Wall-clock cost of the original build (total_ms) — what a hit saves.
  double build_cost_ms = 0.0;
  /// ApproxCadViewBytes(view), charged against the byte budget.
  size_t bytes = 0;
};

/// Aggregate counters. `bytes_in_use`/`entries` reflect the current store.
/// Invariant (kept by counting only resident insertions as `inserts`):
/// inserts - evictions - invalidations == entries.
struct ViewCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;           // entries that actually became resident
  uint64_t evictions = 0;
  uint64_t invalidations = 0;   // entries removed by InvalidateDataset/Clear
  uint64_t oversize_rejects = 0;  // entries larger than the whole budget
  uint64_t owner_budget_rejects = 0;  // inserts over the owner's byte budget
  /// Sum of the original build costs of every hit — wall time the cache has
  /// saved the session so far.
  double hit_saved_ms = 0.0;
  size_t bytes_in_use = 0;
  size_t entries = 0;
  size_t byte_budget = 0;
};

/// Every ViewCacheStats field as "name=value", space-separated, in
/// declaration order ("hits=… misses=… … byte_budget=…", no newline): the
/// line EXPLAIN ANALYZE and /statusz print after "cache: ", and STATS prints.
std::string CacheStatsLine(const ViewCacheStats& stats);

/// Per-entry diagnostics, MRU first.
struct ViewCacheEntryInfo {
  std::string canonical;
  size_t bytes = 0;
  uint64_t hits = 0;
  double build_cost_ms = 0.0;
};

/// One coherent point-in-time picture of the cache: aggregate counters plus
/// the per-entry diagnostics, taken under a single lock acquisition — what
/// /statusz and TpFacetSession::CacheSnapshot report.
struct ViewCacheSnapshot {
  ViewCacheStats stats;
  std::vector<ViewCacheEntryInfo> entries;  // MRU first
};

/// An LRU store of finished CAD Views under a byte-size budget.
class ViewCache {
 public:
  static constexpr size_t kDefaultByteBudget = 64u << 20;  // 64 MiB

  /// `metrics` (nullable; must outlive the cache) receives the dbx_cache_*
  /// series (DESIGN.md §10); stats()/Snapshot() count either way.
  explicit ViewCache(size_t byte_budget = kDefaultByteBudget,
                     MetricsRegistry* metrics = nullptr);

  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  /// Returns the entry for `key` (bumping its recency and hit count), or
  /// nullptr on a miss. The returned entry stays valid after eviction.
  std::shared_ptr<const CachedCadView> Lookup(const ViewCacheKey& key);

  /// Stores a finished build. Evicts LRU entries until the new entry fits;
  /// entries larger than the whole budget are rejected. Re-inserting an
  /// existing key keeps the resident entry (both are byte-identical by the
  /// determinism contract). `owner` attributes the entry's bytes to a
  /// session for per-owner budgeting ("" = unattributed); an insert that
  /// would push the owner past its budget is rejected (the build still
  /// returns to the caller, it just isn't cached) and counted in
  /// owner_budget_rejects.
  void Insert(const ViewCacheKey& key, CadView view, double build_cost_ms,
              const std::string& owner = "");

  /// Caps the resident bytes attributable to `owner`'s inserts. 0 removes
  /// the cap. Lookups are never budgeted — cross-session reuse is the point
  /// of a shared cache.
  void SetOwnerBudget(const std::string& owner, size_t bytes);

  /// Resident bytes currently attributed to `owner`.
  size_t OwnerBytes(const std::string& owner) const;

  /// Invalidation hook for table reload/mutation: drops every entry of
  /// `dataset`.
  void InvalidateDataset(const std::string& dataset);

  /// Drops everything (counted as invalidations).
  void Clear();

  ViewCacheStats stats() const;
  /// stats() plus the per-entry diagnostics under one lock acquisition.
  ViewCacheSnapshot Snapshot() const;
  size_t byte_budget() const { return byte_budget_; }

 private:
  /// The dbx_cache_* series; all null (updates skipped) without a registry.
  struct Instruments {
    explicit Instruments(MetricsRegistry* registry);
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* inserts = nullptr;
    Counter* evictions = nullptr;
    Counter* invalidations = nullptr;
    Counter* oversize_rejects = nullptr;
    Gauge* bytes_in_use = nullptr;
    Gauge* entries = nullptr;
  };

  struct Entry {
    std::string dataset;  // ViewCacheKey::dataset, for InvalidateDataset
    std::shared_ptr<const CachedCadView> value;
    std::list<std::string>::iterator lru_pos;  // into lru_, front = MRU
    uint64_t hits = 0;
    std::string owner;  // budget attribution; "" = unattributed
  };

  void EvictLruLocked() DBX_REQUIRES(mu_);
  /// Removes `bytes` from `owner`'s attribution, erasing the record when it
  /// reaches zero and carries no budget.
  void ReleaseOwnerBytesLocked(const std::string& owner, size_t bytes)
      DBX_REQUIRES(mu_);

  const size_t byte_budget_;
  const Instruments metrics_;
  mutable Mutex mu_;
  std::list<std::string> lru_ DBX_GUARDED_BY(mu_);  // canonical keys, front = MRU
  std::unordered_map<std::string, Entry> entries_ DBX_GUARDED_BY(mu_);
  /// Per-owner accounting: resident bytes and (optional, 0 = none) budget.
  struct OwnerAccount {
    size_t bytes = 0;
    size_t budget = 0;
  };
  std::map<std::string, OwnerAccount> owners_ DBX_GUARDED_BY(mu_);
  ViewCacheStats stats_ DBX_GUARDED_BY(mu_);
};

/// A view GetOrBuildCadView handed back, and the probe outcome: "hit",
/// "miss", "uncacheable" (options without a fingerprint) or "no-cache".
struct CachedBuild {
  CadView view;
  const char* probe = "no-cache";
};

using CacheKeyFn = std::function<ViewCacheKey(const std::string& fingerprint)>;
using CadViewBuildFn = std::function<Result<CadView>()>;

/// The probe → copy on hit → build → insert path of every cached build, under
/// a `cache_probe` span (options.tracer / trace_parent; `result=`, plus
/// `saved_build_ms=` on a hit) in which `make_key` maps the options
/// fingerprint to the key. A hit returns a copy the caller may mutate. A miss
/// runs `build` and, when the options are cacheable, inserts its view under
/// `owner` at timings.total_ms build cost.
[[nodiscard]] Result<CachedBuild> GetOrBuildCadView(
    ViewCache* cache, const CadViewOptions& options,
    const CacheKeyFn& make_key, const CadViewBuildFn& build,
    const std::string& owner);

/// Approximate heap footprint of a view — the byte-budget charge unit.
/// Exposed so tests and tools can size budgets.
size_t ApproxCadViewBytes(const CadView& view);

}  // namespace dbx
