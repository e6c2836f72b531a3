#include "bench/explore/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "src/data/synthetic.h"
#include "src/data/used_cars.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace dbx::explore {
namespace {

// Pivots the generators choose from. Engine is left out: it is not
// queriable, so a drill-down could never pin one of its values.
const std::vector<std::string> kColdPivots = {"Make", "BodyType", "Drivetrain",
                                              "Transmission"};
const std::vector<std::string> kPoolPivots = {"Make", "BodyType", "Drivetrain",
                                              "Transmission", "Color"};
const std::vector<std::string> kScanPivots = {"Model", "BodyType", "Drivetrain",
                                              "Transmission", "Color"};
const std::vector<std::string> kRangeAttrs = {"Price", "Mileage", "Year"};

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

size_t ColumnIndex(const Table& table, const std::string& name) {
  // The generators only name UsedCarSchema attributes.
  return *table.schema().IndexOf(name);
}

template <typename T>
const T& Pick(const std::vector<T>& v, Rng* rng) {
  return v[static_cast<size_t>(rng->NextBounded(v.size()))];
}

std::string FormatNumber(double v) { return StringPrintf("%.17g", v); }

std::string Between(const std::string& attr, double lo, double hi) {
  return attr + " BETWEEN " + FormatNumber(lo) + " AND " + FormatNumber(hi);
}

/// Draws the options 0..n-1 without replacement and reshuffles once all were
/// drawn. Any stretch of a stream then holds every option in nearly equal
/// share, so the workload's mix — and with it the metrics — is the same for
/// every seed; the seed only picks the order and the constants.
class Deck {
 public:
  explicit Deck(size_t n) : order_(n), next_(n) {
    std::iota(order_.begin(), order_.end(), size_t{0});
  }

  size_t Draw(Rng* rng) {
    if (next_ == order_.size()) {
      rng->Shuffle(&order_);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  std::vector<size_t> order_;
  size_t next_;
};

/// Rows of `table` whose numeric column `col` lies in [lo, hi] (when `col`
/// is set) and whose categorical column `eq_col` holds `eq_code` (when set).
RowSet RowsMatching(const Table& table, std::optional<size_t> col, double lo,
                    double hi, std::optional<size_t> eq_col = std::nullopt,
                    int32_t eq_code = -1) {
  RowSet rows;
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    if (col) {
      const Column& c = table.col(*col);
      if (c.IsNullAt(r) || c.NumberAt(r) < lo || c.NumberAt(r) > hi) continue;
    }
    if (eq_col && table.col(*eq_col).CodeAt(r) != eq_code) continue;
    rows.push_back(r);
  }
  return rows;
}

/// Per-code row counts of categorical column `col` over `rows`.
std::vector<size_t> CodeCounts(const Table& table, size_t col,
                               const RowSet& rows) {
  const Column& c = table.col(col);
  std::vector<size_t> counts(c.DictSize(), 0);
  for (uint32_t r : rows) {
    if (!c.IsNullAt(r)) ++counts[static_cast<size_t>(c.CodeAt(r))];
  }
  return counts;
}

/// Values of categorical column `col` present in `rows`, in code order —
/// exactly the rows a CAD View pivoted on `col` shows for this fragment.
std::vector<std::string> ValuesPresent(const Table& table, size_t col,
                                       const RowSet& rows) {
  std::vector<size_t> counts = CodeCounts(table, col, rows);
  std::vector<std::string> values;
  for (size_t code = 0; code < counts.size(); ++code) {
    if (counts[code] > 0) {
      values.push_back(table.col(col).DictString(static_cast<int32_t>(code)));
    }
  }
  return values;
}

std::string ValueAt(const Table& table, size_t col, uint32_t row) {
  return table.col(col).DictString(table.col(col).CodeAt(row));
}

std::string HighlightSql(const std::string& view, const ViewStep& step,
                         Rng* rng) {
  // Rank 1 exists in every row whose partition is nonempty, and every ingest
  // content extends the base table, so the reference stays valid on each.
  static const char* const kThresholds[] = {"0.5", "1.0", "1.5", "2.0"};
  return "HIGHLIGHT SIMILAR IUNITS IN " + view + " WHERE SIMILARITY(" +
         QuoteSqlString(Pick(step.pivot_values, rng)) + ", 1) > " +
         kThresholds[rng->NextBounded(4)];
}

std::string ReorderSql(const std::string& view, const ViewStep& step,
                       Rng* rng) {
  return "REORDER ROWS IN " + view + " ORDER BY SIMILARITY(" +
         QuoteSqlString(Pick(step.pivot_values, rng)) + ") DESC";
}

Request Exec(StmtClass cls, std::string sql) {
  return Request{Request::Kind::kExec, cls, std::move(sql)};
}

Request Session(Request::Kind kind) {
  return Request{kind, StmtClass::kLookup, ""};
}

/// Rows of one subset of the table sorted by one numeric attribute, so a
/// range holding exactly n of them is two array reads.
struct SortedRows {
  std::vector<std::pair<double, uint32_t>> by_value;

  SortedRows(const Table& table, size_t col, const RowSet& rows) {
    for (uint32_t r : rows) {
      if (!table.col(col).IsNullAt(r)) {
        by_value.emplace_back(table.col(col).NumberAt(r), r);
      }
    }
    std::sort(by_value.begin(), by_value.end());
  }
};

// ---------------------------------------------------------------------------
// cold_build: unique CADVIEWs whose WHERE is one Price or Mileage range,
// alone or after a Year range, sized to a target of 5K-40K rows.

class ColdBuildSampler {
 public:
  explicit ColdBuildSampler(const Table& table) : table_(table) {
    const size_t year = ColumnIndex(table, "Year");
    std::vector<double> years;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      years.push_back(table.col(year).NumberAt(r));
    }
    std::sort(years.begin(), years.end());
    years.erase(std::unique(years.begin(), years.end()), years.end());
    AddSubset("", table.AllRows());
    for (size_t a = 0; a < years.size(); ++a) {
      for (size_t b = a; b < years.size(); ++b) {
        AddSubset(Between("Year", years[a], years[b]) + " AND ",
                  RowsMatching(table, year, years[a], years[b]));
      }
    }
  }

  ViewStep Draw(Rng* rng) {
    const size_t n = table_.num_rows();
    const size_t lo = n / 8;  // 5K of 40K
    const size_t width = (n - lo) / kSizeStrata;
    const size_t target =
        lo + size_deck_.Draw(rng) * width + rng->NextBounded(width) + 1;
    const size_t shape = shape_deck_.Draw(rng);
    const size_t attr = shape % 2;  // Price or Mileage
    // Half the shapes narrow to a Year range first, one that still holds the
    // target (the whole table, subset 0, always does).
    size_t chosen = 0;
    if (shape >= 2) {
      std::vector<size_t> fits;
      for (size_t s = 1; s < subsets_.size(); ++s) {
        if (subsets_[s].sorted[attr].by_value.size() >= target) fits.push_back(s);
      }
      if (!fits.empty()) chosen = Pick(fits, rng);
    }
    const Subset& subset = subsets_[chosen];
    const auto& sorted = subset.sorted[attr].by_value;
    const size_t take = std::min(target, sorted.size());
    const size_t first = rng->NextBounded(sorted.size() - take + 1);
    ViewStep step;
    step.where = subset.prefix + Between(kRangeAttrs[attr], sorted[first].first,
                                         sorted[first + take - 1].first);
    step.pivot = kColdPivots[pivot_deck_.Draw(rng)];
    step.limit_columns = 3 + columns_deck_.Draw(rng);
    step.iunits = 2 + iunits_deck_.Draw(rng);
    const size_t pcol = ColumnIndex(table_, step.pivot);
    for (int i = 0; i < 4; ++i) {  // values of rows inside the fragment
      step.pivot_values.push_back(ValueAt(
          table_, pcol, sorted[first + rng->NextBounded(take)].second));
    }
    return step;
  }

 private:
  static constexpr size_t kSizeStrata = 7;

  struct Subset {
    std::string prefix;  // WHERE text narrowing to this subset ("" = all)
    std::vector<SortedRows> sorted;  // parallel to Price, Mileage
  };

  void AddSubset(std::string prefix, const RowSet& rows) {
    Subset s{std::move(prefix), {}};
    for (size_t a = 0; a < 2; ++a) {
      s.sorted.emplace_back(table_, ColumnIndex(table_, kRangeAttrs[a]), rows);
    }
    subsets_.push_back(std::move(s));
  }

  const Table& table_;
  std::vector<Subset> subsets_;  // [0] = whole table, then Year ranges
  Deck size_deck_{kSizeStrata};
  Deck shape_deck_{4};
  Deck pivot_deck_{kColdPivots.size()};
  Deck columns_deck_{4};
  Deck iunits_deck_{3};
};

// ---------------------------------------------------------------------------
// selective_scan: Make = .. AND Year = .. AND Mileage BETWEEN .., with the
// constants read off a sampled row and fragments of 0.1-0.5% of the table.

class SelectiveSampler {
 public:
  explicit SelectiveSampler(const Table& table)
      : table_(table),
        make_(ColumnIndex(table, "Make")),
        year_(ColumnIndex(table, "Year")),
        mileage_(ColumnIndex(table, "Mileage")) {
    for (uint32_t r = 0; r < table.num_rows(); ++r) {
      groups_[GroupOf(r)].push_back(r);
    }
    for (auto& [key, rows] : groups_) {
      std::sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
        return std::make_pair(Mileage(a), a) < std::make_pair(Mileage(b), b);
      });
    }
  }

  ViewStep Draw(Rng* rng) {
    const size_t n = table_.num_rows();
    const size_t min_rows = std::max<size_t>(50, n / 1000);
    const size_t width = std::max<size_t>(1, (n / 200 - min_rows) / kSpanStrata);
    const size_t span =
        min_rows + span_deck_.Draw(rng) * width + rng->NextBounded(width);
    for (;;) {
      const uint32_t anchor = static_cast<uint32_t>(rng->NextBounded(n));
      const std::vector<uint32_t>& group = groups_.at(GroupOf(anchor));
      if (group.size() < span) continue;
      auto by_mileage = [&](uint32_t a, uint32_t b) {
        return std::make_pair(Mileage(a), a) < std::make_pair(Mileage(b), b);
      };
      const size_t pos = static_cast<size_t>(
          std::lower_bound(group.begin(), group.end(), anchor, by_mileage) -
          group.begin());
      const size_t first =
          std::min(pos - std::min(pos, span / 2), group.size() - span);
      const double lo = Mileage(group[first]);
      const double hi = Mileage(group[first + span - 1]);
      RowSet rows;
      for (uint32_t r : group) {
        if (Mileage(r) >= lo && Mileage(r) <= hi) rows.push_back(r);
      }
      ViewStep step;
      step.where = "Make = " + QuoteSqlString(ValueAt(table_, make_, anchor)) +
                   " AND Year = " + FormatNumber(table_.col(year_).NumberAt(anchor)) +
                   " AND " + Between("Mileage", lo, hi);
      step.pivot = kScanPivots[pivot_deck_.Draw(rng)];
      step.limit_columns = 3 + columns_deck_.Draw(rng);
      step.iunits = 2 + iunits_deck_.Draw(rng);
      step.pivot_values =
          ValuesPresent(table_, ColumnIndex(table_, step.pivot), rows);
      return step;
    }
  }

 private:
  static constexpr size_t kSpanStrata = 4;
  using GroupKey = std::pair<int32_t, double>;  // (Make code, Year)

  GroupKey GroupOf(uint32_t r) const {
    return {table_.col(make_).CodeAt(r), table_.col(year_).NumberAt(r)};
  }
  double Mileage(uint32_t r) const { return table_.col(mileage_).NumberAt(r); }

  const Table& table_;
  size_t make_, year_, mileage_;
  std::map<GroupKey, std::vector<uint32_t>> groups_;
  Deck span_deck_{kSpanStrata};
  Deck pivot_deck_{kScanPivots.size()};
  Deck columns_deck_{4};
  Deck iunits_deck_{3};
};

// ---------------------------------------------------------------------------
// Single-analyst stream (cold_build, selective_scan): one session; every step
// builds a fresh view; one step in four searches inside it (HIGHLIGHT and
// REORDER alternate) and one in four aggregates its fragment. The fixed
// schedule puts the all-statement p50 among the CADVIEWs for every seed.

template <typename Sampler>
class AnalystStream : public RequestStream {
 public:
  AnalystStream(const Table& table, uint64_t seed)
      : sampler_(table), rng_(seed) {}

  Request Next() override {
    if (!opened_) {
      opened_ = true;
      return Session(Request::Kind::kOpen);
    }
    if (pending_.empty()) PlanStep();
    Request r = std::move(pending_.front());
    pending_.pop_front();
    return r;
  }

 private:
  void PlanStep() {
    ViewStep step;
    std::string create;
    do {  // every CADVIEW is a cache miss: never repeat one
      step = sampler_.Draw(&rng_);
      create = step.CreateSql("cv");
    } while (!issued_.insert(create).second);
    pending_.push_back(Exec(StmtClass::kCadView, create));
    if (step_ % 4 == 1) {
      pending_.push_back(Exec(StmtClass::kInView,
                              step_ % 8 == 1 ? HighlightSql("cv", step, &rng_)
                                             : ReorderSql("cv", step, &rng_)));
    }
    if (step_ % 4 == 3) {
      pending_.push_back(Exec(
          StmtClass::kLookup,
          "SELECT " + step.pivot + ", COUNT(*), AVG(Price) FROM " +
              kTableName + " WHERE " + step.where + " GROUP BY " + step.pivot));
    }
    ++step_;
  }

  Sampler sampler_;
  Rng rng_;
  bool opened_ = false;
  size_t step_ = 0;
  std::deque<Request> pending_;
  std::set<std::string> issued_;
};

// ---------------------------------------------------------------------------
// Session stream (drilldown_mix, ingest_churn): OPEN; a Zipf-popular
// overview; one of its drill-downs; HIGHLIGHT and REORDER on the drill-down;
// a COUNT or GROUP BY (alternating) over its fragment; CLOSE.

class SessionStream : public RequestStream {
 public:
  SessionStream(const DrillPool& pool, uint64_t seed) : pool_(pool), rng_(seed) {
    for (size_t i = 0; i < pool.overviews.size(); ++i) {
      zipf_.push_back(1.0 / std::pow(static_cast<double>(i + 1), 1.1));
    }
  }

  Request Next() override {
    switch (phase_++ % 7) {
      case 0:
        ov_ = rng_.NextWeighted(zipf_);
        drill_ = rng_.NextBounded(pool_.drills[ov_].size());
        return Session(Request::Kind::kOpen);
      case 1:
        return Exec(StmtClass::kCadView, pool_.overviews[ov_].CreateSql("ov"));
      case 2:
        return Exec(StmtClass::kCadView, Drill().CreateSql("dd"));
      case 3:
        return Exec(StmtClass::kInView, HighlightSql("dd", Drill(), &rng_));
      case 4:
        return Exec(StmtClass::kInView, ReorderSql("dd", Drill(), &rng_));
      case 5:
        if (phase_ / 7 % 2 == 0) {
          return Exec(StmtClass::kLookup, std::string("SELECT COUNT(*) FROM ") +
                                              kTableName + " WHERE " +
                                              Drill().where);
        }
        return Exec(StmtClass::kLookup,
                    "SELECT " + Drill().pivot + ", COUNT(*) FROM " +
                        kTableName + " WHERE " + Drill().where + " GROUP BY " +
                        Drill().pivot);
      default:
        return Session(Request::Kind::kClose);
    }
  }

 private:
  const ViewStep& Drill() const { return pool_.drills[ov_][drill_]; }

  const DrillPool& pool_;
  Rng rng_;
  std::vector<double> zipf_;
  size_t phase_ = 0;
  size_t ov_ = 0;
  size_t drill_ = 0;
};

}  // namespace

std::string ViewStep::CreateSql(const std::string& view_name) const {
  std::string sql = "CREATE CADVIEW " + view_name + " AS SET pivot = " + pivot +
                    " SELECT * FROM " + kTableName;
  if (!where.empty()) sql += " WHERE " + where;
  sql += " LIMIT COLUMNS " + std::to_string(limit_columns) + " IUNITS " +
         std::to_string(iunits);
  return sql;
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {WorkloadId::kColdBuild, "cold_build", 1, 2},
      {WorkloadId::kDrilldownMix, "drilldown_mix", 2, 1},
      {WorkloadId::kSelectiveScan, "selective_scan", 1, 2},
      {WorkloadId::kIngestChurn, "ingest_churn", 2, 1},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Scale FullScale() { return Scale{}; }

Scale SmokeScale() {
  Scale s;
  s.selective_rows = 100000;
  s.pool_overviews = 8;
  s.smoke = true;
  return s;
}

Table GenerateTable(const WorkloadSpec& spec, const Scale& scale) {
  switch (spec.id) {
    case WorkloadId::kColdBuild:
    case WorkloadId::kDrilldownMix:
      return GenerateUsedCars(kBaseRows, kDataSeed);
    case WorkloadId::kSelectiveScan:
    case WorkloadId::kIngestChurn: {
      // ScaledUsedCars has the prefix property ingest_churn appends by, and
      // streams rows without holding a generator state per row.
      const size_t rows = spec.id == WorkloadId::kSelectiveScan
                              ? scale.selective_rows
                              : kBaseRows;
      Table table(UsedCarSchema());
      Status st = ScaledUsedCars(rows, kDataSeed).AppendRange(&table, 0, rows);
      if (!st.ok()) std::abort();  // fixed schema and generator: cannot fail
      return table;
    }
  }
  std::abort();
}

std::vector<std::shared_ptr<const Table>> IngestContents(
    std::shared_ptr<const Table> base) {
  std::vector<std::shared_ptr<const Table>> contents = {std::move(base)};
  for (size_t k = 1; k <= kWritesPerRepetition; ++k) {
    const size_t rows = kBaseRows + k * kRowsPerWrite;
    auto table = std::make_shared<Table>(UsedCarSchema());
    // The prefix property: these rows start with the base's rows.
    Status st = ScaledUsedCars(rows, kDataSeed).AppendRange(table.get(), 0, rows);
    if (!st.ok()) std::abort();  // fixed schema and generator: cannot fail
    contents.push_back(std::move(table));
  }
  return contents;
}

DrillPool MakeDrillPool(const Table& table, const Scale& scale, uint64_t seed) {
  Rng rng(MixSeed(seed, 0xD711));
  std::vector<SortedRows> sorted;
  for (const std::string& name : kRangeAttrs) {
    sorted.emplace_back(table, ColumnIndex(table, name), table.AllRows());
  }
  const size_t n = scale.pool_overviews;
  const size_t min_drill_rows = table.num_rows() / 130;
  DrillPool pool;
  std::set<std::string> seen;
  for (size_t i = 0; i < n; ++i) {
    // Overview i's shape depends on its popularity rank alone, so the
    // Zipf head costs the same for every seed; the seed picks where each
    // range starts and which values the drill-downs pin.
    ViewStep ov;
    ov.pivot = kPoolPivots[i % kPoolPivots.size()];
    ov.limit_columns = 3 + i % 3;
    ov.iunits = 2 + (i / kPoolPivots.size()) % 2;
    const bool ranged = i % 4 != 3;
    const size_t attr = (i / 4) % kRangeAttrs.size();
    const double frac = 0.3 + 0.6 * (static_cast<double>((i * 13) % n) + 0.5) /
                                  static_cast<double>(n);
    const auto& values = sorted[attr].by_value;
    const size_t take = static_cast<size_t>(frac * static_cast<double>(values.size()));
    double lo = 0.0;
    double hi = 0.0;
    do {
      const size_t first = rng.NextBounded(values.size() - take + 1);
      lo = values[first].first;
      hi = values[first + take - 1].first;
      ov.where = ranged ? Between(kRangeAttrs[attr], lo, hi) : "";
    } while (!seen.insert(ov.CreateSql("ov")).second);
    std::optional<size_t> range_col;
    if (ranged) range_col = ColumnIndex(table, kRangeAttrs[attr]);
    const RowSet rows = RowsMatching(table, range_col, lo, hi);
    ov.pivot_values = ValuesPresent(table, ColumnIndex(table, ov.pivot), rows);

    // Drill-downs pin one of the overview's pivot values with enough rows to
    // be worth summarizing (the most frequent one when none qualifies).
    const size_t pcol = ColumnIndex(table, ov.pivot);
    const std::vector<size_t> counts = CodeCounts(table, pcol, rows);
    std::vector<int32_t> codes;
    for (size_t c = 0; c < counts.size(); ++c) {
      if (counts[c] >= min_drill_rows) codes.push_back(static_cast<int32_t>(c));
    }
    if (codes.empty()) {
      codes.push_back(static_cast<int32_t>(
          std::max_element(counts.begin(), counts.end()) - counts.begin()));
    }
    // The four most frequent, so drill-down sizes do not depend on the seed.
    std::stable_sort(codes.begin(), codes.end(), [&](int32_t x, int32_t y) {
      return counts[static_cast<size_t>(x)] > counts[static_cast<size_t>(y)];
    });
    if (codes.size() > 4) codes.resize(4);
    std::vector<std::string> others;
    for (const std::string& p : kPoolPivots) {
      if (p != ov.pivot) others.push_back(p);
    }
    std::vector<ViewStep> drills;
    for (size_t j = 0; j < codes.size(); ++j) {
      ViewStep d;
      const std::string pin =
          ov.pivot + " = " + QuoteSqlString(table.col(pcol).DictString(codes[j]));
      d.where = ov.where.empty() ? pin : ov.where + " AND " + pin;
      d.pivot = others[(i + j) % others.size()];
      d.limit_columns = 3 + (i + j) % 3;
      d.iunits = 2 + (i + j) % 2;
      d.pivot_values = ValuesPresent(
          table, ColumnIndex(table, d.pivot),
          RowsMatching(table, range_col, lo, hi, pcol, codes[j]));
      drills.push_back(std::move(d));
    }
    pool.overviews.push_back(std::move(ov));
    pool.drills.push_back(std::move(drills));
  }
  return pool;
}

std::unique_ptr<RequestStream> MakeStream(const WorkloadSpec& spec,
                                          const Table& table,
                                          const DrillPool* pool, uint64_t seed,
                                          size_t client) {
  const uint64_t stream_seed =
      MixSeed(MixSeed(seed, static_cast<uint64_t>(spec.id) + 1), client + 1);
  switch (spec.id) {
    case WorkloadId::kColdBuild:
      return std::make_unique<AnalystStream<ColdBuildSampler>>(table,
                                                               stream_seed);
    case WorkloadId::kSelectiveScan:
      return std::make_unique<AnalystStream<SelectiveSampler>>(table,
                                                               stream_seed);
    case WorkloadId::kDrilldownMix:
    case WorkloadId::kIngestChurn:
      return std::make_unique<SessionStream>(*pool, stream_seed);
  }
  std::abort();
}

std::vector<Request> PoolWarmup(const DrillPool& pool, size_t client,
                                size_t clients) {
  std::vector<Request> out;
  out.push_back(Session(Request::Kind::kOpen));
  size_t i = 0;
  for (size_t o = 0; o < pool.overviews.size(); ++o) {
    if (i++ % clients == client) {
      out.push_back(Exec(StmtClass::kCadView, pool.overviews[o].CreateSql("ov")));
    }
    for (const ViewStep& d : pool.drills[o]) {
      if (i++ % clients == client) {
        out.push_back(Exec(StmtClass::kCadView, d.CreateSql("dd")));
      }
    }
  }
  out.push_back(Session(Request::Kind::kClose));
  return out;
}

std::string DumpStatements(const WorkloadSpec& spec, const Scale& scale,
                           uint64_t seed, size_t count) {
  const Table table = GenerateTable(spec, scale);
  const bool sessions = spec.id == WorkloadId::kDrilldownMix ||
                        spec.id == WorkloadId::kIngestChurn;
  DrillPool pool;
  if (sessions) pool = MakeDrillPool(table, scale, seed);
  auto line = [](const Request& r) {
    switch (r.kind) {
      case Request::Kind::kOpen: return std::string("OPEN");
      case Request::Kind::kClose: return std::string("CLOSE");
      case Request::Kind::kExec: break;
    }
    return r.sql;
  };
  std::string out;
  for (size_t c = 0; c < spec.clients; ++c) {
    if (sessions) {
      out += StringPrintf("# %s client %zu warm-up\n", spec.name, c);
      for (const Request& r : PoolWarmup(pool, c, spec.clients)) {
        out += line(r) + "\n";
      }
    }
    out += StringPrintf("# %s client %zu\n", spec.name, c);
    auto stream = MakeStream(spec, table, &pool, seed, c);
    for (size_t i = 0; i < count; ++i) out += line(stream->Next()) + "\n";
  }
  if (spec.id == WorkloadId::kIngestChurn) {
    out += StringPrintf(
        "# writer: at the window start and after every %zu completed "
        "statements, append the next %zu ScaledUsedCars(seed %llu) rows "
        "(restarting from the %zu-row base after %zu appends), then "
        "StoreTable to dbxc:, LoadTable, RegisterTableSnapshot\n",
        kReadsPerWrite, kRowsPerWrite,
        static_cast<unsigned long long>(kDataSeed), kBaseRows,
        kWritesPerRepetition);
  }
  return out;
}

}  // namespace dbx::explore
