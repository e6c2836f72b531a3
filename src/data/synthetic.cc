#include "src/data/synthetic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/data/used_cars.h"
#include "src/util/rng.h"
#include "src/util/shard.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace dbx {

Result<Table> GenerateSynthetic(const SyntheticSpec& spec) {
  if (spec.rows == 0) return Status::InvalidArgument("rows must be >= 1");
  if (spec.categorical_attrs == 0) {
    return Status::InvalidArgument("need at least one categorical attribute");
  }
  if (spec.cardinality < 2) {
    return Status::InvalidArgument("cardinality must be >= 2");
  }
  if (spec.clusters == 0) {
    return Status::InvalidArgument("clusters must be >= 1");
  }
  if (spec.cluster_fidelity < 0.0 || spec.cluster_fidelity > 1.0) {
    return Status::InvalidArgument("cluster_fidelity must be in [0, 1]");
  }

  std::vector<AttributeDef> attrs;
  for (size_t c = 0; c < spec.categorical_attrs; ++c) {
    attrs.push_back({"C" + std::to_string(c), AttrType::kCategorical, true});
  }
  for (size_t n = 0; n < spec.numeric_attrs; ++n) {
    attrs.push_back({"N" + std::to_string(n), AttrType::kNumeric, true});
  }
  DBX_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  Table table(std::move(schema));

  Rng rng(spec.seed);
  // Characteristic values per (cluster, attribute); numeric attributes get a
  // per-cluster mean.
  std::vector<std::vector<size_t>> cat_primary(spec.clusters);
  std::vector<std::vector<double>> num_mean(spec.clusters);
  for (size_t k = 0; k < spec.clusters; ++k) {
    cat_primary[k].resize(spec.categorical_attrs);
    for (size_t c = 0; c < spec.categorical_attrs; ++c) {
      cat_primary[k][c] = rng.NextBounded(spec.cardinality);
    }
    num_mean[k].resize(spec.numeric_attrs);
    for (size_t n = 0; n < spec.numeric_attrs; ++n) {
      num_mean[k][n] = rng.NextUniform(0, 100);
    }
  }

  std::vector<Value> row(spec.categorical_attrs + spec.numeric_attrs);
  for (size_t i = 0; i < spec.rows; ++i) {
    size_t k = rng.NextBounded(spec.clusters);
    // C0 carries the latent cluster id (the natural pivot attribute).
    row[0] = Value("v" + std::to_string(k));
    for (size_t c = 1; c < spec.categorical_attrs; ++c) {
      size_t v = rng.NextBool(spec.cluster_fidelity)
                     ? cat_primary[k][c]
                     : rng.NextBounded(spec.cardinality);
      row[c] = Value("v" + std::to_string(v));
    }
    for (size_t n = 0; n < spec.numeric_attrs; ++n) {
      row[spec.categorical_attrs + n] =
          Value(num_mean[k][n] + rng.NextGaussian(0.0, 8.0));
    }
    DBX_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

namespace {

// Independent per-row seed stream (SplitMix64 finalizer): row i's generator
// depends only on (seed, i), giving O(1) random access, chunk-independent
// streaming, and the prefix property the scaled-generator goldens pin.
uint64_t RowSeed(uint64_t seed, uint64_t i) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void FnvBytes(uint64_t* h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void FnvStr(uint64_t* h, const char* s) {
  FnvBytes(h, s, std::strlen(s));
  unsigned char sep = 0x1F;
  FnvBytes(h, &sep, 1);
}

void FnvNum(uint64_t* h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  FnvBytes(h, &bits, sizeof(bits));
}

// The scaled generator's fixed categorical domains, interned from the market
// model so per-row global codes are integer lookups — no string hashing in
// the generation passes. Indexed: 0 Make, 1 Model, 2 BodyType,
// 3 Transmission, 4 Engine, 5 Drivetrain, 6 Color.
constexpr size_t kCatAttrs = 7;
constexpr size_t kNumAttrs = 4;

struct ScaledDomains {
  std::array<std::vector<std::string>, kCatAttrs> values;
  std::vector<size_t> make_of_model;
  std::vector<size_t> body_of_model;
  std::vector<std::array<size_t, 3>> engine_of_model;
  std::vector<std::array<size_t, 3>> drive_of_model;

  static size_t Intern(std::vector<std::string>* domain, const char* s) {
    for (size_t i = 0; i < domain->size(); ++i) {
      if ((*domain)[i] == s) return i;
    }
    domain->push_back(s);
    return domain->size() - 1;
  }

  ScaledDomains() {
    const UsedCarModelSpec* models = UsedCarModels();
    size_t n = UsedCarModelCount();
    make_of_model.resize(n);
    body_of_model.resize(n);
    engine_of_model.resize(n);
    drive_of_model.resize(n);
    for (size_t m = 0; m < n; ++m) {
      make_of_model[m] = Intern(&values[0], models[m].make);
      Intern(&values[1], models[m].model);  // model strings are unique
      body_of_model[m] = Intern(&values[2], models[m].body);
      for (size_t e = 0; e < 3 && models[m].engines[e] != nullptr; ++e) {
        engine_of_model[m][e] = Intern(&values[4], models[m].engines[e]);
      }
      for (size_t d = 0; d < 3 && models[m].drivetrains[d] != nullptr; ++d) {
        drive_of_model[m][d] = Intern(&values[5], models[m].drivetrains[d]);
      }
    }
    values[3] = {"Automatic", "Manual"};
    for (size_t c = 0; c < UsedCarColorCount(); ++c) {
      values[6].push_back(UsedCarColors()[c]);
    }
  }

  // Global (pre-compaction) code of categorical attribute `a` for row `r`.
  size_t CatCode(size_t a, const UsedCarRow& r) const {
    switch (a) {
      case 0: return make_of_model[r.model_idx];
      case 1: return r.model_idx;
      case 2: return body_of_model[r.model_idx];
      case 3: return r.automatic ? 0 : 1;
      case 4: return engine_of_model[r.model_idx][r.engine_idx];
      case 5: return drive_of_model[r.model_idx][r.drive_idx];
      default: return r.color_idx;
    }
  }
};

double NumValue(size_t j, const UsedCarRow& r) {
  switch (j) {
    case 0: return r.price;
    case 1: return r.mileage;
    case 2: return static_cast<double>(r.year);
    default: return r.fuel_economy;
  }
}

// Schema columns of the categorical / numeric attrs, in domain index order.
constexpr size_t kCatCols[kCatAttrs] = {0, 1, 2, 3, 4, 5, 10};
constexpr size_t kNumCols[kNumAttrs] = {6, 7, 8, 9};

}  // namespace

ScaledUsedCars::ScaledUsedCars(size_t rows, uint64_t seed)
    : rows_(rows),
      seed_(seed),
      model_weights_(UsedCarModelWeights()),
      color_weights_(UsedCarColorWeights()) {}

UsedCarRow ScaledUsedCars::GenerateRow(size_t i) const {
  Rng rng(RowSeed(seed_, i));
  return DrawUsedCarRow(&rng, model_weights_, color_weights_);
}

uint64_t ScaledUsedCars::RowFingerprint(size_t i) const {
  UsedCarRow r = GenerateRow(i);
  const UsedCarModelSpec& m = UsedCarModels()[r.model_idx];
  uint64_t h = kFnvOffset;
  FnvStr(&h, m.make);
  FnvStr(&h, m.model);
  FnvStr(&h, m.body);
  FnvStr(&h, r.automatic ? "Automatic" : "Manual");
  FnvStr(&h, m.engines[r.engine_idx]);
  FnvStr(&h, m.drivetrains[r.drive_idx]);
  FnvNum(&h, r.price);
  FnvNum(&h, r.mileage);
  FnvNum(&h, static_cast<double>(r.year));
  FnvNum(&h, r.fuel_economy);
  FnvStr(&h, UsedCarColors()[r.color_idx]);
  return h;
}

Status ScaledUsedCars::AppendRange(Table* table, size_t begin,
                                   size_t end) const {
  if (table == nullptr) return Status::InvalidArgument("null table");
  end = std::min(end, rows_);
  std::vector<Value> row(11);
  for (size_t i = begin; i < end; ++i) {
    UsedCarRowToValues(GenerateRow(i), &row);
    DBX_RETURN_IF_ERROR(table->AppendRow(row));
  }
  return Status::OK();
}

Result<Table> ScaledUsedCars::Materialize() const {
  Table table(UsedCarSchema());
  DBX_RETURN_IF_ERROR(AppendRange(&table, 0, rows_));
  return table;
}

Result<DiscretizedTable> ScaledUsedCars::Discretize(
    const ScaledDiscretizeOptions& options) const {
  if (rows_ == 0) return Status::InvalidArgument("rows must be >= 1");
  if (options.discretizer.max_numeric_bins == 0) {
    return Status::InvalidArgument("max_numeric_bins must be >= 1");
  }
  const ScaledDomains domains;
  std::vector<ShardRange> ranges = MakeShardRanges(rows_, options.num_threads);

  // Pass 1 (one task per range): per-range first-appearance row of every
  // categorical value — merged by min, this reproduces
  // DiscretizedTable::Build's first-appearance label compaction exactly —
  // plus the numeric values of every `stride`-th row (rows 0, stride,
  // 2·stride, …; every row in exact mode), in row order.
  constexpr size_t kAbsent = static_cast<size_t>(-1);
  const size_t stride =
      options.bin_sample == 0 ? 1
                              : std::max<size_t>(1, rows_ / options.bin_sample);
  struct RangeScan {
    std::array<std::vector<size_t>, kCatAttrs> first_row;
    std::array<std::vector<double>, kNumAttrs> values;
  };
  std::vector<RangeScan> scans(ranges.size());
  DBX_RETURN_IF_ERROR(ParallelFor(
      options.num_threads, 0, ranges.size(), 1, [&](size_t s) -> Status {
        RangeScan& scan = scans[s];
        for (size_t a = 0; a < kCatAttrs; ++a) {
          scan.first_row[a].assign(domains.values[a].size(), kAbsent);
        }
        for (size_t j = 0; j < kNumAttrs; ++j) {
          scan.values[j].reserve(ranges[s].size() / stride + 1);
        }
        for (size_t i = ranges[s].begin; i < ranges[s].end; ++i) {
          UsedCarRow r = GenerateRow(i);
          for (size_t a = 0; a < kCatAttrs; ++a) {
            size_t code = domains.CatCode(a, r);
            if (scan.first_row[a][code] == kAbsent) {
              scan.first_row[a][code] = i;
            }
          }
          if (i % stride == 0) {
            for (size_t j = 0; j < kNumAttrs; ++j) {
              scan.values[j].push_back(NumValue(j, r));
            }
          }
        }
        return Status::OK();
      }));

  // Merge first appearances (min is associative and order-insensitive) and
  // derive each attribute's compaction: global code -> slice code in order
  // of first appearance.
  std::array<std::vector<int32_t>, kCatAttrs> remap;
  std::array<std::vector<std::string>, kCatAttrs> labels;
  for (size_t a = 0; a < kCatAttrs; ++a) {
    std::vector<size_t> first(domains.values[a].size(), kAbsent);
    for (const RangeScan& scan : scans) {
      for (size_t code = 0; code < first.size(); ++code) {
        first[code] = std::min(first[code], scan.first_row[a][code]);
      }
    }
    std::vector<std::pair<size_t, size_t>> order;  // (first row, global code)
    for (size_t code = 0; code < first.size(); ++code) {
      if (first[code] != kAbsent) order.emplace_back(first[code], code);
    }
    std::sort(order.begin(), order.end());
    remap[a].assign(first.size(), -1);
    for (size_t rank = 0; rank < order.size(); ++rank) {
      remap[a][order[rank].second] = static_cast<int32_t>(rank);
      labels[a].push_back(domains.values[a][order[rank].second]);
    }
  }

  // Numeric bins: the per-range strided values concatenated in range order
  // (= row order). The row set depends only on `stride`, not on the split,
  // so the bins (and hence every code) are byte-identical for any thread
  // count.
  std::array<Bins, kNumAttrs> bins;
  for (size_t j = 0; j < kNumAttrs; ++j) {
    std::vector<double> vals;
    vals.reserve(rows_ / stride + 1);
    for (const RangeScan& scan : scans) {
      vals.insert(vals.end(), scan.values[j].begin(), scan.values[j].end());
    }
    DBX_ASSIGN_OR_RETURN(
        bins[j],
        BuildBins(vals, options.discretizer.max_numeric_bins,
                  options.discretizer.strategy));
  }
  scans.clear();

  // Pass 2 (one task per range): fill the code columns.
  std::array<std::vector<int32_t>, kCatAttrs> cat_codes;
  std::array<std::vector<int32_t>, kNumAttrs> num_codes;
  for (size_t a = 0; a < kCatAttrs; ++a) cat_codes[a].resize(rows_);
  for (size_t j = 0; j < kNumAttrs; ++j) num_codes[j].resize(rows_);
  DBX_RETURN_IF_ERROR(ParallelFor(
      options.num_threads, 0, ranges.size(), 1, [&](size_t s) -> Status {
        for (size_t i = ranges[s].begin; i < ranges[s].end; ++i) {
          UsedCarRow r = GenerateRow(i);
          for (size_t a = 0; a < kCatAttrs; ++a) {
            cat_codes[a][i] = remap[a][domains.CatCode(a, r)];
          }
          for (size_t j = 0; j < kNumAttrs; ++j) {
            num_codes[j][i] = bins[j].BinOf(NumValue(j, r));
          }
        }
        return Status::OK();
      }));

  Schema schema = UsedCarSchema();
  std::vector<DiscreteAttr> attrs(schema.size());
  for (size_t a = 0; a < kCatAttrs; ++a) {
    DiscreteAttr& da = attrs[kCatCols[a]];
    const AttributeDef& def = schema.attr(kCatCols[a]);
    da.name = def.name;
    da.original_type = def.type;
    da.queriable = def.queriable;
    da.labels = std::move(labels[a]);
    da.codes = std::move(cat_codes[a]);
  }
  for (size_t j = 0; j < kNumAttrs; ++j) {
    DiscreteAttr& da = attrs[kNumCols[j]];
    const AttributeDef& def = schema.attr(kNumCols[j]);
    da.name = def.name;
    da.original_type = def.type;
    da.queriable = def.queriable;
    da.bins = std::move(bins[j]);
    da.labels.reserve(da.bins.num_bins());
    for (size_t b = 0; b < da.bins.num_bins(); ++b) {
      da.labels.push_back(da.bins.LabelOf(b));
    }
    da.codes = std::move(num_codes[j]);
  }

  RowSet rows(rows_);
  for (size_t i = 0; i < rows_; ++i) rows[i] = static_cast<uint32_t>(i);
  return DiscretizedTable::FromParts(std::move(attrs), std::move(rows));
}

}  // namespace dbx
