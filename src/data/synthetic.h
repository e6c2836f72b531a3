// Copyright (c) DBExplorer reproduction authors.
// Configurable synthetic tables for scaling experiments. The paper remarks
// that "the CAD View will become more valuable in datasets that have more
// number of attributes or tuples" — this generator produces tables of
// arbitrary width/cardinality with a controllable latent-cluster structure
// so benchmarks can sweep dimensions the fixed datasets cannot.

#pragma once

#include <cstdint>
#include <vector>

#include "src/data/used_cars_model.h"
#include "src/relation/table.h"
#include "src/stats/discretizer.h"
#include "src/util/result.h"

namespace dbx {

struct SyntheticSpec {
  size_t rows = 10000;
  /// Categorical attributes C0..C{n-1} and numeric attributes N0..N{m-1}.
  size_t categorical_attrs = 10;
  size_t numeric_attrs = 4;
  /// Values per categorical attribute ("v0".."v{k-1}").
  size_t cardinality = 8;
  /// Latent cluster count; each cluster fixes a characteristic value per
  /// attribute (like the mushroom species model).
  size_t clusters = 6;
  /// Probability a cell keeps its cluster's characteristic value; the rest
  /// draw uniformly. 1.0 = perfectly clustered, 1/cardinality-ish = noise.
  double cluster_fidelity = 0.75;
  uint64_t seed = 33;
};

/// Generates a table per `spec`. The first categorical attribute C0 takes
/// the latent cluster id itself ("v<cluster>"), making it a natural pivot.
/// Fails on degenerate specs (zero rows/attributes/cardinality).
[[nodiscard]] Result<Table> GenerateSynthetic(const SyntheticSpec& spec);

/// Controls for ScaledUsedCars::Discretize.
struct ScaledDiscretizeOptions {
  DiscretizerOptions discretizer;
  /// Degree of parallelism (1 = serial). Both generation passes split the
  /// rows into this many contiguous ranges, one task each. Output is
  /// byte-identical for any value: categorical first-appearance orders merge
  /// by min row index and numeric bins come from a row set that does not
  /// depend on the split.
  size_t num_threads = 1;
  /// 0 = bin numeric attributes from every row — exact, equal to
  /// DiscretizedTable::Build over the materialized table, but O(rows)
  /// doubles of memory per numeric attribute. Otherwise bin from a
  /// deterministic strided sample of about this many rows (the paper's §6.3
  /// "sample once" idea applied to generation scale); the sample does not
  /// depend on the split either.
  size_t bin_sample = 0;
};

/// Deterministic out-of-core-scale used-car dataset (the §6.2 scaling
/// experiments' 10M-100M-row regime). Row i is drawn from its own generator
/// seeded by mixing (seed, i), so any row is O(1) to produce, any chunk can
/// stream independently of the rest, and the first N rows of a larger
/// instance equal the N-row instance (prefix property). Nothing is stored
/// per row — a 100M-row instance occupies a few hundred bytes until a caller
/// materializes or discretizes it.
class ScaledUsedCars {
 public:
  explicit ScaledUsedCars(size_t rows, uint64_t seed = 7);

  size_t num_rows() const { return rows_; }
  uint64_t seed() const { return seed_; }

  /// The i-th listing, independent of every other row.
  UsedCarRow GenerateRow(size_t i) const;

  /// FNV-1a fingerprint of the i-th row's rendered values (schema order),
  /// for golden pinning without materializing neighbors.
  uint64_t RowFingerprint(size_t i) const;

  /// Appends rows [begin, end) to `table` (UsedCarSchema layout).
  [[nodiscard]] Status AppendRange(Table* table, size_t begin,
                                   size_t end) const;

  /// The whole dataset as a Table — small scales only (tests, goldens).
  [[nodiscard]] Result<Table> Materialize() const;

  /// Streams the dataset straight into a DiscretizedTable — the CAD View
  /// builder's out-of-core entry point; the ~4.4 GB of Value strings a
  /// 100M-row Table would hold are never created. With bin_sample == 0 the
  /// result equals DiscretizedTable::Build over Materialize() exactly.
  [[nodiscard]] Result<DiscretizedTable> Discretize(
      const ScaledDiscretizeOptions& options) const;

 private:
  size_t rows_;
  uint64_t seed_;
  std::vector<double> model_weights_;
  std::vector<double> color_weights_;
};

}  // namespace dbx
