// Copyright (c) DBExplorer reproduction authors.
// CAD View construction (paper §2.2.2 Problems 1-2, §3): discretize the
// selected fragment, choose Compare Attributes (chi-square), cluster each
// pivot-value partition into l candidate IUnits (k-means), label them, and
// pick diversified top-k per partition. Implements the paper's three §6.3
// performance optimizations behind options.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cad_view.h"
#include "src/core/div_topk.h"
#include "src/core/iunit_labeler.h"
#include "src/obs/trace.h"
#include "src/relation/table.h"
#include "src/stats/discretizer.h"
#include "src/stats/feature_selection.h"

namespace dbx {

/// User- or system-supplied IUnit preference (Problem 2's P). Receives each
/// candidate IUnit; higher is better. Default ranks by cluster size.
using IUnitPreference = std::function<double(const IUnit&)>;

struct CadViewOptions {
  /// The Pivot Attribute f_p (must name an attribute of the table).
  std::string pivot_attr;

  /// Pivot values V to compare. Empty = every value present in the fragment
  /// (the paper's default: "we will show all of them").
  std::vector<std::string> pivot_values;

  /// Compare Attributes the user explicitly selected (the SELECT clause).
  /// They always appear, in the given order, ahead of auto-chosen ones.
  std::vector<std::string> user_compare_attrs;

  /// Total Compare Attributes M (LIMIT COLUMNS). The system auto-selects
  /// M - |user_compare_attrs| significant attributes.
  size_t max_compare_attrs = 5;

  /// IUnits shown per pivot value (k; the IUNITS keyword).
  size_t iunits_per_value = 3;

  /// Candidate clusters l. 0 derives l = ceil(candidate_factor * k) — the
  /// paper's "system tuning parameter, such as l = 1.5k".
  size_t generated_iunits = 0;
  double candidate_factor = 1.5;

  /// Paper §2.2.2 alternative: "l can be chosen by iterating through all
  /// plausible l values and evaluating the quality of the resulting CAD
  /// View". When set, each partition tries l in [k, auto_l_max_factor * k]
  /// and keeps the clustering with the best simplified silhouette. Overrides
  /// generated_iunits/candidate_factor; noticeably slower (one k-means run
  /// per tried l).
  bool auto_l = false;
  double auto_l_max_factor = 2.0;

  DiscretizerOptions discretizer;
  FeatureSelectionOptions feature_selection;
  LabelerOptions labeler;

  /// alpha in tau = alpha * |I| (paper §4.1).
  double similarity_alpha = 0.7;

  DivTopKAlgorithm topk_algorithm = DivTopKAlgorithm::kDivAstar;

  /// Preference function P for ranking candidate IUnits; nullptr = cluster
  /// size (the paper's "simple system default").
  IUnitPreference preference;

  /// k-means controls.
  size_t kmeans_max_iterations = 20;
  uint64_t seed = 42;

  /// Degree of parallelism on the shared thread pool (1 = serial) for every
  /// parallel stage: partition clustering, chi-square ranking, k-means
  /// assignment, and similarity-graph construction. The resulting CadView is
  /// byte-identical for any value — work is assigned by index into fixed
  /// result slots and reduced in a fixed order.
  size_t num_threads = 1;

  // ----- §6.3 optimizations -------------------------------------------------

  /// Optimization 1a: compute Compare-Attribute ranking over a uniform sample
  /// of this many rows (0 = use the full fragment).
  size_t feature_selection_sample = 0;

  /// Optimization 1b: cluster each partition over a sample of this many rows
  /// (0 = full partition). Labels/frequencies still reflect the sample.
  size_t clustering_sample = 0;

  /// Optimization 2: shrink l on large fragments ("generate fewer IUnits when
  /// the result set is very large"). When enabled, partitions larger than
  /// `adaptive_l_threshold` rows use l = max(k, adaptive_l_min).
  bool adaptive_l = false;
  size_t adaptive_l_threshold = 4000;
  size_t adaptive_l_min = 0;  // 0 = k

  // ----- observability ------------------------------------------------------

  /// Span collector for this build. Never null (defaults to the shared no-op
  /// tracer); like num_threads it cannot change the built view's bytes, so
  /// CadViewOptionsFingerprint excludes it. Stage spans (partition,
  /// chi_square, iunit_gen with per-partition kmeans/labeling children,
  /// div_topk) nest under `trace_parent`.
  Tracer* tracer = Tracer::Disabled();
  uint64_t trace_parent = 0;
};

/// Builds a CAD View over the selected fragment `slice`.
///
/// Fails when the pivot attribute is unknown/non-categorical, when no pivot
/// value has any rows, or when option values are out of range. Partitions
/// with fewer rows than l simply yield fewer IUnits.
[[nodiscard]] Result<CadView> BuildCadView(const TableSlice& slice,
                             const CadViewOptions& options);

/// As BuildCadView, but reuses a pre-built discretization of the same slice
/// (the interactive TPFacet session projects its full-table discretization
/// onto the current result set).
[[nodiscard]]
Result<CadView> BuildCadViewFromDiscretized(const DiscretizedTable& dt,
                                            const CadViewOptions& options);

}  // namespace dbx
