// The four explore_bench workloads: which table each serves, how many
// analysts drive it, and the seeded statement streams they send. Every
// constant in a statement (range bounds, pivot values, HIGHLIGHT/REORDER
// references) is drawn from rows of the served table, so each statement is
// valid by construction; the server only ever sees the generated text.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/relation/table.h"

namespace dbx::explore {

enum class WorkloadId { kColdBuild, kDrilldownMix, kSelectiveScan, kIngestChurn };

struct WorkloadSpec {
  WorkloadId id;
  const char* name;
  /// Closed-loop analysts, each on its own connection, zero think time.
  size_t clients;
  /// CadViewOptions::num_threads for every build. clients + build_threads
  /// stays within 4 cores.
  size_t build_threads;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Sizes that --smoke shrinks.
struct Scale {
  size_t selective_rows = 1000000;
  size_t pool_overviews = 32;
  bool smoke = false;
};
Scale FullScale();
Scale SmokeScale();

/// The table every workload serves its statements over.
inline constexpr char kTableName[] = "UsedCars";
inline constexpr size_t kBaseRows = 40000;
inline constexpr uint64_t kDataSeed = 7;
/// ingest_churn: a write lands at the start of the measured window and after
/// every kReadsPerWrite completed statements, so the window is a run of
/// invalidate-and-rebuild cycles. Write k appends the next kRowsPerWrite
/// ScaledUsedCars rows; after kWritesPerRepetition appends the table
/// restarts from the kBaseRows base, which keeps its size stationary.
inline constexpr size_t kReadsPerWrite = 1000;
inline constexpr size_t kRowsPerWrite = 2000;
inline constexpr size_t kWritesPerRepetition = 5;

/// ingest_churn's table contents: [0] the base, [k] the base plus k batches.
std::vector<std::shared_ptr<const Table>> IngestContents(
    std::shared_ptr<const Table> base);

/// The workload's table as generated (before any storage round trip).
Table GenerateTable(const WorkloadSpec& spec, const Scale& scale);

/// Statement classes the end-to-end latency metrics are split by.
enum class StmtClass { kCadView, kInView, kLookup };

/// One request an analyst sends. OPEN and CLOSE manage the session; only
/// EXEC requests are statements.
struct Request {
  enum class Kind { kOpen, kExec, kClose };
  Kind kind = Kind::kExec;
  StmtClass cls = StmtClass::kLookup;
  std::string sql;
};

/// One CADVIEW the generator can issue: the fragment's WHERE text and pivot
/// values of rows inside the fragment (what HIGHLIGHT/REORDER may reference).
struct ViewStep {
  std::string where;  // empty = whole table
  std::string pivot;
  size_t limit_columns = 3;
  size_t iunits = 2;
  std::vector<std::string> pivot_values;

  std::string CreateSql(const std::string& view_name) const;
};

/// drilldown_mix / ingest_churn: overviews an analyst opens (Zipf-popular)
/// and, per overview, drill-downs that pin one of its pivot values.
struct DrillPool {
  std::vector<ViewStep> overviews;
  std::vector<std::vector<ViewStep>> drills;  // parallel to overviews
};

/// Draws `scale.pool_overviews` distinct overviews over `table` and up to
/// four drill-downs each.
DrillPool MakeDrillPool(const Table& table, const Scale& scale, uint64_t seed);

/// An endless, deterministic request stream for one analyst.
class RequestStream {
 public:
  virtual ~RequestStream() = default;
  virtual Request Next() = 0;
};

/// Client `client`'s stream. `pool` is used by the session workloads and
/// must outlive the stream; `table` by the others, likewise.
std::unique_ptr<RequestStream> MakeStream(const WorkloadSpec& spec,
                                          const Table& table,
                                          const DrillPool* pool,
                                          uint64_t seed, size_t client);

/// Untimed warm-up requests for client `client` of `clients`: every pool
/// CADVIEW once (split across clients) for the session workloads; empty for
/// the others, whose warm-up is the start of their own stream.
std::vector<Request> PoolWarmup(const DrillPool& pool, size_t client,
                                size_t clients);

/// The text --dump-statements prints: every client's first `count`
/// requests, plus the ingest writer's schedule.
std::string DumpStatements(const WorkloadSpec& spec, const Scale& scale,
                           uint64_t seed, size_t count);

}  // namespace dbx::explore
