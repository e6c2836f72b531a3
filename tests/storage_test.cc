// Tests for the pluggable storage subsystem (DESIGN.md §15): URI parsing and
// the scheme factory, the mem: backend, the DBXC on-disk columnar format
// (byte-identical round trips, the mmap no-materialization Discretize path,
// and clean Status for every durability edge — truncation, bad magic,
// checksum mismatches, versions from the future), the dbxc: directory
// backend, and the sqlite: ingest adapter (auto-skipped when the build has
// no SQLite3).

#include "src/storage/storage.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/data/used_cars.h"
#include "src/stats/discretizer.h"
#include "src/storage/dbxc_backend.h"
#include "src/storage/dbxc_format.h"
#include "src/storage/mem_backend.h"
#include "src/storage/mmap_file.h"
#include "src/storage/sqlite_backend.h"

#if defined(DBX_HAVE_SQLITE)
#include <sqlite3.h>
#endif

namespace dbx::storage {
namespace {

/// A fresh per-test scratch directory under the system temp dir.
std::string FreshDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("dbx_storage_test_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Mixed-type table with nulls in both kinds of column and a repeated
/// categorical value (exercises dictionary interning and the null symbol).
Table MakeSample() {
  auto schema = Schema::Make({{"Make", AttrType::kCategorical, true},
                              {"Price", AttrType::kNumeric, true},
                              {"Notes", AttrType::kCategorical, false}});
  Table t(std::move(*schema));
  auto row = [&](Value a, Value b, Value c) {
    ASSERT_TRUE(t.AppendRow({std::move(a), std::move(b), std::move(c)}).ok());
  };
  row(Value("Ford"), Value(21000.0), Value("clean"));
  row(Value("Toyota"), Value(18500.5), Value::Null());
  row(Value("Ford"), Value::Null(), Value("dealer"));
  row(Value::Null(), Value(9999.0), Value("clean"));
  row(Value("Jeep"), Value(30125.25), Value("salvage"));
  row(Value("Toyota"), Value(18500.5), Value("clean"));
  return t;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (size_t c = 0; c < a.num_cols(); ++c) {
    EXPECT_EQ(a.schema().attr(c).name, b.schema().attr(c).name);
    EXPECT_EQ(a.schema().attr(c).type, b.schema().attr(c).type);
    EXPECT_EQ(a.schema().attr(c).queriable, b.schema().attr(c).queriable);
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_cols(); ++c) {
      EXPECT_EQ(a.At(r, c), b.At(r, c)) << "cell (" << r << ", " << c << ")";
    }
  }
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));
}

// --- URIs and the factory ----------------------------------------------------

TEST(StorageUriTest, ParsesAndLowercasesScheme) {
  auto p = ParseStorageUri("DBXC:/some/dir");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->first, "dbxc");
  EXPECT_EQ(p->second, "/some/dir");

  auto empty_loc = ParseStorageUri("mem:");
  ASSERT_TRUE(empty_loc.ok());
  EXPECT_EQ(empty_loc->first, "mem");
  EXPECT_EQ(empty_loc->second, "");
}

TEST(StorageUriTest, RejectsMalformedUris) {
  EXPECT_TRUE(ParseStorageUri("no-colon").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStorageUri(":/leading").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStorageUri("bad scheme:x").status().IsInvalidArgument());
}

TEST(StorageFactoryTest, BuiltinSchemesRegistered) {
  auto schemes = StorageBackendFactory::Global().Schemes();
  auto has = [&](const std::string& s) {
    return std::find(schemes.begin(), schemes.end(), s) != schemes.end();
  };
  EXPECT_TRUE(has("mem"));
  EXPECT_TRUE(has("dbxc"));
  EXPECT_TRUE(has("sqlite"));
}

TEST(StorageFactoryTest, UnknownSchemeIsNotFound) {
  EXPECT_TRUE(StorageBackendFactory::Global()
                  .Create("warehouse:/x")
                  .status()
                  .IsNotFound());
}

TEST(StorageFactoryTest, RegisteredCreatorWins) {
  StorageBackendFactory factory;
  RegisterMemBackend(&factory);
  auto backend = factory.Create("MEM:ignored");
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ((*backend)->scheme(), "mem");
  EXPECT_EQ((*backend)->location(), "ignored");
}

TEST(StorageTest, TableNameValidation) {
  EXPECT_TRUE(IsValidTableName("UsedCars"));
  EXPECT_TRUE(IsValidTableName("a-b_c9"));
  EXPECT_FALSE(IsValidTableName(""));
  EXPECT_FALSE(IsValidTableName("has space"));
  EXPECT_FALSE(IsValidTableName("../escape"));
  EXPECT_FALSE(IsValidTableName(std::string(129, 'x')));
}

TEST(StorageTest, SnapshotIdFormat) {
  EXPECT_EQ(SnapshotIdFor("T", 0), "T@0000000000000000");
  EXPECT_EQ(SnapshotIdFor("T", 0xDEADBEEFULL), "T@00000000deadbeef");
}

TEST(StorageTest, ContentHashSeesSchemaAndCells) {
  Table a = MakeSample();
  Table b = MakeSample();
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));

  // One more row: different content, different hash.
  ASSERT_TRUE(b.AppendRow({Value("Ford"), Value(1.0), Value("x")}).ok());
  EXPECT_NE(TableContentHash(a), TableContentHash(b));

  // Same cells, different queriability: different hash (the CAD View would
  // differ, so the snapshots must not share cache entries).
  auto schema = Schema::Make({{"Make", AttrType::kCategorical, true},
                              {"Price", AttrType::kNumeric, true},
                              {"Notes", AttrType::kCategorical, true}});
  Table c(std::move(*schema));
  for (size_t r = 0; r < a.num_rows(); ++r) {
    ASSERT_TRUE(c.AppendRow({a.At(r, 0), a.At(r, 1), a.At(r, 2)}).ok());
  }
  EXPECT_NE(TableContentHash(a), TableContentHash(c));
}

TEST(StorageTest, CopyTablePreservesContent) {
  Table t = MakeSample();
  auto copy = CopyTable(t);
  ASSERT_TRUE(copy.ok());
  ExpectTablesEqual(t, **copy);
}

// --- mem: --------------------------------------------------------------------

TEST(MemBackendTest, LifecycleAndSnapshotIdentity) {
  auto backend = OpenStorageBackend("mem:");
  ASSERT_TRUE(backend.ok());
  Table t = MakeSample();
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());

  auto listed = (*backend)->ListTables();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, std::vector<std::string>{"cars"});

  auto snap = (*backend)->LoadTable("cars");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->name, "cars");
  EXPECT_EQ(snap->snapshot_id, SnapshotIdFor("cars", TableContentHash(t)));
  ExpectTablesEqual(t, *snap->table);

  auto id = (*backend)->SnapshotId("cars");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, snap->snapshot_id);

  EXPECT_TRUE((*backend)->LoadTable("nope").status().IsNotFound());
  EXPECT_TRUE((*backend)->SnapshotId("nope").status().IsNotFound());
  EXPECT_TRUE((*backend)->StoreTable("../bad", t).IsInvalidArgument());

  // The snapshot is a deep copy: growing the source later must not change
  // what was stored.
  ASSERT_TRUE(t.AppendRow({Value("New"), Value(2.0), Value::Null()}).ok());
  auto again = (*backend)->LoadTable("cars");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->table->num_rows(), 6u);
  EXPECT_EQ(again->snapshot_id, snap->snapshot_id);

  ASSERT_TRUE((*backend)->Close().ok());
  EXPECT_TRUE((*backend)->ListTables().status().IsFailedPrecondition());
}

TEST(MemBackendTest, OperationsRequireOpen) {
  MemBackend backend("");
  EXPECT_TRUE(backend.ListTables().status().IsFailedPrecondition());
  EXPECT_TRUE(backend.LoadTable("x").status().IsFailedPrecondition());
}

// --- DBXC format -------------------------------------------------------------

TEST(DbxcFormatTest, RoundTripIsByteIdentical) {
  Table t = MakeSample();
  const std::string bytes = DbxcSerialize(t);
  ASSERT_TRUE(ValidateDbxc(bytes).ok());

  auto file = DbxcTableFile::FromBytes(bytes);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->num_rows(), t.num_rows());
  EXPECT_EQ(file->num_cols(), t.num_cols());
  EXPECT_EQ(file->content_hash(), TableContentHash(t));

  auto back = file->Materialize();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectTablesEqual(t, **back);

  // write(load(write(T))) == write(T): the format is canonical.
  EXPECT_EQ(DbxcSerialize(**back), bytes);
}

TEST(DbxcFormatTest, EmptyAndAllNullTablesRoundTrip) {
  auto schema = Schema::Make({{"A", AttrType::kCategorical, true},
                              {"B", AttrType::kNumeric, true}});
  Table empty(std::move(*schema));
  auto efile = DbxcTableFile::FromBytes(DbxcSerialize(empty));
  ASSERT_TRUE(efile.ok()) << efile.status().ToString();
  auto eback = efile->Materialize();
  ASSERT_TRUE(eback.ok());
  ExpectTablesEqual(empty, **eback);

  auto schema2 = Schema::Make({{"A", AttrType::kCategorical, true},
                               {"B", AttrType::kNumeric, true}});
  Table nulls(std::move(*schema2));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(nulls.AppendRow({Value::Null(), Value::Null()}).ok());
  }
  auto nfile = DbxcTableFile::FromBytes(DbxcSerialize(nulls));
  ASSERT_TRUE(nfile.ok()) << nfile.status().ToString();
  auto nback = nfile->Materialize();
  ASSERT_TRUE(nback.ok());
  ExpectTablesEqual(nulls, **nback);
}

TEST(DbxcFormatTest, WideDictionaryCrossesWordBoundaries) {
  // 300 distinct values force a 9-bit width, so packed symbols straddle u64
  // word boundaries; a second column keeps width 1 (the all-null case).
  auto schema = Schema::Make({{"Id", AttrType::kCategorical, true},
                              {"Empty", AttrType::kCategorical, true}});
  Table t(std::move(*schema));
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value("v" + std::to_string(i)), Value::Null()}).ok());
  }
  auto file = DbxcTableFile::FromBytes(DbxcSerialize(t));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->header().cols[0].bit_width, 9);
  EXPECT_EQ(file->header().cols[1].bit_width, 1);
  auto back = file->Materialize();
  ASSERT_TRUE(back.ok());
  ExpectTablesEqual(t, **back);
}

TEST(DbxcFormatTest, MmapDiscretizeMatchesMaterializedBuild) {
  Table t = MakeSample();
  auto file = DbxcTableFile::FromBytes(DbxcSerialize(t));
  ASSERT_TRUE(file.ok());

  DiscretizerOptions options;
  options.max_numeric_bins = 4;
  auto from_mmap = file->Discretize(options);
  ASSERT_TRUE(from_mmap.ok()) << from_mmap.status().ToString();
  auto from_table = DiscretizedTable::Build(TableSlice::All(t), options);
  ASSERT_TRUE(from_table.ok());

  ASSERT_EQ(from_mmap->num_attrs(), from_table->num_attrs());
  ASSERT_EQ(from_mmap->num_rows(), from_table->num_rows());
  EXPECT_EQ(from_mmap->rows(), from_table->rows());
  for (size_t a = 0; a < from_table->num_attrs(); ++a) {
    const DiscreteAttr& x = from_mmap->attr(a);
    const DiscreteAttr& y = from_table->attr(a);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.original_type, y.original_type);
    EXPECT_EQ(x.queriable, y.queriable);
    EXPECT_EQ(x.labels, y.labels);
    EXPECT_EQ(x.codes, y.codes);
    EXPECT_EQ(x.bins.edges, y.bins.edges);
  }
}

/// FNV-1a (64-bit) over a discretization's labels, bin edges and codes.
std::string DiscretizedHash(const DiscretizedTable& dt) {
  std::string bytes;
  for (const DiscreteAttr& a : dt.attrs()) {
    bytes += a.name + "|" + std::to_string(static_cast<int>(a.original_type)) +
             (a.queriable ? "|q|" : "|h|");
    for (const std::string& l : a.labels) bytes += l + ",";
    for (double e : a.bins.edges) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g,", e);
      bytes += buf;
    }
    for (int32_t c : a.codes) bytes += std::to_string(c) + ",";
    bytes += "\n";
  }
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

// Pins the mmap Discretize bytes themselves (the test above only compares
// them with DiscretizedTable::Build). Recorded once; never edited.
TEST(DbxcFormatTest, MmapDiscretizeGolden) {
  DiscretizerOptions depth4;
  depth4.max_numeric_bins = 4;
  DiscretizerOptions width;
  width.strategy = BinStrategy::kEquiWidth;
  struct Case {
    const char* name;
    Table table;
    DiscretizerOptions options;
    const char* expected;
  };
  std::vector<Case> cases;
  cases.push_back({"sample", MakeSample(), depth4, "0x85a55e955ef82c4d"});
  cases.push_back({"cars_default", GenerateUsedCars(4000, 7),
                   DiscretizerOptions{}, "0x9f6498bca303ef7f"});
  cases.push_back({"cars_equi_width", GenerateUsedCars(4000, 7), width,
                   "0xbe670e5d6679d0bb"});
  for (const Case& c : cases) {
    auto file = DbxcTableFile::FromBytes(DbxcSerialize(c.table));
    ASSERT_TRUE(file.ok()) << c.name;
    auto dt = file->Discretize(c.options);
    ASSERT_TRUE(dt.ok()) << c.name << ": " << dt.status().ToString();
    EXPECT_EQ(DiscretizedHash(*dt), c.expected) << c.name;
  }
}

// --- DBXC durability edges ---------------------------------------------------

TEST(DbxcDurabilityTest, TruncationAtEveryBoundaryIsClean) {
  const std::string bytes = DbxcSerialize(MakeSample());
  // Preamble cut, header cut, data cut — every prefix must fail cleanly.
  for (size_t len : {size_t{0}, size_t{3}, size_t{10}, size_t{19}, size_t{40},
                     bytes.size() - 1}) {
    ASSERT_LT(len, bytes.size());
    auto st = ValidateDbxc(bytes.substr(0, len));
    EXPECT_TRUE(st.IsCorruption()) << "prefix length " << len << ": "
                                   << st.ToString();
  }
  // Trailing garbage is just as corrupt as missing bytes.
  EXPECT_TRUE(ValidateDbxc(bytes + "x").IsCorruption());
}

TEST(DbxcDurabilityTest, BadMagicIsCorruption) {
  std::string bytes = DbxcSerialize(MakeSample());
  bytes[0] = 'X';
  EXPECT_TRUE(ValidateDbxc(bytes).IsCorruption());
  EXPECT_TRUE(DbxcTableFile::FromBytes(bytes).status().IsCorruption());
}

TEST(DbxcDurabilityTest, HeaderCorruptionIsDetected) {
  std::string bytes = DbxcSerialize(MakeSample());
  bytes[kDbxcPreambleBytes + 2] ^= 0x40;  // inside the header section
  auto st = ValidateDbxc(bytes);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("header checksum"), std::string::npos);
}

TEST(DbxcDurabilityTest, DataCorruptionIsDetected) {
  std::string bytes = DbxcSerialize(MakeSample());
  bytes[bytes.size() - 1] ^= 0x01;  // inside the data section
  auto st = ValidateDbxc(bytes);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("data checksum"), std::string::npos);
  // The default open verifies data too.
  EXPECT_TRUE(DbxcTableFile::FromBytes(bytes).status().IsCorruption());
}

TEST(DbxcDurabilityTest, VersionFromTheFutureIsNotSupported) {
  std::string bytes = DbxcSerialize(MakeSample());
  bytes[4] = static_cast<char>(kDbxcVersion + 1);  // u32 LE version field
  auto st = ValidateDbxc(bytes);
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  EXPECT_NE(st.message().find("newer"), std::string::npos);
}

// --- dbxc: backend -----------------------------------------------------------

TEST(DbxcBackendTest, StoreLoadListSnapshot) {
  const std::string dir = FreshDir("dbxc_backend");
  auto backend = OpenStorageBackend("dbxc:" + dir);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  Table t = MakeSample();
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());
  ASSERT_TRUE((*backend)->StoreTable("cars2", t).ok());

  auto listed = (*backend)->ListTables();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, (std::vector<std::string>{"cars", "cars2"}));

  auto snap = (*backend)->LoadTable("cars");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ExpectTablesEqual(t, *snap->table);
  EXPECT_EQ(snap->snapshot_id, SnapshotIdFor("cars", TableContentHash(t)));

  // Header-only probe agrees with the full load.
  auto id = (*backend)->SnapshotId("cars");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, snap->snapshot_id);

  EXPECT_TRUE((*backend)->LoadTable("missing").status().IsNotFound());

  // Reopening the directory sees the same tables with the same ids.
  ASSERT_TRUE((*backend)->Close().ok());
  auto reopened = OpenStorageBackend("dbxc:" + dir);
  ASSERT_TRUE(reopened.ok());
  auto id2 = (*reopened)->SnapshotId("cars");
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, snap->snapshot_id);
  std::filesystem::remove_all(dir);
}

TEST(DbxcBackendTest, StoreReplacesAtomically) {
  const std::string dir = FreshDir("dbxc_replace");
  auto backend = OpenStorageBackend("dbxc:" + dir);
  ASSERT_TRUE(backend.ok());
  Table t = MakeSample();
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());
  auto id1 = (*backend)->SnapshotId("cars");
  ASSERT_TRUE(id1.ok());

  ASSERT_TRUE(t.AppendRow({Value("New"), Value(5.0), Value::Null()}).ok());
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());
  auto id2 = (*backend)->SnapshotId("cars");
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id1, *id2);
  // No leftover temp files from the atomic write.
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(DbxcBackendTest, CorruptFileSurfacesAsStatusNotCrash) {
  const std::string dir = FreshDir("dbxc_corrupt");
  auto backend = OpenStorageBackend("dbxc:" + dir);
  ASSERT_TRUE(backend.ok());
  ASSERT_TRUE((*backend)->StoreTable("cars", MakeSample()).ok());

  // Truncate the stored file mid-data.
  DbxcBackend* dbxc = static_cast<DbxcBackend*>(backend->get());
  const std::string path = dbxc->PathFor("cars");
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_TRUE((*backend)->LoadTable("cars").status().IsCorruption());
  EXPECT_TRUE((*backend)->SnapshotId("cars").status().IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(MmapFileTest, MissingAndEmptyFiles) {
  EXPECT_TRUE(MmapFile::Open("/nonexistent/definitely/missing")
                  .status()
                  .IsNotFound());
  const std::string dir = FreshDir("mmap");
  const std::string path = dir + "/empty";
  { std::ofstream f(path); }
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->bytes().empty());
  std::filesystem::remove_all(dir);
}

// --- sqlite: -----------------------------------------------------------------

TEST(SqliteBackendTest, UnavailableSchemeFailsCleanly) {
  if (SqliteBackendAvailable()) {
    GTEST_SKIP() << "SQLite compiled in; the stub path is not reachable";
  }
  auto backend = StorageBackendFactory::Global().Create("sqlite:/tmp/x.db");
  EXPECT_TRUE(backend.status().IsNotSupported());
}

#if defined(DBX_HAVE_SQLITE)

TEST(SqliteBackendTest, RoundTripPreservesSchemaAndContent) {
  const std::string dir = FreshDir("sqlite_rt");
  auto backend = OpenStorageBackend("sqlite:" + dir + "/t.db");
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  Table t = MakeSample();
  ASSERT_TRUE((*backend)->StoreTable("cars", t).ok());
  auto listed = (*backend)->ListTables();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, std::vector<std::string>{"cars"});

  auto snap = (*backend)->LoadTable("cars");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  // Full fidelity through SQL types: cells, attribute types, and the
  // non-queriable Notes flag (via the dbx_storage_meta sidecar) — so the
  // snapshot id equals the mem:/dbxc: id of the same logical table.
  ExpectTablesEqual(t, *snap->table);
  EXPECT_EQ(snap->snapshot_id, SnapshotIdFor("cars", TableContentHash(t)));
  ASSERT_TRUE((*backend)->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(SqliteBackendTest, SniffsExternalTableTypes) {
  const std::string dir = FreshDir("sqlite_sniff");
  const std::string db_path = dir + "/ext.db";
  {
    // An "external" table no dbx tool wrote: no sidecar metadata.
    sqlite3* db = nullptr;
    ASSERT_EQ(sqlite3_open(db_path.c_str(), &db), SQLITE_OK);
    ASSERT_EQ(sqlite3_exec(db,
                           "CREATE TABLE listings (city TEXT, price REAL, "
                           "stars INTEGER, mixed TEXT);"
                           "INSERT INTO listings VALUES "
                           "('Rome', 120.5, 4, '12'),"
                           "('Oslo', NULL, 5, 'abc'),"
                           "(NULL, 99.0, NULL, NULL);",
                           nullptr, nullptr, nullptr),
              SQLITE_OK);
    sqlite3_close(db);
  }
  auto backend = OpenStorageBackend("sqlite:" + db_path);
  ASSERT_TRUE(backend.ok());
  auto snap = (*backend)->LoadTable("listings");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const Schema& schema = snap->table->schema();
  ASSERT_EQ(schema.size(), 4u);
  EXPECT_EQ(schema.attr(0).type, AttrType::kCategorical);  // TEXT
  EXPECT_EQ(schema.attr(1).type, AttrType::kNumeric);      // REAL + NULL
  EXPECT_EQ(schema.attr(2).type, AttrType::kNumeric);      // INTEGER + NULL
  EXPECT_EQ(schema.attr(3).type, AttrType::kCategorical);  // mixed digits/text
  EXPECT_TRUE(schema.attr(0).queriable);                   // no sidecar: default
  EXPECT_EQ(snap->table->num_rows(), 3u);
  EXPECT_EQ(snap->table->At(0, 0), Value("Rome"));
  EXPECT_EQ(snap->table->At(1, 2), Value(5.0));
  EXPECT_TRUE(snap->table->At(2, 3).is_null());
  std::filesystem::remove_all(dir);
}

TEST(SqliteBackendTest, MissingTableIsNotFound) {
  const std::string dir = FreshDir("sqlite_missing");
  auto backend = OpenStorageBackend("sqlite:" + dir + "/t.db");
  ASSERT_TRUE(backend.ok());
  EXPECT_TRUE((*backend)->LoadTable("nope").status().IsNotFound());
  std::filesystem::remove_all(dir);
}

#endif  // DBX_HAVE_SQLITE

}  // namespace
}  // namespace dbx::storage
