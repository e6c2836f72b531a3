// Storage-path byte-identity (DESIGN.md §15): the same logical table served
// through mem:, dbxc: (write -> reopen -> mmap -> materialize), and sqlite:
// (write -> reopen -> ingest) must produce byte-identical CAD View responses
// through the server path, across thread counts — the storage layer joins
// the determinism contract the thread layer already honors. Also
// pins the warm-reopen contract: re-registering a snapshot with an unchanged
// content-addressed id keeps the shared ViewCache warm, while changed
// content invalidates.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/data/used_cars.h"
#include "src/obs/metrics.h"
#include "src/server/dispatcher.h"
#include "src/server/protocol.h"
#include "src/server/transport.h"
#include "src/storage/sqlite_backend.h"
#include "src/storage/storage.h"
#include "src/util/thread_pool.h"

namespace dbx::server {
namespace {

using dbx::storage::OpenStorageBackend;
using dbx::storage::TableSnapshot;

/// Scripted loopback exchange (same shape as server_test.cc).
std::vector<std::string> RunScript(Dispatcher* dispatcher,
                                   const std::vector<std::string>& requests) {
  auto [client, server] = LoopbackPair();
  for (const auto& r : requests) {
    auto frame = EncodeFrame(r);
    EXPECT_TRUE(frame.ok());
    EXPECT_TRUE(client->Write(*frame).ok());
  }
  client->CloseWrite();
  dispatcher->ServeConnection(server.get());
  FrameDecoder dec;
  for (;;) {
    auto chunk = client->Read(64u << 10);
    EXPECT_TRUE(chunk.ok());
    if (!chunk.ok() || chunk->empty()) break;
    EXPECT_TRUE(dec.Feed(*chunk).ok());
  }
  std::vector<std::string> payloads;
  while (auto p = dec.Next()) payloads.push_back(*p);
  EXPECT_FALSE(dec.mid_frame());
  return payloads;
}

std::string FreshDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("dbx_storage_id_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Session ids increment per dispatcher, so a reused dispatcher needs the
/// script re-targeted at the id its OPEN will hand out.
std::vector<std::string> MakeScript(const std::string& sid) {
  return {
      "OPEN",
      "EXEC " + sid +
          " CREATE CADVIEW v AS SET pivot = Make SELECT Price, Mileage "
          "FROM UsedCars WHERE BodyType = SUV LIMIT COLUMNS 2 IUNITS 2",
      "EXEC " + sid +
          " SELECT Make, COUNT(*) FROM UsedCars GROUP BY Make "
          "ORDER BY count DESC LIMIT 5",
      "CLOSE " + sid,
  };
}

const std::vector<std::string> kScript = MakeScript("s1");

class StorageIdentityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new Table(GenerateUsedCars(1200, 3));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  /// Runs kScript over a dispatcher seeded with `snap` at one grid point.
  std::vector<std::string> RunAt(const TableSnapshot& snap, size_t threads) {
    ServerOptions options;
    options.metrics = &metrics_;
    options.cad_defaults.num_threads = threads;
    Dispatcher d(std::move(options));
    d.RegisterTableSnapshot(snap.name, snap.table, snap.snapshot_id);
    return RunScript(&d, kScript);
  }

  MetricsRegistry metrics_;
  static Table* table_;
};

Table* StorageIdentityTest::table_ = nullptr;

TEST_F(StorageIdentityTest, BackendsByteIdenticalAcrossShardThreadGrid) {
  // One snapshot per storage path, all of the same logical table.
  std::vector<std::pair<std::string, TableSnapshot>> snapshots;

  auto mem = OpenStorageBackend("mem:");
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE((*mem)->StoreTable("UsedCars", *table_).ok());
  auto mem_snap = (*mem)->LoadTable("UsedCars");
  ASSERT_TRUE(mem_snap.ok());
  snapshots.emplace_back("mem:", std::move(*mem_snap));

  // dbxc: full write -> close -> reopen -> load cycle, so the bytes really
  // went through the on-disk columnar format.
  const std::string dir = FreshDir("dbxc");
  {
    auto writer = OpenStorageBackend("dbxc:" + dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->StoreTable("UsedCars", *table_).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto dbxc = OpenStorageBackend("dbxc:" + dir);
  ASSERT_TRUE(dbxc.ok());
  auto dbxc_snap = (*dbxc)->LoadTable("UsedCars");
  ASSERT_TRUE(dbxc_snap.ok()) << dbxc_snap.status().ToString();
  snapshots.emplace_back("dbxc:", std::move(*dbxc_snap));

  if (dbx::storage::SqliteBackendAvailable()) {
    const std::string sdir = FreshDir("sqlite");
    {
      auto writer = OpenStorageBackend("sqlite:" + sdir + "/t.db");
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE((*writer)->StoreTable("UsedCars", *table_).ok());
      ASSERT_TRUE((*writer)->Close().ok());
    }
    auto sqlite = OpenStorageBackend("sqlite:" + sdir + "/t.db");
    ASSERT_TRUE(sqlite.ok());
    auto sqlite_snap = (*sqlite)->LoadTable("UsedCars");
    ASSERT_TRUE(sqlite_snap.ok()) << sqlite_snap.status().ToString();
    snapshots.emplace_back("sqlite:", std::move(*sqlite_snap));
  }

  // Content addressing: every path derives the identical snapshot id.
  for (const auto& [scheme, snap] : snapshots) {
    EXPECT_EQ(snap.snapshot_id, snapshots[0].second.snapshot_id)
        << scheme << " produced a different snapshot id";
  }

  // The whole grid, every backend: one reference response vector.
  std::vector<std::string> reference;
  for (size_t threads : {size_t{1}, size_t{4}, TestThreads(2)}) {
    for (const auto& [scheme, snap] : snapshots) {
      auto responses = RunAt(snap, threads);
      ASSERT_EQ(responses.size(), kScript.size()) << scheme;
      if (reference.empty()) {
        reference = responses;
        continue;
      }
      EXPECT_EQ(responses, reference)
          << scheme << " diverged at threads=" << threads;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_F(StorageIdentityTest, ReopenWithUnchangedSnapshotKeepsCacheWarm) {
  const std::string dir = FreshDir("warm");
  {
    auto writer = OpenStorageBackend("dbxc:" + dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->StoreTable("UsedCars", *table_).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }

  auto load = [&] {
    auto backend = OpenStorageBackend("dbxc:" + dir);
    EXPECT_TRUE(backend.ok());
    auto snap = (*backend)->LoadTable("UsedCars");
    EXPECT_TRUE(snap.ok());
    return std::move(*snap);
  };

  ServerOptions options;
  options.metrics = &metrics_;
  options.cad_defaults.num_threads = TestThreads(2);
  Dispatcher d(std::move(options));

  TableSnapshot first = load();
  d.RegisterTableSnapshot(first.name, first.table, first.snapshot_id);
  auto r1 = RunScript(&d, kScript);
  ASSERT_EQ(r1.size(), kScript.size());
  ASSERT_TRUE(DecodeResponse(r1[1])->status.ok())
      << DecodeResponse(r1[1])->status.ToString();
  const auto cold = d.cache()->stats();
  EXPECT_EQ(cold.inserts, 1u);

  // "Server restart" against unchanged data: a fresh load produces the same
  // content hash, so re-registering must NOT invalidate — the second build
  // is a cache hit even though the Table object is a different materialization.
  TableSnapshot second = load();
  EXPECT_EQ(second.snapshot_id, first.snapshot_id);
  EXPECT_NE(second.table.get(), first.table.get());
  d.RegisterTableSnapshot(second.name, second.table, second.snapshot_id);
  auto r2 = RunScript(&d, MakeScript("s2"));
  ASSERT_EQ(r2.size(), kScript.size());
  const auto warm = d.cache()->stats();
  EXPECT_EQ(warm.hits, cold.hits + 1) << "reopen lost the warm cache";
  EXPECT_EQ(warm.inserts, cold.inserts);
  EXPECT_EQ(warm.invalidations, cold.invalidations);
  // Payloads past OPEN (which names the session) must be byte-identical.
  EXPECT_EQ(r2[1], r1[1]);
  EXPECT_EQ(r2[2], r1[2]);

  // Changed content: new hash, old entries invalidated, fresh build.
  {
    auto writer = OpenStorageBackend("dbxc:" + dir);
    ASSERT_TRUE(writer.ok());
    Table grown(GenerateUsedCars(1300, 3));
    ASSERT_TRUE((*writer)->StoreTable("UsedCars", grown).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  TableSnapshot changed = load();
  EXPECT_NE(changed.snapshot_id, first.snapshot_id);
  d.RegisterTableSnapshot(changed.name, changed.table, changed.snapshot_id);
  auto r3 = RunScript(&d, MakeScript("s3"));
  ASSERT_EQ(r3.size(), kScript.size());
  const auto after = d.cache()->stats();
  EXPECT_GT(after.invalidations, warm.invalidations);
  EXPECT_EQ(after.inserts, warm.inserts + 1) << "changed data must rebuild";
  EXPECT_NE(r3[1], r1[1]) << "changed data must change the view";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dbx::server
