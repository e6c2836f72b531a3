// Copyright (c) DBExplorer reproduction authors.
// Structured query log (DESIGN.md §14): serialization goldens, the
// determinism contract (byte-identical JSONL run to run once wall-clock
// fields are stripped, through the dispatcher that writes the records),
// slow-only filtering, ring bounds, the file sink, stage-latency extraction
// from span trees, and a concurrency hammer that the TSAN tier runs to vet
// the sink's locking.

#include "src/obs/query_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/data/used_cars.h"
#include "src/obs/trace.h"
#include "src/server/dispatcher.h"
#include "src/server/protocol.h"
#include "src/server/transport.h"

namespace dbx {
namespace {

QueryLogRecord SampleRecord() {
  QueryLogRecord r;
  r.session = "s1";
  r.trace = "t-42";
  r.statement = "SELECT COUNT(*) FROM UsedCars";
  r.status = "OK";
  r.cache = "none";
  r.response_bytes = 17;
  r.total_ms = 1.25;
  r.stages = {{"exec", 1.0}, {"parse", 0.25}};
  return r;
}

TEST(QueryLogLineTest, GoldenWithTimings) {
  QueryLogRecord r = SampleRecord();
  r.seq = 3;
  r.slow = true;
  EXPECT_EQ(QueryLog::ToJsonLine(r),
            "{\"seq\":3,\"session\":\"s1\",\"trace\":\"t-42\","
            "\"statement\":\"SELECT COUNT(*) FROM UsedCars\","
            "\"status\":\"OK\",\"cache\":\"none\",\"response_bytes\":17,"
            "\"total_ms\":1.250,\"slow\":true,"
            "\"stages\":{\"exec\":1.000,\"parse\":0.250}}");
}

TEST(QueryLogLineTest, GoldenWithoutTimings) {
  // include_timings=false is the byte-determinism view: every field left is
  // a pure function of the statement script, none of the wall clock.
  QueryLogRecord r = SampleRecord();
  r.seq = 1;
  EXPECT_EQ(QueryLog::ToJsonLine(r, /*include_timings=*/false),
            "{\"seq\":1,\"session\":\"s1\",\"trace\":\"t-42\","
            "\"statement\":\"SELECT COUNT(*) FROM UsedCars\","
            "\"status\":\"OK\",\"cache\":\"none\",\"response_bytes\":17}");
}

TEST(QueryLogLineTest, EscapesJsonSpecials) {
  QueryLogRecord r;
  r.seq = 1;
  r.session = "s\"1\"";
  r.statement = "SELECT \"x\\y\"\n\tFROM t";
  std::string line = QueryLog::ToJsonLine(r, /*include_timings=*/false);
  EXPECT_NE(line.find("\"session\":\"s\\\"1\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\\t"), std::string::npos);
  EXPECT_NE(line.find("\\\\y"), std::string::npos);
  // Raw control characters must never reach the output line.
  for (char c : line) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(QueryLogTest, AppendAssignsSequenceAndEvaluatesSlow) {
  QueryLog log;
  log.SetSlowThresholdMs(10.0);
  QueryLogRecord fast = SampleRecord();
  fast.total_ms = 9.99;
  QueryLogRecord slow = SampleRecord();
  slow.total_ms = 10.0;  // threshold is inclusive
  EXPECT_EQ(log.Append(fast), 1u);
  EXPECT_EQ(log.Append(slow), 2u);
  auto records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].slow);
  EXPECT_TRUE(records[1].slow);
  EXPECT_EQ(log.appended(), 2u);
  EXPECT_EQ(log.filtered(), 0u);
}

TEST(QueryLogTest, SlowOnlyFilterIsDeterministic) {
  QueryLog log;
  log.SetSlowThresholdMs(5.0);
  log.SetSlowOnly(true);
  QueryLogRecord fast = SampleRecord();
  fast.total_ms = 1.0;
  QueryLogRecord slow = SampleRecord();
  slow.total_ms = 50.0;
  EXPECT_EQ(log.Append(fast), 0u);  // dropped before the ring and the sink
  EXPECT_EQ(log.Append(slow), 1u);
  EXPECT_EQ(log.Append(fast), 0u);
  ASSERT_EQ(log.Records().size(), 1u);
  EXPECT_TRUE(log.Records()[0].slow);
  EXPECT_EQ(log.appended(), 1u);
  EXPECT_EQ(log.filtered(), 2u);
}

TEST(QueryLogTest, RingEvictsOldestPastCapacity) {
  QueryLog log(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    QueryLogRecord r;
    r.statement = "stmt" + std::to_string(i);
    log.Append(std::move(r));
  }
  auto records = log.Records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().seq, 3u);  // 1 and 2 evicted
  EXPECT_EQ(records.back().seq, 6u);
  EXPECT_EQ(log.appended(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
}

TEST(QueryLogTest, ClearResetsRingButSequenceContinues) {
  QueryLog log;
  log.Append(SampleRecord());
  log.Append(SampleRecord());
  log.Clear();
  EXPECT_TRUE(log.Records().empty());
  EXPECT_EQ(log.Append(SampleRecord()), 3u);
}

TEST(QueryLogTest, AttachFileStreamsJsonlLines) {
  const std::string path =
      ::testing::TempDir() + "/query_log_test_sink.jsonl";
  std::remove(path.c_str());
  {
    QueryLog log;
    ASSERT_TRUE(log.AttachFile(path).ok());
    QueryLogRecord r = SampleRecord();
    log.Append(r);
    r.statement = "SHOW TABLES";
    log.Append(r);
    // Appends flush line by line; read back while the log is still alive.
    std::ifstream in(path);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"seq\":1"), std::string::npos);
    EXPECT_NE(lines[1].find("\"statement\":\"SHOW TABLES\""),
              std::string::npos);
    EXPECT_EQ(lines[0].front(), '{');
    EXPECT_EQ(lines[0].back(), '}');
  }
  std::remove(path.c_str());
}

TEST(QueryLogTest, ToJsonlConcatenatesRetainedRecords) {
  QueryLog log;
  log.Append(SampleRecord());
  log.Append(SampleRecord());
  std::string jsonl = log.ToJsonl(/*include_timings=*/false);
  EXPECT_EQ(jsonl,
            QueryLog::ToJsonLine(log.Records()[0], false) + "\n" +
                QueryLog::ToJsonLine(log.Records()[1], false) + "\n");
}

// --- stage latencies from span trees --------------------------------------

TEST(StageLatenciesTest, SumsByNameUnderRootOnly) {
  Tracer tracer;
  uint64_t root = tracer.Emit("exec", 0, 0, 10'000'000);
  uint64_t probe = tracer.Emit("cache_probe", root, 0, 1'000'000);
  tracer.Emit("kmeans", probe, 100, 500'000);      // grandchild counts
  tracer.Emit("cache_probe", root, 2000, 250'000);  // same name sums
  // A second statement's subtree on the same shared tracer: ignored.
  uint64_t other = tracer.Emit("exec", 0, 5000, 3'000'000);
  tracer.Emit("cache_probe", other, 5100, 2'000'000);
  tracer.Emit("orphan", 999999, 0, 1'000'000);  // broken chain: ignored

  auto stages = StageLatenciesFromSpans(tracer.Events(), root);
  ASSERT_EQ(stages.size(), 2u);  // sorted by name; root itself excluded
  EXPECT_EQ(stages[0].first, "cache_probe");
  EXPECT_NEAR(stages[0].second, 1.25, 1e-9);
  EXPECT_EQ(stages[1].first, "kmeans");
  EXPECT_NEAR(stages[1].second, 0.5, 1e-9);
}

TEST(StageLatenciesTest, EmptyForUnknownRootOrNoChildren) {
  Tracer tracer;
  uint64_t root = tracer.Emit("exec", 0, 0, 1'000'000);
  EXPECT_TRUE(StageLatenciesFromSpans(tracer.Events(), root).empty());
  EXPECT_TRUE(StageLatenciesFromSpans(tracer.Events(), 424242).empty());
  EXPECT_TRUE(StageLatenciesFromSpans({}, 1).empty());
}

// --- dispatcher integration: the byte-determinism golden ------------------

struct ScriptRun {
  std::string jsonl;                   // timing-stripped query log
  std::vector<std::string> responses;  // one payload per request
};

// Sends the fixed statement script as OPEN and EXEC frames to a fresh
// dispatcher/log pair.
ScriptRun RunDispatcherScript(const Table* table) {
  QueryLog log;
  server::ServerOptions options;
  options.query_log = &log;
  server::Dispatcher dispatcher(std::move(options));
  dispatcher.RegisterTable("UsedCars", table);

  auto [client, conn] = server::LoopbackPair();
  for (const char* request : {
           "OPEN",
           "EXEC s1 SELECT COUNT(*) FROM UsedCars",
           // canonicalizes to the same text
           "EXEC s1 select   count(*)   from UsedCars",
           "EXEC s1 CREATE CADVIEW v AS SET pivot = Make SELECT Price, "
           "Mileage FROM UsedCars WHERE BodyType = SUV LIMIT COLUMNS 2 "
           "IUNITS 2",
           "EXEC s1 SELECT * FROM Nope",  // NotFound
           "EXEC s1 SELEKT nonsense",     // parse error
       }) {
    auto frame = server::EncodeFrame(request);
    EXPECT_TRUE(frame.ok());
    EXPECT_TRUE(client->Write(*frame).ok());
  }
  client->CloseWrite();
  dispatcher.ServeConnection(conn.get());

  ScriptRun run;
  server::FrameDecoder decoder;
  for (;;) {
    auto chunk = client->Read(64u << 10);
    if (!chunk.ok() || chunk->empty()) break;
    EXPECT_TRUE(decoder.Feed(*chunk).ok());
  }
  while (auto payload = decoder.Next()) run.responses.push_back(*payload);
  run.jsonl = log.ToJsonl(/*include_timings=*/false);
  return run;
}

TEST(QueryLogEngineTest, StrippedJsonlIsByteIdenticalRunToRun) {
  Table table = GenerateUsedCars(800, 3);
  const ScriptRun first = RunDispatcherScript(&table);
  const ScriptRun second = RunDispatcherScript(&table);
  EXPECT_EQ(first.jsonl, second.jsonl);

  std::istringstream in(first.jsonl);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);  // one per EXEC; OPEN is not a statement
  ASSERT_EQ(first.responses.size(), 6u);
  // Statements are logged in canonical form, so the two COUNT(*) spellings
  // produce identical statement fields.
  EXPECT_NE(lines[0].find("\"session\":\"s1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"OK\""), std::string::npos);
  const auto stmt_of = [](const std::string& l) {
    size_t b = l.find("\"statement\":");
    size_t e = l.find("\",\"status\"");
    return l.substr(b, e - b);
  };
  EXPECT_EQ(stmt_of(lines[0]), stmt_of(lines[1]));
  // The dispatcher's sessions share its cache: a first build misses.
  EXPECT_NE(lines[2].find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"status\":\"NotFound\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"status\":\"InvalidArgument\""),
            std::string::npos);
  // Every record counts the bytes of the payload its EXEC answered with,
  // error payloads included.
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string bytes =
        "\"response_bytes\":" + std::to_string(first.responses[i + 1].size()) +
        "}";
    EXPECT_NE(lines[i].find(bytes), std::string::npos) << lines[i];
  }
}

// --- concurrency hammer (the TSAN tier runs this suite) -------------------

TEST(QueryLogTest, ConcurrentAppendersAndReaders) {
  QueryLog log(/*capacity=*/256);
  log.SetSlowThresholdMs(0.5);
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        QueryLogRecord r;
        r.session = "s" + std::to_string(w);
        r.statement = "stmt" + std::to_string(i);
        r.total_ms = (i % 2 == 0) ? 0.1 : 1.0;
        log.Append(std::move(r));
      }
    });
  }
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&log, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)log.Records();
        (void)log.ToJsonl();
        (void)log.appended();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(log.appended(), static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(log.dropped(), log.appended() - 256);
  auto records = log.Records();
  ASSERT_EQ(records.size(), 256u);
  std::set<uint64_t> seqs;
  for (const auto& r : records) seqs.insert(r.seq);
  EXPECT_EQ(seqs.size(), records.size());  // seqs unique, no torn records
}

}  // namespace
}  // namespace dbx
