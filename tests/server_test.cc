// Tests for the multi-session exploration server: the frame protocol, the
// loopback transport, session lifecycle and reaping, per-session cache
// budgets, admission control under saturation, and malformed/oversized/
// truncated frame handling. Everything runs over the in-process loopback
// transport, so the suite is deterministic (byte-identical responses at any
// DBX_TEST_THREADS) and TSAN-clean without binding a single port.

#include "src/server/dispatcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/data/used_cars.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/trace.h"
#include "src/server/client.h"
#include "src/server/metrics_http.h"
#include "src/server/protocol.h"
#include "src/server/transport.h"
#include "src/util/thread_pool.h"

namespace dbx::server {
namespace {

// --- Frame protocol ----------------------------------------------------------

TEST(ProtocolTest, FrameRoundTrip) {
  auto frame = EncodeFrame("hello");
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->size(), kFrameHeaderBytes + 5);
  FrameDecoder dec;
  ASSERT_TRUE(dec.Feed(*frame).ok());
  auto payload = dec.Next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello");
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_FALSE(dec.mid_frame());
}

TEST(ProtocolTest, DecoderReassemblesSplitFrames) {
  auto a = EncodeFrame("first");
  auto b = EncodeFrame("second");
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string stream = *a + *b;
  FrameDecoder dec;
  // Byte-at-a-time delivery must produce exactly the two payloads in order.
  std::vector<std::string> got;
  for (char c : stream) {
    ASSERT_TRUE(dec.Feed(std::string_view(&c, 1)).ok());
    while (auto p = dec.Next()) got.push_back(*p);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "second");
}

TEST(ProtocolTest, EmptyPayloadFrameIsValid) {
  auto frame = EncodeFrame("");
  ASSERT_TRUE(frame.ok());
  FrameDecoder dec;
  ASSERT_TRUE(dec.Feed(*frame).ok());
  auto payload = dec.Next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_TRUE(payload->empty());
}

TEST(ProtocolTest, OversizedPayloadRefusedOnEncode) {
  EXPECT_TRUE(EncodeFrame(std::string(kMaxFramePayload + 1, 'x'))
                  .status()
                  .IsInvalidArgument());
}

TEST(ProtocolTest, OversizedDeclaredLengthPoisonsDecoder) {
  // Header declaring 2 MiB: over kMaxFramePayload, so the stream is garbage.
  const std::string header{'\x00', '\x20', '\x00', '\x00'};
  FrameDecoder dec;
  EXPECT_TRUE(dec.Feed(header).IsCorruption());
  EXPECT_TRUE(dec.status().IsCorruption());
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_TRUE(dec.mid_frame());
  // Once poisoned, further feeding keeps failing.
  EXPECT_TRUE(dec.Feed("more").IsCorruption());
}

TEST(ProtocolTest, ResponseRoundTrip) {
  auto ok = DecodeResponse(EncodeResponse(Status::OK(), "body\nlines"));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->status.ok());
  EXPECT_EQ(ok->body, "body\nlines");

  auto err = DecodeResponse(
      EncodeResponse(Status::Unavailable("try later"), "ignored"));
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->status.IsUnavailable());
  EXPECT_EQ(err->status.message(), "try later");
  EXPECT_TRUE(err->body.empty());
}

TEST(ProtocolTest, MalformedResponsesRejected) {
  EXPECT_TRUE(DecodeResponse("").status().IsInvalidArgument());
  EXPECT_TRUE(DecodeResponse("BOGUS\nx").status().IsInvalidArgument());
  EXPECT_TRUE(DecodeResponse("ERR NoSuchCode\nm").status().IsInvalidArgument());
}

// --- Loopback transport ------------------------------------------------------

TEST(LoopbackTest, BytesFlowBothWaysAndEofPropagates) {
  auto [a, b] = LoopbackPair();
  ASSERT_TRUE(a->Write("ping").ok());
  auto got = b->Read(16);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "ping");
  ASSERT_TRUE(b->Write("pong").ok());
  got = a->Read(16);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "pong");
  a->CloseWrite();
  got = b->Read(16);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());  // EOF
}

// --- Server fixture ----------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { table_ = new Table(GenerateUsedCars(1500, 3)); }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  /// A dispatcher over UsedCars with a test-local metrics registry; builds
  /// run at the suite's thread count so the whole file exercises the
  /// determinism contract under DBX_TEST_THREADS.
  std::unique_ptr<Dispatcher> MakeDispatcher(ServerOptions options = {}) {
    options.metrics = &metrics_;
    options.cad_defaults.num_threads = TestThreads(2);
    auto d = std::make_unique<Dispatcher>(std::move(options));
    d->RegisterTable("UsedCars", table_);
    return d;
  }

  /// Scripted exchange: frames every request, half-closes, runs the serve
  /// loop synchronously (loopback buffers are unbounded), then decodes every
  /// response payload the server produced.
  static std::vector<std::string> RunScript(
      Dispatcher* dispatcher, const std::vector<std::string>& requests) {
    auto [client, server] = LoopbackPair();
    for (const auto& r : requests) {
      auto frame = EncodeFrame(r);
      EXPECT_TRUE(frame.ok());
      EXPECT_TRUE(client->Write(*frame).ok());
    }
    client->CloseWrite();
    dispatcher->ServeConnection(server.get());
    return DrainResponses(client.get());
  }

  /// Reads to EOF and splits the byte stream back into response payloads.
  static std::vector<std::string> DrainResponses(Connection* conn) {
    FrameDecoder dec;
    for (;;) {
      auto chunk = conn->Read(64u << 10);
      EXPECT_TRUE(chunk.ok());
      if (!chunk.ok() || chunk->empty()) break;
      EXPECT_TRUE(dec.Feed(*chunk).ok());
    }
    std::vector<std::string> payloads;
    while (auto p = dec.Next()) payloads.push_back(*p);
    EXPECT_FALSE(dec.mid_frame()) << "server emitted a truncated frame";
    return payloads;
  }

  MetricsRegistry metrics_;
  static Table* table_;
};

Table* ServerTest::table_ = nullptr;

constexpr char kCadView[] =
    "EXEC %s CREATE CADVIEW v AS SET pivot = Make SELECT Price, Mileage "
    "FROM UsedCars WHERE BodyType = SUV LIMIT COLUMNS 2 IUNITS 2";

std::string ExecCadView(const std::string& sid) {
  std::string out = kCadView;
  out.replace(out.find("%s"), 2, sid);
  return out;
}

// --- Session lifecycle -------------------------------------------------------

TEST_F(ServerTest, OpenExecCloseLifecycle) {
  auto d = MakeDispatcher();
  auto responses = RunScript(
      d.get(), {"OPEN", "EXEC s1 SELECT COUNT(*) FROM UsedCars", "STATS",
                "CLOSE s1", "EXEC s1 SELECT * FROM UsedCars LIMIT 1"});
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0], "OK\ns1");
  auto exec = DecodeResponse(responses[1]);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec->status.ok()) << exec->status.ToString();
  EXPECT_NE(exec->body.find("group(s)"), std::string::npos);
  auto stats = DecodeResponse(responses[2]);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("sessions=1"), std::string::npos);
  EXPECT_EQ(responses[3], "OK\nclosed s1");
  auto after_close = DecodeResponse(responses[4]);
  ASSERT_TRUE(after_close.ok());
  EXPECT_TRUE(after_close->status.IsNotFound());
  EXPECT_EQ(d->session_count(), 0u);
}

TEST_F(ServerTest, SessionIdsAreDistinct) {
  auto d = MakeDispatcher();
  auto responses = RunScript(d.get(), {"OPEN", "OPEN", "OPEN"});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0], "OK\ns1");
  EXPECT_EQ(responses[1], "OK\ns2");
  EXPECT_EQ(responses[2], "OK\ns3");
}

TEST_F(ServerTest, DroppedConnectionReapsItsSessions) {
  auto d = MakeDispatcher();
  // Two sessions opened, none closed: the client "vanished".
  auto responses = RunScript(d.get(), {"OPEN", "OPEN"});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(d->session_count(), 0u);
  // An explicitly closed session must not double-close at reap time.
  responses = RunScript(d.get(), {"OPEN", "CLOSE s3"});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[1], "OK\nclosed s3");
  EXPECT_EQ(d->session_count(), 0u);
}

// An open session shares ownership of the snapshot it opened on: it keeps
// answering from that snapshot after the name is re-registered and the
// caller drops its reference, and the snapshot is freed when the session
// closes.
TEST_F(ServerTest, OpenSessionKeepsItsSnapshotAlive) {
  auto d = MakeDispatcher();
  auto first = std::make_shared<const Table>(GenerateUsedCars(300, 1));
  const std::weak_ptr<const Table> first_alive = first;
  d->RegisterTableSnapshot("T", first, "T@first");
  Dispatcher::ConnectionScope scope;
  ASSERT_EQ(d->HandleRequest("OPEN", &scope), "OK\ns1");

  d->RegisterTableSnapshot(
      "T", std::make_shared<const Table>(GenerateUsedCars(200, 2)),
      "T@second");
  first.reset();
  ASSERT_FALSE(first_alive.expired());

  const std::string stmt = "SELECT Make, COUNT(*) FROM T GROUP BY Make";
  auto exec = DecodeResponse(d->HandleRequest("EXEC s1 " + stmt, &scope));
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec->status.ok()) << exec->status.ToString();
  auto answer_over = [&](const Table& table) {
    Engine engine;
    engine.RegisterTable("T", &table);
    auto out = engine.ExecuteSql(stmt);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out->rendered : "";
  };
  EXPECT_EQ(exec->body, answer_over(GenerateUsedCars(300, 1)));
  EXPECT_NE(exec->body, answer_over(GenerateUsedCars(200, 2)));

  EXPECT_EQ(d->HandleRequest("CLOSE s1", &scope), "OK\nclosed s1");
  EXPECT_TRUE(first_alive.expired());
}

TEST_F(ServerTest, RequestGrammarErrors) {
  auto d = MakeDispatcher();
  auto responses = RunScript(
      d.get(), {"", "FROB", "OPEN extra", "EXEC", "EXEC s1", "CLOSE",
                "CLOSE s1 extra", "STATS now", "EXEC nosuch STATS"});
  ASSERT_EQ(responses.size(), 9u);
  for (size_t i = 0; i < responses.size(); ++i) {
    auto r = DecodeResponse(responses[i]);
    ASSERT_TRUE(r.ok()) << "response " << i << " not well-formed";
    EXPECT_FALSE(r->status.ok()) << "response " << i;
  }
  // The malformed EXECs name no real session, hence NotFound/InvalidArgument.
  EXPECT_TRUE(DecodeResponse(responses[8])->status.IsNotFound());
  EXPECT_EQ(d->session_count(), 0u);
}

TEST_F(ServerTest, MaxSessionsRejectsWithUnavailable) {
  ServerOptions options;
  options.max_sessions = 2;
  auto d = MakeDispatcher(std::move(options));
  auto responses = RunScript(d.get(), {"OPEN", "OPEN", "OPEN", "CLOSE s1",
                                       "OPEN"});
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0], "OK\ns1");
  EXPECT_EQ(responses[1], "OK\ns2");
  auto third = DecodeResponse(responses[2]);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->status.IsUnavailable());
  // Closing frees a slot; the next OPEN succeeds with a fresh id.
  EXPECT_EQ(responses[4], "OK\ns3");
}

// --- Frame-level failures ----------------------------------------------------

TEST_F(ServerTest, OversizedFrameAnsweredWithErrorThenClosed) {
  auto d = MakeDispatcher();
  auto [client, server] = LoopbackPair();
  // Valid OPEN first, then a header declaring 2 MiB.
  auto open = EncodeFrame("OPEN");
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(client->Write(*open).ok());
  ASSERT_TRUE(client->Write(std::string{'\x00', '\x20', '\x00', '\x00'}).ok());
  client->CloseWrite();
  d->ServeConnection(server.get());
  auto responses = DrainResponses(client.get());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0], "OK\ns1");
  auto err = DecodeResponse(responses[1]);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->status.IsCorruption());
  EXPECT_EQ(d->session_count(), 0u) << "session leaked past a framing error";
}

TEST_F(ServerTest, TruncatedFrameAnsweredWithError) {
  auto d = MakeDispatcher();
  auto [client, server] = LoopbackPair();
  auto open = EncodeFrame("OPEN");
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(client->Write(*open).ok());
  // A frame promising 100 payload bytes, then EOF after 3.
  ASSERT_TRUE(client->Write(std::string{'\x00', '\x00', '\x00', '\x64'}).ok());
  ASSERT_TRUE(client->Write("abc").ok());
  client->CloseWrite();
  d->ServeConnection(server.get());
  auto responses = DrainResponses(client.get());
  ASSERT_EQ(responses.size(), 2u);
  auto err = DecodeResponse(responses[1]);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->status.IsCorruption());
  EXPECT_EQ(d->session_count(), 0u);
}

TEST_F(ServerTest, TruncatedHeaderAnsweredWithError) {
  auto d = MakeDispatcher();
  auto [client, server] = LoopbackPair();
  // Half a header, then EOF.
  ASSERT_TRUE(client->Write(std::string{'\x00', '\x00'}).ok());
  client->CloseWrite();
  d->ServeConnection(server.get());
  auto responses = DrainResponses(client.get());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(DecodeResponse(responses[0])->status.IsCorruption());
}

// --- Admission control -------------------------------------------------------

TEST_F(ServerTest, SaturationRejectsWithUnavailable) {
  // One in-flight statement allowed. Connection A's statement blocks inside
  // the exec hook; connection B's statement must bounce immediately.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  ServerOptions options;
  options.max_inflight = 1;
  options.exec_hook_for_test = [&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  auto d = MakeDispatcher(std::move(options));

  auto [client_a, server_a] = LoopbackPair();
  auto open_a = EncodeFrame("OPEN");
  auto exec_a = EncodeFrame("EXEC s1 SELECT COUNT(*) FROM UsedCars");
  ASSERT_TRUE(open_a.ok() && exec_a.ok());
  ASSERT_TRUE(client_a->Write(*open_a).ok());
  ASSERT_TRUE(client_a->Write(*exec_a).ok());
  client_a->CloseWrite();
  std::thread serve_a([&] { d->ServeConnection(server_a.get()); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  // A's statement holds the only slot: B is rejected, not queued.
  auto d_raw = d.get();
  auto [client_b, server_b] = LoopbackPair();
  auto open_b = EncodeFrame("OPEN");
  auto exec_b = EncodeFrame("EXEC s2 SELECT COUNT(*) FROM UsedCars");
  ASSERT_TRUE(open_b.ok() && exec_b.ok());
  ASSERT_TRUE(client_b->Write(*open_b).ok());
  ASSERT_TRUE(client_b->Write(*exec_b).ok());
  client_b->CloseWrite();
  // B's EXEC would re-enter the hook and deadlock — but admission rejects it
  // *before* the hook, which is exactly what this asserts (a hang here is
  // the failure mode).
  bool b_entered_hook = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    entered = false;
  }
  std::thread serve_b([&] { d_raw->ServeConnection(server_b.get()); });
  auto responses_b = DrainResponses(client_b.get());
  serve_b.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    b_entered_hook = entered;
  }
  EXPECT_FALSE(b_entered_hook);
  ASSERT_EQ(responses_b.size(), 2u);
  auto rejected = DecodeResponse(responses_b[1]);
  ASSERT_TRUE(rejected.ok());
  EXPECT_TRUE(rejected->status.IsUnavailable());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  auto responses_a = DrainResponses(client_a.get());
  serve_a.join();
  ASSERT_EQ(responses_a.size(), 2u);
  EXPECT_TRUE(DecodeResponse(responses_a[1])->status.ok());
  EXPECT_EQ(metrics_.GetCounter("dbx_server_admission_rejects_total")->Value(),
            1u);
}

// --- Shared cache across sessions -------------------------------------------

TEST_F(ServerTest, SessionsShareCachedViews) {
  auto d = MakeDispatcher();
  auto r1 = RunScript(d.get(), {"OPEN", ExecCadView("s1")});
  ASSERT_EQ(r1.size(), 2u);
  ASSERT_TRUE(DecodeResponse(r1[1])->status.ok())
      << DecodeResponse(r1[1])->status.ToString();
  const auto before = d->cache()->stats();
  EXPECT_EQ(before.inserts, 1u);

  // A different connection, a different session — same snapshot, so the
  // second build must be served from cache.
  auto r2 = RunScript(d.get(), {"OPEN", ExecCadView("s2")});
  ASSERT_EQ(r2.size(), 2u);
  auto second = DecodeResponse(r2[1]);
  ASSERT_TRUE(second->status.ok()) << second->status.ToString();
  const auto after = d->cache()->stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.inserts, before.inserts);
  // Identical statement, identical rendering — cache hit or not.
  EXPECT_EQ(DecodeResponse(r1[1])->body, second->body);
}

TEST_F(ServerTest, PerSessionBudgetRejectsInsertsNotStatements) {
  ServerOptions options;
  options.session_cache_budget_bytes = 1;  // any insert exceeds it
  auto d = MakeDispatcher(std::move(options));
  auto responses = RunScript(d.get(), {"OPEN", ExecCadView("s1")});
  ASSERT_EQ(responses.size(), 2u);
  // The statement itself succeeds — only the cache insert is refused.
  EXPECT_TRUE(DecodeResponse(responses[1])->status.ok());
  const auto stats = d->cache()->stats();
  EXPECT_EQ(stats.owner_budget_rejects, 1u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(d->cache()->OwnerBytes("s1"), 0u);
}

// --- Determinism across thread counts ---------------------------------------

TEST_F(ServerTest, ResponsesByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> script = {
      "OPEN",
      ExecCadView("s1"),
      "EXEC s1 SELECT Make, COUNT(*) FROM UsedCars GROUP BY Make "
      "ORDER BY count DESC LIMIT 5",
      "EXEC s1 SELECT * FROM UsedCars WHERE Make = Ford LIMIT 7",
      "CLOSE s1",
  };
  std::vector<std::vector<std::string>> runs;
  for (size_t threads : {size_t{1}, TestThreads(4)}) {
    ServerOptions options;
    options.metrics = &metrics_;
    options.cad_defaults.num_threads = threads;
    Dispatcher d(std::move(options));
    d.RegisterTable("UsedCars", table_);
    runs.push_back(RunScript(&d, script));
  }
  ASSERT_EQ(runs[0].size(), script.size());
  EXPECT_EQ(runs[0], runs[1]) << "thread count leaked into response bytes";
}

TEST_F(ServerTest, ResponsesByteIdenticalAcrossShardCounts) {
  // Same contract as the thread-count test above, over the thread counts the
  // other layers' transparency tests use: ServerOptions::cad_defaults must
  // never leak its thread count into response bytes.
  const std::vector<std::string> script = {
      "OPEN",
      ExecCadView("s1"),
      "EXEC s1 SELECT * FROM UsedCars WHERE Make = Ford LIMIT 7",
      "CLOSE s1",
  };
  std::vector<std::vector<std::string>> runs;
  for (size_t threads : {size_t{1}, size_t{4}, TestThreads(2)}) {
    ServerOptions options;
    options.metrics = &metrics_;
    options.cad_defaults.num_threads = threads;
    Dispatcher d(std::move(options));
    d.RegisterTable("UsedCars", table_);
    runs.push_back(RunScript(&d, script));
  }
  ASSERT_EQ(runs[0].size(), script.size());
  EXPECT_EQ(runs[0], runs[1]) << "thread count 4 leaked into response bytes";
  EXPECT_EQ(runs[0], runs[2]) << "thread count " << TestThreads(2)
                              << " leaked into response bytes";
}

// --- Client helper over a live server ---------------------------------------

TEST_F(ServerTest, ClientAgainstLoopbackServer) {
  auto d = MakeDispatcher();
  LoopbackListener listener;
  Server server(d.get(), &listener);
  server.Start();

  Client c1(listener.Connect());
  Client c2(listener.Connect());
  auto s1 = c1.Open();
  auto s2 = c2.Open();
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_NE(*s1, *s2);
  auto out1 = c1.Exec(*s1, "SELECT COUNT(*) FROM UsedCars");
  auto out2 = c2.Exec(*s2, "SELECT COUNT(*) FROM UsedCars");
  ASSERT_TRUE(out1.ok()) << out1.status().ToString();
  ASSERT_TRUE(out2.ok()) << out2.status().ToString();
  EXPECT_EQ(*out1, *out2);
  // Cross-session misuse: closing a session the other connection owns is
  // allowed by the protocol (sessions are dispatcher-scoped, not secrets).
  EXPECT_TRUE(c1.CloseSession(*s2).ok());
  EXPECT_TRUE(c1.Exec(*s2, "STATS").status().IsNotFound());
  // Hang up before Stop(): the serve loops block in Read until their peers
  // close, and Stop() joins them.
  c1.connection()->Close();
  c2.connection()->Close();
  server.Stop();
  EXPECT_EQ(d->session_count(), 0u);
}

// --- Metrics endpoint --------------------------------------------------------

TEST_F(ServerTest, MetricsCommandAndScrapeEndpoint) {
  auto d = MakeDispatcher();
  auto responses = RunScript(d.get(), {"OPEN", "METRICS"});
  ASSERT_EQ(responses.size(), 2u);
  auto m = DecodeResponse(responses[1]);
  ASSERT_TRUE(m->status.ok());
  EXPECT_NE(m->body.find("dbx_server_requests_total"), std::string::npos);
  EXPECT_NE(m->body.find("dbx_server_sessions_opened_total"),
            std::string::npos);

  // The HTTP surface, over loopback: request parsing + exposition.
  auto [client, server] = LoopbackPair();
  ASSERT_TRUE(client->Write("GET /metrics HTTP/1.1\r\n\r\n").ok());
  client->CloseWrite();
  ServeMetricsExchange(server.get(), &metrics_);
  std::string http;
  for (;;) {
    auto chunk = client->Read(64u << 10);
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    http += *chunk;
  }
  EXPECT_EQ(http.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(http.find("dbx_server_requests_total"), std::string::npos);
}

TEST(MetricsHttpTest, RequestParsing) {
  auto path = ParseHttpGetPath("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/metrics");
  EXPECT_TRUE(ParseHttpGetPath("POST /metrics HTTP/1.1\r\n\r\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseHttpGetPath("garbage").status().IsInvalidArgument());
  EXPECT_TRUE(ParseHttpGetPath("").status().IsInvalidArgument());
}

TEST(MetricsHttpTest, NotFoundForOtherPaths) {
  MetricsRegistry metrics;
  auto [client, server] = LoopbackPair();
  ASSERT_TRUE(client->Write("GET /nope HTTP/1.1\r\n\r\n").ok());
  client->CloseWrite();
  ServeMetricsExchange(server.get(), &metrics);
  auto chunk = client->Read(64u << 10);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->rfind("HTTP/1.1 404", 0), 0u);
}

// --- Request-scoped observability (DESIGN.md §14) ---------------------------

// The trace option is purely additive: a trace-free request encodes to
// exactly the pre-trace bytes, and carrying a trace id never changes the
// response bytes (only the span tree).
TEST_F(ServerTest, TraceFreeFramesAndResponsesBitIdentical) {
  const std::string request = "EXEC s1 SELECT COUNT(*) FROM UsedCars";
  auto frame = EncodeFrame(request);
  ASSERT_TRUE(frame.ok());
  std::string expected{'\x00', '\x00', '\x00',
                       static_cast<char>(request.size())};
  expected += request;
  EXPECT_EQ(*frame, expected) << "trace-free wire encoding changed";

  auto plain = MakeDispatcher();
  auto plain_responses =
      RunScript(plain.get(), {"OPEN", request, ExecCadView("s1")});

  Tracer tracer;
  ServerOptions options;
  options.tracer = &tracer;
  auto traced = MakeDispatcher(std::move(options));
  auto traced_responses = RunScript(
      traced.get(),
      {"OPEN", "EXEC @trace=t-1 s1 SELECT COUNT(*) FROM UsedCars",
       "EXEC @trace=t-2 s1 CREATE CADVIEW v AS SET pivot = Make SELECT "
       "Price, Mileage FROM UsedCars WHERE BodyType = SUV LIMIT COLUMNS 2 "
       "IUNITS 2"});
  EXPECT_EQ(plain_responses, traced_responses)
      << "trace id leaked into response bytes";
}

TEST_F(ServerTest, TraceIdTagsServerRootSpan) {
  Tracer tracer;
  ServerOptions options;
  options.tracer = &tracer;
  auto d = MakeDispatcher(std::move(options));
  std::string exec = ExecCadView("s1");
  exec.insert(std::strlen("EXEC "), "@trace=t-42 ");
  auto responses = RunScript(d.get(), {"OPEN", exec});
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(DecodeResponse(responses[1])->status.ok());

  const std::vector<TraceEvent> events = tracer.Events();
  const TraceEvent* root = nullptr;
  for (const TraceEvent& e : events) {
    if (e.name == "exec" && e.parent == 0) root = &e;
  }
  ASSERT_NE(root, nullptr) << "no root exec span recorded";
  EXPECT_NE(root->args.find("session=s1"), std::string::npos) << root->args;
  EXPECT_NE(root->args.find("trace=t-42"), std::string::npos) << root->args;
  // The engine's pipeline spans hang beneath the request's root span.
  bool probe_under_root = false;
  for (const TraceEvent& e : events) {
    if (e.name == "cache_probe" && e.parent == root->id)
      probe_under_root = true;
  }
  EXPECT_TRUE(probe_under_root)
      << "engine spans not parented to the request root";
}

TEST_F(ServerTest, UnknownExecOptionRejected) {
  auto d = MakeDispatcher();
  auto responses = RunScript(
      d.get(), {"OPEN", "EXEC @frob=1 s1 SELECT COUNT(*) FROM UsedCars",
                "EXEC s1 SELECT COUNT(*) FROM UsedCars"});
  ASSERT_EQ(responses.size(), 3u);
  auto bad = DecodeResponse(responses[1]);
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->status.IsInvalidArgument());
  EXPECT_NE(bad->status.message().find("@frob=1"), std::string::npos);
  // The bad option poisons nothing: the next statement runs normally.
  EXPECT_TRUE(DecodeResponse(responses[2])->status.ok());
}

TEST_F(ServerTest, QueryLogCrossChecksCacheStatsAndMetrics) {
  Tracer tracer;
  QueryLog log;
  ServerOptions options;
  options.tracer = &tracer;
  options.query_log = &log;
  auto d = MakeDispatcher(std::move(options));

  // Two connections: the second session's identical build must hit the
  // shared cache; then a plain selection, a parse error, and a bad session.
  auto r1 = RunScript(d.get(), {"OPEN", ExecCadView("s1")});
  ASSERT_EQ(r1.size(), 2u);
  ASSERT_TRUE(DecodeResponse(r1[1])->status.ok());
  auto r2 = RunScript(
      d.get(), {"OPEN", ExecCadView("s2"),
                "EXEC @trace=t-7 s2 SELECT COUNT(*) FROM UsedCars",
                "EXEC s2 BOGUS STATEMENT", "EXEC nosuch STATS"});
  ASSERT_EQ(r2.size(), 5u);

  auto records = log.Records();
  ASSERT_EQ(records.size(), 5u);  // one per EXEC; OPENs are not statements

  // Cache outcomes in the log must agree with the cache's own counters.
  size_t hits = 0, misses = 0;
  for (const auto& rec : records) {
    if (rec.cache == "hit") ++hits;
    if (rec.cache == "miss") ++misses;
  }
  EXPECT_EQ(records[0].cache, "miss");
  EXPECT_EQ(records[1].cache, "hit");
  const auto stats = d->cache()->stats();
  EXPECT_EQ(hits, stats.hits);
  EXPECT_EQ(misses, stats.misses);

  // Sessions, trace ids, statuses, and exact response payload sizes.
  EXPECT_EQ(records[0].session, "s1");
  EXPECT_EQ(records[1].session, "s2");
  EXPECT_EQ(records[2].trace, "t-7");
  EXPECT_TRUE(records[0].trace.empty());
  EXPECT_EQ(records[2].status, "OK");
  EXPECT_EQ(records[3].status, "InvalidArgument");
  EXPECT_EQ(records[4].status, "NotFound");
  EXPECT_EQ(records[0].response_bytes, r1[1].size());
  EXPECT_EQ(records[1].response_bytes, r2[1].size());
  EXPECT_EQ(records[2].response_bytes, r2[2].size());
  EXPECT_EQ(records[4].response_bytes, r2[4].size());

  // The build's stage latencies were lifted from the span tree.
  bool probed = false;
  for (const auto& [name, ms] : records[0].stages) {
    if (name == "cache_probe") probed = true;
    EXPECT_GE(ms, 0.0);
  }
  EXPECT_TRUE(probed) << "cache_probe stage missing from the build record";

  // And the request counter saw every frame (OPENs included).
  EXPECT_EQ(metrics_.GetCounter("dbx_server_requests_total")->Value(), 7u);
}

// The dispatcher that owns a statement records its metrics, build and cache
// series included, into its own registry — and nowhere else.
TEST_F(ServerTest, StatementsRecordIntoTheirDispatchersRegistry) {
  MetricsRegistry other_metrics;
  ServerOptions other_options;
  other_options.metrics = &other_metrics;
  Dispatcher other(std::move(other_options));
  other.RegisterTable("UsedCars", table_);

  QueryLog log;
  ServerOptions options;
  options.query_log = &log;
  auto d = MakeDispatcher(std::move(options));
  ASSERT_TRUE(DecodeResponse(RunScript(d.get(), {"OPEN", ExecCadView("s1")})[1])
                  ->status.ok());
  auto r2 = RunScript(d.get(), {"OPEN", ExecCadView("s2"),
                                "EXEC s2 SELECT COUNT(*) FROM UsedCars"});
  ASSERT_EQ(r2.size(), 3u);
  ASSERT_TRUE(DecodeResponse(r2[2])->status.ok());
  auto r3 =
      RunScript(&other, {"OPEN", "EXEC s1 SELECT COUNT(*) FROM UsedCars"});
  ASSERT_EQ(r3.size(), 2u);
  ASSERT_TRUE(DecodeResponse(r3[1])->status.ok());

  EXPECT_EQ(metrics_.GetCounter("dbx_query_statements_total")->Value(), 3u);
  EXPECT_EQ(metrics_.GetCounter("dbx_query_create_cadview_total")->Value(), 2u);
  EXPECT_EQ(metrics_.GetCounter("dbx_query_select_total")->Value(), 1u);
  EXPECT_EQ(metrics_.GetCounter("dbx_core_builds_total")->Value(), 1u);
  EXPECT_EQ(metrics_.GetHistogram("dbx_core_build_ms")->Count(), 1u);
  for (std::string stage : {"discretize", "compare_attrs", "iunit_gen",
                             "topk"}) {
    EXPECT_EQ(metrics_.GetHistogram("dbx_core_build_" + stage + "_ms")->Count(),
              1u)
        << stage;
  }
  EXPECT_EQ(metrics_.GetCounter("dbx_cache_misses_total")->Value(), 1u);
  EXPECT_EQ(metrics_.GetCounter("dbx_cache_hits_total")->Value(), 1u);
  // One timing per EXEC: the statement histogram holds exactly the totals
  // the query log recorded.
  const Histogram* statement_ms =
      metrics_.GetHistogram("dbx_query_statement_ms");
  ASSERT_EQ(statement_ms->Count(), log.Records().size());
  double logged_ms = 0.0;
  for (const QueryLogRecord& rec : log.Records()) logged_ms += rec.total_ms;
  EXPECT_DOUBLE_EQ(statement_ms->Sum(), logged_ms);

  // The other dispatcher built nothing and probed nothing.
  EXPECT_EQ(other_metrics.GetCounter("dbx_query_statements_total")->Value(),
            1u);
  std::istringstream text(other_metrics.PrometheusText());
  std::string line;
  while (std::getline(text, line)) {
    if (line.rfind("dbx_core_", 0) != 0 && line.rfind("dbx_cache_", 0) != 0) {
      continue;
    }
    EXPECT_EQ(line.substr(line.rfind(' ') + 1), "0") << line;
  }
}

// A statement queued behind its session's previous statement spends that
// time in its session_wait stage, inside its exec span.
TEST_F(ServerTest, QueuedStatementRecordsItsSessionWait) {
  Tracer tracer;
  QueryLog log;
  std::mutex mu;
  std::condition_variable cv;
  bool holding = false;     // the first statement is inside the hook
  bool second_sent = false;
  ServerOptions options;
  options.tracer = &tracer;
  options.query_log = &log;
  options.exec_hook_for_test = [&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    if (holding) return;  // the queued statement runs straight through
    holding = true;
    cv.notify_all();
    cv.wait(lock, [&] { return second_sent; });
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  auto d = MakeDispatcher(std::move(options));

  Dispatcher::ConnectionScope conn1, conn2;
  ASSERT_EQ(d->HandleRequest("OPEN", &conn1), "OK\ns1");
  std::thread first([&] {
    EXPECT_EQ(d->HandleRequest(
                   "EXEC @trace=first s1 SELECT COUNT(*) FROM UsedCars", &conn1)
                  .rfind("OK", 0),
              0u);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return holding; });
    second_sent = true;
    cv.notify_all();
  }
  const std::string second = d->HandleRequest(
      "EXEC @trace=second s1 SELECT COUNT(*) FROM UsedCars", &conn2);
  first.join();
  EXPECT_EQ(second.rfind("OK", 0), 0u) << second;

  const std::vector<QueryLogRecord> records = log.Records();
  const QueryLogRecord* queued = nullptr;
  for (const QueryLogRecord& rec : records) {
    if (rec.trace == "second") queued = &rec;
  }
  ASSERT_NE(queued, nullptr);
  double wait_ms = -1.0;
  for (const auto& [name, ms] : queued->stages) {
    if (name == "session_wait") wait_ms = ms;
  }
  EXPECT_GE(wait_ms, 25.0) << "session_wait stage missing or too short";
  EXPECT_GE(queued->total_ms, wait_ms);
}

// Stages are read from the spans that opened after the statement's root,
// outside the session lock. On a ring already wrapped by other statements'
// spans, with more of them and another session's landing between this
// statement's, each record must still hold exactly what the whole ring
// yields for its root.
TEST_F(ServerTest, StagesComeFromTheStatementsOwnSpans) {
  Tracer tracer(4096);
  auto foreign_statement = [&tracer] {
    const uint64_t root = tracer.Emit("exec", 0, tracer.NowNs(), 1000);
    tracer.Emit("foreign", root, tracer.NowNs(), 500);
  };
  for (int i = 0; i < 3000; ++i) foreign_statement();
  ASSERT_GT(tracer.dropped(), 0u);
  QueryLog log;
  ServerOptions options;
  options.tracer = &tracer;
  options.query_log = &log;
  auto d = MakeDispatcher(std::move(options));
  ASSERT_EQ(d->HandleRequest("OPEN", nullptr), "OK\ns1");
  ASSERT_EQ(d->HandleRequest("OPEN", nullptr), "OK\ns2");

  auto run_session = [&](const std::string& sid, const std::string& where) {
    for (int i = 0; i < 4; ++i) {
      const std::string sql =
          i < 3 ? "CREATE CADVIEW v AS SET pivot = Make SELECT Price, "
                  "Mileage FROM UsedCars WHERE " +
                      where + " LIMIT COLUMNS 2 IUNITS " +
                      std::to_string(i + 1)
                : "SELECT COUNT(*) FROM UsedCars";
      const std::string response = d->HandleRequest(
          "EXEC @trace=" + sid + "-" + std::to_string(i) + " " + sid + " " +
              sql,
          nullptr);
      EXPECT_EQ(response.rfind("OK", 0), 0u) << response;
    }
  };
  std::thread noise([&] {
    for (int i = 0; i < 400; ++i) {
      foreign_statement();
      std::this_thread::yield();
    }
  });
  std::thread a([&] { run_session("s1", "BodyType = SUV"); });
  std::thread b([&] { run_session("s2", "BodyType = Sedan"); });
  a.join();
  b.join();
  noise.join();

  const std::vector<TraceEvent> ring = tracer.Events();
  const std::vector<QueryLogRecord> records = log.Records();
  ASSERT_EQ(records.size(), 8u);
  for (const QueryLogRecord& rec : records) {
    const TraceEvent* root = nullptr;
    for (const TraceEvent& e : ring) {
      if (e.name == "exec" && e.parent == 0 &&
          e.args.find("trace=" + rec.trace) != std::string::npos) {
        root = &e;
      }
    }
    ASSERT_NE(root, nullptr) << rec.trace << " fell out of the ring";
    EXPECT_EQ(rec.stages, StageLatenciesFromSpans(ring, root->id))
        << rec.trace;
    EXPECT_FALSE(rec.stages.empty()) << rec.trace;
    for (const auto& [name, ms] : rec.stages) {
      EXPECT_NE(name, "foreign") << rec.trace;
    }
  }
}

TEST_F(ServerTest, MergedTraceCarriesClientTraceIdsAcrossTheWire) {
  Tracer server_tracer;
  ServerOptions options;
  options.tracer = &server_tracer;
  auto d = MakeDispatcher(std::move(options));
  LoopbackListener listener;
  Server server(d.get(), &listener);
  server.Start();

  Tracer trace_a, trace_b;
  Client c1(listener.Connect());
  Client c2(listener.Connect());
  c1.SetTracer(&trace_a);
  c2.SetTracer(&trace_b);
  auto s1 = c1.Open();
  auto s2 = c2.Open();
  ASSERT_TRUE(s1.ok() && s2.ok());
  auto out1 = c1.Exec(*s1, "SELECT COUNT(*) FROM UsedCars", "a-1");
  auto out2 = c2.Exec(*s2, "SELECT COUNT(*) FROM UsedCars", "b-1");
  ASSERT_TRUE(out1.ok() && out2.ok());
  EXPECT_EQ(*out1, *out2);
  c1.connection()->Close();
  c2.connection()->Close();
  server.Stop();

  // Server root spans carry the ids the clients sent over the wire.
  size_t tagged = 0;
  for (const TraceEvent& e : server_tracer.Events()) {
    if (e.name != "exec") continue;
    if (e.args.find("trace=a-1") != std::string::npos) ++tagged;
    if (e.args.find("trace=b-1") != std::string::npos) ++tagged;
  }
  EXPECT_EQ(tagged, 2u);

  // The merged export lines the three tracers up as labelled process lanes.
  const std::string merged = MergedChromeJson({{"client-a", &trace_a},
                                               {"client-b", &trace_b},
                                               {"server", &server_tracer}});
  EXPECT_NE(merged.find("\"process_name\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"client-a\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"client-b\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"server\""), std::string::npos);
  EXPECT_NE(merged.find("rpc:EXEC"), std::string::npos);
  EXPECT_NE(merged.find("trace=a-1"), std::string::npos);
  EXPECT_NE(merged.find("trace=b-1"), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":3"), std::string::npos);
}

// --- Debug endpoints ---------------------------------------------------------

namespace {
std::string DebugGet(const DebugEndpoints& endpoints,
                     const std::string& path) {
  auto [client, server] = LoopbackPair();
  EXPECT_TRUE(client->Write("GET " + path + " HTTP/1.1\r\n\r\n").ok());
  client->CloseWrite();
  ServeDebugExchange(server.get(), endpoints);
  std::string http;
  for (;;) {
    auto chunk = client->Read(64u << 10);
    EXPECT_TRUE(chunk.ok());
    if (!chunk.ok() || chunk->empty()) break;
    http += *chunk;
  }
  return http;
}
}  // namespace

TEST_F(ServerTest, DebugEndpointsServeHealthStatusAndTraces) {
  Tracer tracer;
  ServerOptions options;
  options.tracer = &tracer;
  auto d = MakeDispatcher(std::move(options));
  auto responses = RunScript(d.get(), {"OPEN", ExecCadView("s1")});
  ASSERT_EQ(responses.size(), 2u);

  DebugEndpoints endpoints;
  endpoints.metrics = &metrics_;
  endpoints.statusz = [&d] { return d->RenderStatusz(); };
  endpoints.uptime_seconds = [] { return 1.5; };
  endpoints.tracer = &tracer;

  const std::string healthz = DebugGet(endpoints, "/healthz");
  EXPECT_EQ(healthz.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(healthz.find("ok\n"), std::string::npos);

  const std::string statusz = DebugGet(endpoints, "/statusz");
  EXPECT_EQ(statusz.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(statusz.find("uptime_s: 1.500"), std::string::npos);
  EXPECT_NE(statusz.find("sessions_active: 0"), std::string::npos);
  EXPECT_NE(statusz.find("cache: hits="), std::string::npos);
  EXPECT_NE(statusz.find("cache_entries: 1 (MRU first)"), std::string::npos);
  EXPECT_NE(statusz.find("pivot"), std::string::npos);  // entry's cache key
  EXPECT_NE(statusz.find("threads="), std::string::npos);  // pool stats line

  const std::string tracez = DebugGet(endpoints, "/tracez");
  EXPECT_EQ(tracez.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(tracez.find("root span(s)"), std::string::npos);
  EXPECT_NE(tracez.find("exec [session=s1"), std::string::npos);

  const std::string metrics = DebugGet(endpoints, "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(metrics.find("dbx_server_requests_total"), std::string::npos);

  const std::string missing = DebugGet(endpoints, "/nope");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404", 0), 0u);
  EXPECT_NE(missing.find("/statusz"), std::string::npos);  // hint lists paths

  // Without a tracer the endpoint still answers, explaining itself.
  endpoints.tracer = nullptr;
  EXPECT_NE(DebugGet(endpoints, "/tracez").find("tracing disabled"),
            std::string::npos);
}

TEST(MetricsHttpTest, RenderTracezOrdersSlowestFirst) {
  Tracer tracer;
  tracer.Emit("fast", 0, 0, 1'000'000);
  uint64_t slow_id = tracer.Emit("slowest", 0, 0, 9'000'000);
  tracer.Emit("child", slow_id, 0, 8'000'000);  // not a root: never listed
  tracer.Emit("middle", 0, 0, 5'000'000);
  const std::string out = RenderTracez(tracer.Events(), 2);
  EXPECT_NE(out.find("tracez: 3 recent root span(s), slowest 2"),
            std::string::npos);
  const size_t slowest = out.find("slowest");  // header mention
  const size_t first = out.find("slowest", slowest + 1);
  const size_t second = out.find("middle");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(out.find("fast"), std::string::npos);   // over the limit
  EXPECT_EQ(out.find("child"), std::string::npos);  // not a root
}

TEST(MetricsHttpTest, SlowPeerHeadReadTimesOutWith408) {
  // A peer that opens the connection, sends half a request line, and stalls
  // (no CloseWrite): the head-read deadline must bound the exchange instead
  // of wedging the accept loop.
  DebugEndpoints endpoints;
  endpoints.head_read_timeout_ms = 50;
  auto [client, server] = LoopbackPair();
  ASSERT_TRUE(client->Write("GET /hea").ok());
  ServeDebugExchange(server.get(), endpoints);
  auto chunk = client->Read(64u << 10);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->rfind("HTTP/1.1 408", 0), 0u);
  EXPECT_NE(chunk->find("timed out reading request head"),
            std::string::npos);
}

TEST(LoopbackTest, ReadTimeoutExpiresAndRestores) {
  auto [a, b] = LoopbackPair();
  ASSERT_TRUE(a->SetReadTimeout(30));
  auto got = a->Read(16);
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();
  // Data already buffered is returned immediately, deadline or not.
  ASSERT_TRUE(b->Write("late").ok());
  got = a->Read(16);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "late");
  // 0 restores fully blocking reads.
  ASSERT_TRUE(a->SetReadTimeout(0));
  b->CloseWrite();
  got = a->Read(16);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

}  // namespace
}  // namespace dbx::server
