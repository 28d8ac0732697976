// AdpNetServer loopback integration: HELLO negotiation, REQ/STREAM answers
// identical to direct AdpEngine calls, multi-client concurrency with
// interleaved pushed frames, malformed/truncated frame survival, mid-stream
// disconnect releasing the worker, priority/EDF ordering and load-shed
// rejection over the socket, the PREPARE/EXEC/CANCEL/STATS/METRICS
// verbs, the slow-query log (NetServerConfig::trace_dir), one plan lookup
// per request with no plan build on the event loop, and arity errors.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/textproto.h"
#include "net/wire.h"

namespace adp::net {
namespace {

using std::chrono::seconds;

constexpr char kDbLine[] =
    "DB d1 R1=11,21/12,22/13,23 R2=21,31/22,32/22,33/23,33 "
    "R3=31,41/32,43/33,43";
constexpr char kChainText[] = "Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)";

NamedDatabase Fig1NamedDb() {
  const ParsedDb parsed = ParseDbLine(SplitWs(kDbLine));
  return parsed.db;
}

/// Engine + started server on an ephemeral loopback port.
struct NetFixture {
  explicit NetFixture(EngineConfig ec = EngineConfig{.num_workers = 4},
                      NetServerConfig nc = {})
      : engine(ec), server(engine, std::move(nc)) {
    const Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status.message();
  }

  AdpNetClient Client() {
    AdpNetClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server.port()))
        << client.error();
    return client;
  }

  AdpEngine engine;
  AdpNetServer server;
};

/// The answer fields of one kResult body — everything between "feasible"
/// and "cache_hit", i.e. feasible/exact/cost/output_count/tuples, which
/// must be bit-identical to a direct engine call (timings cannot be).
std::string ExtractAnswer(const std::string& body) {
  const std::size_t from = body.find("\"feasible\"");
  const std::size_t to = body.find(",\"cache_hit\"");
  if (from == std::string::npos) return body;  // error bodies compare whole
  return body.substr(from, to == std::string::npos ? std::string::npos
                                                   : to - from);
}

/// The integer after `"key":` in a STATS body; -1 when the key is absent.
std::int64_t StatsField(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::stoll(body.substr(at + needle.size()));
}

/// What a direct AdpEngine call answers for (query, k) against Fig1,
/// rendered through the same formatter the server uses.
std::string DirectAnswer(AdpEngine& engine, const std::string& query_text,
                         std::int64_t k) {
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  AdpRequest req;
  req.query_text = query_text;
  req.db = db;
  req.k = k;
  const AdpResponse resp = engine.Execute(req);
  EXPECT_TRUE(resp.ok()) << resp.status.ToString();
  return ExtractAnswer(FormatResponseLine(
      0, "d1", k, resp, resp.plan ? &resp.plan->query : nullptr));
}

/// Occupies one engine worker until released (the net-side analogue of
/// engine_test's WorkerPlug): later async submissions pile up on the queue.
struct WorkerPlug {
  std::promise<void> plugged;
  std::promise<void> release;

  void Install(AdpEngine& engine, DbId db) {
    AdpRequest plug;
    plug.query_text = "Q() :- R1(A,B)";
    plug.db = db;
    plug.k = 0;
    auto released = std::make_shared<std::future<void>>(release.get_future());
    engine.SubmitAsync(plug, [this, released](AdpResponse) {
      plugged.set_value();
      released->wait();
    });
    plugged.get_future().wait();
  }
};

/// A bare TCP connection for pre-negotiation tests (Connect() always
/// completes HELLO, so it cannot exercise the handshake's failure paths).
struct RawConn {
  int fd = -1;

  explicit RawConn(int port) { Open(port); }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void Open(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  }

  void SendFrame(FrameType type, const std::string& payload) {
    std::string framed;
    ASSERT_TRUE(AppendFrame(framed, type, payload));
    ASSERT_EQ(::write(fd, framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  /// Reads until the server closes, then decodes whatever arrived.
  std::vector<Frame> DrainToEof() {
    FrameReader reader;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;
      reader.Feed(buf, static_cast<std::size_t>(n));
    }
    std::vector<Frame> frames;
    while (std::optional<Frame> frame = reader.Next()) {
      frames.push_back(*std::move(frame));
    }
    return frames;
  }
};

TEST(NetTest, HelloNegotiatesVersion) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  EXPECT_EQ(client.version(), kProtocolVersionMax);
}

TEST(NetTest, VersionMismatchIsRejectedAndClosed) {
  NetFixture fx;
  RawConn raw(fx.server.port());
  // A future-only client: no overlap with the server's supported range.
  raw.SendFrame(FrameType::kHello, "7 9");
  const std::vector<Frame> frames = raw.DrainToEof();  // EOF => closed
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find("version"), std::string::npos)
      << frames[0].payload;
}

TEST(NetTest, NonHelloFirstFrameIsRejected) {
  NetFixture fx;
  RawConn raw(fx.server.port());
  raw.SendFrame(FrameType::kStats, "1 STATS");
  const std::vector<Frame> frames = raw.DrainToEof();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find("HELLO"), std::string::npos)
      << frames[0].payload;
}

TEST(NetTest, RequestAnswersMatchDirectEngineCalls) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  EXPECT_EQ(body, "{\"db\":\"d1\"}");

  for (std::int64_t k : {1, 2, 3}) {
    std::optional<Frame> reply = client.Call(
        FrameType::kReq,
        "REQ d1 " + std::to_string(k) + " " + kChainText, &body);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kResult);
    EXPECT_NE(body.find("\"status\":\"OK\""), std::string::npos) << body;
    EXPECT_EQ(ExtractAnswer(body), DirectAnswer(fx.engine, kChainText, k))
        << "k=" << k;
  }
}

TEST(NetTest, MalformedPayloadsSurviveTheConnection) {
  NetFixture fx;
  AdpNetClient client = fx.Client();

  // No correlation id at all.
  ASSERT_TRUE(client.SendRaw(FrameType::kReq, "not-a-number REQ"));
  std::optional<Frame> err = client.ReadFrame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, FrameType::kError);
  EXPECT_EQ(err->payload.rfind("0 ", 0), 0u) << err->payload;  // id 0

  // Unknown database.
  std::string body;
  std::optional<Frame> reply =
      client.Call(FrameType::kReq, "REQ nodb 2 " + std::string(kChainText),
                  &body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_NE(body.find("unknown database"), std::string::npos);

  // Unknown option token.
  reply = client.Call(FrameType::kReq,
                      "REQ d1 2 +zz " + std::string(kChainText), &body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kError);

  // Unknown frame type byte.
  ASSERT_TRUE(client.SendRaw(static_cast<FrameType>(0x40), "9 whatever"));
  err = client.ReadFrame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, FrameType::kError);

  // The connection still works: register and solve.
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  reply = client.Call(FrameType::kReq,
                      "REQ d1 2 " + std::string(kChainText), &body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kResult);
  EXPECT_NE(body.find("\"status\":\"OK\""), std::string::npos);
}

TEST(NetTest, CorruptLengthPrefixClosesButServerSurvives) {
  NetFixture fx;
  AdpNetClient victim = fx.Client();
  // An impossible length prefix: framing is unrecoverable on this
  // connection.
  std::string garbage = {'\xff', '\xff', '\xff', '\xff', 'x'};
  ASSERT_TRUE(victim.SendBytes(garbage));
  std::optional<Frame> err = victim.ReadFrame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, FrameType::kError);
  EXPECT_FALSE(victim.ReadFrame().has_value());  // closed

  // The server itself is fine: a new connection answers normally.
  AdpNetClient fresh = fx.Client();
  std::string body;
  ASSERT_TRUE(fresh.Call(FrameType::kDb, kDbLine, &body).has_value());
  std::optional<Frame> reply = fresh.Call(
      FrameType::kReq, "REQ d1 2 " + std::string(kChainText), &body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kResult);
}

TEST(NetTest, StreamPushesProfileWitnessesEnd) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());

  const std::int64_t id = client.NextId();
  ASSERT_TRUE(client.Send(FrameType::kStream, id,
                          "STREAM d1 3 " + std::string(kChainText)));
  std::vector<Frame> items;
  for (;;) {
    std::optional<Frame> frame = client.WaitReply(id);
    ASSERT_TRUE(frame.has_value()) << client.error();
    items.push_back(*frame);
    if (frame->type != FrameType::kStreamItem) break;
  }
  ASSERT_GE(items.size(), 4u);  // 3 profile + >=0 witnesses + end
  EXPECT_EQ(items.back().type, FrameType::kStreamEnd);
  EXPECT_NE(items.back().payload.find("\"end\":true"), std::string::npos);
  EXPECT_NE(items.back().payload.find("\"status\":\"OK\""),
            std::string::npos);
  // Profile increments arrive first, k ascending.
  for (int j = 0; j < 3; ++j) {
    EXPECT_NE(items[j].payload.find("\"k\":" + std::to_string(j + 1)),
              std::string::npos)
        << items[j].payload;
  }
  // Same single-solve answer as the direct streaming path: the end line
  // reports the direct Execute's cost.
  const std::string direct = DirectAnswer(fx.engine, kChainText, 3);
  const std::size_t cost_at = direct.find("\"cost\":");
  ASSERT_NE(cost_at, std::string::npos);
  const std::string cost =
      direct.substr(cost_at, direct.find(',', cost_at) - cost_at);
  EXPECT_NE(items.back().payload.find(cost), std::string::npos)
      << items.back().payload << " vs " << cost;
}

TEST(NetTest, IntermediateWitnessOptionStreamsPerTargetBatches) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());

  const std::int64_t id = client.NextId();
  ASSERT_TRUE(client.Send(FrameType::kStream, id,
                          "STREAM d1 3 +iw " + std::string(kChainText)));
  int witness_targets = 0;
  std::int64_t last_witness_k = 0;
  for (;;) {
    std::optional<Frame> frame = client.WaitReply(id);
    ASSERT_TRUE(frame.has_value()) << client.error();
    if (frame->payload.find("\"witnesses\"") != std::string::npos) {
      const std::size_t at = frame->payload.find("\"k\":");
      ASSERT_NE(at, std::string::npos);
      const std::int64_t k = std::stoll(frame->payload.substr(at + 4));
      if (k != last_witness_k) {
        ++witness_targets;
        last_witness_k = k;
      }
    }
    if (frame->type != FrameType::kStreamItem) break;
  }
  // Intermediate targets got their own tagged batches, not just the final.
  EXPECT_GE(witness_targets, 2);
  EXPECT_EQ(last_witness_k, 3);
}

TEST(NetTest, FourConcurrentClientsInterleaveReqAndStream) {
  NetFixture fx;
  constexpr int kClients = 5;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  // One expected answer per k, computed once against the same engine.
  std::vector<std::string> expect_k(4);
  for (std::int64_t k = 1; k <= 3; ++k) {
    expect_k[k] = DirectAnswer(fx.engine, kChainText, k);
  }
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      AdpNetClient client;
      if (!client.Connect("127.0.0.1", fx.server.port())) {
        errors[c] = "connect: " + client.error();
        return;
      }
      std::string body;
      if (!client.Call(FrameType::kDb, kDbLine, &body)) {
        errors[c] = "db: " + client.error();
        return;
      }
      // Pipeline three REQs, then a STREAM, then collect everything
      // interleaved.
      std::vector<std::int64_t> req_ids;
      for (std::int64_t k = 1; k <= 3; ++k) {
        const std::int64_t id = client.NextId();
        if (!client.Send(FrameType::kReq, id,
                         "REQ d1 " + std::to_string(k) + " " +
                             std::string(kChainText))) {
          errors[c] = "send: " + client.error();
          return;
        }
        req_ids.push_back(id);
      }
      const std::int64_t stream_id = client.NextId();
      if (!client.Send(FrameType::kStream, stream_id,
                       "STREAM d1 3 " + std::string(kChainText))) {
        errors[c] = "stream send: " + client.error();
        return;
      }
      bool saw_end = false;
      while (!saw_end) {
        std::optional<Frame> frame = client.WaitReply(stream_id);
        if (!frame.has_value()) {
          errors[c] = "stream read: " + client.error();
          return;
        }
        saw_end = frame->type != FrameType::kStreamItem;
        if (saw_end && frame->type != FrameType::kStreamEnd) {
          errors[c] = "stream ended with " + frame->payload;
          return;
        }
      }
      for (std::int64_t k = 1; k <= 3; ++k) {
        std::optional<Frame> reply = client.WaitReply(req_ids[k - 1]);
        if (!reply.has_value() || reply->type != FrameType::kResult) {
          errors[c] = "result read: " + client.error();
          return;
        }
        std::int64_t got = 0;
        std::string rbody;
        SplitCorrelationId(reply->payload, &got, &rbody);
        if (ExtractAnswer(rbody) != expect_k[k]) {
          errors[c] = "answer mismatch k=" + std::to_string(k) + ": " +
                      rbody;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[c], "") << "client " << c;
  }
}

TEST(NetTest, MidStreamDisconnectReleasesTheWorker) {
  // Single worker; the stream's producer occupies it. Disconnecting the
  // streaming client must release the worker so other traffic completes.
  NetFixture fx(EngineConfig{.num_workers = 1});
  {
    AdpNetClient streamer = fx.Client();
    std::string body;
    ASSERT_TRUE(streamer.Call(FrameType::kDb, kDbLine, &body).has_value());
    ASSERT_TRUE(streamer.Send(FrameType::kStream, streamer.NextId(),
                              "STREAM d1 3 " + std::string(kChainText)));
    // Drop the connection without draining the pushed frames.
  }
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  std::optional<Frame> reply = client.Call(
      FrameType::kReq, "REQ d1 2 " + std::string(kChainText), &body);
  ASSERT_TRUE(reply.has_value()) << client.error();
  EXPECT_EQ(reply->type, FrameType::kResult);
  EXPECT_NE(body.find("\"status\":\"OK\""), std::string::npos) << body;
}

TEST(NetTest, PriorityAndDeadlineOrderSaturatedQueue) {
  // Pin the single worker, pile three prioritized requests on the queue
  // through the socket, release, and watch completion order: priority
  // desc, then earliest deadline first.
  NetFixture fx(EngineConfig{.num_workers = 1});
  const DbId plug_db = fx.engine.RegisterDatabase(Fig1NamedDb());
  WorkerPlug plug;
  plug.Install(fx.engine, plug_db);

  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());

  // Distinct queries (no dedup); arrival order is worst-case for the
  // scheduler: lowest priority first, latest deadline first.
  struct Spec {
    const char* opts;
    const char* query;
  };
  const Spec specs[] = {
      {"+p0", "Q(A,B) :- R1(A,B)"},
      {"+p1 +d60000", "Q(B,C) :- R2(B,C), R3(C,E)"},
      {"+p1 +d30000", "Q(A) :- R1(A,B), R2(B,C)"},
  };
  std::vector<std::int64_t> ids;
  const std::uint64_t before = fx.engine.counters().requests;
  for (const Spec& spec : specs) {
    const std::int64_t id = client.NextId();
    ASSERT_TRUE(client.Send(
        FrameType::kReq, id,
        std::string("REQ d1 1 ") + spec.opts + " " + spec.query));
    ids.push_back(id);
  }
  // All three admitted (counted) before the worker is released.
  const auto deadline = std::chrono::steady_clock::now() + seconds(30);
  while (fx.engine.counters().requests < before + 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "not admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  plug.release.set_value();

  // Completion (= dequeue) order: p1+30s, p1+60s, p0.
  std::vector<std::int64_t> completion;
  for (int i = 0; i < 3; ++i) {
    std::optional<Frame> frame = client.ReadFrame();
    ASSERT_TRUE(frame.has_value()) << client.error();
    ASSERT_EQ(frame->type, FrameType::kResult) << frame->payload;
    std::int64_t id = 0;
    std::string rest;
    ASSERT_TRUE(SplitCorrelationId(frame->payload, &id, &rest));
    EXPECT_NE(rest.find("\"status\":\"OK\""), std::string::npos) << rest;
    completion.push_back(id);
  }
  EXPECT_EQ(completion, (std::vector<std::int64_t>{ids[2], ids[1], ids[0]}));
}

TEST(NetTest, SaturatedQueueShedsWithTypedErrorWhileAdmittedComplete) {
  NetFixture fx(
      EngineConfig{.num_workers = 1, .max_queue_depth = 1});
  const DbId plug_db = fx.engine.RegisterDatabase(Fig1NamedDb());
  WorkerPlug plug;
  plug.Install(fx.engine, plug_db);

  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());

  // First request takes the only queue slot.
  const std::int64_t admitted = client.NextId();
  ASSERT_TRUE(client.Send(FrameType::kReq, admitted,
                          "REQ d1 2 " + std::string(kChainText)));
  const auto deadline = std::chrono::steady_clock::now() + seconds(30);
  while (fx.engine.counters().requests < 2) {  // plug + admitted
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Second, distinct request finds the queue full: typed OVERLOADED.
  std::optional<Frame> shed_reply = client.Call(
      FrameType::kReq, "REQ d1 1 Q(B,C) :- R2(B,C)", &body);
  ASSERT_TRUE(shed_reply.has_value());
  EXPECT_EQ(shed_reply->type, FrameType::kResult);
  EXPECT_NE(body.find("\"status\":\"OVERLOADED\""), std::string::npos)
      << body;

  // The admitted request still completes once the worker frees up.
  plug.release.set_value();
  std::optional<Frame> ok_reply = client.WaitReply(admitted);
  ASSERT_TRUE(ok_reply.has_value());
  std::int64_t id = 0;
  std::string rest;
  ASSERT_TRUE(SplitCorrelationId(ok_reply->payload, &id, &rest));
  EXPECT_NE(rest.find("\"status\":\"OK\""), std::string::npos) << rest;
  EXPECT_GE(fx.engine.counters().shed, 1u);
}

TEST(NetTest, CancelVerbCancelsQueuedRequest) {
  NetFixture fx(EngineConfig{.num_workers = 1});
  const DbId plug_db = fx.engine.RegisterDatabase(Fig1NamedDb());
  WorkerPlug plug;
  plug.Install(fx.engine, plug_db);

  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  const std::int64_t target = client.NextId();
  ASSERT_TRUE(client.Send(FrameType::kReq, target,
                          "REQ d1 2 " + std::string(kChainText)));
  std::optional<Frame> cancel_reply = client.Call(
      FrameType::kCancel, "CANCEL " + std::to_string(target), &body);
  ASSERT_TRUE(cancel_reply.has_value());
  EXPECT_EQ(cancel_reply->type, FrameType::kCancelOk);
  EXPECT_EQ(body, "{\"cancelled\":1}");

  std::optional<Frame> result = client.WaitReply(target);
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->payload.find("\"status\":\"CANCELLED\""),
            std::string::npos)
      << result->payload;
  plug.release.set_value();
}

TEST(NetTest, DuplicateInflightCorrelationIdIsRejected) {
  // While an id still names a queued request, a second REQ wearing it is
  // refused — accepting it would discard the first ticket (orphaning its
  // CANCEL) and produce two same-id replies.
  NetFixture fx(EngineConfig{.num_workers = 1});
  const DbId plug_db = fx.engine.RegisterDatabase(Fig1NamedDb());
  WorkerPlug plug;
  plug.Install(fx.engine, plug_db);

  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  const std::int64_t id = client.NextId();
  ASSERT_TRUE(client.Send(FrameType::kReq, id,
                          "REQ d1 2 " + std::string(kChainText)));
  // Distinct query text: dedup cannot merge the two submissions.
  ASSERT_TRUE(client.Send(FrameType::kReq, id, "REQ d1 1 Q(A,B) :- R1(A,B)"));

  std::optional<Frame> err = client.WaitReply(id);
  ASSERT_TRUE(err.has_value()) << client.error();
  EXPECT_EQ(err->type, FrameType::kError) << err->payload;
  EXPECT_NE(err->payload.find("already in flight"), std::string::npos)
      << err->payload;

  // The original request is untouched and completes once the worker frees.
  plug.release.set_value();
  std::optional<Frame> result = client.WaitReply(id);
  ASSERT_TRUE(result.has_value()) << client.error();
  EXPECT_EQ(result->type, FrameType::kResult) << result->payload;
  EXPECT_NE(result->payload.find("\"status\":\"OK\""), std::string::npos)
      << result->payload;
}

TEST(NetTest, AbortiveDisconnectsDuringPushDontKillTheServer) {
  // Clients that RST mid-push force hard write errors inside the loop's
  // flush. The server must mark such connections dead and sweep them after
  // the iteration — never close them from inside the conns_ walk (that
  // freed the Conn under the iterator) — and the failed send must surface
  // as an errno, not a process-fatal SIGPIPE.
  NetFixture fx;
  for (int round = 0; round < 8; ++round) {
    RawConn raw(fx.server.port());
    raw.SendFrame(FrameType::kHello, "1 1");
    raw.SendFrame(FrameType::kDb, std::string("1 ") + kDbLine);
    for (int s = 0; s < 3; ++s) {
      raw.SendFrame(FrameType::kStream,
                    std::to_string(2 + s) + " STREAM d1 3 " +
                        std::string(kChainText));
    }
    // Vary how far the push gets before the abort.
    std::this_thread::sleep_for(std::chrono::milliseconds(round * 2));
    // RST on close: anything the server writes afterwards fails hard.
    linger lg{1, 0};
    setsockopt(raw.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  }
  // The server survived every abort and still answers.
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  std::optional<Frame> reply = client.Call(
      FrameType::kReq, "REQ d1 2 " + std::string(kChainText), &body);
  ASSERT_TRUE(reply.has_value()) << client.error();
  EXPECT_EQ(reply->type, FrameType::kResult);
  EXPECT_NE(body.find("\"status\":\"OK\""), std::string::npos) << body;
}

TEST(NetTest, ClientWritesAfterServerCloseFailSoftly) {
  // BYE makes the server flush and close. A client that keeps sending into
  // the closed connection must get a clean send failure — without
  // MSG_NOSIGNAL the second write after the peer's RST raises SIGPIPE and
  // kills the embedding process.
  NetFixture fx;
  AdpNetClient client = fx.Client();
  ASSERT_TRUE(client.Send(FrameType::kBye, client.NextId(), "BYE"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  bool failed = false;
  for (int i = 0; i < 20 && !failed; ++i) {
    failed = !client.Send(FrameType::kStats, client.NextId(), "STATS");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(failed) << "sends into a closed connection kept succeeding";
  EXPECT_FALSE(client.error().empty());
}

TEST(NetTest, ConnectionTeardownReleasesRegisteredDatabases) {
  // Per-connection DB registrations must not outlive the connection (or a
  // displaced same-name registration): a reconnect loop would otherwise
  // grow engine memory without bound.
  NetFixture fx;
  const std::size_t base = fx.engine.counters().databases;
  {
    AdpNetClient client = fx.Client();
    std::string body;
    ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
    // Re-registering the same name releases the instance it displaces.
    ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
    EXPECT_EQ(fx.engine.counters().databases, base + 1);
    // A solve against the re-registered database still works.
    std::optional<Frame> reply = client.Call(
        FrameType::kReq, "REQ d1 2 " + std::string(kChainText), &body);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, FrameType::kResult);
    EXPECT_NE(body.find("\"status\":\"OK\""), std::string::npos) << body;
  }  // disconnect
  // CloseConn runs on the loop thread; wait for the release to land.
  const auto deadline = std::chrono::steady_clock::now() + seconds(30);
  while (fx.engine.counters().databases != base) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "databases still registered: " << fx.engine.counters().databases;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(NetTest, PrepareExecHotPathMatchesDirect) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  std::optional<Frame> prep = client.Call(
      FrameType::kPrepare, "PREPARE " + std::string(kChainText), &body);
  ASSERT_TRUE(prep.has_value());
  ASSERT_EQ(prep->type, FrameType::kPrepared) << body;
  EXPECT_EQ(body, "{\"prepared\":1}");

  std::optional<Frame> reply =
      client.Call(FrameType::kExec, "EXEC 1 d1 2", &body);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kResult) << body;
  EXPECT_EQ(ExtractAnswer(body), DirectAnswer(fx.engine, kChainText, 2));

  // Unknown handle is a per-request error, not a connection error.
  reply = client.Call(FrameType::kExec, "EXEC 99 d1 2", &body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kError);
}

// Integers in request and frame payloads parse whole: k, a prepared handle
// and a cancel target with trailing junk, and HELLO versions that are not
// whole uint32s, each get a typed error, and the server keeps serving.
TEST(NetTest, IntegerTokensParseWhole) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  std::optional<Frame> prep = client.Call(
      FrameType::kPrepare, "PREPARE " + std::string(kChainText), &body);
  ASSERT_TRUE(prep.has_value());
  ASSERT_EQ(prep->type, FrameType::kPrepared) << body;

  const std::pair<FrameType, std::string> bad[] = {
      {FrameType::kReq, "REQ d1 2x " + std::string(kChainText)},
      {FrameType::kExec, "EXEC 1x d1 2"},
      {FrameType::kExec, "EXEC 1 d1 2x"},
      {FrameType::kCancel, "CANCEL 7x"},
  };
  for (const auto& [type, payload] : bad) {
    std::optional<Frame> reply = client.Call(type, payload, &body);
    ASSERT_TRUE(reply.has_value()) << payload;
    EXPECT_EQ(reply->type, FrameType::kError) << payload;
    EXPECT_EQ(body.rfind("INVALID_ARGUMENT bad ", 0), 0u) << body;
  }
  std::optional<Frame> reply =
      client.Call(FrameType::kExec, "EXEC 1 d1 2", &body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kResult) << body;
  EXPECT_EQ(ExtractAnswer(body), DirectAnswer(fx.engine, kChainText, 2));

  for (const char* hello : {"1 2x", "1 -1", "1 4294967297"}) {
    RawConn raw(fx.server.port());
    raw.SendFrame(FrameType::kHello, hello);
    const std::vector<Frame> frames = raw.DrainToEof();  // EOF => closed
    ASSERT_EQ(frames.size(), 1u) << hello;
    EXPECT_EQ(frames[0].type, FrameType::kError) << hello;
    EXPECT_NE(frames[0].payload.find("malformed HELLO"), std::string::npos)
        << frames[0].payload;
  }
  AdpNetClient again = fx.Client();
  EXPECT_EQ(again.version(), kProtocolVersionMax);
  reply = again.Call(FrameType::kReq, "REQ d1 2 " + std::string(kChainText),
                     &body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kError);  // d1 belongs to `client`
  EXPECT_NE(body.find("unknown database"), std::string::npos) << body;
}

TEST(NetTest, StatsAndMetricsVerbs) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  ASSERT_TRUE(client
                  .Call(FrameType::kReq,
                        "REQ d1 2 " + std::string(kChainText), &body)
                  .has_value());

  std::optional<Frame> stats = client.Call(FrameType::kStats, "STATS", &body);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->type, FrameType::kStatsText);
  EXPECT_NE(body.find("\"requests\":"), std::string::npos);
  EXPECT_NE(body.find("\"shed\":"), std::string::npos);

  std::optional<Frame> metrics =
      client.Call(FrameType::kMetrics, "METRICS", &body);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->type, FrameType::kMetricsText);
  EXPECT_NE(body.find("adp_requests_total"), std::string::npos);
  EXPECT_NE(body.find("adp_net_connections_total"), std::string::npos);
  EXPECT_NE(body.find("adp_net_frames_in_total"), std::string::npos);
}

// Each REQ and each STREAM makes exactly one plan-cache lookup, on the
// worker that solves it, and renders relation names from the plan that
// came with its result; an EXEC of a prepared handle makes none.
TEST(NetTest, OnePlanLookupPerRequest) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  const auto plan_lookups = [&client] {
    std::string stats;
    EXPECT_TRUE(client.Call(FrameType::kStats, "STATS", &stats).has_value());
    return std::make_pair(StatsField(stats, "plan_hits"),
                          StatsField(stats, "plan_misses"));
  };
  using Lookups = std::pair<std::int64_t, std::int64_t>;  // hits, misses

  for (std::int64_t hits : {0, 1}) {
    std::optional<Frame> reply = client.Call(
        FrameType::kReq, "REQ d1 2 " + std::string(kChainText), &body);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kResult) << body;
    EXPECT_NE(body.find("\"tuples\":[[\"R"), std::string::npos) << body;
    EXPECT_EQ(plan_lookups(), (Lookups{hits, 1}));
  }

  const std::int64_t id = client.NextId();
  ASSERT_TRUE(client.Send(FrameType::kStream, id,
                          "STREAM d1 2 " + std::string(kChainText)));
  bool named_witnesses = false;
  for (;;) {
    std::optional<Frame> frame = client.WaitReply(id);
    ASSERT_TRUE(frame.has_value()) << client.error();
    named_witnesses = named_witnesses ||
                      frame->payload.find("\"witnesses\":[[\"R") !=
                          std::string::npos;
    if (frame->type != FrameType::kStreamItem) break;
  }
  EXPECT_TRUE(named_witnesses);  // names from the stream's own plan
  EXPECT_EQ(plan_lookups(), (Lookups{2, 1}));

  std::optional<Frame> prep = client.Call(
      FrameType::kPrepare, "PREPARE " + std::string(kChainText), &body);
  ASSERT_TRUE(prep.has_value());
  ASSERT_EQ(prep->type, FrameType::kPrepared) << body;
  const Lookups prepared = plan_lookups();
  std::optional<Frame> reply =
      client.Call(FrameType::kExec, "EXEC 1 d1 2", &body);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kResult) << body;
  EXPECT_NE(body.find("[\"R"), std::string::npos) << body;
  EXPECT_EQ(plan_lookups(), prepared);
}

// A STREAM whose plan is slow to build — a Boolean query of 10 atoms with
// no linear arrangement, whose §7.1 permutation search is factorial — is
// planned on a worker, not on the event loop: another connection's HELLO
// and STATS, sent once the server has taken the STREAM, are answered
// before the stream has produced an item, let alone ended. Asserts an
// ordering, not a time bound.
TEST(NetTest, StreamPlanIsNotBuiltOnTheEventLoop) {
  NetFixture fx;
  std::string db_line = "DB d1 R1=1,2 R2=2,3 R3=3,1";
  std::string query = "Q() :- R1(A,B), R2(B,C), R3(C,A)";
  for (int i = 4; i <= 10; ++i) {
    db_line += " P" + std::to_string(i) + "=1";
    query += ", P" + std::to_string(i) + "(D" + std::to_string(i) + ")";
  }
  AdpNetClient streamer = fx.Client();
  std::string body;
  ASSERT_TRUE(streamer.Call(FrameType::kDb, db_line, &body).has_value());
  const std::int64_t id = streamer.NextId();
  ASSERT_TRUE(streamer.Send(FrameType::kStream, id, "STREAM d1 1 " + query));
  std::atomic<bool> ended{false};
  std::string end_payload;
  std::thread reader([&] {
    while (std::optional<Frame> frame = streamer.WaitReply(id)) {
      if (frame->type != FrameType::kStreamItem) {
        end_payload = frame->payload;
        break;
      }
    }
    ended.store(true);
  });

  AdpNetClient other = fx.Client();  // HELLO
  std::int64_t opened = 0;
  while (opened < 1) {  // until the server has taken the STREAM frame
    std::optional<Frame> stats =
        other.Call(FrameType::kStats, "STATS", &body);
    ASSERT_TRUE(stats.has_value()) << other.error();
    opened = StatsField(body, "streams_opened");
  }
  // A loop that built the plan itself is free only once the plan exists,
  // and a few milliseconds later the stream has ended. Planned on a worker,
  // the stream is still far from its first item: the plan takes ~0.3 s in
  // a Release build, and longer under the sanitizers.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(other.Call(FrameType::kStats, "STATS", &body).has_value());
  EXPECT_EQ(StatsField(body, "stream_items"), 0) << body;
  EXPECT_FALSE(ended.load())
      << "the stream ended before another connection's STATS was answered";
  reader.join();
  EXPECT_NE(end_payload.find("\"status\":\"OK\""), std::string::npos)
      << end_payload;
}

// A DB relation binds only to atoms of its arity: R has two columns, so
// R(A,B,C) and R(A) are INVALID_ARGUMENT results, while R(A,B) answers.
TEST(NetTest, ArityMismatchIsInvalidArgument) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(
      client.Call(FrameType::kDb, "DB d R=1,2/3,4", &body).has_value());
  for (const std::string query : {"Q(A,B,C) :- R(A,B,C)", "Q(A) :- R(A)"}) {
    std::optional<Frame> reply =
        client.Call(FrameType::kReq, "REQ d 1 " + query, &body);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kResult) << body;
    EXPECT_NE(body.find("\"status\":\"INVALID_ARGUMENT\""),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("'R' has arity 2"), std::string::npos) << body;
  }
  std::optional<Frame> reply =
      client.Call(FrameType::kReq, "REQ d 1 Q(A,B) :- R(A,B)", &body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(body.find("\"status\":\"OK\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"output_count\":2"), std::string::npos) << body;
}

TEST(NetTest, ByeFlushesAndCloses) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  std::optional<Frame> bye = client.Call(FrameType::kBye, "BYE", &body);
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->type, FrameType::kByeOk);
  EXPECT_FALSE(client.ReadFrame().has_value());  // server closed
}

// ---- Hostile client mix: duplicate-query storm ----------------------------

constexpr char kTwoChainText[] = "Q(A,B,C) :- R1(A,B), R2(B,C)";

/// A diagonal 2-chain database with `rows` rows per relation: the answer
/// (output_count == rows) differs per client, so any cross-connection
/// answer leakage is detectable.
std::string DiagDbLine(int rows) {
  std::string r1 = "R1=";
  std::string r2 = "R2=";
  for (int v = 1; v <= rows; ++v) {
    if (v > 1) {
      r1 += '/';
      r2 += '/';
    }
    r1 += std::to_string(v) + "," + std::to_string(v);
    r2 += std::to_string(v) + "," + std::to_string(v);
  }
  return "DB d1 " + r1 + " " + r2;
}

/// The ground-truth answer for (db_line, k), computed on a private engine
/// so the storm fixture's counters stay untouched.
std::string ExpectedStormAnswer(const std::string& db_line, std::int64_t k) {
  AdpEngine local(EngineConfig{.num_workers = 1});
  const ParsedDb parsed = ParseDbLine(SplitWs(db_line));
  const DbId db = local.RegisterDatabase(parsed.db);
  AdpRequest req;
  req.query_text = kTwoChainText;
  req.db = db;
  req.k = k;
  const AdpResponse resp = local.Execute(req);
  EXPECT_TRUE(resp.ok()) << resp.status.ToString();
  return ExtractAnswer(FormatResponseLine(
      0, "d1", k, resp, resp.plan ? &resp.plan->query : nullptr));
}

// A duplicate-query storm: four clients each pipeline 25 *identical*
// requests on their own connection. The engine must absorb the storm —
// per connection, only the first request solves; every follow-up either
// joins the in-flight leader (dedup) or hits the result table's completed
// slots (coalesce), so dedup_hits + coalesce_hits lands exactly on
// clients * (storm - 1). And because each client registered a *different*
// database under the same name "d1", any answer coming from another
// connection's solve (cross-talk through the shared plan cache or result
// table) would be a visibly wrong answer.
TEST(NetTest, DuplicateQueryStormAbsorbedWithoutCrossTalk) {
  constexpr int kClients = 4;
  constexpr int kStorm = 25;

  // Wide coalesce window: a follow-up that misses the in-flight join must
  // hit the ring, never re-solve.
  NetFixture fx(EngineConfig{.num_workers = 4, .coalesce_window_ms = 60'000.0});

  std::vector<std::string> db_lines;
  std::vector<std::string> expected;
  for (int i = 0; i < kClients; ++i) {
    db_lines.push_back(DiagDbLine(2 + i));
    expected.push_back(ExpectedStormAnswer(db_lines.back(), 1));
  }
  // The per-client truths are pairwise distinct, so the cross-talk check
  // below has teeth.
  for (int i = 0; i < kClients; ++i) {
    for (int j = i + 1; j < kClients; ++j) {
      ASSERT_NE(expected[i], expected[j]);
    }
  }

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&fx, &db_lines, &expected, i] {
      AdpNetClient client = fx.Client();
      std::string body;
      ASSERT_TRUE(client.Call(FrameType::kDb, db_lines[i], &body).has_value())
          << client.error();

      // Pipeline the whole storm, then collect.
      const std::string req = std::string("REQ d1 1 ") + kTwoChainText;
      std::vector<std::int64_t> ids;
      ids.reserve(kStorm);
      for (int r = 0; r < kStorm; ++r) {
        const std::int64_t id = client.NextId();
        ids.push_back(id);
        ASSERT_TRUE(client.Send(FrameType::kReq, id, req)) << client.error();
      }
      for (const std::int64_t id : ids) {
        const std::optional<Frame> reply = client.WaitReply(id);
        ASSERT_TRUE(reply.has_value()) << client.error();
        EXPECT_EQ(reply->type, FrameType::kResult) << reply->payload;
        EXPECT_EQ(ExtractAnswer(reply->payload), expected[i])
            << "client " << i << " id " << id;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // The storm was absorbed: one real solve per connection, everything
  // else deduped in flight or coalesced off the ring. No request failed,
  // none was shed, and nothing crossed connections (distinct databases
  // mean distinct solve keys, so a cross-connection hit is impossible —
  // the counter total proves the per-connection hits all landed).
  const EngineCounters c = fx.engine.counters();
  EXPECT_EQ(c.requests, static_cast<std::uint64_t>(kClients * kStorm));
  EXPECT_EQ(c.dedup_hits + c.coalesce_hits,
            static_cast<std::uint64_t>(kClients * (kStorm - 1)));
  EXPECT_GT(c.coalesce_hits + c.dedup_hits, 0u);
  EXPECT_EQ(c.failures, 0u);
  EXPECT_EQ(c.shed, 0u);
}

TEST(NetTest, ServerStopWithLiveConnectionsIsClean) {
  auto fx = std::make_unique<NetFixture>();
  AdpNetClient client = fx->Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  fx->server.Stop();
  fx.reset();  // engine teardown after server teardown
  // The client observes EOF (or an error) — never a hang.
  EXPECT_FALSE(client.ReadFrame().has_value());
}

// Reply bodies are valid JSON for any input bytes: a control byte in the
// query text (quoted back by the parse error) or in a database name is
// escaped as \u00XX, never sent raw.
TEST(NetTest, ControlBytesAreEscapedInReplyBodies) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  std::string body;
  ASSERT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  std::optional<Frame> reply =
      client.Call(FrameType::kReq, "REQ d1 1 Q(A) :- R\x01(A)", &body);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kResult) << body;
  EXPECT_NE(body.find("\"status\":\"PARSE_ERROR\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\\u0001"), std::string::npos) << body;
  for (const char c : body) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << body;
  }

  reply = client.Call(FrameType::kDb, "DB d\x02 R1=1,2", &body);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kDbOk) << body;
  EXPECT_EQ(body, "{\"db\":\"d\\u0002\"}");
}

// ---- Slow-query log --------------------------------------------------------

/// A fresh empty directory, removed with everything in it on destruction.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "adp_net_test_XXXXXX")
            .string();
    if (mkdtemp(tmpl.data()) != nullptr) path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }

  std::vector<std::filesystem::path> Files() const {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      files.push_back(entry.path());
    }
    return files;
  }
};

/// Sends one REQ, one EXEC and one STREAM of the Figure-1 chain, in that
/// order, and returns the last line of each: the REQ and EXEC results and
/// the stream's end line. `after_each` runs once each reply has arrived.
std::vector<std::string> ReqExecStreamLines(
    AdpNetClient& client, const std::function<void()>& after_each) {
  std::vector<std::string> lines;
  std::string body;
  EXPECT_TRUE(client.Call(FrameType::kDb, kDbLine, &body).has_value());
  std::optional<Frame> reply = client.Call(
      FrameType::kReq, "REQ d1 2 " + std::string(kChainText), &body);
  EXPECT_TRUE(reply.has_value() && reply->type == FrameType::kResult)
      << body;
  lines.push_back(body);
  after_each();

  reply = client.Call(FrameType::kPrepare,
                      "PREPARE " + std::string(kChainText), &body);
  EXPECT_TRUE(reply.has_value() && reply->type == FrameType::kPrepared)
      << body;
  reply = client.Call(FrameType::kExec, "EXEC 1 d1 2", &body);
  EXPECT_TRUE(reply.has_value() && reply->type == FrameType::kResult)
      << body;
  lines.push_back(body);
  after_each();

  const std::int64_t id = client.NextId();
  EXPECT_TRUE(client.Send(FrameType::kStream, id,
                          "STREAM d1 3 " + std::string(kChainText)));
  for (;;) {
    std::optional<Frame> frame = client.WaitReply(id);
    if (!frame.has_value()) {
      ADD_FAILURE() << client.error();
      break;
    }
    if (frame->type != FrameType::kStreamItem) {
      EXPECT_EQ(frame->type, FrameType::kStreamEnd) << frame->payload;
      lines.push_back(frame->payload);
      break;
    }
  }
  after_each();
  return lines;
}

TEST(NetTest, SlowQueryLogDumpsOneTracePerRequest) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  NetFixture fx(EngineConfig{.num_workers = 2},
                NetServerConfig{.trace_dir = dir.path.string(), .slow_ms = 0});
  AdpNetClient client = fx.Client();
  // Each dump is written before its reply is sent, so each reply finds
  // exactly one more file.
  std::vector<std::size_t> dumps;
  const std::vector<std::string> lines = ReqExecStreamLines(
      client, [&] { dumps.push_back(dir.Files().size()); });
  EXPECT_EQ(dumps, (std::vector<std::size_t>{1, 2, 3}));
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"status\":\"OK\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"trace_spans\":"), std::string::npos) << line;
  }
  for (const std::filesystem::path& file : dir.Files()) {
    EXPECT_EQ(file.filename().string().rfind("trace-", 0), 0u) << file;
    std::ifstream in(file);
    std::stringstream json;
    json << in.rdbuf();
    // A non-empty traceEvents array (Trace::WriteJson's layout).
    EXPECT_EQ(json.str().rfind("{\"traceEvents\":[{\"name\":", 0), 0u)
        << file << ": " << json.str();
  }
}

TEST(NetTest, SlowQueryLogSkipsRequestsUnderTheThreshold) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  NetFixture fx(EngineConfig{.num_workers = 2},
                NetServerConfig{.trace_dir = dir.path.string(),
                                .slow_ms = 1'000'000});
  AdpNetClient client = fx.Client();
  for (const std::string& line : ReqExecStreamLines(client, [] {})) {
    EXPECT_NE(line.find("\"trace_spans\":"), std::string::npos) << line;
  }
  EXPECT_TRUE(dir.Files().empty());
}

TEST(NetTest, NoTraceDirMeansNoTracing) {
  NetFixture fx;
  AdpNetClient client = fx.Client();
  for (const std::string& line : ReqExecStreamLines(client, [] {})) {
    EXPECT_NE(line.find("\"status\":\"OK\""), std::string::npos) << line;
    EXPECT_EQ(line.find("trace_spans"), std::string::npos) << line;
  }
}

TEST(NetTest, UncreatableTraceDirFailsStart) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const std::filesystem::path file = dir.path / "file";
  std::ofstream(file) << "x";
  AdpEngine engine(EngineConfig{.num_workers = 1});
  AdpNetServer server(engine,
                      NetServerConfig{.trace_dir = (file / "traces").string()});
  const Status status = server.Start();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
  EXPECT_NE(status.message().find("trace dir"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace adp::net
