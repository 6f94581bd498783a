// Threaded tests for the socket server's worker readiness loops: the
// binary frame protocol, protocol negotiation next to unchanged text
// sessions, the auth handshake, pipelining, and per-session stats — all
// over real loopback connections into the epoll/poll loops. Part of the
// TSan and ASan+LSan CI filters (SessionPoolTransportTest.*).

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "runtime/epoch_manager.h"
#include "runtime/session.h"
#include "runtime/transport.h"
#include "runtime/wire_format.h"
#include "service/query_service.h"

namespace dphist::runtime {
namespace {

Histogram TestData(std::int64_t n) {
  Rng rng(23);
  return Histogram::FromCounts(ZipfCounts(n, 1.3, 6 * n, &rng));
}

/// Text client: ship the script, return the transcript lines.
std::vector<std::string> RunTextClient(int port, const std::string& script,
                                       const std::string& auth = "") {
  auto stream = ConnectLoopback(port);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  if (!stream.ok()) return {};
  if (!auth.empty()) *stream.value() << "auth " << auth << "\n";
  *stream.value() << script;
  stream.value()->flush();
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(*stream.value(), line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> AnswerLines(const std::vector<std::string>& lines) {
  std::vector<std::string> answers;
  for (const std::string& line : lines) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.find("error:"), std::string::npos) << line;
    answers.push_back(line);
  }
  return answers;
}

TEST(SessionPoolTransportTest, ConstantTimeEqualsAgreesWithOperator) {
  EXPECT_TRUE(ConstantTimeEquals("", ""));
  EXPECT_TRUE(ConstantTimeEquals("secret", "secret"));
  EXPECT_FALSE(ConstantTimeEquals("secret", "secres"));
  EXPECT_FALSE(ConstantTimeEquals("secret", "secre"));
  EXPECT_FALSE(ConstantTimeEquals("", "x"));
  EXPECT_FALSE(ConstantTimeEquals("Secret", "secret"));
}

TEST(SessionPoolTransportTest, BinaryClientAnswersMatchTheSnapshot) {
  const std::int64_t n = 128;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHBar;
  options.base.epsilon = 400.0;
  EpochManager manager(&service, data, options, 7);
  auto initial = manager.PublishInitial();
  ASSERT_TRUE(initial.ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 1;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  auto connected = BinaryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  BinaryClient& client = *connected.value();
  EXPECT_EQ(client.banner().rfind("# serving n=128 epoch=1", 0), 0u)
      << client.banner();
  EXPECT_EQ(client.hello().version, wire::kProtocolVersion);
  EXPECT_EQ(client.hello().domain_size, 128u);
  EXPECT_EQ(client.hello().epoch, 1u);

  const Interval queries[3] = {Interval(3, 10), Interval(0, 0),
                               Interval(5, 9)};
  client.SendQuery(1, 0, queries, 3);
  client.SendGoodbye();
  ASSERT_TRUE(client.Flush().ok());

  auto reply = client.ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, wire::FrameType::kAnswers);
  wire::AnswersFrame answers;
  ASSERT_TRUE(wire::ParseAnswers(reply.value().payload, &answers).ok());
  EXPECT_EQ(answers.id, 1u);
  EXPECT_EQ(answers.epoch, 1u);
  ASSERT_EQ(answers.values.size(), 3u);
  const std::shared_ptr<const Snapshot> snap = service.snapshot();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(answers.values[static_cast<std::size_t>(i)],
              snap->RangeCount(queries[i]))
        << i;
  }

  auto bye = client.ReadReply();
  ASSERT_TRUE(bye.ok());
  ASSERT_EQ(bye.value().type, wire::FrameType::kBye);
  wire::ByeFrame receipt;
  ASSERT_TRUE(wire::ParseBye(bye.value().payload, &receipt).ok());
  EXPECT_EQ(receipt.queries, 3u);
  EXPECT_EQ(receipt.epoch, 1u);

  server.WaitUntilStopped();
  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.binary_sessions, 1u);
  EXPECT_EQ(stats.text_sessions, 0u);
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.session_errors, 0u);
}

// Sessions poll the replan triggers before a command's reply, never
// after their last command. A text session whose one batch crosses the
// every-4 trigger ends without a replan; the next command, here a binary
// session's QUERY, fires it and is answered from the new release. That
// session's own crossing is left unpolled at GOODBYE.
TEST(SessionPoolTransportTest, TriggersArePolledBeforeACommandNotAfterTheLast) {
  const std::int64_t n = 128;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHBar;
  options.base.epsilon = 400.0;
  options.replan_every = 4;
  options.async = false;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 2;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> text =
      RunTextClient(server.port(), "qb 4 0 0 1 1 2 2 3 3\nquit\n");
  ASSERT_FALSE(text.empty());
  for (const std::string& line : text) {
    EXPECT_EQ(line.rfind("# planned", 0), std::string::npos) << line;
  }
  EXPECT_EQ(text.back(), "# served 4 queries from epoch 1");
  EXPECT_EQ(service.current_epoch(), 1u);

  auto connected = BinaryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  BinaryClient& client = *connected.value();
  const Interval queries[4] = {Interval(0, 0), Interval(1, 1),
                               Interval(2, 2), Interval(3, 3)};
  client.SendQuery(1, 0, queries, 4);
  client.SendGoodbye();
  ASSERT_TRUE(client.Flush().ok());

  auto plan = client.ReadFrame();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().type, wire::FrameType::kPlan);
  wire::PlanFrame planned;
  ASSERT_TRUE(wire::ParsePlan(plan.value().payload, &planned).ok());
  EXPECT_EQ(planned.epoch, 2u);
  EXPECT_EQ(planned.reason, "every");
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, wire::FrameType::kAnswers);
  wire::AnswersFrame answers;
  ASSERT_TRUE(wire::ParseAnswers(reply.value().payload, &answers).ok());
  EXPECT_EQ(answers.epoch, 2u);
  auto bye = client.ReadFrame();
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  EXPECT_EQ(bye.value().type, wire::FrameType::kBye);

  server.WaitUntilStopped();
  EXPECT_EQ(service.current_epoch(), 2u);
  EXPECT_EQ(manager.stats().replans, 1u);
}

TEST(SessionPoolTransportTest, PipelinedQueriesComeBackInOrder) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 1;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  auto connected = BinaryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  BinaryClient& client = *connected.value();

  // Pipeline: 40 requests in one flush, nothing read until all are out.
  constexpr std::uint64_t kRequests = 40;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    const Interval range(static_cast<std::int64_t>(id % 32),
                         static_cast<std::int64_t>(32 + id % 32));
    client.SendQuery(id, 0, &range, 1);
  }
  client.SendGoodbye();
  ASSERT_TRUE(client.Flush().ok());

  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok()) << "id=" << id;
    ASSERT_EQ(reply.value().type, wire::FrameType::kAnswers);
    wire::AnswersFrame answers;
    ASSERT_TRUE(wire::ParseAnswers(reply.value().payload, &answers).ok());
    // In-order execution: replies echo the request ids in send order.
    EXPECT_EQ(answers.id, id);
    EXPECT_EQ(answers.values.size(), 1u);
  }
  auto bye = client.ReadReply();
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye.value().type, wire::FrameType::kBye);
  server.WaitUntilStopped();
  EXPECT_EQ(server.stats().queries, kRequests);
}

TEST(SessionPoolTransportTest, ExpectEpochMismatchIsARequestError) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 1;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  auto connected = BinaryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  BinaryClient& client = *connected.value();

  const Interval range(0, 7);
  client.SendQuery(1, /*expect_epoch=*/999, &range, 1);  // wrong epoch
  client.SendQuery(2, /*expect_epoch=*/1, &range, 1);    // current epoch
  client.SendGoodbye();
  ASSERT_TRUE(client.Flush().ok());

  auto first = client.ReadReply();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().type, wire::FrameType::kError);
  wire::ErrorFrame error;
  ASSERT_TRUE(wire::ParseError(first.value().payload, &error).ok());
  EXPECT_EQ(error.id, 1u);
  EXPECT_EQ(error.code,
            static_cast<std::uint64_t>(wire::WireError::kEpochMismatch));

  // The mismatch was request-scoped: the session keeps serving.
  auto second = client.ReadReply();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().type, wire::FrameType::kAnswers);
  wire::AnswersFrame answers;
  ASSERT_TRUE(wire::ParseAnswers(second.value().payload, &answers).ok());
  EXPECT_EQ(answers.id, 2u);
  EXPECT_EQ(answers.epoch, 1u);
  server.WaitUntilStopped();
  EXPECT_EQ(server.stats().session_errors, 0u);
}

TEST(SessionPoolTransportTest, BadRangeIsRecoverableMalformedFrameIsFatal) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 2;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  {
    // Out-of-domain range: ERROR reply, session survives.
    auto connected = BinaryClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok());
    BinaryClient& client = *connected.value();
    const Interval bad(0, n + 5);
    const Interval good(0, 5);
    client.SendQuery(1, 0, &bad, 1);
    client.SendQuery(2, 0, &good, 1);
    client.SendGoodbye();
    ASSERT_TRUE(client.Flush().ok());
    auto first = client.ReadReply();
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first.value().type, wire::FrameType::kError);
    auto second = client.ReadReply();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().type, wire::FrameType::kAnswers);
    auto bye = client.ReadReply();
    ASSERT_TRUE(bye.ok());
    EXPECT_EQ(bye.value().type, wire::FrameType::kBye);
  }
  {
    // Unknown frame type after negotiation: one ERROR, then close.
    auto stream = ConnectLoopback(server.port());
    ASSERT_TRUE(stream.ok());
    std::string banner;
    ASSERT_TRUE(std::getline(*stream.value(), banner));
    stream.value()->put(static_cast<char>(wire::kMagic));
    stream.value()->put('\x7F');  // not a frame type
    stream.value()->flush();
    // HELLO arrives, then the ERROR, then EOF.
    std::string bytes((std::istreambuf_iterator<char>(*stream.value())),
                      std::istreambuf_iterator<char>());
    wire::Frame frame;
    auto hello = wire::DecodeFrame(bytes, &frame);
    ASSERT_TRUE(hello.ok());
    EXPECT_EQ(frame.type, wire::FrameType::kHello);
    auto error = wire::DecodeFrame(
        std::string_view(bytes).substr(hello.value()), &frame);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(frame.type, wire::FrameType::kError);
  }
  server.WaitUntilStopped();
  EXPECT_EQ(server.stats().completed, 2u);
  EXPECT_EQ(server.stats().session_errors, 1u);
}

TEST(SessionPoolTransportTest, AuthTokenGatesBothProtocols) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 4;
  transport.auth_token = "hunter2";
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  // Wrong token: one error line, closed, counted.
  std::vector<std::string> refused =
      RunTextClient(server.port(), "q 0 5\nquit\n", "wrong");
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused[0], "error: authentication failed");

  // Missing token entirely: the first line is consumed as the (failed)
  // handshake — nothing is served before auth.
  std::vector<std::string> missing =
      RunTextClient(server.port(), "q 0 5\nquit\n");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], "error: authentication failed");

  // Right token: the text session proceeds normally...
  std::vector<std::string> served =
      RunTextClient(server.port(), "q 0 5\nquit\n", "hunter2");
  ASSERT_GE(served.size(), 3u);
  EXPECT_EQ(served[0].rfind("# serving n=64", 0), 0u);
  EXPECT_EQ(AnswerLines(served).size(), 1u);

  // ...and so does a binary session through the same handshake.
  auto binary = BinaryClient::Connect("127.0.0.1", server.port(), "hunter2");
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  binary.value()->SendGoodbye();
  ASSERT_TRUE(binary.value()->Flush().ok());
  auto bye = binary.value()->ReadReply();
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye.value().type, wire::FrameType::kBye);

  server.WaitUntilStopped();
  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.auth_failures, 2u);
  EXPECT_EQ(stats.session_errors, 2u);
  EXPECT_EQ(stats.text_sessions, 1u);
  EXPECT_EQ(stats.binary_sessions, 1u);
  EXPECT_EQ(stats.queries, 1u);
}

TEST(SessionPoolTransportTest, WrongAuthRejectsBinaryConnect) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 1;
  transport.auth_token = "hunter2";
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  auto refused = BinaryClient::Connect("127.0.0.1", server.port(), "nope");
  EXPECT_FALSE(refused.ok());
  server.WaitUntilStopped();
  EXPECT_EQ(server.stats().auth_failures, 1u);
}

TEST(SessionPoolTransportTest, SessionStatsReportProtocolAndCounters) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 2;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  // Text session: `stats` reports the session-scoped counters.
  std::vector<std::string> text = RunTextClient(
      server.port(), "qb 2 0 5 0 5\nqb 2 0 5 0 5\nstats\nquit\n");
  const auto stats_line =
      std::find_if(text.begin(), text.end(), [](const std::string& line) {
        return line.find(" session_queries=") != std::string::npos;
      });
  ASSERT_NE(stats_line, text.end());
  EXPECT_NE(stats_line->find("session_queries=4"), std::string::npos)
      << *stats_line;
  EXPECT_NE(stats_line->find("session_batches=2"), std::string::npos);
  EXPECT_NE(stats_line->find("session_epochs=1"), std::string::npos);
  EXPECT_NE(stats_line->find("protocol=text"), std::string::npos);
  EXPECT_NE(stats_line->find("write_errors=0"), std::string::npos);

  // Binary session: STATS frame carries the same text with
  // protocol=binary.
  auto connected = BinaryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  BinaryClient& client = *connected.value();
  const Interval range(0, 5);
  client.SendQuery(1, 0, &range, 1);
  client.SendStats(2);
  client.SendGoodbye();
  ASSERT_TRUE(client.Flush().ok());
  auto answers = client.ReadReply();
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().type, wire::FrameType::kAnswers);
  auto stats_reply = client.ReadReply();
  ASSERT_TRUE(stats_reply.ok());
  ASSERT_EQ(stats_reply.value().type, wire::FrameType::kStatsText);
  wire::StatsTextFrame stats_text;
  ASSERT_TRUE(
      wire::ParseStatsText(stats_reply.value().payload, &stats_text).ok());
  EXPECT_EQ(stats_text.id, 2u);
  EXPECT_NE(stats_text.text.find("protocol=binary"), std::string::npos)
      << stats_text.text;
  EXPECT_NE(stats_text.text.find("session_queries=1"), std::string::npos);

  server.WaitUntilStopped();
  EXPECT_EQ(server.stats().batches, 3u);
}

// The tentpole's acceptance shape at pool scale: text and binary
// sessions mixed over a 2-worker pool while the shared every-N trigger
// republishes asynchronously. Every client's answer projection must be
// byte-identical and every client must see a republish announced
// (pushed, for binary, as a PLAN frame).
TEST(SessionPoolTransportTest, MixedProtocolsAgreeAcrossAsyncRepublish) {
  const std::int64_t n = 256;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHBar;
  options.base.epsilon = 400.0;  // every epoch rounds to the exact counts
  options.replan_every = 12;
  options.async = true;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  constexpr int kTextClients = 3;
  constexpr int kBinaryClients = 3;
  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = kTextClients + kBinaryClients;
  transport.workers = 2;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  std::vector<Interval> queries;
  for (std::int64_t i = 0; i < 20; ++i) {
    queries.emplace_back(i % n, std::min<std::int64_t>(n - 1, i * 3 + 7));
  }

  std::ostringstream script;
  for (const Interval& q : queries) {
    script << "q " << q.lo() << " " << q.hi() << "\n";
  }
  script << "quit\n";

  std::vector<std::vector<std::string>> text_answers(kTextClients);
  std::vector<int> text_planned(kTextClients, 0);
  std::vector<std::vector<double>> binary_answers(kBinaryClients);
  std::vector<int> binary_planned(kBinaryClients, 0);

  std::vector<std::thread> clients;
  for (int t = 0; t < kTextClients; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::string> transcript =
          RunTextClient(server.port(), script.str());
      text_answers[t] = AnswerLines(transcript);
      for (const std::string& line : transcript) {
        if (line.rfind("# planned ", 0) == 0 &&
            line.find("reason=every") != std::string::npos) {
          text_planned[t] += 1;
        }
      }
    });
  }
  for (int b = 0; b < kBinaryClients; ++b) {
    clients.emplace_back([&, b] {
      auto connected = BinaryClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(connected.ok()) << connected.status().ToString();
      BinaryClient& client = *connected.value();
      std::uint64_t id = 0;
      for (const Interval& q : queries) client.SendQuery(++id, 0, &q, 1);
      client.SendGoodbye();
      ASSERT_TRUE(client.Flush().ok());
      std::vector<BinaryClient::OwnedFrame> pushes;
      for (std::uint64_t want = 1; want <= queries.size(); ++want) {
        auto reply = client.ReadReply(&pushes);
        ASSERT_TRUE(reply.ok());
        ASSERT_EQ(reply.value().type, wire::FrameType::kAnswers);
        wire::AnswersFrame answers;
        ASSERT_TRUE(
            wire::ParseAnswers(reply.value().payload, &answers).ok());
        ASSERT_EQ(answers.id, want);
        binary_answers[b].push_back(answers.values.at(0));
      }
      auto bye = client.ReadReply(&pushes);
      ASSERT_TRUE(bye.ok());
      ASSERT_EQ(bye.value().type, wire::FrameType::kBye);
      for (const BinaryClient::OwnedFrame& push : pushes) {
        if (push.type != wire::FrameType::kPlan) continue;
        wire::PlanFrame plan;
        ASSERT_TRUE(wire::ParsePlan(push.payload, &plan).ok());
        if (plan.reason == "every") binary_planned[b] += 1;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.WaitUntilStopped();

  // Identical projections: all text transcripts agree, and every binary
  // client's answers equal the text answers value-for-value.
  ASSERT_EQ(text_answers[0].size(), queries.size());
  for (int t = 1; t < kTextClients; ++t) {
    EXPECT_EQ(text_answers[t], text_answers[0]) << "text client " << t;
  }
  for (int b = 0; b < kBinaryClients; ++b) {
    ASSERT_EQ(binary_answers[b].size(), queries.size()) << b;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(binary_answers[b][i], std::stod(text_answers[0][i]))
          << "binary client " << b << " query " << i;
    }
  }
  // Every client saw the shared republish announced in its own session.
  for (int t = 0; t < kTextClients; ++t) {
    EXPECT_GE(text_planned[t], 1) << "text client " << t;
  }
  for (int b = 0; b < kBinaryClients; ++b) {
    EXPECT_GE(binary_planned[b], 1) << "binary client " << b;
  }
  EXPECT_GE(manager.stats().replans, 1u);

  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kTextClients + kBinaryClients));
  EXPECT_EQ(stats.text_sessions, static_cast<std::uint64_t>(kTextClients));
  EXPECT_EQ(stats.binary_sessions,
            static_cast<std::uint64_t>(kBinaryClients));
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(
                               (kTextClients + kBinaryClients) *
                               queries.size()));
  EXPECT_EQ(stats.replans_announced,
            static_cast<std::uint64_t>(
                std::accumulate(text_planned.begin(), text_planned.end(),
                                0) +
                std::accumulate(binary_planned.begin(),
                                binary_planned.end(), 0)));
}

TEST(SessionPoolTransportTest, ManyConnectionsShareTwoWorkers) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHBar;
  options.base.epsilon = 400.0;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  constexpr int kClients = 64;
  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = kClients;
  transport.workers = 2;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  // Far more connections than workers: every one is a state machine in
  // a worker's shard, not a thread.
  std::vector<std::thread> clients;
  std::vector<std::size_t> answer_counts(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::string> transcript =
          RunTextClient(server.port(), "q 0 9\nq 10 19\nqb 1 0 63\nquit\n");
      answer_counts[static_cast<std::size_t>(t)] =
          AnswerLines(transcript).size();
    });
  }
  for (std::thread& client : clients) client.join();
  server.WaitUntilStopped();

  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(answer_counts[static_cast<std::size_t>(t)], 3u) << t;
  }
  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(3 * kClients));
  EXPECT_EQ(stats.session_errors, 0u);
  EXPECT_EQ(stats.write_errors, 0u);
}

/// Sends `bytes` over a fresh loopback connection in one send loop on a
/// writer thread, so the server finds the whole pipeline buffered at
/// once, while this thread reads every reply byte until the server
/// closes the connection.
std::string PipelineOverLoopback(int port, const std::string& bytes) {
  auto stream = ConnectLoopback(port);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  if (!stream.ok()) return {};
  const int fd = stream.value()->fd();
  std::thread writer([fd, &bytes] {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
  });
  std::string reply((std::istreambuf_iterator<char>(*stream.value())),
                    std::istreambuf_iterator<char>());
  writer.join();
  return reply;
}

// Regression test for quadratic input consumption: the worker used to
// copy each command out and erase it from the front of the connection's
// input buffer, so one deeply pipelined write cost time quadratic in its
// size. Every answer must still arrive, in order, and a malformed line
// must be reported under its own line number.
TEST(SessionPoolTransportTest, DeeplyPipelinedWritesAnswerEveryCommandInOrder) {
  const std::int64_t n = 512;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kLTilde;
  EpochManager manager(&service, data, options, 7);
  auto initial = manager.PublishInitial();
  ASSERT_TRUE(initial.ok());
  const std::shared_ptr<const Snapshot> snap = service.snapshot();

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 2;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  auto range_of = [n](std::int64_t k) {
    const std::int64_t lo = (k * 7) % n;
    return Interval(lo, std::min(n - 1, lo + k % 13));
  };

  // Text: > 4 MB of query lines, one of them malformed.
  constexpr std::int64_t kBadLine = 200001;
  std::string script;
  std::vector<std::string> expected;
  for (std::int64_t line = 1; script.size() < (std::size_t{4} << 20);
       ++line) {
    if (line == kBadLine) {
      script += "q 5\n";
      expected.push_back("error");
      continue;
    }
    const Interval range = range_of(line);
    script += "q " + std::to_string(range.lo()) + " " +
              std::to_string(range.hi()) + "\n";
    std::string answer;
    AppendAnswerLine(snap->RangeCount(range), &answer);
    answer.pop_back();  // the newline
    expected.push_back(std::move(answer));
  }
  script += "quit\n";
  std::istringstream text_reply(PipelineOverLoopback(server.port(), script));
  std::vector<std::string> lines;
  for (std::string line; std::getline(text_reply, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (expected[i] == "error") {
      EXPECT_EQ(lines[i].rfind("error: ", 0), 0u) << lines[i];
      EXPECT_NE(lines[i].find("query line " + std::to_string(kBadLine) + ":"),
                std::string::npos)
          << lines[i];
      continue;
    }
    ASSERT_EQ(lines[i], expected[i]) << "line " << i + 1;
  }

  // Binary: 20 000 QUERY frames after the negotiation byte, one write.
  constexpr std::uint64_t kFrames = 20000;
  std::string frames(1, static_cast<char>(wire::kMagic));
  for (std::uint64_t id = 1; id <= kFrames; ++id) {
    const Interval range = range_of(static_cast<std::int64_t>(id));
    wire::EncodeQuery(id, 0, &range, 1, &frames);
  }
  wire::EncodeGoodbye(&frames);
  const std::string reply = PipelineOverLoopback(server.port(), frames);
  std::string_view rest(reply);
  rest.remove_prefix(rest.find('\n') + 1);  // the text banner
  wire::Frame frame;
  auto consumed = wire::DecodeFrame(rest, &frame);
  ASSERT_TRUE(consumed.ok() && consumed.value() > 0);
  ASSERT_EQ(frame.type, wire::FrameType::kHello);
  rest.remove_prefix(consumed.value());
  for (std::uint64_t id = 1; id <= kFrames; ++id) {
    consumed = wire::DecodeFrame(rest, &frame);
    ASSERT_TRUE(consumed.ok() && consumed.value() > 0) << "id=" << id;
    ASSERT_EQ(frame.type, wire::FrameType::kAnswers) << "id=" << id;
    wire::AnswersFrame answers;
    ASSERT_TRUE(wire::ParseAnswers(frame.payload, &answers).ok());
    ASSERT_EQ(answers.id, id);
    ASSERT_EQ(answers.values.size(), 1u);
    ASSERT_EQ(answers.values[0],
              snap->RangeCount(range_of(static_cast<std::int64_t>(id))))
        << "id=" << id;
    rest.remove_prefix(consumed.value());
  }
  consumed = wire::DecodeFrame(rest, &frame);
  ASSERT_TRUE(consumed.ok() && consumed.value() > 0);
  EXPECT_EQ(frame.type, wire::FrameType::kBye);

  server.WaitUntilStopped();
  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.queries, expected.size() - 1 + kFrames);
  EXPECT_EQ(stats.session_errors, 0u);
  EXPECT_EQ(stats.write_errors, 0u);
}

TEST(SessionPoolTransportTest, InvalidBindAddrFailsStart) {
  const std::int64_t n = 16;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  transport.bind_addr = "not-an-address";
  SocketServer server(service, manager, transport);
  Status started = server.Start();
  EXPECT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dphist::runtime
