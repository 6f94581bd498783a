// Threaded tests for the socket transport: real loopback connections
// fanned into streaming sessions over one shared QueryService +
// EpochManager. Part of the TSan CI filter (SocketTransportTest.*), so
// the accept loop, per-connection sessions, and the shared replan
// lifecycle are exercised under the race detector.

#include "runtime/transport.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "runtime/epoch_manager.h"
#include "service/query_service.h"

namespace dphist::runtime {
namespace {

Histogram TestData(std::int64_t n) {
  Rng rng(23);
  return Histogram::FromCounts(ZipfCounts(n, 1.3, 6 * n, &rng));
}

/// Writes `script` to a fresh loopback connection and returns every
/// line the server sent back (the session transcript).
std::vector<std::string> RunClient(int port, const std::string& script) {
  auto stream = ConnectLoopback(port);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  if (!stream.ok()) return {};
  *stream.value() << script;
  stream.value()->flush();
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(*stream.value(), line)) lines.push_back(line);
  return lines;
}

/// The deterministic (epoch-independent) projection of a transcript:
/// answer lines only. With a large epsilon and integer rounding every
/// epoch's release reproduces the true counts, so two clients replaying
/// one script must agree byte-for-byte on this projection even when a
/// republish lands between their commands. Comment lines ("# planned
/// ...", batch receipts) carry epochs and completion timing, which are
/// legitimately session-specific.
std::vector<std::string> AnswerLines(const std::vector<std::string>& lines) {
  std::vector<std::string> answers;
  for (const std::string& line : lines) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.find("error:"), std::string::npos) << line;
    answers.push_back(line);
  }
  return answers;
}

int CountPlanned(const std::vector<std::string>& lines,
                 const std::string& reason) {
  int count = 0;
  for (const std::string& line : lines) {
    if (line.rfind("# planned ", 0) == 0 &&
        line.find("reason=" + reason) != std::string::npos) {
      ++count;
    }
  }
  return count;
}

TEST(SocketTransportTest, SingleClientGetsBannerAnswersAndReceipts) {
  const std::int64_t n = 128;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHBar;
  options.base.epsilon = 400.0;  // rounding recovers exact counts
  EpochManager manager(&service, data, options, 7);
  auto initial = manager.PublishInitial();
  ASSERT_TRUE(initial.ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 1;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  std::vector<std::string> lines =
      RunClient(server.port(), "q 3 10\nqb 2 0 0 5 9\nquit\n");
  server.WaitUntilStopped();

  ASSERT_GE(lines.size(), 6u);
  EXPECT_EQ(lines[0].rfind("# serving n=128 epoch=1 strategy=hbar", 0), 0u)
      << lines[0];
  // The three answers reproduce the published snapshot bit-for-bit.
  const Snapshot& snap = *initial.value().snapshot;
  const Interval queries[3] = {Interval(3, 10), Interval(0, 0),
                               Interval(5, 9)};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(std::stod(lines[static_cast<std::size_t>(1 + i)]),
              snap.RangeCount(queries[i]))
        << lines[static_cast<std::size_t>(1 + i)];
  }
  EXPECT_EQ(lines[4], "# batch n=2 epoch=1");
  EXPECT_EQ(lines.back(), "# served 3 queries from epoch 1");

  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.session_errors, 0u);
  EXPECT_EQ(stats.queries, 3u);
}

// The tentpole's acceptance shape: two concurrent loopback clients
// replay the same script while the shared every-N trigger republishes
// asynchronously underneath them. Each client's transcript must be
// internally well-formed (complete lines, no interleaving — each
// connection owns its writer), the deterministic answer projection must
// be byte-identical between the clients, and each client must see the
// async republish announced in its own transcript.
TEST(SocketTransportTest, ConcurrentClientsIdenticalAcrossAsyncRepublish) {
  const std::int64_t n = 256;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHBar;
  options.base.epsilon = 400.0;  // every epoch rounds to the exact counts
  // Low enough that each client's OWN 38 queries cross the trigger even
  // if the scheduler serializes the two sessions (1-core host): every
  // client is guaranteed to have a republish announced mid-session.
  options.replan_every = 20;
  options.async = true;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 2;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  std::ostringstream script;
  for (std::int64_t i = 0; i < 30; ++i) {
    script << "q " << (i % n) << " " << std::min<std::int64_t>(n - 1, i + 7)
           << "\n";
  }
  script << "qb 8 0 0 8 15 16 31 32 63 64 127 128 191 192 255 0 255\n";
  script << "quit\n";

  std::vector<std::string> transcripts[2];
  std::thread clients[2];
  for (int t = 0; t < 2; ++t) {
    clients[t] = std::thread([&, t] {
      transcripts[t] = RunClient(server.port(), script.str());
    });
  }
  for (std::thread& client : clients) client.join();
  server.WaitUntilStopped();

  for (int t = 0; t < 2; ++t) {
    ASSERT_FALSE(transcripts[t].empty());
    // Well-formed, non-interleaved: every line is either a comment or
    // an answer that parses as a double (AnswerLines flags "error:").
    EXPECT_EQ(transcripts[t][0].rfind("# serving n=256", 0), 0u);
    for (const std::string& line : AnswerLines(transcripts[t])) {
      EXPECT_NO_THROW({ (void)std::stod(line); }) << line;
    }
    EXPECT_EQ(AnswerLines(transcripts[t]).size(), 38u);
    // The async every-N republish was announced to this client —
    // exactly once per completed replan it observed, never zero.
    const int planned = CountPlanned(transcripts[t], "every");
    EXPECT_GE(planned, 1) << "client " << t
                          << " never saw the republish announced";
    EXPECT_LE(planned, static_cast<int>(manager.stats().every));
    // Its qb batch carries a single-epoch receipt.
    const bool receipt =
        std::any_of(transcripts[t].begin(), transcripts[t].end(),
                    [](const std::string& line) {
                      return line.rfind("# batch n=8 epoch=", 0) == 0;
                    });
    EXPECT_TRUE(receipt);
  }
  EXPECT_GE(manager.stats().every, 1u);
  // The deterministic projection is byte-identical across the clients.
  EXPECT_EQ(AnswerLines(transcripts[0]), AnswerLines(transcripts[1]));

  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.queries, 76u);
}

TEST(SocketTransportTest, StopUnblocksAnIdleSession) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  TransportOptions transport;
  transport.port = 0;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  // A client that connects and then goes quiet parks its session thread
  // in a socket read; Stop() must shut it down and join promptly.
  auto stream = ConnectLoopback(server.port());
  ASSERT_TRUE(stream.ok());
  std::string banner;
  ASSERT_TRUE(static_cast<bool>(std::getline(*stream.value(), banner)));
  EXPECT_EQ(banner.rfind("# serving n=64", 0), 0u);

  server.Stop();
  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  // The connection is dead from the client's side too.
  std::string rest;
  while (std::getline(*stream.value(), rest)) {
  }
  EXPECT_TRUE(stream.value()->eof() || stream.value()->fail());
}

TEST(SocketTransportTest, ServesNothingBeforePublish) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  EpochManager manager(&service, data, options, 7);
  // No PublishInitial: a connecting client gets a clean error line.
  TransportOptions transport;
  transport.port = 0;
  transport.max_sessions = 1;
  SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::string> lines = RunClient(server.port(), "q 0 1\n");
  server.WaitUntilStopped();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("error:", 0), 0u);
  EXPECT_EQ(server.stats().session_errors, 1u);
}

TEST(FdStreamBufTest, LostWritesAreCountedNotSilent) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStreamBuf buf(fds[0]);
  std::ostream out(&buf);
  out << "answer 42\n";
  out.flush();
  ASSERT_TRUE(out.good());
  EXPECT_EQ(buf.write_errors(), 0u);

  // The peer dies; everything buffered from here on is undeliverable.
  ::close(fds[1]);
  out.clear();
  out << "lost answer\n";
  out.flush();
  EXPECT_TRUE(out.fail());
  EXPECT_GE(buf.write_errors(), 1u);
  EXPECT_TRUE(buf.peer_reset());
  ::close(fds[0]);
}

TEST(FdStreamBufTest, OrderlyCloseIsNotAPeerReset) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    FdStreamBuf writer(fds[1]);
    std::ostream out(&writer);
    out << "q 0 1\n";
    out.flush();
  }
  ::shutdown(fds[1], SHUT_WR);

  FdStreamBuf reader(fds[0]);
  std::istream in(&reader);
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  EXPECT_EQ(line, "q 0 1");
  EXPECT_FALSE(static_cast<bool>(std::getline(in, line)));
  EXPECT_TRUE(reader.orderly_eof());
  EXPECT_FALSE(reader.peer_reset());
  EXPECT_EQ(reader.write_errors(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SocketTransportTest, ServerReceiptAggregatesWriteErrors) {
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
  // A well-behaved session: the aggregate counter must stay zero.
  std::vector<std::string> lines = RunClient(server.port(), "q 0 5\nquit\n");
  server.WaitUntilStopped();
  EXPECT_FALSE(lines.empty());
  EXPECT_EQ(server.stats().write_errors, 0u);
}

}  // namespace
}  // namespace dphist::runtime
