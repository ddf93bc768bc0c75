#include "serve/event_loop.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/frontend.h"
#include "serve/line_protocol.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "testing/test_util.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace dfs::serve {
namespace {

constexpr char kDataset[] = "serve-lin";
/// 22 features: a search space (4M masks) no test run covers.
constexpr char kWideDataset[] = "serve-wide";

std::unique_ptr<DfsServer> MakeServer(int workers, size_t capacity) {
  ServerOptions options;
  options.num_workers = workers;
  options.queue_capacity = capacity;
  auto server = std::make_unique<DfsServer>(options);
  server->RegisterDataset(kDataset,
                          testing::MakeLinearDataset(200, 4, 1234));
  server->RegisterDataset(kWideDataset,
                          testing::MakeLinearDataset(200, 20, 1234));
  return server;
}

/// A submit whose job cannot satisfy its constraints and never exhausts
/// its search space: it occupies a worker / queue slot until cancelled
/// (DfsServer::Shutdown cancels it).
std::string EndlessSubmitLine(uint64_t seed = 42) {
  JobRequest request;
  request.dataset = kWideDataset;
  request.strategy = "SA(NR)";
  constraints::ConstraintSet set;
  set.min_f1 = 0.999;
  set.max_search_seconds = 60.0;
  request.constraint_set = set;
  request.seed = seed;
  return FormatSubmitLine(request);
}

std::string PingLine() {
  JsonObject object;
  object["op"] = JsonValue::String("ping");
  return WriteJsonLine(object);
}

/// Front-end + client channel for one test.
struct Harness {
  explicit Harness(DfsServer& server, EventLoopOptions options = {})
      : frontend(server, options) {
    Status status = frontend.Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  StatusOr<int> Connect() {
    return TcpConnect("127.0.0.1", frontend.port());
  }

  EventLoopFrontEnd frontend;
};

// Every response must be byte-identical to what Dispatch() produces for
// the same line — the event loop changes how bytes move, never what they
// say. Covers a healthy verb, an unknown-id error, and a parse error, all
// pipelined on one keep-alive channel.
TEST(EventLoopTest, ResponsesMatchDispatchByteForByte) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  Harness harness(*server);

  const std::vector<std::string> lines = {
      PingLine(),
      R"({"id":99999,"op":"cancel"})",
      "this is not json",
  };
  auto fd = harness.Connect();
  ASSERT_TRUE(fd.ok());
  LineChannel channel(*fd);
  for (const std::string& line : lines) {
    ASSERT_TRUE(channel.WriteLine(line).ok());
  }
  for (const std::string& line : lines) {
    auto response = channel.ReadLine();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, Dispatch(*server, line).response);
  }
}

// 1k idle channels held open while a live one keeps getting served: the
// event loop multiplexes them on a handful of threads instead of needing
// a thread each, and the open-connections accounting sees all of them.
TEST(EventLoopTest, ThousandIdleChannelsDoNotStarveService) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  EventLoopOptions options;
  options.io_threads = 2;
  options.max_connections = 2048;
  Harness harness(*server, options);

  constexpr int kIdle = 1000;
  std::vector<int> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    auto fd = harness.Connect();
    ASSERT_TRUE(fd.ok()) << "connect " << i << ": "
                         << fd.status().ToString();
    idle.push_back(*fd);
  }

  auto fd = harness.Connect();
  ASSERT_TRUE(fd.ok());
  LineChannel channel(*fd);
  const std::string expected = Dispatch(*server, PingLine()).response;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(channel.WriteLine(PingLine()).ok());
    EXPECT_EQ(channel.ReadLine().value_or(""), expected);
  }

  // The acceptor may still be draining the backlog; wait for the gauge.
  Stopwatch watch;
  while (harness.frontend.open_connections() < kIdle + 1 &&
         watch.ElapsedSeconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(harness.frontend.open_connections(),
            static_cast<size_t>(kIdle + 1));

  for (const int idle_fd : idle) ::close(idle_fd);
}

// A slow writer dripping one request a few bytes at a time: the channel's
// read buffer must reassemble the line across many epoll wakeups, and a
// second request pipelined in the same trailing chunk must be answered
// too.
TEST(EventLoopTest, SlowWriterDripsPartialLineAcrossWakeups) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  Harness harness(*server);

  auto fd = harness.Connect();
  ASSERT_TRUE(fd.ok());
  const std::string request = PingLine() + "\n";
  for (size_t i = 0; i < request.size(); i += 3) {
    const size_t n = std::min<size_t>(3, request.size() - i);
    ASSERT_EQ(::send(*fd, request.data() + i, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Tail of the drip carries a full second request in one chunk.
  ASSERT_EQ(::send(*fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));

  LineChannel channel(*fd);
  const std::string expected = Dispatch(*server, PingLine()).response;
  EXPECT_EQ(channel.ReadLine().value_or(""), expected);
  EXPECT_EQ(channel.ReadLine().value_or(""), expected);
}

// Admission control: with the watermark at 1 and one endless job parked in
// the queue, a further submit must get the exact ShedResponse() bytes —
// and non-submit verbs must keep working (status polls are never shed).
TEST(EventLoopTest, ShedResponseBytesAtWatermark) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  EventLoopOptions options;
  options.shed_watermark = 1;
  Harness harness(*server, options);

  auto fd = harness.Connect();
  ASSERT_TRUE(fd.ok());
  LineChannel channel(*fd);

  // First endless job: accepted, soon picked up by the single worker.
  ASSERT_TRUE(channel.WriteLine(EndlessSubmitLine(1)).ok());
  auto first = channel.ReadLine();
  ASSERT_TRUE(first.ok());
  auto first_object = ParseJsonLine(*first);
  ASSERT_TRUE(first_object.ok());
  ASSERT_TRUE(GetBool(*first_object, "ok").value_or(false)) << *first;

  // Wait until the worker has it RUNNING (queue drained back to 0), then
  // park a second endless job in the queue: depth stays pinned at 1.
  Stopwatch watch;
  while (server->QueueDepth() > 0 && watch.ElapsedSeconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server->QueueDepth(), 0u);
  ASSERT_TRUE(channel.WriteLine(EndlessSubmitLine(2)).ok());
  auto second = channel.ReadLine();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(server->QueueDepth(), 1u);

  ASSERT_TRUE(channel.WriteLine(EndlessSubmitLine(3)).ok());
  EXPECT_EQ(channel.ReadLine().value_or(""), ShedResponse());

  // Non-submit traffic still flows at the watermark.
  ASSERT_TRUE(channel.WriteLine(PingLine()).ok());
  EXPECT_EQ(channel.ReadLine().value_or(""),
            Dispatch(*server, PingLine()).response);
}

// Accept-time shed under fd pressure: past max_connections, a new
// connection gets the exact AcceptShedResponse() bytes and EOF, while the
// established channel keeps working.
TEST(EventLoopTest, AcceptShedPastConnectionLimit) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  EventLoopOptions options;
  options.max_connections = 1;
  Harness harness(*server, options);

  auto first = harness.Connect();
  ASSERT_TRUE(first.ok());
  LineChannel established(*first);
  const std::string expected = Dispatch(*server, PingLine()).response;
  ASSERT_TRUE(established.WriteLine(PingLine()).ok());
  ASSERT_EQ(established.ReadLine().value_or(""), expected);

  auto second = harness.Connect();
  ASSERT_TRUE(second.ok());
  LineChannel shed(*second);
  EXPECT_EQ(shed.ReadLine().value_or(""), AcceptShedResponse());
  EXPECT_EQ(shed.ReadLine().status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(established.WriteLine(PingLine()).ok());
  EXPECT_EQ(established.ReadLine().value_or(""), expected);
}

// An abrupt RST mid-line (SO_LINGER{1,0} close with half a request
// buffered) must only kill that channel — the front-end and other
// channels survive.
TEST(EventLoopTest, AbruptRstMidLineLeavesServiceHealthy) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  Harness harness(*server);

  auto doomed = harness.Connect();
  ASSERT_TRUE(doomed.ok());
  const std::string partial = R"({"op":"pi)";
  ASSERT_EQ(::send(*doomed, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  struct linger hard_close = {1, 0};
  ASSERT_EQ(::setsockopt(*doomed, SOL_SOCKET, SO_LINGER, &hard_close,
                         sizeof(hard_close)),
            0);
  ::close(*doomed);  // RST instead of FIN

  auto fd = harness.Connect();
  ASSERT_TRUE(fd.ok());
  LineChannel channel(*fd);
  ASSERT_TRUE(channel.WriteLine(PingLine()).ok());
  EXPECT_EQ(channel.ReadLine().value_or(""),
            Dispatch(*server, PingLine()).response);
}

// tcp_test's line-cap case re-pointed at the event loop: a peer streaming
// past kMaxLineBytes without a newline gets its connection closed (no
// response) instead of growing the server buffer without bound.
TEST(EventLoopTest, OverlongLineClosesConnection) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  Harness harness(*server);

  auto fd = harness.Connect();
  ASSERT_TRUE(fd.ok());
  const std::string chunk(4096, 'x');
  size_t sent = 0;
  // The server closes once its residue passes the cap; from then on our
  // sends start failing (EPIPE/ECONNRESET — MSG_NOSIGNAL, no SIGPIPE,
  // same contract tcp_test checks for LineChannel). Bound the loop well
  // past cap + socket buffers in case every send is accepted locally.
  bool closed = false;
  while (sent < 8 * kMaxLineBytes) {
    const ssize_t n = ::send(*fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      closed = true;
      break;
    }
    sent += static_cast<size_t>(n);
  }
  EXPECT_TRUE(closed);
  ::close(*fd);
}

// tcp_test's EOF case re-pointed at the event loop: a final unterminated
// line before EOF is still served (LineChannel::ReadLine semantics), and
// the response is flushed before the server closes its side.
TEST(EventLoopTest, FinalUnterminatedLineBeforeEofIsServed) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  Harness harness(*server);

  auto fd = harness.Connect();
  ASSERT_TRUE(fd.ok());
  const std::string request = PingLine();  // no trailing '\n'
  ASSERT_EQ(::send(*fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  ASSERT_EQ(::shutdown(*fd, SHUT_WR), 0);  // EOF to the server

  LineChannel channel(*fd);
  EXPECT_EQ(channel.ReadLine().value_or(""),
            Dispatch(*server, PingLine()).response);
  EXPECT_EQ(channel.ReadLine().status().code(), StatusCode::kNotFound);
}

// A client-issued shutdown verb stops the whole front-end: the response is
// acknowledged on the wire first and Wait() reports the client-initiated
// stop, which is how dfs_serverd decides to run its state spills.
TEST(EventLoopTest, ClientShutdownVerbStopsFrontEnd) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  auto harness = std::make_unique<Harness>(*server);
  const int port = harness->frontend.port();

  auto fd = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(fd.ok());
  LineChannel channel(*fd);
  JsonObject object;
  object["op"] = JsonValue::String("shutdown");
  ASSERT_TRUE(channel.WriteLine(WriteJsonLine(object)).ok());
  auto response = channel.ReadLine();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto parsed = ParseJsonLine(*response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(GetBool(*parsed, "ok").value_or(false)) << *response;

  EXPECT_TRUE(harness->frontend.Wait());
  harness.reset();
}

}  // namespace
}  // namespace dfs::serve
