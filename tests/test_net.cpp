// drw::net framing and the loopback WalkServer end to end: frames survive
// encode/decode round trips, malformed bytes never decode, and responses
// served over a real TCP socket are identical to an in-process replay of
// the same admitted order (the contract the server-smoke CI step checks
// against the shipped binary).
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include "congest/network.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "net/socket.hpp"
#include "service/server.hpp"
#include "service/walk_service.hpp"

namespace drw::service {
namespace {

TEST(NetFrame, HelloRoundTrips) {
  net::HelloFrame f;
  f.version = net::kProtocolVersion;
  f.klass = "light";
  f.node_count = 12345;
  const auto bytes = net::encode_hello(f);
  const auto back = net::decode_hello(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, f.version);
  EXPECT_EQ(back->klass, f.klass);
  EXPECT_EQ(back->node_count, f.node_count);
}

TEST(NetFrame, RequestRoundTrips) {
  net::RequestFrame f;
  f.tag = 0xdeadbeefcafeull;
  f.source = 42;
  f.length = 1u << 20;
  f.count = 7;
  f.deadline_ms = 1500;
  f.record = true;
  const auto bytes = net::encode_request(f);
  const auto back = net::decode_request(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tag, f.tag);
  EXPECT_EQ(back->source, f.source);
  EXPECT_EQ(back->length, f.length);
  EXPECT_EQ(back->count, f.count);
  EXPECT_EQ(back->deadline_ms, f.deadline_ms);
  EXPECT_EQ(back->record, f.record);
}

TEST(NetFrame, ResponseRoundTripsWithPaths) {
  net::ResponseFrame f;
  f.tag = 9;
  f.admission_index = 3;
  f.status = static_cast<std::uint8_t>(RequestStatus::kOk);
  f.record = true;
  f.destinations = {5, 6, 7};
  f.paths = {{1, 2, 5}, {1, 4, 6}, {1, 2, 7}};
  const auto bytes = net::encode_response(f);
  const auto back = net::decode_response(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tag, f.tag);
  EXPECT_EQ(back->admission_index, f.admission_index);
  EXPECT_EQ(back->status, f.status);
  EXPECT_EQ(back->record, f.record);
  EXPECT_EQ(back->destinations, f.destinations);
  EXPECT_EQ(back->paths, f.paths);
}

TEST(NetFrame, RejectedResponseRoundTrips) {
  net::ResponseFrame f;
  f.tag = 77;
  f.admission_index = net::kNotAdmitted;
  f.status = static_cast<std::uint8_t>(RequestStatus::kQueueFull);
  const auto bytes = net::encode_response(f);
  const auto back = net::decode_response(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->admission_index, net::kNotAdmitted);
  EXPECT_EQ(back->status, f.status);
  EXPECT_TRUE(back->destinations.empty());
  EXPECT_TRUE(back->paths.empty());
}

TEST(NetFrame, DecodersRejectTruncationAndTrailingBytes) {
  net::HelloFrame hello;
  hello.klass = "flood";
  hello.node_count = 99;
  net::RequestFrame request;
  request.record = true;
  net::ResponseFrame response;
  response.destinations = {1, 2};
  response.record = true;
  response.paths = {{0, 1}, {0, 2}};
  const auto check = [](std::vector<std::uint8_t> bytes, auto decode) {
    // Every strict prefix is rejected...
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_FALSE(decode(bytes.data(), n).has_value()) << "prefix " << n;
    }
    // ...and so is one trailing junk byte.
    bytes.push_back(0xab);
    EXPECT_FALSE(decode(bytes.data(), bytes.size()).has_value());
  };
  check(net::encode_hello(hello),
        [](const std::uint8_t* p, std::size_t n) { return net::decode_hello(p, n); });
  check(net::encode_request(request),
        [](const std::uint8_t* p, std::size_t n) { return net::decode_request(p, n); });
  check(net::encode_response(response),
        [](const std::uint8_t* p, std::size_t n) { return net::decode_response(p, n); });
}

TEST(NetFrame, DecodeResponseRejectsLyingCounts) {
  // A destination count that promises more elements than the payload holds
  // must not drive a huge allocation or an out-of-bounds read.
  net::ResponseFrame f;
  f.destinations = {1};
  auto bytes = net::encode_response(f);
  // n_destinations lives after tag(8) + admission_index(8) + status(1) +
  // record(1); patch it to a huge value.
  const std::size_t off = 8 + 8 + 1 + 1;
  bytes[off + 0] = 0xff;
  bytes[off + 1] = 0xff;
  bytes[off + 2] = 0xff;
  bytes[off + 3] = 0xff;
  EXPECT_FALSE(net::decode_response(bytes.data(), bytes.size()).has_value());
}

TEST(NetFrame, DecodeResponseRejectsLyingPathCount) {
  // Same for the path count: a tiny frame claiming millions of paths must
  // be rejected before f.paths is resized (each path needs at least its
  // 4-byte length word).
  net::ResponseFrame f;
  f.record = true;
  f.paths = {{1}};
  auto bytes = net::encode_response(f);
  // n_paths lives after tag(8) + admission_index(8) + status(1) +
  // record(1) + n_destinations(4) + 0 destinations.
  const std::size_t off = 8 + 8 + 1 + 1 + 4;
  bytes[off + 0] = 0xff;
  bytes[off + 1] = 0xff;
  bytes[off + 2] = 0x3f;  // ~4M paths "promised" by an 8-byte tail
  bytes[off + 3] = 0x00;
  EXPECT_FALSE(net::decode_response(bytes.data(), bytes.size()).has_value());
}

TEST(NetFrame, ReadFrameRejectsOversizedAndUnknownFrames) {
  net::Socket listener = net::tcp_listen("127.0.0.1", 0);
  const std::uint16_t port = net::local_port(listener);
  net::Socket client = net::tcp_connect("127.0.0.1", port, 2000);
  net::Socket server_side = net::accept_one(listener, 2000);
  ASSERT_TRUE(server_side.valid());

  // Oversized length prefix: rejected before any allocation.
  std::uint8_t oversized[5] = {0, 0, 0, 0xff, 1};  // len = 0xff000000 > 16MiB
  ASSERT_TRUE(net::send_all(client, oversized, sizeof(oversized), 2000));
  net::FrameType type;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(net::read_frame(server_side, &type, &payload, 2000));

  // Unknown type byte on a fresh connection.
  net::Socket client2 = net::tcp_connect("127.0.0.1", port, 2000);
  net::Socket server_side2 = net::accept_one(listener, 2000);
  ASSERT_TRUE(server_side2.valid());
  std::uint8_t unknown[5] = {0, 0, 0, 0, 42};  // len 0, type 42
  ASSERT_TRUE(net::send_all(client2, unknown, sizeof(unknown), 2000));
  EXPECT_FALSE(net::read_frame(server_side2, &type, &payload, 2000));
}

TEST(NetSocket, SendAllTimesOutInsteadOfBlockingOnStuckPeer) {
  // A peer that stops reading must surface as a send_all timeout, not an
  // indefinitely parked ::send (the "one slow client wedges the serving
  // thread" failure mode). Data sockets are non-blocking, so once the
  // kernel buffers fill, send returns EAGAIN and the poll carries the
  // timeout.
  net::Socket listener = net::tcp_listen("127.0.0.1", 0);
  net::Socket client = net::tcp_connect("127.0.0.1",
                                        net::local_port(listener), 2000);
  net::Socket server_side = net::accept_one(listener, 2000);
  ASSERT_TRUE(server_side.valid());

  // Nobody reads from `client`, so this can never fully transmit: the
  // send must give up after the timeout instead of blocking forever.
  const std::vector<std::uint8_t> big(64u << 20, 0xab);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(net::send_all(server_side, big.data(), big.size(),
                             /*timeout_ms=*/250));
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 10000) << "send_all did not honor its timeout";
}

// One HELLO handshake + N awaited request/response exchanges on a fresh
// connection to `server`. Awaiting each response before sending the next
// pins the batch boundaries (one request per batch), which makes the
// in-process replay below exact.
struct Exchange {
  net::RequestFrame request;
  net::ResponseFrame response;
};

std::vector<Exchange> drive(WalkServer& server, const std::string& klass,
                            const std::vector<net::RequestFrame>& requests,
                            std::uint64_t* node_count = nullptr) {
  net::Socket sock = net::tcp_connect("127.0.0.1", server.port(), 5000);
  net::HelloFrame hello;
  hello.klass = klass;
  EXPECT_TRUE(net::write_frame(sock, net::FrameType::kHello,
                               net::encode_hello(hello), 5000));
  net::FrameType type;
  std::vector<std::uint8_t> payload;
  EXPECT_TRUE(net::read_frame(sock, &type, &payload, 5000));
  EXPECT_EQ(type, net::FrameType::kHello);
  const auto reply = net::decode_hello(payload.data(), payload.size());
  EXPECT_TRUE(reply.has_value());
  if (node_count != nullptr && reply.has_value()) {
    *node_count = reply->node_count;
  }

  std::vector<Exchange> out;
  for (const net::RequestFrame& r : requests) {
    EXPECT_TRUE(net::write_frame(sock, net::FrameType::kRequest,
                                 net::encode_request(r), 5000));
    EXPECT_TRUE(net::read_frame(sock, &type, &payload, 5000));
    EXPECT_EQ(type, net::FrameType::kResponse);
    const auto resp = net::decode_response(payload.data(), payload.size());
    EXPECT_TRUE(resp.has_value());
    if (resp.has_value()) {
      EXPECT_EQ(resp->tag, r.tag);
      out.push_back(Exchange{r, *resp});
    }
  }
  return out;
}

/// Sends a HELLO for `klass` and reads the server's reply.
void handshake(net::Socket& sock, const std::string& klass,
               std::uint64_t* node_count = nullptr) {
  net::HelloFrame hello;
  hello.klass = klass;
  EXPECT_TRUE(net::write_frame(sock, net::FrameType::kHello,
                               net::encode_hello(hello), 5000));
  net::FrameType type;
  std::vector<std::uint8_t> payload;
  EXPECT_TRUE(net::read_frame(sock, &type, &payload, 5000));
  EXPECT_EQ(type, net::FrameType::kHello);
  const auto reply = net::decode_hello(payload.data(), payload.size());
  EXPECT_TRUE(reply.has_value());
  if (node_count != nullptr && reply.has_value()) {
    *node_count = reply->node_count;
  }
}

/// One awaited request/response exchange; returns the response.
std::optional<net::ResponseFrame> exchange(net::Socket& sock,
                                           const net::RequestFrame& r) {
  net::FrameType type;
  std::vector<std::uint8_t> payload;
  if (!net::write_frame(sock, net::FrameType::kRequest,
                        net::encode_request(r), 5000) ||
      !net::read_frame(sock, &type, &payload, 5000) ||
      type != net::FrameType::kResponse) {
    return std::nullopt;
  }
  return net::decode_response(payload.data(), payload.size());
}

TEST(WalkServerLoopback, ServedResponsesMatchInProcessReplay) {
  const std::uint64_t kSeed = 4242;
  csr::LoadedGraph lg;
  lg.graph = gen::torus(6, 6);
  const std::uint32_t diameter = exact_diameter(lg.graph);

  ServiceConfig sc;
  sc.enable_paths = true;
  congest::Network net_live(lg.graph, kSeed);
  WalkService service(net_live, diameter, sc);

  ServerConfig server_config;  // ephemeral port, default admission
  WalkServer server(service, lg, server_config);
  server.start();
  ASSERT_NE(server.port(), 0);

  std::vector<net::RequestFrame> requests;
  for (std::uint64_t i = 0; i < 5; ++i) {
    net::RequestFrame r;
    r.tag = 100 + i;
    r.source = (i * 7) % lg.graph.node_count();
    r.length = 16 + 8 * i;
    r.count = 1 + static_cast<std::uint32_t>(i % 2);
    r.record = (i == 2);
    requests.push_back(r);
  }
  std::uint64_t node_count = 0;
  const auto exchanges = drive(server, "light", requests, &node_count);
  EXPECT_EQ(node_count, lg.graph.node_count());
  ASSERT_EQ(exchanges.size(), requests.size());

  server.request_stop();
  server.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.admitted, requests.size());
  EXPECT_EQ(stats.batches, requests.size());  // awaited: one batch each

  // Replay: a fresh network with the same seed, served in the same order
  // with the same batch boundaries, must reproduce every destination and
  // path exactly.
  congest::Network net_replay(lg.graph, kSeed);
  WalkService replay(net_replay, diameter, sc);
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    const Exchange& e = exchanges[i];
    EXPECT_EQ(e.response.admission_index, i);
    EXPECT_EQ(static_cast<RequestStatus>(e.response.status),
              RequestStatus::kOk);
    const BatchReport report = replay.serve({WalkRequest{
        static_cast<NodeId>(e.request.source), e.request.length,
        e.request.count, e.request.record}});
    ASSERT_EQ(report.results.size(), 1u);
    const RequestResult& r = report.results[0];
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.destinations.size(), e.response.destinations.size());
    for (std::size_t d = 0; d < r.destinations.size(); ++d) {
      EXPECT_EQ(r.destinations[d], e.response.destinations[d])
          << "request " << i << " destination " << d;
    }
    if (e.request.record) {
      ASSERT_EQ(r.paths.size(), e.response.paths.size());
      for (std::size_t p = 0; p < r.paths.size(); ++p) {
        ASSERT_EQ(r.paths[p].size(), e.response.paths[p].size());
        for (std::size_t s = 0; s < r.paths[p].size(); ++s) {
          EXPECT_EQ(r.paths[p][s], e.response.paths[p][s]);
        }
      }
    } else {
      EXPECT_TRUE(e.response.paths.empty());
    }
  }
}

TEST(WalkServer, LaneFloorIsTheServiceResolvedWidth) {
  // The lane floor is the width the service actually runs at, so an
  // oversized config is clamped to Network::kMaxLanes here as well.
  csr::LoadedGraph lg;
  lg.graph = gen::torus(4, 4);
  congest::Network net(lg.graph, 1);
  ServiceConfig sc;
  sc.mux_width = 1000;
  WalkService service(net, exact_diameter(lg.graph), sc);
  EXPECT_EQ(service.mux_width(), congest::Network::kMaxLanes);
  WalkServer server(service, lg, ServerConfig{});
  EXPECT_EQ(server.queue().config().min_batch_requests,
            congest::Network::kMaxLanes);
}

TEST(WalkServerLoopback, InvalidRequestsRejectBeforeAdmission) {
  csr::LoadedGraph lg;
  lg.graph = gen::grid(4, 4);
  congest::Network net_live(lg.graph, 9);
  WalkService service(net_live, exact_diameter(lg.graph));  // paths OFF

  WalkServer server(service, lg, ServerConfig{});
  server.start();

  std::vector<net::RequestFrame> requests(2);
  requests[0].tag = 1;
  requests[0].source = 1u << 20;  // out of the 16-node user id space
  requests[0].length = 8;
  requests[1].tag = 2;
  requests[1].source = 3;
  requests[1].length = 8;
  requests[1].record = true;  // paths disabled on this service
  const auto exchanges = drive(server, "default", requests);
  ASSERT_EQ(exchanges.size(), 2u);
  EXPECT_EQ(exchanges[0].response.admission_index, net::kNotAdmitted);
  EXPECT_EQ(static_cast<RequestStatus>(exchanges[0].response.status),
            RequestStatus::kSourceOutOfRange);
  EXPECT_EQ(exchanges[1].response.admission_index, net::kNotAdmitted);
  EXPECT_EQ(static_cast<RequestStatus>(exchanges[1].response.status),
            RequestStatus::kPathsDisabled);

  server.request_stop();
  server.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_invalid, 2u);
  EXPECT_EQ(stats.admitted, 0u);
}

TEST(WalkServerLoopback, ReapsDeadConnectionsAndTheirFlows) {
  // An always-on server must not accumulate Conn entries (fd + joined
  // reader thread) or AdmissionQueue flow state for connections that have
  // come and gone: the accept loop sweeps them every poll tick.
  csr::LoadedGraph lg;
  lg.graph = gen::grid(4, 4);
  congest::Network net_live(lg.graph, 7);
  WalkService service(net_live, exact_diameter(lg.graph));

  WalkServer server(service, lg, ServerConfig{});
  server.start();

  for (int round = 0; round < 3; ++round) {
    net::RequestFrame r;
    r.tag = 10 + round;
    r.source = static_cast<std::uint64_t>(round);
    r.length = 4;
    const auto exchanges = drive(server, "churn", {r});
    ASSERT_EQ(exchanges.size(), 1u);
  }  // drive's socket closes here; the reader sees EOF and marks it dead

  // The sweep runs on the accept loop's 250ms poll tick; give it a few.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server.open_connections() > 0 || server.queue().flow_count() > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(server.open_connections(), 0u)
      << "dead connections were never reaped";
  EXPECT_EQ(server.queue().flow_count(), 0u)
      << "released flows were never erased";

  server.request_stop();
  server.join();
  EXPECT_EQ(server.stats().connections, 3u);
  EXPECT_EQ(server.stats().admitted, 3u);
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(WalkServerLoopback, ThreadCountIsIndependentOfConnections) {
  // One I/O thread serves every socket: opening connections adds none.
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads";
  }
  csr::LoadedGraph lg;
  lg.graph = gen::grid(4, 4);
  congest::Network net_live(lg.graph, 3);
  WalkService service(net_live, exact_diameter(lg.graph));
  WalkServer server(service, lg, ServerConfig{});
  server.start();
  const std::size_t before = thread_count();

  std::vector<net::Socket> clients;
  for (int i = 0; i < 32; ++i) {
    clients.push_back(net::tcp_connect("127.0.0.1", server.port(), 5000));
    handshake(clients.back(), "idle");  // the server has read it
  }
  EXPECT_EQ(server.open_connections(), 32u);
  EXPECT_EQ(thread_count(), before);

  server.request_stop();
  server.join();
  EXPECT_EQ(server.stats().connections, 32u);
}

TEST(WalkServerLoopback, StalledReaderDelaysNoOtherClient) {
  // A client that queues large path-recording requests and never reads
  // fills both socket buffers. Its responses wait on its own connection;
  // a light client is still answered promptly, and the stalled connection
  // is closed (its flow released) once io_timeout_ms passes.
  csr::LoadedGraph lg;
  lg.graph = gen::torus(4, 4);
  ServiceConfig sc;
  sc.enable_paths = true;
  congest::Network net_live(lg.graph, 11);
  WalkService service(net_live, exact_diameter(lg.graph), sc);
  ServerConfig config;
  config.io_timeout_ms = 3000;
  WalkServer server(service, lg, config);
  server.start();

  // A small receive buffer, set before connect so the window stays small.
  net::Socket stalled(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(stalled.valid());
  const int rcvbuf = 4096;
  ::setsockopt(stalled.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(stalled.fd(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr),
            0);
  net::HelloFrame hello;
  hello.klass = "stalled";
  ASSERT_TRUE(net::write_frame(stalled, net::FrameType::kHello,
                               net::encode_hello(hello), 5000));
  // 128 responses of 4 recorded 2048-step walks: about 4 MiB of paths,
  // more than the two socket buffers hold.
  const std::uint64_t kStalled = 128;
  for (std::uint64_t i = 0; i < kStalled; ++i) {
    net::RequestFrame r;
    r.tag = i;
    r.source = i % lg.graph.node_count();
    r.length = 2048;
    r.count = 4;
    r.record = true;
    ASSERT_TRUE(net::write_frame(stalled, net::FrameType::kRequest,
                                 net::encode_request(r), 5000));
  }

  // Light requests run back to back while the stalled responses are
  // produced, and a few more once all of them are out.
  net::Socket light = net::tcp_connect("127.0.0.1", server.port(), 5000);
  handshake(light, "light");
  double worst_ms = 0;
  std::uint64_t light_served = 0;
  int after = 0;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(120);
  while (after < 5 && std::chrono::steady_clock::now() < give_up) {
    if (server.stats().admitted >= kStalled + light_served) ++after;
    net::RequestFrame r;
    r.tag = 1000 + light_served;
    r.source = light_served % lg.graph.node_count();
    r.length = 16;
    const auto start = std::chrono::steady_clock::now();
    const auto resp = exchange(light, r);
    worst_ms = std::max(
        worst_ms, std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count());
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->tag, r.tag);
    ++light_served;
  }
  EXPECT_EQ(after, 5) << "the stalled requests were never all served";
  EXPECT_LT(worst_ms, config.io_timeout_ms / 3.0)
      << "a light request waited on the stalled reader";

  // The stalled socket stays open on this side; the server must give up on
  // it. The light client leaves too, so both counts fall back to zero.
  light.close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while ((server.open_connections() > 0 || server.queue().flow_count() > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_EQ(server.queue().flow_count(), 0u);

  server.request_stop();
  server.join();
  EXPECT_EQ(server.stats().admitted, kStalled + light_served);
}

}  // namespace
}  // namespace drw::service
