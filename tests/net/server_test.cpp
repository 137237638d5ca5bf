// EstimateNetServer end-to-end contract over a real loopback socket:
// Hello/Welcome registration, request/response, every admission refusal as
// a kReject frame carrying retry_after_us (token bucket, unknown tenant,
// bad request, and the broker's own queue-full shed forwarded onto the
// wire), tenant multiplexing on one connection, pipelining, single-flight
// coalescing across the server's batch loops, ping, and protocol-error
// handling (garbage gets a kError frame, then the connection closes).
#include "net/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"

namespace overcount::net {
namespace {

/// MetricsSnapshot stores counters as (name, value) pairs; linear lookup
/// is fine at test scale.
std::uint64_t counter_value(const MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// Frozen deterministic clock shared by server + admission layer.
struct TestClock {
  std::shared_ptr<std::atomic<std::uint64_t>> us =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::function<std::uint64_t()> fn() const {
    auto ptr = us;
    return [ptr] { return ptr->load(std::memory_order_relaxed); };
  }
};

NetServerConfig base_config() {
  NetServerConfig config;
  config.acceptors = 2;
  config.shards = 1;
  config.service.threads = 2;
  config.service.queue_capacity = 16;
  config.service.lambda2_hint = 0.5;
  config.service.seed = 11;
  return config;
}

RequestMsg size_request(std::uint64_t id, std::uint32_t tenant,
                        double epsilon = 0.3) {
  RequestMsg req;
  req.request_id = id;
  req.tenant_id = tenant;
  req.kind = 0;    // size
  req.method = 0;  // random tour
  req.flags = kReqAllowCached | kReqExplicitTarget;
  req.epsilon = epsilon;
  req.delta = 0.2;
  return req;
}

TEST(NetServer, HelloRequestResponse) {
  const Graph g = complete(16);
  EstimateNetServer server(static_graph_source(g), base_config());
  ASSERT_NE(server.port(), 0);

  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto welcome = client.hello("acme", 0);
  ASSERT_TRUE(welcome.has_value());
  EXPECT_NE(welcome->tenant_id, 0u);
  EXPECT_EQ(welcome->class_id, 0);
  EXPECT_GT(welcome->rate_per_sec, 0.0);

  auto result = client.request(size_request(1, welcome->tenant_id));
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->rejected);
  EXPECT_EQ(result->response.status, 0);  // kOk
  EXPECT_NEAR(result->response.value, 16.0, 16.0 * 0.4);
  EXPECT_GT(result->response.walks, 0u);

  // Identical repeat: served from the broker's cache.
  auto repeat = client.request(size_request(2, welcome->tenant_id));
  ASSERT_TRUE(repeat.has_value());
  ASSERT_FALSE(repeat->rejected);
  EXPECT_NE(repeat->response.flags & kRespCacheHit, 0);
  EXPECT_EQ(repeat->response.value, result->response.value);

  EXPECT_TRUE(client.ping(424242));
  // The exact counters are bumped before the server writes the reply the
  // client waited on; frames_tx/bytes_tx are bumped after each send.
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "net.hellos"), 1u);
  EXPECT_EQ(counter_value(snap, "net.requests"), 2u);
  EXPECT_EQ(counter_value(snap, "net.responses"), 2u);
  // Received: hello, two requests and the ping.
  EXPECT_EQ(counter_value(snap, "net.frames_rx"), 4u);
  EXPECT_EQ(counter_value(snap, "net.bytes_rx"), 139u);
  EXPECT_EQ(counter_value(snap, "serve.slo.gold.requests"), 2u);
  EXPECT_EQ(counter_value(snap, "serve.slo.gold.ok"), 2u);
  // Sent: welcome and two responses for sure; the 20-byte pong may trail.
  EXPECT_GE(counter_value(snap, "net.frames_tx"), 3u);
  EXPECT_GE(counter_value(snap, "net.bytes_tx"), 191u);
  EXPECT_GE(counter_value(snap, "net.connections"), 1u);
}

TEST(NetServer, UnknownTenantAndBadRequestRejected) {
  const Graph g = complete(12);
  EstimateNetServer server(static_graph_source(g), base_config());
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));

  // No Hello: refused, not crashed.
  auto result = client.request(size_request(1, 999));
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->rejected);
  EXPECT_EQ(result->reject.reason,
            static_cast<std::uint8_t>(RejectReason::kUnknownTenant));

  auto welcome = client.hello("acme", 0);
  ASSERT_TRUE(welcome.has_value());
  RequestMsg bad = size_request(2, welcome->tenant_id);
  bad.kind = 7;  // no such query kind
  auto bad_result = client.request(bad);
  ASSERT_TRUE(bad_result.has_value());
  ASSERT_TRUE(bad_result->rejected);
  EXPECT_EQ(bad_result->reject.reason,
            static_cast<std::uint8_t>(RejectReason::kBadRequest));

  RequestMsg nan_eps = size_request(3, welcome->tenant_id);
  nan_eps.epsilon = -1.0;
  auto nan_result = client.request(nan_eps);
  ASSERT_TRUE(nan_result.has_value());
  EXPECT_TRUE(nan_result->rejected);

  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "net.rejects.unknown_tenant"), 1u);
  EXPECT_EQ(counter_value(snap, "net.rejects.bad_request"), 2u);
}

TEST(NetServer, RateLimitRejectCarriesExactRetryHint) {
  const Graph g = complete(12);
  TestClock clock;
  NetServerConfig config = base_config();
  config.service.now_us = clock.fn();
  // 1 req/s, burst 1: under a frozen clock the second request must be
  // refused with the exact one-token refill time on the wire.
  config.classes = {{"strict", 0.3, 0.2, 0, 1.0, 1.0}};
  EstimateNetServer server(static_graph_source(g), config);
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto welcome = client.hello("greedy", 0);
  ASSERT_TRUE(welcome.has_value());

  auto first = client.request(size_request(1, welcome->tenant_id));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->rejected);
  auto second = client.request(size_request(2, welcome->tenant_id));
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->rejected);
  EXPECT_EQ(second->reject.reason,
            static_cast<std::uint8_t>(RejectReason::kRateLimited));
  EXPECT_EQ(second->reject.retry_after_us, 1'000'000u);

  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "net.rejects.rate_limited"), 1u);
}

TEST(NetServer, BrokerShedIsForwardedAsQueueFullReject) {
  const Graph g = complete(16);
  NetServerConfig config = base_config();
  config.service.queue_capacity = 2;
  config.max_inflight_per_conn = 64;
  EstimateNetServer server(static_graph_source(g), config);
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto welcome = client.hello("burst", 0);
  ASSERT_TRUE(welcome.has_value());

  // Freeze the broker so the EDF queue genuinely fills, then pipeline
  // more distinct uncacheable requests than it can hold.
  server.service().set_paused(true);
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    RequestMsg req = size_request(static_cast<std::uint64_t>(100 + i),
                                  welcome->tenant_id,
                                  0.30 + 0.01 * static_cast<double>(i));
    req.flags = kReqExplicitTarget;  // allow_cached off: no coalescing
    ASSERT_TRUE(client.send_request(req));
  }
  server.service().set_paused(false);

  int oks = 0;
  int queue_full = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto frame = client.read_frame(30'000);
    ASSERT_TRUE(frame.has_value()) << "reply " << i;
    if (frame->type() == FrameType::kResponse) {
      ++oks;
    } else if (frame->type() == FrameType::kReject) {
      auto reject = decode_reject(*frame);
      ASSERT_TRUE(reject.has_value());
      EXPECT_EQ(reject->reason,
                static_cast<std::uint8_t>(RejectReason::kQueueFull));
      ++queue_full;
    }
  }
  // The queue held some, shed the rest — and the shed came back as
  // first-class reject frames, not errors or hangs.
  EXPECT_GT(oks, 0);
  EXPECT_GT(queue_full, 0);
  EXPECT_EQ(oks + queue_full, kBurst);
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "net.rejects.queue_full"),
            static_cast<std::uint64_t>(queue_full));
}

// Batch loops share one broker: two identical cache-allowed requests
// queued behind the paused broker ride ONE batch, whichever loop runs it.
TEST(NetServer, IdenticalRequestsCoalesceAcrossBatchLoops) {
  const Graph g = complete(16);
  NetServerConfig config = base_config();
  config.shards = 2;
  EstimateNetServer server(static_graph_source(g), config);
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto welcome = client.hello("herd", 0);
  ASSERT_TRUE(welcome.has_value());

  const std::uint64_t batches0 =
      counter_value(server.metrics().snapshot(), "serve.batches");
  server.service().set_paused(true);
  ASSERT_TRUE(client.send_request(size_request(1, welcome->tenant_id)));
  ASSERT_TRUE(client.send_request(size_request(2, welcome->tenant_id)));
  // A miss is counted in the same critical section that decides whether
  // the request rides a pending batch, so two misses mean both requests
  // are queued or attached before the broker may pop anything.
  for (int i = 0; i < 3000 && counter_value(server.metrics().snapshot(),
                                            "serve.cache_misses") < 2;
       ++i) {
    ::usleep(1000);
  }
  ASSERT_EQ(counter_value(server.metrics().snapshot(), "serve.cache_misses"),
            2u);
  server.service().set_paused(false);

  std::vector<ResponseMsg> replies;
  for (int i = 0; i < 2; ++i) {
    auto frame = client.read_frame(30'000);
    ASSERT_TRUE(frame.has_value()) << "reply " << i;
    ASSERT_EQ(frame->type(), FrameType::kResponse);
    auto resp = decode_response(*frame);
    ASSERT_TRUE(resp.has_value());
    replies.push_back(*resp);
  }
  // Replies are FIFO per connection.
  EXPECT_EQ(replies[0].request_id, 1u);
  EXPECT_EQ(replies[1].request_id, 2u);
  EXPECT_EQ(replies[0].flags & kRespCoalesced, 0);
  EXPECT_NE(replies[1].flags & kRespCoalesced, 0);
  EXPECT_EQ(replies[1].value, replies[0].value);
  EXPECT_EQ(counter_value(server.metrics().snapshot(), "serve.batches"),
            batches0 + 1);
}

TEST(NetServer, MultiplexesTenantsOnOneConnection) {
  const Graph g = complete(16);
  EstimateNetServer server(static_graph_source(g), base_config());
  NetClient client;
  ASSERT_TRUE(client.connect(server.port()));
  auto gold = client.hello("gold-tenant", 0);
  auto bronze = client.hello("bronze-tenant", 2);
  ASSERT_TRUE(gold.has_value());
  ASSERT_TRUE(bronze.has_value());
  ASSERT_NE(gold->tenant_id, bronze->tenant_id);

  auto a = client.request(size_request(1, gold->tenant_id));
  auto b = client.request(size_request(2, bronze->tenant_id));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(a->rejected);
  EXPECT_FALSE(b->rejected);
  EXPECT_EQ(server.tenants().tenant_count(), 2u);

  // Per-tenant cost attribution rode along: both principals appear in the
  // ledger-facing SLO metrics keyed by class.
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_GE(counter_value(snap, "serve.slo.gold.ok"), 1u);
  EXPECT_GE(counter_value(snap, "serve.slo.bronze.ok"), 1u);
}

TEST(NetServer, GarbageStreamGetsErrorFrameThenClose) {
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";  // wrong protocol
  // Well framed, but the ping payload is 4 bytes instead of an 8-byte nonce.
  std::string short_ping = encode_ping(PingMsg{7});
  short_ping[8] = 4;  // low byte of the little-endian length field
  short_ping.resize(kHeaderBytes + 4);
  for (const std::string& input : {garbage, short_ping}) {
    SCOPED_TRACE(input.size());
    const Graph g = complete(12);
    EstimateNetServer server(static_graph_source(g), base_config());
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, input.data(), input.size()));

    // Expect one kError frame, then EOF.
    FrameReader reader;
    char buf[4096];
    bool got_error = false;
    bool got_eof = false;
    for (int rounds = 0; rounds < 100 && !got_eof; ++rounds) {
      const ssize_t n = recv_some(fd, buf, sizeof(buf), 200);
      if (n == kRecvTimeout) continue;
      if (n <= 0) {
        got_eof = true;
        break;
      }
      reader.append(buf, static_cast<std::size_t>(n));
      Frame frame;
      while (reader.next(frame) == DecodeStatus::kFrame) {
        if (frame.type() == FrameType::kError) got_error = true;
      }
    }
    ::close(fd);
    EXPECT_TRUE(got_error);
    EXPECT_TRUE(got_eof);
    EXPECT_GE(
        counter_value(server.metrics().snapshot(), "net.protocol_errors"), 1u);
  }
}

TEST(NetServer, ServesManyConnectionsAcrossAcceptorPool) {
  const Graph g = complete(16);
  NetServerConfig config = base_config();
  config.acceptors = 3;
  EstimateNetServer server(static_graph_source(g), config);
  // More sequential connections than acceptors: each must be served as
  // pool slots free up.
  for (int i = 0; i < 6; ++i) {
    NetClient client;
    ASSERT_TRUE(client.connect(server.port())) << "connection " << i;
    auto welcome = client.hello("conn-" + std::to_string(i), 1);
    ASSERT_TRUE(welcome.has_value());
    auto result = client.request(size_request(1, welcome->tenant_id));
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->rejected);
  }
  EXPECT_GE(counter_value(server.metrics().snapshot(), "net.connections"), 6u);
}

}  // namespace
}  // namespace overcount::net
