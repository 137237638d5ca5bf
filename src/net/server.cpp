#include "net/server.hpp"

#include <unistd.h>

#include <array>
#include <chrono>
#include <stdexcept>

#include "net/socket.hpp"
#include "obs/trace.hpp"

namespace overcount::net {
namespace {

constexpr int kAcceptPollMs = 100;
constexpr int kRecvPollMs = 100;
constexpr int kTransientBackoffMs = 10;

}  // namespace

/// Resolved handles for the net.* family, looked up once at construction so
/// the request path never takes the registry's name-lookup mutex. Per-class
/// latency and outcomes live in the server's SloLedger (serve.slo.<class>.*).
struct EstimateNetServer::Metrics {
  Counter& connections;
  Counter& accept_transient;
  Counter& bytes_rx;
  Counter& bytes_tx;
  Counter& frames_rx;
  Counter& frames_tx;
  Counter& protocol_errors;
  Counter& hellos;
  Counter& requests;
  Counter& responses;
  Gauge& conn_active;
  Gauge& tenants;
  /// net.rejects.<reason>, indexed by the RejectReason wire value (1..6).
  std::array<Counter*, 7> rejects{};

  explicit Metrics(MetricsRegistry& r)
      : connections(r.counter("net.connections")),
        accept_transient(r.counter("net.accept_transient")),
        bytes_rx(r.counter("net.bytes_rx")),
        bytes_tx(r.counter("net.bytes_tx")),
        frames_rx(r.counter("net.frames_rx")),
        frames_tx(r.counter("net.frames_tx")),
        protocol_errors(r.counter("net.protocol_errors")),
        hellos(r.counter("net.hellos")),
        requests(r.counter("net.requests")),
        responses(r.counter("net.responses")),
        conn_active(r.gauge("net.conn_active")),
        tenants(r.gauge("net.tenants")) {
    for (std::size_t i = 1; i < rejects.size(); ++i) {
      rejects[i] = &r.counter(std::string("net.rejects.") +
                              to_string(static_cast<RejectReason>(i)));
    }
  }

  Counter& reject(RejectReason reason) {
    return *rejects[static_cast<std::size_t>(reason)];
  }
};

EstimateNetServer::EstimateNetServer(GraphSource source,
                                     NetServerConfig config)
    : config_(std::move(config)),
      owned_metrics_(config_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : owned_metrics_.get()),
      m_(std::make_unique<Metrics>(*metrics_)),
      tenants_(config_.classes.empty() ? default_slo_classes()
                                       : config_.classes,
               config_.drr),
      slo_(metrics_, nullptr, config_.slo),
      epoch_(std::chrono::steady_clock::now()) {
  if (config_.acceptors == 0) config_.acceptors = 1;
  if (config_.shards == 0) config_.shards = 1;
  if (config_.max_inflight_per_conn == 0) config_.max_inflight_per_conn = 1;

  listen_fd_ = listen_loopback(config_.port,
                               static_cast<int>(config_.acceptors) * 16);
  if (listen_fd_ < 0) {
    throw std::runtime_error("EstimateNetServer: cannot bind loopback port");
  }
  port_ = bound_port(listen_fd_);

  ServiceConfig shard_config = config_.service;
  shard_config.metrics = metrics_;  // all shards merge into one registry.
  for (unsigned i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<EstimateService>(source, shard_config));
  }

  acceptors_.reserve(config_.acceptors);
  for (unsigned i = 0; i < config_.acceptors; ++i) {
    acceptors_.emplace_back([this] { accept_loop(); });
  }
}

EstimateNetServer::~EstimateNetServer() { stop(); }

std::uint64_t EstimateNetServer::now_us() const {
  if (config_.service.now_us) return config_.service.now_us();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void EstimateNetServer::stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  for (auto& t : acceptors_) {
    if (t.joinable()) t.join();
  }
  acceptors_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Shards stop AFTER the handlers drained their in-flight futures, so
  // every admitted request still resolves normally during shutdown.
  for (auto& s : shards_) s->stop();
}

void EstimateNetServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const AcceptResult res = accept_next(listen_fd_, kAcceptPollMs);
    switch (res.status) {
      case AcceptStatus::kAccepted: {
        m_->connections.inc();
        m_->conn_active.add(1.0);
        TraceSpan span("net", "net.connection");
        handle_connection(res.fd);
        ::close(res.fd);
        m_->conn_active.add(-1.0);
        break;
      }
      case AcceptStatus::kTimeout:
        break;
      case AcceptStatus::kTransient:
        // fd exhaustion: the pending connection stays queued in the
        // kernel; back off instead of spinning on EMFILE.
        m_->accept_transient.inc();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kTransientBackoffMs));
        break;
      case AcceptStatus::kClosed:
        return;
    }
  }
}

void EstimateNetServer::handle_connection(int fd) {
  FrameReader reader;
  std::deque<PendingReply> inflight;
  char buf[16 * 1024];
  bool alive = true;
  while (alive && !stopping_.load(std::memory_order_relaxed)) {
    // Opportunistically flush responses that are already done, in FIFO
    // order so the wire order matches the submission order.
    while (!inflight.empty() &&
           inflight.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      if (!write_reply(fd, inflight.front())) {
        alive = false;
        break;
      }
      inflight.pop_front();
    }
    if (!alive) break;
    if (inflight.size() >= config_.max_inflight_per_conn) {
      // Window full: block on the oldest response before reading more.
      if (!write_reply(fd, inflight.front())) break;
      inflight.pop_front();
      continue;
    }
    // With replies pending, poll at 1 ms so a ready front future reaches a
    // blocked client promptly (a window-limited client sends nothing while
    // it waits, so a long recv timeout would add its full length to every
    // pipelined round trip). The long poll is only for idle connections.
    const int poll_ms = inflight.empty() ? kRecvPollMs : 1;
    const ssize_t n = recv_some(fd, buf, sizeof(buf), poll_ms);
    if (n == kRecvTimeout) continue;
    if (n <= 0) break;  // EOF or hard error.
    m_->bytes_rx.add(static_cast<std::uint64_t>(n));
    reader.append(buf, static_cast<std::size_t>(n));
    Frame frame;
    std::string error;
    for (;;) {
      const DecodeStatus st = reader.next(frame, &error);
      if (st == DecodeStatus::kNeedMore) break;
      if (st == DecodeStatus::kError) {
        m_->protocol_errors.inc();
        trace_instant("net", "net.protocol_error");
        send_frame(fd, encode_error({kErrBadFrame, error}));
        alive = false;
        break;
      }
      m_->frames_rx.inc();
      if (!handle_frame(fd, frame, inflight)) {
        alive = false;
        break;
      }
    }
  }
  // Drain whatever is still in flight so admitted requests get answers
  // even on shutdown (shards are stopped only after handlers exit).
  while (!inflight.empty()) {
    if (!write_reply(fd, inflight.front())) break;
    inflight.pop_front();
  }
}

bool EstimateNetServer::handle_frame(int fd, const Frame& frame,
                                     std::deque<PendingReply>& inflight) {
  switch (frame.type()) {
    case FrameType::kHello: {
      auto msg = decode_hello(frame);
      if (!msg) {
        m_->protocol_errors.inc();
        send_frame(fd, encode_error({kErrBadHello, "malformed hello"}));
        return false;
      }
      const std::uint32_t id = tenants_.hello(msg->tenant, msg->class_id,
                                              now_us());
      if (id == 0) {
        send_frame(fd, encode_error({kErrBadHello, "unknown class"}));
        return false;
      }
      m_->hellos.inc();
      m_->tenants.set(static_cast<double>(tenants_.tenant_count()));
      const SloClassSpec& spec = tenants_.classes()[msg->class_id];
      WelcomeMsg welcome;
      welcome.tenant_id = id;
      welcome.class_id = msg->class_id;
      welcome.epsilon = spec.epsilon;
      welcome.delta = spec.delta;
      welcome.deadline_us = spec.deadline_us;
      welcome.rate_per_sec = spec.rate_per_sec;
      welcome.burst = spec.burst;
      return send_frame(fd, encode_welcome(welcome));
    }
    case FrameType::kRequest:
      return handle_request(fd, frame, inflight);
    case FrameType::kPing: {
      auto msg = decode_ping(frame);
      if (!msg) {
        m_->protocol_errors.inc();
        send_frame(fd, encode_error({kErrBadFrame, "malformed ping"}));
        return false;
      }
      return send_frame(fd, encode_ping(*msg, /*pong=*/true));
    }
    default:
      // kWelcome/kResponse/kReject/kError/kPong are server->client only.
      m_->protocol_errors.inc();
      send_frame(fd,
                 encode_error({kErrUnexpectedType, "unexpected frame type"}));
      return false;
  }
}

bool EstimateNetServer::handle_request(int fd, const Frame& frame,
                                       std::deque<PendingReply>& inflight) {
  auto msg = decode_request(frame);
  if (!msg) {
    m_->protocol_errors.inc();
    send_frame(fd, encode_error({kErrBadFrame, "malformed request"}));
    return false;
  }
  m_->requests.inc();
  const SloClassSpec* spec = tenants_.spec_for(msg->tenant_id);
  if (spec == nullptr) {
    return send_reject(fd, msg->request_id, RejectReason::kUnknownTenant, 0,
                       "unregistered");
  }
  TraceSpan span("net", "net.request", "tenant", msg->tenant_id);

  if (stopping_.load(std::memory_order_relaxed)) {
    return send_reject(fd, msg->request_id, RejectReason::kShuttingDown,
                       100'000, spec->name);
  }
  if (msg->kind > 1 || msg->method > 1) {
    return send_reject(fd, msg->request_id, RejectReason::kBadRequest, 0,
                       spec->name);
  }
  double epsilon = spec->epsilon;
  double delta = spec->delta;
  if ((msg->flags & kReqExplicitTarget) != 0) {
    epsilon = msg->epsilon;
    delta = msg->delta;
    if (!(epsilon > 0.0 && epsilon < 1.0) || !(delta > 0.0 && delta < 1.0)) {
      return send_reject(fd, msg->request_id, RejectReason::kBadRequest, 0,
                         spec->name);
    }
  }

  // Round-robin shard choice first: saturation (and thus fair share) is
  // judged against the queue the request would actually land on.
  EstimateService& shard =
      *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
               shards_.size()];
  const bool saturated =
      shard.queue_depth() >=
      static_cast<std::size_t>(config_.saturation_fraction *
                               static_cast<double>(shard.queue_capacity()));
  const AdmitDecision decision =
      tenants_.admit(msg->tenant_id, now_us(), saturated);
  switch (decision.result) {
    case AdmitResult::kAdmit:
      break;
    case AdmitResult::kUnknownTenant:
      return send_reject(fd, msg->request_id, RejectReason::kUnknownTenant, 0,
                         spec->name);
    case AdmitResult::kRateLimited:
      return send_reject(fd, msg->request_id, RejectReason::kRateLimited,
                         decision.retry_after_us, spec->name);
    case AdmitResult::kFairShare:
      return send_reject(fd, msg->request_id, RejectReason::kFairShare,
                         decision.retry_after_us, spec->name);
  }

  EstimateRequest req;
  req.kind = static_cast<QueryKind>(msg->kind);
  req.method = static_cast<EstimateMethod>(msg->method);
  req.epsilon = epsilon;
  req.delta = delta;
  req.allow_cached = (msg->flags & kReqAllowCached) != 0;
  req.tenant = tenants_.name_for(msg->tenant_id);
  std::uint64_t deadline_rel = spec->deadline_us;
  if ((msg->flags & kReqHasDeadline) != 0) deadline_rel = msg->deadline_rel_us;
  // Deadlines travel relative on the wire and become absolute on the
  // clock of the shard that will enforce them.
  req.deadline_us =
      deadline_rel == 0 ? kNoDeadline : shard.now_us() + deadline_rel;

  PendingReply pending;
  pending.request_id = msg->request_id;
  // spec_for points into the class table, so the offset is the class id.
  pending.cls = static_cast<std::size_t>(spec - tenants_.classes().data());
  pending.t0_us = now_us();
  pending.future = shard.submit(req);
  inflight.push_back(std::move(pending));
  return true;
}

bool EstimateNetServer::write_reply(int fd, PendingReply& pending) {
  const EstimateResponse resp = pending.future.get();
  const std::uint64_t latency =
      now_us() > pending.t0_us ? now_us() - pending.t0_us : 0;
  slo_.record(tenants_.classes()[pending.cls].name, slo_outcome(resp.status),
              latency);
  if (resp.status == ServeStatus::kRejected) {
    // The broker load-shed after admission (queue full / step budget):
    // forward its retry hint onto the wire as a first-class reject frame.
    m_->reject(RejectReason::kQueueFull).inc();
    RejectMsg reject;
    reject.request_id = pending.request_id;
    reject.reason = static_cast<std::uint8_t>(RejectReason::kQueueFull);
    reject.retry_after_us = resp.retry_after_us;
    return send_frame(fd, encode_reject(reject));
  }
  m_->responses.inc();
  ResponseMsg out;
  out.request_id = pending.request_id;
  out.status = static_cast<std::uint8_t>(resp.status);
  out.flags = static_cast<std::uint16_t>(
      (resp.cache_hit ? kRespCacheHit : 0) |
      (resp.coalesced ? kRespCoalesced : 0));
  out.value = resp.value;
  out.epsilon = resp.epsilon;
  out.walks = resp.walks;
  out.graph_version = resp.graph_version;
  out.age_us = resp.age_us;
  out.latency_us = resp.latency_us;
  out.retry_after_us = resp.retry_after_us;
  return send_frame(fd, encode_response(out));
}

bool EstimateNetServer::send_reject(int fd, std::uint64_t request_id,
                                    RejectReason reason,
                                    std::uint64_t retry_after_us,
                                    std::string_view cls) {
  m_->reject(reason).inc();
  slo_.record(cls, SloOutcome::kRejected, 0);
  trace_instant("net", "net.reject", "retry_after_us", retry_after_us);
  RejectMsg reject;
  reject.request_id = request_id;
  reject.reason = static_cast<std::uint8_t>(reason);
  reject.retry_after_us = retry_after_us;
  return send_frame(fd, encode_reject(reject));
}

bool EstimateNetServer::send_frame(int fd, const std::string& frame) {
  if (!send_all(fd, frame.data(), frame.size())) return false;
  m_->frames_tx.inc();
  m_->bytes_tx.add(frame.size());
  return true;
}

}  // namespace overcount::net
