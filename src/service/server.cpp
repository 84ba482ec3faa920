#include "service/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace drw::service {
namespace {

/// A request answered before admission (admission_index kNotAdmitted).
net::ResponseFrame reject_frame(std::uint64_t tag, RequestStatus status,
                                bool record) {
  net::ResponseFrame frame;
  frame.tag = tag;
  frame.status = static_cast<std::uint8_t>(status);
  frame.record = record;
  return frame;
}

}  // namespace

WalkServer::WalkServer(WalkService& service, const csr::LoadedGraph& graph,
                       ServerConfig config)
    : service_(service),
      graph_(graph),
      config_(std::move(config)),
      queue_([&] {
        AdmissionConfig a = config_.admission;
        // Lane floor: keep draining until the batch can saturate the mux
        // lanes of the next wave (unless the queue runs dry first).
        a.min_batch_requests =
            std::max<std::uint32_t>(a.min_batch_requests,
                                    service.mux_width());
        return a;
      }()),
      epoch_(std::chrono::steady_clock::now()) {
  user_node_count_ = graph_.old_to_new.empty()
                         ? graph_.graph.node_count()
                         : graph_.old_to_new.size();
}

WalkServer::~WalkServer() {
  request_stop();
  if (io_thread_.joinable() || serve_thread_.joinable()) join();
  if (log_ != nullptr) std::fclose(log_);
}

void WalkServer::start() {
  listener_ = net::tcp_listen(config_.host, config_.port);
  port_ = net::local_port(listener_);
  for (const auto& [name, quantum] : config_.class_quanta) {
    queue_.set_class_quantum(queue_.intern_class(name), quantum);
  }
  if (!config_.admission_log.empty()) {
    log_ = std::fopen(config_.admission_log.c_str(), "w");
    if (log_ == nullptr) {
      throw std::runtime_error("server: cannot open admission log " +
                               config_.admission_log);
    }
  }
  epoch_ = std::chrono::steady_clock::now();
  io_thread_ = std::thread([this] { io_loop(); });
  serve_thread_ = std::thread([this] { serve_loop(); });
}

void WalkServer::join() {
  if (serve_thread_.joinable()) serve_thread_.join();
  if (io_thread_.joinable()) io_thread_.join();
  if (log_ != nullptr) std::fflush(log_);
  // Snapshot-on-SIGTERM: persist serving state accumulated since the last
  // batch boundary (no-op without ServiceConfig.snapshot_path).
  service_.checkpoint();
}

ServerStats WalkServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void WalkServer::count(std::uint64_t ServerStats::*field, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.*field += n;
}

void WalkServer::io_loop() {
  auto& connections = obs::Registry::global().counter("server.connections");
  const double timeout = config_.io_timeout_ms;
  std::vector<pollfd> fds;
  bool draining = false;
  for (;;) {
    // Input until stop, output wherever some is pending. A negative fd is
    // skipped, so an idle socket's hangup cannot spin the draining loop.
    fds.assign({{wake_.read_fd(), POLLIN, 0}, {listener_.fd(), POLLIN, 0}});
    for (const Conn& c : conns_) {
      const short events = static_cast<short>((draining ? 0 : POLLIN) |
                                              (c.out.empty() ? 0 : POLLOUT));
      fds.push_back({events != 0 ? c.socket.fd() : -1, events, 0});
    }
    ::poll(fds.data(), fds.size(), /*timeout_ms=*/250);
    const double now = now_ms();
    char wakes[256];
    while (::read(wake_.read_fd(), wakes, sizeof wakes) > 0) {
    }
    if (!draining && stopping()) {
      // Accept and read nothing more; the serving thread drains what is
      // queued, and the loop stays up to deliver it.
      draining = true;
      listener_.close();
      queue_.close();
    }
    const bool served = serve_done_.load(std::memory_order_acquire);
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> ready;
    {
      std::lock_guard<std::mutex> lock(outbox_mu_);
      ready.swap(outbox_);
    }
    for (const auto& [id, frame] : ready) {
      const auto it = std::lower_bound(
          conns_.begin(), conns_.end(), id,
          [](const Conn& c, std::uint64_t want) { return c.id < want; });
      // A closed connection's response is dropped; the batch result stands.
      if (it != conns_.end() && it->id == id) it->push(frame, now);
    }

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      const bool readable =
          !draining && (fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR));
      c.closed = (readable && !read_from(c, now)) ||
                 (!c.out.empty() && !write_to(c, now)) ||
                 (!draining && now - c.last_read_ms > timeout) ||
                 (!c.out.empty() && now - c.last_write_ms > timeout);
      if (c.closed) queue_.release_flow(c.id);
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const Conn& c) { return c.closed; }),
                 conns_.end());
    if (!draining && (fds[1].revents & POLLIN)) {
      for (net::Socket s; (s = net::accept_one(listener_, 0)).valid();) {
        connections.add(1);
        count(&ServerStats::connections);
        Conn& c = conns_.emplace_back();
        c.socket = std::move(s);
        c.id = next_conn_id_++;
        c.last_read_ms = c.last_write_ms = now;
      }
    }
    open_connections_ = conns_.size();
    if (draining && served &&
        std::all_of(conns_.begin(), conns_.end(),
                    [](const Conn& c) { return c.out.empty(); })) {
      break;
    }
  }
  for (const Conn& c : conns_) queue_.release_flow(c.id);
  conns_.clear();
  open_connections_ = 0;
}

bool WalkServer::write_to(Conn& conn, double now) {
  const long sent = net::send_some(conn.socket, conn.out.data() + conn.sent,
                                   conn.out.size() - conn.sent);
  if (sent <= 0) return sent == 0;  // 0: the socket buffer is full
  conn.last_write_ms = now;
  conn.sent += static_cast<std::size_t>(sent);
  if (2 * conn.sent >= conn.out.size()) {  // amortized O(1) per byte
    conn.out.erase(conn.out.begin(), conn.out.begin() + conn.sent);
    conn.sent = 0;
  }
  return true;
}

bool WalkServer::read_from(Conn& conn, double now) {
  std::uint8_t buf[64 << 10];
  const long got = net::recv_some(conn.socket, buf, sizeof buf);
  if (got <= 0) return got == 0;  // -1: EOF, reset, or an injected fault
  conn.last_read_ms = now;
  conn.in.insert(conn.in.end(), buf, buf + got);
  std::size_t at = 0;
  net::FrameType type{};
  std::uint32_t len = 0;
  while (conn.in.size() - at >= net::kFrameHeaderSize) {
    if (!net::parse_frame_header(conn.in.data() + at, &type, &len)) {
      return false;
    }
    const std::size_t end = at + net::kFrameHeaderSize + len;
    if (end > conn.in.size()) break;  // the rest is still in flight
    if (!handle_frame(conn, type, conn.in.data() + end - len, len, now)) {
      return false;
    }
    at = end;
  }
  conn.in.erase(conn.in.begin(), conn.in.begin() + at);
  return true;
}

bool WalkServer::handle_frame(Conn& conn, net::FrameType type,
                              const std::uint8_t* payload, std::uint32_t len,
                              double now) {
  if (!conn.greeted) {
    // HELLO handshake first: names the admission class, checks the version.
    const auto hello = type == net::FrameType::kHello
                           ? net::decode_hello(payload, len)
                           : std::nullopt;
    if (!hello || hello->version != net::kProtocolVersion) return false;
    conn.class_id = queue_.intern_class(hello->klass);
    conn.greeted = true;
    net::HelloFrame reply;  // version: kProtocolVersion
    reply.node_count = user_node_count_;
    conn.push(net::frame_bytes(net::FrameType::kHello,
                               net::encode_hello(reply)),
              now);
    return true;
  }
  const auto req = type == net::FrameType::kRequest
                       ? net::decode_request(payload, len)
                       : std::nullopt;
  if (!req) return false;  // protocol violation
  count(&ServerStats::requests);

  // Pre-admission validation: structural rejects never enter the
  // admission log, so the log replays without them.
  const NodeId internal =
      req->source <= std::uint64_t{kInvalidNode}
          ? graph_.to_internal(static_cast<NodeId>(req->source))
          : kInvalidNode;
  RequestStatus reject =
      internal == kInvalidNode ? RequestStatus::kSourceOutOfRange
      : req->record && !service_.config().enable_paths
          ? RequestStatus::kPathsDisabled
          : RequestStatus::kOk;
  if (reject == RequestStatus::kOk) {
    const RequestStatus st = queue_.enqueue(PendingRequest{
        .request = {internal, req->length, req->count, req->record},
        .user_source = req->source,
        .flow = conn.id,
        .tag = req->tag,
        .class_id = conn.class_id,
        .arrival_ms = now,
        .deadline_ms = req->deadline_ms});
    if (st == RequestStatus::kOk) return true;
    reject = st;
  }

  const bool full = reject == RequestStatus::kQueueFull;
  count(full ? &ServerStats::rejected_queue_full
             : &ServerStats::rejected_invalid);
  obs::Registry::global()
      .counter(full ? "server.rejected.queue_full" : "server.rejected.invalid")
      .add(1);
  conn.push(net::frame_bytes(net::FrameType::kResponse,
                             net::encode_response(reject_frame(
                                 req->tag, reject, req->record))),
            now);
  return true;
}

void WalkServer::respond(std::uint64_t conn_id,
                         const net::ResponseFrame& frame) {
  {
    obs::Span span(obs::Name::kServerRespond, obs::kPidServer, 0,
                   frame.admission_index);
    std::vector<std::uint8_t> bytes = net::frame_bytes(
        net::FrameType::kResponse, net::encode_response(frame));
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_.emplace_back(conn_id, std::move(bytes));
  }
  wake_.wake();
}

void WalkServer::serve_loop() {
  auto& registry = obs::Registry::global();
  auto& depth_gauge = registry.gauge("server.queue_depth");
  auto& admitted_counter = registry.counter("server.admitted");
  auto& deadline_counter = registry.counter("server.rejected.deadline");

  while (queue_.wait_for_work()) {
    std::vector<AdmissionReject> rejects;
    std::vector<PendingRequest> batch = queue_.drain(now_ms(), &rejects);
    depth_gauge.set(static_cast<double>(queue_.depth()));

    for (const AdmissionReject& rej : rejects) {
      deadline_counter.add(1);
      count(&ServerStats::rejected_deadline);
      respond(rej.request.flow,
              reject_frame(rej.request.tag, rej.status,
                           rej.request.request.record_positions));
    }
    if (batch.empty()) continue;

    obs::Span drain_span(obs::Name::kServerDrain, obs::kPidServer, 0,
                         batch.size());
    for (const PendingRequest& p : batch) {
      service_.submit(p.request);
      if (log_ != nullptr) {
        std::fprintf(log_, "%llu %llu %u %u\n",
                     static_cast<unsigned long long>(p.user_source),
                     static_cast<unsigned long long>(p.request.length),
                     p.request.count, p.request.record_positions ? 1 : 0);
      }
    }
    if (log_ != nullptr) {
      std::fprintf(log_, "# batch\n");
      std::fflush(log_);
    }
    const BatchReport report = service_.flush();
    admitted_counter.add(batch.size());
    count(&ServerStats::admitted, batch.size());
    count(&ServerStats::batches);

    const double done_ms = now_ms();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const PendingRequest& p = batch[i];
      const RequestResult& r = report.results[i];
      net::ResponseFrame frame;
      frame.tag = p.tag;
      frame.admission_index = p.admission_index;
      frame.status = static_cast<std::uint8_t>(r.status);
      frame.record = p.request.record_positions;
      frame.destinations.reserve(r.destinations.size());
      for (NodeId d : r.destinations) {
        frame.destinations.push_back(graph_.to_user(d));
      }
      frame.paths.reserve(r.paths.size());
      for (const auto& path : r.paths) {
        std::vector<std::uint32_t> user_path;
        user_path.reserve(path.size());
        for (NodeId node : path) user_path.push_back(graph_.to_user(node));
        frame.paths.push_back(std::move(user_path));
      }
      respond(p.flow, frame);
      const double sojourn = std::max(0.0, done_ms - p.arrival_ms);
      registry
          .histogram("server.latency_ms." + queue_.class_name(p.class_id))
          .record(static_cast<std::uint64_t>(sojourn));
    }
  }
  // The I/O loop flushes the outbox, then exits.
  serve_done_.store(true, std::memory_order_release);
  wake_.wake();
}

}  // namespace drw::service
