#include "service/server.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace drw::service {
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
  if (accept_thread_.joinable() || serve_thread_.joinable()) join();
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
  accept_thread_ = std::thread([this] { accept_loop(); });
  serve_thread_ = std::thread([this] { serve_loop(); });
}

void WalkServer::join() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // Accepting has stopped. Wake every reader (a blocked recv sees EOF via
  // SHUT_RD), join them, then close the queue so the serving thread can
  // drain the remainder and exit.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->socket.shutdown_read();
  }
  for (;;) {
    Conn* pending = nullptr;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& conn : conns_) {
        if (conn->reader.joinable()) {
          pending = conn.get();
          break;
        }
      }
    }
    if (pending == nullptr) break;
    pending->reader.join();
  }
  queue_.close();
  if (serve_thread_.joinable()) serve_thread_.join();
  if (log_ != nullptr) {
    std::fflush(log_);
  }
  // Snapshot-on-SIGTERM: persist serving state accumulated since the last
  // batch boundary (no-op without ServiceConfig.snapshot_path).
  service_.checkpoint();
}

ServerStats WalkServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::size_t WalkServer::open_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void WalkServer::accept_loop() {
  auto& connections = obs::Registry::global().counter("server.connections");
  while (!stopping()) {
    net::Socket sock =
        net::accept_one(listener_, wake_.read_fd(), /*timeout_ms=*/250);
    reap_connections();
    if (stopping()) break;
    if (!sock.valid()) continue;
    connections.add(1);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections;
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(sock);
    conn->id = next_conn_id_++;
    Conn* raw = conn.get();
    conns_.push_back(std::move(conn));
    raw->reader = std::thread([this, raw] { reader_loop(raw); });
  }
}

void WalkServer::reap_connections() {
  // Collect under the lock, tear down outside it: readers call respond(),
  // which takes conns_mu_, so joining a reader under conns_mu_ deadlocks.
  std::vector<std::shared_ptr<Conn>> dead;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      if ((*it)->dead.load(std::memory_order_relaxed)) {
        dead.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : dead) {
    // A writer-marked-dead connection may still have its reader parked in
    // poll(POLLIN); shutdown makes that recv return EOF immediately.
    conn->socket.shutdown_both();
    if (conn->reader.joinable()) conn->reader.join();
    queue_.release_flow(conn->id);
    // The socket fd closes when the last shared_ptr (possibly one pinned
    // by an in-flight respond()) drops.
  }
}

void WalkServer::reader_loop(Conn* conn) {
  net::FrameType type{};
  std::vector<std::uint8_t> payload;
  // HELLO handshake first: names the admission class, checks the version.
  if (!net::read_frame(conn->socket, &type, &payload,
                       config_.io_timeout_ms) ||
      type != net::FrameType::kHello) {
    conn->dead.store(true, std::memory_order_relaxed);
    return;
  }
  const auto hello = net::decode_hello(payload.data(), payload.size());
  if (!hello || hello->version != net::kProtocolVersion) {
    conn->dead.store(true, std::memory_order_relaxed);
    return;
  }
  conn->class_id = queue_.intern_class(hello->klass);
  {
    net::HelloFrame reply;
    reply.version = net::kProtocolVersion;
    reply.node_count = user_node_count_;
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (!net::write_frame(conn->socket, net::FrameType::kHello,
                          net::encode_hello(reply), config_.io_timeout_ms)) {
      conn->dead.store(true, std::memory_order_relaxed);
      return;
    }
  }

  while (!stopping()) {
    if (!net::read_frame(conn->socket, &type, &payload,
                         config_.io_timeout_ms) ||
        type != net::FrameType::kRequest) {
      break;  // EOF, timeout, torn frame, or protocol violation
    }
    const auto req = net::decode_request(payload.data(), payload.size());
    if (!req) break;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests;
    }

    // Pre-admission validation: structural rejects never enter the
    // admission log, so the log replays without them.
    const NodeId internal =
        req->source <= std::uint64_t{kInvalidNode}
            ? graph_.to_internal(static_cast<NodeId>(req->source))
            : kInvalidNode;
    RequestStatus reject = RequestStatus::kOk;
    if (internal == kInvalidNode) {
      reject = RequestStatus::kSourceOutOfRange;
    } else if (req->record && !service_.config().enable_paths) {
      reject = RequestStatus::kPathsDisabled;
    }
    if (reject == RequestStatus::kOk) {
      PendingRequest pending;
      pending.request.source = internal;
      pending.request.length = req->length;
      pending.request.count = req->count;
      pending.request.record_positions = req->record;
      pending.user_source = req->source;
      pending.flow = conn->id;
      pending.tag = req->tag;
      pending.class_id = conn->class_id;
      pending.arrival_ms = now_ms();
      pending.deadline_ms = req->deadline_ms;
      const RequestStatus st = queue_.enqueue(std::move(pending));
      if (st == RequestStatus::kOk) continue;
      reject = st;
    }

    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (reject == RequestStatus::kQueueFull) {
        ++stats_.rejected_queue_full;
      } else {
        ++stats_.rejected_invalid;
      }
    }
    obs::Registry::global()
        .counter(reject == RequestStatus::kQueueFull
                     ? "server.rejected.queue_full"
                     : "server.rejected.invalid")
        .add(1);
    respond(conn->id, reject_frame(req->tag, reject, req->record));
  }
  conn->dead.store(true, std::memory_order_relaxed);
}

net::ResponseFrame WalkServer::reject_frame(std::uint64_t tag,
                                            RequestStatus status,
                                            bool record) const {
  net::ResponseFrame frame;
  frame.tag = tag;
  frame.admission_index = net::kNotAdmitted;
  frame.status = static_cast<std::uint8_t>(status);
  frame.record = record;
  return frame;
}

void WalkServer::respond(std::uint64_t conn_id,
                         const net::ResponseFrame& frame) {
  std::shared_ptr<Conn> conn;  // pins the Conn past a concurrent reap
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& c : conns_) {
      if (c->id == conn_id) {
        conn = c;
        break;
      }
    }
  }
  if (conn == nullptr || conn->dead.load(std::memory_order_relaxed)) return;
  obs::Span span(obs::Name::kServerRespond, obs::kPidServer, 0,
                 frame.admission_index);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!net::write_frame(conn->socket, net::FrameType::kResponse,
                        net::encode_response(frame),
                        config_.io_timeout_ms)) {
    // The client is gone or the link is torn; the connection is done but
    // the batch result stands (deterministic replay is unaffected).
    conn->dead.store(true, std::memory_order_relaxed);
    conn->socket.shutdown_both();
  }
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
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.rejected_deadline;
      }
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
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.admitted += batch.size();
      ++stats_.batches;
    }

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
}

}  // namespace drw::service
