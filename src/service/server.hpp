// WalkServer: the always-on TCP front end over WalkService.
//
// Wiring (one process, three threads whatever the connection count):
//
//   I/O thread: one poll() loop ──► AdmissionQueue
//   over every socket    ▲               │ drain
//                        └── outbox ◄── serving thread ◄──► WalkService
//
// The I/O thread owns every socket: it accepts, reads, cuts frames, does
// the protocol work -- HELLO handshake (names the connection's admission
// class), REQUEST decode, user-id validation, enqueue -- and writes
// pending output without blocking. Structurally invalid requests (unknown
// source, record without enable_paths) are rejected BEFORE admission --
// they get admission_index kNotAdmitted and never enter the log, so the
// admission log replays cleanly. The serving thread is the only code that
// touches WalkService: it drains one DRR batch at a time
// (min_batch_requests raised to the mux width so every wave can open full
// lanes across batch boundaries), submits in admitted order, flushes, and
// encodes responses into the outbox -- it never touches a socket, so a
// client that stops reading stalls only itself. Results are therefore
// deterministic per (seed, admitted order): replay the admission log
// through the same service and every destination/path matches byte for
// byte (the server-smoke CI step asserts exactly this).
//
// Shutdown (SIGTERM/SIGINT -> request_stop, async-signal-safe): the loop
// closes the listener, stops reading and closes the queue; the serving
// thread drains what was queued and exits; the loop flushes the responses
// (a connection whose output stalls for io_timeout_ms is closed), exits,
// and join() checkpoints the service (snapshot-on-SIGTERM).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/csr_file.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/admission.hpp"
#include "service/walk_service.hpp"

namespace drw::service {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  AdmissionConfig admission;
  /// A connection is closed after this long without a byte in, or without
  /// progress on pending output.
  int io_timeout_ms = 30000;
  /// Non-empty: append one line per ADMITTED request (user id space, in
  /// admitted order) plus `# batch` boundary markers -- a file that
  /// `drw serve --requests=FILE --print-results` replays bit-identically.
  std::string admission_log;
  /// Class-name -> DRR quantum overrides, applied at start().
  std::vector<std::pair<std::string, std::uint64_t>> class_quanta;
};

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;   ///< REQUEST frames decoded
  std::uint64_t admitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_invalid = 0;  ///< pre-admission (source/paths)
  std::uint64_t batches = 0;    ///< non-empty drained batches served
};

class WalkServer {
 public:
  /// `graph` provides the user<->internal id translation of the service's
  /// network; both must outlive the server.
  WalkServer(WalkService& service, const csr::LoadedGraph& graph,
             ServerConfig config);
  ~WalkServer();
  WalkServer(const WalkServer&) = delete;
  WalkServer& operator=(const WalkServer&) = delete;

  /// Binds, applies class quanta, opens the admission log, spawns the
  /// I/O + serving threads. Throws std::runtime_error on bind/log
  /// failure. port() is valid afterwards.
  void start();
  /// Blocks until request_stop() has been honored and every thread has
  /// exited; then checkpoints the service (ServiceConfig.snapshot_path).
  void join();
  void run() {
    start();
    join();
  }

  /// Async-signal-safe: sets the stop flag and wakes the I/O loop.
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
    wake_.wake();
  }
  bool stopping() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  std::uint16_t port() const noexcept { return port_; }
  const AdmissionQueue& queue() const noexcept { return queue_; }
  ServerStats stats() const;
  /// Connections the I/O loop currently holds open.
  std::size_t open_connections() const { return open_connections_; }

 private:
  /// One client connection; the I/O thread's alone.
  struct Conn {
    net::Socket socket;
    std::uint64_t id = 0;
    std::uint32_t class_id = 0;
    bool greeted = false;  ///< HELLO handshake done
    bool closed = false;
    std::vector<std::uint8_t> in;   ///< received bytes short of a frame
    std::vector<std::uint8_t> out;  ///< frames to send; [0, sent) went
    std::size_t sent = 0;
    double last_read_ms = 0;
    double last_write_ms = 0;  ///< last output progress

    void push(const std::vector<std::uint8_t>& frame, double now) {
      if (out.empty()) last_write_ms = now;  // a stall counts from here
      out.insert(out.end(), frame.begin(), frame.end());
    }
  };

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void io_loop();
  void serve_loop();
  /// I/O thread: reads what arrived and handles each whole frame / sends
  /// what the socket takes. false = close the connection.
  bool read_from(Conn& conn, double now);
  bool handle_frame(Conn& conn, net::FrameType type,
                    const std::uint8_t* payload, std::uint32_t len,
                    double now);
  bool write_to(Conn& conn, double now);
  /// Serving thread: encodes one response into the outbox, wakes the loop.
  void respond(std::uint64_t conn_id, const net::ResponseFrame& frame);
  void count(std::uint64_t ServerStats::*field, std::uint64_t n = 1);

  WalkService& service_;
  const csr::LoadedGraph& graph_;
  ServerConfig config_;
  std::uint64_t user_node_count_ = 0;

  net::Socket listener_;
  net::WakePipe wake_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> serve_done_{false};
  AdmissionQueue queue_;

  std::vector<Conn> conns_;  ///< ascending id; I/O thread only
  std::uint64_t next_conn_id_ = 0;
  std::atomic<std::size_t> open_connections_{0};
  std::mutex outbox_mu_;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> outbox_;

  std::FILE* log_ = nullptr;  ///< admission log (serving thread only)

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  std::chrono::steady_clock::time_point epoch_;
  std::thread io_thread_;  // last: the threads use every member above
  std::thread serve_thread_;
};

}  // namespace drw::service
