// Streaming admission in front of WalkService: the queue between the
// network front end and the batch engine.
//
// The serving problem (Das Sarma et al. serve many concurrent walk
// requests; arXiv:1201.1363 motivates heterogeneous request mixes): a
// skewed hot-key flood -- one client hammering big requests at one source
// -- must not starve light requests queued behind it. FIFO admission does
// exactly that: a light request arriving after a flood burst waits for
// the whole backlog. AdmissionQueue instead drains by deficit round-robin
// (DRR) over flows (one flow per client connection):
//
//   * each flow carries a deficit in COST units (cost of a request =
//     max(1, count) * max(1, length), the walk-step work it buys);
//   * every drain cycle credits each backlogged flow its class quantum;
//     a flow admits queued requests while its head's cost fits the
//     deficit. Per-class quanta are the "per-class byte/count deficits":
//     a light class with a large quantum admits its whole burst per
//     cycle, a flood class with a small quantum trickles;
//   * an empty flow's deficit resets to 0 (classic DRR: credit never
//     accrues while idle), so a returning flow cannot burst on hoarded
//     credit;
//   * the drain stops once the batch reaches max_batch_cost cost units
//     AND min_batch_requests requests (the lane floor: the serving loop
//     sets it to the mux width so every wave can saturate its lanes).
//     Deficits grow cycle over cycle, so a request costlier than one
//     quantum still admits -- after proportionally many cycles.
//
// Fairness guarantee: while both classes are backlogged, every batch
// grants each flow at least one quantum of cost per drain cycle, and the
// batch cost cap bounds the wall time a light request can wait behind
// flood work -- its sojourn is O(residual batch + its own batch), not
// O(flood backlog). bench_serve_latency gates the resulting p99 ratio.
//
// Over-cap arrivals are rejected immediately with kQueueFull; requests
// whose deadline passes while queued are rejected at drain time with
// kDeadlineExceeded (both from the PR 7 structured RequestStatus path --
// rejection is data, never a throw). The clock is injected (now_ms
// parameters), so deadline behavior is deterministic in tests.
//
// Thread safety: every method is safe to call concurrently (the server's
// I/O thread enqueues; one serving thread drains).
// Determinism: the admitted order is a pure function of the queue
// contents -- flows cycle in ascending flow id, FIFO within a flow, so a
// logged admitted order replays bit-identically (see tools/drw request
// and the server-smoke CI step).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/walk_request.hpp"

namespace drw::service {

enum class AdmissionPolicy : std::uint8_t {
  kDrr,   ///< deficit round-robin over flows (the fair default)
  kFifo,  ///< strict global arrival order (the unfair baseline)
};

struct AdmissionConfig {
  /// Max requests queued across all flows; arrivals beyond it bounce with
  /// kQueueFull.
  std::size_t queue_cap = 4096;
  /// Default per-flow cost quantum credited per drain cycle (classes can
  /// override via set_class_quantum).
  std::uint64_t quantum = 2048;
  /// Cost target of one drained batch (the knob bounding light-request
  /// sojourn under flood; see header comment).
  std::uint64_t max_batch_cost = 8192;
  /// Keep draining until the batch has at least this many requests (when
  /// available): the cross-batch lane floor, set to the mux width so the
  /// next wave opens with full lanes.
  std::uint32_t min_batch_requests = 1;
  AdmissionPolicy policy = AdmissionPolicy::kDrr;
};

/// The service cost a request buys: its total walk steps (floored at one
/// unit so zero-length/zero-count requests still move through the queue).
/// Saturating: count and length come straight off the wire, so the product
/// must not wrap to a tiny cost and bypass DRR accounting. enqueue()
/// additionally clamps the stored cost to max_batch_cost (a request that
/// costs the whole batch budget fills a batch by itself; anything beyond
/// that only adds drain cycles).
inline std::uint64_t request_cost(const WalkRequest& r) {
  const std::uint64_t count = std::max<std::uint64_t>(1, r.count);
  const std::uint64_t length = std::max<std::uint64_t>(1, r.length);
  if (count > std::numeric_limits<std::uint64_t>::max() / length) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return count * length;
}

/// One queued (or admitted) request with its admission identity.
struct PendingRequest {
  WalkRequest request;        ///< internal id space
  std::uint64_t user_source = 0;  ///< as the client sent it (log/response)
  std::uint64_t flow = 0;     ///< connection id
  std::uint64_t tag = 0;      ///< client correlation tag
  std::uint32_t class_id = 0;
  double arrival_ms = 0.0;
  std::uint32_t deadline_ms = 0;  ///< relative to arrival; 0 = none
  std::uint64_t cost = 0;         ///< request_cost(), filled by enqueue
  std::uint64_t seq = 0;          ///< global arrival sequence
  std::uint64_t admission_index = 0;  ///< global admitted position (drain)
};

struct AdmissionReject {
  PendingRequest request;
  RequestStatus status = RequestStatus::kQueueFull;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionConfig config = {});

  /// Interns a class name (idempotent); returns its id. Id 0 is the
  /// pre-interned "default" class with config.quantum.
  std::uint32_t intern_class(const std::string& name);
  void set_class_quantum(std::uint32_t class_id, std::uint64_t quantum);
  /// By value: concurrent intern_class calls may reallocate the name table.
  std::string class_name(std::uint32_t class_id) const;

  /// kOk: queued. kQueueFull: rejected, nothing retained -- the caller
  /// responds immediately. Fills req.cost and req.seq.
  RequestStatus enqueue(PendingRequest req);

  /// Blocks until the queue is non-empty or closed. Returns false only
  /// when closed AND fully drained (the serving loop's exit condition).
  bool wait_for_work();

  /// Drains one batch per the configured policy (non-blocking; may return
  /// empty). Requests whose deadline has passed by `now_ms` are expired
  /// into `rejects` (never admitted, never indexed). Admitted requests get
  /// consecutive admission_index values in admitted order.
  std::vector<PendingRequest> drain(double now_ms,
                                    std::vector<AdmissionReject>* rejects);

  /// No further enqueues succeed (kQueueFull); wakes waiters. Queued
  /// requests remain drainable so a clean shutdown can serve them.
  void close();

  /// The connection behind `flow` is gone: drop its DRR state. An empty
  /// flow is erased immediately; a backlogged one is marked orphaned and
  /// erased by drain() once served (its queued requests still flow through
  /// admission in order, keeping the admitted-order log replayable).
  void release_flow(std::uint64_t flow);

  std::size_t depth() const;
  std::uint64_t admitted_total() const;
  /// Flows currently tracked (live connections + orphans awaiting drain).
  std::size_t flow_count() const;
  const AdmissionConfig& config() const { return config_; }

 private:
  struct Flow {
    std::deque<PendingRequest> queue;
    std::uint64_t deficit = 0;
    std::uint32_t class_id = 0;
    bool orphaned = false;  ///< connection gone; erase once drained
  };

  std::uint64_t quantum_of(const Flow& flow) const {
    return class_quanta_[flow.class_id];
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  AdmissionConfig config_;
  std::map<std::uint64_t, Flow> flows_;  ///< ascending flow id = DRR order
  std::vector<std::string> class_names_;
  std::vector<std::uint64_t> class_quanta_;
  std::size_t depth_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_admission_index_ = 0;
  bool closed_ = false;
};

}  // namespace drw::service
