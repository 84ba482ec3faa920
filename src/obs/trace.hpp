#pragma once
// drw::obs tracing -- per-round / per-shard / per-phase timing events
// recorded into per-thread ring buffers and flushed post-run to Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Design constraints, in priority order:
//   1. Zero overhead when disabled: the hot path is one relaxed atomic
//      load and a predictable branch; no clock reads, no allocation.
//   2. No locks on the hot path when enabled: each OS thread owns a
//      fixed-capacity ring buffer (registered once under a mutex, then
//      written lock-free by its owner). Overflow drops the OLDEST events
//      and counts the drops -- a truncated tail is useless for a trace
//      viewer, a truncated head is just a late start.
//   3. Observation never branches execution: instrumentation points may
//      read clocks and write events, nothing else. The determinism
//      contract (bit-identical results at every thread count and mux
//      width) holds with tracing on or off; tests enforce it.
//
// Flushing is NOT thread-safe against concurrent recording: call
// Tracer::flush() only while no Network::run is in flight (the worker
// pool's completion barrier provides the happens-before edge that makes
// the rings readable).
//
// Enabling: DRW_TRACE=file.json (process-wide, checked at static init),
// `drw --trace=file.json`, or Tracer::instance().enable() when embedding.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace drw::obs {

/// Interned event names. Events store the enum; the string table lives in
/// trace.cpp. Dynamic payloads (walk ids, backlog depths, counter values)
/// travel in TraceEvent::arg -- never as strings.
enum class Name : std::uint16_t {
  kRound,             ///< counter: round number at round start (driver)
  kComputeDispatch,   ///< span: whole compute phase (driver)
  kTransmitDispatch,  ///< span: whole transmit phase (driver)
  kComputeWorker,     ///< span: one worker's compute_phase invocation
  kTransmitFusedShard,  ///< span: one shard's fused stage-merge-deliver
                        ///  transmit_phase invocation
  kMergeShard,        ///< span: canonical-order staged replay within the
                      ///  fused transmit pass (sort + merge + delivery)
  kBarrierWait,       ///< span: driver waiting on the pool barrier
  kNetRun,            ///< span: one Network::run / run_multiplexed
  kEnginePrepare,     ///< span: StitchEngine::prepare (Phase 1)
  kEngineReplenish,   ///< span: GET-MORE-WALKS replenishment run
  kEngineTails,       ///< span: deferred naive tail segments
  kEngineRegen,       ///< span: deferred trajectory regeneration
  kStitchWave,        ///< span: one conflict-free mux wave (arg = lanes)
  kWalkLane,          ///< span: one walk task on a lane (arg = walk id)
  kLaneRound,         ///< instant: lane consumed a round (arg = round)
  kServiceBatch,      ///< span: one WalkService::flush batch
  kArenaBacklog,      ///< counter: max arena depth this shard-round
  kIngestRead,        ///< span: edge-list file -> memory (arg = bytes)
  kIngestParse,       ///< span: bulk tokenize + CSR assembly (arg = bytes)
  kIngestRelabel,     ///< span: degree-ordered vertex relabeling
  kIngestWrite,       ///< span: binary CSR serialization + atomic commit
  kIngestLoad,        ///< span: CSR open + validate + mmap (arg = bytes)
  kServerDrain,       ///< span: one admission drain + serve (arg = admitted)
  kServerRespond,     ///< span: response encode + write (arg = admitted idx)
  kCount
};

/// Track ("process") ids in the exported trace. Within a pid, the tid is
/// the worker/shard index, lane index, or 0 respectively.
inline constexpr std::uint8_t kPidExecutor = 1;
inline constexpr std::uint8_t kPidMux = 2;
inline constexpr std::uint8_t kPidService = 3;
inline constexpr std::uint8_t kPidIngest = 4;
inline constexpr std::uint8_t kPidServer = 5;

/// One recorded event: 24 bytes, trivially copyable, written in place in
/// the owning thread's ring.
struct TraceEvent {
  std::uint64_t ts_ns;  ///< steady-clock ns since Tracer enable
  std::uint64_t arg;    ///< event payload (walk id, depth, counter value)
  Name name;
  std::uint16_t tid;  ///< track row: worker/shard index, lane, ...
  std::uint8_t pid;   ///< track group: kPidExecutor / kPidMux / kPidService
  char ph;            ///< Chrome phase: 'B', 'E', 'i', 'C'
  std::uint16_t pad;
};
static_assert(sizeof(TraceEvent) == 24, "keep the ring entry compact");

/// Process-wide tracing gate. Relaxed is correct: a stale read merely
/// starts/stops observation one event late, it never affects execution.
inline std::atomic<bool> g_trace_enabled{false};
inline bool trace_enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

class Tracer {
 public:
  static Tracer& instance();

  /// Arm tracing. `capacity` is events per thread ring (0 = default
  /// 1<<18, overridable via DRW_TRACE_BUF). Safe to call again to retarget
  /// the output path. Registers an atexit flush on first use.
  void enable(std::string path, std::size_t capacity = 0);
  void disable();

  /// Merge all rings, write the Chrome trace JSON to the enabled path and
  /// clear the rings. Caller must guarantee no recording is in flight.
  void flush();

  /// Events discarded by drop-oldest overflow (cumulative since enable).
  std::uint64_t dropped() const;

  /// Attach a numeric fact to the trace's otherData section (e.g. the
  /// run's transmit_ms so validate_trace.py can cross-check span sums).
  void set_meta(const std::string& key, double value);

  /// Record one event into the calling thread's ring. Callers gate on
  /// trace_enabled() first; record() re-checks cheaply for safety.
  void record(Name name, char ph, std::uint8_t pid, std::uint16_t tid,
              std::uint64_t arg = 0);

  std::size_t capacity() const { return capacity_; }
  const std::string& path() const { return path_; }

  struct Ring;  // public so the thread-local cache can name it

 private:
  Tracer() = default;
  Ring& ring_for_this_thread();
  void write_json(const std::vector<TraceEvent>& events,
                  std::uint64_t dropped_total);

  mutable std::mutex mu_;  // ring registration, flush, meta, enable state
  std::vector<std::unique_ptr<Ring>> rings_;
  std::map<std::string, double> meta_;
  std::string path_;
  std::size_t capacity_ = 0;
  std::uint64_t flushed_dropped_ = 0;  // drops folded out by past flushes
  bool atexit_registered_ = false;
  bool wrote_ = false;  // lets the atexit flush skip an already-final file
  std::uint64_t origin_ns_ = 0;  // steady-clock stamp at enable
};

/// Emit a single event iff tracing is on (the usual entry point).
inline void event(Name name, char ph, std::uint8_t pid, std::uint16_t tid,
                  std::uint64_t arg = 0) {
  if (trace_enabled()) Tracer::instance().record(name, ph, pid, tid, arg);
}

/// RAII 'B'/'E' span. Captures the gate at construction so a flush/toggle
/// mid-span cannot emit an unbalanced 'E'.
class Span {
 public:
  Span(Name name, std::uint8_t pid, std::uint16_t tid, std::uint64_t arg = 0)
      : name_(name), tid_(tid), pid_(pid), on_(trace_enabled()) {
    if (on_) Tracer::instance().record(name_, 'B', pid_, tid_, arg);
  }
  ~Span() {
    if (on_) Tracer::instance().record(name_, 'E', pid_, tid_, 0);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Name name_;
  std::uint16_t tid_;
  std::uint8_t pid_;
  bool on_;
};

}  // namespace drw::obs
