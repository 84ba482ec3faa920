#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

namespace drw::obs {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

/// Static string table matching obs::Name. Dots group related tracks when
/// Perfetto sorts slice names; no dynamic strings ever enter the ring.
constexpr const char* kNames[] = {
    "round",             // kRound
    "compute.dispatch",  // kComputeDispatch
    "transmit.dispatch",  // kTransmitDispatch
    "compute.worker",    // kComputeWorker
    "transmit.fused.shard",  // kTransmitFusedShard
    "merge.shard",       // kMergeShard
    "barrier.wait",      // kBarrierWait
    "net.run",           // kNetRun
    "engine.prepare",    // kEnginePrepare
    "engine.replenish",  // kEngineReplenish
    "engine.tails",      // kEngineTails
    "engine.regen",      // kEngineRegen
    "stitch.wave",       // kStitchWave
    "walk.lane",         // kWalkLane
    "lane.round",        // kLaneRound
    "service.batch",     // kServiceBatch
    "arena.backlog",     // kArenaBacklog
    "ingest.read",       // kIngestRead
    "ingest.parse",      // kIngestParse
    "ingest.relabel",    // kIngestRelabel
    "ingest.write",      // kIngestWrite
    "ingest.load",       // kIngestLoad
    "server.drain",      // kServerDrain
    "server.respond",    // kServerRespond
};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                  static_cast<std::size_t>(Name::kCount),
              "name table out of sync with obs::Name");

const char* process_name(std::uint8_t pid) {
  switch (pid) {
    case kPidExecutor: return "executor";
    case kPidMux: return "mux lanes";
    case kPidService: return "service";
    case kPidIngest: return "ingest";
    case kPidServer: return "server";
    default: return "drw";
  }
}

void append_thread_name(std::string& out, std::uint8_t pid,
                        std::uint16_t tid) {
  char buf[48];
  switch (pid) {
    case kPidExecutor:
      std::snprintf(buf, sizeof(buf), "worker/shard %u", unsigned(tid));
      break;
    case kPidMux:
      std::snprintf(buf, sizeof(buf), "lane %u", unsigned(tid));
      break;
    case kPidIngest:
      std::snprintf(buf, sizeof(buf), "ingest");
      break;
    case kPidServer:
      std::snprintf(buf, sizeof(buf), "server");
      break;
    default:
      std::snprintf(buf, sizeof(buf), "service");
      break;
  }
  out += buf;
}

}  // namespace

/// Per-thread event ring. Single-writer (the owning thread); read by the
/// flushing thread only after the worker pool's completion barrier has
/// established a happens-before edge. `head` counts writes monotonically:
/// the live window is [max(0, head - capacity), head), so overflow drops
/// the oldest events and `head - capacity` IS the drop count.
struct Tracer::Ring {
  std::vector<TraceEvent> events;
  std::uint64_t head = 0;
};

namespace {
thread_local Tracer::Ring* t_ring = nullptr;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Ring& Tracer::ring_for_this_thread() {
  // Slow path: first event from this thread. Ring objects are allocated
  // once and never destroyed (threads come and go across pool resizes;
  // their rings stay merged into every future flush), so the cached
  // pointer stays valid for the process lifetime.
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>());
  Ring& ring = *rings_.back();
  ring.events.resize(capacity_ ? capacity_ : kDefaultCapacity);
  t_ring = &ring;
  return ring;
}

void Tracer::enable(std::string path, std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
  if (capacity == 0) {
    capacity = kDefaultCapacity;
    if (const char* env = std::getenv("DRW_TRACE_BUF")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && parsed > 0) capacity = std::size_t(parsed);
    }
  }
  capacity_ = capacity;
  origin_ns_ = now_ns();
  // Re-enabling (tests, back-to-back CLI runs) restarts the epoch: any
  // already-registered rings are resized and reset while quiescent.
  for (auto& ring : rings_) {
    ring->events.clear();
    ring->events.resize(capacity_);
    ring->head = 0;
  }
  flushed_dropped_ = 0;
  meta_.clear();
  if (!atexit_registered_) {
    atexit_registered_ = true;
    std::atexit([] { Tracer::instance().flush(); });
  }
  g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  g_trace_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::record(Name name, char ph, std::uint8_t pid, std::uint16_t tid,
                    std::uint64_t arg) {
  Ring* ring = t_ring;
  if (ring == nullptr) ring = &ring_for_this_thread();
  if (ring->events.empty()) return;  // enable() never ran: no capacity
  TraceEvent& ev = ring->events[ring->head % ring->events.size()];
  ev.ts_ns = now_ns() - origin_ns_;
  ev.arg = arg;
  ev.name = name;
  ev.tid = tid;
  ev.pid = pid;
  ev.ph = ph;
  ev.pad = 0;
  ++ring->head;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = flushed_dropped_;
  for (const auto& ring : rings_) {
    if (!ring->events.empty() && ring->head > ring->events.size()) {
      total += ring->head - ring->events.size();
    }
  }
  return total;
}

void Tracer::set_meta(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_[key] = value;
}

void Tracer::flush() {
  std::vector<TraceEvent> merged;
  std::uint64_t dropped_total = 0;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty()) return;
    for (auto& ring : rings_) {
      if (ring->events.empty()) continue;
      const std::size_t cap = ring->events.size();
      if (ring->head > cap) flushed_dropped_ += ring->head - cap;
      const std::uint64_t begin = ring->head > cap ? ring->head - cap : 0;
      for (std::uint64_t i = begin; i < ring->head; ++i) {
        merged.push_back(ring->events[i % cap]);
      }
      ring->head = 0;
    }
    dropped_total = flushed_dropped_;
    path = path_;
    if (merged.empty() && wrote_) return;  // atexit after an explicit flush
    wrote_ = true;
  }
  // Chrome wants events roughly time-ordered; stable sort keeps same-stamp
  // B-before-E pairs (common at ns resolution on coarse clocks) in the
  // order they were recorded.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  write_json(merged, dropped_total);
}

void Tracer::write_json(const std::vector<TraceEvent>& events,
                        std::uint64_t dropped_total) {
  std::FILE* out = std::fopen(path_.c_str(), "w");
  if (out == nullptr) return;  // tracing must never take the process down
  std::string buf;
  buf.reserve(events.size() * 96 + 4096);
  buf += "{\"traceEvents\":[\n";
  // Metadata events name every (pid, tid) track that appears.
  std::set<std::uint8_t> pids;
  std::set<std::pair<std::uint8_t, std::uint16_t>> tracks;
  for (const TraceEvent& ev : events) {
    pids.insert(ev.pid);
    tracks.insert({ev.pid, ev.tid});
  }
  char line[192];
  bool first = true;
  auto comma = [&] {
    if (!first) buf += ",\n";
    first = false;
  };
  for (std::uint8_t pid : pids) {
    comma();
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                  unsigned(pid), process_name(pid));
    buf += line;
  }
  for (const auto& [pid, tid] : tracks) {
    comma();
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":%u,\"args\":{\"name\":\"",
                  unsigned(pid), unsigned(tid));
    buf += line;
    append_thread_name(buf, pid, tid);
    buf += "\"}}";
  }
  for (const TraceEvent& ev : events) {
    comma();
    const char* name = kNames[static_cast<std::size_t>(ev.name)];
    // ts is microseconds in the trace-event format; keep ns resolution as
    // the fractional part.
    const double ts_us = double(ev.ts_ns) / 1000.0;
    if (ev.ph == 'B' || ev.ph == 'E') {
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"cat\":\"drw\",\"ph\":\"%c\","
                    "\"ts\":%.3f,\"pid\":%u,\"tid\":%u%s",
                    name, ev.ph, ts_us, unsigned(ev.pid), unsigned(ev.tid),
                    ev.ph == 'B' && ev.arg != 0 ? "" : "}");
      buf += line;
      if (ev.ph == 'B' && ev.arg != 0) {
        std::snprintf(line, sizeof(line),
                      ",\"args\":{\"value\":%llu}}",
                      static_cast<unsigned long long>(ev.arg));
        buf += line;
      }
    } else if (ev.ph == 'C') {
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"cat\":\"drw\",\"ph\":\"C\","
                    "\"ts\":%.3f,\"pid\":%u,\"tid\":%u,"
                    "\"args\":{\"value\":%llu}}",
                    name, ts_us, unsigned(ev.pid), unsigned(ev.tid),
                    static_cast<unsigned long long>(ev.arg));
      buf += line;
    } else {  // instant
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"cat\":\"drw\",\"ph\":\"i\","
                    "\"ts\":%.3f,\"pid\":%u,\"tid\":%u,\"s\":\"t\","
                    "\"args\":{\"value\":%llu}}",
                    name, ts_us, unsigned(ev.pid), unsigned(ev.tid),
                    static_cast<unsigned long long>(ev.arg));
      buf += line;
    }
  }
  buf += "\n],\"otherData\":{";
  std::snprintf(line, sizeof(line), "\"dropped\":%llu",
                static_cast<unsigned long long>(dropped_total));
  buf += line;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, value] : meta_) {
      std::snprintf(line, sizeof(line), ",\"%s\":%.6f", key.c_str(), value);
      buf += line;
    }
  }
  buf += "}}\n";
  std::fwrite(buf.data(), 1, buf.size(), out);
  std::fclose(out);
}

namespace {
/// Process-wide DRW_TRACE=file.json support: armed before main() so every
/// entry point (CLI, tests, benches) honours the variable without code.
struct TraceEnvInit {
  TraceEnvInit() {
    const char* path = std::getenv("DRW_TRACE");
    if (path != nullptr && *path != '\0') Tracer::instance().enable(path);
  }
} g_trace_env_init;
}  // namespace

}  // namespace drw::obs
