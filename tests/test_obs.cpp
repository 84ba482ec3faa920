// drw::obs (tier-1): ring-buffer overflow policy (drop-oldest with an
// exposed drop counter), trace-event JSON well-formedness, histogram
// bucket math, and registry snapshot round-trip. The multi-threaded traced
// run at the bottom exists for the TSan CI leg: it drives the full
// executor with tracing enabled so the per-thread rings and atomic
// histograms are exercised under the race checker.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace drw {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Structural JSON check: balanced {} / [] outside strings, valid string
/// escapes, non-empty. (Full semantic validation -- Perfetto loadability,
/// monotonic stamps, span balance -- lives in tools/validate_trace.py,
/// which CI runs against a real serve trace.)
bool json_structure_ok(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !text.empty() && !in_string && stack.empty();
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Tests share the process-wide tracer/registry; leave both quiet.
    obs::Tracer::instance().disable();
    obs::Tracer::instance().flush();
    obs::Registry::global().set_enabled(false);
    obs::Registry::global().reset();
  }
  std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "obs_" + name;
  }
};

TEST_F(ObsTest, RingOverflowDropsOldestAndCountsDrops) {
  const std::string path = temp_path("overflow.json");
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(path, /*capacity=*/16);
  ASSERT_TRUE(obs::trace_enabled());

  const std::uint64_t total = 40;
  for (std::uint64_t i = 0; i < total; ++i) {
    tracer.record(obs::Name::kRound, 'i', obs::kPidExecutor, 0, i);
  }
  // Drop-oldest: the ring holds the LAST 16 events; head - capacity of
  // them were discarded, and the counter says exactly how many.
  EXPECT_EQ(tracer.dropped(), total - 16);

  tracer.disable();
  tracer.flush();
  const std::string json = read_file(path);
  ASSERT_TRUE(json_structure_ok(json)) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), 16u);
  // Newest survive...
  EXPECT_NE(json.find("\"value\":39}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":24}"), std::string::npos);
  // ...oldest do not.
  EXPECT_EQ(json.find("\"value\":23}"), std::string::npos);
  EXPECT_EQ(json.find("\"value\":0}"), std::string::npos);
  // The drop count is exported for validate_trace.py.
  EXPECT_NE(json.find("\"dropped\":24"), std::string::npos);
  // Drops survive the flush accounting.
  EXPECT_EQ(tracer.dropped(), total - 16);
}

TEST_F(ObsTest, TracedRunExportsWellFormedBalancedJson) {
  const std::string path = temp_path("netrun.json");
  obs::Tracer::instance().enable(path);

  const Graph g = gen::torus(8, 8);
  congest::Network net(g, 7);
  net.set_threads(1);
  // A tiny broadcast-ish protocol: every node pings slot 0 for a few
  // rounds, enough to light up compute/transmit/merge spans; the default
  // done() runs it to quiescence.
  class Ping final : public congest::Protocol {
   public:
    void on_round(congest::Context& ctx) override {
      if (ctx.round() < 4) ctx.send(0, congest::Message{1, {ctx.round()}});
    }
  } ping;
  const congest::RunStats stats = net.run(ping);
  EXPECT_GT(stats.rounds, 0u);

  obs::Tracer::instance().disable();
  obs::Tracer::instance().flush();
  const std::string json = read_file(path);
  ASSERT_TRUE(json_structure_ok(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  // Track metadata names the executor process.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("executor"), std::string::npos);
  // Every span opened was closed (nothing dropped in a run this small).
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
  EXPECT_NE(json.find("net.run"), std::string::npos);
  EXPECT_NE(json.find("compute.worker"), std::string::npos);
  // The fused stage-merge-deliver transmit pass traces under its own name.
  EXPECT_NE(json.find("transmit.fused.shard"), std::string::npos);
}

TEST_F(ObsTest, HistogramBucketMath) {
  // Log2 buckets: bucket b collects samples of bit width b.
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(255), 8u);
  EXPECT_EQ(obs::Histogram::bucket_of(256), 9u);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), 64u);

  EXPECT_EQ(obs::Histogram::bucket_max(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_max(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_max(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_max(8), 255u);
  EXPECT_EQ(obs::Histogram::bucket_max(64), ~std::uint64_t{0});

  obs::Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 1000ull}) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1106u);
  EXPECT_DOUBLE_EQ(h.mean(), 1106.0 / 6.0);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket(7), 1u);  // {100}
  EXPECT_EQ(h.bucket(10), 1u);  // {1000}
  // Coarse quantiles: p50 of 6 samples lands in the third bucket
  // (cumulative 4/6 >= 3); p100 is the max sample's bucket bound.
  EXPECT_EQ(h.quantile_bound(0.5), 3u);
  EXPECT_EQ(h.quantile_bound(1.0), 1023u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.quantile_bound(0.5), 0u);
}

TEST_F(ObsTest, RegistrySnapshotRoundTrip) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.counter("test.counter").add(41);
  reg.counter("test.counter").add(1);
  reg.gauge("test.gauge").set(2.5);
  obs::Histogram& h = reg.histogram("test.hist");
  h.record(5);
  h.record(900);

  const std::string json = reg.snapshot_json();
  ASSERT_TRUE(json_structure_ok(json)) << json;
  EXPECT_NE(json.find("\"test.counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\":{\"count\":2,\"sum\":905"),
            std::string::npos);
  // Non-empty buckets keyed by their inclusive upper bound: 5 -> 7,
  // 900 -> 1023 (which is also the reported max bound).
  EXPECT_NE(json.find("\"7\":1"), std::string::npos);
  EXPECT_NE(json.find("\"1023\":1"), std::string::npos);
  EXPECT_NE(json.find("\"max\":1023"), std::string::npos);

  // reset() zeroes values but keeps names registered.
  reg.reset();
  const std::string zeroed = reg.snapshot_json();
  EXPECT_NE(zeroed.find("\"test.counter\":0"), std::string::npos);
  EXPECT_NE(zeroed.find("\"count\":0"), std::string::npos);
  // Lookup returns the same object (stable addresses).
  EXPECT_EQ(&reg.histogram("test.hist"), &h);
}

TEST_F(ObsTest, MultiThreadedTracedRunIsRaceFreeAndBalanced) {
  // The TSan CI leg re-runs this binary with tracing + stats enabled at
  // DRW_THREADS=4 / DRW_PARALLEL_GRAIN=1: concurrent workers write their
  // own rings, the per-shard merges hit the atomic histograms, and the
  // post-run flush reads everything back across the pool barrier.
  const std::string path = temp_path("parallel.json");
  obs::Tracer::instance().enable(path);
  obs::Registry::global().set_enabled(true);

  Rng gen_rng(11);
  const Graph g = gen::random_regular(512, 4, gen_rng);
  congest::Network net(g, 13);
  net.set_threads(4);
  class Storm final : public congest::Protocol {
   public:
    void on_round(congest::Context& ctx) override {
      if (ctx.round() < 6) {
        for (std::uint32_t s = 0; s < ctx.degree(); ++s) {
          ctx.send(s, congest::Message{1, {ctx.round()}});
        }
      }
    }
  } storm;
  const congest::RunStats stats = net.run(storm);
  EXPECT_GT(stats.messages, 0u);

  obs::Tracer::instance().disable();
  obs::Tracer::instance().flush();
  const std::string json = read_file(path);
  ASSERT_TRUE(json_structure_ok(json));
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
  // The registry saw the run too.
  const std::string snap = obs::Registry::global().snapshot_json();
  EXPECT_NE(snap.find("\"executor.rounds\""), std::string::npos);
  EXPECT_NE(snap.find("\"executor.round_wall_us\""), std::string::npos);
}

}  // namespace
}  // namespace drw
