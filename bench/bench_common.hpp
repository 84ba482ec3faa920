// Shared support for the experiment harness: aligned table printing, series
// bookkeeping, log-log slope fits, and machine-readable result files. Every
// bench binary prints the paper-vs-measured series for its experiment
// (the comment at the top of each bench names it: E1-E11 map to the
// paper's theorems and lemmas, the rest are acceptance gates and perf
// trajectories), then runs its registered
// google-benchmark timings; perf-trajectory benches additionally emit a
// BENCH_<name>.json via JsonReport.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace drw::bench {

/// Prints a named experiment banner.
inline void banner(const std::string& id, const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n", id.c_str(), claim.c_str());
}

/// A simple fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

inline std::string fmt_double(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Machine-readable bench output: accumulates flat key/value fields and
/// writes them as `BENCH_<name>.json` in the working directory, so CI and
/// perf-trajectory tooling can diff runs without scraping tables. Numbers
/// are emitted as JSON numbers, everything else as strings.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  JsonReport& add(const std::string& key, double value) {
    if (!std::isfinite(value)) {  // "inf"/"nan" are not valid JSON
      fields_.emplace_back(key, "null");
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonReport& add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& add(const std::string& key, std::uint32_t value) {
    return add(key, static_cast<std::uint64_t>(value));
  }
  JsonReport& add(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& add_string(const std::string& key, const std::string& value) {
    std::string escaped = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    escaped += '"';
    fields_.emplace_back(key, std::move(escaped));
    return *this;
  }

  /// Writes BENCH_<name>.json; returns false (with a stderr note) on IO
  /// failure so benches can keep running in read-only environments.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\n");
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(out, "  \"%s\": %s%s\n", fields_[i].first.c_str(),
                   fields_[i].second.c_str(),
                   i + 1 < fields_.size() ? "," : "");
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The calibrated 2-thread executor speedup floor, enforced by bench_skew
/// on every >=4-hardware-thread host and by bench_service on 4..7-thread
/// hosts where its >=2x@8 gate cannot bind. One value, one home: an
/// accidentally serialized executor measures ~1.0x, a healthy one >= ~1.5x
/// on idle runners; 1.2 leaves headroom for noisy shared CI.
inline constexpr double kSpeedupFloorT2 = 1.2;

/// Emits the per-phase executor timing breakdown of a RunStats under
/// `<prefix>compute_ms` / `transmit_ms` / `merge_ms`, so bench
/// JSON consumers (tools/bench_diff.py, the CI trajectory diff) can
/// attribute wall-clock movement to a phase.
inline void add_phase_fields(JsonReport& json, const std::string& prefix,
                             const congest::RunStats& stats) {
  json.add(prefix + "compute_ms", stats.compute_ms);
  json.add(prefix + "transmit_ms", stats.transmit_ms);
  json.add(prefix + "merge_ms", stats.merge_ms);
}

/// Folds the armed obs::Registry into the flat bench JSON as
/// `<prefix><metric>` fields: executor totals plus the coarse round
/// wall-time and arena-backlog distributions the registry histograms
/// collect. No-op when the registry is disabled, so benches that never arm
/// it emit unchanged reports; consumers (tools/bench_diff.py) tolerate the
/// keys appearing or disappearing across runs.
inline void add_registry_fields(JsonReport& json, const std::string& prefix) {
  obs::Registry& reg = obs::Registry::global();
  if (!reg.enabled()) return;
  json.add(prefix + "rounds", reg.counter("executor.rounds").value());
  json.add(prefix + "messages", reg.counter("executor.messages").value());
  json.add(prefix + "runs", reg.counter("executor.runs").value());
  const obs::Histogram& wall = reg.histogram("executor.round_wall_us");
  json.add(prefix + "round_wall_us_mean", wall.mean());
  json.add(prefix + "round_wall_us_p50", wall.quantile_bound(0.5));
  json.add(prefix + "round_wall_us_p99", wall.quantile_bound(0.99));
  const obs::Histogram& backlog = reg.histogram("arena.backlog");
  json.add(prefix + "backlog_p50", backlog.quantile_bound(0.5));
  json.add(prefix + "backlog_p99", backlog.quantile_bound(0.99));
  json.add(prefix + "backlog_samples", backlog.count());
}

/// Fits and prints the log-log slope of a measured series.
inline void print_slope(const std::string& label,
                        const std::vector<double>& x,
                        const std::vector<double>& y,
                        double expected) {
  const double slope = log_log_slope(x, y);
  std::printf("%s: measured log-log slope %.3f (paper predicts ~%.2f)\n",
              label.c_str(), slope, expected);
}

}  // namespace drw::bench
