// Worker-width resolution shared by the round executor (congest::Network)
// and bulk edge-list ingestion (graph/io): one DRW_THREADS parser and one
// cap, so no entry point can spawn more workers than the other.
#pragma once

#include <cstdlib>
#include <thread>

namespace drw {

/// Widest worker pool any component spawns.
inline constexpr unsigned kMaxThreads = 256;

/// Clamps a width request to [1, kMaxThreads].
inline unsigned clamp_threads(unsigned long threads) noexcept {
  if (threads < 1) return 1;
  return threads < kMaxThreads ? static_cast<unsigned>(threads) : kMaxThreads;
}

/// Parsed DRW_THREADS, clamped (0 = unset/invalid): an explicit width
/// request, as opposed to the hardware-derived fallback.
inline unsigned env_threads() {
  static const unsigned value = [] {
    if (const char* env = std::getenv("DRW_THREADS")) {
      const unsigned long parsed = std::strtoul(env, nullptr, 10);
      if (parsed >= 1) return clamp_threads(parsed);
    }
    return 0u;
  }();
  return value;
}

/// The auto width: DRW_THREADS if set, else the hardware concurrency.
inline unsigned default_threads() {
  const unsigned env = env_threads();
  return env != 0 ? env : clamp_threads(std::thread::hardware_concurrency());
}

}  // namespace drw
