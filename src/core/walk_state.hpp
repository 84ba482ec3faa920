// Distributed state shared by the phases of SINGLE-RANDOM-WALK.
//
// Every field is node-indexed: entry v belongs to processor v, and protocol
// code only touches its own node's slice -- the aggregate object exists only
// because the simulator hosts all processors in one address space.
//
//   * WalkStore: the short-walk endpoint tokens ("only the destination of
//     each of these walks is aware of its source"). SAMPLE-DESTINATION
//     samples an unused token for a given source uniformly and Sweep 3
//     marks it used so no walk is ever re-stitched.
//   * TrajectoryStore: optional per-hop routing records that let the walk be
//     regenerated (Section 2.2). Phase-1 tokens carry a (source, seq)
//     identity and are replayed forward; their records are one flat array
//     per node, appended during Phase 1, sorted by (key, hop) once it ends
//     and binary-searched by the replay. GET-MORE-WALKS tokens are
//     aggregated counts, so their hops are stored as anonymous fragments and
//     replayed backward (any hop-consistent matching of fragments to
//     endpoints yields the same walk distribution, because the aggregated
//     tokens are exchangeable).
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace drw::core {

/// How a stored short walk was created (affects replay direction).
enum class WalkKind : std::uint8_t { kPhase1 = 0, kGetMore = 1 };

/// A short-walk endpoint held by its destination node.
struct HeldToken {
  NodeId source = kInvalidNode;
  std::uint32_t seq = 0;          ///< unique per source for Phase-1 walks
  std::uint32_t length = 0;       ///< in [lambda, 2*lambda - 1]
  WalkKind kind = WalkKind::kPhase1;
  std::uint32_t arrival_slot = 0; ///< slot the token arrived through
                                  ///< (reverse-replay entry point)
  bool used = false;
};

struct WalkStore {
  explicit WalkStore(std::size_t n) : held(n) {}
  std::vector<std::vector<HeldToken>> held;  // indexed by holder node

  std::size_t unused_count(NodeId holder, NodeId source) const {
    std::size_t count = 0;
    for (const auto& t : held[holder]) {
      if (!t.used && t.source == source) ++count;
    }
    return count;
  }
};

/// One forward routing record: the Phase-1 token with identity `key`
/// (TrajectoryStore::key(source, seq)) was at this node having completed
/// `hop` hops and left through `next_slot`.
struct ForwardRecord {
  std::uint64_t key = 0;
  std::uint32_t hop = 0;
  std::uint32_t next_slot = 0;

  friend bool operator<(const ForwardRecord& a, const ForwardRecord& b) {
    return a.key != b.key ? a.key < b.key : a.hop < b.hop;
  }
};

/// One anonymous GET-MORE-WALKS fragment at a node: a token arrived through
/// `prev_slot` having completed `hop` hops and left through `next_slot`.
struct Fragment {
  std::uint32_t prev_slot = 0;
  std::uint32_t next_slot = 0;
};

struct TrajectoryStore {
  explicit TrajectoryStore(std::size_t n) : forward(n), fragments(n) {}

  static std::uint64_t key(NodeId source, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(source) << 32) | seq;
  }

  /// forward[v] = the Phase-1 hops taken from node v. Sorted by (key, hop)
  /// once Phase 1 ends (sort_forward); a token is at one node per hop, so
  /// a (key, hop) pair occurs at most once per node.
  std::vector<std::vector<ForwardRecord>> forward;
  /// fragments[v][key(source, hop)] = anonymous GET-MORE-WALKS transits at
  /// node v (keyed by source AND hop: replay must never mix sources).
  std::vector<std::unordered_map<std::uint64_t, std::vector<Fragment>>>
      fragments;

  void sort_forward() {
    for (auto& records : forward) std::sort(records.begin(), records.end());
  }
  /// The record of token `key` at node v after `hop` hops, or nullptr (v is
  /// then that token's endpoint). Requires sort_forward().
  const ForwardRecord* find_forward(NodeId v, std::uint64_t key,
                                    std::uint32_t hop) const {
    const std::vector<ForwardRecord>& records = forward[v];
    const ForwardRecord probe{key, hop, 0};
    const auto it = std::lower_bound(records.begin(), records.end(), probe);
    return it != records.end() && it->key == key && it->hop == hop ? &*it
                                                                   : nullptr;
  }
};

/// Positions discovered during regeneration: node v appears at walk step
/// `step` of walk number `walk`.
struct WalkPosition {
  std::uint32_t walk = 0;
  std::uint64_t step = 0;
};

using PositionTable = std::vector<std::vector<WalkPosition>>;  // per node

}  // namespace drw::core
