// Distributed state shared by the phases of SINGLE-RANDOM-WALK.
//
// Every field is node-indexed: entry v belongs to processor v, and protocol
// code only touches its own node's slice -- the aggregate object exists only
// because the simulator hosts all processors in one address space.
//
//   * WalkStore: the short-walk endpoint tokens ("only the destination of
//     each of these walks is aware of its source"). SAMPLE-DESTINATION
//     samples an unused token for a given source uniformly -- on a tree
//     swept before, only the subtrees holding such tokens report -- and
//     Sweep 3 (SampleCommit, one message per hop down the path the sample
//     took up the tree) marks it used at its holder so no walk is ever
//     re-stitched.
//     Between batches, compact() drops the used tokens and keeps the rest
//     in order.
//   * TrajectoryStore: optional per-hop routing records that let the walk be
//     regenerated (Section 2.2). Phase-1 tokens carry a (source, seq)
//     identity and are replayed forward; their records are one flat array
//     per node, appended during Phase 1, sorted by (key, hop) once it ends
//     and binary-searched by the replay.
//     GET-MORE-WALKS tokens are aggregated counts with no identity. Each
//     GET-MORE-WALKS run is a *generation*: its tokens carry the generation
//     id in HeldToken::seq, and every hop leaves an anonymous (gen, hop,
//     prev_slot, next_slot) record in one flat array per node. A token is
//     replayed backward by matching it to any hop-consistent chain of its
//     generation's records; the tokens of one run are exchangeable, so every
//     such matching yields the same walk distribution. Once no token of a
//     generation is held any more, its records can never be replayed and
//     drop_spent() frees them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace drw::core {

/// How a stored short walk was created (affects replay direction).
enum class WalkKind : std::uint8_t { kPhase1 = 0, kGetMore = 1 };

/// A short-walk endpoint held by its destination node.
struct HeldToken {
  NodeId source = kInvalidNode;
  std::uint32_t seq = 0;          ///< Phase-1: unique per source;
                                  ///< GET-MORE-WALKS: the generation
  std::uint32_t length = 0;       ///< in [lambda, 2*lambda - 1]
  WalkKind kind = WalkKind::kPhase1;
  std::uint32_t arrival_slot = 0; ///< slot the token arrived through
                                  ///< (reverse-replay entry point)
  bool used = false;
};

struct WalkStore {
  explicit WalkStore(std::size_t n) : held(n) {}
  std::vector<std::vector<HeldToken>> held;  // indexed by holder node

  /// Drops every used token, keeping the others in order. Only between
  /// batches: no task may hold a held_index across it. SAMPLE-DESTINATION
  /// draws one coin per *unused* token in scan order, so no draw changes.
  void compact() {
    for (auto& tokens : held) {
      std::erase_if(tokens, [](const HeldToken& t) { return t.used; });
    }
  }

  /// One flag per GET-MORE-WALKS generation id in [0, generations)
  /// (TrajectoryStore::next_generation): 1 iff the generation still has a
  /// held token, i.e. its records can yet be replayed. Ids are dense, so
  /// freeing indexes this instead of searching a sorted list.
  std::vector<std::uint8_t> live_generations(
      std::uint32_t generations) const {
    std::vector<std::uint8_t> live(generations, 0);
    for (const auto& tokens : held) {
      for (const HeldToken& t : tokens) {
        if (t.kind != WalkKind::kGetMore) continue;
        if (t.seq >= live.size()) live.resize(t.seq + std::size_t{1}, 0);
        live[t.seq] = 1;
      }
    }
    return live;
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

/// One anonymous GET-MORE-WALKS record at a node: a token of generation
/// `gen` arrived through `prev_slot` having completed `hop` hops and left
/// through `next_slot` (TrajectoryStore::kSpentSlot once a replay used it).
struct GmwRecord {
  std::uint32_t gen = 0;
  std::uint32_t hop = 0;
  std::uint32_t prev_slot = 0;
  std::uint32_t next_slot = 0;

  friend bool operator<(const GmwRecord& a, const GmwRecord& b) {
    return a.gen != b.gen ? a.gen < b.gen : a.hop < b.hop;
  }
};

struct TrajectoryStore {
  /// next_slot of a replayed GET-MORE-WALKS record: a tombstone that keeps
  /// the array's order and matches no slot.
  static constexpr std::uint32_t kSpentSlot = static_cast<std::uint32_t>(-1);

  explicit TrajectoryStore(std::size_t n)
      : forward(n), gmw(n), gmw_unsorted(n, 0) {}

  static std::uint64_t key(NodeId source, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(source) << 32) | seq;
  }

  /// forward[v] = the Phase-1 hops taken from node v. Sorted by (key, hop)
  /// once Phase 1 ends (sort_forward); a token is at one node per hop, so
  /// a (key, hop) pair occurs at most once per node.
  std::vector<std::vector<ForwardRecord>> forward;
  /// gmw[v] = the GET-MORE-WALKS hops taken from node v. Generations
  /// increase and a run's hops advance in lockstep, so records arrive sorted
  /// by (gen, hop). Only concurrent runs (mux lanes) interleave them; that
  /// sets gmw_unsorted[v], and the next lookup at v sorts once (stably).
  std::vector<std::vector<GmwRecord>> gmw;
  std::vector<std::uint8_t> gmw_unsorted;
  /// The next generation id. Runs take theirs on the scheduler thread, so
  /// ids are deterministic at every mux width.
  std::uint32_t next_generation = 0;
  /// Records the previous drop_spent() kept (the freeing threshold).
  std::uint64_t records_kept = 0;

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

  std::uint32_t new_generation() { return next_generation++; }

  void append_gmw(NodeId v, const GmwRecord& record) {
    std::vector<GmwRecord>& records = gmw[v];
    if (!records.empty() && record < records.back()) gmw_unsorted[v] = 1;
    records.push_back(record);
  }

  /// Replays one hop backward: takes the first unspent record at node v of
  /// generation `gen` after `hop` hops that left through `next_slot`, marks
  /// it spent and returns its prev_slot (kSpentSlot if there is none).
  std::uint32_t take_gmw(NodeId v, std::uint32_t gen, std::uint32_t hop,
                         std::uint32_t next_slot) {
    std::vector<GmwRecord>& records = gmw[v];
    if (gmw_unsorted[v] != 0) {
      std::stable_sort(records.begin(), records.end());
      gmw_unsorted[v] = 0;
    }
    const GmwRecord probe{gen, hop, 0, 0};
    for (auto it = std::lower_bound(records.begin(), records.end(), probe);
         it != records.end() && it->gen == gen && it->hop == hop; ++it) {
      if (it->next_slot != next_slot) continue;
      it->next_slot = kSpentSlot;
      return it->prev_slot;
    }
    return kSpentSlot;
  }

  std::uint64_t gmw_record_count() const {
    std::uint64_t total = 0;
    for (const auto& records : gmw) total += records.size();
    return total;
  }

  /// True iff generation `gen` is flagged in `live` (live_generations).
  static bool is_live(std::span<const std::uint8_t> live, std::uint32_t gen) {
    return gen < live.size() && live[gen] != 0;
  }

  /// Drops the spent records and every record of a generation `live` does
  /// not flag, keeping the rest in order; sets records_kept and returns the
  /// number dropped.
  std::uint64_t drop_spent(std::span<const std::uint8_t> live) {
    std::uint64_t dropped = 0;
    records_kept = 0;
    for (auto& records : gmw) {
      dropped += std::erase_if(records, [live](const GmwRecord& r) {
        return r.next_slot == kSpentSlot || !is_live(live, r.gen);
      });
      records_kept += records.size();
    }
    return dropped;
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
