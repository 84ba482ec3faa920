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
//     regenerated (Section 2.2). Short walks come in *generations* -- a
//     GET-MORE-WALKS run takes one per entry, and Phase 1 is such a run with
//     an entry per node -- whose id the token carries in HeldToken::seq; every
//     hop leaves an anonymous (gen, hop, prev_slot, next_slot) record in one
//     flat array per node. A replay walks back from the endpoint, at each hop
//     taking one unspent record of the generation that left toward the node it
//     came from, chosen *uniformly*: swapping the pasts of two i.i.d. tokens
//     that stand on one node after equal hops keeps their joint law, so the
//     replayed path is exact. A fixed choice is not (the first record in
//     arrival order favours low-id predecessors). Once no token of a
//     generation is held, drop_spent() frees its records.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace drw::core {

/// A short-walk endpoint held by its destination node.
struct HeldToken {
  NodeId source = kInvalidNode;
  std::uint32_t seq = 0;          ///< the generation that created it
  std::uint32_t length = 0;       ///< in [lambda, 2*lambda - 1]
  std::uint32_t arrival_slot = 0; ///< slot the token arrived through
                                  ///< (reverse-replay entry point)
  bool used = false;
};

struct WalkStore {
  explicit WalkStore(std::size_t n) : held(n) {}
  std::vector<std::vector<HeldToken>> held;  // indexed by holder node
  /// compact() calls so far (holders_of's staleness check).
  std::uint64_t compactions = 0;

  /// Drops every used token, keeping the others in order. Only between
  /// batches: no task may hold a held_index across it. SAMPLE-DESTINATION
  /// draws one coin per *unused* token in scan order, so no draw changes.
  void compact() {
    for (auto& tokens : held) {
      std::erase_if(tokens, [](const HeldToken& t) { return t.used; });
    }
    ++compactions;
  }

  /// The nodes that held an unused source-`source` token when the held
  /// lists were last scanned, ascending: where a silent SAMPLE-DESTINATION
  /// sweep starts. The scan reruns only when the total held count or the
  /// compaction count moved since the last one: between compactions tokens
  /// are only appended and a used flag only ever turns on, so each list
  /// stays a superset of the current holders. Driver thread only (a
  /// protocol's start_nodes), never during a run's rounds.
  std::span<const NodeId> holders_of(NodeId source) const {
    std::uint64_t total = 0;
    for (const auto& tokens : held) total += tokens.size();
    if (holders_.size() != held.size() || total != holders_held_ ||
        compactions != holders_compactions_) {
      holders_.resize(held.size());
      for (auto& nodes : holders_) nodes.clear();
      for (NodeId v = 0; v < held.size(); ++v) {
        for (const HeldToken& t : held[v]) {
          if (t.used) continue;
          std::vector<NodeId>& nodes = holders_[t.source];
          if (nodes.empty() || nodes.back() != v) nodes.push_back(v);
        }
      }
      holders_held_ = total;
      holders_compactions_ = compactions;
    }
    return holders_[source];
  }

  /// One flag per generation id in [0, generations)
  /// (TrajectoryStore::next_generation): 1 iff the generation still has a
  /// held token, i.e. its records can yet be replayed. Ids are dense, so
  /// freeing indexes this instead of searching a sorted list.
  std::vector<std::uint8_t> live_generations(
      std::uint32_t generations) const {
    std::vector<std::uint8_t> live(generations, 0);
    for (const auto& tokens : held) {
      for (const HeldToken& t : tokens) {
        if (t.seq >= live.size()) live.resize(t.seq + std::size_t{1}, 0);
        live[t.seq] = 1;
      }
    }
    return live;
  }

 private:
  /// holders_of's lists by source, and the counts they were scanned at.
  mutable std::vector<std::vector<NodeId>> holders_;
  mutable std::uint64_t holders_held_ = 0;
  mutable std::uint64_t holders_compactions_ = 0;
};

/// One anonymous routing record at a node: a token of generation
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
  /// next_slot of a replayed record: a tombstone that keeps the array's
  /// order and matches no slot. Also the prev_slot of a hop-0 record.
  static constexpr std::uint32_t kSpentSlot = static_cast<std::uint32_t>(-1);

  explicit TrajectoryStore(std::size_t n) : gmw(n), gmw_unsorted(n, 0) {}

  /// gmw[v] = the hops taken from node v. A one-source GET-MORE-WALKS
  /// run's hops advance in lockstep and its generation is above every
  /// earlier one, so its records arrive sorted by (gen, hop); a
  /// multi-source run's do not (its generations' aggregates queue behind
  /// each other -- Phase 1's most of all), nor do concurrent runs' (mux
  /// lanes).
  /// An out-of-order append sets gmw_unsorted[v], and the next lookup at v
  /// sorts once (stably) -- unless sort_appended() put a solo run's records
  /// in place first.
  std::vector<std::vector<GmwRecord>> gmw;
  std::vector<std::uint8_t> gmw_unsorted;
  /// The next generation id. Runs take theirs on the scheduler thread, so
  /// ids are deterministic at every mux width.
  std::uint32_t next_generation = 0;
  /// Records Phase 1 stored or the previous drop_spent() kept (the
  /// freeing threshold).
  std::uint64_t records_kept = 0;

  /// Takes `count` consecutive generation ids and returns the first.
  std::uint32_t new_generations(std::uint32_t count) {
    const std::uint32_t first = next_generation;
    next_generation += count;
    return first;
  }

  /// Each node's record count and order flag, taken before a run that
  /// runs alone (see sort_appended).
  struct Mark {
    std::vector<std::size_t> sizes;
    std::vector<std::uint8_t> unsorted;
  };
  Mark mark() const {
    Mark m{std::vector<std::size_t>(gmw.size()), gmw_unsorted};
    for (std::size_t v = 0; v < gmw.size(); ++v) m.sizes[v] = gmw[v].size();
    return m;
  }

  /// After a run that ran alone and took its generations above every
  /// stored one: its records are each node's suffix past `mark`, out of
  /// order only among themselves. Sorting that suffix (stably) puts it in
  /// place after the older records -- the order a full stable sort would
  /// give -- so a node sorted before the run is sorted again, and no lookup
  /// re-sorts its whole array.
  void sort_appended(const Mark& mark) {
    for (std::size_t v = 0; v < gmw.size(); ++v) {
      if (gmw_unsorted[v] == 0 || mark.unsorted[v] != 0) continue;
      stable_sort_from(gmw[v], mark.sizes[v]);
      gmw_unsorted[v] = 0;
    }
  }

  /// Sorts records[first..] stably by (gen, hop): an LSD radix sort on
  /// (gen - lowest gen) * (highest hop + 1) + hop, one byte a pass, through
  /// a per-thread buffer (replays sort on executor threads). On Phase 1's
  /// records, about 2,000 a node in no order, it takes a fifth of
  /// std::stable_sort's time, which was a third of prepare().
  static void stable_sort_from(std::vector<GmwRecord>& records,
                               std::size_t first) {
    const std::span<GmwRecord> part(records.begin() +
                                        static_cast<std::ptrdiff_t>(first),
                                    records.end());
    if (part.size() < 2) return;
    std::uint32_t low = part[0].gen;
    std::uint32_t high = low;
    std::uint32_t hops = 0;
    for (const GmwRecord& r : part) {
      low = std::min(low, r.gen);
      high = std::max(high, r.gen);
      hops = std::max(hops, r.hop);
    }
    const std::uint64_t stride = std::uint64_t{hops} + 1;
    const auto key = [&](const GmwRecord& r) {
      return (std::uint64_t{r.gen} - low) * stride + r.hop;
    };
    const std::uint64_t top = key(GmwRecord{high, hops, 0, 0});
    thread_local std::vector<GmwRecord> buffer;
    buffer.resize(part.size());
    GmwRecord* in = part.data();
    GmwRecord* out = buffer.data();
    for (unsigned shift = 0; shift < 64 && (top >> shift) != 0; shift += 8) {
      std::array<std::size_t, 257> next{};
      for (const GmwRecord* r = in; r != in + part.size(); ++r) {
        ++next[((key(*r) >> shift) & 0xff) + 1];
      }
      std::partial_sum(next.begin(), next.end(), next.begin());
      for (const GmwRecord* r = in; r != in + part.size(); ++r) {
        out[next[(key(*r) >> shift) & 0xff]++] = *r;
      }
      std::swap(in, out);
    }
    if (in != part.data()) std::copy(in, in + part.size(), part.data());
  }

  void append_gmw(NodeId v, const GmwRecord& record) {
    std::vector<GmwRecord>& records = gmw[v];
    if (!records.empty() && record < records.back()) gmw_unsorted[v] = 1;
    records.push_back(record);
  }

  /// Replays one hop backward: among the unspent records at node v of
  /// generation `gen` after `hop` hops that left through `next_slot`, takes
  /// the (draw mod their number)-th, marks it spent and returns its
  /// prev_slot (kSpentSlot if there is none). Tombstones and freeing
  /// passes keep the unspent records' order, so they never move a pick.
  std::uint32_t take_gmw(NodeId v, std::uint32_t gen, std::uint32_t hop,
                         std::uint32_t next_slot, std::uint64_t draw) {
    std::vector<GmwRecord>& records = gmw[v];
    if (gmw_unsorted[v] != 0) {
      stable_sort_from(records, 0);
      gmw_unsorted[v] = 0;
    }
    const auto [first, last] =
        std::equal_range(records.begin(), records.end(),
                         GmwRecord{gen, hop, 0, 0});
    const auto matches = [next_slot](const GmwRecord& r) {
      return r.next_slot == next_slot;
    };
    const auto count = std::count_if(first, last, matches);
    if (count == 0) return kSpentSlot;
    auto it = first;
    for (auto skip = draw % static_cast<std::uint64_t>(count);
         !matches(*it) || skip-- > 0;) {
      ++it;
    }
    it->next_slot = kSpentSlot;
    return it->prev_slot;
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
