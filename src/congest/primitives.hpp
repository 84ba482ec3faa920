// Reusable distributed building blocks on the CONGEST kernel:
//
//   * BfsTreeProtocol       -- breadth-first tree construction, O(D) rounds
//   * BfsTreeCache          -- per-root BFS trees kept across traversals,
//                              under a fixed byte budget
//   * BroadcastProtocol     -- root-to-all dissemination over a BFS tree
//   * ConvergecastSum       -- aggregate a per-node word up the tree
//   * PipelinedVectorUpcast -- aggregate a K-vector up the tree, O(D + K)
//   * PipelinedListUpcast   -- stream per-node record lists to the root,
//                              O(D + total records)
//
// These correspond to the standard CONGEST toolbox the paper builds on
// ("constructing a BFS tree clearly takes O(D) rounds", "the standard upcast
// technique", Appendix A/C).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace drw::congest {

/// A rooted BFS tree: output of BfsTreeProtocol, input to the cast protocols.
/// Flat layout: the parent array plus the children in CSR form, ascending
/// within each node, and each node's depth and subtree height -- about 20n
/// bytes in five allocations, so a tree is cheap to build and cheap to keep
/// (BfsTreeCache).
struct BfsTree {
  NodeId root = kInvalidNode;
  std::vector<NodeId> parent;                // parent[root] == root
  std::vector<std::uint32_t> child_begin;    // size n + 1
  std::vector<NodeId> children;              // size n - 1, grouped by parent
  std::vector<std::uint32_t> depth;          // hops from root
  /// Hops down to v's deepest descendant (0 at leaves): the round in which
  /// v reports in a convergecast where every node waits for its children.
  std::vector<std::uint32_t> subtree_height;
  std::uint32_t height = 0;                  // max depth

  std::span<const NodeId> children_of(NodeId v) const {
    return {children.data() + child_begin[v],
            children.data() + child_begin[v + 1]};
  }
  std::uint32_t child_count(NodeId v) const {
    return child_begin[v + 1] - child_begin[v];
  }
  /// Heap bytes held (what BfsTreeCache charges against its budget).
  std::size_t bytes() const;

  bool operator==(const BfsTree&) const = default;
};

/// Floods level messages from the root; each node adopts the smallest-ID
/// first-round sender as parent and notifies it. Quiesces in O(D) rounds.
class BfsTreeProtocol final : public Protocol {
 public:
  BfsTreeProtocol(const Graph& g, NodeId root);
  /// The root.
  std::span<const NodeId> start_nodes(std::span<const NodeId>) override {
    return {&root_, 1};
  }
  void on_round(Context& ctx) override;

  /// Valid after the run completes; throws if some node was never reached.
  BfsTree take_tree();

 private:
  enum MsgType : std::uint16_t { kLevel = 1, kJoin = 2 };
  NodeId root_;
  BfsTree tree_;
  std::vector<std::uint8_t> joined_;
};

/// BFS trees kept per root across traversals. A tree depends only on its
/// root and the static graph (BfsTreeProtocol draws no randomness), so a
/// caller that meets the same roots again can skip the O(D)-round, ~2m
/// message build. Memory is capped by a byte budget: once it is full,
/// insert() declines and the caller keeps its own per-visit tree. Nothing
/// is evicted, so the cached set is a pure function of the insert order.
class BfsTreeCache {
 public:
  explicit BfsTreeCache(std::size_t node_count, std::size_t budget_bytes)
      : trees_(node_count), budget_(budget_bytes) {}

  /// The cached tree rooted at `root`, or nullptr.
  const BfsTree* find(NodeId root) const { return trees_[root].get(); }
  /// Keeps `tree` if its root is not cached yet and it fits the budget,
  /// and returns the cached tree for its root; returns nullptr, leaving
  /// `tree` untouched, when it does not fit. Addresses stay valid for the
  /// cache's lifetime.
  const BfsTree* insert(BfsTree&& tree);
  /// Cached roots, ascending.
  std::vector<NodeId> roots() const;
  /// Rebuilds the trees of `roots` with BfsTreeProtocol on `net` (a warm
  /// restart's local recomputation of what the nodes had kept); the rounds
  /// are charged nowhere.
  void restore(Network& net, std::span<const NodeId> roots);

  std::size_t bytes() const noexcept { return bytes_; }
  std::size_t budget() const noexcept { return budget_; }
  std::size_t size() const noexcept { return count_; }

 private:
  std::vector<std::unique_ptr<const BfsTree>> trees_;  // by root
  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::size_t count_ = 0;
};

/// Sends one payload message from the root to every node along tree edges.
/// Each node's payload is observed via the `on_receive` callback (called with
/// the receiving node's ID); O(height) rounds.
///
/// SHARD SAFETY: `on_receive` runs inside on_round and may execute on any
/// executor thread -- it must only write state indexed by the receiving
/// node (see the Protocol contract in network.hpp). All in-repo callbacks
/// comply.
class BroadcastProtocol final : public Protocol {
 public:
  BroadcastProtocol(const BfsTree& tree, Message payload,
                    std::function<void(NodeId, const Message&)> on_receive);
  /// The root.
  std::span<const NodeId> start_nodes(std::span<const NodeId>) override {
    return {&tree_->root, 1};
  }
  void on_round(Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kDown = 1 };
  const BfsTree* tree_;
  Message payload_;
  std::function<void(NodeId, const Message&)> on_receive_;
};

/// Sums a per-node 64-bit value up the tree; result available at the root
/// after O(height) rounds via `root_sum()`. Node v reports in round
/// subtree_height[v], when its last child's value has just arrived.
class ConvergecastSum final : public Protocol {
 public:
  ConvergecastSum(const BfsTree& tree, std::vector<std::uint64_t> values);
  void on_round(Context& ctx) override;
  std::uint64_t root_sum() const { return acc_[tree_->root]; }

 private:
  enum MsgType : std::uint16_t { kUp = 1 };
  const BfsTree* tree_;
  std::vector<std::uint64_t> acc_;
};

/// Element-wise sums per-node vectors of length K up the tree, pipelined one
/// entry per tree edge per round: O(height + K) rounds, messages of
/// (index, value) pairs. Used by the mixing-time estimator's bucket upcast
/// (Appendix C.3's "standard upcast technique").
class PipelinedVectorUpcast final : public Protocol {
 public:
  PipelinedVectorUpcast(const BfsTree& tree,
                        std::vector<std::vector<std::uint64_t>> values);
  void on_round(Context& ctx) override;
  const std::vector<std::uint64_t>& root_vector() const {
    return acc_[tree_->root];
  }

 private:
  enum MsgType : std::uint16_t { kEntry = 1 };
  void pump(Context& ctx);
  const BfsTree* tree_;
  std::size_t k_ = 0;
  std::vector<std::vector<std::uint64_t>> acc_;
  std::vector<std::vector<std::uint32_t>> entry_pending_;  // children missing
  std::vector<std::uint32_t> next_send_;
};

/// Streams arbitrary per-node record lists (3 words each) to the tree root,
/// one record per tree edge per round: O(height + total records) rounds.
/// Used to deliver walk-sample records to the mixing-time estimator's source
/// ("the source can obtain ... in O~(n^{1/2} poly(1/eps) + D) rounds").
class PipelinedListUpcast final : public Protocol {
 public:
  using Record = std::array<std::uint64_t, 3>;

  PipelinedListUpcast(const BfsTree& tree,
                      std::vector<std::vector<Record>> records);
  void on_round(Context& ctx) override;

  /// All records collected at the root (order unspecified).
  const std::vector<Record>& root_records() const {
    return queue_[tree_->root];
  }

 private:
  enum MsgType : std::uint16_t { kRecord = 5 };
  void pump(Context& ctx);
  const BfsTree* tree_;
  std::vector<std::vector<Record>> queue_;
  std::vector<std::size_t> next_send_;
};

/// Driver helper: builds a BFS tree rooted at `root`, accumulating rounds
/// into `stats`.
BfsTree build_bfs_tree(Network& net, NodeId root, RunStats& stats);

}  // namespace drw::congest
