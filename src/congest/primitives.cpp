#include "congest/primitives.hpp"

#include <algorithm>
#include <stdexcept>

namespace drw::congest {

// ---------------------------------------------------------------- BFS tree

BfsTreeProtocol::BfsTreeProtocol(const Graph& g, NodeId root) : root_(root) {
  const std::size_t n = g.node_count();
  tree_.root = root;
  tree_.parent.assign(n, kInvalidNode);
  tree_.depth.assign(n, 0);
  joined_.assign(n, 0);
}

void BfsTreeProtocol::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    if (v != root_) return;
    joined_[v] = 1;
    tree_.parent[v] = v;
    Message level{kLevel, {0, 0, 0, 0}};
    for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
      ctx.send(slot, level);
    }
    return;
  }
  for (const Delivery& d : ctx.inbox()) {
    switch (d.msg.type) {
      case kLevel: {
        if (joined_[v]) break;
        // First LEVEL this round: all same-round senders are at equal depth;
        // adopt the smallest ID for determinism.
        NodeId best = d.from;
        for (const Delivery& other : ctx.inbox()) {
          if (other.msg.type == kLevel && other.from < best) {
            best = other.from;
          }
        }
        joined_[v] = 1;
        tree_.parent[v] = best;
        // height is derived in take_tree(): a running max here would be a
        // cross-node write, which the parallel executor forbids.
        tree_.depth[v] = static_cast<std::uint32_t>(d.msg.f[0]) + 1;
        ctx.send_to(best, Message{kJoin, {0, 0, 0, 0}});
        Message level{kLevel, {tree_.depth[v], 0, 0, 0}};
        for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
          if (ctx.neighbor(slot) != best) ctx.send(slot, level);
        }
        break;
      }
      case kJoin:
        // v learns a child; take_tree() lists each node's children from
        // the parent array, which holds exactly the JOIN senders.
        break;
      default:
        throw std::logic_error("BfsTreeProtocol: unknown message");
    }
  }
}

BfsTree BfsTreeProtocol::take_tree() {
  const std::size_t n = joined_.size();
  // CSR children by counting sort over the parent array: scanning v upward
  // leaves every child list ascending.
  tree_.child_begin.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (!joined_[v]) {
      throw std::runtime_error("BfsTreeProtocol: graph not connected");
    }
    tree_.height = std::max(tree_.height, tree_.depth[v]);
    if (v != root_) ++tree_.child_begin[tree_.parent[v] + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    tree_.child_begin[v + 1] += tree_.child_begin[v];
  }
  tree_.children.resize(n == 0 ? 0 : n - 1);
  std::vector<std::uint32_t> cursor(tree_.child_begin.begin(),
                                    tree_.child_begin.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    if (v != root_) {
      tree_.children[cursor[tree_.parent[v]]++] = static_cast<NodeId>(v);
    }
  }
  return std::move(tree_);
}

std::size_t BfsTree::bytes() const {
  return (parent.size() + children.size()) * sizeof(NodeId) +
         (child_begin.size() + depth.size()) * sizeof(std::uint32_t);
}

// ------------------------------------------------------------ tree cache

const BfsTree* BfsTreeCache::insert(BfsTree&& tree) {
  const NodeId root = tree.root;
  if (trees_[root] != nullptr) return trees_[root].get();
  const std::size_t cost = tree.bytes();
  if (bytes_ + cost > budget_) return nullptr;
  bytes_ += cost;
  ++count_;
  trees_[root] = std::make_unique<const BfsTree>(std::move(tree));
  return trees_[root].get();
}

std::vector<NodeId> BfsTreeCache::roots() const {
  std::vector<NodeId> out;
  out.reserve(count_);
  for (NodeId v = 0; v < trees_.size(); ++v) {
    if (trees_[v] != nullptr) out.push_back(v);
  }
  return out;
}

void BfsTreeCache::restore(Network& net, std::span<const NodeId> roots) {
  for (const NodeId root : roots) {
    RunStats uncharged;
    insert(build_bfs_tree(net, root, uncharged));
  }
}

// --------------------------------------------------------------- broadcast

BroadcastProtocol::BroadcastProtocol(
    const BfsTree& tree, Message payload,
    std::function<void(NodeId, const Message&)> on_receive)
    : tree_(&tree), payload_(payload), on_receive_(std::move(on_receive)) {
  payload_.type = kDown;
}

void BroadcastProtocol::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  auto forward = [&] {
    if (on_receive_) on_receive_(v, payload_);
    for (NodeId child : tree_->children_of(v)) ctx.send_to(child, payload_);
  };
  if (ctx.round() == 0) {
    if (v == tree_->root) forward();
    return;
  }
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type == kDown) forward();
  }
}

// --------------------------------------------------------- convergecast sum

ConvergecastSum::ConvergecastSum(const BfsTree& tree,
                                 std::vector<std::uint64_t> values)
    : tree_(&tree), acc_(std::move(values)) {
  const std::size_t n = acc_.size();
  pending_children_.resize(n);
  sent_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) pending_children_[v] = tree_->child_count(v);
}

void ConvergecastSum::maybe_forward(Context& ctx) {
  const NodeId v = ctx.self();
  if (sent_[v] || pending_children_[v] != 0 || v == tree_->root) return;
  sent_[v] = 1;
  ctx.send_to(tree_->parent[v], Message{kUp, {acc_[v], 0, 0, 0}});
}

void ConvergecastSum::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type != kUp) continue;
    acc_[v] += d.msg.f[0];
    --pending_children_[v];
  }
  maybe_forward(ctx);
}

// --------------------------------------------------- pipelined vector upcast

PipelinedVectorUpcast::PipelinedVectorUpcast(
    const BfsTree& tree, std::vector<std::vector<std::uint64_t>> values)
    : tree_(&tree), acc_(std::move(values)) {
  const std::size_t n = acc_.size();
  if (n == 0) throw std::invalid_argument("PipelinedVectorUpcast: empty");
  k_ = acc_[0].size();
  for (const auto& vec : acc_) {
    if (vec.size() != k_) {
      throw std::invalid_argument("PipelinedVectorUpcast: ragged values");
    }
  }
  entry_pending_.resize(n);
  next_send_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    entry_pending_[v].assign(k_, tree_->child_count(v));
  }
}

void PipelinedVectorUpcast::pump(Context& ctx) {
  const NodeId v = ctx.self();
  if (v == tree_->root) return;
  std::uint32_t& cursor = next_send_[v];
  if (cursor >= k_) return;
  if (entry_pending_[v][cursor] != 0) return;
  // One (index, value) entry per round keeps within the per-edge budget.
  ctx.send_to(tree_->parent[v],
              Message{kEntry, {cursor, acc_[v][cursor], 0, 0}});
  ++cursor;
  if (cursor < k_ && entry_pending_[v][cursor] == 0) ctx.wake_me();
}

void PipelinedVectorUpcast::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type != kEntry) continue;
    const auto index = static_cast<std::size_t>(d.msg.f[0]);
    acc_[v][index] += d.msg.f[1];
    --entry_pending_[v][index];
  }
  pump(ctx);
}

// ------------------------------------------------------ pipelined list upcast

PipelinedListUpcast::PipelinedListUpcast(
    const BfsTree& tree, std::vector<std::vector<Record>> records)
    : tree_(&tree), queue_(std::move(records)) {
  next_send_.assign(queue_.size(), 0);
}

void PipelinedListUpcast::pump(Context& ctx) {
  const NodeId v = ctx.self();
  if (v == tree_->root) return;
  std::size_t& cursor = next_send_[v];
  if (cursor >= queue_[v].size()) return;
  const Record& r = queue_[v][cursor];
  ctx.send_to(tree_->parent[v], Message{kRecord, {r[0], r[1], r[2], 0}});
  ++cursor;
  if (cursor < queue_[v].size()) ctx.wake_me();
}

void PipelinedListUpcast::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type != kRecord) continue;
    queue_[v].push_back(Record{d.msg.f[0], d.msg.f[1], d.msg.f[2]});
  }
  pump(ctx);
}

// -------------------------------------------------------------- token walks

TokenWalkProtocol::TokenWalkProtocol(
    const Graph& g, std::vector<std::vector<WalkToken>> initial_tokens)
    : initial_(std::move(initial_tokens)) {
  if (initial_.size() != g.node_count()) {
    throw std::invalid_argument("TokenWalkProtocol: size mismatch");
  }
  stored_.resize(g.node_count());
}

void TokenWalkProtocol::route(Context& ctx, const WalkToken& token) {
  if (token.remaining == 0) {
    stored_[ctx.self()].push_back(StoredToken{token.source, token.total_len});
    return;
  }
  const auto slot = static_cast<std::uint32_t>(
      ctx.rng().next_below(ctx.degree()));
  ctx.send(slot, Message{kToken,
                         {token.source, token.remaining - 1u,
                          token.total_len, 0}});
}

void TokenWalkProtocol::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    for (const WalkToken& token : initial_[v]) route(ctx, token);
    initial_[v].clear();
    return;
  }
  for (const Delivery& d : ctx.inbox()) {
    if (d.msg.type != kToken) continue;
    route(ctx, WalkToken{static_cast<NodeId>(d.msg.f[0]),
                         static_cast<std::uint32_t>(d.msg.f[1]),
                         static_cast<std::uint32_t>(d.msg.f[2])});
  }
}

// ------------------------------------------------------------------ drivers

BfsTree build_bfs_tree(Network& net, NodeId root, RunStats& stats) {
  BfsTreeProtocol protocol(net.graph(), root);
  stats += net.run(protocol);
  return protocol.take_tree();
}

}  // namespace drw::congest
