#include "apps/search.hpp"

#include <algorithm>
#include <limits>

#include "congest/primitives.hpp"
#include "core/random_walks.hpp"

namespace drw::apps {

namespace {

/// Convergecast of the earliest (step, holder) hit: each node combines its
/// local hit (if its store holds the key and a walk visited it) with its
/// children's reports; the root learns the first hit. One message per tree
/// edge: O(height) rounds.
class FirstHitConvergecast final : public congest::Protocol {
 public:
  FirstHitConvergecast(const congest::BfsTree& tree,
                       std::vector<std::uint64_t> local_hit_step)
      : tree_(&tree), best_step_(std::move(local_hit_step)),
        best_holder_(best_step_.size(), kInvalidNode),
        pending_(best_step_.size()), sent_(best_step_.size(), 0) {
    for (std::size_t v = 0; v < best_step_.size(); ++v) {
      if (best_step_[v] != kNoHit) best_holder_[v] = static_cast<NodeId>(v);
      pending_[v] = tree_->child_count(static_cast<NodeId>(v));
    }
  }

  static constexpr std::uint64_t kNoHit =
      std::numeric_limits<std::uint64_t>::max();

  void on_round(congest::Context& ctx) override {
    const NodeId v = ctx.self();
    for (const congest::Delivery& d : ctx.inbox()) {
      if (d.msg.type != kReport) continue;
      if (d.msg.f[0] < best_step_[v]) {
        best_step_[v] = d.msg.f[0];
        best_holder_[v] = static_cast<NodeId>(d.msg.f[1]);
      }
      --pending_[v];
    }
    if (!sent_[v] && pending_[v] == 0 && v != tree_->root) {
      sent_[v] = 1;
      ctx.send_to(tree_->parent[v],
                  congest::Message{kReport,
                                   {best_step_[v], best_holder_[v], 0, 0}});
    }
  }

  std::uint64_t root_step() const { return best_step_[tree_->root]; }
  NodeId root_holder() const { return best_holder_[tree_->root]; }

 private:
  enum MsgType : std::uint16_t { kReport = 95 };
  const congest::BfsTree* tree_;
  std::vector<std::uint64_t> best_step_;
  std::vector<NodeId> best_holder_;
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint8_t> sent_;
};

}  // namespace

SearchResult random_walk_search(
    congest::Network& net, NodeId source, std::uint64_t key,
    const std::vector<std::vector<std::uint64_t>>& replicas,
    const core::Params& params, std::uint32_t diameter,
    const SearchOptions& options) {
  const Graph& g = net.graph();
  const std::size_t n = g.node_count();
  const std::uint64_t l = options.walk_length != 0
                              ? options.walk_length
                              : 4ull * n;

  // 1. k walks with position regeneration so every node knows if/when it
  //    was visited.
  core::Params walk_params = params;
  walk_params.record_trajectories = true;
  const std::vector<NodeId> sources(options.walks, source);
  const core::ManyWalksOutput walks =
      core::many_random_walks(net, sources, l, walk_params, diameter);

  SearchResult result;
  result.stats += walks.stats;
  result.walk_rounds = walks.stats.rounds;

  // 2. Node-local hit detection: earliest visit step among nodes holding
  //    the key (walk index breaks ties implicitly through the step value).
  std::vector<std::uint64_t> local_hit(n, FirstHitConvergecast::kNoHit);
  for (NodeId v = 0; v < n; ++v) {
    const auto& store = replicas[v];
    if (std::find(store.begin(), store.end(), key) == store.end()) continue;
    for (const core::WalkPosition& p : walks.positions[v]) {
      local_hit[v] = std::min(local_hit[v], p.step);
    }
  }

  // 3. Report the first hit back to the querying node.
  congest::BfsTree tree = congest::build_bfs_tree(net, source, result.stats);
  FirstHitConvergecast report(tree, std::move(local_hit));
  result.stats += net.run(report);

  if (report.root_step() != FirstHitConvergecast::kNoHit) {
    result.found = true;
    result.holder = report.root_holder();
    result.first_hit_step = report.root_step();
  }
  return result;
}

}  // namespace drw::apps
