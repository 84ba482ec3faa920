#include "service/batch_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "congest/mux.hpp"
#include "obs/trace.hpp"

namespace drw::service {

namespace {

congest::RunStats lane_run_stats(const congest::ProtocolMux::LaneStats& ls) {
  congest::RunStats stats;
  stats.rounds = ls.rounds;
  stats.messages = ls.messages;
  return stats;
}

}  // namespace

std::vector<BatchScheduler::Unit> BatchScheduler::plan(
    std::span<const WalkRequest> requests, std::uint32_t first_walk_id) {
  std::vector<Unit> units;
  for (std::uint32_t r = 0; r < requests.size(); ++r) {
    for (std::uint32_t s = 0; s < requests[r].count; ++s) {
      units.push_back(Unit{r, s, 0, requests[r].source, requests[r].length,
                           requests[r].record_positions});
    }
  }
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) {
                     return a.length > b.length;
                   });
  // Walk ids are assigned AFTER sorting so id - first_walk_id indexes the
  // execution order (used to map deferred-tail outcomes back to units).
  for (std::uint32_t i = 0; i < units.size(); ++i) {
    units[i].walk_id = first_walk_id + i;
  }
  return units;
}

void BatchScheduler::stitch(std::span<const Unit> units,
                            const MuxOptions& mux, Outcome& out) {
  congest::Network& net = engine_->network();
  const Graph& g = net.graph();
  const unsigned width = std::clamp<unsigned>(mux.width, 1,
                                              congest::Network::kMaxLanes);

  struct OpenTask {
    core::StitchEngine::WalkTask task;
    const Unit* unit;
  };
  std::vector<OpenTask> open;  // lane priority: oldest first
  open.reserve(width);
  std::size_t next_unit = 0;

  // Harvest finished tasks into the outcome and top the lanes back up
  // (tasks of walks shorter than 2*lambda finish at creation, so the two
  // steps iterate to a fixed point).
  const auto harvest_and_refill = [&] {
    for (;;) {
      bool progressed = false;
      for (std::size_t i = 0; i < open.size();) {
        if (!open[i].task.finished()) {
          ++i;
          continue;
        }
        const core::WalkResult& walk = open[i].task.result();
        const Unit& u = *open[i].unit;
        RequestResult& result = out.results[u.request_index];
        result.destinations[u.slot] = walk.destination;
        result.stats += walk.stats;
        result.counters += walk.counters;
        out.counters += walk.counters;
        // Phase-1 cost is attributed once (the first task absorbed the
        // engine's pending stats); the stitch traversals themselves are
        // charged per wave run below, which is where the round sharing
        // shows up at batch level.
        out.stats += walk.counters.phase1;
        open.erase(open.begin() + i);
        progressed = true;
      }
      while (open.size() < width && next_unit < units.size()) {
        const Unit& u = units[next_unit++];
        open.push_back(OpenTask{
            engine_->start_walk_task(u.source, u.length, u.walk_id, u.record),
            &u});
        progressed = true;
      }
      if (!progressed) return;
    }
  };

  harvest_and_refill();
  std::vector<std::size_t> group;
  std::vector<NodeId> claimed;
  while (!open.empty()) {
    // Build this wave's group: a task joins unless its connector was
    // already claimed this wave (then it waits a wave) -- token pools are
    // keyed by connector, so equal connectors are exactly the conflict.
    // Tasks holding a sampled, uncommitted token claim first -- otherwise
    // an older task reaching the same connector could sample that token
    // again before the commit marks it used. Then the rest claim oldest
    // first; the first claimant always enters, so the schedule cannot
    // stall.
    group.clear();
    claimed.clear();
    for (const bool holders : {true, false}) {
      for (std::size_t i = 0; i < open.size(); ++i) {
        if (open[i].task.holds_token() != holders) continue;
        const NodeId c = open[i].task.connector();
        if (std::find(claimed.begin(), claimed.end(), c) != claimed.end()) {
          ++out.mux_conflicts;
          continue;
        }
        claimed.push_back(c);
        group.push_back(i);
      }
    }
    ++out.mux_groups;
    out.mux_lanes += group.size();
    obs::Span wave_span(obs::Name::kStitchWave, obs::kPidService, 0,
                        group.size());

    if (mux.mode == MuxMode::kMux && group.size() > 1) {
      congest::ProtocolMux pmux(g.node_count());
      for (const std::size_t idx : group) {
        pmux.add_lane(open[idx].task.protocol(),
                      &open[idx].task.lane_rngs());
      }
      // Lane occupancy spans: the whole wave shares one Network run, so
      // each admitted walk's span brackets that run on its own lane track
      // (arg = walk id). Attribution WITHIN the run is the per-round
      // lane.round instants emitted by ProtocolMux.
      if (obs::trace_enabled()) {
        for (unsigned lane = 0; lane < group.size(); ++lane) {
          obs::event(obs::Name::kWalkLane, 'B', obs::kPidMux,
                     static_cast<std::uint16_t>(lane),
                     open[group[lane]].unit->walk_id);
        }
      }
      const congest::RunStats stats =
          net.run_multiplexed(pmux, static_cast<unsigned>(group.size()));
      if (obs::trace_enabled()) {
        for (unsigned lane = 0; lane < group.size(); ++lane) {
          obs::event(obs::Name::kWalkLane, 'E', obs::kPidMux,
                     static_cast<std::uint16_t>(lane));
        }
      }
      engine_->absorb_stats(stats);
      out.stats += stats;
      for (unsigned lane = 0; lane < group.size(); ++lane) {
        open[group[lane]].task.advance(
            lane_run_stats(pmux.lane_stats(lane)));
      }
    } else {
      // One-lane waves, and every lane under kSerial: each task runs solo
      // on its own streams -- bit-identical to a mux lane.
      for (const std::size_t idx : group) {
        obs::event(obs::Name::kWalkLane, 'B', obs::kPidMux, 0,
                   open[idx].unit->walk_id);
        out.stats += open[idx].task.step_solo();
        obs::event(obs::Name::kWalkLane, 'E', obs::kPidMux, 0);
      }
    }
    harvest_and_refill();
  }
}

BatchScheduler::Outcome BatchScheduler::run(
    std::span<const WalkRequest> requests, std::uint32_t first_walk_id,
    const MuxOptions& mux) {
  Outcome out;
  out.results.resize(requests.size());
  for (std::uint32_t r = 0; r < requests.size(); ++r) {
    out.results[r].request = requests[r];
    out.results[r].destinations.assign(requests[r].count, kInvalidNode);
  }

  std::vector<Unit> units = plan(requests, first_walk_id);
  out.walks = units.size();

  stitch(units, mux, out);

  // One concurrent run finishes every deferred tail.
  const core::StitchEngine::TailOutcome tails = engine_->run_deferred_tails();
  out.tail_stats = tails.stats;
  out.stats += tails.stats;
  for (std::size_t t = 0; t < tails.walk_ids.size(); ++t) {
    const std::uint32_t index = tails.walk_ids[t] - first_walk_id;
    if (index >= units.size()) {
      throw std::logic_error("BatchScheduler: stray deferred tail");
    }
    const Unit& u = units[index];
    out.results[u.request_index].destinations[u.slot] = tails.destinations[t];
  }

  // Batched regeneration of every stitched segment.
  out.regen_stats = engine_->run_deferred_regen();
  out.stats += out.regen_stats;
  out.counters.regen += out.regen_stats;

  // Path extraction: drain the engine's position table and invert it into
  // per-unit node sequences for the units that asked.
  const bool any_record =
      std::any_of(units.begin(), units.end(),
                  [](const Unit& u) { return u.record; });
  if (any_record) {
    const core::PositionTable positions = engine_->drain_positions();
    std::vector<std::vector<NodeId>*> paths(units.size(), nullptr);
    for (const Unit& u : units) {
      if (!u.record) continue;
      RequestResult& result = out.results[u.request_index];
      if (result.paths.empty()) {
        result.paths.resize(result.request.count);
      }
      result.paths[u.slot].assign(u.length + 1, kInvalidNode);
      paths[u.walk_id - first_walk_id] = &result.paths[u.slot];
    }
    for (NodeId v = 0; v < positions.size(); ++v) {
      for (const core::WalkPosition& p : positions[v]) {
        const std::uint32_t index = p.walk - first_walk_id;
        if (index >= units.size() || paths[index] == nullptr) continue;
        if (p.step < paths[index]->size()) (*paths[index])[p.step] = v;
      }
    }
  }
  return out;
}

}  // namespace drw::service
