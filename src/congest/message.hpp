// The CONGEST message unit, shared by the network simulator and the
// edge-queue arena (kept in its own header so the arena does not depend on
// the full simulator interface).
#pragma once

#include <array>
#include <cstdint>

#include "graph/graph.hpp"

namespace drw::congest {

/// A CONGEST message: type tag + <= 4 payload words (O(log n) bits).
///
/// `lane` identifies which multiplexed protocol instance a message belongs
/// to when several run inside one Network::run (see congest/mux.hpp); the
/// simulator gives every (directed edge, lane) pair its own FIFO so each
/// lane's delivery pacing matches a solo run. Lane ids are bounded by the
/// multiplexing width (O(log n) extra bits); plain single-protocol runs
/// leave it 0.
struct Message {
  std::uint16_t type = 0;
  std::array<std::uint64_t, 4> f{};
  /// Declared last so the ubiquitous `Message{type, {payload...}}`
  /// aggregate initializers stay valid (lane defaults to 0).
  std::uint16_t lane = 0;
};
static_assert(sizeof(Message) <= 48, "Message must stay O(log n) bits");

/// A delivered message together with the neighbor it arrived from (the
/// CONGEST model lets the receiver identify the incoming edge).
struct Delivery {
  Message msg;
  NodeId from = kInvalidNode;
};

}  // namespace drw::congest
