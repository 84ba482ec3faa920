// Parameterization of the stitched random-walk algorithms.
//
// The paper's algorithm (Theorem 2.5) sets lambda = 24*sqrt(l*D)*(log n)^3
// and eta = 1 with eta*deg(v) short walks prepared per node. Its PODC 2009
// predecessor (Section 2.1's recap) uses fixed-length short walks, a flat
// eta per node, and balances lambda = l^{1/3} D^{2/3}, eta = (l/D)^{1/3}
// for an O~(l^{2/3} D^{1/3}) bound. Both are expressed as presets of one
// Params struct so ablations (bench_paper's E11 tables) can toggle a single
// knob at a time.
//
// The theory constants exceed l itself for any simulatable n, so the default
// presets drop the polylog factor (`lambda_scale` multiplies sqrt(l*D)); the
// algorithms stay Las Vegas regardless -- parameter choice only affects the
// round count, never the output distribution. Pass `theory_constants = true`
// to reproduce the paper's literal choice.
#pragma once

#include <cstdint>

#include "graph/transition.hpp"

namespace drw::core {

enum class Preset : std::uint8_t {
  kPaper,   ///< PODC 2010: random lengths in [lambda, 2*lambda), eta*deg(v)
  kPodc09,  ///< PODC 2009 baseline: fixed length lambda, flat eta per node
};

struct Params {
  Preset preset = Preset::kPaper;

  /// Markov chain the walk follows (Section 1.3 notes the framework extends
  /// beyond the simple walk; kLazy makes mixing well-defined on bipartite
  /// graphs, kMetropolisUniform removes degree bias from node sampling).
  /// Walk regeneration (record_trajectories) currently requires kSimple.
  TransitionModel transition = TransitionModel::kSimple;

  /// Multiplier applied to the preset's lambda formula.
  double lambda_scale = 1.0;

  /// Walks prepared per node in Phase 1: eta * deg(v) for the paper preset,
  /// eta for podc09 (Algorithm 1 header / Section 2.1).
  double eta = 1.0;

  /// Random short-walk lengths in [lambda, 2*lambda) (the paper's key fix
  /// for connector periodicity, Lemma 2.7). podc09 uses fixed lambda.
  bool random_lengths = true;

  /// Paper preset only: prepare eta * deg(v) walks per node (Algorithm 1
  /// header). Set false (bench_paper's E11b ablation) to prepare a flat eta
  /// per node instead -- under-provisioning high-degree nodes, which the
  /// walk visits proportionally more often (Lemma 2.6).
  bool degree_proportional = true;

  /// Use the paper's literal constants (24 sqrt(lD) (log n)^3 etc.).
  bool theory_constants = false;

  /// Record walk trajectories so the full walk can be regenerated
  /// (Section 2.2); costs memory proportional to total token hops.
  bool record_trajectories = false;

  /// Fixed lambda override (0 = use the preset formula).
  std::uint32_t lambda_override = 0;

  static Params paper() { return Params{}; }

  static Params podc09() {
    Params p;
    p.preset = Preset::kPodc09;
    p.random_lengths = false;
    return p;
  }

  /// Short-walk length lambda for a single walk of length l on a graph with
  /// n nodes and diameter D (Theorem 2.5 parameterization).
  std::uint32_t lambda_single(std::uint64_t l, std::uint32_t diameter,
                              std::size_t n) const;

  /// Lambda for k simultaneous walks (MANY-RANDOM-WALKS parameterization).
  std::uint32_t lambda_many(std::uint64_t k, std::uint64_t l,
                            std::uint32_t diameter, std::size_t n) const;

  /// Number of Phase-1 walks prepared by a node of degree `deg` for a
  /// target walk of length l on a graph of diameter D. The paper preset
  /// prepares eta * deg(v) walks (eta = 1 suffices by Theorem 2.5); the
  /// PODC 2009 preset prepares a flat eta_09 = eta * (l / D)^{1/3} walks per
  /// node, the balance that yields its O~(l^{2/3} D^{1/3}) bound.
  std::uint32_t walks_per_node(std::uint32_t deg, std::uint64_t l,
                               std::uint32_t diameter) const;

  /// Number of fresh walks GET-MORE-WALKS creates (Algorithm 2: floor(l /
  /// lambda) for the paper preset; eta_09 for podc09).
  std::uint32_t get_more_walks_count(std::uint64_t l, std::uint32_t lambda,
                                     std::uint32_t diameter) const;
};

}  // namespace drw::core
