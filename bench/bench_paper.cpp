// The paper's claims, reproduced and gated: E1-E12.
//
// Each table reproduces one claim of "Efficient distributed random walks
// with applications" (0911.3195: Theorems 2.5, 2.8, 4.1 and 4.6, Lemmas 2.6
// and 2.7, Sections 2.1 and 2.2) or of its lower bound (1102.2906:
// Definition 3.3, Lemma 3.4, Theorems 3.2 and 3.7). Gate lines follow each
// table. A gate checks a shape the paper claims, on round, visit or count
// quantities only: seeds are fixed and results are bit-identical at every
// thread count, so no gate depends on the host. Every bound comes from the
// paper's claim, not from the measured value's noise; E12's constant, which
// the O~ leaves open, sits between two measured serving designs. Every
// gated quantity lands in BENCH_paper.json, and the binary exits non-zero
// if any gate fails. Printed claims that do not reproduce are labelled as
// trajectory and are not gated.
//
//   ./build/bench_paper        # ~20 s on one core
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "apps/mixing.hpp"
#include "apps/rst.hpp"
#include "bench_common.hpp"
#include "congest/network.hpp"
#include "core/random_walks.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/markov.hpp"
#include "graph/spanning.hpp"
#include "lowerbound/gadget.hpp"
#include "lowerbound/path_verification.hpp"
#include "service/walk_service.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace drw;

// Theorem 2.5's exponent of 1/2 in l and in D. The O~ hides polylog factors
// that bend a fit over a finite sweep, so the window is 0.5 +- 0.1. It
// still excludes the PODC'09 exponents (2/3 in l, 1/3 in D) and naive
// forwarding's (1 in l, 0 in D).
constexpr double kSqrtLo = 0.4;
constexpr double kSqrtHi = 0.6;

/// The gated quantities. Each check prints one line, lands in
/// BENCH_paper.json under its key, and counts toward the exit status.
class Gates {
 public:
  void check(const std::string& key, double value, bool ok,
             const std::string& bound) {
    std::printf("gate %s = %.4g (%s): %s\n", key.c_str(), value,
                bound.c_str(), ok ? "PASS" : "FAIL");
    json_.add(key, value);
    if (!ok) failed_.push_back(key);
  }

  /// Gates the log-log slope of y against x on the window [lo, hi];
  /// returns the slope.
  double slope(const std::string& key, const std::string& label,
               const std::vector<double>& x, const std::vector<double>& y,
               double lo, double hi) {
    const bench::SlopeCheck fit = bench::check_slope(label, x, y, lo, hi);
    check(key, fit.slope, fit.in_window,
          "in [" + bench::fmt_double(lo) + ", " + bench::fmt_double(hi) + "]");
    return fit.slope;
  }

  /// Writes BENCH_paper.json and returns the process exit status.
  int finish() {
    json_.add("gates_failed", static_cast<std::uint64_t>(failed_.size()));
    json_.write();
    if (failed_.empty()) {
      std::printf("bench_paper: all gates PASS\n");
      return 0;
    }
    for (const std::string& key : failed_) {
      std::printf("bench_paper: FAIL %s\n", key.c_str());
    }
    return 1;
  }

 private:
  bench::JsonReport json_{"paper"};
  std::vector<std::string> failed_;
};

/// Means over reps 0..reps-1 of the quantities fn(rep) returns as a
/// std::array. Each rep seeds its own Network, so reps are independent.
template <typename Fn>
auto mean_over_reps(int reps, Fn&& fn) {
  using Values = decltype(fn(0));
  std::array<RunningStats, std::tuple_size_v<Values>> stats;
  for (int rep = 0; rep < reps; ++rep) {
    const Values values = fn(rep);
    for (std::size_t i = 0; i < stats.size(); ++i) stats[i].add(values[i]);
  }
  Values means{};
  for (std::size_t i = 0; i < stats.size(); ++i) means[i] = stats[i].mean();
  return means;
}

double rounds_of(const congest::RunStats& stats) {
  return static_cast<double>(stats.rounds);
}

double single_walk_rounds(const Graph& g, std::uint32_t diameter,
                          std::uint64_t l, const core::Params& params,
                          std::uint64_t seed) {
  congest::Network net(g, seed);
  return rounds_of(
      core::single_random_walk(net, 0, l, params, diameter).result.stats);
}

// E1 (Theorem 2.5): rounds to sample one l-step walk, swept over l on three
// fixed low-diameter topologies. Naive token forwarding costs l rounds, the
// PODC 2009 baseline O~(l^{2/3} D^{1/3}) and this paper O~(sqrt(l D)).
void e1_single_walk(Gates& gates) {
  bench::banner("E1 / Theorem 2.5",
                "rounds to sample one l-step walk: naive (l) vs PODC'09 "
                "(l^{2/3} D^{1/3}) vs this paper (sqrt(l D))");
  struct Topology {
    std::string name;
    std::string tag;
    Graph graph;
  };
  Rng rng(2024);
  std::vector<Topology> topologies;
  topologies.push_back(
      {"expander(128,4)", "expander", gen::random_regular(128, 4, rng)});
  topologies.push_back({"torus(12x12)", "torus", gen::torus(12, 12)});
  topologies.push_back(
      {"rgg(128)", "rgg", gen::random_geometric(128, 0.16, rng)});
  for (const Topology& topo : topologies) {
    const std::uint32_t diameter = exact_diameter(topo.graph);
    std::printf("\n-- %s  D=%u  %s --\n", topo.name.c_str(), diameter,
                topo.graph.summary().c_str());
    bench::Table table({"l", "naive", "podc09", "paper", "paper/naive",
                        "sqrt(l*D) (model)"});
    std::vector<double> ls;
    std::vector<double> paper_rounds;
    std::vector<double> podc_rounds;
    // Theorem 2.5's win holds for l >> D: paper < podc09 < naive there.
    int long_rows = 0;
    int ordered_rows = 0;
    for (std::uint64_t l = 256; l <= 32768; l *= 2) {
      const auto [naive, podc, paper] = mean_over_reps(3, [&](int rep) {
        const std::uint64_t seed = 17 + 1000 * rep;
        congest::Network net(topo.graph, seed);
        return std::array{
            rounds_of(core::naive_random_walk(net, 0, l).stats),
            single_walk_rounds(topo.graph, diameter, l,
                               core::Params::podc09(), seed),
            single_walk_rounds(topo.graph, diameter, l,
                               core::Params::paper(), seed)};
      });
      ls.push_back(static_cast<double>(l));
      paper_rounds.push_back(paper);
      podc_rounds.push_back(podc);
      if (l >= 4096) {
        ++long_rows;
        if (paper < podc && podc < naive) ++ordered_rows;
      }
      table.add_row(
          {bench::fmt_u64(l), bench::fmt_double(naive, 0),
           bench::fmt_double(podc, 0), bench::fmt_double(paper, 0),
           bench::fmt_double(paper / naive, 3),
           bench::fmt_double(std::sqrt(static_cast<double>(l) * diameter),
                             0)});
    }
    table.print();
    const double paper_slope =
        gates.slope("e1_paper_slope_" + topo.tag, "paper rounds vs l", ls,
                    paper_rounds, kSqrtLo, kSqrtHi);
    // PODC'09's exponent 2/3 lies between the paper's and naive's (1).
    gates.slope("e1_podc09_slope_" + topo.tag, "podc09 rounds vs l", ls,
                podc_rounds, paper_slope, 1.0);
    gates.check("e1_ordered_rows_" + topo.tag, ordered_rows,
                ordered_rows == long_rows,
                "paper < podc09 < naive on all " + std::to_string(long_rows) +
                    " rows with l >= 4096");
  }
}

// E2 (Theorem 2.5): rounds vs the diameter D at fixed l. Expander chains
// (segments of 4-regular expanders joined by bridges) grow D linearly in the
// segment count while n and the degree stay comparable.
void e2_diameter_sweep(Gates& gates) {
  bench::banner("E2 / Theorem 2.5",
                "rounds vs diameter at fixed l = 8192 (expander chains; "
                "n ~ 128 throughout)");
  bench::Table table({"segments", "n", "D", "paper rounds", "naive rounds",
                      "sqrt(l*D) (model)"});
  const std::uint64_t l = 8192;
  std::vector<double> diameters;
  std::vector<double> rounds_series;
  for (std::size_t segments : {1, 2, 4, 8, 16}) {
    Rng rng(55);
    const Graph g = gen::expander_chain(segments, 128 / segments, 4, rng);
    const std::uint32_t diameter = exact_diameter(g);
    const auto [rounds] = mean_over_reps(3, [&](int rep) {
      return std::array{
          single_walk_rounds(g, diameter, l, core::Params::paper(), 100 + rep)};
    });
    diameters.push_back(diameter);
    rounds_series.push_back(rounds);
    table.add_row({bench::fmt_u64(segments), bench::fmt_u64(g.node_count()),
                   bench::fmt_u64(diameter), bench::fmt_double(rounds, 0),
                   bench::fmt_u64(l),
                   bench::fmt_double(
                       std::sqrt(static_cast<double>(l) * diameter), 0)});
  }
  table.print();
  gates.slope("e2_paper_slope", "paper rounds vs D", diameters,
              rounds_series, kSqrtLo, kSqrtHi);
}

// E3 (Theorem 2.8): k walks from one source in O~(sqrt(k l D) + k) rounds,
// swept over k at fixed l on an expander. The "mode" column shows whether
// the algorithm fell back to k + l naive tokens (lambda(k, l) > l).
void e3_many_walks(Gates& gates) {
  Rng rng(4040);
  const Graph g = gen::random_regular(128, 4, rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::uint64_t l = 4096;
  bench::banner("E3 / Theorem 2.8",
                "k walks of length l = 4096 from one source on "
                "expander(128,4): rounds vs k");
  bench::Table table({"k", "rounds", "mode", "sqrt(klD)+k (model)",
                      "k+l (naive model)"});
  std::vector<double> ks;
  std::vector<double> rounds_series;
  int fallback_rows = 0;
  std::uint64_t first_k_above_naive = 0;
  for (std::uint64_t k = 1; k <= 64; k *= 2) {
    const std::vector<NodeId> sources(k, 0);
    const auto [rounds, fallback] = mean_over_reps(2, [&](int rep) {
      congest::Network net(g, 300 + rep);
      const auto out = core::many_random_walks(
          net, sources, l, core::Params::paper(), diameter);
      return std::array{rounds_of(out.stats),
                        out.used_naive_fallback ? 1.0 : 0.0};
    });
    if (fallback > 0.0) ++fallback_rows;
    if (first_k_above_naive == 0 && rounds > static_cast<double>(k + l)) {
      first_k_above_naive = k;
    }
    ks.push_back(static_cast<double>(k));
    rounds_series.push_back(rounds);
    const double model = std::sqrt(static_cast<double>(k * l * diameter)) +
                         static_cast<double>(k);
    table.add_row({bench::fmt_u64(k), bench::fmt_double(rounds, 0),
                   fallback > 0.0 ? "naive-fallback" : "stitched",
                   bench::fmt_double(model, 0), bench::fmt_u64(k + l)});
  }
  table.print();
  // k walks share one Phase 1, so the cost grows like sqrt(k) (k << lD
  // here). The window's edges sit midway to the exponents of the two
  // baselines Theorem 2.8 beats: k sequential walks (1) and k naive tokens
  // (k + l, ~0).
  gates.slope("e3_slope", "rounds vs k", ks, rounds_series, 0.25, 0.75);
  std::printf("Trajectory (not gated): %d of %zu rows fell back to naive",
              fallback_rows, ks.size());
  if (first_k_above_naive != 0) {
    std::printf("; stitched rounds exceed k+l from k=%llu on",
                static_cast<unsigned long long>(first_k_above_naive));
  }
  std::printf(".\n");
}

// E4 (Lemma 2.6): no node x is visited more than 24 d(x) sqrt(l+1) log n + 1
// times in an l-step walk, on any graph, from any start. We measure
// max_x visits(x)/d(x) over many walks; the sqrt(l) growth is tight on the
// line.
std::vector<std::uint64_t> central_walk_visits(const Graph& g, NodeId source,
                                               std::uint64_t l, Rng& rng) {
  std::vector<std::uint64_t> visits(g.node_count(), 0);
  NodeId at = source;
  ++visits[at];
  for (std::uint64_t i = 0; i < l; ++i) {
    at = g.neighbor(at, static_cast<std::uint32_t>(
                            rng.next_below(g.degree(at))));
    ++visits[at];
  }
  return visits;
}

double max_normalized_visits(const Graph& g, std::uint64_t l, int trials,
                             Rng& rng) {
  double worst = 0.0;
  for (int t = 0; t < trials; ++t) {
    const auto visits = central_walk_visits(g, 0, l, rng);
    for (NodeId x = 0; x < g.node_count(); ++x) {
      worst = std::max(worst, static_cast<double>(visits[x]) /
                                  static_cast<double>(g.degree(x)));
    }
  }
  return worst;
}

void e4_visit_bound(Gates& gates) {
  bench::banner("E4 / Lemma 2.6",
                "max over nodes of visits(x)/d(x) in an l-step walk vs the "
                "24 sqrt(l+1) log n bound (worst of 20 trials)");
  struct Family {
    std::string name;
    Graph graph;
  };
  Rng gen_rng(2024);
  std::vector<Family> families;
  families.push_back({"line(128)", gen::path(128)});
  families.push_back({"star(128)", gen::star(128)});
  families.push_back({"lollipop(32,64)", gen::lollipop(32, 64)});
  families.push_back({"expander(128,4)",
                      gen::random_regular(128, 4, gen_rng)});

  double max_ratio = 0.0;
  for (const Family& family : families) {
    std::printf("\n-- %s --\n", family.name.c_str());
    bench::Table table({"l", "max visits/deg", "bound 24*sqrt(l+1)*log n",
                        "ratio"});
    const double logn =
        std::log2(static_cast<double>(family.graph.node_count()));
    std::vector<double> ls;
    std::vector<double> observed;
    Rng rng(7);
    for (std::uint64_t l = 1024; l <= 65536; l *= 4) {
      const double worst = max_normalized_visits(family.graph, l, 20, rng);
      const double bound =
          24.0 * std::sqrt(static_cast<double>(l + 1)) * logn;
      max_ratio = std::max(max_ratio, worst / bound);
      ls.push_back(static_cast<double>(l));
      observed.push_back(worst);
      table.add_row({bench::fmt_u64(l), bench::fmt_double(worst, 1),
                     bench::fmt_double(bound, 0),
                     bench::fmt_double(worst / bound, 4)});
    }
    table.print();
    // Lemma 2.6's content is the bound. Growth is ~sqrt(l) on the line
    // (the tight case, gated); on rapidly mixing families it heads toward
    // ~l past mixing (visits ~ l * pi(x)), which these sweeps only approach
    // (trajectory).
    if (family.name.substr(0, 4) == "line") {
      gates.slope("e4_line_slope",
                  "max visits/deg vs l (tight case: ~sqrt(l))", ls, observed,
                  kSqrtLo, kSqrtHi);
    } else {
      bench::check_slope(
          "max visits/deg vs l (trajectory: between sqrt(l) and l)", ls,
          observed, 0.5, 1.0);
    }
  }
  gates.check("e4_max_visits_over_bound", max_ratio, max_ratio < 1.0,
              "< 1 on every family and l");
}

// E5 (Lemma 2.7 and Section 2.1's design choice): random short-walk lengths
// in [lambda, 2 lambda) vs fixed length lambda. On a periodic topology
// (cycle), fixed-length short walks resonate: the same nodes recur as
// connectors and exhaust their walk supply, triggering GET-MORE-WALKS.
// Random lengths spread the connectors out.
void e5_connector_ablation(Gates& gates) {
  bench::banner("E5 / Lemma 2.7",
                "connector concentration: fixed-length short walks vs "
                "random lengths in [lambda, 2*lambda)");
  struct Case {
    std::string name;
    std::string tag;
    Graph graph;
    std::uint32_t diameter;
    std::uint64_t l;
    std::uint32_t lambda;
  };
  Rng rng(11);
  std::vector<Case> cases;
  cases.push_back(
      {"cycle(32) l=600 lam=8", "cycle32", gen::cycle(32), 16, 600, 8});
  cases.push_back(
      {"cycle(64) l=1200 lam=16", "cycle64", gen::cycle(64), 32, 1200, 16});
  {
    Graph g = gen::random_regular(64, 4, rng);
    const auto d = exact_diameter(g);
    cases.push_back({"expander(64,4) l=1200 lam=16", "expander64",
                     std::move(g), d, 1200, 16});
  }
  // {max connector visits, GET-MORE-WALKS calls, rounds}, mean of 25 trials.
  auto run_config = [](const Case& c, bool random_lengths) {
    return mean_over_reps(25, [&](int trial) {
      core::Params params =
          random_lengths ? core::Params::paper() : core::Params::podc09();
      params.lambda_override = c.lambda;
      // Hold preparation volume constant across the two arms so only the
      // length randomization differs.
      params.preset = core::Preset::kPaper;
      params.random_lengths = random_lengths;
      congest::Network net(c.graph, 900 + trial);
      core::StitchEngine engine(net, params, c.diameter);
      engine.prepare(1, c.l);
      const auto result = engine.walk(0, c.l, 0);
      return std::array{
          static_cast<double>(engine.max_connector_visits()),
          static_cast<double>(result.counters.get_more_walks_calls),
          rounds_of(result.stats)};
    });
  };

  bench::Table table({"case", "mode", "max connector visits",
                      "GET-MORE-WALKS calls", "rounds"});
  std::vector<std::tuple<std::string, double, double>> ratios;
  for (const Case& c : cases) {
    const auto fixed = run_config(c, false);
    const auto random = run_config(c, true);
    for (const auto& [mode, r] :
         {std::pair{"fixed lambda", fixed},
          std::pair{"random [lam,2lam)", random}}) {
      table.add_row({c.name, mode, bench::fmt_double(r[0], 2),
                     bench::fmt_double(r[1], 2), bench::fmt_double(r[2], 0)});
    }
    ratios.emplace_back(c.tag, random[0] / fixed[0], random[1] / fixed[1]);
  }
  table.print();
  std::printf(
      "Shape check: random lengths should never concentrate connectors "
      "more than fixed lengths, and reduce GET-MORE-WALKS churn on the "
      "periodic cycle.\n");
  for (const auto& [tag, connector, gmw] : ratios) {
    gates.check("e5_connector_random_over_fixed_" + tag, connector,
                connector <= 1.0, "<= 1");
    if (tag.substr(0, 5) == "cycle") {
      gates.check("e5_gmw_random_over_fixed_" + tag, gmw, gmw < 1.0, "< 1");
    }
  }
}

// E6 (Theorems 3.2 and 3.7, Figures 3-5): the path-verification lower bound.
// On the gadget G_n (path plus tree, diameter O(log n)) the interval-merging
// verification needs Omega(sqrt(l / log l)) rounds: rounds >= k >> D, with
// rounds growing polynomially in l while D stays logarithmic.
void e6_path_verification(Gates& gates) {
  using namespace drw::lowerbound;
  bench::banner("E6 / Theorem 3.2",
                "PATH-VERIFICATION on the gadget G_n: measured rounds vs "
                "the Omega(sqrt(l / log l)) lower bound and the O(log n) "
                "diameter");
  bench::Table table({"l", "n", "D", "k=sqrt(l/log l)", "measured rounds",
                      "rounds/k", "intervals@verifier"});
  std::vector<double> ls;
  std::vector<double> rounds_series;
  int verified_rows = 0;
  double min_rounds_over_k = INFINITY;
  double max_d_over_log = 0.0;
  for (std::uint64_t l = 1024; l <= 65536; l *= 4) {
    const Gadget gadget = build_gadget(l);
    congest::Network net(gadget.graph, 7);
    std::vector<NodeId> sequence;
    for (std::uint64_t i = 1; i <= l + 1; ++i) {
      sequence.push_back(gadget.path_node(i));
    }
    const auto result = verify_path(net, sequence, gadget.root());
    const std::uint32_t diameter =
        double_sweep_diameter_estimate(gadget.graph, gadget.root());
    const double rounds_over_k = rounds_of(result.stats) /
                                 static_cast<double>(gadget.k);
    if (result.verified) ++verified_rows;
    min_rounds_over_k = std::min(min_rounds_over_k, rounds_over_k);
    max_d_over_log = std::max(
        max_d_over_log,
        diameter / (4.0 * std::log2(static_cast<double>(
                              gadget.graph.node_count()))));
    ls.push_back(static_cast<double>(l));
    rounds_series.push_back(rounds_of(result.stats));
    table.add_row({bench::fmt_u64(l),
                   bench::fmt_u64(gadget.graph.node_count()),
                   bench::fmt_u64(diameter), bench::fmt_u64(gadget.k),
                   bench::fmt_u64(result.stats.rounds),
                   bench::fmt_double(rounds_over_k, 2),
                   bench::fmt_u64(result.intervals_received_at_verifier)});
  }
  table.print();
  bench::check_slope("measured rounds vs l (trajectory: lower bound ~0.5)",
                     ls, rounds_series, kSqrtLo, kSqrtHi);
  gates.check("e6_verified_rows", verified_rows,
              verified_rows == static_cast<int>(ls.size()),
              "all " + std::to_string(ls.size()) + " rows verified");
  gates.check("e6_min_rounds_over_k", min_rounds_over_k,
              min_rounds_over_k >= 1.0, ">= 1");
  gates.check("e6_max_diameter_over_4log2n", max_d_over_log,
              max_d_over_log <= 1.0, "<= 1");

  std::printf(
      "\nReduction check (Theorem 3.7): weighted gadget forward "
      "probabilities\n");
  const WeightedGadget weighted = build_weighted_gadget(4096);
  double min_p = 1.0;
  for (std::uint64_t i = 1; i <= 4096; ++i) {
    min_p = std::min(min_p, weighted.forward_probability(i));
  }
  const double n = static_cast<double>(weighted.base.graph.node_count());
  std::printf("min forward prob over path = %.10f (needs >= 1 - 1/n^2 = "
              "%.10f)\n",
              min_p, 1.0 - 1.0 / (n * n));
  const double backward_mass = (1.0 - min_p) * n * n;
  gates.check("e6_backward_prob_times_n2", backward_mass,
              backward_mass <= 1.0, "(1 - min forward prob) * n^2 <= 1");
}

// E7 (Theorem 4.1): random spanning trees in O~(sqrt(m D)) rounds.
// E7a sweeps graph size and reports rounds against the covering walk's
// length, which a token-forwarding Aldous-Broder would pay. E7b chi-square
// tests the distributed sampler against the matrix-tree count.
void e7a_rst_rounds(Gates& gates) {
  bench::banner("E7a / Theorem 4.1",
                "distributed RST rounds vs the covering-walk length and the "
                "sqrt(m D) model");
  bench::Table table({"graph", "n", "m", "D", "rounds", "cover length",
                      "rounds/cover", "sqrt(m*D)"});
  struct Case {
    std::string name;
    Graph graph;
  };
  std::vector<Case> cases;
  Rng rng(9);
  for (std::size_t n : {64, 128, 256}) {
    cases.push_back({"expander(" + std::to_string(n) + ",4)",
                     gen::random_regular(n, 4, rng)});
  }
  cases.push_back({"torus(10x10)", gen::torus(10, 10)});
  cases.push_back({"rgg(100)", gen::random_geometric(100, 0.18, rng)});

  std::vector<double> ratios;
  for (const Case& c : cases) {
    const std::uint32_t diameter = exact_diameter(c.graph);
    const auto [rounds, cover] = mean_over_reps(3, [&](int rep) {
      congest::Network net(c.graph, 40 + rep);
      const auto result = apps::random_spanning_tree(
          net, 0, core::Params::paper(), diameter);
      return std::array{rounds_of(result.stats),
                        static_cast<double>(result.cover_length)};
    });
    ratios.push_back(rounds / cover);
    table.add_row(
        {c.name, bench::fmt_u64(c.graph.node_count()),
         bench::fmt_u64(c.graph.edge_count()), bench::fmt_u64(diameter),
         bench::fmt_double(rounds, 0), bench::fmt_double(cover, 0),
         bench::fmt_double(rounds / cover, 2),
         bench::fmt_double(
             std::sqrt(static_cast<double>(c.graph.edge_count()) * diameter),
             0)});
  }
  table.print();
  std::printf("Shape check: rounds/cover falls as the expander grows "
              "(64 -> 128 -> 256) and is below 1 at n=256, where the "
              "paper's win over the covering walk shows. Trajectory (not "
              "gated): rounds/cover < 1 does not reproduce on the smaller "
              "graphs.\n");
  gates.check("e7a_rounds_over_cover_expander128", ratios[1],
              ratios[1] < ratios[0],
              "< expander64's " + bench::fmt_double(ratios[0]));
  gates.check("e7a_rounds_over_cover_expander256", ratios[2],
              ratios[2] < ratios[1] && ratios[2] < 1.0,
              "< 1 and < expander128's " + bench::fmt_double(ratios[1]));
}

void e7b_rst_uniformity(Gates& gates) {
  bench::banner("E7b / Theorem 4.1",
                "uniformity: distributed sampler vs matrix-tree counts "
                "(chi-square p-values; > 0.001 = consistent with uniform)");
  bench::Table table({"graph", "#trees", "samples", "chi2", "p-value"});
  struct Case {
    std::string name;
    Graph graph;
    int samples;
  };
  std::vector<Case> cases;
  cases.push_back({"cycle(4)", gen::cycle(4), 1200});
  cases.push_back({"K4", gen::complete(4), 1600});
  {
    GraphBuilder b(5);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    b.add_edge(3, 4);
    b.add_edge(4, 0);
    b.add_edge(0, 2);
    cases.push_back({"C5+chord", b.build(), 2200});
  }
  double min_p = 1.0;
  for (const Case& c : cases) {
    const double tree_count = count_spanning_trees(c.graph);
    std::map<std::string, std::uint64_t> histogram;
    for (int i = 0; i < c.samples; ++i) {
      congest::Network net(c.graph, 100000 + i);
      const auto result = apps::random_spanning_tree(
          net, 0, core::Params::paper(), exact_diameter(c.graph));
      ++histogram[result.tree.canonical_key()];
    }
    std::vector<std::uint64_t> counts;
    for (const auto& [key, count] : histogram) counts.push_back(count);
    for (std::size_t i = histogram.size();
         i < static_cast<std::size_t>(tree_count); ++i) {
      counts.push_back(0);
    }
    const std::vector<double> expected(counts.size(), 1.0 / tree_count);
    const auto chi = chi_square_test(counts, expected);
    min_p = std::min(min_p, chi.p_value);
    table.add_row({c.name, bench::fmt_double(tree_count, 0),
                   bench::fmt_u64(c.samples),
                   bench::fmt_double(chi.statistic, 2),
                   bench::fmt_double(chi.p_value, 4)});
  }
  table.print();
  gates.check("e7b_min_p_value", min_p, min_p > 0.001, "> 0.001");
}

// E8 (Theorem 4.6): decentralized mixing-time estimation in
// O~(n^{1/2} + n^{1/4} sqrt(D tau_x)) rounds, on families with very
// different mixing (expander: O(log n); odd cycle: Theta(n^2); barbell:
// bottleneck-dominated), against the exact tau of the Markov oracle.
void e8_mixing(Gates& gates) {
  bench::banner("E8 / Theorem 4.6",
                "decentralized tau_x estimate vs exact mixing time");
  bench::Table table({"graph", "n", "D", "exact tau", "estimate", "rounds",
                      "model n^.5+n^.25*sqrt(D*tau)", "rounds/tau"});
  struct Case {
    std::string name;
    Graph graph;
  };
  Rng rng(31);
  std::vector<Case> cases;
  cases.push_back({"expander(64,4)", gen::random_regular(64, 4, rng)});
  cases.push_back({"cycle(33)", gen::cycle(33)});
  cases.push_back({"cycle(65)", gen::cycle(65)});
  cases.push_back({"barbell(12,2)", gen::barbell(12, 2)});
  cases.push_back({"lollipop(16,16)", gen::lollipop(16, 16)});

  double min_est_ratio = INFINITY;
  double max_est_ratio = 0.0;
  double min_rounds_ratio = INFINITY;
  double max_rounds_ratio = 0.0;
  for (const Case& c : cases) {
    const std::uint32_t diameter = exact_diameter(c.graph);
    const MarkovOracle oracle(c.graph);
    const auto exact = oracle.mixing_time_standard(0, 2000000);
    apps::MixingOptions options;
    options.samples = 500;
    congest::Network net(c.graph, 71);
    const auto est = apps::estimate_mixing_time(
        net, 0, core::Params::paper(), diameter, options);
    const double n = static_cast<double>(c.graph.node_count());
    const double tau = exact ? static_cast<double>(*exact) : 0.0;
    const double model =
        std::sqrt(n) +
        std::pow(n, 0.25) * std::sqrt(static_cast<double>(diameter) * tau);
    if (tau > 0.0) {
      const double est_ratio = static_cast<double>(est.tau) / tau;
      const double rounds_ratio = rounds_of(est.stats) / tau;
      min_est_ratio = std::min(min_est_ratio, est_ratio);
      max_est_ratio = std::max(max_est_ratio, est_ratio);
      min_rounds_ratio = std::min(min_rounds_ratio, rounds_ratio);
      max_rounds_ratio = std::max(max_rounds_ratio, rounds_ratio);
    }
    table.add_row(
        {c.name, bench::fmt_u64(c.graph.node_count()),
         bench::fmt_u64(diameter),
         exact ? bench::fmt_u64(*exact) : "n/a", bench::fmt_u64(est.tau),
         bench::fmt_u64(est.stats.rounds), bench::fmt_double(model, 0),
         tau > 0.0 ? bench::fmt_double(rounds_of(est.stats) / tau, 2)
                   : "n/a"});
  }
  table.print();
  std::printf(
      "Derived global metrics on cycle(65): spectral gap and conductance "
      "brackets from the tau estimate --\n");
  const Graph g = gen::cycle(65);
  congest::Network net(g, 72);
  apps::MixingOptions options;
  options.samples = 400;
  const auto est =
      apps::estimate_mixing_time(net, 0, core::Params::paper(), 32, options);
  const MarkovOracle oracle(g);
  const double true_gap = 1.0 - oracle.second_eigenvalue();
  std::printf("gap in [%.5f, %.5f], true %.5f; conductance in "
              "[%.5f, %.5f]\n",
              est.gap_lower, est.gap_upper, true_gap, est.conductance_lower,
              est.conductance_upper);
  std::printf("Shape check: the estimate tracks the exact tau within a "
              "constant factor across orders of magnitude, and the derived "
              "bracket holds the true gap. Trajectory (not gated): rounds "
              "growing far slower than tau does not reproduce at these "
              "sizes (rounds/tau %.0f-%.0f).\n",
              min_rounds_ratio, max_rounds_ratio);
  // The doubling search brackets tau within 2x; 4x either way leaves the
  // sampled closeness test a further factor of 2 of its own slack.
  gates.check("e8_min_estimate_over_tau", min_est_ratio,
              min_est_ratio >= 0.25, ">= 1/4");
  gates.check("e8_max_estimate_over_tau", max_est_ratio,
              max_est_ratio <= 4.0, "<= 4");
  gates.check("e8_cycle65_true_gap", true_gap,
              est.gap_lower <= true_gap && true_gap <= est.gap_upper,
              "in [" + bench::fmt_double(est.gap_lower, 5) + ", " +
                  bench::fmt_double(est.gap_upper, 5) + "]");
}

// E9 (Section 2.2): regenerating the entire walk costs O~(sqrt(l D)) extra
// rounds, the same order as sampling the endpoint alone. The stitched walk
// runs with and without trajectory recording.
void e9_regenerate(Gates& gates) {
  bench::banner("E9 / Section 2.2",
                "walk regeneration surcharge: rounds with full position "
                "regeneration vs endpoint-only");
  Rng rng(21);
  const Graph g = gen::random_regular(96, 4, rng);
  const std::uint32_t diameter = exact_diameter(g);
  bench::Table table({"l", "endpoint-only rounds", "with regen rounds",
                      "regen surcharge", "surcharge/base"});
  double max_ratio = 0.0;
  for (std::uint64_t l = 512; l <= 16384; l *= 2) {
    // Regeneration shares its run with the naive tail, so its surcharge is
    // the whole walk's extra rounds.
    const auto [base, with_regen] = mean_over_reps(3, [&](int rep) {
      core::Params recording = core::Params::paper();
      recording.record_trajectories = true;
      congest::Network net(g, 60 + rep);
      const auto out = core::single_random_walk(net, 0, l, recording, diameter);
      return std::array{
          single_walk_rounds(g, diameter, l, core::Params::paper(), 60 + rep),
          rounds_of(out.result.stats)};
    });
    const double surcharge = with_regen - base;
    max_ratio = std::max(max_ratio, surcharge / base);
    table.add_row({bench::fmt_u64(l), bench::fmt_double(base, 0),
                   bench::fmt_double(with_regen, 0),
                   bench::fmt_double(surcharge, 0),
                   bench::fmt_double(surcharge / base, 3)});
  }
  table.print();
  std::printf("Shape check: the surcharge stays a small fraction of the "
              "base cost at every l (same O~(sqrt(l D)) order).\n");
  // Same order as the base walk: the surcharge never exceeds the base cost.
  gates.check("e9_max_surcharge_over_base", max_ratio, max_ratio <= 1.0,
              "<= 1 at every l");
}

// E10 (Definition 3.3, Figures 3-4, Lemma 3.4): the gadget construction
// itself. Its diameter must stay O(log n) and each side must have at least
// n'/(8k) breakpoints.
void e10_gadget(Gates& gates) {
  using namespace drw::lowerbound;
  bench::banner("E10 / Definition 3.3 + Lemma 3.4",
                "gadget G_n: diameter O(log n) and breakpoint counts vs "
                "the n'/(8k) bound");
  bench::Table table({"l", "n", "k", "k'", "D measured", "4*log2(n)",
                      "left bp", "right bp", "n'/(8k) bound"});
  double min_bp_over_bound = INFINITY;
  bool bp_ok = true;
  double max_d_over_log = 0.0;
  for (std::uint64_t l = 256; l <= 262144; l *= 4) {
    const Gadget gadget = build_gadget(l);
    const auto n = gadget.graph.node_count();
    const std::uint32_t diameter =
        double_sweep_diameter_estimate(gadget.graph, gadget.root());
    const double logn = std::log2(static_cast<double>(n));
    const double bound = static_cast<double>(gadget.path_len) /
                         (8.0 * static_cast<double>(gadget.k));
    const auto left = gadget.left_breakpoints().size();
    const auto right = gadget.right_breakpoints().size();
    const double fewest = static_cast<double>(std::min(left, right));
    // l = 65536 is an exact tie (129 vs 129.0), so compare with >=.
    bp_ok = bp_ok && fewest >= bound;
    min_bp_over_bound = std::min(min_bp_over_bound, fewest / bound);
    max_d_over_log = std::max(max_d_over_log, diameter / (4.0 * logn));
    table.add_row({bench::fmt_u64(l), bench::fmt_u64(n),
                   bench::fmt_u64(gadget.k), bench::fmt_u64(gadget.k_prime),
                   bench::fmt_u64(diameter),
                   bench::fmt_double(4.0 * logn, 1), bench::fmt_u64(left),
                   bench::fmt_u64(right), bench::fmt_double(bound, 1)});
  }
  table.print();
  std::printf("Shape check: D tracks 4 log2 n while n grows 1024x; "
              "breakpoints reach the Lemma 3.4 bound.\n");
  gates.check("e10_min_breakpoints_over_bound", min_bp_over_bound, bp_ok,
              ">= 1 on both sides");
  gates.check("e10_max_diameter_over_4log2n", max_d_over_log,
              max_d_over_log <= 1.0, "<= 1");
}

// E11 (Section 2.1's design choices): ablations of the paper's parameter
// decisions at l = 8192.
//   (a) lambda swept around sqrt(l D) on an expander: Phase 1 cost rises
//       with lambda and stitching cost falls, so the total is smallest near
//       the paper's choice.
//   (b) eta*deg(v) walks per node (paper) vs a flat eta (PODC 2009): the
//       degree-proportional supply keeps GET-MORE-WALKS rare.
void e11a_lambda_sweep(Gates& gates) {
  Rng rng(2);
  const Graph g = gen::random_regular(128, 4, rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::uint64_t l = 8192;
  bench::banner("E11a / Section 2.1",
                "lambda sweep around sqrt(l*D): total rounds split into "
                "Phase 1 / stitching / tail");
  const double lambda_star =
      std::sqrt(static_cast<double>(l) * static_cast<double>(diameter));
  bench::Table table({"lambda", "lambda/sqrt(lD)", "total rounds", "phase1",
                      "stitch", "tail", "stitches"});
  std::map<double, double> total_at;
  for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    core::Params params = core::Params::paper();
    params.lambda_override =
        static_cast<std::uint32_t>(std::max(1.0, scale * lambda_star));
    const auto [total, phase1, stitch, tail, stitches] =
        mean_over_reps(3, [&](int rep) {
          congest::Network net(g, 700 + rep);
          const auto out = core::single_random_walk(net, 0, l, params,
                                                    diameter);
          const core::WalkCounters& counters = out.result.counters;
          return std::array{rounds_of(out.result.stats),
                            static_cast<double>(counters.phase1.rounds),
                            static_cast<double>(counters.phase2.rounds),
                            static_cast<double>(counters.naive_tail_steps),
                            static_cast<double>(counters.stitches)};
        });
    total_at[scale] = total;
    table.add_row({bench::fmt_u64(params.lambda_override),
                   bench::fmt_double(scale, 2), bench::fmt_double(total, 0),
                   bench::fmt_double(phase1, 0), bench::fmt_double(stitch, 0),
                   bench::fmt_double(tail, 0),
                   bench::fmt_double(stitches, 1)});
  }
  table.print();
  double sweep_min = INFINITY;
  for (const auto& [scale, total] : total_at) {
    sweep_min = std::min(sweep_min, total);
  }
  // The model cost lambda + lD/lambda is flat near its optimum (1.25x at
  // half or double lambda), so the measured minimum may sit at a neighbour;
  // the paper's choice must be within 5% of it, and the extremes (2.125x in
  // the model) must cost more.
  const double at_star = total_at[1.0];
  gates.check("e11a_rounds_at_sqrt_lD_over_min", at_star / sweep_min,
              at_star <= 1.05 * sweep_min, "<= 1.05");
  const double extremes = std::min(total_at[0.25], total_at[4.0]) / at_star;
  gates.check("e11a_extremes_over_sqrt_lD", extremes, extremes > 1.0,
              "> 1 at 0.25x and 4x");
}

// E11b serves 32 walks from 32 sources spread over the graph after one
// Phase 1: about 530 stitches. Connectors are visited in proportion to
// degree (Lemma 2.6), so eta*deg(v) tokens run dry at about the same time
// everywhere, after about 2m = 1062 visits, while a flat supply runs dry at
// a hub after about 2m * avg deg / deg(hub), 520 visits at degree 17.
void e11b_eta_ablation(Gates& gates) {
  const std::uint64_t l = 8192;
  constexpr std::uint32_t kWalks = 32;
  bench::banner("E11b / Section 2.1",
                "walk supply allocation on an irregular graph (RGG): one "
                "Phase 1, 32 stitched walks from 32 spread sources. "
                "eta*deg(v) per node (paper) vs a flat eta = average degree "
                "per node (totals differ: see walks prepared) -- flat "
                "under-provisions hubs, which recur as connectors (Lemma "
                "2.6), forcing extra GET-MORE-WALKS invocations");
  Rng rng(6);
  const Graph g = gen::random_geometric(128, 0.16, rng);
  const std::uint32_t diameter = exact_diameter(g);
  const double avg_deg = 2.0 * static_cast<double>(g.edge_count()) /
                         static_cast<double>(g.node_count());
  std::printf("graph: %s  D=%u  avg deg %.1f\n", g.summary().c_str(),
              diameter, avg_deg);
  bench::Table table({"supply", "walks prepared", "GET-MORE-WALKS calls",
                      "total rounds"});
  std::map<bool, double> gmw_of;
  for (const bool degree_proportional : {true, false}) {
    core::Params params = core::Params::paper();
    params.degree_proportional = degree_proportional;
    if (!degree_proportional) params.eta = avg_deg;
    const auto [prepared, gmw, rounds] = mean_over_reps(6, [&](int rep) {
      congest::Network net(g, 800 + rep);
      core::StitchEngine engine(net, params, diameter);
      engine.prepare(1, l);
      std::array<double, 3> totals{};
      for (std::uint32_t w = 0; w < kWalks; ++w) {
        // 53 is odd, so the walks start at 32 distinct nodes.
        const auto source = static_cast<NodeId>((53 * w) % g.node_count());
        const auto out = engine.walk(source, l, w);
        totals[0] += static_cast<double>(out.counters.walks_prepared);
        totals[1] += static_cast<double>(out.counters.get_more_walks_calls);
        totals[2] += rounds_of(out.stats);
      }
      return totals;
    });
    gmw_of[degree_proportional] = gmw;
    table.add_row({degree_proportional ? "eta*deg(v)" : "flat eta=avg deg",
                   bench::fmt_double(prepared, 0), bench::fmt_double(gmw, 2),
                   bench::fmt_double(rounds, 0)});
  }
  table.print();
  gates.check("e11b_gmw_degree_over_flat", gmw_of[true] / gmw_of[false],
              gmw_of[true] <= gmw_of[false], "<= 1");
}

// E12 (Theorem 2.8 on the service path): MANY-RANDOM-WALKS's
// O~(sqrt(k l D) + k) bound for batches served by WalkService from its
// persistent inventory. Each k serves kBatches batches on an expander: k/2
// walks from one hot source and k/2 one-walk requests from random sources
// (the first records its path). The Phase-1 batch is reported apart; the
// ratio is the mean cost of the later batches -- top-ups, stitches, tails
// and regeneration -- over sqrt(k l D) + k. A batch's top-ups share one
// GET-MORE-WALKS run, and its tails and regeneration one finishing run, so
// each of those O(lambda) phases is paid once per batch. Run per topped-up
// source and with regeneration apart from the tails, the same batches read
// 6.55x to 8.33x; with one run each they read 3.77x to 4.36x. The gate sits
// between the two.
void e12_service_batches(Gates& gates) {
  Rng rng(12);
  const Graph g = gen::random_regular(512, 4, rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::uint64_t l = 1024;
  constexpr int kBatches = 200;
  bench::banner("E12 / Theorem 2.8 via WalkService",
                "per-batch rounds of k served walks of length l = 1024 on "
                "expander(512,4) against sqrt(k l D) + k");
  bench::Table table({"k", "lambda", "phase-1 batch rounds",
                      "later batch rounds", "top-ups/batch",
                      "sqrt(klD)+k (model)", "later/model"});
  double max_ratio = 0.0;
  for (const std::uint32_t k : {4u, 8u, 12u, 16u}) {
    congest::Network net(g, 1200 + k);
    service::ServiceConfig config;
    config.enable_paths = true;
    service::WalkService service(net, diameter, config);
    Rng traffic(k);
    std::uint64_t first = 0;
    std::uint64_t later = 0;
    const auto hot = static_cast<NodeId>(traffic.next_below(g.node_count()));
    for (int batch = 0; batch < kBatches; ++batch) {
      std::vector<service::WalkRequest> requests = {
          service::WalkRequest{hot, l, k / 2, false}};
      for (std::uint32_t r = k / 2; r < k; ++r) {
        requests.push_back(service::WalkRequest{
            static_cast<NodeId>(traffic.next_below(g.node_count())), l, 1,
            r == k / 2});
      }
      const service::BatchReport report = service.serve(requests);
      (batch == 0 ? first : later) += report.stats.rounds;
    }
    const double mean_later =
        static_cast<double>(later) / static_cast<double>(kBatches - 1);
    const double model = std::sqrt(static_cast<double>(k * l * diameter)) +
                         static_cast<double>(k);
    max_ratio = std::max(max_ratio, mean_later / model);
    table.add_row(
        {bench::fmt_u64(k), bench::fmt_u64(service.engine().lambda()),
         bench::fmt_u64(first), bench::fmt_double(mean_later, 0),
         bench::fmt_double(
             static_cast<double>(service.lifetime().replenishments) /
                 static_cast<double>(kBatches - 1),
             1),
         bench::fmt_double(model, 0),
         bench::fmt_double(mean_later / model, 2)});
  }
  table.print();
  gates.check("e12_service_batch_rounds_over_model", max_ratio,
              max_ratio <= 5.5, "<= 5.5");
}

}  // namespace

int main() {
  Gates gates;
  e1_single_walk(gates);
  e2_diameter_sweep(gates);
  e3_many_walks(gates);
  e4_visit_bound(gates);
  e5_connector_ablation(gates);
  e6_path_verification(gates);
  e7a_rst_rounds(gates);
  e7b_rst_uniformity(gates);
  e8_mixing(gates);
  e9_regenerate(gates);
  e10_gadget(gates);
  e11a_lambda_sweep(gates);
  e11b_eta_ablation(gates);
  e12_service_batches(gates);
  return gates.finish();
}
