// Production ≡ oracle identity for the analysis stack.
//
// libppsc has one path per analysis layer; the seed-era formulations it
// replaced live in tests/reference/ as independent oracles, and this file
// asserts the two *agree* — exhaustively over small protocols, randomly
// over larger ones, on the paper's families, and on a hand-built graph
// whose backward closure has a non-trivial BFS round structure.  Covered
// contracts:
//
//   * ReachabilityGraph successor enumeration (CSR walk vs support ×
//     support probing through rules_for_pair), on full_slice graphs and on
//     explore graphs from IC(i) — compared per node as sets of successor
//     configurations, so node numbering plays no part;
//   * ReachabilityGraph::backward_closure — reverse-CSR worklist vs
//     vector-of-vectors reverse BFS;
//   * StableAnalysis — every configuration of every slice classified as
//     the oracle classifies it;
//   * Verifier::infer_threshold — its only input besides shared SCC code is
//     the explore graphs from IC(2..max), which are checked above; the
//     screening phase is sound: a refuted candidate's exact threshold is
//     always nullopt;
//   * hilbert_basis_equalities / realisable_multiset_basis — identical bases
//     from the incremental-residual completion with scatter rows and the
//     recompute completion with the |Q|·|T| row scan;
//   * bounds::stable_configuration_for_input — identical selections from
//     the one-pass aggregation and the per-component rescan.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bounds/pumping.hpp"
#include "diophantine/realisable.hpp"
#include "protocols/double_exp_threshold.hpp"
#include "protocols/threshold.hpp"
#include "reference/reference.hpp"
#include "stable/stable_sets.hpp"
#include "support/rng.hpp"
#include "verify/reachability.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

/// Every node's successors, as configurations, equal the oracle's successor
/// configurations of the node's configuration.
void expect_successors_match_oracle(const ReachabilityGraph& graph, const std::string& what) {
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        const Config& config = graph.config(static_cast<NodeId>(node));
        std::vector<Config> successors;
        for (const NodeId next : graph.successors(static_cast<NodeId>(node)))
            successors.push_back(graph.config(next));
        std::sort(successors.begin(), successors.end(),
                  [](const Config& a, const Config& b) { return a.counts() < b.counts(); });
        ASSERT_EQ(successors, reference::successor_configs(graph.protocol(), config))
            << what << ", node " << node;
    }
}

/// Backward closures seeded from each output class (the stable-set use),
/// worklist against the oracle's reverse BFS on the same graph.
void expect_closures_match_oracle(const ReachabilityGraph& graph, const std::string& what) {
    const reference::ReverseEdges reverse = reference::reverse_edges(graph);
    for (int b = 0; b < 2; ++b) {
        std::vector<bool> targets(graph.num_nodes(), false);
        for (std::size_t node = 0; node < graph.num_nodes(); ++node)
            targets[node] = graph.protocol().consensus_output(
                                graph.config(static_cast<NodeId>(node))) == b;
        EXPECT_EQ(graph.backward_closure(targets), reference::backward_closure(reverse, targets))
            << what << ", b = " << b;
    }
}

void expect_slice_matches_oracle(const Protocol& protocol, AgentCount population,
                                 const std::string& what) {
    const ReachabilityGraph slice = ReachabilityGraph::full_slice(protocol, population);
    expect_successors_match_oracle(slice, what + ", slice " + std::to_string(population));
    expect_closures_match_oracle(slice, what + ", slice " + std::to_string(population));
}

/// The explore graph from IC(input) — the graph Verifier and the pumping
/// pipeline build — has the oracle's successors everywhere, so its node set
/// is closed under them, and every node is reachable from the root.
void expect_explore_matches_oracle(const Protocol& protocol, AgentCount input,
                                   const std::string& what) {
    const Config roots[] = {protocol.initial_config(input)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(protocol, roots);
    const std::string where = what + ", IC(" + std::to_string(input) + ")";
    expect_successors_match_oracle(graph, where);
    const std::vector<bool> reached = graph.forward_closure(graph.roots()[0]);
    EXPECT_EQ(std::count(reached.begin(), reached.end(), true),
              static_cast<std::ptrdiff_t>(graph.num_nodes()))
        << where;
    expect_closures_match_oracle(graph, where);
}

void expect_stable_sets_match_oracle(const Protocol& protocol, AgentCount max_population,
                                     const std::string& what) {
    const StableAnalysis analysis(protocol, max_population);
    for (AgentCount population = 2; population <= max_population; ++population) {
        for (const auto& [counts, flag] : reference::stability_flags(protocol, population)) {
            EXPECT_EQ(analysis.stability(Config::from_counts(counts)), flag)
                << what << ", population " << population;
        }
    }
}

/// Incremental-residual completion and scatter row assembly against the
/// recompute completion and row scan.  Both walk the identical frontier, so
/// a budget abort (possible for the nastier random systems) must strike
/// both or neither.
void expect_realisable_basis_matches_oracle(const Protocol& protocol, const std::string& what) {
    HilbertOptions options;
    options.max_frontier = 200'000;
    std::optional<RealisableBasis> production, oracle;
    try {
        production = realisable_multiset_basis(protocol, options);
    } catch (const std::length_error&) {
    }
    try {
        oracle = reference::realisable_multiset_basis(protocol, options);
    } catch (const std::length_error&) {
    }
    ASSERT_EQ(production.has_value(), oracle.has_value()) << what;
    if (production) {
        EXPECT_EQ(production->elements, oracle->elements) << what;
        EXPECT_EQ(production->inputs, oracle->inputs) << what;
        EXPECT_EQ(production->results, oracle->results) << what;
    }
}

void expect_layers_match_oracle(const Protocol& protocol, AgentCount max_population,
                                const std::string& what) {
    expect_slice_matches_oracle(protocol, max_population, what);
    for (AgentCount input = 2; input <= max_population; ++input) {
        expect_explore_matches_oracle(protocol, input, what);
        EXPECT_EQ(bounds::stable_configuration_for_input(protocol, input),
                  reference::stable_configuration_for_input(protocol, input))
            << what << ", input " << input;
    }
    expect_stable_sets_match_oracle(protocol, max_population, what);
    expect_realisable_basis_matches_oracle(protocol, what);
}

// Every protocol over 3 states with at most two non-silent transitions and
// every output assignment — the same 3728-protocol space the trap sweep
// covers, run through every analysis layer.
TEST(AnalysisSparse, ExhaustiveThreeStateSweep) {
    struct Candidate {
        StateId p, q, p2, q2;
    };
    std::vector<Candidate> candidates;
    for (StateId p = 0; p < 3; ++p)
        for (StateId q = p; q < 3; ++q)
            for (StateId p2 = 0; p2 < 3; ++p2)
                for (StateId q2 = p2; q2 < 3; ++q2) {
                    if (p == p2 && q == q2) continue;  // silent
                    candidates.push_back({p, q, p2, q2});
                }
    ASSERT_EQ(candidates.size(), 30u);

    std::size_t checked = 0;
    const auto sweep_outputs = [&](const std::vector<Candidate>& transitions) {
        for (int outputs = 0; outputs < 8; ++outputs) {
            ProtocolBuilder b;
            for (StateId s = 0; s < 3; ++s)
                b.add_state("q" + std::to_string(s), (outputs >> s) & 1);
            b.set_input("x", 0);
            for (const Candidate& t : transitions) b.add_transition(t.p, t.q, t.p2, t.q2);
            const Protocol protocol = std::move(b).build();
            expect_layers_match_oracle(protocol, 4, "outputs mask " + std::to_string(outputs));
            ++checked;
        }
    };

    sweep_outputs({});  // zero non-silent pairs
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        sweep_outputs({candidates[i]});
        for (std::size_t j = i + 1; j < candidates.size(); ++j)
            sweep_outputs({candidates[i], candidates[j]});
    }
    EXPECT_EQ(checked, 8u * (1 + 30 + 30 * 29 / 2));
}

// Randomised protocols over 5 states with up to 8 transitions: multi-rule
// pairs, dead states, and graphs big enough that the CSR walk and the
// oracle's support × support probing take genuinely different paths.
TEST(AnalysisSparse, RandomisedFiveStateSweep) {
    Rng rng(0x7a9);
    for (int round = 0; round < 60; ++round) {
        ProtocolBuilder b;
        for (StateId s = 0; s < 5; ++s)
            b.add_state("q" + std::to_string(s), static_cast<int>(rng.below(2)));
        b.set_input("x", 0);
        const int transitions = 1 + static_cast<int>(rng.below(8));
        for (int t = 0; t < transitions; ++t) {
            b.add_transition(static_cast<StateId>(rng.below(5)), static_cast<StateId>(rng.below(5)),
                             static_cast<StateId>(rng.below(5)),
                             static_cast<StateId>(rng.below(5)));
        }
        const Protocol protocol = std::move(b).build();
        expect_layers_match_oracle(protocol, 4, "random round " + std::to_string(round));
    }
}

// The paper's families, where the CSR paths matter most.
TEST(AnalysisSparse, FamiliesAgree) {
    const Protocol unary = protocols::unary_threshold(3);
    const Protocol collector = protocols::collector_threshold(5);
    const Protocol double_exp = protocols::double_exp_threshold(4);
    const Protocol dense = protocols::double_exp_threshold_dense(2);
    expect_slice_matches_oracle(unary, 5, "unary(3)");
    expect_slice_matches_oracle(collector, 4, "collector(5)");
    expect_slice_matches_oracle(double_exp, 4, "double_exp(4)");
    expect_slice_matches_oracle(dense, 4, "double_exp_dense(2)");
    for (AgentCount input = 2; input <= 8; ++input) {
        expect_explore_matches_oracle(unary, input, "unary(3)");
        expect_explore_matches_oracle(collector, input, "collector(5)");
        expect_explore_matches_oracle(double_exp, input, "double_exp(4)");
        expect_explore_matches_oracle(dense, input, "double_exp_dense(2)");
    }

    // Verifier verdicts on unary(3) over inputs 2..8 (their explore graphs
    // are checked above): the exact threshold, and the two-phase inference
    // agreeing with it.
    const Verifier verifier(unary);
    EXPECT_EQ(verifier.infer_threshold(8), AgentCount{3});
    ScreeningOptions screening;
    screening.max_interactions = 4'000;
    EXPECT_EQ(verifier.infer_threshold(8, screening), verifier.infer_threshold(8));

    for (AgentCount input = 2; input <= 6; ++input) {
        EXPECT_EQ(bounds::stable_configuration_for_input(unary, input),
                  reference::stable_configuration_for_input(unary, input))
            << "unary(3), input " << input;
    }
    const Protocol tower_base = protocols::double_exp_threshold(2);
    expect_slice_matches_oracle(tower_base, 4, "double_exp(2)");
    expect_stable_sets_match_oracle(tower_base, 4, "double_exp(2)");
    expect_realisable_basis_matches_oracle(protocols::collector_threshold(2), "collector(2)");
    expect_realisable_basis_matches_oracle(protocols::collector_threshold(3), "collector(3)");
}

// Regression pinning the round structure of the worklist backward closure:
// a three-level chain with a diamond.  The closure is a *set*, so unlike
// the trap fixpoint no order discipline is needed — but the exact expected
// sets are pinned here so a future worklist rewrite that drops nodes (e.g.
// by consuming the visited bit too early) fails loudly rather than only on
// the random sweeps.
TEST(AnalysisSparse, BackwardClosureRegressionOnDiamondChain) {
    // x,y -> z,z ; z,w -> y,y: from {x,y,w,w} the graph branches and
    // re-converges across three BFS levels.
    ProtocolBuilder b;
    const StateId x = b.add_state("x", 0);
    const StateId y = b.add_state("y", 0);
    const StateId z = b.add_state("z", 1);
    const StateId w = b.add_state("w", 1);
    b.set_input("in", x);
    b.add_transition(x, y, z, z);
    b.add_transition(z, w, y, y);
    const Protocol p = std::move(b).build();

    Config root(p.num_states());
    root.set(x, 1);
    root.set(y, 1);
    root.set(w, 2);
    const Config roots[] = {root};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    // {x,y,2w} -> {2z,2w} -> {z,y,w} (twice over: the second z can also
    // react) -> ... the closure of the all-consensus sink must pull in the
    // whole chain; the closure of the root alone contains only the root.
    ASSERT_GE(graph.num_nodes(), 3u);

    std::vector<bool> root_only(graph.num_nodes(), false);
    root_only[static_cast<std::size_t>(graph.roots()[0])] = true;
    const reference::ReverseEdges reverse = reference::reverse_edges(graph);
    const auto from_root = graph.backward_closure(root_only);
    EXPECT_EQ(from_root, reference::backward_closure(reverse, root_only));
    // The root has no predecessors: its backward closure is itself.
    EXPECT_EQ(std::count(from_root.begin(), from_root.end(), true), 1);

    // Seeding from every node with no successors (the sinks) must reach
    // every node: the graph is a finite DAG-plus-cycles where each node
    // can keep firing until it can't.
    std::vector<bool> sinks(graph.num_nodes(), false);
    for (std::size_t node = 0; node < graph.num_nodes(); ++node)
        sinks[node] = graph.successors(static_cast<NodeId>(node)).empty();
    const auto from_sinks = graph.backward_closure(sinks);
    EXPECT_EQ(from_sinks, reference::backward_closure(reverse, sinks));
    EXPECT_EQ(std::count(from_sinks.begin(), from_sinks.end(), true),
              static_cast<std::ptrdiff_t>(graph.num_nodes()));
}

// Laziness contract: constructing a StableAnalysis is free, touching one
// small slice is cheap, and only the queries that genuinely quantify over
// every slice pay for (or trip the budget of) the big ones.
TEST(AnalysisSparse, StableAnalysisIsLazy) {
    const Protocol p = protocols::unary_threshold(2);
    ReachabilityOptions tight;
    tight.max_nodes = 50;  // population 30 over 3 states needs C(32,2) = 496 nodes
    const StableAnalysis analysis(p, 30, tight);

    // Small slices fit the budget and answer correctly.
    EXPECT_EQ(analysis.stable_configs(3, 1).size(), 1u);  // {3·v2}
    Config accept(p.num_states());
    accept.set(*p.find_state("v2"), 4);
    EXPECT_EQ(analysis.stability(accept), Stability::kStable1);

    // All-slice reports force population 30 and must trip the node budget —
    // proof that the constructor and the small queries never materialised it.
    EXPECT_THROW(analysis.stable_counts(1), std::length_error);
    EXPECT_THROW(analysis.downward_closure_violation(), std::length_error);

    // Out-of-range queries are rejected without materialising anything.
    Config too_big(p.num_states());
    too_big.set(*p.find_state("v0"), 31);
    EXPECT_THROW(analysis.stability(too_big), std::invalid_argument);
}

// Screening soundness, exhaustively: whenever phase 1 refutes a candidate,
// the exact threshold is nullopt — and therefore the two-phase
// infer_threshold is result-identical to the exact one.  Same 3-state
// space as above, with a deliberately small interaction budget (soundness
// may not depend on it).
TEST(AnalysisSparse, ScreeningIsSoundOnExhaustiveThreeStateSweep) {
    ScreeningOptions screening;
    screening.runs = 1;
    screening.max_interactions = 1'000;

    std::size_t screened = 0, checked = 0;
    const auto sweep = [&](StateId p, StateId q, StateId p2, StateId q2) {
        for (int outputs = 0; outputs < 8; ++outputs) {
            ProtocolBuilder b;
            for (StateId s = 0; s < 3; ++s)
                b.add_state("q" + std::to_string(s), (outputs >> s) & 1);
            b.set_input("x", 0);
            b.add_transition(p, q, p2, q2);
            const Protocol protocol = std::move(b).build();
            const Verifier verifier(protocol);
            const auto exact = verifier.infer_threshold(5);
            if (verifier.screening_refutes_threshold(5, screening)) {
                ++screened;
                EXPECT_EQ(exact, std::nullopt)
                    << "screening refuted a genuine threshold: outputs mask " << outputs;
            }
            EXPECT_EQ(verifier.infer_threshold(5, screening), exact);
            ++checked;
        }
    };
    for (StateId p = 0; p < 3; ++p)
        for (StateId q = p; q < 3; ++q)
            for (StateId p2 = 0; p2 < 3; ++p2)
                for (StateId q2 = p2; q2 < 3; ++q2) {
                    if (p == p2 && q == q2) continue;
                    sweep(p, q, p2, q2);
                }
    EXPECT_EQ(checked, 8u * 30);
    // The sweep is full of oscillators and mixed-sink protocols; screening
    // must actually catch some of them or phase 1 is dead code.
    EXPECT_GT(screened, 0u);
}

// Hilbert completion against the recompute oracle on raw systems (not just
// protocol-shaped ones), including a system whose completion takes several
// frontier generations.
TEST(AnalysisSparse, HilbertMatchesOracleOnRawSystems) {
    const auto both = [](const HomogeneousSystem& system) {
        EXPECT_EQ(hilbert_basis_equalities(system), reference::hilbert_basis_equalities(system));
        EXPECT_EQ(generating_basis_inequalities(system),
                  reference::generating_basis_inequalities(system));
    };

    // x = y.
    both({2, {{1, -1}}});
    // 2x = 3y: minimal solution (3, 2), several generations out.
    both({2, {{2, -3}}});
    // x + y = 2z with a redundant doubled row.
    both({3, {{1, 1, -2}, {2, 2, -4}}});
    // Empty system: every unit vector is minimal.
    both({3, {}});

    Rng rng(0xd10);
    for (int round = 0; round < 40; ++round) {
        HomogeneousSystem system;
        system.num_vars = 2 + rng.below(3);
        const std::size_t rows = 1 + rng.below(2);
        for (std::size_t i = 0; i < rows; ++i) {
            std::vector<std::int64_t> row(system.num_vars);
            for (auto& a : row) a = static_cast<std::int64_t>(rng.below(5)) - 2;
            system.rows.push_back(std::move(row));
        }
        both(system);
    }
}

}  // namespace
}  // namespace ppsc
