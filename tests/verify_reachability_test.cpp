// Tests for the bounded-population reachability graph and its SCC/closure
// machinery — the semantic foundation of all verification.
#include "verify/reachability.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "protocols/leader.hpp"
#include "protocols/threshold.hpp"
#include "reference/reference.hpp"
#include "support/hash.hpp"

namespace ppsc {
namespace {

/// Two-state one-way epidemic: X,A -> A,A.
Protocol epidemic() {
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId x = b.add_state("X", 0);
    b.set_input("x", x);
    b.add_transition(x, a, a, a);
    return std::move(b).build();
}

/// Oscillator: A,A <-> B,B; never stabilises from {2·A}.
Protocol oscillator() {
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId c = b.add_state("B", 0);
    b.set_input("x", a);
    b.add_transition(a, a, c, c);
    b.add_transition(c, c, a, a);
    return std::move(b).build();
}

TEST(ReachabilityGraph, EpidemicChainIsALine) {
    const Protocol p = epidemic();
    // {4·X, 1·A} -> ... -> {5·A}: five configurations in a line.
    Config root(2);
    root.set(*p.find_state("X"), 4);
    root.set(*p.find_state("A"), 1);
    const Config roots[] = {root};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    EXPECT_EQ(graph.num_nodes(), 5u);
    EXPECT_EQ(graph.num_edges(), 4u);

    const auto scc = graph.compute_sccs();
    EXPECT_EQ(scc.num_components, 5);
    // Exactly one bottom SCC: the all-A configuration.
    int bottoms = 0;
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        const auto comp = static_cast<std::size_t>(scc.component_of[node]);
        if (scc.is_bottom[comp]) {
            ++bottoms;
            EXPECT_EQ(graph.config(static_cast<NodeId>(node))[*p.find_state("A")], 5);
        }
    }
    EXPECT_EQ(bottoms, 1);
}

TEST(ReachabilityGraph, PureInputConfigIsIsolatedWhenSilent) {
    const Protocol p = epidemic();
    // {3·X}: no A agent, nothing ever fires.
    const Config roots[] = {Config::single(2, *p.find_state("X"), 3)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    EXPECT_EQ(graph.num_nodes(), 1u);
    EXPECT_EQ(graph.num_edges(), 0u);
    const auto scc = graph.compute_sccs();
    EXPECT_TRUE(scc.is_bottom[0]);
}

TEST(ReachabilityGraph, OscillatorFormsOneCyclicBottomScc) {
    const Protocol p = oscillator();
    const Config roots[] = {p.initial_config(2)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    EXPECT_EQ(graph.num_nodes(), 2u);
    const auto scc = graph.compute_sccs();
    EXPECT_EQ(scc.num_components, 1);
    EXPECT_TRUE(scc.is_bottom[0]);
}

TEST(ReachabilityGraph, FullSliceEnumeratesAllMultisets) {
    const Protocol p = epidemic();
    // Population 4 over 2 states: 5 multisets.
    const ReachabilityGraph graph = ReachabilityGraph::full_slice(p, 4, {});
    EXPECT_EQ(graph.num_nodes(), 5u);
    // Population 3 over 3 states (unary_threshold(2)): C(5,2) = 10.
    const Protocol t = protocols::unary_threshold(2);
    EXPECT_EQ(ReachabilityGraph::full_slice(t, 3, {}).num_nodes(), 10u);
}

TEST(ReachabilityGraph, FindLocatesConfigs) {
    const Protocol p = epidemic();
    const Config roots[] = {p.initial_config(3)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    EXPECT_TRUE(graph.find(p.initial_config(3)).has_value());
    Config absent(2);
    absent.set(*p.find_state("A"), 3);  // unreachable: no A agent initially
    EXPECT_FALSE(graph.find(absent).has_value());
}

TEST(ReachabilityGraph, ForwardAndBackwardClosures) {
    const Protocol p = epidemic();
    Config root(2);
    root.set(*p.find_state("X"), 2);
    root.set(*p.find_state("A"), 1);
    const Config roots[] = {root};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    ASSERT_EQ(graph.num_nodes(), 3u);

    const NodeId start = graph.roots()[0];
    const auto forward = graph.forward_closure(start);
    EXPECT_EQ(std::count(forward.begin(), forward.end(), true), 3);

    // Backward closure from the final all-A config covers everything.
    Config final_config(2);
    final_config.set(*p.find_state("A"), 3);
    std::vector<bool> targets(graph.num_nodes(), false);
    targets[static_cast<std::size_t>(*graph.find(final_config))] = true;
    const auto backward = graph.backward_closure(targets);
    EXPECT_EQ(std::count(backward.begin(), backward.end(), true), 3);
}

TEST(ReachabilityGraph, ClosuresMatchTheOracle) {
    const Protocol p = protocols::unary_threshold(2);
    const ReachabilityGraph graph = ReachabilityGraph::full_slice(p, 4, {});
    std::size_t oracle_edges = 0;
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        const Config& config = graph.config(static_cast<NodeId>(node));
        oracle_edges += reference::successor_configs(p, config).size();
    }
    EXPECT_EQ(graph.num_edges(), oracle_edges);

    std::vector<bool> targets(graph.num_nodes(), false);
    targets[0] = true;
    targets[graph.num_nodes() / 2] = true;
    EXPECT_EQ(graph.backward_closure(targets),
              reference::backward_closure(reference::reverse_edges(graph), targets));
}

TEST(ReachabilityGraph, ForwardClosureRejectsOutOfRangeStart) {
    const Protocol p = protocols::unary_threshold(2);
    const ReachabilityGraph graph = ReachabilityGraph::full_slice(p, 3, {});
    EXPECT_THROW(graph.forward_closure(-1), std::out_of_range);
    EXPECT_THROW(graph.forward_closure(static_cast<NodeId>(graph.num_nodes())), std::out_of_range);
    const std::vector<bool> last = graph.forward_closure(static_cast<NodeId>(graph.num_nodes() - 1));
    EXPECT_TRUE(last.back());
}

TEST(ReachabilityGraph, NodeBudgetThrowsInsteadOfTruncating) {
    const Protocol p = protocols::unary_threshold(5);
    ReachabilityOptions tight;
    tight.max_nodes = 3;
    const Config roots[] = {p.initial_config(6)};
    EXPECT_THROW(ReachabilityGraph::explore(p, roots, tight), std::length_error);
}

TEST(ReachabilityGraph, RootValidation) {
    const Protocol p = epidemic();
    EXPECT_THROW(ReachabilityGraph::explore(p, {}, {}), std::invalid_argument);
    const Config bad_dim[] = {Config(5)};
    EXPECT_THROW(ReachabilityGraph::explore(p, bad_dim, {}), std::invalid_argument);
    const Config mixed[] = {p.initial_config(2), p.initial_config(3)};
    EXPECT_THROW(ReachabilityGraph::explore(p, mixed, {}), std::invalid_argument);
    EXPECT_THROW(ReachabilityGraph::full_slice(p, 1, {}), std::invalid_argument);
}

TEST(ReachabilityGraph, AgentCountInvariantAcrossAllNodes) {
    const Protocol p = protocols::unary_threshold(3);
    const Config roots[] = {p.initial_config(5)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    for (std::size_t node = 0; node < graph.num_nodes(); ++node)
        EXPECT_EQ(graph.config(static_cast<NodeId>(node)).size(), 5);
}


// --- Graph identity ----------------------------------------------------------
//
// Node numbering is part of the graph's contract: Verifier counterexamples,
// pumping's least members and StableAnalysis flags are all read off node ids.
// These digests pin, per graph, the map node id → counts and node id →
// successor row (plus the node and edge counts), so any change to the
// interning order, the successor enumeration order or the row normalisation
// shows up here.

/// The 4-state busy-beaver witness for η = 4 found by the sampled n = 4
/// search (seed 1, 10⁴ candidates, max_input 12, both screens).
Protocol busy_beaver_witness() {
    ProtocolBuilder b;
    const StateId q0 = b.add_state("q0", 0);
    const StateId q1 = b.add_state("q1", 1);
    const StateId q2 = b.add_state("q2", 0);
    const StateId q3 = b.add_state("q3", 0);
    b.set_input("x", q0);
    b.add_transition(q0, q0, q2, q3);
    b.add_transition(q0, q1, q1, q1);
    b.add_transition(q0, q2, q2, q2);
    b.add_transition(q1, q2, q0, q0);
    b.add_transition(q2, q2, q0, q2);
    b.add_transition(q0, q3, q2, q3);
    b.add_transition(q1, q3, q2, q2);
    b.add_transition(q3, q3, q0, q1);
    return std::move(b).build();
}

struct GraphPin {
    std::size_t nodes;
    std::size_t edges;
    std::uint64_t digest;
};

std::uint64_t fold(std::uint64_t digest, std::int64_t value) {
    return mix64(digest ^ static_cast<std::uint64_t>(value));
}

GraphPin pin_of(const ReachabilityGraph& graph) {
    std::uint64_t digest = 0x243f6a8885a308d3ull;
    for (const NodeId root : graph.roots()) digest = fold(digest, root);
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        const auto id = static_cast<NodeId>(node);
        for (const AgentCount count : graph.config(id).counts()) digest = fold(digest, count);
        const auto row = graph.successors(id);
        digest = fold(digest, static_cast<std::int64_t>(row.size()));
        for (const NodeId target : row) digest = fold(digest, target);
    }
    return {graph.num_nodes(), graph.num_edges(), digest};
}

/// The explore() graphs from IC(2..12), then the full_slice() graphs at
/// populations 3..6.
std::vector<GraphPin> pins_of(const Protocol& protocol) {
    std::vector<GraphPin> pins;
    for (AgentCount i = 2; i <= 12; ++i) {
        const Config roots[] = {protocol.initial_config(i)};
        pins.push_back(pin_of(ReachabilityGraph::explore(protocol, roots)));
    }
    for (AgentCount population = 3; population <= 6; ++population)
        pins.push_back(pin_of(ReachabilityGraph::full_slice(protocol, population)));
    return pins;
}

void expect_pins(const Protocol& protocol, const std::vector<GraphPin>& expected) {
    const std::vector<GraphPin> got = pins_of(protocol);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t g = 0; g < got.size(); ++g) {
        SCOPED_TRACE("graph " + std::to_string(g));
        EXPECT_EQ(got[g].nodes, expected[g].nodes);
        EXPECT_EQ(got[g].edges, expected[g].edges);
        EXPECT_EQ(got[g].digest, expected[g].digest);
    }
}

TEST(ReachabilityGraphIdentity, UnaryThreshold3) {
    expect_pins(protocols::unary_threshold(3), {
        {2, 1, 0xeb74635fc8101642ull},
        {4, 3, 0xf4bbbb6bb2c252edull},
        {8, 9, 0xae40f01f3b85c2bcull},
        {14, 22, 0x03adf6b0cc41bf0dull},
        {23, 46, 0x0b3b8ad8626a7ddfull},
        {35, 86, 0xdf8f70517cfbbd7dull},
        {51, 143, 0x20de239bb1af1f17ull},
        {71, 222, 0x22b6a13fa586a70cull},
        {96, 324, 0x726f8553a4abd511ull},
        {126, 454, 0xd89e499fcedd3b13ull},
        {162, 613, 0xea3d0ec62bab98b4ull},
        {20, 24, 0xe969f2dcf8e726e8ull},
        {35, 60, 0x4ca0bfd0524af0e1ull},
        {56, 120, 0xeebf44f0af0c1b0aull},
        {84, 210, 0xfc20f167244be52bull},
    });
}

TEST(ReachabilityGraphIdentity, BusyBeaverWitness) {
    expect_pins(busy_beaver_witness(), {
        {2, 1, 0xa4f62689220fc50dull},
        {3, 3, 0xf1916a1ac4fed0a3ull},
        {30, 65, 0xe185ca532c2fe8a5ull},
        {51, 139, 0xe7191d1b48e26969ull},
        {79, 249, 0x19627653f60e8195ull},
        {115, 402, 0xd08709169cd68ad0ull},
        {160, 605, 0x8450abbd1660fa10ull},
        {215, 865, 0xe27b509be58d929cull},
        {281, 1189, 0x016187da1fac5ecfull},
        {359, 1584, 0xa2e435b4ccebc798ull},
        {450, 2057, 0xc90c0fe1b3480051ull},
        {20, 31, 0x38adc3d84ed98b8aull},
        {35, 76, 0x8f481ec8c4643d6eull},
        {56, 150, 0xc3dde77f4d80f914ull},
        {84, 260, 0x3d17d237b9781f52ull},
    });
}

TEST(ReachabilityGraphIdentity, LeaderThreshold3) {
    expect_pins(protocols::leader_threshold(3), {
        {3, 2, 0x9e369d99c5ef03e2ull},
        {6, 5, 0x30c36c0d33907b39ull},
        {9, 10, 0x33f4053326d87137ull},
        {12, 15, 0xad195f2887c3845bull},
        {15, 20, 0xb86ad85ddf1e85e6ull},
        {18, 25, 0xd7d91b17d96f7f56ull},
        {21, 30, 0x5033e3d515f854e2ull},
        {24, 35, 0x9eff73ff22ceec34ull},
        {27, 40, 0x0c657e744746b9deull},
        {30, 45, 0x7d91d617c85186feull},
        {33, 50, 0xaeeba86331169609ull},
        {56, 48, 0x1c94b25746aba8e8ull},
        {126, 168, 0x79f964010b5de7aaull},
        {252, 448, 0x1d69addb6bd380a6ull},
        {462, 1008, 0xe1c210d72b6e9059ull},
    });
}

TEST(ReachabilityGraphIdentity, OutOfRangeNodesThrow) {
    const Protocol p = busy_beaver_witness();
    const Config roots[] = {p.initial_config(6)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots);
    const auto past_end = static_cast<NodeId>(graph.num_nodes());
    EXPECT_THROW(graph.successors(-1), std::out_of_range);
    EXPECT_THROW(graph.successors(past_end), std::out_of_range);
    EXPECT_THROW(graph.config(-1), std::out_of_range);
    EXPECT_THROW(graph.config(past_end), std::out_of_range);
}

TEST(ReachabilityGraphIdentity, FindRejectsWrongDimension) {
    const Protocol p = busy_beaver_witness();
    const Config roots[] = {p.initial_config(6)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots);
    EXPECT_FALSE(graph.find(Config::single(3, 0, 6)).has_value());
    EXPECT_FALSE(graph.find(Config::single(5, 0, 6)).has_value());
    EXPECT_EQ(graph.find(p.initial_config(6)), graph.roots()[0]);
}

TEST(ReachabilityGraphIdentity, NodeBudgetIsExact) {
    const Protocol p = busy_beaver_witness();
    const Config roots[] = {p.initial_config(9)};
    const std::size_t nodes = ReachabilityGraph::explore(p, roots).num_nodes();
    ReachabilityOptions options;
    options.max_nodes = nodes - 1;
    EXPECT_THROW(ReachabilityGraph::explore(p, roots, options), std::length_error);
    options.max_nodes = nodes;
    EXPECT_EQ(ReachabilityGraph::explore(p, roots, options).num_nodes(), nodes);

    const std::size_t slice = ReachabilityGraph::full_slice(p, 5).num_nodes();
    options.max_nodes = slice - 1;
    EXPECT_THROW(ReachabilityGraph::full_slice(p, 5, options), std::length_error);
    options.max_nodes = slice;
    EXPECT_EQ(ReachabilityGraph::full_slice(p, 5, options).num_nodes(), slice);
}

}  // namespace
}  // namespace ppsc
