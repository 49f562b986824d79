// Bounded-population reachability graphs.
//
// Transitions preserve the number of agents, so for a fixed population size
// N the configuration space is finite: C(N + |Q| - 1, |Q| - 1) multisets.
// This module materialises the reachability graph either from a given set
// of roots (forward exploration) or over the *entire* size-N slice (needed
// by stable-set computations, which quantify over all configurations).
//
// The graph is the semantic ground truth for everything else: fair
// executions of a finite system end up trapped in — and then visit all of —
// a bottom SCC, so "every fair execution from C stabilises to output b" is
// exactly "every bottom SCC reachable from C is a b-consensus SCC".
//
// One path per operation: successor enumeration walks the protocol's
// non-silent-pair CSR (`pair_neighbors`/`self_pair` restricted to the
// configuration's support), and the backward closure runs a
// round-structured worklist over a flat reverse CSR of the graph.  The
// seed-era formulations they replaced — probing every support × support
// pair through the rule table, and a vector-of-vectors reverse BFS — are
// test oracles in tests/reference/, and tests/analysis_sparse_test.cpp
// asserts both operations equal to them on exhaustive small-protocol
// sweeps, on explore() and full_slice() graphs alike.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"

namespace ppsc {

using NodeId = std::int32_t;

struct ReachabilityOptions {
    /// Hard cap on the number of distinct configurations explored; larger
    /// graphs throw std::length_error (verification must never silently
    /// truncate — a wrong verdict is worse than no verdict).
    std::size_t max_nodes = 2'000'000;
};

class ReachabilityGraph {
public:
    /// Forward exploration from the given root configurations (all must
    /// have the same population size).
    static ReachabilityGraph explore(const Protocol& protocol, std::span<const Config> roots,
                                     const ReachabilityOptions& options = {});

    /// The full size-N slice: every configuration of `population` agents.
    static ReachabilityGraph full_slice(const Protocol& protocol, AgentCount population,
                                        const ReachabilityOptions& options = {});

    const Protocol& protocol() const noexcept { return *protocol_; }
    std::size_t num_nodes() const noexcept { return configs_.size(); }
    std::size_t num_edges() const noexcept;

    const Config& config(NodeId node) const { return configs_.at(static_cast<std::size_t>(node)); }

    /// Node of a configuration, if it was explored.
    std::optional<NodeId> find(const Config& config) const;

    /// Outgoing successor nodes (deduplicated; silent self-loops omitted).
    std::span<const NodeId> successors(NodeId node) const;

    /// Nodes of the roots passed to explore() (empty for full_slice).
    std::span<const NodeId> roots() const noexcept { return roots_; }

    /// Strongly connected components in reverse topological order
    /// (component 0 has no successors outside itself ⇒ components are
    /// numbered so that edges go from higher to lower component ids).
    struct SccResult {
        std::vector<std::int32_t> component_of;  // node -> component id
        std::int32_t num_components = 0;
        std::vector<bool> is_bottom;  // component id -> bottom SCC?
    };
    SccResult compute_sccs() const;

    /// All nodes reachable from `start` (forward BFS over the graph).
    /// Throws std::out_of_range unless 0 ≤ start < num_nodes().
    std::vector<bool> forward_closure(NodeId start) const;

    /// All nodes that can reach some node in `targets`: a round-structured
    /// worklist over a lazily built flat reverse CSR (offsets + one
    /// contiguous predecessor array).
    std::vector<bool> backward_closure(const std::vector<bool>& targets) const;

private:
    ReachabilityGraph() = default;

    NodeId intern(const Config& config, const ReachabilityOptions& options,
                  std::vector<NodeId>& frontier);
    void close(const ReachabilityOptions& options, std::vector<NodeId> frontier);
    void build_reverse_csr() const;

    const Protocol* protocol_ = nullptr;
    std::vector<Config> configs_;
    std::unordered_map<Config, NodeId, ConfigHash> index_;
    std::vector<std::vector<NodeId>> adjacency_;  // per-node successor lists
    std::vector<NodeId> roots_;

    // Lazily built reverse edges as a flat CSR (Θ(nodes + edges) in two
    // contiguous arrays, no per-node allocation).
    mutable std::vector<std::uint32_t> reverse_offsets_;
    mutable std::vector<NodeId> reverse_targets_;
};

}  // namespace ppsc
