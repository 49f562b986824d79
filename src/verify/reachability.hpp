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
// Storage.  Nodes are numbered in BFS intern order and closed in id order.
// Configurations are interned in an open-addressed table of NodeIds (linear
// probing, load ≤ 1/2) keyed by a hash stored per node; a probe compares a
// candidate's counts against configs_[id] in place, so looking up a
// successor builds no Config — one is built only when the node is new.
// Successors go into a forward CSR (offsets + one contiguous target array):
// each node's row is sorted and de-duplicated, and rows are appended as
// nodes close, so exploring a graph allocates at most once per node.
//
// One path per operation: successor enumeration walks the protocol's
// non-silent-pair CSR (`pair_neighbors`/`self_pair` restricted to the
// configuration's support), firing each rule by four count deltas on one
// scratch buffer, and the backward closure runs a round-structured worklist
// over a flat reverse CSR of the graph.  The seed-era formulations they
// replaced — probing every support × support pair through the rule table,
// and a vector-of-vectors reverse BFS — are test oracles in
// tests/reference/, and tests/analysis_sparse_test.cpp asserts both
// operations equal to them on exhaustive small-protocol sweeps, on
// explore() and full_slice() graphs alike.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
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
    std::size_t num_edges() const noexcept { return targets_.size(); }

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

    /// Node holding exactly `counts` (hash `hash`), or -1.
    NodeId lookup(std::span<const AgentCount> counts, std::uint64_t hash) const;
    /// lookup(), adding a new node (with an empty, not yet closed row) when
    /// absent.  Throws std::length_error past options.max_nodes.
    NodeId intern(std::span<const AgentCount> counts, std::uint64_t hash,
                  const ReachabilityOptions& options);
    /// Computes the successor rows of every node not yet closed, in id
    /// order, interning new nodes as they are discovered.
    void close(const ReachabilityOptions& options);
    std::span<const NodeId> row(std::size_t node) const noexcept {
        return {targets_.data() + offsets_[node], targets_.data() + offsets_[node + 1]};
    }
    void build_reverse_csr() const;

    const Protocol* protocol_ = nullptr;
    std::vector<Config> configs_;       // node -> configuration
    std::vector<std::uint64_t> hashes_;  // node -> Config::hash() of its counts
    std::vector<NodeId> slots_;          // intern table: node or -1; size a power of two
    std::vector<NodeId> roots_;

    // Forward and (lazily built) reverse CSR.  Offsets are 64-bit: node ids
    // fit NodeId, but edges are bounded only by nodes × rules, which can
    // pass 2³² (2·10⁶ nodes × a few thousand successors), and a 32-bit
    // offset would wrap silently.
    std::vector<std::size_t> offsets_{0};
    std::vector<NodeId> targets_;
    mutable std::vector<std::size_t> reverse_offsets_;
    mutable std::vector<NodeId> reverse_targets_;
};

}  // namespace ppsc
