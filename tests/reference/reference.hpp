// Seed-era formulations of the analysis layers, kept as test oracles.
//
// libppsc has one production path per analysis layer: the worklist output
// trap (sim/traps.hpp), CSR successor enumeration and the reverse-CSR
// worklist closure (verify/reachability.hpp), one-pass stable-configuration
// selection (bounds/pumping.hpp), and incremental-residual Contejean–Devie
// completion with scatter row assembly (diophantine/).  Each function here
// is the slow, obviously-correct formulation such a path replaced.  The
// oracles are written against public APIs only
// (Protocol::transitions/rules_for_pair, ReachabilityGraph::successors/
// config/compute_sccs), so the equivalence tests compare two independent
// implementations rather than two branches of one.
//
// Nothing here is part of libppsc: the library is `ppsc_reference`, linked
// by the tests and by bench_simulation's `BM_*Reference` rows.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "diophantine/pottier.hpp"
#include "diophantine/realisable.hpp"
#include "stable/stable_sets.hpp"
#include "verify/reachability.hpp"

namespace ppsc::reference {

// --- output traps ------------------------------------------------------------

/// The output trap W_b by full passes over the transition list in ascending
/// id order, evicting both pre-states of every violating transition, until
/// a pass changes nothing.  compute_output_trap must return exactly this.
std::vector<bool> output_trap(const Protocol& protocol, int b);

// --- reachability ------------------------------------------------------------

/// The configurations one interaction turns `config` into, found by probing
/// every support × support pair through Protocol::rules_for_pair; sorted by
/// count vector, deduplicated, `config` itself omitted.
std::vector<Config> successor_configs(const Protocol& protocol, const Config& config);

/// Per-node predecessor lists of `graph`, built from its successor lists.
using ReverseEdges = std::vector<std::vector<NodeId>>;
ReverseEdges reverse_edges(const ReachabilityGraph& graph);

/// All nodes that can reach some node in `targets`: deque BFS over the
/// reverse edges.
std::vector<bool> backward_closure(const ReverseEdges& reverse, const std::vector<bool>& targets);

/// The stability of every configuration of `population` agents, keyed by
/// count vector.  The slice is enumerated here, its edges come from
/// successor_configs, and a configuration is b-stable iff the reverse BFS
/// from Bad_b (found by scanning every state) does not reach it.
std::map<std::vector<AgentCount>, Stability> stability_flags(const Protocol& protocol,
                                                             AgentCount population);

// --- pumping -----------------------------------------------------------------

/// bounds::stable_configuration_for_input by rescanning all nodes once per
/// bottom component: the least-index consensus bottom SCC reachable from
/// IC(input), then its lexicographically least member.
std::optional<Config> stable_configuration_for_input(const Protocol& protocol, AgentCount input,
                                                     const ReachabilityOptions& options = {});

// --- Diophantine bases -------------------------------------------------------

/// Contejean–Devie completion recomputing each frontier vector's residual
/// A·t from scratch; same frontier order and budgets as
/// ppsc::hilbert_basis_equalities.
std::vector<std::vector<std::int64_t>> hilbert_basis_equalities(
    const HomogeneousSystem& system, const HilbertOptions& options = {});

/// ppsc::generating_basis_inequalities over the completion above.
std::vector<std::vector<std::int64_t>> generating_basis_inequalities(
    const HomogeneousSystem& system, const HilbertOptions& options = {});

/// ppsc::realisable_multiset_basis with the |Q|·|T| row scan (every
/// transition's four endpoints interrogated once per state) and the
/// recompute completion.
RealisableBasis realisable_multiset_basis(const Protocol& protocol,
                                          const HilbertOptions& options = {});

/// All ≤-minimal non-zero solutions of A·y = 0 with ∥y∥∞ ≤ cap, by
/// enumerating every vector in [0, cap]^v.
std::vector<std::vector<std::int64_t>> brute_force_minimal_equalities(
    const HomogeneousSystem& system, std::int64_t cap);

}  // namespace ppsc::reference
