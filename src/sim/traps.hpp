// Output traps: the stable-consensus detector of the simulation layer.
//
// An output trap W_b is a subset of O⁻¹(b) closed under interaction: every
// transition whose both pre-states lie in W_b keeps both post-states in W_b.
// If all agents sit inside W_b, every reachable configuration stays inside,
// so the output is stably b — the core sufficient condition for stable
// consensus in randomized simulation (Esparza's verification survey,
// arXiv:2108.13449, calls this the layered/trap argument).
//
// The fixpoint is a greatest-fixpoint under-approximation: seed with all
// b-output states, and while some transition has both pre-states inside but
// a post-state outside, evict *both* pre-states.  Evicting both is
// conservative (any subset of a trap seeded this way remains sound) and —
// crucially — makes the fixpoint depend on the order in which violating
// transitions are processed.  The order is fixed by the seed-era
// formulation: full passes over the transition list in ascending
// TransitionId order, repeated until a pass changes nothing.  That costs
// O(passes · |T|) with up to Θ(|Q|) passes (eviction chains advance one
// level per pass on the threshold families) — Θ(|Q| · |T|) ≈ 5·10¹⁰
// transition checks on double_exp_threshold(17).
//
// compute_output_trap replays the same eviction sequence from a
// round-structured worklist: round 1 examines every transition in
// ascending id order; evicting a state re-queues only the transitions
// *producing* it (the protocol's transition-incidence index) — into the
// current round when their id is still ahead of the scan, into the next
// round otherwise.  Each round drains in ascending id order, so every
// transition is (re)examined at exactly the positions the pass structure
// would examine it at, and the evictions — hence the trap — are identical,
// not merely equally sound.  Total work O(|T| + Σ_evictions deg_producing),
// with a log factor only on the (few) re-queued ids, i.e. O(|T|) for the
// threshold families: trap setup at |Q| = 131075 takes milliseconds.
//
// The pass structure survives as the test oracle reference::output_trap
// (tests/reference/), and tests/sim_trap_test.cpp asserts the two identical
// on exhaustive small-protocol sweeps and on the E11 family.
#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace ppsc {

/// The output trap W_b ⊆ O⁻¹(b) (indexed by state).  Throws
/// std::invalid_argument unless b is 0 or 1.
std::vector<bool> compute_output_trap(const Protocol& protocol, int b);

}  // namespace ppsc
