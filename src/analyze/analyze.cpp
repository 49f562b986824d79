#include "analyze/analyze.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/traps.hpp"
#include "support/check.hpp"

namespace ppsc::analyze {

namespace {

/// Pass 2: least interaction-closed superset of the possibly-initial
/// states, via a worklist over the non-silent-pair CSR.  Adding q examines
/// the self pair {q,q} and every pair {q,r} whose partner r is already
/// inside; the pair {q,r} with r joining later is examined from r's side
/// then, so every non-silent pair is examined at most twice.
std::vector<bool> reachable_support_closure(const Protocol& protocol) {
    std::vector<bool> inside(protocol.num_states(), false);
    std::vector<StateId> worklist;
    auto add = [&](StateId q) {
        if (!inside[static_cast<std::size_t>(q)]) {
            inside[static_cast<std::size_t>(q)] = true;
            worklist.push_back(q);
        }
    };
    for (std::size_t x = 0; x < protocol.input_variables().size(); ++x)
        add(protocol.input_state(x));
    for (std::size_t q = 0; q < protocol.num_states(); ++q)
        if (protocol.leaders()[static_cast<StateId>(q)] > 0) add(static_cast<StateId>(q));

    auto fire_pair = [&](Protocol::PairId pair) {
        for (const TransitionId t : protocol.rules_for_pair_id(pair)) {
            const Transition& tr = protocol.transitions()[static_cast<std::size_t>(t)];
            add(tr.post1);
            add(tr.post2);
        }
    };
    while (!worklist.empty()) {
        const StateId q = worklist.back();
        worklist.pop_back();
        if (const Protocol::PairId self = protocol.self_pair(q); self != Protocol::kNoPair)
            fire_pair(self);
        for (const Protocol::PairNeighbor& nb : protocol.pair_neighbors(q))
            if (inside[static_cast<std::size_t>(nb.partner)]) fire_pair(nb.pair);
    }
    return inside;
}

/// True iff v = e_q is a sound invariant basis for unreachability of q:
/// no transition increases the count of q, and q is not possibly initial.
/// Computed for all states in one O(|T|) pass.
std::vector<bool> singleton_invariant_states(const Protocol& protocol) {
    std::vector<bool> eligible(protocol.num_states(), true);
    for (const Transition& tr : protocol.transitions()) {
        // Δt(q) > 0 for exactly the states appearing more often among the
        // posts than among the pres; tally the ≤ 4 involved states.
        const StateId involved[4] = {tr.pre1, tr.pre2, tr.post1, tr.post2};
        for (const StateId q : involved) {
            int delta = 0;
            if (tr.post1 == q) ++delta;
            if (tr.post2 == q) ++delta;
            if (tr.pre1 == q) --delta;
            if (tr.pre2 == q) --delta;
            if (delta > 0) eligible[static_cast<std::size_t>(q)] = false;
        }
    }
    for (std::size_t x = 0; x < protocol.input_variables().size(); ++x)
        eligible[static_cast<std::size_t>(protocol.input_state(x))] = false;
    for (std::size_t q = 0; q < protocol.num_states(); ++q)
        if (protocol.leaders()[static_cast<StateId>(q)] > 0) eligible[q] = false;
    return eligible;
}

/// Pass 1 (exact): generators of the cone {v ∈ N^Q : v·Δt ≤ 0 ∀t},
/// filtered to the input-vanishing, claim-bearing ones.  Row t of the
/// system is −Δt, so A·v ≥ 0 ⇔ v·Δt ≤ 0.
std::vector<std::vector<std::int64_t>> cone_invariants(const Protocol& protocol,
                                                       const HilbertOptions& hilbert) {
    HomogeneousSystem system;
    system.num_vars = protocol.num_states();
    system.rows.reserve(protocol.num_transitions());
    for (const Transition& tr : protocol.transitions()) {
        std::vector<std::int64_t> row(system.num_vars, 0);
        ++row[static_cast<std::size_t>(tr.pre1)];
        ++row[static_cast<std::size_t>(tr.pre2)];
        --row[static_cast<std::size_t>(tr.post1)];
        --row[static_cast<std::size_t>(tr.post2)];
        system.rows.push_back(std::move(row));
    }
    std::vector<std::vector<std::int64_t>> generators =
        generating_basis_inequalities(system, hilbert);
    // Keep the generators that vanish on every input state (so v·IC(m) is
    // the constant v·L) *and* claim at least one state unreachable
    // (∃q: v(q) > v·L) — the rest are conservation laws with no
    // unreachability content.
    std::vector<std::vector<std::int64_t>> claiming;
    for (auto& v : generators) {
        bool input_zero = true;
        for (std::size_t x = 0; x < protocol.input_variables().size() && input_zero; ++x)
            input_zero = v[static_cast<std::size_t>(protocol.input_state(x))] == 0;
        if (!input_zero) continue;
        __int128 initial = 0;
        for (std::size_t q = 0; q < protocol.num_states(); ++q)
            initial += static_cast<__int128>(v[q]) *
                       static_cast<__int128>(protocol.leaders()[static_cast<StateId>(q)]);
        bool claims = false;
        for (std::size_t q = 0; q < protocol.num_states() && !claims; ++q)
            claims = static_cast<__int128>(v[q]) > initial;
        if (claims) claiming.push_back(std::move(v));
    }
    return claiming;
}

}  // namespace

Analysis analyze_protocol(const Protocol& protocol, const AnalysisOptions& options) {
    Analysis analysis;
    const std::size_t num_states = protocol.num_states();
    analysis.unreachable.assign(num_states, false);
    analysis.dead.assign(protocol.num_transitions(), false);

    auto note = [&](Severity severity, const char* code, std::string message, StateId state = -1,
                    TransitionId transition = -1) {
        analysis.diagnostics.push_back(
            Diagnostic{severity, code, std::move(message), state, transition});
    };

    // --- pass 2 first: the closure certificate is the canonical base
    // certificate (index 0), so dead/consensus references stay stable.
    {
        Certificate closure;
        closure.kind = CertificateKind::closure;
        closure.inside = reachable_support_closure(protocol);
        analysis.certificates.push_back(std::move(closure));
    }

    // --- pass 1: invariant certificates.
    std::vector<std::vector<std::int64_t>> invariants;
    if (num_states <= options.cone_state_cap) {
        try {
            invariants = cone_invariants(protocol, options.hilbert);
            analysis.cone_inference_ran = true;
        } catch (const std::length_error&) {
            note(Severity::note, "invariant-budget",
                 "cone inference exceeded its Hilbert budget; falling back to singleton "
                 "invariants (results stay sound, just weaker)");
        }
    }
    if (!analysis.cone_inference_ran) {
        const std::vector<bool> singles = singleton_invariant_states(protocol);
        for (std::size_t q = 0; q < num_states; ++q) {
            if (!singles[q]) continue;
            std::vector<std::int64_t> v(num_states, 0);
            v[q] = 1;
            invariants.push_back(std::move(v));
        }
    }
    if (invariants.size() > options.max_invariants) {
        note(Severity::note, "invariant-truncated",
             "emitting " + std::to_string(options.max_invariants) + " of " +
                 std::to_string(invariants.size()) + " inferred invariants");
        invariants.resize(options.max_invariants);
    }
    for (auto& v : invariants) {
        Certificate invariant;
        invariant.kind = CertificateKind::invariant;
        invariant.coefficients = std::move(v);
        analysis.certificates.push_back(std::move(invariant));
    }

    // Combined unreachability, plus for each state the first certificate
    // proving it (the reference dead/consensus certificates cite).
    std::vector<std::size_t> proof_of(num_states, 0);
    std::vector<bool> proven(num_states, false);
    for (std::size_t c = 0; c < analysis.certificates.size(); ++c) {
        const std::vector<bool> claims =
            claimed_unreachable(analysis.certificates[c], protocol);
        for (std::size_t q = 0; q < num_states; ++q) {
            if (claims[q] && !proven[q]) {
                proven[q] = true;
                proof_of[q] = c;
            }
        }
    }
    analysis.unreachable = proven;

    // --- dead transitions: an unreachable pre-state can never be occupied.
    for (std::size_t t = 0; t < protocol.num_transitions(); ++t) {
        const Transition& tr = protocol.transitions()[t];
        const StateId pre = analysis.unreachable[static_cast<std::size_t>(tr.pre1)] ? tr.pre1
                            : analysis.unreachable[static_cast<std::size_t>(tr.pre2)]
                                ? tr.pre2
                                : StateId{-1};
        if (pre < 0) continue;
        analysis.dead[t] = true;
        Certificate dead;
        dead.kind = CertificateKind::dead;
        dead.transition = static_cast<TransitionId>(t);
        dead.state = pre;
        dead.refs.push_back(proof_of[static_cast<std::size_t>(pre)]);
        analysis.certificates.push_back(std::move(dead));
    }

    // --- pass 3: consensus refutation.
    for (int b = 0; b <= 1; ++b) {
        bool covered = true;
        std::vector<std::size_t> refs;
        for (std::size_t q = 0; q < num_states && covered; ++q) {
            if (protocol.output(static_cast<StateId>(q)) != b) continue;
            if (!analysis.unreachable[q]) {
                covered = false;
                break;
            }
            refs.push_back(proof_of[q]);
        }
        if (!covered) continue;
        std::sort(refs.begin(), refs.end());
        refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
        analysis.consensus_refuted[static_cast<std::size_t>(b)] = true;
        Certificate consensus;
        consensus.kind = CertificateKind::consensus;
        consensus.output = b;
        consensus.refs = std::move(refs);
        analysis.certificates.push_back(std::move(consensus));
    }

    // --- pass 4: lints.
    for (std::size_t q = 0; q < num_states; ++q) {
        if (analysis.unreachable[q])
            note(Severity::note, "unreachable-state",
                 "state '" + protocol.state_name(static_cast<StateId>(q)) +
                     "' is unreachable from every initial configuration",
                 static_cast<StateId>(q));
    }
    for (std::size_t t = 0; t < protocol.num_transitions(); ++t) {
        if (!analysis.dead[t]) continue;
        const Transition& tr = protocol.transitions()[t];
        const StateId pre =
            analysis.unreachable[static_cast<std::size_t>(tr.pre1)] ? tr.pre1 : tr.pre2;
        note(Severity::note, "dead-transition",
             "transition " + std::to_string(t) + " can never fire (pre-state '" +
                 protocol.state_name(pre) + "' is unreachable)",
             -1, static_cast<TransitionId>(t));
    }
    for (int b = 0; b <= 1; ++b) {
        if (analysis.consensus_refuted[static_cast<std::size_t>(b)])
            note(Severity::warning, "output-unreachable",
                 "no reachable configuration can have consensus " + std::to_string(b) +
                     " — every input converges to " + std::to_string(1 - b) +
                     " if it converges at all");
    }
    // Trap lint (sim/traps.hpp): an empty output trap W_b means the
    // simulation engine's trap-based stable-consensus detector can never
    // certify output b; only silence can then witness stabilization.
    for (int b = 0; b <= 1; ++b) {
        if (analysis.consensus_refuted[static_cast<std::size_t>(b)]) continue;
        const std::vector<bool> trap = compute_output_trap(protocol, b);
        if (std::find(trap.begin(), trap.end(), true) == trap.end())
            note(Severity::warning, "trap-empty",
                 "the output trap W_" + std::to_string(b) +
                     " is empty: trap-based stable-consensus detection can never certify "
                     "output " +
                     std::to_string(b));
    }
    for (std::size_t pair = 0; pair < protocol.nonsilent_pairs().size(); ++pair) {
        const auto rules = protocol.rules_for_pair_id(static_cast<Protocol::PairId>(pair));
        if (rules.size() > 1) {
            const auto [p, q] = protocol.nonsilent_pairs()[pair];
            note(Severity::note, "nondeterministic-pair",
                 "pair {" + protocol.state_name(p) + ", " + protocol.state_name(q) + "} has " +
                     std::to_string(rules.size()) + " rules (nondeterministic)",
                 p);
        }
    }
    for (std::size_t q = 0; q < num_states; ++q) {
        if (protocol.leaders()[static_cast<StateId>(q)] <= 0) continue;
        if (protocol.self_pair(static_cast<StateId>(q)) != Protocol::kNoPair) continue;
        bool inert = true;
        for (const Protocol::PairNeighbor& nb :
             protocol.pair_neighbors(static_cast<StateId>(q))) {
            if (!analysis.unreachable[static_cast<std::size_t>(nb.partner)]) {
                inert = false;
                break;
            }
        }
        if (inert)
            note(Severity::warning, "inert-leader",
                 "leader state '" + protocol.state_name(static_cast<StateId>(q)) +
                     "' can never participate in a non-silent interaction",
                 static_cast<StateId>(q));
    }

    return analysis;
}

}  // namespace ppsc::analyze
