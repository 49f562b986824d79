#include "sim/traps.hpp"

#include <functional>
#include <queue>
#include <stdexcept>

#include "support/check.hpp"

namespace ppsc {

namespace {

std::vector<bool> seed_trap(const Protocol& protocol, int b) {
    const std::size_t n = protocol.num_states();
    std::vector<bool> trap(n, false);
    for (std::size_t q = 0; q < n; ++q)
        trap[q] = (protocol.output(static_cast<StateId>(q)) == b);
    return trap;
}

/// True iff `t` currently triggers an eviction: both pre-states inside the
/// trap, some post-state outside.
bool violating(const std::vector<bool>& trap, const Transition& t) {
    return trap[static_cast<std::size_t>(t.pre1)] && trap[static_cast<std::size_t>(t.pre2)] &&
           !(trap[static_cast<std::size_t>(t.post1)] && trap[static_cast<std::size_t>(t.post2)]);
}

/// Round-structured worklist replaying the pass structure's eviction
/// sequence (see sim/traps.hpp).
///
/// A full pass examines every transition; only transitions whose post-set
/// lost a state since their last examination can newly violate (evictions
/// are permanent, so a pre-state leaving the trap disables a transition
/// forever).  The worklist therefore re-queues, on evicting state q,
/// exactly the transitions producing q — into the current round's heap when
/// their id is still ahead of the scan position (the pass would reach them
/// later this pass), into the next round otherwise (the passes re-check
/// them one pass later).  Draining each round in ascending id order then
/// visits every potentially-violating transition at the pass structure's
/// exact relative position, so the eviction sequences — and the
/// scan-order-dependent fixpoints — coincide.
std::vector<bool> worklist_trap(const Protocol& protocol, int b) {
    std::vector<bool> trap = seed_trap(protocol, b);
    const std::span<const Transition> transitions = protocol.transitions();
    const auto num_transitions = static_cast<TransitionId>(transitions.size());

    // Each round's schedule is a sorted vector consumed by a cursor — round 1
    // is simply every id, so the dominant O(|T|) seed scan pays no heap
    // traffic — merged against a min-heap holding only the eviction-triggered
    // re-queues that land ahead of the cursor mid-round.  Only the (few)
    // re-queued ids ever touch a log-cost structure.
    std::vector<TransitionId> round(static_cast<std::size_t>(num_transitions));
    for (TransitionId t = 0; t < num_transitions; ++t) round[static_cast<std::size_t>(t)] = t;
    std::size_t cursor = 0;
    std::priority_queue<TransitionId, std::vector<TransitionId>, std::greater<TransitionId>>
        ahead;
    std::vector<TransitionId> next_round;
    // Membership flags keep each transition scheduled at most once per round
    // (a re-examination would be a no-op anyway: its pre-states are out).
    std::vector<bool> in_round(static_cast<std::size_t>(num_transitions), true);
    std::vector<bool> in_next(static_cast<std::size_t>(num_transitions), false);

    const auto evict = [&](StateId q, TransitionId position) {
        trap[static_cast<std::size_t>(q)] = false;
        for (const TransitionId incident : protocol.transitions_producing(q)) {
            if (incident > position) {
                if (!in_round[static_cast<std::size_t>(incident)]) {
                    in_round[static_cast<std::size_t>(incident)] = true;
                    ahead.push(incident);
                }
            } else if (!in_next[static_cast<std::size_t>(incident)]) {
                in_next[static_cast<std::size_t>(incident)] = true;
                next_round.push_back(incident);
            }
        }
    };

    while (true) {
        TransitionId id;
        if (!ahead.empty() && (cursor == round.size() || ahead.top() < round[cursor])) {
            id = ahead.top();
            ahead.pop();
        } else if (cursor < round.size()) {
            id = round[cursor++];
        } else if (!next_round.empty()) {
            // Start the next pass: the ids collected during this one, in
            // ascending order (they arrive grouped by eviction, not sorted).
            std::sort(next_round.begin(), next_round.end());
            round = std::move(next_round);
            next_round.clear();
            cursor = 0;
            for (const TransitionId t : round) {
                in_next[static_cast<std::size_t>(t)] = false;
                in_round[static_cast<std::size_t>(t)] = true;
            }
            continue;
        } else {
            break;
        }
        PPSC_DASSERT(in_round[static_cast<std::size_t>(id)]);
        in_round[static_cast<std::size_t>(id)] = false;
        const Transition& t = transitions[static_cast<std::size_t>(id)];
        if (!violating(trap, t)) continue;
        evict(t.pre1, id);
        if (t.pre2 != t.pre1) evict(t.pre2, id);
    }
    return trap;
}

}  // namespace

std::vector<bool> compute_output_trap(const Protocol& protocol, int b) {
    if (b != 0 && b != 1)
        throw std::invalid_argument("compute_output_trap: b must be 0 or 1");
    return worklist_trap(protocol, b);
}

}  // namespace ppsc
