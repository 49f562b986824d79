// Experiment E5 — Lemma 5.1: firing sequences vs Parikh arithmetic.
//
// (i)  C --sigma--> C' implies C =pi=> C' for pi the Parikh image of sigma:
//      checked on thousands of random executions.
// (ii) C =pi=> C' and C 2|pi|-saturated implies pi can actually be fired in
//      any order: checked by firing random permutations from saturated
//      configurations.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/parikh.hpp"
#include "protocols/modulo.hpp"
#include "protocols/threshold.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

using namespace ppsc;

namespace {

struct Outcome {
    std::uint64_t trials = 0;
    std::uint64_t part_i_ok = 0;
    std::uint64_t part_ii_ok = 0;
    std::uint64_t part_ii_applicable = 0;
};

Outcome run_experiment(const Protocol& protocol, std::uint64_t trials, std::uint64_t seed) {
    const Simulator simulator(protocol);
    Rng rng(seed);
    Outcome outcome;
    outcome.trials = trials;

    for (std::uint64_t trial = 0; trial < trials; ++trial) {
        // Random execution from a random input.
        const AgentCount input = 4 + static_cast<AgentCount>(rng.below(12));
        const Config start = protocol.initial_config(input);
        Trajectory trajectory(simulator, start);
        std::vector<TransitionId> sequence;
        const std::uint64_t steps = 1 + rng.below(60);
        for (std::uint64_t s = 0; s < steps; ++s) {
            const auto fired = simulator.step(trajectory, rng);
            if (fired) sequence.push_back(*fired);
        }
        const Config& config = trajectory.config();

        // Part (i): C' must equal C + Delta(pi).
        const ParikhImage parikh = parikh_of_sequence(protocol, sequence);
        const auto predicted = apply_parikh(start, protocol, parikh);
        bool match = true;
        for (std::size_t q = 0; q < predicted.size(); ++q) {
            if (predicted[q] != config[static_cast<StateId>(q)]) match = false;
        }
        if (match) ++outcome.part_i_ok;

        // Part (ii): from a 2|pi|-saturated configuration, any order of pi
        // fires to completion.
        const std::int64_t size = parikh_size(parikh);
        if (size == 0 || size > 40) continue;
        ++outcome.part_ii_applicable;
        Config saturated(protocol.num_states());
        for (std::size_t q = 0; q < protocol.num_states(); ++q)
            saturated.set(static_cast<StateId>(q), 2 * size);
        // Random order of the multiset.
        std::vector<TransitionId> order;
        for (std::size_t t = 0; t < parikh.size(); ++t)
            for (std::int64_t c = 0; c < parikh[t]; ++c)
                order.push_back(static_cast<TransitionId>(t));
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        bool fired_all = true;
        Config current = saturated;
        for (const TransitionId t : order) {
            const Transition& transition = protocol.transitions()[static_cast<std::size_t>(t)];
            if (!protocol.enabled(current, transition)) {
                fired_all = false;
                break;
            }
            current = protocol.fire(current, transition);
        }
        if (fired_all) {
            const auto expected = apply_parikh(saturated, protocol, parikh);
            bool same = true;
            for (std::size_t q = 0; q < expected.size(); ++q)
                if (expected[q] != current[static_cast<StateId>(q)]) same = false;
            if (same) ++outcome.part_ii_ok;
        }
    }
    return outcome;
}

}  // namespace

int main() {
    std::printf("=== E5: Lemma 5.1 — executions vs Parikh displacement ===\n\n");
    std::printf("%-26s %8s %14s %22s\n", "protocol", "trials", "(i) holds",
                "(ii) holds/applicable");
    struct Row {
        const char* name;
        Protocol protocol;
    };
    Row rows[] = {
        {"unary_threshold(3)", protocols::unary_threshold(3)},
        {"binary_threshold_power(2)", protocols::binary_threshold_power(2)},
        {"collector_threshold(6)", protocols::collector_threshold(6)},
        {"modulo(3,1)", protocols::modulo(3, 1)},
    };
    for (auto& row : rows) {
        const Outcome outcome = run_experiment(row.protocol, 3000, 0x5151);
        std::printf("%-26s %8llu %10llu/%llu %16llu/%llu\n", row.name,
                    static_cast<unsigned long long>(outcome.trials),
                    static_cast<unsigned long long>(outcome.part_i_ok),
                    static_cast<unsigned long long>(outcome.trials),
                    static_cast<unsigned long long>(outcome.part_ii_ok),
                    static_cast<unsigned long long>(outcome.part_ii_applicable));
    }
    std::printf("\nexpected: (i) 100%% — firing is displacement arithmetic;\n"
                "(ii) 100%% of applicable trials — 2|pi|-saturation removes all ordering\n"
                "constraints, the engine of Lemma 5.2's pumping.\n");
    return 0;
}
