// Population protocols as chemical reaction networks.
//
//   $ ./chemical_reactions
//
// The paper's introduction notes that population protocols are equivalent
// to chemical reaction networks: states are species, transitions are
// bimolecular reactions, and the number of states is the number of species
// a wet-lab implementation needs — the practical reason state complexity
// matters.  This example prints a protocol as a reaction system and traces
// species concentrations along one stochastic trajectory.
#include <cstdio>

#include "protocols/threshold.hpp"
#include "sim/simulator.hpp"

int main() try {
    using namespace ppsc;

    const Protocol protocol = protocols::collector_threshold(5);

    std::printf("reaction network for the x >= 5 detector (%zu species):\n",
                protocol.num_states());
    for (const Transition& t : protocol.transitions()) {
        std::printf("  %s + %s  ->  %s + %s\n",
                    protocol.state_name(t.pre1).c_str(), protocol.state_name(t.pre2).c_str(),
                    protocol.state_name(t.post1).c_str(), protocol.state_name(t.post2).c_str());
    }

    // One stochastic trajectory from 40 copies of the input species.
    const Simulator simulator(protocol);
    Trajectory mixture(simulator, protocol.initial_config(40));
    Rng rng(2024);

    std::printf("\ntrajectory (counts per species, sampled every 40 interactions):\n%9s",
                "step");
    for (std::size_t q = 0; q < protocol.num_states(); ++q)
        std::printf(" %6s", protocol.state_name(static_cast<StateId>(q)).c_str());
    std::printf("\n");

    for (int step = 0; step <= 400; ++step) {
        if (step % 40 == 0) {
            std::printf("%9d", step);
            for (std::size_t q = 0; q < protocol.num_states(); ++q)
                std::printf(" %6lld",
                            static_cast<long long>(mixture.config()[static_cast<StateId>(q)]));
            std::printf("\n");
            if (mixture.provably_stable()) break;
        }
        simulator.step(mixture, rng);
    }

    const auto output = protocol.consensus_output(mixture.config());
    std::printf("\nfinal consensus: %s\n",
                output ? (*output ? "threshold reached" : "below threshold") : "not yet settled");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
