// Hub protocols — states with a non-silent pair with (almost) every other
// state, of which only a few are ever occupied — on the count-delta path.
//
// leader_threshold(η) has two hubs (the accept state T pairs with every
// other state, the input x with every counter) while at most four states
// hold agents; unary_threshold(40) started on a wide support has more
// occupied states than most states have partners.  A count change visits
// the occupied partners through whichever list is shorter (the support or
// the neighbour list), so these protocols run both branches.
//
// Two kinds of checks:
//   * pinned per-seed ends (final-config digest, interactions, fired, rng
//     state) under Fenwick and scan selection and under epoch stepping,
//     Int128 weights included — the exact paths are trajectory-identical,
//     so these values must never move;
//   * observable probes along chunked runs where states empty and refill,
//     also under many-agent epoch deltas: the O(1) probes must equal the
//     from-scratch rescans, a trajectory rebuilt from the current
//     configuration must continue identically, and a copied trajectory must
//     stay identical to its original.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "protocols/leader.hpp"
#include "protocols/threshold.hpp"
#include "reference/engine_seam.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"

namespace ppsc {
namespace {

using reference::EngineSeam;
using reference::PairSelect;

struct End {
    std::uint64_t digest = 0;
    std::uint64_t interactions = 0;
    std::uint64_t fired = 0;
    std::uint64_t rng_state = 0;
    bool operator==(const End&) const = default;
};

std::ostream& operator<<(std::ostream& out, const End& end) {
    return out << "{digest " << std::hex << end.digest << std::dec << ", interactions "
               << end.interactions << ", fired " << end.fired << ", rng " << end.rng_state << "}";
}

/// unary_threshold(40) with 60 agents on each of v0..v39: 40 occupied
/// states, more than the 39 partners any state has.
Config wide_unary_start(const Protocol& p) {
    Config config(p.num_states());
    for (int v = 0; v < 40; ++v) config.set(*p.find_state("v" + std::to_string(v)), 60);
    return config;
}

struct Case {
    const char* name;
    Protocol protocol;
    Config start;
    std::uint64_t budget;
    bool stop_when_stable;
    /// Pinned ends for seeds 1 and 2: the exact per-step path (Fenwick and
    /// scan selection alike), then epoch stepping.
    End per_step[2];
    End epoch[2];
};

std::vector<Case> pinned_cases() {
    const Protocol leader200 = protocols::leader_threshold(200);
    const Protocol unary40 = protocols::unary_threshold(40);
    const Protocol leader3 = protocols::leader_threshold(3);
    constexpr std::uint64_t kToStability = std::uint64_t{1} << 40;
    return {
        {"leader_threshold(200) at 250",
         leader200,
         leader200.initial_config(250),
         kToStability,
         true,
         {{0x235c1fc401c176e3, 47466, 449, 18244637760571736917u},
          {0x235c1fc401c176e3, 46998, 449, 9835233517395722748u}},
         {{0x235c1fc401c176e3, 47466, 449, 18244637760571736917u},
          {0x235c1fc401c176e3, 46998, 449, 9835233517395722748u}}},
        {"leader_threshold(200) at 1000",
         leader200,
         leader200.initial_config(1000),
         kToStability,
         true,
         {{0xcc3c00d1d3c1657f, 111200, 1199, 12956618372223537689u},
          {0xcc3c00d1d3c1657f, 111502, 1199, 11685938249173202936u}},
         {{0xcc3c00d1d3c1657f, 110587, 1199, 694601763946169403u},
          {0xcc3c00d1d3c1657f, 112444, 1199, 10674653016870194866u}}},
        {"unary_threshold(40) on a wide support",
         unary40,
         wide_unary_start(unary40),
         kToStability,
         true,
         {{0x4ab1dd3ef3d7ef6c, 14595, 2342, 12538881747297791671u},
          {0x4ab1dd3ef3d7ef6c, 12009, 2348, 9997521501197122164u}},
         {{0x4ab1dd3ef3d7ef6c, 9760, 2348, 10237007227276241205u},
          {0x4ab1dd3ef3d7ef6c, 9670, 2295, 3976301477763893721u}}},
        // Past 2³¹ agents the pair weights take the Int128 lane; the budget
        // stops the epidemic of T after a few thousand fired steps.
        {"leader_threshold(3) at 2^31+8 agents",
         leader3,
         leader3.initial_config((AgentCount{1} << 31) + 7),
         std::uint64_t{5} << 31,
         false,
         {{0xd89c246f8fdf8736, 10737418240, 310, 14740922568947990258u},
          {0xc6b9347a15fb0631, 10737418240, 4267, 16972738179323846693u}},
         {{0xd89c246f8fdf8736, 10737418240, 310, 14740922568947990258u},
          {0x7299d8ad7116469b, 10737418240, 3501, 10571626735489797475u}}},
    };
}

End end_of(const Trajectory& trajectory, const Rng& rng) {
    return {config_digest(trajectory.config()), trajectory.interactions(), trajectory.fired(),
            rng.state()};
}

End drive(const Case& c, PairSelect select, StepMode mode, std::uint64_t seed) {
    const Simulator sim = EngineSeam::simulator(c.protocol, select);
    Trajectory trajectory(sim, c.start);
    Rng rng(seed);
    RunOptions run;
    run.budget = c.budget;
    run.stop_when_stable = c.stop_when_stable;
    run.step_mode = mode;
    sim.advance(trajectory, rng, run);
    return end_of(trajectory, rng);
}

TEST(HubProtocol, TrajectoriesMatchPinnedEnds) {
    for (const Case& c : pinned_cases()) {
        for (std::size_t i = 0; i < 2; ++i) {
            const std::uint64_t seed = i + 1;
            SCOPED_TRACE(std::string(c.name) + ", seed " + std::to_string(seed));
            EXPECT_EQ(drive(c, PairSelect::fenwick, StepMode::per_step, seed), c.per_step[i]);
            EXPECT_EQ(drive(c, PairSelect::scan, StepMode::per_step, seed), c.per_step[i]);
            EXPECT_EQ(drive(c, PairSelect::fenwick, StepMode::epoch, seed), c.epoch[i]);
        }
    }
}

struct Lane {
    Trajectory trajectory;
    Rng rng;
};

/// Advances `lane` by one chunk, then checks the O(1) probes against the
/// from-scratch rescans of the configuration.
void advance_and_probe(const Simulator& sim, Lane& lane, const RunOptions& run) {
    sim.advance(lane.trajectory, lane.rng, run);
    const Config& config = lane.trajectory.config();
    EXPECT_EQ(lane.trajectory.silent(), sim.is_silent(config));
    EXPECT_EQ(lane.trajectory.provably_stable(), sim.is_provably_stable(config));
}

struct Probed {
    std::vector<End> ends;  ///< the main lane's end after every chunk
    EpochStats epoch;
};

/// Runs `chunks` advance() calls of `chunk` interactions from `start`.
/// Before each chunk a trajectory is rebuilt from the current configuration
/// (fresh weights, support and pair tree) and must end the chunk exactly
/// like the incrementally maintained one; halfway a copy of the trajectory
/// is taken and must stay identical to it through the remaining chunks.
Probed probe_chunks(const Protocol& p, const Config& start, PairSelect select, StepMode mode,
                    std::uint64_t seed, std::uint64_t chunk, int chunks) {
    const Simulator sim = EngineSeam::simulator(p, select);
    RunOptions run;
    run.budget = chunk;
    run.step_mode = mode;
    Lane main{Trajectory(sim, start), Rng(seed)};
    std::optional<Lane> copy;
    Probed probed;
    for (int i = 0; i < chunks; ++i) {
        SCOPED_TRACE("chunk " + std::to_string(i));
        Lane rebuilt{Trajectory(sim, main.trajectory.config(), main.trajectory.interactions(),
                                main.trajectory.fired()),
                     main.rng};
        if (i == chunks / 2) copy.emplace(main);
        advance_and_probe(sim, main, run);
        const End end = end_of(main.trajectory, main.rng);
        advance_and_probe(sim, rebuilt, run);
        EXPECT_EQ(end_of(rebuilt.trajectory, rebuilt.rng), end);
        if (copy) {
            advance_and_probe(sim, *copy, run);
            EXPECT_EQ(end_of(copy->trajectory, copy->rng), end);
        }
        probed.ends.push_back(end);
    }
    probed.epoch = main.trajectory.epoch_stats();
    return probed;
}

TEST(HubProtocol, ProbesAndRebuildsAgreeAlongLeaderRuns) {
    // The leader walks l0 → l1 → …, emptying each counter state it leaves;
    // T empties and refills inside every T,x → T,T step while it holds a
    // single agent, and x empties at the end.
    const Protocol p = protocols::leader_threshold(200);
    const Config start = p.initial_config(1000);
    const Probed fenwick =
        probe_chunks(p, start, PairSelect::fenwick, StepMode::per_step, 7, 4000, 40);
    const Probed scan = probe_chunks(p, start, PairSelect::scan, StepMode::per_step, 7, 4000, 40);
    EXPECT_EQ(fenwick.ends, scan.ends);
    EXPECT_GT(fenwick.ends.back().fired, 1000u) << "the run should reach the epidemic";
    probe_chunks(p, start, PairSelect::fenwick, StepMode::epoch, 7, 4000, 40);
}

TEST(HubProtocol, ProbesAndRebuildsAgreeAlongWideSupportRuns) {
    // Nearly every state is occupied at the start, and values keep merging
    // away and reappearing: the neighbour-list branch runs for every state.
    const Protocol p = protocols::unary_threshold(40);
    const Config start = wide_unary_start(p);
    const Probed fenwick =
        probe_chunks(p, start, PairSelect::fenwick, StepMode::per_step, 11, 300, 60);
    const Probed scan = probe_chunks(p, start, PairSelect::scan, StepMode::per_step, 11, 300, 60);
    EXPECT_EQ(fenwick.ends, scan.ends);
    probe_chunks(p, start, PairSelect::fenwick, StepMode::epoch, 11, 300, 60);
}

TEST(HubProtocol, ProbesAndRebuildsAgreeUnderManyAgentEpochDeltas) {
    // Large populations: epochs apply many-agent count deltas, so states
    // cross zero in either direction by more than one agent at a time.
    {
        const Protocol p = protocols::leader_threshold(20);
        const Probed probed = probe_chunks(p, p.initial_config(200'000), PairSelect::fenwick,
                                           StepMode::epoch, 3, 400'000, 30);
        EXPECT_GT(probed.epoch.epochs, 0u);
    }
    {
        const Protocol p = protocols::unary_threshold(40);
        const Probed probed = probe_chunks(p, p.initial_config(200'000), PairSelect::fenwick,
                                           StepMode::epoch, 5, 100'000, 30);
        EXPECT_GT(probed.epoch.epochs, 0u);
    }
}

}  // namespace
}  // namespace ppsc
