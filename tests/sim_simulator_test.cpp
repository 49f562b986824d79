// Tests for the random-scheduler simulator: convergence on verified
// protocols, agreement with the exhaustive verifier, determinism, and the
// soundness of both stability-detection mechanisms.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "protocols/modulo.hpp"
#include "protocols/threshold.hpp"
#include "reference/engine_seam.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/stats.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

using reference::EngineSeam;
using reference::PairSelect;

TEST(Simulator, OutputTrapsForCollectorThreshold) {
    const Protocol p = protocols::collector_threshold(5);
    const Simulator sim(p);
    // W_1 must be exactly {T}: it is the only 1-output state and T,T pairs
    // are silent.
    const auto& w1 = sim.output_trap(1);
    for (std::size_t q = 0; q < p.num_states(); ++q) {
        EXPECT_EQ(w1[q], p.state_name(static_cast<StateId>(q)) == "T");
    }
}

TEST(Simulator, StepConservesAgents) {
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p);
    Rng rng(42);
    Trajectory trajectory(sim, p.initial_config(9));
    for (int i = 0; i < 200; ++i) {
        sim.step(trajectory, rng);
        EXPECT_EQ(trajectory.config().size(), 9);
    }
    EXPECT_EQ(trajectory.interactions(), 200u);
}

TEST(Simulator, ConvergesToAcceptAboveThreshold) {
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        const SimulationResult result = sim.run_input(10, rng);
        EXPECT_TRUE(result.converged) << "seed " << seed;
        EXPECT_EQ(result.output, 1) << "seed " << seed;
    }
}

TEST(Simulator, ConvergesToRejectBelowThreshold) {
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        const SimulationResult result = sim.run_input(5, rng);
        EXPECT_TRUE(result.converged) << "seed " << seed;
        EXPECT_EQ(result.output, 0) << "seed " << seed;
    }
}

TEST(Simulator, DeterministicUnderSameSeed) {
    const Protocol p = protocols::unary_threshold(4);
    const Simulator sim(p);
    Rng rng1(99), rng2(99);
    const SimulationResult r1 = sim.run_input(7, rng1);
    const SimulationResult r2 = sim.run_input(7, rng2);
    EXPECT_EQ(r1.interactions, r2.interactions);
    EXPECT_EQ(r1.final_config, r2.final_config);
}

TEST(Simulator, SilentDetectionOnRejectingRun) {
    // unary_threshold rejection ends in a silent non-trap configuration.
    const Protocol p = protocols::unary_threshold(5);
    const Simulator sim(p);
    Rng rng(5);
    const SimulationResult result = sim.run_input(3, rng);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.output, 0);
    EXPECT_TRUE(sim.is_silent(result.final_config));
}

TEST(Simulator, IsProvablyStableSoundness) {
    // Every configuration the simulator declares stable must have a
    // consensus output that matches the verifier's verdict on a fair run.
    const Protocol p = protocols::collector_threshold(3);
    const Simulator sim(p);
    const Verifier verifier(p);
    for (AgentCount input = 2; input <= 7; ++input) {
        Rng rng(static_cast<std::uint64_t>(input));
        const SimulationResult result = sim.run_input(input, rng);
        ASSERT_TRUE(result.converged);
        const InputVerdict verdict = verifier.verify_input(input);
        ASSERT_TRUE(verdict.well_specified);
        EXPECT_EQ(result.output, verdict.computed) << "input " << input;
    }
}

TEST(Simulator, HonoursInteractionBudget) {
    // The oscillator never stabilises; the budget must stop the run.
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId c = b.add_state("B", 0);
    b.set_input("x", a);
    b.add_transition(a, a, c, c);
    b.add_transition(c, c, a, a);
    const Protocol p = std::move(b).build();

    const Simulator sim(p);
    SimulationOptions options;
    options.max_interactions = 500;
    Rng rng(3);
    const SimulationResult result = sim.run(p.initial_config(2), rng, options);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.interactions, 500u);
}

TEST(Simulator, ParallelTimeIsInteractionsOverPopulation) {
    const Protocol p = protocols::unary_threshold(2);
    const Simulator sim(p);
    Rng rng(1);
    const SimulationResult result = sim.run_input(8, rng);
    EXPECT_DOUBLE_EQ(result.parallel_time, static_cast<double>(result.interactions) / 8.0);
}

TEST(Simulator, RejectsTooSmallPopulations) {
    const Protocol p = protocols::unary_threshold(2);
    const Simulator sim(p);
    Rng rng(1);
    EXPECT_THROW(sim.run(Config::single(p.num_states(), 0, 1), rng), std::invalid_argument);
}

TEST(Trajectory, ConfigurationsOverTheWrongStatesGetATypedError) {
    // Every entry point that indexes the protocol's tables by the
    // configuration's states checks the state count first: fewer and more
    // states than the protocol has are caller errors, not internal bugs.
    const Protocol p = protocols::collector_threshold(4);
    const Simulator sim(p);
    const std::size_t n = p.num_states();
    for (const std::size_t states : {n - 1, n + 1, std::size_t{69}}) {
        SCOPED_TRACE(states);
        Config config(states);
        for (std::size_t q = 0; q < states; ++q) config.set(static_cast<StateId>(q), 3);
        Rng rng(1);
        EXPECT_THROW(Trajectory(sim, config), std::invalid_argument);
        EXPECT_THROW(sim.is_silent(config), std::invalid_argument);
        EXPECT_THROW(sim.is_provably_stable(config), std::invalid_argument);
        EXPECT_THROW(sim.run(config, rng), std::invalid_argument);
        Config kept = config;
        EXPECT_THROW(sim.run_batch(kept, rng, 100), std::invalid_argument);
        EXPECT_EQ(kept, config);
    }
}

TEST(Trajectory, IsAdvancedOnlyByItsOwnSimulator) {
    const Protocol p = protocols::collector_threshold(4);
    const Simulator sim(p), other(p);
    Trajectory trajectory(sim, p.initial_config(8));
    Rng rng(2);
    RunOptions run;
    run.budget = 10;
    EXPECT_THROW(other.advance(trajectory, rng, run), std::invalid_argument);
    EXPECT_THROW(other.step(trajectory, rng), std::invalid_argument);
    EXPECT_EQ(sim.advance(trajectory, rng, run).interactions, 10u);
}

TEST(Trajectory, ConcurrentTrajectoriesOnOneSimulatorMatchSerial) {
    // One shared, immutable Simulator; each thread owns its Trajectory and
    // Rng and mixes every stepping entry point.  The results must equal the
    // serial ones — nothing per-run lives in the Simulator.
    const Protocol p = protocols::double_exp_threshold(3);
    const Simulator sim = EngineSeam::simulator(p, PairSelect::fenwick);
    struct End {
        std::uint64_t interactions = 0;
        std::uint64_t fired = 0;
        std::uint64_t rng_state = 0;
        std::uint64_t digest = 0;
        bool operator==(const End&) const = default;
    };
    const auto drive = [&sim, &p](std::uint64_t seed) {
        Rng rng(seed);
        Trajectory trajectory(sim, p.initial_config(2000 + static_cast<AgentCount>(seed)));
        RunOptions run;
        for (int round = 0; round < 20; ++round) {
            run.budget = 5000;
            run.step_mode = round % 2 == 0 ? StepMode::per_step : StepMode::epoch;
            sim.advance(trajectory, rng, run);
            for (int i = 0; i < 50; ++i) sim.step(trajectory, rng);
            sim.fired_step(trajectory, rng, 1000);
            sim.sample_pair(trajectory, rng);
        }
        return End{trajectory.interactions(), trajectory.fired(), rng.state(),
                   config_digest(trajectory.config())};
    };
    constexpr std::size_t kThreads = 4;
    std::array<End, kThreads> serial, threaded;
    for (std::size_t i = 0; i < kThreads; ++i) serial[i] = drive(i + 1);
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < kThreads; ++i)
        pool.emplace_back([&, i] { threaded[i] = drive(i + 1); });
    for (std::thread& t : pool) t.join();
    for (std::size_t i = 0; i < kThreads; ++i) {
        EXPECT_GT(serial[i].fired, 0u);
        EXPECT_TRUE(threaded[i] == serial[i]) << "thread " << i;
    }
}

TEST(ConvergenceSweep, ProducesSaneRows) {
    const Protocol p = protocols::collector_threshold(4);
    ConvergenceSweepOptions options;
    options.runs_per_size = 5;
    const auto rows = convergence_sweep(
        p, {4, 8, 16}, [](AgentCount i) { return i >= 4 ? 1 : 0; }, options);
    ASSERT_EQ(rows.size(), 3u);
    for (const auto& row : rows) {
        EXPECT_EQ(row.runs, 5u);
        EXPECT_EQ(row.converged_runs, 5u) << "population " << row.population;
        EXPECT_DOUBLE_EQ(row.correct_fraction, 1.0) << "population " << row.population;
        EXPECT_GT(row.mean_parallel_time, 0.0);
    }
}

TEST(RunningStats, WelfordMatchesDirectComputation) {
    RunningStats stats;
    const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (const double v : values) stats.add(v);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.stddev(), 2.13809, 1e-4);  // sample stddev
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Samples, QuantilesNearestRank) {
    Samples samples;
    for (int i = 1; i <= 99; ++i) samples.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(samples.median(), 50.0);
    EXPECT_DOUBLE_EQ(samples.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(samples.quantile(1.0), 99.0);
}

}  // namespace
}  // namespace ppsc
