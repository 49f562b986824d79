#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "protocols/double_exp_threshold.hpp"
#include "sim/checkpoint.hpp"
#include "sim/stats.hpp"

namespace ppsc {

namespace {

struct TrialResult {
    bool converged = false;
    double parallel_time = 0.0;
    std::optional<int> output;
};

void add_epoch_stats(EpochStats& total, const EpochStats& part) {
    total.epochs += part.epochs;
    total.epoch_fired += part.epoch_fired;
    total.fallback_fired += part.fallback_fired;
    total.rejected_draws += part.rejected_draws;
}

}  // namespace

std::vector<ConvergenceRow> convergence_sweep(const Protocol& protocol,
                                              const std::vector<AgentCount>& populations,
                                              const std::function<int(AgentCount)>& expected,
                                              const ConvergenceSweepOptions& options) {
    const Simulator simulator(protocol);
    const std::uint64_t runs = options.runs_per_size;
    const std::size_t total_trials = populations.size() * static_cast<std::size_t>(runs);

    const bool checkpointing = !options.checkpoint_dir.empty() && options.checkpoint_every != 0;
    const std::uint64_t fingerprint = checkpointing ? protocol_fingerprint(protocol) : 0;
    const auto stop_requested = [&options] {
        return options.stop != nullptr && options.stop->load(std::memory_order_relaxed);
    };

    // Every trial is fully determined by its (population, repetition) seed,
    // so trials can run in any order on any thread; results land in a
    // per-trial slot and are aggregated serially afterwards, keeping the
    // rows (including floating-point accumulation order) identical to the
    // serial sweep.
    std::vector<TrialResult> trials(total_trials);
    const auto run_trial = [&](std::size_t index) {
        const AgentCount population = populations[index / runs];
        const std::uint64_t r = index % runs;
        // One independent stream per (size, repetition) pair.
        Rng rng(options.seed ^ (static_cast<std::uint64_t>(population) << 20) ^ r);
        Config start = protocol.initial_config(population);
        SimulationOptions simulation = options.simulation;
        std::optional<CheckpointDir> dir;
        if (checkpointing) {
            // One rotation directory per trial; the trial's identity is in
            // the directory name, so re-sweeping with different populations
            // or repetition counts can never cross-resume trials.
            const std::string slot =
                "p" + std::to_string(population) + "-r" + std::to_string(r);
            dir.emplace((std::filesystem::path(options.checkpoint_dir) / slot).string(),
                        options.checkpoint_keep_last);
            const CheckpointDir::Latest latest = dir->load_latest(fingerprint);
            if (latest.checkpoint && latest.checkpoint->config.size() == start.size() &&
                latest.checkpoint->config.num_states() == start.num_states()) {
                start = latest.checkpoint->config;
                rng.set_state(latest.checkpoint->rng_state);
                simulation.initial_interactions = latest.checkpoint->interactions;
                // Resume the fired counter too, so the snapshots this trial
                // writes carry the same absolute totals the uninterrupted
                // trial's would (checkpoint_test pins the golden format).
                simulation.initial_fired = latest.checkpoint->fired;
            }
            simulation.checkpoint.every = options.checkpoint_every;
            simulation.checkpoint.callback = [&](const CheckpointTick& tick) {
                Checkpoint snapshot;
                snapshot.fingerprint = fingerprint;
                snapshot.config = tick.config;
                snapshot.rng_state = tick.rng_state;
                snapshot.interactions = tick.interactions;
                snapshot.fired = tick.fired;
                dir->write(snapshot);
                return !stop_requested();
            };
        }
        const SimulationResult result = simulator.run(std::move(start), rng, simulation);
        if (checkpointing) {
            // Final snapshot: a later sweep restores the trial here — a
            // finished trial re-reports its result without re-simulating,
            // an interrupted one continues from this exact point.
            Checkpoint snapshot;
            snapshot.fingerprint = fingerprint;
            snapshot.config = result.final_config;
            snapshot.rng_state = rng.state();
            snapshot.interactions = result.interactions;
            snapshot.fired = result.fired;
            dir->write(snapshot);
        }
        trials[index] = {result.converged, result.parallel_time, result.output};
    };

    unsigned workers = options.parallelism != 0
                           ? options.parallelism
                           : std::max(1u, std::thread::hardware_concurrency());
    workers = static_cast<unsigned>(
        std::min<std::size_t>(workers, std::max<std::size_t>(total_trials, 1)));

    if (workers <= 1) {
        for (std::size_t i = 0; i < total_trials && !stop_requested(); ++i) run_trial(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::exception_ptr> errors(workers);
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&, w] {
                try {
                    for (std::size_t i = next.fetch_add(1);
                         i < total_trials && !stop_requested(); i = next.fetch_add(1))
                        run_trial(i);
                } catch (...) {
                    errors[w] = std::current_exception();
                }
            });
        }
        for (std::thread& t : pool) t.join();
        for (const std::exception_ptr& e : errors) {
            if (e) std::rethrow_exception(e);
        }
    }

    std::vector<ConvergenceRow> rows;
    rows.reserve(populations.size());
    for (std::size_t pi = 0; pi < populations.size(); ++pi) {
        const AgentCount population = populations[pi];
        RunningStats time_stats;
        std::uint64_t converged = 0, correct = 0;
        for (std::uint64_t r = 0; r < runs; ++r) {
            const TrialResult& trial = trials[pi * runs + r];
            if (trial.converged) {
                ++converged;
                time_stats.add(trial.parallel_time);
            }
            if (trial.output && *trial.output == expected(population)) ++correct;
        }
        ConvergenceRow row;
        row.population = population;
        row.runs = runs;
        row.converged_runs = converged;
        row.mean_parallel_time = time_stats.mean();
        row.stddev_parallel_time = time_stats.stddev();
        row.max_parallel_time = time_stats.max();
        row.correct_fraction =
            runs == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(runs);
        rows.push_back(row);
    }
    return rows;
}

std::vector<ThroughputRow> e11_throughput_sweep(const E11Options& options) {
    std::vector<ThroughputRow> rows;
    std::uint64_t row_index = 0;
    for (const int n : options.tower_ns) {
        struct Variant {
            std::string label;
            Protocol protocol;
        };
        std::vector<Variant> variants;
        variants.push_back(
            {"double_exp(" + std::to_string(n) + ")", protocols::double_exp_threshold(n)});
        if (options.include_dense && n >= 1 && n <= options.max_dense_n) {
            variants.push_back({"double_exp_dense(" + std::to_string(n) + ")",
                                protocols::double_exp_threshold_dense(n)});
        }
        for (const Variant& variant : variants) {
            const Simulator simulator(variant.protocol);
            for (const AgentCount population : options.populations) {
                Rng rng(options.seed ^ (row_index++ << 32));
                const auto start = std::chrono::steady_clock::now();
                Trajectory trajectory(simulator, variant.protocol.initial_config(population));
                RunOptions run;
                run.step_mode = options.step_mode;
                run.epoch = options.epoch;
                std::uint64_t done = 0;
                std::uint64_t fired = 0;
                EpochStats epoch;
                while (done < options.interactions_per_row) {
                    run.budget = options.interactions_per_row - done;
                    const RunReport report = simulator.advance(trajectory, rng, run);
                    done += report.interactions;
                    fired += report.fired;
                    if (report.stop == StopReason::silent) {
                        // A trajectory that executes nothing is silent from
                        // the start (or degenerate) — restarting would spin.
                        if (report.interactions == 0) break;
                        // Sub-threshold trajectories end silent (≤ 1 token
                        // per level); restart from IC to keep measuring.
                        add_epoch_stats(epoch, trajectory.epoch_stats());
                        trajectory =
                            Trajectory(simulator, variant.protocol.initial_config(population));
                    }
                }
                add_epoch_stats(epoch, trajectory.epoch_stats());
                const std::chrono::duration<double> elapsed =
                    std::chrono::steady_clock::now() - start;
                ThroughputRow row;
                row.protocol = variant.label;
                row.num_states = variant.protocol.num_states();
                row.nonsilent_pairs = variant.protocol.nonsilent_pairs().size();
                row.rule_table =
                    variant.protocol.rule_table() == RuleTable::dense ? "dense" : "sparse";
                row.rule_table_bytes = variant.protocol.rule_table_bytes();
                row.trap_setup_seconds = simulator.trap_setup_seconds();
                row.population = population;
                row.interactions = done;
                row.fired = fired;
                row.epoch = epoch;
                row.seconds = elapsed.count();
                row.interactions_per_sec =
                    row.seconds > 0.0 ? static_cast<double>(done) / row.seconds : 0.0;
                row.fired_per_sec =
                    row.seconds > 0.0 ? static_cast<double>(fired) / row.seconds : 0.0;
                rows.push_back(row);
            }
        }
    }
    return rows;
}

}  // namespace ppsc
