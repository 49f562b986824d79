// Random-scheduler simulation of population protocols.
//
// The standard stochastic model (Section 1 of the paper): at each step a
// pair of distinct agents is chosen uniformly at random and interacts.
// Parallel time = interactions / number of agents.
//
// Engine.  The hot path is built around four ideas:
//
//   1. Fenwick agent sampling: agent ranks map to states through a Fenwick
//      tree over the count vector (O(log |Q|) per sample, O(log |Q|) to keep
//      in sync when a transition fires) instead of an O(|Q|) prefix scan.
//   2. Incremental silence detection: the engine maintains W = the number
//      of *ordered agent pairs* whose state pair enables a non-silent
//      transition.  W = 0 ⟺ the configuration is silent, so silence is
//      detected exactly and in O(1).  A count change of state q moves W by
//      terms over q's *occupied* partners only, found through the
//      trajectory's support list or q's neighbour list, whichever is
//      shorter — O(min(deg(q), |support|)), so the hub states of leader
//      protocols (a non-silent pair with every state, a handful of states
//      ever occupied) cost O(|support|).  (Scan mode, kept for protocols
//      with few non-silent pairs, keeps O(deg) partner sums instead.)  The
//      weight arithmetic is templated on the population scale: int64 while
//      n(n−1) fits (n ≤ 2³¹ agents), 128-bit beyond — populations past 2³¹
//      take the same fast path as small ones instead of falling back to
//      per-encounter stepping.
//   3. Rejection-free batching: when W is small relative to the n(n−1)
//      ordered pairs, the number of consecutive silent encounters is
//      geometrically distributed — advance() samples it in one shot
//      and moves the interaction counter without executing the silent
//      encounters one by one.  The resulting trajectory distribution is
//      exactly that of the naive per-encounter chain.
//   4. Pair-weight Fenwick sampling: the interacting pair of a fired step
//      (weight-proportional over the non-silent pairs) is drawn from a
//      second Fenwick tree over the ordered pair weights, fed by the same
//      delta machinery that maintains W and flushed lazily right before a
//      selection — O(log #pairs) per fired interaction instead of the
//      O(#pairs) scan the engine used before, which dominated protocols
//      with many non-silent pairs (the double-exponential threshold
//      workload has millions), while dense-regime stepping keeps its
//      O(min(deg, |support|)) cost per count change.  The protocol picks
//      the lane, with no option: Fenwick from kFenwickPairThreshold
//      non-silent pairs up, the (there faster) O(#pairs) scan below.  Both
//      lanes give identical trajectories per seed; only tests force one
//      (reference::EngineSeam in tests/reference/).
//   5. Epoch-batched stepping (StepMode::epoch, opt-in): when the
//      pair-weight structure drifts slowly — the dense merge phases of the
//      E11 double-exponential workloads — k fired steps are drawn as ONE
//      multinomial over the pair-weight Fenwick (conditional-binomial
//      descent) and applied as aggregated per-state count deltas in one
//      pass, with the run of silent encounters folded in as a single
//      negative-binomial draw.  Unlike ideas 1-4, which are trajectory-
//      identical per seed, epoch batching freezes the weights across the
//      epoch and is therefore *distribution*-level: the epoch length is
//      capped so no state's expected consumption exceeds a small fraction
//      of its count (EpochOptions::drift), infeasible draws are rejected
//      and retried at half the length, and the engine falls back to the
//      exact per-step reference path whenever an epoch is not profitable.
//      Epochs need the exact per-pair weights only the Fenwick lane keeps:
//      below kFenwickPairThreshold non-silent pairs epoch mode runs
//      per-step throughout (EpochStats::epochs == 0).  Equivalence is
//      established statistically (chi-squared on firing counts,
//      two-sample tests on convergence times — see tests/support_stats/
//      and docs/ARCHITECTURE.md).
//
// All encounter resolution goes through Protocol::pair_id — PairIds over
// the non-silent pairs only — so the engine is agnostic to the protocol's
// rule-table representation (dense triangular array up to
// kDenseRuleTablePairCap triangular pairs, the sparse hash table that
// unlocks |Q| ≥ 10⁵ above; see RuleTable in core/protocol.hpp) and
// produces identical per-seed trajectories under either.
//
// Convergence detection.  True stabilisation ("no reachable configuration
// changes the output") is undecidable to detect locally, so the simulator
// uses two *sound* sufficient conditions:
//
//   1. Silent configurations: every enabled pair is silent — no transition
//      can ever fire again, so the configuration is trivially stable.
//   2. Output traps: a set W_b ⊆ O⁻¹(b) of states closed under interaction
//      (every transition whose both pre-states lie in W_b has both
//      post-states in W_b).  If all agents are inside W_b, every reachable
//      configuration stays inside, so the output is stably b.  We compute a
//      greatest-fixpoint under-approximation of the largest such trap
//      (sim/traps.hpp: a worklist fixpoint over the protocol's
//      transition-incidence index, O(|T| + evictions · deg) instead of the
//      O(passes · |T|) pass structure it is asserted identical to in
//      tests/sim_trap_test.cpp — trap setup at |Q| ≥ 10⁵ in milliseconds
//      instead of minutes).
//
// Both checks are sound: `converged == true` really means the execution has
// stabilised.  They are not complete; runs that stabilise in a form the
// checks cannot see terminate at `max_interactions` with converged == false.
//
// Stability probes are O(1) along a trajectory: every step context carries
// per-trap outside-support counters (agents sitting outside W_b) maintained
// by the same count-delta machinery that maintains the silence weight W, so
// Trajectory::provably_stable() — and the early-stop checks inside
// advance() — read two counters instead of rescanning the support.
// Simulator::is_provably_stable(Config) is the from-scratch rescan.
//
// Ownership.  A Simulator is read-only after construction and shareable: it
// holds the protocol tables and traps and nothing per run, so any number of
// threads may use one Simulator at once.  A Trajectory — one execution C₀ → C₁ → … — owns
// its configuration, its step context and its counters, and belongs to one
// thread at a time.  All stepping goes through
// advance(Trajectory&, Rng&, const RunOptions&); run()/run_input()/
// run_batch() are thin wrappers that build a Trajectory for the call.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "sim/traps.hpp"
#include "support/fenwick.hpp"
#include "support/rng.hpp"

namespace ppsc {

/// One checkpointable moment of a trajectory, handed to CheckpointHook
/// callbacks.  Everything a snapshot needs (sim/checkpoint.hpp): the
/// current counts, the full Rng state, and the trajectory's counters.
struct CheckpointTick {
    const Config& config;
    std::uint64_t rng_state = 0;
    /// Trajectory::interactions() at the tick — absolute, so it includes
    /// the counters a resumed trajectory was constructed with (run() seeds
    /// them from SimulationOptions::initial_interactions; run_batch()
    /// starts them at 0, so its ticks count within the call).
    std::uint64_t interactions = 0;
    /// Trajectory::fired() at the tick, same accounting.
    std::uint64_t fired = 0;
};

/// Checkpoint-every-N-interactions hook for advance() and its wrappers.
/// The callback fires at the first *fired-step boundary* at or past each
/// cadence mark — never mid-advance — so it neither consumes randomness
/// nor cuts a geometric silent-skip short: trajectories are byte-identical
/// per seed with the hook present, absent, or resumed from any snapshot
/// the hook wrote.  Returning false stops the run after the current step
/// (graceful shutdown); the interactions executed so far are reported as
/// usual.
struct CheckpointHook {
    /// Minimum interactions between callbacks (0 disables the hook).
    std::uint64_t every = 0;
    std::function<bool(const CheckpointTick&)> callback;

    bool active() const noexcept { return every != 0 && callback != nullptr; }
};

/// How advance() moves the chain between stability checks.
/// `per_step` is the exact reference: one weight-proportional draw per
/// fired interaction (with the geometric silent-skip), trajectory-identical
/// per seed across all other engine options.  `epoch` batches fired steps
/// into multinomial epochs whenever the weight structure is drifting slowly
/// enough (see EpochOptions) and falls back to the per-step path otherwise —
/// distribution-identical rather than trajectory-identical, and validated by
/// the statistical-equivalence suite.
enum class StepMode { per_step, epoch };

/// Tuning knobs of the epoch-batched path.  An epoch of k fired steps is
/// taken only when k — capped so that no state's *expected* consumption
/// across the epoch exceeds `drift` of its current count, and so the
/// expected interactions stay within half the remaining budget — reaches
/// `min_firings`; otherwise the engine serves the step from the exact
/// per-step reference path.  Draws whose realized consumption exceeds some
/// count (possible in the binomial tail) are rejected wholesale and retried
/// at half the length, so counts never go negative and every epoch applied
/// is a realizable firing sequence.
struct EpochOptions {
    /// Max expected fraction of any state's count consumed per epoch.
    double drift = 0.125;
    /// Floor below which an epoch is not worth its fixed costs.
    std::uint64_t min_firings = 32;
    /// Hard per-epoch cap — bounds the scratch work between stability and
    /// checkpoint probes (which run at epoch boundaries only).
    std::uint64_t max_firings = std::uint64_t{1} << 22;
};

/// Counters describing how the epoch path engaged along one trajectory
/// (Trajectory::epoch_stats, SimulationResult::epoch).  Tests use them to
/// assert the multinomial path actually ran; benchmarks to report the
/// epoch/fallback mix.
struct EpochStats {
    std::uint64_t epochs = 0;          ///< multinomial epochs applied
    std::uint64_t epoch_fired = 0;     ///< fired interactions drawn in epochs
    std::uint64_t fallback_fired = 0;  ///< fired on the per-step path in epoch mode
    std::uint64_t rejected_draws = 0;  ///< infeasible epoch draws retried/abandoned
};

struct SimulationOptions {
    /// Hard cap on interactions before giving up.
    std::uint64_t max_interactions = 50'000'000;
    /// Resume support: interactions already executed before this call (a
    /// restored checkpoint).  Counted against max_interactions and included
    /// in the reported totals, so resuming a run at its checkpoint replays
    /// the uninterrupted run's tail byte-identically.
    std::uint64_t initial_interactions = 0;
    /// Resume support for the fired counter: non-silent interactions
    /// executed before this call.  Included in SimulationResult::fired and
    /// in checkpoint ticks, so snapshots written by a resumed run carry the
    /// same totals the uninterrupted run would have written.
    std::uint64_t initial_fired = 0;
    /// Periodic checkpointing along the run (tick interactions are absolute,
    /// i.e. include initial_interactions; tick fired counts include
    /// initial_fired).
    CheckpointHook checkpoint;
    /// Exact per-step reference vs. epoch-batched stepping (see StepMode).
    /// Epochs engage only on the Fenwick lane (protocols with at least
    /// kFenwickPairThreshold non-silent pairs); below it the run is
    /// per-step and SimulationResult::epoch reports 0 epochs.
    StepMode step_mode = StepMode::per_step;
    /// Epoch tuning, read only when step_mode == StepMode::epoch.
    EpochOptions epoch;
};

struct SimulationResult {
    Config final_config;
    std::uint64_t interactions = 0;   ///< total interactions executed
    std::uint64_t fired = 0;          ///< non-silent interactions executed
    bool converged = false;           ///< a sound stability condition fired
    std::optional<int> output;        ///< consensus output of the final config
    double parallel_time = 0.0;       ///< interactions / population
    EpochStats epoch;                 ///< epoch-path counters of this run
};

/// What one advance() call may do.
struct RunOptions {
    /// Interactions this call may execute (silent encounters included).
    std::uint64_t budget = 0;
    /// Stop as soon as the trajectory is provably stable (an O(1) counter
    /// read per fired step; the trajectory up to the stop is unchanged).
    bool stop_when_stable = false;
    /// Checkpoint hook, invoked at fired-step (or epoch) boundaries; the
    /// tick carries the trajectory's absolute counters.  Not invoked on the
    /// step that made a stop_when_stable call provably stable.
    const CheckpointHook* hook = nullptr;
    /// Exact per-step reference vs. epoch-batched stepping (see StepMode).
    /// Epochs engage only on the Fenwick lane (protocols with at least
    /// kFenwickPairThreshold non-silent pairs); below it every fired step
    /// takes the per-step path and EpochStats::epochs stays 0.
    StepMode step_mode = StepMode::per_step;
    /// Epoch tuning, read only when step_mode == StepMode::epoch.
    EpochOptions epoch;
};

/// Why an advance() call returned.
enum class StopReason {
    budget,  ///< RunOptions::budget interactions were executed
    silent,  ///< no transition can fire again
    stable,  ///< stop_when_stable and a sound stability condition holds
    hook,    ///< the checkpoint callback asked to stop
};

/// What one advance() call did.
struct RunReport {
    std::uint64_t interactions = 0;  ///< executed by this call, ≤ budget
    std::uint64_t fired = 0;         ///< non-silent interactions among them
    StopReason stop = StopReason::budget;
};

/// Non-silent pair count from which a Simulator selects fired pairs through
/// the pair-weight Fenwick tree; below it the cumulative scan is faster
/// (break-even well under a thousand on the E10 collector workloads).
inline constexpr std::size_t kFenwickPairThreshold = 256;

class Simulator;

namespace reference {
struct EngineSeam;
}

namespace detail {

/// The fired-step pair-selection lane a Simulator picked from its protocol.
enum class PairSelect { fenwick, scan };

/// A Trajectory's incremental sampler state, templated on the pair weight
/// type: int64 while every ordered pair weight fits (populations ≤ 2³¹
/// agents), Int128 beyond.  Everything here is a function of (protocol,
/// current counts).
///
/// The ordered pair weights (c(c−1) for self pairs, 2·c_p·c_q
/// otherwise, by PairId) live in two layers: `pair_weights` and
/// `active_weight` are exact after every count change at
/// O(min(deg, |support|)) array cost — only pairs with an occupied partner
/// change, found through `support` — while the Fenwick `pair_tree` used
/// for O(log #pairs) fired-pair selection is a *lazy mirror*, flushed (or
/// rebuilt, when cheaper) only when a sparse-regime selection actually
/// needs it — dense-regime stepping never pays tree maintenance.
template <typename Weight>
struct StepContext {
    FenwickTree agents;  ///< Fenwick tree over the count vector
    std::vector<Weight> pair_weights;  ///< exact weights, by PairId
    Weight active_weight = 0;          ///< Σ pair_weights = W; 0 ⟺ silent
    BasicFenwickTree<Weight> pair_tree;  ///< lazy mirror of pair_weights
    std::vector<Weight> tree_mirror;     ///< what pair_tree currently holds
    /// PairIds whose mirror entry may be stale (duplicates allowed).
    /// Once it passes the rebuild threshold the next flush rebuilds the
    /// whole tree instead, so the queue — and per-update work — stays
    /// bounded through arbitrarily long dense phases.
    std::vector<Protocol::PairId> dirty;
    /// Fenwick mode only: the support — every state holding agents, in no
    /// particular order — and each occupied state's slot in it (stale for
    /// empty states), for O(1) insert and swap-remove when a count crosses
    /// 0.  Count changes visit a state's occupied partners through this
    /// list or its neighbour list, whichever is shorter.
    std::vector<StateId> support;
    std::vector<std::uint32_t> support_slot;
    /// Scan mode only: partner_weight[q] = Σ counts[p] over non-self
    /// non-silent partners p of q, which maintains active_weight with a
    /// single multiply per count change instead of per-pair products
    /// (scan selection recomputes per-pair weights from the counts).
    std::vector<AgentCount> partner_weight;
    /// Agents currently outside each output trap W_b — 0 ⟺ the trap
    /// captured the whole population, i.e. the output is stably b.
    /// Maintained in apply_count_delta, so stability probes along a
    /// trajectory are O(1) counter reads.
    AgentCount outside_trap[2] = {0, 0};
    /// Epoch-mode scratch, lazily sized to |Q| and kept all-zero between
    /// epochs via the touched lists (clearing is O(|touched|), so the
    /// per-epoch cost never scales with |Q|): per-state expected
    /// consumption rate (in units of W), realized consumption of the
    /// current draw, net count delta of the current draw.
    std::vector<double> epoch_rate;
    std::vector<AgentCount> epoch_cons;
    std::vector<AgentCount> epoch_delta;
    std::vector<StateId> epoch_rate_touched;
    std::vector<StateId> epoch_touched;

    /// The O(1) stable-consensus probe: a trap holds the whole
    /// population, or the configuration is silent (W == 0).
    bool provably_stable() const noexcept {
        return outside_trap[0] == 0 || outside_trap[1] == 0 || active_weight == 0;
    }
};

}  // namespace detail

/// One execution of a simulator's protocol: the current configuration, the
/// incremental sampler state that makes stepping and stability probes cheap,
/// and the interaction/fired/epoch counters accumulated so far.  A value
/// type (copying forks the execution); it refers to its Simulator, which
/// must outlive it, and is advanced only by that Simulator.
class Trajectory {
public:
    /// Starts at `config`.  `interactions`/`fired` seed the counters, so a
    /// trajectory restored from a checkpoint continues its totals.  Throws
    /// std::invalid_argument when `config` does not have exactly the
    /// protocol's number of states.  Populations of 0 or 1 agents are
    /// allowed: they have no pairs and are silent.
    Trajectory(const Simulator& simulator, Config config, std::uint64_t interactions = 0,
               std::uint64_t fired = 0);

    const Config& config() const noexcept { return config_; }
    /// Interactions executed so far (silent encounters included).
    std::uint64_t interactions() const noexcept { return interactions_; }
    /// Non-silent interactions executed so far.
    std::uint64_t fired() const noexcept { return fired_; }
    const EpochStats& epoch_stats() const noexcept { return epoch_stats_; }

    /// O(1): every enabled pair of states is silent (the W == 0 identity).
    bool silent() const;
    /// O(1): a trap holds the whole population, or the trajectory is
    /// silent — the two sound stability conditions.
    bool provably_stable() const;

private:
    friend class Simulator;

    const Simulator* simulator_;
    Config config_;
    /// The weight width is fixed at construction: a trajectory's population
    /// never changes.
    std::variant<detail::StepContext<std::int64_t>, detail::StepContext<Int128>> context_;
    std::uint64_t interactions_ = 0;
    std::uint64_t fired_ = 0;
    EpochStats epoch_stats_;
};

/// The protocol tables and output traps of one protocol, read-only after
/// construction and freely shared between threads.
class Simulator {
public:
    /// Picks the pair-selection lane from `protocol` (kFenwickPairThreshold).
    explicit Simulator(const Protocol& protocol);

    /// Wall-clock seconds the constructor spent computing the output traps
    /// — the quantity the worklist fixpoint collapses at |Q| ≥ 10⁵
    /// (surfaced as the E11 `trap_setup_seconds` column).
    double trap_setup_seconds() const noexcept { return trap_setup_seconds_; }

    /// Advances `trajectory` by up to `options.budget` interactions (silent
    /// encounters are counted and, when profitable, skipped in bulk without
    /// changing the trajectory distribution).  Returns fewer only when the
    /// trajectory went silent, became provably stable under
    /// `stop_when_stable`, or the hook asked to stop — RunReport::stop says
    /// which.  With `step_mode == StepMode::epoch` fired steps are served
    /// in multinomial epochs where profitable; hooks and stability probes
    /// then run at epoch boundaries.  Throws std::invalid_argument when
    /// `trajectory` belongs to another simulator.
    RunReport advance(Trajectory& trajectory, Rng& rng, const RunOptions& options) const;

    /// Runs from `config` until a sound stability condition holds or the
    /// interaction budget is exhausted.  Throws std::invalid_argument on
    /// fewer than two agents or a configuration over the wrong states.
    SimulationResult run(Config config, Rng& rng, const SimulationOptions& options = {}) const;

    /// Runs from IC(input) (single-input protocols).
    SimulationResult run_input(AgentCount input, Rng& rng,
                               const SimulationOptions& options = {}) const;

    /// advance() on a trajectory started at `config` with zero counters,
    /// writing the final configuration back: returns the interactions
    /// executed; `fired_count`, when non-null, receives the non-silent
    /// interactions of this call (restart loops sum it themselves).
    std::uint64_t run_batch(Config& config, Rng& rng, std::uint64_t max_interactions,
                            bool stop_when_stable = false,
                            const CheckpointHook* hook = nullptr,
                            std::uint64_t* fired_count = nullptr) const;

    /// Executes exactly one interaction — the per-encounter reference
    /// chain; returns the transition fired (nullopt for a silent
    /// encounter).  Throws std::invalid_argument on fewer than two agents.
    std::optional<TransitionId> step(Trajectory& trajectory, Rng& rng) const;

    /// Advances the chain to its next *fired* interaction: consumes the
    /// (geometrically distributed) run of silent encounters, then fires one
    /// non-silent transition and returns it.  Sets *consumed (if non-null)
    /// to the interactions executed, silent run included.  Returns nullopt
    /// with *consumed == 0 when the trajectory is silent (or has < 2
    /// agents), and nullopt with *consumed == budget when the budget ran
    /// out inside the silent run.
    std::optional<TransitionId> fired_step(Trajectory& trajectory, Rng& rng,
                                           std::uint64_t budget,
                                           std::uint64_t* consumed = nullptr) const;

    /// Samples the states of a uniform ordered pair of distinct agents
    /// without stepping — the scheduler's encounter distribution.  Exposed
    /// for statistical tests.  Throws std::invalid_argument on fewer than
    /// two agents.
    std::pair<StateId, StateId> sample_pair(const Trajectory& trajectory, Rng& rng) const;

    /// The output trap W_b used for convergence detection (exposed for
    /// tests and for the stable-set experiments).
    const std::vector<bool>& output_trap(int b) const { return traps_[b]; }

    /// True iff the configuration is silent: every enabled pair of states
    /// has only the implicit silent transition.  A counts-based rescan over
    /// min(#non-silent pairs, |support|²) candidates (Trajectory::silent
    /// is the O(1) probe).  Throws std::invalid_argument when `config` does
    /// not have exactly the protocol's number of states.
    bool is_silent(const Config& config) const;

    /// True iff one of the two sound stability conditions holds: a support
    /// scan plus a silence rescan (Trajectory::provably_stable is the O(1)
    /// probe).  Throws like is_silent.
    bool is_provably_stable(const Config& config) const;

private:
    friend class Trajectory;
    friend struct reference::EngineSeam;
    template <typename W>
    using Context = detail::StepContext<W>;

    Simulator(const Protocol& protocol, detail::PairSelect pair_select);

    void compute_output_traps();
    void check_states(const Config& config, const char* where) const;
    void check_owner(const Trajectory& trajectory) const;

    template <typename W>
    void init_context(Context<W>& ctx, const Config& config) const;

    /// Adds `delta` agents to state q, keeping the agent tree, the support
    /// and the exact pair-weight layer in sync in O(min(deg(q), |support|)):
    /// only the pairs of q with an occupied partner change, found through
    /// the support or the protocol's per-pair delta table, whichever is
    /// shorter (the pair tree is only marked stale).  Scan mode updates its
    /// partner sums instead, in O(deg(q)).
    template <typename W>
    void apply_count_delta(Context<W>& ctx, Config& config, StateId q, AgentCount delta) const;
    template <typename W>
    void fire_in_context(Context<W>& ctx, Config& config, const Transition& t) const;

    /// Brings the pair tree up to date with pair_weights: applies the queued
    /// deltas, or rebuilds outright once that is cheaper.
    template <typename W>
    void flush_pair_tree(Context<W>& ctx) const;

    template <typename W>
    std::optional<TransitionId> step_in_context(Context<W>& ctx, Config& config, Rng& rng) const;

    /// Advances the interaction chain by up to `budget` interactions:
    /// consumes the (geometrically distributed) run of silent encounters,
    /// then fires one non-silent transition.  Sets *consumed to the number
    /// of interactions executed (silent run + the firing one), never more
    /// than `budget`.  Returns nullopt with *consumed == 0 iff the
    /// configuration is silent, and nullopt with *consumed == budget when
    /// the budget ran out first.
    template <typename W>
    std::optional<TransitionId> next_fired(Context<W>& ctx, Config& config, Rng& rng,
                                           std::uint64_t budget, std::uint64_t* consumed) const;

    /// Serves up to one epoch of fired steps as a single multinomial draw
    /// over the pair-weight Fenwick, applied as aggregated per-state count
    /// deltas in one pass, plus one negative-binomial draw for the silent
    /// encounters interleaved among them.  Returns false when no profitable
    /// epoch exists at the current weights (the caller takes the exact
    /// per-step path); returns true with *consumed == 0 iff the
    /// configuration is silent.  Requires Fenwick pair selection.
    template <typename W>
    bool next_epoch(Context<W>& ctx, Config& config, Rng& rng, std::uint64_t budget,
                    const EpochOptions& epoch, std::uint64_t* consumed, std::uint64_t* fired,
                    EpochStats& stats) const;

    /// The stepping loop behind advance().
    template <typename W>
    RunReport advance_in(Trajectory& trajectory, Context<W>& ctx, Rng& rng,
                         const RunOptions& options) const;

    // Owned copy: simulators are long-lived; never dangle on a temporary.
    Protocol protocol_;
    detail::PairSelect pair_select_;
    double trap_setup_seconds_ = 0.0;
    std::vector<bool> traps_[2];  // traps_[b][q]: q belongs to the b-trap
    /// outside_mask_[q]: bit b set ⟺ q lies *outside* trap b — one byte
    /// load resolves both per-trap counter updates on the count-delta path.
    std::vector<std::uint8_t> outside_mask_;
};

}  // namespace ppsc
