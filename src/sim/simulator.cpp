#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <variant>

#include "support/check.hpp"

namespace ppsc {

using detail::PairSelect;

namespace {

/// The scheduler resolves transition nondeterminism uniformly.
TransitionId choose_rule(std::span<const TransitionId> rules, Rng& rng) {
    return rules.size() == 1 ? rules[0]
                             : rules[static_cast<std::size_t>(rng.below(rules.size()))];
}

/// Ordered weight of one non-silent pair at the current counts.  All
/// intermediates are bounded by n(n−1), so the caller's weight type is wide
/// enough for the arithmetic as well.
template <typename W>
W pair_weight(const Config& config, StateId a, StateId b) {
    const auto ca = static_cast<W>(config[a]);
    return a == b ? ca * (ca - 1) : 2 * ca * static_cast<W>(config[b]);
}

/// Pair weights fit int64 exactly when n(n−1) does: n ≤ 2³¹ agents.
bool pairs_fit_int64(AgentCount population) noexcept {
    return population <= (AgentCount{1} << 31);
}

/// Samples an ordered pair of distinct agent ranks, then maps ranks to
/// states through the Fenwick tree (O(log |Q|) instead of a prefix scan).
std::pair<StateId, StateId> sample_agents(const FenwickTree& agents, Rng& rng) {
    const std::int64_t n = agents.total();
    PPSC_DASSERT(n >= 2);
    const auto r1 = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n)));
    auto r2 = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n - 1)));
    if (r2 >= r1) ++r2;
    return {static_cast<StateId>(agents.sample(r1)), static_cast<StateId>(agents.sample(r2))};
}

void require_pairs(const Config& config, const char* where) {
    if (config.size() < 2)
        throw std::invalid_argument(std::string(where) + ": needs at least two agents");
}

}  // namespace

Trajectory::Trajectory(const Simulator& simulator, Config config, std::uint64_t interactions,
                       std::uint64_t fired)
    : simulator_(&simulator),
      config_(std::move(config)),
      interactions_(interactions),
      fired_(fired) {
    simulator.check_states(config_, "Trajectory");
    if (pairs_fit_int64(config_.size())) {
        simulator.init_context(context_.emplace<detail::StepContext<std::int64_t>>(), config_);
    } else {
        simulator.init_context(context_.emplace<detail::StepContext<Int128>>(), config_);
    }
}

bool Trajectory::silent() const {
    return std::visit([](const auto& ctx) { return ctx.active_weight == 0; }, context_);
}

bool Trajectory::provably_stable() const {
    return std::visit([](const auto& ctx) { return ctx.provably_stable(); }, context_);
}

// The lane is keyed on the PairId universe (#non-silent pairs), not on
// |Q|² — so it resolves identically under the dense and the sparse rule
// table, and a sparse-table protocol with |Q| ≥ 10⁵ but a handful of
// rule-bearing pairs still gets the cheaper scan.
Simulator::Simulator(const Protocol& protocol)
    : Simulator(protocol, protocol.nonsilent_pairs().size() >= kFenwickPairThreshold
                              ? PairSelect::fenwick
                              : PairSelect::scan) {}

Simulator::Simulator(const Protocol& protocol, PairSelect pair_select)
    : protocol_(protocol), pair_select_(pair_select) {
    compute_output_traps();
}

void Simulator::compute_output_traps() {
    // The fixpoint itself lives in sim/traps.cpp.  The constructor
    // additionally folds the two trap bitmaps into the per-state outside
    // mask the count-delta hot path reads.
    const auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < 2; ++b) traps_[b] = compute_output_trap(protocol_, b);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    trap_setup_seconds_ = elapsed.count();

    const std::size_t n = protocol_.num_states();
    outside_mask_.assign(n, 0);
    for (std::size_t q = 0; q < n; ++q) {
        outside_mask_[q] = static_cast<std::uint8_t>((traps_[0][q] ? 0u : 1u) |
                                                     (traps_[1][q] ? 0u : 2u));
    }
}

void Simulator::check_states(const Config& config, const char* where) const {
    if (config.num_states() != protocol_.num_states())
        throw std::invalid_argument(std::string(where) + ": configuration has " +
                                    std::to_string(config.num_states()) +
                                    " states, the protocol has " +
                                    std::to_string(protocol_.num_states()));
}

void Simulator::check_owner(const Trajectory& trajectory) const {
    if (trajectory.simulator_ != this)
        throw std::invalid_argument("trajectory belongs to another simulator");
}

bool Simulator::is_silent(const Config& config) const {
    check_states(config, "Simulator::is_silent");
    // Counts-based rescan over whichever candidate set is smaller: the
    // protocol's non-silent pairs (Θ(#pairs), independent of how the
    // population spreads) or the support-pair square.  Wide-support
    // configurations on |Q| ≥ 10⁵ protocols used to pay O(|support|²) hash
    // probes here; the flagship family has only Θ(|Q|) non-silent pairs.
    const std::vector<StateId> support = config.support();
    if (protocol_.nonsilent_pairs().size() < support.size() * support.size()) {
        for (const auto& [p, q] : protocol_.nonsilent_pairs()) {
            const bool enabled = p == q ? config[p] >= 2 : config[p] >= 1 && config[q] >= 1;
            if (enabled) return false;
        }
        return true;
    }
    for (std::size_t i = 0; i < support.size(); ++i) {
        for (std::size_t j = i; j < support.size(); ++j) {
            if (i == j && config[support[i]] < 2) continue;  // pair needs two agents
            if (!protocol_.pair_is_silent(support[i], support[j])) return false;
        }
    }
    return true;
}

bool Simulator::is_provably_stable(const Config& config) const {
    check_states(config, "Simulator::is_provably_stable");
    for (int b = 0; b < 2; ++b) {
        bool inside = true;
        for (const StateId q : config.support()) {
            if (!traps_[b][static_cast<std::size_t>(q)]) {
                inside = false;
                break;
            }
        }
        if (inside) return true;
    }
    return is_silent(config);
}

template <typename W>
void Simulator::init_context(Context<W>& ctx, const Config& config) const {
    ctx.agents.assign(config.counts());
    const auto pairs = protocol_.nonsilent_pairs();
    ctx.active_weight = 0;
    if (pair_select_ == PairSelect::fenwick) {
        ctx.pair_weights.resize(pairs.size());
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            ctx.pair_weights[i] = pair_weight<W>(config, pairs[i].first, pairs[i].second);
            ctx.active_weight += ctx.pair_weights[i];
        }
        ctx.pair_tree.assign(ctx.pair_weights);
        ctx.tree_mirror = ctx.pair_weights;
        // The support, maintained from here on by apply_count_delta;
        // reserved to |Q| so its insertions never reallocate mid-run.
        const auto& counts = config.counts();
        ctx.support.clear();
        ctx.support.reserve(counts.size());
        ctx.support_slot.assign(counts.size(), 0);
        for (std::size_t q = 0; q < counts.size(); ++q) {
            if (counts[q] == 0) continue;
            ctx.support_slot[q] = static_cast<std::uint32_t>(ctx.support.size());
            ctx.support.push_back(static_cast<StateId>(q));
        }
    } else {
        // Scan mode recomputes pair weights from the counts on selection;
        // only the total W is kept incrementally, through the partner-sum
        // identity Σ_q c_q · partner_weight[q] + Σ_self c(c−1), which counts
        // every ordered non-silent pair exactly once.
        const auto& counts = config.counts();
        ctx.partner_weight.assign(counts.size(), 0);
        for (std::size_t q = 0; q < counts.size(); ++q) {
            AgentCount w = 0;
            for (const Protocol::PairNeighbor& nb : protocol_.pair_neighbors(static_cast<StateId>(q)))
                w += counts[static_cast<std::size_t>(nb.partner)];
            ctx.partner_weight[q] = w;
            ctx.active_weight += static_cast<W>(counts[q]) * static_cast<W>(w);
            if (protocol_.self_pair(static_cast<StateId>(q)) != Protocol::kNoPair)
                ctx.active_weight += static_cast<W>(counts[q]) * (static_cast<W>(counts[q]) - 1);
        }
    }
    // Per-trap outside-support counters: how many agents sit outside each
    // W_b right now (0 ⟺ the output is stably b).  Maintained incrementally
    // from here on by apply_count_delta.
    ctx.outside_trap[0] = 0;
    ctx.outside_trap[1] = 0;
    const auto& counts = config.counts();
    for (std::size_t q = 0; q < counts.size(); ++q) {
        if (counts[q] == 0) continue;
        const std::uint8_t outside = outside_mask_[q];
        if (outside & 1u) ctx.outside_trap[0] += counts[q];
        if (outside & 2u) ctx.outside_trap[1] += counts[q];
    }
    ctx.dirty.clear();
}

template <typename W>
void Simulator::flush_pair_tree(Context<W>& ctx) const {
    if (ctx.dirty.empty()) return;
    // Past the threshold an O(n) rebuild beats replaying the queue (and the
    // queue stopped growing there, so this also bounds its memory).
    if (ctx.dirty.size() >= ctx.pair_weights.size() / 8 + 16) {
        ctx.pair_tree.assign(ctx.pair_weights);
        ctx.tree_mirror = ctx.pair_weights;
    } else {
        for (const Protocol::PairId id : ctx.dirty) {
            const W delta = ctx.pair_weights[id] - ctx.tree_mirror[id];
            if (delta != 0) {
                ctx.pair_tree.add(id, delta);
                ctx.tree_mirror[id] = ctx.pair_weights[id];
            }
        }
    }
    ctx.dirty.clear();
}

template <typename W>
void Simulator::apply_count_delta(Context<W>& ctx, Config& config, StateId q,
                                  AgentCount delta) const {
    const auto qi = static_cast<std::size_t>(q);
    const AgentCount before = config[q];
    config.add(q, delta);
    ctx.agents.add(qi, delta);
    // Outside-trap counters: one byte load resolves both traps.
    if (const std::uint8_t outside = outside_mask_[qi]; outside != 0) {
        if (outside & 1u) ctx.outside_trap[0] += delta;
        if (outside & 2u) ctx.outside_trap[1] += delta;
    }
    // Δ of c(c−1) for the self pair (0 when the count moves between 0 and
    // 1), 2·Δc·count(p) for each cross pair {q, p}.
    const Protocol::PairId self = protocol_.self_pair(q);
    const W self_delta = self == Protocol::kNoPair
                             ? W{0}
                             : static_cast<W>(delta) * (2 * static_cast<W>(before) + delta - 1);
    if (pair_select_ == PairSelect::fenwick) {
        // Support: the count may cross 0 by any delta (epochs move many
        // agents at once); leaving is a swap-remove through the slot index.
        const AgentCount after = before + delta;
        if (before == 0 && after != 0) {
            ctx.support_slot[qi] = static_cast<std::uint32_t>(ctx.support.size());
            ctx.support.push_back(q);
        } else if (before != 0 && after == 0) {
            const std::uint32_t slot = ctx.support_slot[qi];
            const StateId last = ctx.support.back();
            ctx.support[slot] = last;
            ctx.support_slot[static_cast<std::size_t>(last)] = slot;
            ctx.support.pop_back();
        }
        // Exact per-pair weights; the tree mirror is only marked stale —
        // see flush_pair_tree.  Zero deltas are never applied, so the dirty
        // queue holds only real changes.
        const std::size_t queue_cap = ctx.pair_weights.size() / 8 + 16;
        const auto touch = [&ctx, queue_cap](Protocol::PairId id, W weight_delta) {
            ctx.active_weight += weight_delta;
            ctx.pair_weights[id] += weight_delta;
            if (ctx.dirty.size() < queue_cap) ctx.dirty.push_back(id);
        };
        if (self_delta != 0) touch(self, self_delta);
        // Only pairs with an occupied partner change weight: walk the
        // support (one pair lookup per occupied state) or q's neighbour
        // list (skipping empty partners), whichever is shorter.  Hub states
        // of leader protocols pair with every state, yet only a handful are
        // ever occupied.
        const auto neighbors = protocol_.pair_neighbors(q);
        if (ctx.support.size() < neighbors.size()) {
            for (const StateId s : ctx.support) {
                if (s == q) continue;
                if (const Protocol::PairId id = protocol_.pair_id(q, s); id != Protocol::kNoPair)
                    touch(id, 2 * static_cast<W>(delta) * static_cast<W>(config[s]));
            }
        } else {
            for (const Protocol::PairNeighbor& nb : neighbors) {
                if (const AgentCount c = config[nb.partner]; c != 0)
                    touch(nb.pair, 2 * static_cast<W>(delta) * static_cast<W>(c));
            }
        }
    } else {
        // Scan mode: total W only, via the partner sums (one multiply per
        // count change + O(deg) array adds; scan mode serves protocols
        // with few non-silent pairs, so deg is small).
        ctx.active_weight += self_delta + 2 * static_cast<W>(delta) *
                                              static_cast<W>(ctx.partner_weight[qi]);
        for (const Protocol::PairNeighbor& nb : protocol_.pair_neighbors(q))
            ctx.partner_weight[static_cast<std::size_t>(nb.partner)] += delta;
    }
}

template <typename W>
void Simulator::fire_in_context(Context<W>& ctx, Config& config,
                                const Transition& t) const {
    apply_count_delta(ctx, config, t.pre1, -1);
    apply_count_delta(ctx, config, t.pre2, -1);
    apply_count_delta(ctx, config, t.post1, 1);
    apply_count_delta(ctx, config, t.post2, 1);
}

template <typename W>
std::optional<TransitionId> Simulator::step_in_context(Context<W>& ctx, Config& config,
                                                       Rng& rng) const {
    const auto [s1, s2] = sample_agents(ctx.agents, rng);
    const Protocol::PairId pair = protocol_.pair_id(s1, s2);
    if (pair == Protocol::kNoPair) return std::nullopt;  // silent encounter

    const TransitionId chosen = choose_rule(protocol_.rules_for_pair_id(pair), rng);
    fire_in_context(ctx, config, protocol_.transitions()[static_cast<std::size_t>(chosen)]);
    return chosen;
}

template <typename W>
std::optional<TransitionId> Simulator::next_fired(Context<W>& ctx, Config& config, Rng& rng,
                                                  std::uint64_t budget,
                                                  std::uint64_t* consumed) const {
    *consumed = 0;
    if (budget == 0) return std::nullopt;
    const W weight = ctx.active_weight;
    if (weight == 0) return std::nullopt;  // silent: nothing fires, ever

    const auto n = static_cast<W>(config.size());
    const W pairs = n * (n - 1);
    std::uint64_t silent_steps = 0;
    if (weight > pairs / 8) {
        // Dense regime: most encounters fire, per-encounter sampling is
        // cheaper than drawing the geometric skip.
        while (true) {
            if (silent_steps == budget) {
                *consumed = budget;
                return std::nullopt;
            }
            const auto [s1, s2] = sample_agents(ctx.agents, rng);
            const Protocol::PairId pair = protocol_.pair_id(s1, s2);
            if (pair != Protocol::kNoPair) {
                const TransitionId chosen =
                    choose_rule(protocol_.rules_for_pair_id(pair), rng);
                fire_in_context(ctx, config,
                                protocol_.transitions()[static_cast<std::size_t>(chosen)]);
                *consumed = silent_steps + 1;
                return chosen;
            }
            ++silent_steps;
        }
    }

    // Sparse regime: the number of consecutive silent encounters is
    // geometric with success probability p = weight/pairs — sample it in
    // one shot instead of executing the silent encounters one by one.
    const double p = static_cast<double>(weight) / static_cast<double>(pairs);
    const double u = 1.0 - rng.uniform();  // (0, 1]
    const double skip = std::floor(std::log(u) / std::log1p(-p));
    // Clamp before any integer conversion: beyond 2⁵³ the double no longer
    // holds an exact count (and a cast to uint64 could overflow outright),
    // so treat any such skip as "at least the whole budget is silent" —
    // `consumed` must never over-count past `budget`.
    if (!(skip < 0x1p53) || static_cast<std::uint64_t>(skip) >= budget) {
        *consumed = budget;
        return std::nullopt;
    }
    silent_steps = static_cast<std::uint64_t>(skip);

    // The interacting state pair, conditioned on the encounter being
    // non-silent, is weight-proportional over the non-silent pairs.  Both
    // selection modes resolve the same rank draw over the same weights in
    // the same order, so they fire identical transitions per seed.
    // ppsc-lint: allow(R4) below128(b) < b by contract and weight is a W value, so the rank fits W
    const auto r = static_cast<W>(rng.below128(static_cast<unsigned __int128>(weight)));
    Protocol::PairId chosen_pair = Protocol::kNoPair;
    if (pair_select_ == PairSelect::fenwick) {
        flush_pair_tree(ctx);
        PPSC_DASSERT(ctx.pair_tree.total() == ctx.active_weight);
        chosen_pair = static_cast<Protocol::PairId>(ctx.pair_tree.sample(r));
    } else {
        // Reference O(#pairs) cumulative scan, recomputed from the counts —
        // independently cross-checks the incremental weight accounting.
        W rest = r;
        const auto nonsilent = protocol_.nonsilent_pairs();
        for (std::size_t i = 0; i < nonsilent.size(); ++i) {
            const W w = pair_weight<W>(config, nonsilent[i].first, nonsilent[i].second);
            if (rest < w) {
                chosen_pair = static_cast<Protocol::PairId>(i);
                break;
            }
            rest -= w;
        }
        PPSC_CHECK_MSG(chosen_pair != Protocol::kNoPair,
                       "active pair weight out of sync with counts");
    }
    // The PairId indexes the compact CSR directly — no pair lookup (dense
    // array or sparse hash probe) on the fired-step path at all.
    const auto rules = protocol_.rules_for_pair_id(chosen_pair);
    PPSC_DASSERT(!rules.empty());
    const TransitionId chosen = choose_rule(rules, rng);
    fire_in_context(ctx, config, protocol_.transitions()[static_cast<std::size_t>(chosen)]);
    *consumed = silent_steps + 1;
    return chosen;
}

template <typename W>
bool Simulator::next_epoch(Context<W>& ctx, Config& config, Rng& rng, std::uint64_t budget,
                           const EpochOptions& epoch, std::uint64_t* consumed,
                           std::uint64_t* fired, EpochStats& stats) const {
    PPSC_DASSERT(pair_select_ == PairSelect::fenwick);
    *consumed = 0;
    *fired = 0;
    const W weight = ctx.active_weight;
    if (weight == 0) return true;  // silent: nothing fires, ever
    if (budget == 0 || epoch.drift <= 0.0) return false;

    const std::size_t num_states = protocol_.num_states();
    if (ctx.epoch_rate.size() != num_states) {
        ctx.epoch_rate.assign(num_states, 0.0);
        ctx.epoch_cons.assign(num_states, 0);
        ctx.epoch_delta.assign(num_states, 0);
    }

    // Epoch detection = epoch sizing.  Freezing the weights is sound only
    // while the weight structure barely moves, and the structure is a
    // function of the counts — so cap the epoch length k such that every
    // state's EXPECTED consumption over k firings stays within
    // drift·count[q].  The per-firing consumption rate of state q is
    // (Σ_{active pairs touching q} mult·w_i)/W with mult = 2 on the self
    // pair: exactly the multinomial's expected draw pattern.  A global
    // min-count cap would be useless here (E11's merge frontier always has
    // a count-2 level, but its weight — hence its rate — is tiny); the
    // rate-relative cap keeps k at 10⁵-10⁶ through exactly those phases.
    const double weight_d = static_cast<double>(weight);
    const auto pairs = protocol_.nonsilent_pairs();
    auto& rate = ctx.epoch_rate;
    auto& rate_touched = ctx.epoch_rate_touched;
    rate_touched.clear();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const W w = ctx.pair_weights[i];
        if (w == 0) continue;
        const double wd = static_cast<double>(w);
        const auto [p, q] = pairs[i];
        const auto pi = static_cast<std::size_t>(p);
        const auto qi = static_cast<std::size_t>(q);
        if (p == q) {
            if (rate[pi] == 0.0) rate_touched.push_back(p);
            rate[pi] += 2.0 * wd;
        } else {
            if (rate[pi] == 0.0) rate_touched.push_back(p);
            rate[pi] += wd;
            if (rate[qi] == 0.0) rate_touched.push_back(q);
            rate[qi] += wd;
        }
    }
    double k_cap = static_cast<double>(epoch.max_firings);
    for (const StateId s : rate_touched) {
        const auto si = static_cast<std::size_t>(s);
        const double cap = epoch.drift * static_cast<double>(config[s]) * weight_d / rate[si];
        if (cap < k_cap) k_cap = cap;
        rate[si] = 0.0;  // leave the scratch all-zero for the next epoch
    }
    // Keep the epoch's EXPECTED interaction total (fired + silent, k/p in
    // expectation) within half the remaining budget, so budget-capped calls
    // overshoot at most in the tail of the final epoch.
    const auto n = static_cast<W>(config.size());
    const W pairs_total = n * (n - 1);
    const double p_fire = weight_d / static_cast<double>(pairs_total);
    if (const double budget_cap = 0.5 * static_cast<double>(budget) * p_fire; budget_cap < k_cap)
        k_cap = budget_cap;

    auto k = static_cast<std::uint64_t>(k_cap);
    if (k < epoch.min_firings) return false;  // not profitable: per-step path

    // Draw the per-pair firing counts as one multinomial over the frozen
    // weights (conditional-binomial descent of the pair tree), resolve rule
    // nondeterminism by uniform binomial splits, and accumulate per-state
    // consumption and net deltas.  A draw whose realized consumption
    // exceeds some count (possible in the binomial tail — the cap above
    // only bounds the expectation) is rejected wholesale and retried at
    // half the length: every epoch actually applied is realizable as a
    // firing sequence, and counts can never go negative.
    flush_pair_tree(ctx);
    PPSC_DASSERT(ctx.pair_tree.total() == ctx.active_weight);
    const auto transitions = protocol_.transitions();
    auto& cons = ctx.epoch_cons;
    auto& delta = ctx.epoch_delta;
    auto& touched = ctx.epoch_touched;
    for (int attempt = 0;; ++attempt) {
        touched.clear();
        const auto bump = [&](StateId s, AgentCount used, AgentCount moved) {
            const auto si = static_cast<std::size_t>(s);
            // (cons, delta) == (0, 0) ⟺ untouched: cons only grows, and a
            // state first touched as a post-state has delta > 0 from then on
            // unless it also becomes a pre-state (then cons > 0).
            if (cons[si] == 0 && delta[si] == 0) touched.push_back(s);
            cons[si] += used;
            delta[si] += moved;
        };
        ctx.pair_tree.multinomial(k, rng, [&](std::size_t pair, std::uint64_t c) {
            const auto rules = protocol_.rules_for_pair_id(static_cast<Protocol::PairId>(pair));
            std::uint64_t remaining = c;
            const std::size_t num_rules = rules.size();
            for (std::size_t j = 0; j < num_rules; ++j) {
                // Uniform rule choice, aggregated: sequential binomial
                // splits give each rule Multinomial(c, 1/r) marginals.
                const std::uint64_t cj =
                    j + 1 == num_rules
                        ? remaining
                        : rng.binomial(remaining, 1.0 / static_cast<double>(num_rules - j));
                remaining -= cj;
                if (cj == 0) continue;
                const auto& t = transitions[static_cast<std::size_t>(rules[j])];
                const auto cnt = static_cast<AgentCount>(cj);
                bump(t.pre1, cnt, -cnt);
                bump(t.pre2, cnt, -cnt);
                bump(t.post1, 0, cnt);
                bump(t.post2, 0, cnt);
            }
        });
        bool feasible = true;
        for (const StateId s : touched) {
            const auto si = static_cast<std::size_t>(s);
            if (cons[si] > config[s]) {
                feasible = false;
                break;
            }
        }
        if (feasible) break;
        for (const StateId s : touched) {
            const auto si = static_cast<std::size_t>(s);
            cons[si] = 0;
            delta[si] = 0;
        }
        ++stats.rejected_draws;
        k /= 2;
        if (attempt >= 2 || k < epoch.min_firings) return false;
    }

    // Apply the aggregated deltas in one pass — one apply_count_delta per
    // touched state instead of four per firing.  Application order does not
    // matter: the incremental pair-weight formulas are exact for arbitrary
    // deltas, so the final weights equal the weights of the final counts.
    // Sorting keeps the Fenwick updates cache-local and the pass
    // deterministic.
    std::sort(touched.begin(), touched.end());
    for (const StateId s : touched) {
        const auto si = static_cast<std::size_t>(s);
        if (delta[si] != 0) apply_count_delta(ctx, config, s, delta[si]);
        cons[si] = 0;
        delta[si] = 0;
    }

    // The silent encounters interleaved among k firings at frozen weights:
    // NegativeBinomial(k, p) in one draw, the batched analogue of the
    // per-step geometric silent-skip.  Clamped to the budget (the k ≤
    // budget/2·p cap above makes clamping a tail event).
    std::uint64_t total = k;
    if (weight < pairs_total) {
        const std::uint64_t silent = rng.negative_binomial(k, p_fire);
        total = silent >= budget - k ? budget : k + silent;
    }
    ++stats.epochs;
    stats.epoch_fired += k;
    *consumed = total;
    *fired = k;
    return true;
}

template <typename W>
RunReport Simulator::advance_in(Trajectory& trajectory, Context<W>& ctx, Rng& rng,
                                const RunOptions& options) const {
    Config& config = trajectory.config_;
    EpochStats& stats = trajectory.epoch_stats_;
    RunReport report;
    // Epoch batching needs the exact per-pair weight array, which only the
    // Fenwick selection mode maintains; under scan selection epoch mode
    // degrades to the per-step reference path (0 epochs in the stats).
    const bool epoch_capable =
        options.step_mode == StepMode::epoch && pair_select_ == PairSelect::fenwick;
    // Hook cadence: the callback runs at the first fired-step (or epoch)
    // boundary at or past each mark, never inside next_fired()/next_epoch()
    // — checkpointing cannot split a silent-skip or multinomial draw, so
    // the rng stream (and hence the trajectory) is the same with or without
    // the hook, and a resumed trajectory realigns on the same boundaries
    // (next mark = snapshot interactions + every).
    const CheckpointHook* hook =
        options.hook != nullptr && options.hook->active() ? options.hook : nullptr;
    std::uint64_t next_hook = hook != nullptr ? trajectory.interactions_ + hook->every : 0;
    // The O(1) stability probe (two counters + W).
    if (options.stop_when_stable && ctx.provably_stable()) {
        report.stop = StopReason::stable;
        return report;
    }
    while (report.interactions < options.budget) {
        const std::uint64_t budget = options.budget - report.interactions;
        std::uint64_t consumed = 0;
        std::uint64_t fired_now = 0;
        if (!(epoch_capable && next_epoch(ctx, config, rng, budget, options.epoch, &consumed,
                                          &fired_now, stats))) {
            if (next_fired(ctx, config, rng, budget, &consumed)) {
                fired_now = 1;
                if (epoch_capable) ++stats.fallback_fired;
            }
        }
        if (consumed == 0) {  // silent: no interaction can fire again
            report.stop = StopReason::silent;
            break;
        }
        report.interactions += consumed;
        report.fired += fired_now;
        trajectory.interactions_ += consumed;
        trajectory.fired_ += fired_now;
        if (fired_now == 0) continue;  // the budget ran out inside a silent run
        if (options.stop_when_stable && ctx.provably_stable()) {
            report.stop = StopReason::stable;
            break;
        }
        if (hook != nullptr && trajectory.interactions_ >= next_hook) {
            if (!hook->callback(
                    {config, rng.state(), trajectory.interactions_, trajectory.fired_})) {
                report.stop = StopReason::hook;
                break;
            }
            next_hook = trajectory.interactions_ + hook->every;
        }
    }
    return report;
}

RunReport Simulator::advance(Trajectory& trajectory, Rng& rng, const RunOptions& options) const {
    check_owner(trajectory);
    return std::visit(
        [&](auto& ctx) { return advance_in(trajectory, ctx, rng, options); },
        trajectory.context_);
}

std::optional<TransitionId> Simulator::step(Trajectory& trajectory, Rng& rng) const {
    check_owner(trajectory);
    require_pairs(trajectory.config_, "Simulator::step");
    const auto fired = std::visit(
        [&](auto& ctx) { return step_in_context(ctx, trajectory.config_, rng); },
        trajectory.context_);
    ++trajectory.interactions_;
    if (fired) ++trajectory.fired_;
    return fired;
}

std::optional<TransitionId> Simulator::fired_step(Trajectory& trajectory, Rng& rng,
                                                  std::uint64_t budget,
                                                  std::uint64_t* consumed) const {
    check_owner(trajectory);
    std::uint64_t local = 0;
    std::uint64_t* out = consumed != nullptr ? consumed : &local;
    // next_fired reports a population of 0 or 1 agents as silent (W == 0).
    const auto fired = std::visit(
        [&](auto& ctx) { return next_fired(ctx, trajectory.config_, rng, budget, out); },
        trajectory.context_);
    trajectory.interactions_ += *out;
    if (fired) ++trajectory.fired_;
    return fired;
}

std::pair<StateId, StateId> Simulator::sample_pair(const Trajectory& trajectory, Rng& rng) const {
    check_owner(trajectory);
    require_pairs(trajectory.config_, "Simulator::sample_pair");
    return std::visit([&](const auto& ctx) { return sample_agents(ctx.agents, rng); },
                      trajectory.context_);
}

std::uint64_t Simulator::run_batch(Config& config, Rng& rng, std::uint64_t max_interactions,
                                   bool stop_when_stable, const CheckpointHook* hook,
                                   std::uint64_t* fired_count) const {
    check_states(config, "Simulator::run_batch");
    Trajectory trajectory(*this, std::move(config));
    RunOptions options;
    options.budget = max_interactions;
    options.stop_when_stable = stop_when_stable;
    options.hook = hook;
    RunReport report;
    try {
        report = advance(trajectory, rng, options);
    } catch (...) {
        config = std::move(trajectory.config_);  // a throwing hook keeps the state
        throw;
    }
    config = std::move(trajectory.config_);
    if (fired_count != nullptr) *fired_count = report.fired;
    return report.interactions;
}

SimulationResult Simulator::run(Config config, Rng& rng,
                                const SimulationOptions& options) const {
    require_pairs(config, "Simulator::run");
    const AgentCount population = config.size();
    // Resume support: a run restored from a checkpoint starts its counters
    // where the snapshot left off, so (config, rng state, interactions,
    // fired) evolves exactly as the uninterrupted run's tail — and the
    // snapshots a resumed run writes carry the same totals the
    // uninterrupted run would have written.
    Trajectory trajectory(*this, std::move(config), options.initial_interactions,
                          options.initial_fired);
    RunOptions run;
    run.budget = options.max_interactions > options.initial_interactions
                     ? options.max_interactions - options.initial_interactions
                     : 0;
    run.stop_when_stable = true;
    run.hook = &options.checkpoint;
    run.step_mode = options.step_mode;
    run.epoch = options.epoch;
    const RunReport report = advance(trajectory, rng, run);

    SimulationResult result{std::move(trajectory.config_),
                            trajectory.interactions_,
                            trajectory.fired_,
                            report.stop == StopReason::stable || report.stop == StopReason::silent,
                            std::nullopt,
                            static_cast<double>(trajectory.interactions_) /
                                static_cast<double>(population),
                            trajectory.epoch_stats_};
    result.output = protocol_.consensus_output(result.final_config);
    return result;
}

SimulationResult Simulator::run_input(AgentCount input, Rng& rng,
                                      const SimulationOptions& options) const {
    return run(protocol_.initial_config(input), rng, options);
}

}  // namespace ppsc
