// The sparse rule table (RuleTable::sparse): the open-addressed pair → id
// map against the dense triangular reference, edge cases (no non-silent
// pairs, a single self pair), the representation the protocol picks at the
// dense cap, trajectory identity between the two representations — per
// seed on long batches, on whole E11 throughput rows forced sparse, and
// exhaustively on the 4995-config sweep — and the |Q| ≥ 10⁵ regime the
// sparse table unlocks.  The other representation is forced through
// reference::EngineSeam.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "reference/engine_seam.hpp"
#include "sim/simulator.hpp"
#include "support/hash.hpp"

namespace ppsc {
namespace {

using reference::EngineSeam;

// Token-merge chain with `num_states` states: c_i,c_i -> z,c_{i+1}, all
// outputs 0.  Θ(|Q|) non-silent pairs (all self pairs), cheap to build at
// any size — the shape the sparse table exists for.
Protocol merge_chain(std::size_t num_states) {
    ProtocolBuilder b;
    const StateId z = b.add_state("z", 0);
    std::vector<StateId> chain(num_states - 1);
    for (std::size_t i = 0; i + 1 < num_states; ++i)
        chain[i] = b.add_state("c" + std::to_string(i), 0);
    b.set_input("x", chain[0]);
    for (std::size_t i = 0; i + 2 < num_states; ++i)
        b.add_transition(chain[i], chain[i], z, chain[i + 1]);
    return std::move(b).build();
}

// Every pair lookup of `a` and `b` agrees: pair ids, silence, and the rule
// spans over all unordered state pairs.
void expect_identical_lookups(const Protocol& a, const Protocol& b) {
    ASSERT_EQ(a.num_states(), b.num_states());
    for (std::size_t p = 0; p < a.num_states(); ++p) {
        for (std::size_t q = p; q < a.num_states(); ++q) {
            const auto sp = static_cast<StateId>(p), sq = static_cast<StateId>(q);
            ASSERT_EQ(a.pair_id(sp, sq), b.pair_id(sp, sq)) << p << "," << q;
            const auto rules_a = a.rules_for_pair(sp, sq);
            const auto rules_b = b.rules_for_pair(sp, sq);
            ASSERT_EQ(rules_a.size(), rules_b.size()) << p << "," << q;
            for (std::size_t i = 0; i < rules_a.size(); ++i)
                EXPECT_EQ(rules_a[i], rules_b[i]) << p << "," << q;
        }
    }
}

TEST(DenseIndexMap, FindsEveryKeyAndMissesOthers) {
    // Adjacent packed pairs stress the mixer (dense in both halves); the
    // map must resolve every inserted key and miss everything else.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t p = 0; p < 40; ++p) {
        for (std::uint64_t q = p; q < 40; q += (p % 3) + 1) keys.push_back((p << 32) | q);
    }
    DenseIndexMap map;
    map.assign(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(map.find(keys[i]), i);
    EXPECT_EQ(map.find((std::uint64_t{41} << 32) | 41), DenseIndexMap::kMissing);
    EXPECT_EQ(map.find(0x7fffffff00000000ull), DenseIndexMap::kMissing);
    EXPECT_GT(map.memory_bytes(), keys.size() * 12);  // ≥ 2× load headroom

    map.assign({});
    EXPECT_EQ(map.find(0), DenseIndexMap::kMissing);
}

TEST(SparseRuleTable, ZeroNonsilentPairs) {
    // A protocol whose every pair is silent: both representations must
    // report kNoPair everywhere, and a simulation is silent from the start.
    for (const RuleTable kind : {RuleTable::dense, RuleTable::sparse}) {
        ProtocolBuilder b;
        const StateId a = b.add_state("a", 0);
        b.add_state("b", 1);
        b.set_input("x", a);
        const Protocol p = EngineSeam::with_rule_table(std::move(b).build(), kind);
        EXPECT_EQ(p.rule_table(), kind);
        EXPECT_TRUE(p.nonsilent_pairs().empty());
        for (StateId s = 0; s < 2; ++s) {
            for (StateId t = s; t < 2; ++t) {
                EXPECT_EQ(p.pair_id(s, t), Protocol::kNoPair);
                EXPECT_TRUE(p.rules_for_pair(s, t).empty());
            }
        }
        const Simulator simulator(p);
        Rng rng(1);
        const SimulationResult result = simulator.run_input(5, rng);
        EXPECT_TRUE(result.converged);
        EXPECT_EQ(result.interactions, 0u);
    }
}

TEST(SparseRuleTable, SingleSelfPair) {
    for (const RuleTable kind : {RuleTable::dense, RuleTable::sparse}) {
        ProtocolBuilder b;
        const StateId a = b.add_state("a", 0);
        const StateId t = b.add_state("t", 1);
        b.set_input("x", a);
        b.add_transition(a, a, t, t);
        const Protocol p = EngineSeam::with_rule_table(std::move(b).build(), kind);
        EXPECT_EQ(p.pair_id(a, a), 0u);
        EXPECT_EQ(p.self_pair(a), 0u);
        EXPECT_EQ(p.pair_id(a, t), Protocol::kNoPair);
        EXPECT_EQ(p.pair_id(t, t), Protocol::kNoPair);
        EXPECT_TRUE(p.pair_neighbors(a).empty());
        ASSERT_EQ(p.rules_for_pair_id(0).size(), 1u);

        const Simulator simulator(p);
        Trajectory trajectory(simulator, p.initial_config(2));
        Rng rng(7);
        std::uint64_t consumed = 0;
        const auto fired =
            simulator.fired_step(trajectory, rng, std::uint64_t{1} << 30, &consumed);
        ASSERT_TRUE(fired.has_value());
        EXPECT_EQ(trajectory.config()[t], 2);  // a,a -> t,t fired; now silent
        EXPECT_FALSE(simulator.fired_step(trajectory, rng, std::uint64_t{1} << 30, &consumed));
    }
}

TEST(SparseRuleTable, AutomaticResolvesByTriangularSize) {
    // 4100 states sit just past kDenseRuleTablePairCap (2²³ triangular
    // pairs at |Q| = 4096); 4000 sit below it.
    const Protocol small = merge_chain(4000);
    EXPECT_EQ(small.rule_table(), RuleTable::dense);
    const Protocol large = merge_chain(4100);
    EXPECT_EQ(large.rule_table(), RuleTable::sparse);
    // Sparse memory is keyed on the ~4k non-silent pairs, not the 8.4M
    // triangular slots (4 bytes each) the dense array would need.
    EXPECT_LT(large.rule_table_bytes(), std::size_t{1} << 20);
    expect_identical_lookups(large, EngineSeam::with_rule_table(large, RuleTable::dense));
}

TEST(SparseRuleTable, PastTheOldDenseCapTrajectoriesMatchDensePerSeed) {
    // |Q| just past the old practical dense cap (~2·10⁴ states ≈ 800 MB of
    // triangular offsets): the sparse table runs it in kilobytes, and the
    // forced-dense rebuild must produce byte-identical trajectories.
    const Protocol sparse = merge_chain(20'005);
    ASSERT_EQ(sparse.rule_table(), RuleTable::sparse);
    EXPECT_LT(sparse.rule_table_bytes(), std::size_t{1} << 21);
    const Protocol dense = EngineSeam::with_rule_table(sparse, RuleTable::dense);
    ASSERT_EQ(dense.rule_table(), RuleTable::dense);
    EXPECT_GT(dense.rule_table_bytes(), std::size_t{200'000'000} * 4);

    const Simulator sim_sparse(sparse), sim_dense(dense);
    EXPECT_EQ(EngineSeam::lane(sim_sparse), EngineSeam::lane(sim_dense));
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Config a = sparse.initial_config(1 << 12);
        Config b = dense.initial_config(1 << 12);
        Rng rng_a(seed), rng_b(seed);
        for (int chunk = 0; chunk < 8; ++chunk) {
            const std::uint64_t done_a = sim_sparse.run_batch(a, rng_a, 2000);
            const std::uint64_t done_b = sim_dense.run_batch(b, rng_b, 2000);
            ASSERT_EQ(done_a, done_b) << "seed " << seed << " chunk " << chunk;
            ASSERT_TRUE(a == b) << "seed " << seed << " chunk " << chunk;
            if (done_a < 2000) break;  // silent
        }
    }
}

TEST(SparseRuleTable, ForcedSparseE11RowsMatchDensePerSeed) {
    // The E11 instances at n = 4 resolve to the dense table; forced onto the
    // sparse one they must still complete whole throughput rows — advance()
    // in chunks with IC restarts at silence, as e11_throughput_sweep drives
    // them — on the same trajectory as the dense table, chunk by chunk.
    constexpr AgentCount kPopulation = 512;
    constexpr std::uint64_t kRow = 1 << 16;
    for (const Protocol& dense :
         {protocols::double_exp_threshold(4), protocols::double_exp_threshold_dense(4)}) {
        ASSERT_EQ(dense.rule_table(), RuleTable::dense);
        const Protocol sparse = EngineSeam::with_rule_table(dense, RuleTable::sparse);
        ASSERT_EQ(sparse.rule_table(), RuleTable::sparse);
        const Simulator sim_dense(dense), sim_sparse(sparse);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE("|Q| = " + std::to_string(dense.num_states()) + ", seed " +
                         std::to_string(seed));
            Trajectory a(sim_dense, dense.initial_config(kPopulation));
            Trajectory b(sim_sparse, sparse.initial_config(kPopulation));
            Rng rng_a(seed), rng_b(seed);
            RunOptions run;
            std::uint64_t done = 0;
            while (done < kRow) {
                run.budget = std::min<std::uint64_t>(kRow - done, 1 << 12);
                const RunReport report_a = sim_dense.advance(a, rng_a, run);
                const RunReport report_b = sim_sparse.advance(b, rng_b, run);
                ASSERT_EQ(report_a.interactions, report_b.interactions) << "at " << done;
                ASSERT_EQ(report_a.fired, report_b.fired) << "at " << done;
                ASSERT_TRUE(a.config() == b.config()) << "at " << done;
                ASSERT_GT(report_b.interactions, 0u);
                done += report_b.interactions;
                if (report_b.stop == StopReason::silent) {
                    a = Trajectory(sim_dense, dense.initial_config(kPopulation));
                    b = Trajectory(sim_sparse, sparse.initial_config(kPopulation));
                }
            }
            EXPECT_EQ(done, kRow);
        }
    }
}

TEST(SparseRuleTable, DenseSparseIdentityOnTheExhaustive4995ConfigSweep) {
    // The existing exhaustive sweep (sim_pair_fenwick_test) pinned Fenwick
    // vs. scan selection; this one pins dense vs. sparse rule tables on the
    // same 4995 configurations: every configuration of up to 6 agents of
    // double_exp_threshold_dense(2) must consume the random stream
    // identically under both representations.
    const Protocol dense_table = protocols::double_exp_threshold_dense(2);
    ASSERT_EQ(dense_table.rule_table(), RuleTable::dense);  // 9 states: automatic = dense
    const Protocol sparse_table = EngineSeam::with_rule_table(dense_table, RuleTable::sparse);
    expect_identical_lookups(dense_table, sparse_table);
    const std::size_t num_states = dense_table.num_states();
    const Simulator sim_dense(dense_table), sim_sparse(sparse_table);

    std::vector<AgentCount> counts(num_states, 0);
    std::uint64_t seed = 0;
    std::size_t checked = 0;
    const std::function<void(std::size_t, AgentCount)> enumerate = [&](std::size_t q,
                                                                       AgentCount left) {
        if (q + 1 == num_states) {
            counts[q] = left;
            const Config base = Config::from_counts(counts);
            if (base.size() >= 2) {
                Trajectory a(sim_dense, base), b(sim_sparse, base);
                Rng rng_a(++seed), rng_b(seed);
                std::uint64_t consumed_a = 0, consumed_b = 0;
                const auto fired_a = sim_dense.fired_step(a, rng_a, 64, &consumed_a);
                const auto fired_b = sim_sparse.fired_step(b, rng_b, 64, &consumed_b);
                ASSERT_EQ(fired_a, fired_b) << base.to_string(dense_table.state_names());
                ASSERT_EQ(consumed_a, consumed_b) << base.to_string(dense_table.state_names());
                ASSERT_TRUE(a.config() == b.config()) << base.to_string(dense_table.state_names());
                ++checked;
            }
            counts[q] = 0;
            return;
        }
        for (AgentCount c = 0; c <= left; ++c) {
            counts[q] = c;
            enumerate(q + 1, left - c);
        }
        counts[q] = 0;
    };
    for (AgentCount population = 2; population <= 6; ++population) enumerate(0, population);
    EXPECT_EQ(checked, 4'995u);  // Σ_{m=2..6} C(m+8, 8) — genuinely exhaustive
}

TEST(SparseRuleTable, UnlocksHundredThousandStates) {
    // double_exp_threshold(17): |Q| = 2¹⁷ + 3 = 131075 > 10⁵.  The dense
    // triangular lookup would need 8.6G pair slots (~34 GB); the sparse
    // table is keyed on the ~2.6·10⁵ non-silent pairs.
    const Protocol p = protocols::double_exp_threshold(17);
    EXPECT_EQ(p.num_states(), (std::size_t{1} << 17) + 3);
    EXPECT_EQ(p.rule_table(), RuleTable::sparse);
    EXPECT_LT(p.rule_table_bytes(), std::size_t{1} << 25);  // ≪ the 34 GB dense table

    // Structure spot-checks across the whole id range: the token-merge
    // self pairs and the accepting epidemic must resolve; unrelated token
    // pairs are silent.
    const StateId t0 = *p.find_state("t0");
    const StateId t_mid = *p.find_state("t65536");
    const StateId t_top = *p.find_state("t131072");
    const StateId top = *p.find_state("T");
    for (const StateId t : {t0, t_mid}) {
        const Protocol::PairId id = p.pair_id(t, t);
        ASSERT_NE(id, Protocol::kNoPair);
        ASSERT_EQ(p.rules_for_pair_id(id).size(), 1u);
    }
    EXPECT_NE(p.pair_id(top, t_mid), Protocol::kNoPair);  // epidemic
    EXPECT_NE(p.pair_id(t_top, t0), Protocol::kNoPair);   // t_top starts accepting
    EXPECT_EQ(p.pair_id(t0, t_mid), Protocol::kNoPair);   // distinct tokens wait
}

}  // namespace
}  // namespace ppsc
