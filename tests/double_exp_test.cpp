// The double-exponential threshold family (E11 workload): exhaustive
// verification of small instances, structural agreement with
// collector_threshold on the int64 range, randomized-simulation correctness
// of the flagship 2^(2^n) instances, and the parser/compose integration
// every family in src/protocols/ gets.
#include <gtest/gtest.h>

#include <string>

#include "core/protocol_parser.hpp"
#include "protocols/compose.hpp"
#include "protocols/double_exp_threshold.hpp"
#include "protocols/modulo.hpp"
#include "protocols/threshold.hpp"
#include "reference/engine_seam.hpp"
#include "sim/experiment.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

using reference::EngineSeam;
using reference::PairSelect;

// --- Exhaustive verification (arbitrary-precision collector) ----------------

class SuccinctThresholdTest : public ::testing::TestWithParam<AgentCount> {};

TEST_P(SuccinctThresholdTest, ComputesXAtLeastEta) {
    const AgentCount eta = GetParam();
    const Protocol p = protocols::succinct_threshold(BigNat(static_cast<std::uint64_t>(eta)));
    EXPECT_EQ(p.num_states(),
              protocols::succinct_threshold_states(BigNat(static_cast<std::uint64_t>(eta))))
        << "eta=" << eta;
    EXPECT_TRUE(p.is_leaderless());
    const Verifier verifier(p);
    EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(eta), 2, eta + 3).holds)
        << "eta=" << eta;
}

// Every eta up to 13 exercises all bit patterns: powers of two, all-ones,
// isolated low bits.
INSTANTIATE_TEST_SUITE_P(Family, SuccinctThresholdTest,
                         ::testing::Values<AgentCount>(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                                       13));

TEST(SuccinctThreshold, IsCollectorThresholdOnTheInt64Range) {
    // Same states, same names, same transitions in the same order: the
    // BigNat construction is collector_threshold lifted beyond int64, and
    // the text format makes the structural equality checkable verbatim.
    const AgentCount etas[] = {1, 2, 5, 12, 13, 96, 1000, (AgentCount{1} << 30) - 1};
    for (const AgentCount eta : etas) {
        EXPECT_EQ(
            format_protocol(protocols::succinct_threshold(BigNat(static_cast<std::uint64_t>(eta)))),
            format_protocol(protocols::collector_threshold(eta)))
            << "eta=" << eta;
    }
}

TEST(SuccinctThreshold, RejectsBadEta) {
    EXPECT_THROW(protocols::succinct_threshold(BigNat()), std::invalid_argument);
    EXPECT_THROW(
        protocols::succinct_threshold(BigNat::power_of_two(protocols::kSuccinctThresholdMaxBits)),
        std::invalid_argument);
    EXPECT_THROW(protocols::double_exp_threshold(-1), std::invalid_argument);
    EXPECT_THROW(protocols::double_exp_threshold(18), std::invalid_argument);
    EXPECT_THROW(protocols::double_exp_threshold_dense(0), std::invalid_argument);
    EXPECT_THROW(protocols::double_exp_threshold_dense(14), std::invalid_argument);
}

// --- The double-exponential instances ---------------------------------------

TEST(DoubleExpThreshold, StateCountsAreLogarithmicInEta) {
    for (int n = 0; n <= 8; ++n) {
        const BigNat eta = protocols::double_exp_eta(n);
        EXPECT_EQ(eta.bit_length(), (std::uint64_t{1} << n) + 1) << "n=" << n;  // 2^(2^n)
        // Flagship: exact power, token chain only — |Q| = 2^n + 3.
        EXPECT_EQ(protocols::succinct_threshold_states(eta), (std::size_t{1} << n) + 3)
            << "n=" << n;
        // Dense: a collector per bit of 2^(2^n) − 1 — |Q| = 2^(n+1) + 1.
        if (n >= 1) {
            EXPECT_EQ(protocols::succinct_threshold_states(eta - BigNat(1)),
                      (std::size_t{2} << n) + 1)
                << "n=" << n;
        }
    }
    // The workload the pair-weight Fenwick exists for: a |Q| ≫ 10³ instance
    // with far more non-silent pairs than a scan per fired step could bear.
    const Protocol big = protocols::double_exp_threshold_dense(10);
    EXPECT_GT(big.num_states(), 2000u);
    EXPECT_GT(big.nonsilent_pairs().size(), 500'000u);
}

TEST(DoubleExpThreshold, SmallInstancesVerifyExhaustively) {
    // n = 0 (eta = 2) and n = 1 (eta = 4): model-checked on all inputs.
    for (const int n : {0, 1}) {
        const Protocol p = protocols::double_exp_threshold(n);
        const AgentCount eta = AgentCount{1} << (1 << n);
        const Verifier verifier(p);
        EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(eta), 2, eta + 4).holds)
            << "n=" << n;
    }
}

TEST(DoubleExpThreshold, DecidesItsPredicateInRandomizedSimulation) {
    // n = 2: eta = 2^2^2 = 16.  Sampled initial configurations must
    // converge to the correct consensus on both sides of the threshold.
    const Protocol p = protocols::double_exp_threshold(2);
    ConvergenceSweepOptions options;
    options.runs_per_size = 8;
    const auto rows = convergence_sweep(
        p, {10, 12, 15, 16, 17, 24, 40, 64}, [](AgentCount i) { return i >= 16 ? 1 : 0; },
        options);
    for (const ConvergenceRow& row : rows) {
        EXPECT_EQ(row.converged_runs, row.runs) << "population " << row.population;
        EXPECT_EQ(row.correct_fraction, 1.0) << "population " << row.population;
    }
}

TEST(DoubleExpThreshold, DenseVariantDecidesItsPredicateInRandomizedSimulation) {
    const Protocol p = protocols::double_exp_threshold_dense(2);  // eta = 15
    ConvergenceSweepOptions options;
    options.runs_per_size = 8;
    const auto rows = convergence_sweep(
        p, {9, 10, 14, 15, 16, 30, 60}, [](AgentCount i) { return i >= 15 ? 1 : 0; }, options);
    for (const ConvergenceRow& row : rows) {
        EXPECT_EQ(row.converged_runs, row.runs) << "population " << row.population;
        EXPECT_EQ(row.correct_fraction, 1.0) << "population " << row.population;
    }
}

// --- Parser / compose integration -------------------------------------------

TEST(DoubleExpThreshold, RoundTripsThroughTheTextFormat) {
    const Protocol p = protocols::double_exp_threshold_dense(2);
    const Protocol reparsed = parse_protocol(format_protocol(p));
    EXPECT_EQ(format_protocol(reparsed), format_protocol(p));
    EXPECT_EQ(reparsed.num_states(), p.num_states());
    EXPECT_EQ(reparsed.num_transitions(), p.num_transitions());
}

TEST(DoubleExpThreshold, ComposesUnderProduct) {
    // (x ≥ 4) ∧ (x ≡ 0 mod 2), with the double-exponential family providing
    // the threshold component — verified exhaustively on the product.
    const Protocol threshold = protocols::double_exp_threshold(1);  // eta = 4
    const Protocol parity = protocols::modulo(2, 0);
    const Protocol both =
        protocols::product(threshold, parity, protocols::combine_and());
    EXPECT_EQ(both.num_states(), threshold.num_states() * parity.num_states());
    const Verifier verifier(both);
    const Predicate predicate = Predicate::conjunction(Predicate::x_at_least(4),
                                                       Predicate::modulo({1}, 2, 0));
    EXPECT_TRUE(verifier.check_predicate(predicate, 2, 7).holds);
}

// --- E11 sweep plumbing ------------------------------------------------------

TEST(E11Sweep, ProducesCompleteRowsOnBothSelectionPaths) {
    // Each row's protocol picks its own lane: at n = 3 both instances stay
    // under kFenwickPairThreshold non-silent pairs (scan); at n = 4 the
    // dense instance passes it (Fenwick) while the flagship does not.
    E11Options tiny;
    tiny.tower_ns = {3, 4};
    tiny.populations = {64, 256, 512};
    tiny.interactions_per_row = 1 << 16;
    const auto rows = e11_throughput_sweep(tiny);
    // Row order: tower, then {flagship, dense}, then population.
    const Protocol instances[] = {
        protocols::double_exp_threshold(3), protocols::double_exp_threshold_dense(3),
        protocols::double_exp_threshold(4), protocols::double_exp_threshold_dense(4)};
    const PairSelect lanes[] = {PairSelect::scan, PairSelect::scan, PairSelect::scan,
                                PairSelect::fenwick};
    ASSERT_EQ(rows.size(), 12u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ThroughputRow& row = rows[i];
        SCOPED_TRACE(row.protocol + " at " + std::to_string(row.population));
        const std::size_t instance = i / tiny.populations.size();
        EXPECT_EQ(row.num_states, instances[instance].num_states());
        EXPECT_EQ(EngineSeam::lane(Simulator(instances[instance])), lanes[instance]);
        EXPECT_EQ(row.interactions, tiny.interactions_per_row);
        EXPECT_GT(row.num_states, 8u);
        EXPECT_GT(row.interactions_per_sec, 0.0);
    }
}

}  // namespace
}  // namespace ppsc
