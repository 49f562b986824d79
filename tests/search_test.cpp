// Tests for the busy-beaver search (Definition 1, experiment E9).
#include "search/busy_beaver.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <utility>
#include <vector>

namespace ppsc::search {

// Readable failure messages for whole-outcome comparisons.
void PrintTo(const SearchOutcome& o, std::ostream* os) {
    *os << "{n=" << o.n << " enumerated=" << o.enumerated << " canonical=" << o.canonical
        << " static_refuted=" << o.static_refuted << " screened_out=" << o.screened_out
        << " budget_skipped=" << o.budget_skipped
        << " threshold_protocols=" << o.threshold_protocols << " best_eta=" << o.best_eta
        << " histogram=[";
    for (const auto& [eta, count] : o.eta_histogram) *os << " " << eta << ":" << count;
    *os << " ] witness=\n" << o.best_protocol_text << "}";
}

}  // namespace ppsc::search

namespace ppsc {
namespace {

/// The sampled n = 4 settings of the bb_sampled benchmark workload: seed 1,
/// horizon 12, one 1500-interaction screening run per input, static screen.
search::SearchOptions sampled_options(std::uint64_t samples) {
    search::SearchOptions options;
    options.max_input = 12;
    options.sample_limit = samples;
    options.seed = 1;
    options.screen = true;
    options.screening.runs = 1;
    options.screening.max_interactions = 1'500;
    options.static_screen = true;
    return options;
}

TEST(BusyBeaverSearch, TwoStatesExhaustive) {
    search::SearchOptions options;
    options.max_input = 8;
    const auto outcome = search::busy_beaver_search(2, options);
    EXPECT_TRUE(outcome.exhaustive);
    // 3 output masks (not all-0) × 3^3 tables.
    EXPECT_EQ(outcome.enumerated, 81u);
    EXPECT_GT(outcome.canonical, 0u);
    EXPECT_GT(outcome.threshold_protocols, 0u);
    // With 2 states the best threshold observed is x >= 3: e.g. input
    // state 0 with output 1, state 1 with output 0, and rules
    // 0,0 -> 0,1 / 0,1 -> 1,1 / 1,1 -> 1,1... the search must find
    // something at least as good as the trivial x >= 2 (all-accepting).
    EXPECT_GE(outcome.best_eta, 2);
    EXPECT_LE(outcome.best_eta, 4);
    EXPECT_FALSE(outcome.best_protocol_text.empty());
}

TEST(BusyBeaverSearch, ThreeStatesExhaustiveMeasuredValue) {
    search::SearchOptions options;
    options.max_input = 9;
    const auto outcome = search::busy_beaver_search(3, options);
    EXPECT_TRUE(outcome.exhaustive);
    // Measured result (EXPERIMENTS.md, E9): among all deterministic
    // 3-state protocols the best threshold is x >= 3, realised by 104
    // canonical protocols.  (Definition 1 also allows nondeterministic
    // protocols, which this enumeration does not cover.)
    EXPECT_EQ(outcome.enumerated, 326'592u);
    EXPECT_EQ(outcome.canonical, 163'512u);
    EXPECT_EQ(outcome.threshold_protocols, 46'144u);
    EXPECT_EQ(outcome.best_eta, 3);
    const std::vector<std::pair<AgentCount, std::uint64_t>> histogram = {{2, 46'040}, {3, 104}};
    EXPECT_EQ(outcome.eta_histogram, histogram);
    // Histogram counts only verified thresholds.
    std::uint64_t total = 0;
    for (const auto& [eta, count] : outcome.eta_histogram) {
        EXPECT_GE(eta, 2);
        total += count;
    }
    EXPECT_EQ(total, outcome.threshold_protocols);
}

// Candidates are evaluated on the worker pool and tallied in stream order,
// so every field — the witness text included — is the same for any worker
// count (0 = one worker per hardware thread).
constexpr unsigned kWorkerCounts[] = {1, 2, 4, 0};

TEST(BusyBeaverSearch, SampledFourStatesMeasuredValue) {
    search::SearchOptions options = sampled_options(10'000);
    search::SearchOutcome serial;
    for (const unsigned parallelism : kWorkerCounts) {
        options.parallelism = parallelism;
        const auto outcome = search::busy_beaver_search(4, options);
        EXPECT_FALSE(outcome.exhaustive);
        EXPECT_EQ(outcome.enumerated, 10'000u);
        EXPECT_EQ(outcome.canonical, 1'703u);
        EXPECT_EQ(outcome.static_refuted, 115u);
        EXPECT_EQ(outcome.screened_out, 80u);
        EXPECT_EQ(outcome.budget_skipped, 0u);
        EXPECT_EQ(outcome.threshold_protocols, 291u);
        EXPECT_EQ(outcome.best_eta, 4);
        const std::vector<std::pair<AgentCount, std::uint64_t>> histogram = {{2, 290}, {4, 1}};
        EXPECT_EQ(outcome.eta_histogram, histogram);
        if (parallelism == 1) serial = outcome;
        EXPECT_EQ(outcome, serial) << "parallelism = " << parallelism;
    }
}

TEST(BusyBeaverSearch, OutcomeIndependentOfWorkerCount) {
    struct Run {
        std::size_t n;
        search::SearchOptions options;
    };
    search::SearchOptions two;
    two.max_input = 8;
    search::SearchOptions three;
    three.max_input = 4;  // η = 2 and η = 3 both occur below this horizon
    // One block plus one candidate: the last block holds a single encoding.
    search::SearchOptions block_plus_one = sampled_options(search::kCandidateBlock + 1);
    block_plus_one.max_input = 8;
    for (const Run& run : {Run{2, two}, Run{3, three}, Run{4, block_plus_one}}) {
        search::SearchOptions options = run.options;
        search::SearchOutcome serial;
        for (const unsigned parallelism : kWorkerCounts) {
            options.parallelism = parallelism;
            const auto outcome = search::busy_beaver_search(run.n, options);
            if (parallelism == 1) {
                serial = outcome;
                EXPECT_GT(serial.threshold_protocols, 0u) << "n = " << run.n;
            }
            EXPECT_EQ(outcome, serial) << "n = " << run.n << ", parallelism = " << parallelism;
        }
    }
}

TEST(BusyBeaverSearch, SamplingModeWorks) {
    search::SearchOptions options;
    options.max_input = 6;
    options.sample_limit = 2000;
    options.seed = 7;
    const auto outcome = search::busy_beaver_search(4, options);
    EXPECT_FALSE(outcome.exhaustive);
    EXPECT_EQ(outcome.enumerated, 2000u);
}

TEST(BusyBeaverSearch, ScreeningPreservesResultsExactly) {
    // Two-phase mode is sound falsification: every field of the outcome
    // except the cost counters must match a screen-free run bit for bit.
    search::SearchOptions exact;
    exact.max_input = 8;
    search::SearchOptions screened = exact;
    screened.screen = true;
    screened.screening.runs = 2;
    screened.screening.max_interactions = 2'000;

    const auto a = search::busy_beaver_search(2, exact);
    const auto b = search::busy_beaver_search(2, screened);
    EXPECT_EQ(a.best_eta, b.best_eta);
    EXPECT_EQ(a.threshold_protocols, b.threshold_protocols);
    EXPECT_EQ(a.eta_histogram, b.eta_histogram);
    EXPECT_EQ(a.best_protocol_text, b.best_protocol_text);
    EXPECT_EQ(a.canonical, b.canonical);
    EXPECT_EQ(a.screened_out, 0u);
    // The 2-state space is full of oscillators; screening must catch some
    // or the fast path is dead code.
    EXPECT_GT(b.screened_out, 0u);
}

TEST(BusyBeaverSearch, ParameterValidation) {
    EXPECT_THROW(search::busy_beaver_search(1, {}), std::invalid_argument);
    EXPECT_THROW(search::busy_beaver_search(4, {}), std::invalid_argument);  // no sample limit
}

}  // namespace
}  // namespace ppsc
