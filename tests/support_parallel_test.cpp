// Tests for the shared worker pool (support/parallel.hpp).
#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace ppsc {
namespace {

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                    std::size_t{1000}}) {
        for (unsigned workers = 0; workers <= 8; ++workers) {
            std::vector<std::atomic<int>> hits(count);
            parallel_for(count, workers, [&](std::size_t i) { hits.at(i).fetch_add(1); });
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "count " << count << ", workers " << workers << ", index " << i;
        }
    }
}

TEST(ParallelFor, SerialRunsInIndexOrderOnTheCallingThread) {
    std::vector<std::size_t> order;
    parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ExceptionReachesTheCaller) {
    constexpr std::size_t kThrowAt = 37;
    for (unsigned workers = 1; workers <= 8; ++workers) {
        try {
            parallel_for(1000, workers, [&](std::size_t i) {
                if (i == kThrowAt) throw std::runtime_error("index " + std::to_string(i));
            });
            ADD_FAILURE() << "no exception with " << workers << " workers";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "index 37");
        }
    }
}

}  // namespace
}  // namespace ppsc
