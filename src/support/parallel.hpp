// The worker pool shared by the convergence sweep (sim/experiment.cpp) and
// the busy-beaver search (search/busy_beaver.cpp).
//
// parallel_for(count, workers, fn) calls fn(i) exactly once for every
// i in [0, count).  Workers claim indices from one atomic counter, so a slow
// index never holds up the others' queue; the order in which indices run is
// unspecified.  Callers that need deterministic results write fn(i)'s result
// into slot i and fold the slots serially afterwards.
//
// `workers` follows the repo's `parallelism` settings: 0 = one worker per
// hardware thread, 1 = serial on the calling thread; never more workers
// than indices.  If fn throws, no worker claims a further index, and the
// first failed worker's exception (in worker order) is rethrown on the
// calling thread after every worker has joined.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace ppsc {

template <typename Fn>
void parallel_for(std::size_t count, unsigned workers, Fn&& fn) {
    if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
    workers = static_cast<unsigned>(std::min<std::size_t>(workers, count));
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            try {
                for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) fn(i);
            } catch (...) {
                errors[w] = std::current_exception();
                // Every later claim lands at or past `count`.
                next.store(count);
            }
        });
    }
    for (std::thread& t : pool) t.join();
    for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

}  // namespace ppsc
