// Configurations: multisets of agents over the states of a protocol.
//
// A configuration C ∈ N^Q maps each state to the number of agents currently
// in it (Section 2.2 of the paper).  The representation is a dense count
// vector — protocols in this library have at most a few hundred states, so
// dense wins on locality and hashing.  Config is a regular value type.
//
// |C| is cached and maintained incrementally, so size() is O(1) — the
// simulator's hot path reads it on every step.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/hash.hpp"

namespace ppsc {

using StateId = std::int32_t;
using AgentCount = std::int64_t;

class Config {
public:
    /// The empty configuration over `num_states` states.
    explicit Config(std::size_t num_states) : counts_(num_states, 0) {}

    Config(const Config& other) = default;
    Config& operator=(const Config& other) = default;
    // Moves zero the source's total: size() == Σcounts on the moved-from shell.
    Config(Config&& other) noexcept
        : counts_(std::move(other.counts_)), total_(std::exchange(other.total_, 0)) {}
    Config& operator=(Config&& other) noexcept {
        counts_ = std::move(other.counts_);
        total_ = std::exchange(other.total_, 0);
        return *this;
    }

    /// From explicit counts. Throws std::invalid_argument on negative counts.
    static Config from_counts(std::vector<AgentCount> counts);

    /// Configuration with `count` agents in a single state.
    static Config single(std::size_t num_states, StateId state, AgentCount count);

    std::size_t num_states() const noexcept { return counts_.size(); }

    /// |C| — the total number of agents.  O(1): maintained incrementally.
    AgentCount size() const noexcept { return total_; }

    /// Unchecked hot-path access (bounds-asserted in debug builds only).
    AgentCount operator[](StateId state) const {
        PPSC_DASSERT(state >= 0 && static_cast<std::size_t>(state) < counts_.size());
        return counts_[static_cast<std::size_t>(state)];
    }

    /// Sets the count of one state. Throws std::invalid_argument on negative,
    /// std::out_of_range on a bad state id.
    void set(StateId state, AgentCount count);

    /// Adds `delta` agents (may be negative). Throws std::invalid_argument
    /// if the result would be negative.
    void add(StateId state, AgentCount delta);

    /// JCK — the set of states with at least one agent.
    std::vector<StateId> support() const;

    /// True iff every state holds at least `j` agents (j-saturation, §5.1).
    bool is_saturated(AgentCount j) const noexcept;

    /// Componentwise order C ≤ D (the order of Dickson's lemma).
    bool leq(const Config& rhs) const noexcept;

    Config& operator+=(const Config& rhs);
    /// Componentwise subtraction. Throws std::invalid_argument if any
    /// component would go negative.
    Config& operator-=(const Config& rhs);
    /// Scalar multiple.
    Config& operator*=(AgentCount factor);

    friend Config operator+(Config lhs, const Config& rhs) { return lhs += rhs; }
    friend Config operator-(Config lhs, const Config& rhs) { return lhs -= rhs; }
    friend Config operator*(Config lhs, AgentCount factor) { return lhs *= factor; }
    friend Config operator*(AgentCount factor, Config rhs) { return rhs *= factor; }

    /// Value equality on the counts.
    bool operator==(const Config& rhs) const noexcept { return counts_ == rhs.counts_; }

    const std::vector<AgentCount>& counts() const noexcept { return counts_; }

    std::size_t hash() const noexcept { return hash_int_vector(counts_); }

    /// "{2·q0, q3}" style rendering; `names` may be empty (indices used).
    std::string to_string(std::span<const std::string> names = {}) const;

private:
    std::vector<AgentCount> counts_;
    AgentCount total_ = 0;
};

struct ConfigHash {
    std::size_t operator()(const Config& c) const noexcept { return c.hash(); }
};

}  // namespace ppsc
