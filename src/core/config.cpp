#include "core/config.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

namespace ppsc {

Config Config::from_counts(std::vector<AgentCount> counts) {
    AgentCount total = 0;
    for (const AgentCount c : counts) {
        if (c < 0) throw std::invalid_argument("Config::from_counts: negative count");
        total += c;
    }
    Config config(counts.size());
    config.counts_ = std::move(counts);
    config.total_ = total;
    return config;
}

Config Config::single(std::size_t num_states, StateId state, AgentCount count) {
    Config config(num_states);
    config.set(state, count);
    return config;
}

void Config::set(StateId state, AgentCount count) {
    if (count < 0) throw std::invalid_argument("Config::set: negative count");
    AgentCount& slot = counts_.at(static_cast<std::size_t>(state));
    total_ += count - slot;
    slot = count;
}

void Config::add(StateId state, AgentCount delta) {
    AgentCount& slot = counts_.at(static_cast<std::size_t>(state));
    if (slot + delta < 0) throw std::invalid_argument("Config::add: count would go negative");
    slot += delta;
    total_ += delta;
}

std::vector<StateId> Config::support() const {
    std::vector<StateId> states;
    for (std::size_t q = 0; q < counts_.size(); ++q) {
        if (counts_[q] > 0) states.push_back(static_cast<StateId>(q));
    }
    return states;
}

bool Config::is_saturated(AgentCount j) const noexcept {
    for (const AgentCount c : counts_) {
        if (c < j) return false;
    }
    return true;
}

bool Config::leq(const Config& rhs) const noexcept {
    if (counts_.size() != rhs.counts_.size()) return false;
    for (std::size_t q = 0; q < counts_.size(); ++q) {
        if (counts_[q] > rhs.counts_[q]) return false;
    }
    return true;
}

Config& Config::operator+=(const Config& rhs) {
    if (counts_.size() != rhs.counts_.size())
        throw std::invalid_argument("Config::operator+=: dimension mismatch");
    for (std::size_t q = 0; q < counts_.size(); ++q) counts_[q] += rhs.counts_[q];
    total_ += rhs.total_;
    return *this;
}

Config& Config::operator-=(const Config& rhs) {
    if (counts_.size() != rhs.counts_.size())
        throw std::invalid_argument("Config::operator-=: dimension mismatch");
    for (std::size_t q = 0; q < counts_.size(); ++q) {
        if (counts_[q] < rhs.counts_[q])
            throw std::invalid_argument("Config::operator-=: count would go negative");
    }
    for (std::size_t q = 0; q < counts_.size(); ++q) counts_[q] -= rhs.counts_[q];
    total_ -= rhs.total_;
    return *this;
}

Config& Config::operator*=(AgentCount factor) {
    if (factor < 0) throw std::invalid_argument("Config::operator*=: negative factor");
    for (auto& c : counts_) c *= factor;
    total_ *= factor;
    return *this;
}

std::string Config::to_string(std::span<const std::string> names) const {
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (std::size_t q = 0; q < counts_.size(); ++q) {
        if (counts_[q] == 0) continue;
        if (!first) os << ", ";
        first = false;
        if (counts_[q] != 1) os << counts_[q] << "·";
        if (q < names.size())
            os << names[q];
        else
            os << 'q' << q;
    }
    os << '}';
    return os.str();
}

}  // namespace ppsc
