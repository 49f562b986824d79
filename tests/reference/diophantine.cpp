#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/parikh.hpp"
#include "reference/reference.hpp"

namespace ppsc::reference {

namespace {

using Vec = std::vector<std::int64_t>;

Vec residual(const HomogeneousSystem& system, const Vec& y) {
    Vec r(system.rows.size(), 0);
    for (std::size_t i = 0; i < system.rows.size(); ++i) {
        for (std::size_t j = 0; j < system.num_vars; ++j) r[i] += system.rows[i][j] * y[j];
    }
    return r;
}

bool is_zero(const Vec& v) {
    return std::all_of(v.begin(), v.end(), [](std::int64_t x) { return x == 0; });
}

bool leq(const Vec& a, const Vec& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] > b[i]) return false;
    }
    return true;
}

/// The members of `vectors` no other member lies strictly below.
std::vector<Vec> minimal_elements(const std::vector<Vec>& vectors) {
    std::vector<Vec> minimal;
    for (const Vec& candidate : vectors) {
        const bool dominated = std::any_of(vectors.begin(), vectors.end(), [&](const Vec& other) {
            return other != candidate && leq(other, candidate);
        });
        if (!dominated) minimal.push_back(candidate);
    }
    return minimal;
}

}  // namespace

std::vector<Vec> hilbert_basis_equalities(const HomogeneousSystem& system,
                                          const HilbertOptions& options) {
    system.validate();
    const std::size_t v = system.num_vars;
    if (v == 0) return {};

    std::vector<Vec> column(v);
    std::vector<Vec> frontier;
    std::set<Vec> seen;
    for (std::size_t j = 0; j < v; ++j) {
        Vec unit(v, 0);
        unit[j] = 1;
        column[j] = residual(system, unit);
        frontier.push_back(unit);
        seen.insert(unit);
    }

    std::vector<Vec> basis;
    while (!frontier.empty()) {
        std::vector<Vec> next;
        for (const Vec& t : frontier) {
            const Vec r = residual(system, t);
            if (is_zero(r)) {
                basis.push_back(t);
                continue;
            }
            for (std::size_t j = 0; j < v; ++j) {
                std::int64_t towards_origin = 0;
                for (std::size_t i = 0; i < r.size(); ++i) towards_origin += r[i] * column[j][i];
                if (towards_origin >= 0) continue;
                Vec candidate = t;
                candidate[j] += 1;
                std::int64_t norm1 = 0;
                for (const std::int64_t x : candidate) norm1 += x;
                if (norm1 > options.max_norm1)
                    throw std::length_error(
                        "reference::hilbert_basis_equalities: candidate exceeds max_norm1");
                const bool dominated = std::any_of(basis.begin(), basis.end(),
                                                   [&](const Vec& b) { return leq(b, candidate); });
                if (!dominated && seen.insert(candidate).second) next.push_back(candidate);
            }
        }
        if (seen.size() > options.max_frontier)
            throw std::length_error(
                "reference::hilbert_basis_equalities: frontier budget exhausted");
        frontier = std::move(next);
    }
    return minimal_elements(basis);
}

std::vector<Vec> generating_basis_inequalities(const HomogeneousSystem& system,
                                               const HilbertOptions& options) {
    system.validate();
    HomogeneousSystem slack;
    slack.num_vars = system.num_vars + system.rows.size();
    for (std::size_t i = 0; i < system.rows.size(); ++i) {
        Vec row = system.rows[i];
        row.resize(slack.num_vars, 0);
        row[system.num_vars + i] = -1;
        slack.rows.push_back(std::move(row));
    }

    std::vector<Vec> projected;
    std::set<Vec> seen;
    for (const Vec& solution : reference::hilbert_basis_equalities(slack, options)) {
        Vec y(solution.begin(), solution.begin() + static_cast<std::ptrdiff_t>(system.num_vars));
        if (!is_zero(y) && seen.insert(y).second) projected.push_back(std::move(y));
    }
    return projected;
}

RealisableBasis realisable_multiset_basis(const Protocol& protocol,
                                          const HilbertOptions& options) {
    if (!protocol.is_leaderless() || protocol.input_variables().size() != 1)
        throw std::invalid_argument(
            "reference::realisable_multiset_basis: protocol must be leaderless with one input");

    const StateId input = protocol.input_state(0);
    HomogeneousSystem system;
    system.num_vars = protocol.num_transitions();
    for (std::size_t q = 0; q < protocol.num_states(); ++q) {
        if (static_cast<StateId>(q) == input) continue;
        Vec row(system.num_vars, 0);
        for (std::size_t t = 0; t < system.num_vars; ++t) {
            const Transition& transition = protocol.transitions()[t];
            if (static_cast<std::size_t>(transition.post1) == q) ++row[t];
            if (static_cast<std::size_t>(transition.post2) == q) ++row[t];
            if (static_cast<std::size_t>(transition.pre1) == q) --row[t];
            if (static_cast<std::size_t>(transition.pre2) == q) --row[t];
        }
        system.rows.push_back(std::move(row));
    }

    RealisableBasis basis;
    basis.xi = pottier_constant(protocol);
    basis.elements = reference::generating_basis_inequalities(system, options);
    for (const ParikhImage& element : basis.elements) {
        const AgentCount i = minimal_realising_input(protocol, element);
        basis.inputs.push_back(i);
        basis.results.push_back(
            apply_parikh(Config::single(protocol.num_states(), input, i), protocol, element));
        basis.max_size = std::max(basis.max_size, parikh_size(element));
    }
    return basis;
}

std::vector<Vec> brute_force_minimal_equalities(const HomogeneousSystem& system,
                                                std::int64_t cap) {
    system.validate();
    std::vector<Vec> solutions;
    Vec y(system.num_vars, 0);
    const auto enumerate = [&](const auto& self, std::size_t j) -> void {
        if (j == system.num_vars) {
            if (!is_zero(y) && is_zero(residual(system, y))) solutions.push_back(y);
            return;
        }
        for (std::int64_t c = 0; c <= cap; ++c) {
            y[j] = c;
            self(self, j + 1);
        }
        y[j] = 0;
    };
    enumerate(enumerate, 0);
    return minimal_elements(solutions);
}

}  // namespace ppsc::reference
