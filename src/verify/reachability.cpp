#include "verify/reachability.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "support/check.hpp"

namespace ppsc {

namespace {

/// Enumerates all multisets of `population` agents over `num_states`
/// states, invoking `emit` for each.
template <typename Emit>
void enumerate_slice(std::size_t num_states, AgentCount population, Emit&& emit) {
    std::vector<AgentCount> counts(num_states, 0);
    // Recursive distribution of `population` agents over the states.
    auto recurse = [&](auto&& self, std::size_t state, AgentCount remaining) -> void {
        if (state + 1 == num_states) {
            counts[state] = remaining;
            emit(counts);
            return;
        }
        for (AgentCount c = remaining; c >= 0; --c) {
            counts[state] = c;
            self(self, state + 1, remaining - c);
        }
    };
    if (num_states > 0) recurse(recurse, 0, population);
}

}  // namespace

NodeId ReachabilityGraph::intern(const Config& config, const ReachabilityOptions& options,
                                 std::vector<NodeId>& frontier) {
    auto [it, inserted] = index_.try_emplace(config, static_cast<NodeId>(configs_.size()));
    if (inserted) {
        if (configs_.size() >= options.max_nodes)
            throw std::length_error(
                "ReachabilityGraph: node budget exhausted (raise max_nodes)");
        configs_.push_back(config);
        adjacency_.emplace_back();
        frontier.push_back(it->second);
    }
    return it->second;
}

void ReachabilityGraph::close(const ReachabilityOptions& options, std::vector<NodeId> frontier) {
    // Standard interning BFS; `frontier` holds nodes whose successors are
    // not yet computed.
    std::size_t processed = 0;
    std::vector<NodeId> out;  // reused buffer; adjacency_ grows inside intern()
    const auto fire_rule = [&](const Config& current, NodeId node, TransitionId rule,
                               std::vector<NodeId>& frontier_ref) {
        const Transition& t = protocol_->transitions()[static_cast<std::size_t>(rule)];
        const NodeId target = intern(protocol_->fire(current, t), options, frontier_ref);
        if (target != node) out.push_back(target);
    };
    while (processed < frontier.size()) {
        const NodeId node = frontier[processed++];
        const Config current = configs_[static_cast<std::size_t>(node)];  // copy: configs_ may grow
        out.clear();
        // Walk the non-silent-pair CSR restricted to the support: every
        // enabled pair with at least one rule is reached through the
        // neighbour lists of its (occupied) endpoints, each unordered pair
        // exactly once (self pairs via self_pair, non-self pairs from their
        // lower endpoint).  Silent support pairs are never touched, so the
        // cost is Σ_{q ∈ supp} deg(q) + rules fired, independent of the
        // rule-table kind.
        for (const StateId q : current.support()) {
            if (current[q] >= 2) {
                const Protocol::PairId self = protocol_->self_pair(q);
                if (self != Protocol::kNoPair) {
                    for (const TransitionId rule : protocol_->rules_for_pair_id(self))
                        fire_rule(current, node, rule, frontier);
                }
            }
            for (const Protocol::PairNeighbor& neighbor : protocol_->pair_neighbors(q)) {
                if (neighbor.partner < q || current[neighbor.partner] == 0) continue;
                for (const TransitionId rule : protocol_->rules_for_pair_id(neighbor.pair))
                    fire_rule(current, node, rule, frontier);
            }
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        adjacency_[static_cast<std::size_t>(node)] = out;
    }
}

ReachabilityGraph ReachabilityGraph::explore(const Protocol& protocol,
                                             std::span<const Config> roots,
                                             const ReachabilityOptions& options) {
    if (roots.empty())
        throw std::invalid_argument("ReachabilityGraph::explore: no root configurations");
    const AgentCount population = roots.front().size();
    for (const Config& root : roots) {
        if (root.num_states() != protocol.num_states())
            throw std::invalid_argument("ReachabilityGraph::explore: root dimension mismatch");
        if (root.size() != population)
            throw std::invalid_argument(
                "ReachabilityGraph::explore: roots have different population sizes");
        if (population < 2)
            throw std::invalid_argument(
                "ReachabilityGraph::explore: configurations need at least two agents");
    }

    ReachabilityGraph graph;
    graph.protocol_ = &protocol;
    std::vector<NodeId> frontier;
    for (const Config& root : roots) graph.roots_.push_back(graph.intern(root, options, frontier));
    graph.close(options, std::move(frontier));
    return graph;
}

ReachabilityGraph ReachabilityGraph::full_slice(const Protocol& protocol, AgentCount population,
                                                const ReachabilityOptions& options) {
    if (population < 2)
        throw std::invalid_argument(
            "ReachabilityGraph::full_slice: configurations need at least two agents");
    ReachabilityGraph graph;
    graph.protocol_ = &protocol;
    std::vector<NodeId> frontier;
    enumerate_slice(protocol.num_states(), population, [&](const std::vector<AgentCount>& counts) {
        graph.intern(Config::from_counts(counts), options, frontier);
    });
    graph.close(options, std::move(frontier));
    return graph;
}

std::size_t ReachabilityGraph::num_edges() const noexcept {
    std::size_t edges = 0;
    for (const auto& out : adjacency_) edges += out.size();
    return edges;
}

std::optional<NodeId> ReachabilityGraph::find(const Config& config) const {
    auto it = index_.find(config);
    if (it == index_.end()) return std::nullopt;
    return it->second;
}

std::span<const NodeId> ReachabilityGraph::successors(NodeId node) const {
    return adjacency_.at(static_cast<std::size_t>(node));
}

ReachabilityGraph::SccResult ReachabilityGraph::compute_sccs() const {
    // Iterative Tarjan.  Components are numbered in completion order, so
    // every inter-component edge goes from a larger to a smaller id.
    const std::size_t n = configs_.size();
    SccResult result;
    result.component_of.assign(n, -1);

    constexpr std::int32_t kUnvisited = -1;
    std::vector<std::int32_t> index(n, kUnvisited);
    std::vector<std::int32_t> lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<NodeId> stack;
    std::int32_t next_index = 0;

    struct Frame {
        NodeId node;
        std::size_t child = 0;
    };
    std::vector<Frame> call_stack;

    for (std::size_t start = 0; start < n; ++start) {
        if (index[start] != kUnvisited) continue;
        call_stack.push_back({static_cast<NodeId>(start)});
        while (!call_stack.empty()) {
            Frame& frame = call_stack.back();
            const auto node = static_cast<std::size_t>(frame.node);
            if (frame.child == 0) {
                index[node] = lowlink[node] = next_index++;
                stack.push_back(frame.node);
                on_stack[node] = true;
            }
            const auto& out = adjacency_[node];
            bool descended = false;
            while (frame.child < out.size()) {
                const auto next = static_cast<std::size_t>(out[frame.child]);
                ++frame.child;
                if (index[next] == kUnvisited) {
                    call_stack.push_back({static_cast<NodeId>(next)});
                    descended = true;
                    break;
                }
                if (on_stack[next]) lowlink[node] = std::min(lowlink[node], index[next]);
            }
            if (descended) continue;
            if (lowlink[node] == index[node]) {
                // node is a component root; pop its members.
                while (true) {
                    const NodeId member = stack.back();
                    stack.pop_back();
                    on_stack[static_cast<std::size_t>(member)] = false;
                    result.component_of[static_cast<std::size_t>(member)] =
                        result.num_components;
                    if (member == frame.node) break;
                }
                ++result.num_components;
            }
            call_stack.pop_back();
            if (!call_stack.empty()) {
                Frame& parent = call_stack.back();
                const auto parent_node = static_cast<std::size_t>(parent.node);
                lowlink[parent_node] = std::min(lowlink[parent_node], lowlink[node]);
            }
        }
    }

    result.is_bottom.assign(static_cast<std::size_t>(result.num_components), true);
    for (std::size_t node = 0; node < n; ++node) {
        for (const NodeId target : adjacency_[node]) {
            if (result.component_of[node] !=
                result.component_of[static_cast<std::size_t>(target)])
                result.is_bottom[static_cast<std::size_t>(result.component_of[node])] = false;
        }
    }
    return result;
}

std::vector<bool> ReachabilityGraph::forward_closure(NodeId start) const {
    if (start < 0 || static_cast<std::size_t>(start) >= configs_.size())
        throw std::out_of_range("ReachabilityGraph::forward_closure: start node out of range");
    std::vector<bool> visited(configs_.size(), false);
    std::deque<NodeId> queue{start};
    visited[static_cast<std::size_t>(start)] = true;
    while (!queue.empty()) {
        const NodeId node = queue.front();
        queue.pop_front();
        for (const NodeId next : adjacency_[static_cast<std::size_t>(node)]) {
            if (!visited[static_cast<std::size_t>(next)]) {
                visited[static_cast<std::size_t>(next)] = true;
                queue.push_back(next);
            }
        }
    }
    return visited;
}

void ReachabilityGraph::build_reverse_csr() const {
    if (!reverse_offsets_.empty() || configs_.empty()) return;
    // Counting sort of the edge list by target: two passes over the forward
    // adjacency, two contiguous arrays, no per-node vectors.
    reverse_offsets_.assign(configs_.size() + 1, 0);
    for (const auto& out : adjacency_)
        for (const NodeId target : out) ++reverse_offsets_[static_cast<std::size_t>(target) + 1];
    for (std::size_t i = 1; i < reverse_offsets_.size(); ++i)
        reverse_offsets_[i] += reverse_offsets_[i - 1];
    reverse_targets_.resize(reverse_offsets_.back());
    std::vector<std::uint32_t> cursor(reverse_offsets_.begin(), reverse_offsets_.end() - 1);
    for (std::size_t node = 0; node < configs_.size(); ++node) {
        for (const NodeId target : adjacency_[node])
            reverse_targets_[cursor[static_cast<std::size_t>(target)]++] =
                static_cast<NodeId>(node);
    }
}

std::vector<bool> ReachabilityGraph::backward_closure(const std::vector<bool>& targets) const {
    if (targets.size() != configs_.size())
        throw std::invalid_argument("ReachabilityGraph::backward_closure: size mismatch");

    // Round-structured worklist over the flat reverse CSR, seeded from the
    // target set (in stable-set use, Bad_b — itself seeded from sparse
    // support scans).  Rounds are BFS levels.
    build_reverse_csr();
    std::vector<bool> visited = targets;
    std::vector<NodeId> round;
    for (std::size_t node = 0; node < targets.size(); ++node) {
        if (targets[node]) round.push_back(static_cast<NodeId>(node));
    }
    std::vector<NodeId> next_round;
    while (!round.empty()) {
        next_round.clear();
        for (const NodeId node : round) {
            const auto i = static_cast<std::size_t>(node);
            const std::uint32_t begin = reverse_offsets_[i];
            const std::uint32_t end = reverse_offsets_[i + 1];
            for (std::uint32_t e = begin; e < end; ++e) {
                const NodeId prev = reverse_targets_[e];
                if (!visited[static_cast<std::size_t>(prev)]) {
                    visited[static_cast<std::size_t>(prev)] = true;
                    next_round.push_back(prev);
                }
            }
        }
        std::swap(round, next_round);
    }
    return visited;
}

}  // namespace ppsc
