#include <deque>
#include <set>

#include "reference/reference.hpp"

namespace ppsc::reference {

std::vector<Config> successor_configs(const Protocol& protocol, const Config& config) {
    const std::vector<StateId> support = config.support();
    std::set<std::vector<AgentCount>> found;
    for (std::size_t i = 0; i < support.size(); ++i) {
        for (std::size_t j = i; j < support.size(); ++j) {
            if (i == j && config[support[i]] < 2) continue;
            for (const TransitionId rule : protocol.rules_for_pair(support[i], support[j])) {
                const Config next =
                    protocol.fire(config, protocol.transitions()[static_cast<std::size_t>(rule)]);
                if (next != config) found.insert(next.counts());
            }
        }
    }
    std::vector<Config> successors;
    for (const std::vector<AgentCount>& counts : found)
        successors.push_back(Config::from_counts(counts));
    return successors;
}

ReverseEdges reverse_edges(const ReachabilityGraph& graph) {
    ReverseEdges reverse(graph.num_nodes());
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        for (const NodeId target : graph.successors(static_cast<NodeId>(node)))
            reverse[static_cast<std::size_t>(target)].push_back(static_cast<NodeId>(node));
    }
    return reverse;
}

std::vector<bool> backward_closure(const ReverseEdges& reverse, const std::vector<bool>& targets) {
    std::vector<bool> visited = targets;
    std::deque<NodeId> queue;
    for (std::size_t node = 0; node < targets.size(); ++node) {
        if (targets[node]) queue.push_back(static_cast<NodeId>(node));
    }
    while (!queue.empty()) {
        const NodeId node = queue.front();
        queue.pop_front();
        for (const NodeId prev : reverse[static_cast<std::size_t>(node)]) {
            if (!visited[static_cast<std::size_t>(prev)]) {
                visited[static_cast<std::size_t>(prev)] = true;
                queue.push_back(prev);
            }
        }
    }
    return visited;
}

std::map<std::vector<AgentCount>, Stability> stability_flags(const Protocol& protocol,
                                                             AgentCount population) {
    // Every count vector of `population` agents over the protocol's states.
    std::map<std::vector<AgentCount>, NodeId> index;
    std::vector<AgentCount> counts(protocol.num_states(), 0);
    const auto enumerate = [&](const auto& self, std::size_t state, AgentCount remaining) -> void {
        if (state + 1 == counts.size()) {
            counts[state] = remaining;
            index.emplace(counts, static_cast<NodeId>(index.size()));
            return;
        }
        for (AgentCount c = 0; c <= remaining; ++c) {
            counts[state] = c;
            self(self, state + 1, remaining - c);
        }
    };
    if (!counts.empty()) enumerate(enumerate, 0, population);

    ReverseEdges reverse(index.size());
    for (const auto& [node_counts, node] : index) {
        for (const Config& next : successor_configs(protocol, Config::from_counts(node_counts)))
            reverse[static_cast<std::size_t>(index.at(next.counts()))].push_back(node);
    }

    std::vector<bool> reaches_bad[2];
    for (int b = 0; b < 2; ++b) {
        std::vector<bool> bad(index.size(), false);
        for (const auto& [node_counts, node] : index) {
            for (std::size_t q = 0; q < node_counts.size(); ++q) {
                if (node_counts[q] > 0 && protocol.output(static_cast<StateId>(q)) != b)
                    bad[static_cast<std::size_t>(node)] = true;
            }
        }
        reaches_bad[b] = backward_closure(reverse, bad);
    }

    std::map<std::vector<AgentCount>, Stability> flags;
    for (const auto& [node_counts, node] : index) {
        const auto i = static_cast<std::size_t>(node);
        flags.emplace(node_counts, !reaches_bad[0][i]   ? Stability::kStable0
                                   : !reaches_bad[1][i] ? Stability::kStable1
                                                        : Stability::kNeither);
    }
    return flags;
}

}  // namespace ppsc::reference
