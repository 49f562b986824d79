#include "reference/reference.hpp"

namespace ppsc::reference {

namespace {

/// The shared consensus output of every configuration in `component`, or
/// nullopt if some member is not a consensus or two members disagree.
std::optional<int> component_consensus(const ReachabilityGraph& graph,
                                       const ReachabilityGraph::SccResult& scc,
                                       std::int32_t component) {
    std::optional<int> verdict;
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        if (scc.component_of[node] != component) continue;
        const std::optional<int> value =
            graph.protocol().consensus_output(graph.config(static_cast<NodeId>(node)));
        if (!value) return std::nullopt;
        if (!verdict) verdict = value;
        if (*verdict != *value) return std::nullopt;
    }
    return verdict;
}

}  // namespace

std::optional<Config> stable_configuration_for_input(const Protocol& protocol, AgentCount input,
                                                     const ReachabilityOptions& options) {
    const Config roots[] = {protocol.initial_config(input)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(protocol, roots, options);
    const ReachabilityGraph::SccResult scc = graph.compute_sccs();
    for (std::int32_t component = 0; component < scc.num_components; ++component) {
        if (!scc.is_bottom[static_cast<std::size_t>(component)]) continue;
        if (!component_consensus(graph, scc, component)) continue;
        std::optional<Config> best;
        for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
            if (scc.component_of[node] != component) continue;
            const Config& config = graph.config(static_cast<NodeId>(node));
            if (!best || config.counts() < best->counts()) best = config;
        }
        return best;
    }
    return std::nullopt;
}

}  // namespace ppsc::reference
