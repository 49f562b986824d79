#include <stdexcept>

#include "reference/reference.hpp"

namespace ppsc::reference {

std::vector<bool> output_trap(const Protocol& protocol, int b) {
    if (b != 0 && b != 1) throw std::invalid_argument("reference::output_trap: b must be 0 or 1");
    std::vector<bool> trap(protocol.num_states(), false);
    for (std::size_t q = 0; q < trap.size(); ++q)
        trap[q] = protocol.output(static_cast<StateId>(q)) == b;
    const auto inside = [&trap](StateId q) { return trap[static_cast<std::size_t>(q)]; };

    bool changed = true;
    while (changed) {
        changed = false;
        for (const Transition& t : protocol.transitions()) {
            if (inside(t.pre1) && inside(t.pre2) && !(inside(t.post1) && inside(t.post2))) {
                trap[static_cast<std::size_t>(t.pre1)] = false;
                trap[static_cast<std::size_t>(t.pre2)] = false;
                changed = true;
            }
        }
    }
    return trap;
}

}  // namespace ppsc::reference
