#include "reference/engine_seam.hpp"

namespace ppsc::reference {

Protocol EngineSeam::with_rule_table(const Protocol& protocol, RuleTable kind) {
    Protocol copy = protocol;
    copy.build_pair_lookup(kind);
    return copy;
}

Simulator EngineSeam::simulator(const Protocol& protocol, PairSelect lane) {
    return Simulator(protocol, lane);
}

PairSelect EngineSeam::lane(const Simulator& simulator) noexcept {
    return simulator.pair_select_;
}

}  // namespace ppsc::reference
