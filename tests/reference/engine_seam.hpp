// The test-only seam onto the engine's backend choices.
//
// A Protocol picks its rule table (dense up to kDenseRuleTablePairCap
// triangular pairs, sparse above) and a Simulator its fired-step
// pair-selection lane (Fenwick from kFenwickPairThreshold non-silent pairs
// up, the cumulative scan below) from the protocol alone; libppsc offers no
// option to override either.  The identity tests need the other choice on
// the same protocol — dense against sparse, Fenwick against scan — and so
// do bench_simulation's forced rows.  EngineSeam is the one place that
// forces them: Protocol and Simulator name it as a friend.
#pragma once

#include "core/protocol.hpp"
#include "sim/simulator.hpp"

namespace ppsc::reference {

using detail::PairSelect;

struct EngineSeam {
    /// A copy of `protocol` with the pair → rules lookup rebuilt as `kind`.
    /// PairIds, rule order, and therefore all trajectories are unchanged.
    static Protocol with_rule_table(const Protocol& protocol, RuleTable kind);

    /// A simulator of `protocol` on the forced pair-selection lane.
    static Simulator simulator(const Protocol& protocol, PairSelect lane);

    /// The lane `simulator` runs on.
    static PairSelect lane(const Simulator& simulator) noexcept;
};

}  // namespace ppsc::reference
