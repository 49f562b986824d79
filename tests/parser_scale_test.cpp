// Loading a large .pp file: double_exp_threshold(16) has 65 539 states, and
// its text must round-trip through parse_protocol_with_source with a source
// line for every transition.  The parser's name lookups are hashed, so this
// runs in time linear in the text; ctest gives the binary a timeout (see
// CMakeLists.txt), so a return to per-name linear scans fails instead of
// hanging.
#include <gtest/gtest.h>

#include <string>

#include "core/protocol_parser.hpp"
#include "protocols/double_exp_threshold.hpp"

namespace ppsc {
namespace {

TEST(ProtocolParserScale, DoubleExp16RoundTripsWithSourceLines) {
    const Protocol built = protocols::double_exp_threshold(16);
    ASSERT_EQ(built.num_states(), 65539u);
    const std::string text = format_protocol(built);
    const ParsedProtocol parsed = parse_protocol_with_source(text);
    EXPECT_EQ(format_protocol(parsed.protocol), text);
    EXPECT_TRUE(parsed.warnings.empty());
    ASSERT_EQ(parsed.state_line.size(), built.num_states());
    ASSERT_EQ(parsed.transition_line.size(), built.num_transitions());
    // format_protocol writes one `state` line per state, then the input
    // line, then one rule per line in TransitionId order.
    for (std::size_t q = 0; q < parsed.state_line.size(); ++q)
        ASSERT_EQ(parsed.state_line[q], q + 1) << "state " << q;
    for (std::size_t t = 0; t < parsed.transition_line.size(); ++t)
        ASSERT_EQ(parsed.transition_line[t], built.num_states() + 2 + t) << "transition " << t;
}

}  // namespace
}  // namespace ppsc
