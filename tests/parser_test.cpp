// Tests for the protocol text format (parser + serialiser round trip),
// including the registered protocol families: every name the tool's help
// lists must build from its example parameters and round-trip.
#include "core/protocol_parser.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "protocols/families.hpp"
#include "protocols/threshold.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

constexpr const char* kThreshold2 = R"(# x >= 2 detector
state x 0
state T 1
input x -> x
trans x x -> T T
trans x T -> T T
)";

TEST(ProtocolParser, ParsesMinimalProtocol) {
    const Protocol p = parse_protocol(kThreshold2);
    EXPECT_EQ(p.num_states(), 2u);
    EXPECT_EQ(p.num_transitions(), 2u);
    EXPECT_TRUE(p.is_leaderless());
    const Verifier verifier(p);
    EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(2), 2, 6).holds);
}

TEST(ProtocolParser, ParsesLeadersAndComments) {
    const Protocol p = parse_protocol(R"(
state x 0      # input token
state l 0
state T 1
input x -> x
leaders l 2
trans l x -> T T
trans T x -> T T
trans T l -> T T
)");
    EXPECT_FALSE(p.is_leaderless());
    EXPECT_EQ(p.leaders()[*p.find_state("l")], 2);
}

TEST(ProtocolParser, RoundTripsThroughFormat) {
    const Protocol original = protocols::collector_threshold(5);
    const Protocol reparsed = parse_protocol(format_protocol(original));
    EXPECT_EQ(reparsed.num_states(), original.num_states());
    EXPECT_EQ(reparsed.num_transitions(), original.num_transitions());
    // Semantically identical: same verdicts on a range of inputs.
    const Verifier v1(original), v2(reparsed);
    for (AgentCount i = 2; i <= 8; ++i) {
        EXPECT_EQ(v1.verify_input(i).computed, v2.verify_input(i).computed) << i;
    }
}

TEST(ProtocolParser, ErrorsCarryLineNumbers) {
    try {
        parse_protocol("state a 0\nstate b 2\n");
        FAIL() << "expected parse error";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
}

TEST(ProtocolParser, RejectsBrokenInputs) {
    EXPECT_THROW(parse_protocol("bogus line\n"), std::invalid_argument);
    EXPECT_THROW(parse_protocol("state a 0\ninput x -> missing\n"), std::invalid_argument);
    EXPECT_THROW(parse_protocol("state a 0\ntrans a a ->\n"), std::invalid_argument);
    EXPECT_THROW(parse_protocol("state a 0\nleaders a many\n"), std::invalid_argument);
    EXPECT_THROW(parse_protocol("state a 0\n"), std::invalid_argument);  // no input
    EXPECT_THROW(parse_protocol("state a 0\nstate a 1\ninput x -> a\n"),
                 std::invalid_argument);  // duplicate state
}

TEST(ProtocolParser, EmptyFileFailsCleanly) {
    EXPECT_THROW(parse_protocol(""), std::invalid_argument);
}

TEST(ProtocolParser, ConflictingRedefinitionIsTypedError) {
    // Same pre-pair, different post-pair, plain `trans`: a typo, not a
    // nondeterministic protocol — typed error carrying both line numbers.
    const char* text =
        "state a 0\nstate b 1\ninput x -> a\ntrans a a -> b b\ntrans a a -> a b\n";
    try {
        parse_protocol(text);
        FAIL() << "expected DuplicateRuleError";
    } catch (const DuplicateRuleError& e) {
        EXPECT_EQ(e.line(), 5u);
        EXPECT_EQ(e.previous_line(), 4u);
        EXPECT_NE(std::string(e.what()).find("conflicting redefinition"), std::string::npos)
            << e.what();
    }
}

TEST(ProtocolParser, ConflictDetectionCanonicalisesPairOrder) {
    // `trans b a` and `trans a b` name the same unordered pre-pair.
    EXPECT_THROW(
        parse_protocol(
            "state a 0\nstate b 1\ninput x -> a\ntrans a b -> b b\ntrans b a -> a a\n"),
        DuplicateRuleError);
}

TEST(ProtocolParser, IdenticalDuplicateIsWarningNotError) {
    std::vector<ParseWarning> warnings;
    const Protocol p = parse_protocol(
        "state a 0\nstate b 1\ninput x -> a\ntrans a a -> b b\ntrans a a -> b b\n", &warnings);
    EXPECT_EQ(p.num_transitions(), 1u);  // builder merges the duplicate
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_EQ(warnings[0].line, 5u);
    EXPECT_NE(warnings[0].message.find("duplicate rule"), std::string::npos)
        << warnings[0].message;
    // Unordered-post duplicate (b a vs a b) is the same rule too.
    warnings.clear();
    parse_protocol("state a 0\nstate b 1\ninput x -> a\ntrans a a -> a b\ntrans a a -> b a\n",
                   &warnings);
    EXPECT_EQ(warnings.size(), 1u);
}

TEST(ProtocolParser, TransPlusDeclaresNondeterminism) {
    // Explicit nondeterministic extension parses to two rules on the pair…
    const Protocol p = parse_protocol(
        "state a 0\nstate b 1\ninput x -> a\ntrans a a -> a b\ntrans+ a a -> b b\n");
    EXPECT_EQ(p.num_transitions(), 2u);
    EXPECT_EQ(p.rules_for_pair(0, 0).size(), 2u);
    // …and round-trips: the serialiser emits trans+ for the second rule.
    const std::string text = format_protocol(p);
    EXPECT_NE(text.find("trans+"), std::string::npos) << text;
    EXPECT_EQ(format_protocol(parse_protocol(text)), text);
    // trans+ with no prior rule for the pair is an error.
    EXPECT_THROW(
        parse_protocol("state a 0\nstate b 1\ninput x -> a\ntrans+ a a -> b b\n"),
        std::invalid_argument);
}

// --- tokenizer edge cases ----------------------------------------------------

/// The error text parse_protocol throws for `text` ("" when it parses).
std::string parse_error(const std::string& text) {
    try {
        parse_protocol(text);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(ProtocolParser, CrlfAndEveryIsspaceSeparatorParseLikeSpaces) {
    // Lines split on '\n' only; tokens split on the C-locale isspace set,
    // so '\r', '\t', '\v' and '\f' all separate tokens.  The last line
    // needs no newline.
    const std::string odd =
        "state x 0\r\n"
        "state\tT\t1\r\n"
        "\v input x\f->\tx \r\n"
        "\r\n"
        "trans x\vx -> T\fT\r\n"
        "trans T x -> T T";
    EXPECT_EQ(format_protocol(parse_protocol(odd)), format_protocol(parse_protocol(kThreshold2)));
}

TEST(ProtocolParser, LineNumbersCountNewlinesOnly) {
    // A last line without newline is still a line; a trailing newline adds
    // none; '\r' never starts a line.
    EXPECT_EQ(parse_error("state a 0\nstate b 0"),
              "protocol parse error, line 2: no input declaration");
    EXPECT_EQ(parse_error("state a 0\nstate b 0\n"),
              "protocol parse error, line 2: no input declaration");
    EXPECT_EQ(parse_error("state a 0\r\nstate b 0\r\n\r\n"),
              "protocol parse error, line 3: no input declaration");
    EXPECT_EQ(parse_error("state a 0\rstate b 0\n"),
              "protocol parse error, line 1: expected: state <name> <0|1>");
    EXPECT_EQ(parse_error("state a 0\ninput x -> a\ntrans a a -> b b"),
              "protocol parse error, line 3: unknown state 'b'");
    EXPECT_EQ(parse_error("state a 0\r\n\r\nfoo bar\r\n"),
              "protocol parse error, line 3: unknown keyword 'foo'");
    EXPECT_EQ(parse_error(""), "protocol parse error, line 0: no input declaration");
}

TEST(ProtocolParser, HashStartsACommentOnlyAtTokenStart) {
    const Protocol p = parse_protocol("state x#y 0 #comment\nstate T# 1\ninput x -> x#y\n"
                                      "trans x#y x#y -> T# T#  # rule\n");
    ASSERT_EQ(p.num_states(), 2u);
    EXPECT_EQ(p.state_name(0), "x#y");
    EXPECT_EQ(p.state_name(1), "T#");
    EXPECT_EQ(p.num_transitions(), 1u);
    EXPECT_EQ(parse_error("state a 0#1\n"), "protocol parse error, line 1: output must be 0 or 1");
    EXPECT_EQ(parse_error("#state a 0\n"), "protocol parse error, line 1: no input declaration");
}

// --- exact message text ------------------------------------------------------

TEST(ProtocolParser, MessagesNamePairsCanonically) {
    // Pair text lists names in state-id order whichever order the file
    // wrote them in.
    for (const char* first : {"trans a b -> b b\n", "trans b a -> b b\n"}) {
        for (const char* second : {"trans a b -> a a\n", "trans b a -> a a\n"}) {
            const std::string head = std::string("state a 0\nstate b 1\ninput x -> a\n") + first;
            EXPECT_EQ(parse_error(head + second),
                      "protocol parse error, line 5: conflicting redefinition of pair {a, b} "
                      "(first defined at line 4; use trans+ to add a nondeterministic rule)");
            std::vector<ParseWarning> warnings;
            parse_protocol(head + "trans b a -> b b\n", &warnings);
            ASSERT_EQ(warnings.size(), 1u);
            EXPECT_EQ(warnings[0].line, 5u);
            EXPECT_EQ(warnings[0].message, "duplicate rule for pair {a, b} (identical to line 4)");
        }
    }
    for (const char* rule : {"trans+ a b -> b b\n", "trans+ b a -> b b\n"})
        EXPECT_EQ(parse_error(std::string("state a 0\nstate b 1\ninput x -> a\n") + rule),
                  "protocol parse error, line 4: trans+ extends pair {a, b}, which has no prior "
                  "rule (use trans)");
}

TEST(ProtocolParser, RecordsSourceLinesInTheSamePass) {
    const std::string text =
        "state a 0\n"           // 1
        "# comment\n"           // 2
        "state b 1\n"           // 3
        "input x -> a\n"        // 4
        "trans b a -> b b\n"    // 5  transition 0
        "trans b b -> b b\n"    // 6  silent: no transition
        "trans a b -> b b\n"    // 7  identical to line 5
        "trans+ b a -> a a\n"   // 8  transition 1
        "trans a a -> b b\r\n"; // 9  transition 2
    const ParsedProtocol parsed = parse_protocol_with_source(text);
    EXPECT_EQ(parsed.state_line, (std::vector<std::size_t>{1, 3}));
    EXPECT_EQ(parsed.transition_line, (std::vector<std::size_t>{5, 8, 9}));
    ASSERT_EQ(parsed.protocol.num_transitions(), 3u);
    ASSERT_EQ(parsed.warnings.size(), 1u);
    EXPECT_EQ(parsed.warnings[0].line, 7u);
    EXPECT_EQ(parsed.warnings[0].message, "duplicate rule for pair {a, b} (identical to line 5)");
    // The plain entry point is the same parse.
    std::vector<ParseWarning> separate;
    EXPECT_EQ(format_protocol(parse_protocol(text, &separate)), format_protocol(parsed.protocol));
    ASSERT_EQ(separate.size(), 1u);
    EXPECT_EQ(separate[0].message, parsed.warnings[0].message);
}

TEST(ProtocolFamilies, EveryRegisteredFamilyBuildsAndRoundTrips) {
    // The registry is the source of the tool's help text; each listed name
    // must build from its documented example parameters, serialise, and
    // reparse to a textually identical protocol.
    ASSERT_FALSE(protocols::protocol_families().empty());
    for (const protocols::ProtocolFamily& family : protocols::protocol_families()) {
        std::vector<std::string> args;
        std::istringstream example(family.example_args);
        for (std::string token; example >> token;) args.push_back(token);
        const Protocol built = protocols::build_family(family.name, args);
        EXPECT_GE(built.num_states(), 2u) << family.name;
        const std::string text = format_protocol(built);
        const Protocol reparsed = parse_protocol(text);
        EXPECT_EQ(format_protocol(reparsed), text) << family.name;
        EXPECT_EQ(reparsed.num_states(), built.num_states()) << family.name;
        EXPECT_EQ(reparsed.num_transitions(), built.num_transitions()) << family.name;
    }
}

TEST(ProtocolFamilies, RejectsUnknownNamesAndBadArity) {
    EXPECT_THROW(protocols::build_family("no_such_family", {}), std::invalid_argument);
    EXPECT_THROW(protocols::build_family("double_exp", {}), std::invalid_argument);
    const std::vector<std::string> two = {"1", "2"};
    EXPECT_THROW(protocols::build_family("unary", two), std::invalid_argument);
    const std::vector<std::string> junk = {"xyz"};
    EXPECT_THROW(protocols::build_family("double_exp", junk), std::invalid_argument);
    // The usage text behind `protocol_tool help` lists every family.
    const std::string usage = protocols::family_usage();
    for (const protocols::ProtocolFamily& family : protocols::protocol_families())
        EXPECT_NE(usage.find(family.name), std::string::npos) << family.name;
}

}  // namespace
}  // namespace ppsc
