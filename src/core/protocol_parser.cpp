#include "core/protocol_parser.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ppsc {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
    throw std::invalid_argument("protocol parse error, line " + std::to_string(line) + ": " +
                                message);
}

/// Splits `line` into views of its tokens, separated by the C-locale
/// isspace set; a token that starts with '#' ends the line (a comment).
void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
    const auto is_space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
    tokens.clear();
    std::size_t i = 0;
    while (true) {
        while (i < line.size() && is_space(line[i])) ++i;
        if (i == line.size() || line[i] == '#') return;
        const std::size_t start = i;
        while (i < line.size() && !is_space(line[i])) ++i;
        tokens.push_back(line.substr(start, i - start));
    }
}

/// The single pass behind both entry points.  Warnings are appended as
/// they are found, so a caller keeps those reported before an error.
Protocol parse(std::string_view text, std::vector<ParseWarning>& warnings,
               std::vector<std::size_t>& state_line, std::vector<std::size_t>& transition_line) {
    ProtocolBuilder b;
    std::size_t line_number = 0;
    const auto lookup = [&](std::string_view name) -> StateId {
        if (const auto id = b.find_state(name)) return *id;
        fail(line_number, "unknown state '" + std::string(name) + "'");
    };

    bool any_input = false;
    // Canonical pre-pair -> [(canonical post-pair, defining line)...], for
    // the duplicate/conflict detection on `trans`/`trans+` lines.
    std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::size_t>>>
        seen_rules;
    std::vector<std::string_view> tokens;
    // Lines end at '\n' only; a last line without one still counts.
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t end = std::min(text.find('\n', pos), text.size());
        tokenize(text.substr(pos, end - pos), tokens);
        pos = end + 1;
        ++line_number;
        if (tokens.empty()) continue;
        const std::string_view keyword = tokens[0];
        if (keyword == "state") {
            if (tokens.size() != 3) fail(line_number, "expected: state <name> <0|1>");
            if (tokens[2] != "0" && tokens[2] != "1") fail(line_number, "output must be 0 or 1");
            try {
                b.add_state(std::string(tokens[1]), tokens[2] == "1" ? 1 : 0);
            } catch (const std::invalid_argument& e) {
                fail(line_number, e.what());
            }
            state_line.push_back(line_number);
        } else if (keyword == "input") {
            if (tokens.size() != 4 || tokens[2] != "->")
                fail(line_number, "expected: input <var> -> <state>");
            try {
                b.set_input(std::string(tokens[1]), lookup(tokens[3]));
            } catch (const std::invalid_argument& e) {
                fail(line_number, e.what());
            }
            any_input = true;
        } else if (keyword == "leaders") {
            if (tokens.size() != 3) fail(line_number, "expected: leaders <state> <count>");
            const std::string count_text(tokens[2]);
            AgentCount count = 0;
            try {
                // Full-token parse: "12x" must be rejected, not read as 12
                // (found by ppsc-lint R5 — stoll alone accepts any prefix).
                std::size_t used = 0;
                // ppsc-lint: allow(R5) full-token check directly below; a typed fail() on any violation
                count = std::stoll(count_text, &used);
                if (used != count_text.size()) fail(line_number, "count must be an integer");
            } catch (const std::invalid_argument&) {
                fail(line_number, "count must be an integer");
            } catch (const std::out_of_range&) {
                fail(line_number, "count out of range");
            }
            try {
                b.add_leaders(lookup(tokens[1]), count);
            } catch (const std::invalid_argument& e) {
                fail(line_number, e.what());
            }
        } else if (keyword == "trans" || keyword == "trans+") {
            if (tokens.size() != 6 || tokens[3] != "->")
                fail(line_number,
                     "expected: " + std::string(keyword) + " <p> <q> -> <p'> <q'>");
            StateId p = lookup(tokens[1]);
            StateId q = lookup(tokens[2]);
            StateId p2 = lookup(tokens[4]);
            StateId q2 = lookup(tokens[5]);
            // `trans` defines a pre-pair; `trans+` explicitly adds a further
            // (nondeterministic) rule to an already-defined pre-pair.  A
            // plain `trans` re-targeting a defined pair is overwhelmingly a
            // typo, not intent — a typed error.  Canonicalise both sides
            // exactly as ProtocolBuilder does before comparing (messages
            // name the pair in that order too).
            std::string_view p_name = tokens[1], q_name = tokens[2];
            if (p > q) {
                std::swap(p, q);
                std::swap(p_name, q_name);
            }
            if (p2 > q2) std::swap(p2, q2);
            const auto pack = [](StateId a, StateId c) {
                return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
                       static_cast<std::uint32_t>(c);
            };
            const std::uint64_t post_key = pack(p2, q2);
            const auto pair_text = [&] {
                return "{" + std::string(p_name) + ", " + std::string(q_name) + "}";
            };
            auto& defined = seen_rules[pack(p, q)];
            if (keyword == "trans+" && defined.empty())
                fail(line_number, "trans+ extends pair " + pair_text() +
                                      ", which has no prior rule (use trans)");
            const std::size_t first_line = defined.empty() ? line_number : defined[0].second;
            bool identical_dup = false;
            for (const auto& [earlier_post, earlier_line] : defined) {
                if (earlier_post == post_key) {
                    warnings.push_back({line_number, "duplicate rule for pair " + pair_text() +
                                                         " (identical to line " +
                                                         std::to_string(earlier_line) + ")"});
                    identical_dup = true;
                    break;
                }
            }
            if (!identical_dup && keyword == "trans" && !defined.empty())
                throw DuplicateRuleError(
                    line_number, first_line,
                    "protocol parse error, line " + std::to_string(line_number) +
                        ": conflicting redefinition of pair " + pair_text() +
                        " (first defined at line " + std::to_string(first_line) +
                        "; use trans+ to add a nondeterministic rule)");
            if (!identical_dup) defined.emplace_back(post_key, line_number);
            // The builder drops silent rules and merges duplicates; a rule
            // it keeps is the one this line introduced.
            const std::size_t before = b.num_transitions();
            b.add_transition(p, q, p2, q2);
            if (b.num_transitions() > before) transition_line.push_back(line_number);
        } else {
            fail(line_number, "unknown keyword '" + std::string(keyword) + "'");
        }
    }
    if (!any_input) fail(line_number, "no input declaration");
    try {
        return std::move(b).build();
    } catch (const std::invalid_argument& e) {
        fail(line_number, e.what());
    }
}

}  // namespace

ParsedProtocol parse_protocol_with_source(std::string_view text) {
    std::vector<ParseWarning> warnings;
    std::vector<std::size_t> state_line, transition_line;
    Protocol protocol = parse(text, warnings, state_line, transition_line);
    return {std::move(protocol), std::move(warnings), std::move(state_line),
            std::move(transition_line)};
}

Protocol parse_protocol(std::string_view text, std::vector<ParseWarning>* warnings) {
    std::vector<ParseWarning> ignored;
    std::vector<std::size_t> state_line, transition_line;
    return parse(text, warnings != nullptr ? *warnings : ignored, state_line, transition_line);
}

std::string format_protocol(const Protocol& protocol) {
    std::ostringstream os;
    for (std::size_t q = 0; q < protocol.num_states(); ++q)
        os << "state " << protocol.state_name(static_cast<StateId>(q)) << ' '
           << protocol.output(static_cast<StateId>(q)) << '\n';
    const auto vars = protocol.input_variables();
    for (std::size_t v = 0; v < vars.size(); ++v)
        os << "input " << vars[v] << " -> " << protocol.state_name(protocol.input_state(v))
           << '\n';
    for (std::size_t q = 0; q < protocol.num_states(); ++q) {
        const AgentCount count = protocol.leaders()[static_cast<StateId>(q)];
        if (count > 0)
            os << "leaders " << protocol.state_name(static_cast<StateId>(q)) << ' ' << count
               << '\n';
    }
    // First rule of a pre-pair is `trans`; further rules (nondeterministic
    // protocols) are `trans+`, which is what keeps the serialisation
    // parseable under the parser's conflicting-redefinition check.
    std::unordered_set<std::uint64_t> emitted_pairs;
    for (const Transition& t : protocol.transitions()) {
        const std::uint64_t pre_key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.pre1)) << 32) |
            static_cast<std::uint32_t>(t.pre2);
        const bool first = emitted_pairs.insert(pre_key).second;
        os << (first ? "trans " : "trans+ ") << protocol.state_name(t.pre1) << ' '
           << protocol.state_name(t.pre2) << " -> " << protocol.state_name(t.post1) << ' '
           << protocol.state_name(t.post2) << '\n';
    }
    return os.str();
}

}  // namespace ppsc
