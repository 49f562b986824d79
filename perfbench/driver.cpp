// perfbench_driver — the in-process half of the end-to-end benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
//   perfbench_driver info
//   perfbench_driver setup    <file.pp> <simulate:0|1> <min_reps> <min_seconds>
//   perfbench_driver setup-bb <seed> <samples> <min_reps> <min_seconds>
//   perfbench_driver bb       <seed> <samples>
//   perfbench_driver trace analyze <file.pp> <family> <param> <work_dir>
//   perfbench_driver trace longrun <file.pp> <population> <budget> <seed> <every> <work_dir>
//   perfbench_driver trace sweep   <file.pp> <eta> <pop,pop,...> <runs> <seed> <work_dir>
//   perfbench_driver trace bb      <seed> <samples> <work_dir>
//
// Every command prints one JSON object on its last stdout line.
//
// `trace` replays a workload through the public API in the order the CLI
// calls it, recording a span (name, start, end, parent) around each call.
// Spans stay in memory and are written to <work_dir>/spans.json at exit;
// stdout gets the per-name summary plus the replay's outputs (digest
// lines, sweep rows, certificate file, SearchOutcome) so the caller can
// check the replay reproduced the untraced run.  Each replay is also run
// once with recording off; the difference is the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/certificate.hpp"
#include "analyze/checker.hpp"
#include "core/protocol_parser.hpp"
#include "protocols/families.hpp"
#include "search/busy_beaver.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "support/rng.hpp"
#include "verify/verifier.hpp"

using namespace ppsc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- minimal JSON output ----------------------------------------------------

std::string json_string(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                    out += buffer;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

std::string json_number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/// An ordered JSON object under construction (values are pre-rendered).
class JsonObject {
public:
    JsonObject& raw(const std::string& key, std::string value) {
        fields_.emplace_back(key, std::move(value));
        return *this;
    }
    JsonObject& num(const std::string& key, double value) { return raw(key, json_number(value)); }
    JsonObject& count(const std::string& key, std::uint64_t value) {
        return raw(key, std::to_string(value));
    }
    JsonObject& str(const std::string& key, std::string_view value) {
        return raw(key, json_string(value));
    }
    std::string render() const {
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i != 0) out += ", ";
            out += json_string(fields_[i].first) + ": " + fields_[i].second;
        }
        return out + "}";
    }

private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_list(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) out += ", ";
        out += json_number(values[i]);
    }
    return out + "]";
}

// --- tracing ----------------------------------------------------------------

/// Span recorder.  Single-threaded: every replay records from the calling
/// thread only (multi-threaded library calls are one span each).  When
/// disabled, Scope records nothing and costs one branch.
class Tracer {
public:
    /// Names are string literals: recording a span allocates nothing
    /// beyond the span vector's growth.
    struct Span {
        const char* name = "";
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    bool enabled() const noexcept { return enabled_; }

    int begin(const char* name) {
        Span span;
        span.name = name;
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.start = seconds_since(origin_);
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void end(int id) {
        spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
        stack_.pop_back();
    }

    const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Per-name aggregate: span count, total and self time (a span's
    /// duration minus the part its child spans cover), longest span, and
    /// the median span.
    std::string summary() const {
        std::vector<double> child_time(spans_.size(), 0.0);
        for (const Span& span : spans_) {
            if (span.parent >= 0)
                child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
        }
        struct Aggregate {
            std::uint64_t count = 0;
            double total = 0.0, self = 0.0, max = 0.0;
            std::vector<double> durations;
        };
        std::map<std::string, Aggregate> by_name;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double duration = spans_[i].end - spans_[i].start;
            Aggregate& aggregate = by_name[spans_[i].name];
            ++aggregate.count;
            aggregate.total += duration;
            aggregate.self += duration - child_time[i];
            aggregate.max = std::max(aggregate.max, duration);
            aggregate.durations.push_back(duration);
        }
        JsonObject out;
        for (auto& [name, aggregate] : by_name) {
            std::vector<double>& d = aggregate.durations;
            std::sort(d.begin(), d.end());
            const double p50 = d.size() % 2 == 1
                                   ? d[d.size() / 2]
                                   : 0.5 * (d[d.size() / 2 - 1] + d[d.size() / 2]);
            out.raw(name, JsonObject()
                              .count("count", aggregate.count)
                              .num("total_s", aggregate.total)
                              .num("self_s", aggregate.self)
                              .num("max_s", aggregate.max)
                              .num("p50_s", p50)
                              .render());
        }
        return out.render();
    }

    /// Writes every span as [name, start_s, end_s, parent_index].
    void write(const std::string& path) const {
        std::ofstream out(path);
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& span = spans_[i];
            out << "[" << json_string(span.name) << ", " << json_number(span.start) << ", "
                << json_number(span.end) << ", " << span.parent << "]"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
        if (!out) throw std::runtime_error("cannot write " + path);
    }

private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

class Scope {
public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name) : -1) {}
    ~Scope() {
        if (id_ >= 0) tracer_.end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer& tracer_;
    int id_;
};

template <typename F>
auto traced(Tracer& tracer, const char* name, F&& body) {
    const Scope scope(tracer, name);
    return body();
}

// --- shared helpers ---------------------------------------------------------

std::string read_file(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw std::invalid_argument("cannot open " + path);
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

std::uint64_t parse_u64(const char* text) {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used, 10);
    if (used != std::string_view(text).size())
        throw std::invalid_argument(std::string("not an integer: ") + text);
    return value;
}

double parse_double(const char* text) {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != std::string_view(text).size())
        throw std::invalid_argument(std::string("not a number: ") + text);
    return value;
}

std::vector<AgentCount> parse_list(const std::string& text) {
    std::vector<AgentCount> values;
    std::stringstream stream(text);
    for (std::string token; std::getline(stream, token, ',');)
        values.push_back(static_cast<AgentCount>(parse_u64(token.c_str())));
    return values;
}

/// Repeats `once` (which returns the seconds of its timed part) until both
/// `min_reps` repetitions and `min_seconds` of timed work are reached.
std::vector<double> repeat_timed(std::uint64_t min_reps, double min_seconds,
                                 const std::function<double()>& once) {
    std::vector<double> times;
    double total = 0.0;
    while (times.size() < min_reps || total < min_seconds) {
        times.push_back(once());
        total += times.back();
    }
    return times;
}

// --- busy-beaver stage replica ----------------------------------------------
//
// The same seeded candidate stream busy_beaver_search(n, options) draws in
// sampled mode (src/search/busy_beaver.cpp keeps these helpers private), so
// the replica's stage counts must equal the search's SearchOutcome.

struct Encoding {
    std::size_t n = 0;
    std::vector<std::uint16_t> table;
    std::uint32_t outputs = 0;
};

std::size_t pair_index(std::size_t p, std::size_t q) { return q * (q + 1) / 2 + p; }

/// The search's closed-form inverse of pair_index, so the replica's
/// canonicity check costs what the search's does.
std::pair<std::size_t, std::size_t> pair_of_index(std::size_t index) {
    std::size_t q = static_cast<std::size_t>(
        (std::sqrt(8.0 * static_cast<double>(index) + 1.0) - 1.0) / 2.0);
    while (q * (q + 1) / 2 > index) --q;
    while ((q + 1) * (q + 2) / 2 <= index) ++q;
    return {index - q * (q + 1) / 2, q};
}

Encoding permuted(const Encoding& encoding, const std::vector<std::size_t>& perm) {
    Encoding result;
    result.n = encoding.n;
    result.table.assign(encoding.table.size(), 0);
    for (std::size_t q = 0; q < encoding.n; ++q) {
        if ((encoding.outputs >> q) & 1u) result.outputs |= 1u << perm[q];
    }
    for (std::size_t q = 0; q < encoding.n; ++q) {
        for (std::size_t p = 0; p <= q; ++p) {
            const auto [r, s] = pair_of_index(encoding.table[pair_index(p, q)]);
            result.table[pair_index(std::min(perm[p], perm[q]), std::max(perm[p], perm[q]))] =
                static_cast<std::uint16_t>(
                    pair_index(std::min(perm[r], perm[s]), std::max(perm[r], perm[s])));
        }
    }
    return result;
}

bool is_canonical(const Encoding& encoding) {
    std::vector<std::size_t> perm(encoding.n);
    std::iota(perm.begin(), perm.end(), 0);
    std::vector<std::size_t> rest(perm.begin() + 1, perm.end());
    do {
        std::copy(rest.begin(), rest.end(), perm.begin() + 1);
        const Encoding other = permuted(encoding, perm);
        if (std::tie(other.outputs, other.table) < std::tie(encoding.outputs, encoding.table))
            return false;
    } while (std::next_permutation(rest.begin(), rest.end()));
    return true;
}

Protocol build_protocol(const Encoding& encoding) {
    ProtocolBuilder b;
    for (std::size_t q = 0; q < encoding.n; ++q)
        b.add_state("q" + std::to_string(q), (encoding.outputs >> q) & 1u);
    b.set_input("x", 0);
    for (std::size_t q = 0; q < encoding.n; ++q) {
        for (std::size_t p = 0; p <= q; ++p) {
            const auto [r, s] = pair_of_index(encoding.table[pair_index(p, q)]);
            b.add_transition(static_cast<StateId>(p), static_cast<StateId>(q),
                             static_cast<StateId>(r), static_cast<StateId>(s));
        }
    }
    return std::move(b).build();
}

/// Draws the next candidate of the sampled stream (the draws of the
/// search's sampling loop, in order).
Encoding draw_candidate(std::size_t n, Rng& rng) {
    const std::size_t num_pairs = n * (n + 1) / 2;
    Encoding encoding;
    encoding.n = n;
    encoding.outputs = static_cast<std::uint32_t>(1 + rng.below((1u << n) - 1));
    encoding.table.resize(num_pairs);
    for (std::size_t i = 0; i < num_pairs; ++i)
        encoding.table[i] = static_cast<std::uint16_t>(rng.below(num_pairs));
    return encoding;
}

/// The settings busy_beaver_explorer ships, plus the static screen.
constexpr std::size_t kBusyBeaverStates = 4;

search::SearchOptions bb_options(std::uint64_t seed, std::uint64_t samples) {
    search::SearchOptions options;
    options.max_input = 12;
    options.sample_limit = samples;
    options.seed = seed;
    options.screen = true;
    options.screening.runs = 1;
    options.screening.max_interactions = 1'500;
    options.static_screen = true;
    return options;
}

std::string outcome_json(const search::SearchOutcome& outcome) {
    std::string histogram = "[";
    for (std::size_t i = 0; i < outcome.eta_histogram.size(); ++i) {
        if (i != 0) histogram += ", ";
        histogram += "[" + std::to_string(outcome.eta_histogram[i].first) + ", " +
                     std::to_string(outcome.eta_histogram[i].second) + "]";
    }
    histogram += "]";
    return JsonObject()
        .count("enumerated", outcome.enumerated)
        .count("canonical", outcome.canonical)
        .count("static_refuted", outcome.static_refuted)
        .count("screened_out", outcome.screened_out)
        .count("budget_skipped", outcome.budget_skipped)
        .count("threshold_protocols", outcome.threshold_protocols)
        .raw("best_eta", std::to_string(outcome.best_eta))
        .raw("eta_histogram", histogram)
        .str("best_protocol_text", outcome.best_protocol_text)
        .render();
}

struct StageCounts {
    std::uint64_t enumerated = 0, canonical = 0, static_refuted = 0, screened_out = 0,
                  exact_verified = 0, budget_skipped = 0, threshold_protocols = 0;
    std::map<AgentCount, std::uint64_t> histogram;
};

/// The search's per-candidate pipeline, one span per stage: canonicity,
/// protocol build, StaticScreen (analyze_protocol, linear passes only),
/// simulation screen, exact threshold inference.
StageCounts bb_stage_replica(std::uint64_t seed, std::uint64_t samples, Tracer& tracer) {
    const search::SearchOptions options = bb_options(seed, samples);
    ReachabilityOptions reach;
    reach.max_nodes = options.max_nodes_per_graph;
    analyze::AnalysisOptions screen_options;
    screen_options.cone_state_cap = 0;

    StageCounts counts;
    Rng rng(options.seed);
    for (std::uint64_t trial = 0; trial < options.sample_limit; ++trial) {
        const Encoding encoding = draw_candidate(kBusyBeaverStates, rng);
        ++counts.enumerated;
        if (!traced(tracer, "search.canonical", [&] { return is_canonical(encoding); }))
            continue;
        ++counts.canonical;
        const Protocol protocol =
            traced(tracer, "search.build_protocol", [&] { return build_protocol(encoding); });
        const bool refuted = traced(tracer, "analyze.static_screen", [&] {
            return analyze::analyze_protocol(protocol, screen_options).consensus_refuted[1];
        });
        if (refuted) {
            ++counts.static_refuted;
            continue;
        }
        std::optional<Verifier> verifier;
        const bool screened = traced(tracer, "verify.screen", [&] {
            verifier.emplace(protocol, reach);
            return verifier->screening_refutes_threshold(options.max_input, options.screening);
        });
        if (screened) {
            ++counts.screened_out;
            continue;
        }
        ++counts.exact_verified;
        std::optional<AgentCount> eta;
        bool skipped = false;
        {
            const Scope scope(tracer, "verify.exact");
            try {
                eta = verifier->infer_threshold(options.max_input);
            } catch (const std::length_error&) {
                skipped = true;
            }
        }
        if (skipped) {
            ++counts.budget_skipped;
            continue;
        }
        if (!eta || *eta >= options.max_input) continue;
        ++counts.threshold_protocols;
        ++counts.histogram[*eta];
    }
    return counts;
}

// --- longrun replica --------------------------------------------------------

struct LongrunTotals {
    std::uint64_t interactions = 0, fired = 0, restarts = 0, writes = 0, bytes = 0;
};

/// One `protocol_tool longrun <file> <population> <budget> <seed>
/// --checkpoint-dir <dir> --checkpoint-every <every> [--resume]` process,
/// replayed through the API.  Returns the lines the CLI prints.
std::string longrun_leg(const std::string& text, AgentCount population, std::uint64_t budget,
                        std::uint64_t seed, std::uint64_t every, const std::string& dir_path,
                        bool resume, Tracer& tracer, LongrunTotals& totals) {
    const Protocol protocol = traced(tracer, "core.parse", [&] { return parse_protocol(text); });
    const std::uint64_t fingerprint = protocol_fingerprint(protocol);
    const std::optional<Simulator> built =
        traced(tracer, "sim.simulator_ctor", [&] { return std::optional<Simulator>(protocol); });
    const Simulator& simulator = *built;

    Config config = protocol.initial_config(population);
    Rng rng(seed);
    std::uint64_t done = 0, fired = 0, restarts = 0;
    CheckpointDir dir(dir_path, 3);
    if (resume) {
        const CheckpointDir::Latest latest =
            traced(tracer, "checkpoint.load", [&] { return dir.load_latest(fingerprint); });
        if (!latest.checkpoint) throw std::runtime_error("replay: no checkpoint to resume");
        config = latest.checkpoint->config;
        rng.set_state(latest.checkpoint->rng_state);
        done = latest.checkpoint->interactions;
        fired = latest.checkpoint->fired;
        restarts = latest.checkpoint->restarts;
    }

    const auto snapshot = [&](const Config& at, std::uint64_t rng_state, std::uint64_t interactions,
                              std::uint64_t fired_total) {
        Checkpoint ck;
        ck.fingerprint = fingerprint;
        ck.config = at;
        ck.rng_state = rng_state;
        ck.interactions = interactions;
        ck.fired = fired_total;
        ck.restarts = restarts;
        std::string written, detail;
        CheckpointError error = CheckpointError::none;
        {
            const Scope scope(tracer, "checkpoint.write");
            error = dir.write(ck, &written, &detail);
        }
        if (error != CheckpointError::none)
            throw std::runtime_error("replay: checkpoint write failed: " + detail);
        ++totals.writes;
        totals.bytes += std::filesystem::file_size(written);
    };

    const std::uint64_t done_before = done;
    const std::uint64_t fired_before = fired;
    while (done < budget) {
        CheckpointHook hook;
        hook.every = every;
        hook.callback = [&](const CheckpointTick& tick) {
            snapshot(tick.config, tick.rng_state, done + tick.interactions, fired + tick.fired);
            return true;
        };
        std::uint64_t fired_in_call = 0;
        const std::uint64_t got = traced(tracer, "sim.run_batch", [&] {
            return simulator.run_batch(config, rng, budget - done, false, &hook, &fired_in_call);
        });
        done += got;
        fired += fired_in_call;
        if (done >= budget) break;
        if (got == 0) throw std::runtime_error("replay: configuration silent from the start");
        ++restarts;
        ++totals.restarts;
        config = protocol.initial_config(population);
    }
    snapshot(config, rng.state(), done, fired);
    totals.interactions += done - done_before;
    totals.fired += fired - fired_before;

    char line[256];
    std::snprintf(line, sizeof line,
                  "longrun: interactions=%llu fired=%llu restarts=%llu rng=%016llx "
                  "digest=%016llx",
                  static_cast<unsigned long long>(done), static_cast<unsigned long long>(fired),
                  static_cast<unsigned long long>(restarts),
                  static_cast<unsigned long long>(rng.state()),
                  static_cast<unsigned long long>(config_digest(config)));
    return line;
}

// --- sweep replica ----------------------------------------------------------

/// The table `protocol_tool sweep` prints.
std::string format_rows(const std::vector<ConvergenceRow>& rows) {
    std::string out;
    char line[160];
    std::snprintf(line, sizeof line, "%10s %9s %16s %16s %9s\n", "population", "runs",
                  "mean par.time", "stddev", "correct");
    out += line;
    for (const ConvergenceRow& row : rows) {
        char runs_column[32];
        std::snprintf(runs_column, sizeof runs_column, "%llu/%llu",
                      static_cast<unsigned long long>(row.converged_runs),
                      static_cast<unsigned long long>(row.runs));
        std::snprintf(line, sizeof line, "%10lld %9s %16.1f %16.1f %8.0f%%\n",
                      static_cast<long long>(row.population), runs_column,
                      row.mean_parallel_time, row.stddev_parallel_time,
                      100.0 * row.correct_fraction);
        out += line;
    }
    return out;
}

/// convergence_sweep's trials one at a time through run_input, with the
/// sweep's per-(population, repetition) seeding, aggregated into rows.
std::vector<ConvergenceRow> per_trial_rows(const Simulator& simulator, AgentCount eta,
                                           const std::vector<AgentCount>& populations,
                                           std::uint64_t runs, std::uint64_t seed,
                                           Tracer& tracer, std::uint64_t& interactions) {
    std::vector<ConvergenceRow> rows;
    for (const AgentCount population : populations) {
        RunningStats time_stats;
        std::uint64_t converged = 0, correct = 0;
        for (std::uint64_t r = 0; r < runs; ++r) {
            Rng rng(seed ^ (static_cast<std::uint64_t>(population) << 20) ^ r);
            const SimulationResult result = traced(
                tracer, "sim.run_input", [&] { return simulator.run_input(population, rng); });
            interactions += result.interactions;
            if (result.converged) {
                ++converged;
                time_stats.add(result.parallel_time);
            }
            if (result.output && *result.output == (population >= eta ? 1 : 0)) ++correct;
        }
        ConvergenceRow row;
        row.population = population;
        row.runs = runs;
        row.converged_runs = converged;
        row.mean_parallel_time = time_stats.mean();
        row.stddev_parallel_time = time_stats.stddev();
        row.max_parallel_time = time_stats.max();
        row.correct_fraction =
            runs == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(runs);
        rows.push_back(row);
    }
    return rows;
}

std::string protocol_counts(const Protocol& protocol) {
    return JsonObject()
        .count("core.states", protocol.num_states())
        .count("core.transitions", protocol.num_transitions())
        .count("core.rule_table_bytes", protocol.rule_table_bytes())
        .render();
}

/// Runs `replay` with spans off, on, and off again, and prints the traced
/// outputs, the span summary and the tracing overhead: traced minus bare
/// time of the same calls, the bare time averaged over the passes before
/// and after so warm-up and drift cancel.  Spans named in `traced_only`
/// are calls the bare passes skip (long single-span library calls, where
/// recording costs nothing measurable); their time is left out.
int run_traced(const std::string& work_dir, const std::function<JsonObject(Tracer&)>& replay,
               const std::vector<std::string_view>& traced_only = {}) {
    const auto bare_pass = [&] {
        Tracer bare(false);
        const auto start = Clock::now();
        replay(bare);
        return seconds_since(start);
    };
    const double bare_before = bare_pass();
    Tracer tracer(true);
    const auto traced_start = Clock::now();
    JsonObject out = replay(tracer);
    const double traced_s = seconds_since(traced_start);
    const double bare_s = 0.5 * (bare_before + bare_pass());
    double skipped_s = 0.0;
    for (const Tracer::Span& span : tracer.spans()) {
        if (std::find(traced_only.begin(), traced_only.end(), std::string_view(span.name)) !=
            traced_only.end())
            skipped_s += span.end - span.start;
    }
    const std::string spans_path = (std::filesystem::path(work_dir) / "spans.json").string();
    tracer.write(spans_path);
    out.num("overhead_s", traced_s - skipped_s - bare_s)
        .raw("spans", tracer.summary())
        .str("spans_file", spans_path);
    std::printf("%s\n", out.render().c_str());
    return 0;
}

int trace_analyze(const std::string& path, const std::string& family, const std::string& param,
                  const std::string& work_dir) {
    const std::string text = read_file(path);
    return run_traced(work_dir, [&](Tracer& tracer) {
        const std::vector<std::string> params{param};
        const Protocol built = traced(tracer, "protocols.build_family",
                                      [&] { return protocols::build_family(family, params); });
        std::vector<ParseWarning> warnings;
        const Protocol protocol =
            traced(tracer, "core.parse", [&] { return parse_protocol(text, &warnings); });
        const analyze::Analysis analysis =
            traced(tracer, "analyze.analyze", [&] { return analyze::analyze_protocol(protocol); });
        const analyze::CheckReport self_check = traced(tracer, "analyze.check", [&] {
            return analyze::check_certificates(protocol, analysis.certificates);
        });
        const std::string formatted = traced(tracer, "analyze.cert_format", [&] {
            return analyze::format_certificates(analysis.certificates);
        });
        const std::vector<analyze::Certificate> reparsed = traced(
            tracer, "analyze.cert_parse", [&] { return analyze::parse_certificates(formatted); });
        const analyze::CheckReport external = traced(tracer, "analyze.check", [&] {
            return analyze::check_certificates(protocol, reparsed);
        });
        std::size_t unreachable = 0, dead = 0;
        for (const bool u : analysis.unreachable) unreachable += u;
        for (const bool d : analysis.dead) dead += d;
        const std::string cert_path =
            (std::filesystem::path(work_dir) / "replay.cert").string();
        std::ofstream(cert_path) << formatted;
        return JsonObject()
            .raw("counts", protocol_counts(protocol))
            .count("analyze.certificates", analysis.certificates.size())
            .count("file_bytes", text.size())
            .count("unreachable", unreachable)
            .count("dead", dead)
            .count("warnings", warnings.size())
            .raw("checks_ok", self_check.ok && external.ok ? "true" : "false")
            .raw("family_matches",
                 format_protocol(built) == format_protocol(protocol) ? "true" : "false")
            .str("cert_file", cert_path);
    });
}

int trace_longrun(const std::string& path, AgentCount population, std::uint64_t budget,
                  std::uint64_t seed, std::uint64_t every, const std::string& work_dir) {
    const std::string text = read_file(path);
    return run_traced(work_dir, [&](Tracer& tracer) {
        const std::string dir = (std::filesystem::path(work_dir) /
                                 (tracer.enabled() ? "ckpt-traced" : "ckpt-bare"))
                                    .string();
        std::filesystem::remove_all(dir);
        LongrunTotals totals;
        const std::string first =
            longrun_leg(text, population, budget / 2, seed, every, dir, false, tracer, totals);
        const std::string second =
            longrun_leg(text, population, budget, seed, every, dir, true, tracer, totals);
        const Protocol protocol = parse_protocol(text);
        return JsonObject()
            .raw("counts", protocol_counts(protocol))
            .str("first_leg", first)
            .str("second_leg", second)
            .count("sim.interactions", totals.interactions)
            .count("sim.fired", totals.fired)
            .count("sim.restarts", totals.restarts)
            .count("checkpoint.writes", totals.writes)
            .count("checkpoint.bytes", totals.bytes)
            .count("checkpoint.every", every);
    });
}

int trace_sweep(const std::string& path, AgentCount eta, const std::vector<AgentCount>& populations,
                std::uint64_t runs, std::uint64_t seed, const std::string& work_dir) {
    const std::string text = read_file(path);
    return run_traced(work_dir, [&](Tracer& tracer) {
        const Protocol protocol = traced(tracer, "core.parse", [&] { return parse_protocol(text); });
        const auto expected = [eta](AgentCount i) { return i >= eta ? 1 : 0; };
        JsonObject rows;
        const std::pair<unsigned, const char*> sweeps[] = {
            {1, "experiment.sweep.w1"}, {2, "experiment.sweep.w2"}, {4, "experiment.sweep.w4"}};
        for (const auto& [workers, span_name] : sweeps) {
            if (!tracer.enabled()) break;
            ConvergenceSweepOptions options;
            options.runs_per_size = runs;
            options.seed = seed;
            options.parallelism = workers;
            const std::vector<ConvergenceRow> result = traced(tracer, span_name, [&] {
                return convergence_sweep(protocol, populations, expected, options);
            });
            rows.str("w" + std::to_string(workers), format_rows(result));
        }
        const std::optional<Simulator> built = traced(
            tracer, "sim.simulator_ctor", [&] { return std::optional<Simulator>(protocol); });
        std::uint64_t interactions = 0;
        rows.str("per_trial",
                 format_rows(per_trial_rows(*built, eta, populations, runs, seed, tracer,
                                            interactions)));
        return JsonObject()
            .raw("counts", protocol_counts(protocol))
            .raw("rows", rows.render())
            .count("sim.interactions", interactions)
            .count("trials", populations.size() * runs);
    }, {"experiment.sweep.w1", "experiment.sweep.w2", "experiment.sweep.w4"});
}

int trace_bb(std::uint64_t seed, std::uint64_t samples, const std::string& work_dir) {
    return run_traced(work_dir, [&](Tracer& tracer) {
        const search::SearchOutcome outcome = traced(tracer, "search.busy_beaver_search", [&] {
            return search::busy_beaver_search(kBusyBeaverStates, bb_options(seed, samples));
        });
        const StageCounts stages = bb_stage_replica(seed, samples, tracer);
        std::string histogram = "[";
        for (const auto& [eta, count] : stages.histogram) {
            if (histogram.size() > 1) histogram += ", ";
            histogram += "[" + std::to_string(eta) + ", " + std::to_string(count) + "]";
        }
        histogram += "]";
        return JsonObject()
            .raw("outcome", outcome_json(outcome))
            .raw("stages", JsonObject()
                               .count("enumerated", stages.enumerated)
                               .count("canonical", stages.canonical)
                               .count("static_refuted", stages.static_refuted)
                               .count("screened_out", stages.screened_out)
                               .count("exact_verified", stages.exact_verified)
                               .count("budget_skipped", stages.budget_skipped)
                               .count("threshold_protocols", stages.threshold_protocols)
                               .raw("eta_histogram", histogram)
                               .render());
    });
}

// --- untimed-by-the-CLI commands --------------------------------------------

int info() {
#ifdef NDEBUG
    const bool assertions = false;
#else
    const bool assertions = true;
#endif
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = __VERSION__;
#endif
    std::printf("%s\n", JsonObject()
                            .count("hardware_concurrency", std::thread::hardware_concurrency())
                            .str("compiler", compiler)
                            .raw("assertions", assertions ? "true" : "false")
                            .render()
                            .c_str());
    return 0;
}

/// setup_s of a file-driven workload: parse_protocol on the file's text,
/// plus the Simulator constructor when the workload simulates.  The file
/// is read once, outside the timing; destruction is untimed as well.
int setup(const std::string& path, bool simulate, std::uint64_t min_reps, double min_seconds) {
    const std::string text = read_file(path);
    const std::vector<double> times = repeat_timed(min_reps, min_seconds, [&] {
        std::optional<Protocol> protocol;
        std::optional<Simulator> simulator;
        const auto start = Clock::now();
        protocol.emplace(parse_protocol(text));
        if (simulate) simulator.emplace(*protocol);
        return seconds_since(start);
    });
    std::printf("%s\n", JsonObject().raw("setup_s", json_list(times)).render().c_str());
    return 0;
}

/// setup_s of bb_sampled, which loads no file: the per-candidate set-up of
/// the layers the search drives — building the Protocol, a Verifier and a
/// Simulator for every canonical candidate of the seeded stream, without
/// running any of them.  Canonicity is decided once, untimed.
int setup_bb(std::uint64_t seed, std::uint64_t samples, std::uint64_t min_reps,
             double min_seconds) {
    std::vector<Encoding> canonical;
    Rng rng(seed);
    for (std::uint64_t trial = 0; trial < samples; ++trial) {
        Encoding encoding = draw_candidate(kBusyBeaverStates, rng);
        if (is_canonical(encoding)) canonical.push_back(std::move(encoding));
    }
    const std::vector<double> times = repeat_timed(min_reps, min_seconds, [&] {
        double elapsed = 0.0;
        for (const Encoding& encoding : canonical) {
            const auto start = Clock::now();
            const Protocol protocol = build_protocol(encoding);
            const Verifier verifier(protocol);
            const Simulator simulator(protocol);
            elapsed += seconds_since(start);
        }
        return elapsed;
    });
    std::printf("%s\n", JsonObject()
                            .raw("setup_s", json_list(times))
                            .count("candidates", canonical.size())
                            .render()
                            .c_str());
    return 0;
}

/// The bb_sampled workload itself: one sampled busy_beaver_search, as a
/// user's program would call it.
int bb(std::uint64_t seed, std::uint64_t samples) {
    const auto start = Clock::now();
    const search::SearchOutcome outcome =
        search::busy_beaver_search(kBusyBeaverStates, bb_options(seed, samples));
    const double search_s = seconds_since(start);
    std::printf("%s\n", JsonObject()
                            .raw("outcome", outcome_json(outcome))
                            .num("search_s", search_s)
                            .render()
                            .c_str());
    return 0;
}

int dispatch(const std::vector<std::string>& a) {
    const auto need = [&](std::size_t count) {
        if (a.size() != count) throw std::invalid_argument("wrong argument count for " + a[0]);
    };
    const auto u64 = [&](std::size_t i) { return parse_u64(a[i].c_str()); };
    if (a.empty()) throw std::invalid_argument("missing command");
    if (a[0] == "info") return info();
    if (a[0] == "setup") {
        need(5);
        return setup(a[1], u64(2) != 0, u64(3), parse_double(a[4].c_str()));
    }
    if (a[0] == "setup-bb") {
        need(5);
        return setup_bb(u64(1), u64(2), u64(3), parse_double(a[4].c_str()));
    }
    if (a[0] == "bb") {
        need(3);
        return bb(u64(1), u64(2));
    }
    if (a[0] == "trace" && a.size() >= 2) {
        if (a[1] == "analyze") {
            need(6);
            return trace_analyze(a[2], a[3], a[4], a[5]);
        }
        if (a[1] == "longrun") {
            need(8);
            return trace_longrun(a[2], static_cast<AgentCount>(u64(3)), u64(4), u64(5), u64(6),
                                 a[7]);
        }
        if (a[1] == "sweep") {
            need(8);
            return trace_sweep(a[2], static_cast<AgentCount>(u64(3)), parse_list(a[4]), u64(5),
                               u64(6), a[7]);
        }
        if (a[1] == "bb") {
            need(5);
            return trace_bb(u64(2), u64(3), a[4]);
        }
    }
    throw std::invalid_argument("unknown command");
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return dispatch(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
