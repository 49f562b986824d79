#!/usr/bin/env python3
"""End-to-end benchmark of the four shipped workloads, with per-layer attribution.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed n] [--seconds s]   every workload, one table
    python3 perfbench/run.py --self-check        toy sizes, every workload traced and untraced
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl                  (results from --out)

Run from the repository root.  The first run builds the library, protocol_tool
and perfbench_driver into .bench_build/ (Release).  Workload inputs are
generated in set-up, outside the timing, under .perfbench_work/.

--trace 0 times the workload the way users run it, in a closed loop: one
process at a time, the next starting when the previous exits, until --seconds
have been measured.  --trace 1 runs the workload once untraced and replays it
through the public API under perfbench_driver's span recorder (see README.md).
The last stdout line is the JSON result; the line before it holds the host,
the build and the per-sample detail.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
PROCESS_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 165.0

# Workload sizes.  `full` is what BENCHMARK.json measures; `toy` is the
# self-check, seconds end to end.
SIZES = {
    "full": {
        "analyze_n": 13,
        "longrun_population": 262144,
        "longrun_budget": 100_000_000,
        "checkpoint_every": 1_000_000,
        "sweep_eta": 1000,
        "sweep_populations": "1250,5000,20000",
        "sweep_runs": 16,
        "bb_samples": 10000,
        "min_samples": 3,
    },
    "toy": {
        "analyze_n": 6,
        "longrun_population": 4096,
        "longrun_budget": 4_000_000,
        "checkpoint_every": 100_000,
        "sweep_eta": 50,
        "sweep_populations": "40,80",
        "sweep_runs": 4,
        "bb_samples": 2000,
        "min_samples": 1,
    },
}

# Outputs pinned at the default seed and full size.
PINNED = {
    "analyze_cert_sha256": "778eb62ca67dddc3ee193e94e61d9a029d01c4637a75267ad18ba210dc82cd6c",
    "longrun_lines": [
        "longrun: interactions=50000000 fired=3127495 restarts=6 rng=ee75ca59cdb89562 "
        "digest=b1c3659db64cec74",
        "longrun: interactions=100000000 fired=6769432 restarts=13 rng=ff6a52fae0b2e757 "
        "digest=192f278877ec8f07",
    ],
    "sweep_rows": (
        "population      runs    mean par.time           stddev   correct\n"
        "      1250     16/16           1010.1             33.6      100%\n"
        "      5000     16/16            572.2             15.5      100%\n"
        "     20000     16/16            523.3              9.3      100%\n"
    ),
    "bb_outcome": {
        "enumerated": 10000, "canonical": 1703, "static_refuted": 115, "screened_out": 80,
        "budget_skipped": 0, "threshold_protocols": 291, "best_eta": 4,
        "eta_histogram": [[2, 290], [4, 1]],
        "best_protocol_text_sha256":
            "de6186b9a1661ce97103da76f3c3f2e819e1df037ec3ca9bf221fae7eec3d7db",
    },
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


# --- processes ----------------------------------------------------------------


class Proc:
    """One finished child process: its exit code, output and resource use."""

    def __init__(self, argv, cwd, timeout):
        out_path = WORK / "stdout.txt"
        err_path = WORK / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            killed = threading.Event()

            def kill():
                killed.set()
                child.kill()

            killer = threading.Timer(timeout, kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            self.wall_s = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        self.timed_out = killed.is_set()
        self.code = child.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")

    def json(self):
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


TOOL = str(BUILD / "ppsc" / "protocol_tool")
DRIVER = str(BUILD / "perfbench_driver")


def run_checked(argv, cwd, timeout=PROCESS_TIMEOUT_S):
    proc = Proc(argv, cwd, timeout)
    if proc.code != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.code}: {proc.stderr.strip()[-400:]}")
    return proc


def build():
    for needed in ("CMakeLists.txt", "src", "examples/protocol_tool.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError(f"run from the repository root: {needed} is missing")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "protocol_tool",
                    "perfbench_driver"], check=True, stdout=sys.stderr, stderr=sys.stderr)


# --- statistics ---------------------------------------------------------------


def high_percentile(values):
    """The highest percentile with at least ten samples beyond it, or the max
    (labelled as such) when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


# --- workloads ----------------------------------------------------------------


class Sample:
    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.work = 0
        self.failures = []
        self.outputs = {}

    def add(self, proc):
        self.wall_s += proc.wall_s
        self.cpu_s += proc.cpu_s
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        if proc.timed_out:
            self.failures.append(f"timeout after {proc.wall_s:.1f} s")
        elif proc.code != 0:
            self.failures.append(f"exit {proc.code}: {proc.stderr.strip()[-200:]}")
        return proc


def require(sample, condition, message):
    if not condition:
        sample.failures.append(message)


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, size, seed, work_dir):
        self.size = SIZES[size]
        self.full = size == "full"
        self.seed = seed
        self.dir = work_dir
        self.file = None
        self.reference = None  # first sample's output; every later one must match

    def pinned(self):
        return self.full and self.seed == DEFAULT_SEED

    def prepare(self):
        """Writes the workload's input files (set-up, untimed)."""

    def family(self, file_name, *params):
        proc = run_checked([TOOL, "family", *map(str, params)], self.dir)
        (self.dir / file_name).write_text(proc.stdout)
        return file_name


class AnalyzeFlagship(Workload):
    name = "analyze_flagship"
    work_unit = "transitions"

    def prepare(self):
        self.file = self.family("double_exp.pp", "double_exp", self.size["analyze_n"])
        text = (self.dir / self.file).read_text()
        self.transitions = sum(1 for line in text.splitlines() if line.startswith("trans"))

    def setup_argv(self):
        return [DRIVER, "setup", self.file, "0", "1", "0"]

    def run_once(self):
        sample = Sample()
        cert = self.dir / "certs.txt"
        if cert.exists():
            cert.unlink()
        proc = sample.add(Proc([TOOL, "analyze", self.file, "--emit-certificates",
                                "certs.txt", "--check", "certs.txt"], self.dir,
                               PROCESS_TIMEOUT_S))
        out = proc.stdout
        require(sample, "checker accepted all" in out, "self-check did not accept all")
        require(sample, "all valid" in out, "--check did not report all valid")
        require(sample, "analyze: 0 unreachable states, 0 dead transitions" in out,
                "unexpected unreachable states or dead transitions")
        require(sample, cert.exists(), "no certificate file written")
        text = cert.read_text() if cert.exists() else ""
        sample.outputs["cert"] = text
        if self.pinned():
            require(sample, sha256_text(text) == PINNED["analyze_cert_sha256"],
                    "certificate text differs from the pinned one")
        match = re.search(r"certificates: (\d+) emitted", out)
        require(sample, match is not None and int(match.group(1)) >= 1, "no certificates")
        sample.work = self.transitions
        return sample

    def trace_argv(self):
        return [DRIVER, "trace", "analyze", self.file, "double_exp",
                str(self.size["analyze_n"]), "."]

    def trace_check(self, sample, replay):
        require(sample, replay["checks_ok"], "replay: checker rejected a certificate")
        require(sample, replay["family_matches"], "replay: parsed file differs from the family")
        require(sample, replay["unreachable"] == 0 and replay["dead"] == 0,
                "replay: unreachable states or dead transitions")
        replay_cert = (self.dir / replay["cert_file"]).read_text()
        require(sample, replay_cert == sample.outputs.get("cert"),
                "replay: certificate text differs from the CLI's")

    def cli_layer_spans(self):
        return ["core.parse", "analyze.analyze", "analyze.check", "analyze.cert_format",
                "analyze.cert_parse"]


class LongrunCkpt(Workload):
    name = "longrun_ckpt"
    work_unit = "fired"
    LINE = re.compile(r"longrun: interactions=(\d+) fired=(\d+) restarts=(\d+) "
                      r"rng=[0-9a-f]{16} digest=[0-9a-f]{16}")

    def prepare(self):
        self.file = self.family("binary6.pp", "binary", 6)

    def setup_argv(self):
        return [DRIVER, "setup", self.file, "1", "5", "0.06"]

    def legs(self):
        budget = self.size["longrun_budget"]
        common = [str(self.size["longrun_population"])]
        flags = ["--checkpoint-dir", "ckpt", "--checkpoint-every",
                 str(self.size["checkpoint_every"])]
        first = [TOOL, "longrun", self.file, *common, str(budget // 2), str(self.seed), *flags]
        second = [TOOL, "longrun", self.file, *common, str(budget), str(self.seed), *flags,
                  "--resume"]
        return first, second

    def run_once(self):
        sample = Sample()
        shutil.rmtree(self.dir / "ckpt", ignore_errors=True)
        budget = self.size["longrun_budget"]
        lines = []
        for argv, expect in zip(self.legs(), (budget // 2, budget)):
            proc = sample.add(Proc(argv, self.dir, PROCESS_TIMEOUT_S))
            match = self.LINE.search(proc.stdout)
            require(sample, match is not None and int(match.group(1)) == expect,
                    f"leg did not end at {expect} interactions")
            lines.append(match.group(0) if match else "")
        require(sample, "resumed from" in proc.stdout,
                "resume leg did not resume from a checkpoint")
        match = self.LINE.search(lines[1])
        fired = int(match.group(2)) if match else 0
        sample.work = fired
        sample.outputs["lines"] = lines
        # Same seed, same program: every repetition prints the same lines.
        if self.reference is None:
            self.reference = lines
        require(sample, lines == self.reference, "digest differs between repetitions")
        if self.pinned():
            require(sample, lines == PINNED["longrun_lines"],
                    "digest differs from the pinned default-seed digest")
        return sample

    def trace_argv(self):
        return [DRIVER, "trace", "longrun", self.file,
                str(self.size["longrun_population"]), str(self.size["longrun_budget"]),
                str(self.seed), str(self.size["checkpoint_every"]), "."]

    def trace_check(self, sample, replay):
        lines = sample.outputs.get("lines", ["", ""])
        require(sample, replay["first_leg"] == lines[0], "replay: first-leg digest differs")
        require(sample, replay["second_leg"] == lines[1], "replay: resumed digest differs")

    def cli_layer_spans(self):
        return ["core.parse", "sim.simulator_ctor", "sim.run_batch", "checkpoint.write",
                "checkpoint.load"]


class SweepLeader(Workload):
    name = "sweep_leader"
    work_unit = "trials"

    def prepare(self):
        self.file = self.family("leader.pp", "leader", self.size["sweep_eta"])
        self.populations = self.size["sweep_populations"].split(",")
        self.trials = len(self.populations) * self.size["sweep_runs"]

    def setup_argv(self):
        return [DRIVER, "setup", self.file, "1", "5", "0.06"]

    def run_once(self):
        sample = Sample()
        runs = self.size["sweep_runs"]
        proc = sample.add(Proc([TOOL, "sweep", self.file, str(self.size["sweep_eta"]),
                                self.size["sweep_populations"], str(runs), str(self.seed)],
                               self.dir, PROCESS_TIMEOUT_S))
        rows = proc.stdout
        body = rows.strip().splitlines()[1:]
        require(sample, len(body) == len(self.populations), "wrong number of sweep rows")
        for row in body:
            fields = row.split()
            require(sample, fields[1] == f"{runs}/{runs}" and fields[-1] == "100%",
                    f"sweep row not fully converged and correct: {row.strip()}")
        if self.reference is None:
            self.reference = rows
        require(sample, rows == self.reference, "sweep rows differ between repetitions")
        if self.pinned():
            require(sample, rows == PINNED["sweep_rows"],
                    "sweep rows differ from the pinned default-seed rows")
        sample.outputs["rows"] = rows
        sample.work = self.trials
        return sample

    def trace_argv(self):
        return [DRIVER, "trace", "sweep", self.file, str(self.size["sweep_eta"]),
                self.size["sweep_populations"], str(self.size["sweep_runs"]), str(self.seed), "."]

    def trace_check(self, sample, replay):
        for key, rows in replay["rows"].items():
            require(sample, rows == sample.outputs.get("rows"),
                    f"replay: rows of {key} differ from the CLI's")

    def cli_layer_spans(self):
        return ["core.parse", f"experiment.sweep.w{self.cli_workers()}"]

    def cli_workers(self):
        workers = min(self.info["hardware_concurrency"] or 1, self.trials)
        return min((1, 2, 4), key=lambda w: abs(w - workers))


class BbSampled(Workload):
    name = "bb_sampled"
    work_unit = "candidates"

    def setup_argv(self):
        return [DRIVER, "setup-bb", str(self.seed), str(self.size["bb_samples"]), "5",
                "0.06"]

    def run_once(self):
        sample = Sample()
        proc = sample.add(Proc([DRIVER, "bb", str(self.seed), str(self.size["bb_samples"])],
                               self.dir, PROCESS_TIMEOUT_S))
        outcome = proc.json().get("outcome", {}) if proc.code == 0 else {}
        self.check_outcome(sample, outcome)
        if self.reference is None:
            self.reference = outcome
        require(sample, outcome == self.reference, "outcome differs between repetitions")
        sample.outputs["outcome"] = outcome
        sample.work = outcome.get("enumerated", 0)
        return sample

    def check_outcome(self, sample, outcome):
        if not outcome:
            sample.failures.append("no SearchOutcome")
            return
        histogram_total = sum(count for _, count in outcome["eta_histogram"])
        require(sample, histogram_total == outcome["threshold_protocols"],
                "histogram does not sum to threshold_protocols")
        require(sample, outcome["enumerated"] == self.size["bb_samples"],
                "enumerated differs from the sample count")
        stage_floor = (outcome["static_refuted"] + outcome["screened_out"] +
                       outcome["budget_skipped"] + outcome["threshold_protocols"])
        require(sample, stage_floor <= outcome["canonical"] <= outcome["enumerated"],
                "stage counts exceed canonical")
        if self.pinned():
            pinned = dict(PINNED["bb_outcome"])
            pinned_text = pinned.pop("best_protocol_text_sha256")
            got = {k: v for k, v in outcome.items() if k != "best_protocol_text"}
            require(sample, got == pinned and
                    sha256_text(outcome["best_protocol_text"]) == pinned_text,
                    "SearchOutcome differs from the pinned default-seed outcome")

    def trace_argv(self):
        return [DRIVER, "trace", "bb", str(self.seed), str(self.size["bb_samples"]), "."]

    def trace_check(self, sample, replay):
        outcome, stages = replay["outcome"], replay["stages"]
        require(sample, outcome == sample.outputs.get("outcome"),
                "replay: traced SearchOutcome differs from the untraced one")
        for key in ("enumerated", "canonical", "static_refuted", "screened_out",
                    "budget_skipped", "threshold_protocols", "eta_histogram"):
            require(sample, stages[key] == outcome[key], f"stage replica: {key} differs")
        require(sample, stages["static_refuted"] + stages["screened_out"] +
                stages["exact_verified"] == stages["canonical"],
                "stage replica: stage counts do not add up to canonical")

    def cli_layer_spans(self):
        return []


WORKLOADS = {w.name: w for w in (AnalyzeFlagship, LongrunCkpt, SweepLeader, BbSampled)}


# --- host and build -----------------------------------------------------------


def host_and_build(info):
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build_type = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
        build_type = match.group(1) if match else build_type
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    sources = sorted(p for d in ("src", "examples", "perfbench") for p in (ROOT / d).rglob("*")
                     if p.is_file() and "__pycache__" not in p.parts)
    for path in [ROOT / "CMakeLists.txt", *sources]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": info["hardware_concurrency"],
        "cpu_model": cpu_model,
        "compiler": info["compiler"],
        "build_type": build_type,
        "assertions": info["assertions"],
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# --- one run ------------------------------------------------------------------


def prepare(workload_cls, size, seed):
    work_dir = WORK / f"{workload_cls.name}-{size}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workload_cls(size, seed, work_dir)
    workload.info = run_checked([DRIVER, "info"], ROOT).json()
    workload.prepare()
    return workload


def untraced(workload, seconds, started):
    """Closed loop: one process (or longrun leg pair) at a time for `seconds`.

    Timings are gated as the run's fastest sample (rates as its best one):
    interference from other tenants of a shared host only ever slows a
    sample down, and across runs the minimum moved less than the median.
    The median and the high percentile go into the detail line."""
    # Set-up is re-measured at nine points spread over the run, so it sees
    # the same interference the samples do.
    setup = []
    marks = [i / 8 for i in range(8)]

    def measure_setup():
        setup.extend(run_checked(workload.setup_argv(), workload.dir).json()["setup_s"])

    samples = []
    measured = 0.0
    while len(samples) < workload.size["min_samples"] or measured < seconds:
        if samples and time.monotonic() - started > RUN_DEADLINE_S - 2 * samples[-1].wall_s:
            break
        if marks and measured >= marks[0] * seconds:
            marks.pop(0)
            measure_setup()
        sample = workload.run_once()
        samples.append(sample)
        measured += sample.wall_s
    measure_setup()
    walls = [s.wall_s for s in samples]
    cpus = [s.cpu_s for s in samples]
    rates = [s.work / s.wall_s for s in samples]
    metrics = {
        "wall_s": (min(walls), "s"),
        "setup_s": (min(setup), "s"),
        "cpu_s": (min(cpus), "s"),
        "peak_rss_mb": (median([s.rss_mb for s in samples]), "MiB"),
        "work_per_s": (max(rates), "1/s"),
    }
    named_rates = {f"{workload.work_unit}_per_s": max(rates)}
    if isinstance(workload, LongrunCkpt):
        named_rates["interactions_per_s"] = workload.size["longrun_budget"] / min(walls)
    failed = sum(1 for s in samples if s.failures)

    def spread(values):
        label, high = high_percentile(values)
        return {"min": min(values), "median": median(values), label: high}

    detail = {
        "samples": len(samples),
        "wall_s": {**spread(walls), "values": walls},
        "cpu_s": spread(cpus),
        "setup_s": {**spread(setup), "reps": len(setup)},
        "rates": named_rates,
        "error_rate": failed / len(samples),
        "failures": sorted({f for s in samples for f in s.failures}),
    }
    return metrics, len(samples), failed, detail


def traced_run(workload):
    """Three untraced runs of the workload (the fastest is the wall time the
    layers are attributed against), then its traced replay; per-layer
    metrics from the replay's spans and counts."""
    samples = [workload.run_once() for _ in range(3)]
    sample = min(samples, key=lambda s: s.wall_s)
    sample.failures = [f for s in samples for f in s.failures]
    replay_proc = Proc(workload.trace_argv(), workload.dir, PROCESS_TIMEOUT_S)
    if replay_proc.code != 0:
        raise BenchError(f"traced replay failed: {replay_proc.stderr.strip()[-400:]}")
    replay = replay_proc.json()
    workload.trace_check(sample, replay)
    return layer_metrics(workload, sample, replay), sample


def layer_metrics(workload, sample, replay):
    spans = replay["spans"]
    counts = replay.get("counts", {})

    def span(name, field="total_s"):
        return spans.get(name, {}).get(field, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    parse_s = span("core.parse")
    parse_count = spans.get("core.parse", {}).get("count", 0)
    file_bytes = (workload.dir / workload.file).stat().st_size if workload.file else 0
    m["core.parse_s"] = parse_s
    m["core.parse_mb_per_s"] = ratio(file_bytes * parse_count / 1e6, parse_s)
    m["protocols.build_family_s"] = span("protocols.build_family")
    for key in ("core.states", "core.transitions", "core.rule_table_bytes"):
        m[key] = counts.get(key, 0)
    m["analyze.analyze_s"] = span("analyze.analyze")
    m["analyze.check_s"] = span("analyze.check")
    m["analyze.cert_format_s"] = span("analyze.cert_format")
    m["analyze.cert_parse_s"] = span("analyze.cert_parse")
    m["analyze.certificates"] = replay.get("analyze.certificates", 0)
    m["analyze.static_screen_s"] = span("analyze.static_screen")
    layer_s = sum(span(name, "self_s") for name in workload.cli_layer_spans())
    m["protocol_tool.unattributed_s"] = sample.wall_s - layer_s if layer_s else 0.0

    fired = replay.get("sim.fired", 0)
    interactions = replay.get("sim.interactions", 0)
    run_batch_self = span("sim.run_batch", "self_s")
    run_input = span("sim.run_input")
    m["sim.simulator_ctor_s"] = span("sim.simulator_ctor")
    m["sim.run_batch_s"] = run_batch_self
    m["sim.fired_per_busy_s"] = ratio(fired, run_batch_self)
    m["sim.fired"] = fired
    m["sim.interactions"] = interactions
    m["sim.restarts"] = replay.get("sim.restarts", 0)
    m["sim.run_s.p50"] = span("sim.run_input", "p50_s")
    m["sim.run_s.max"] = span("sim.run_input", "max_s")
    m["sim.run_interactions_per_busy_s"] = ratio(interactions, run_input)

    writes = replay.get("checkpoint.writes", 0)
    every = replay.get("checkpoint.every", 0)
    m["checkpoint.writes"] = writes
    m["checkpoint.bytes"] = replay.get("checkpoint.bytes", 0)
    m["checkpoint.write_s"] = span("checkpoint.write")
    m["checkpoint.write_max_ms"] = 1000.0 * span("checkpoint.write", "max_s")
    m["checkpoint.load_s"] = span("checkpoint.load")
    m["checkpoint.cadence_ratio"] = ratio(writes, interactions // every if every else 0)

    w1, w2, w4 = (span(f"experiment.sweep.w{k}") for k in (1, 2, 4))
    m["experiment.sweep_s.w1"] = w1
    m["experiment.sweep_s.w2"] = w2
    m["experiment.sweep_s.w4"] = w4
    m["experiment.efficiency.w4"] = ratio(w1, 4 * w4)
    m["experiment.idle_fraction.w4"] = 1.0 - ratio(run_input, 4 * w4) if w4 else 0.0

    stages = replay.get("stages", {})
    canonical = stages.get("canonical", 0)
    static_refuted = stages.get("static_refuted", 0)
    for key in ("enumerated", "canonical", "static_refuted", "screened_out", "exact_verified",
                "threshold_protocols", "budget_skipped"):
        m[f"search.{key}"] = stages.get(key, 0)
    m["search.static_yield"] = ratio(static_refuted, canonical)
    m["search.screen_yield"] = ratio(stages.get("screened_out", 0), canonical - static_refuted)
    m["search.canonical_s"] = span("search.canonical")
    m["verify.screen_s"] = span("verify.screen")
    m["verify.exact_s"] = span("verify.exact")
    m["trace.overhead_s"] = replay["overhead_s"]
    return m


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(workload_name, seed, seconds, trace, size="full"):
    started = time.monotonic()
    end_to_end, per_layer = declared_metrics()
    workload = prepare(WORKLOADS[workload_name], size, seed)
    header = {"workload": workload_name, "seed": seed, "trace": trace, "size": size,
              "host": host_and_build(workload.info)}
    if isinstance(workload, SweepLeader):
        header["host"]["sweep_workers"] = min(workload.info["hardware_concurrency"] or 1,
                                              workload.trials)
    if trace:
        values, sample = traced_run(workload)
        metrics = {name: {"value": values[name], "unit": per_layer[name]} for name in per_layer}
        attempted, failed = 1, 1 if sample.failures else 0
        header["failures"] = sample.failures
        header["untraced_wall_s"] = sample.wall_s
    else:
        values, attempted, failed, detail = untraced(workload, seconds, started)
        metrics = {}
        for name, unit in end_to_end.items():
            value, own_unit = values[name]
            if own_unit != unit:
                raise BenchError(f"{name}: unit {own_unit} differs from BENCHMARK.json's {unit}")
            metrics[name] = {"value": value, "unit": unit}
        header.update(detail)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return header, result


def print_result(header, result, out_path):
    print(json.dumps({"perfbench": header}))
    if out_path:
        with open(out_path, "a") as out:
            out.write(json.dumps({"header": header, "result": result}) + "\n")
    print(json.dumps(result), flush=True)


def self_check():
    """Every workload at toy size, untraced and traced; every metric name and
    unit checked against BENCHMARK.json."""
    end_to_end, per_layer = declared_metrics()
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            start = time.monotonic()
            header, result = run(name, DEFAULT_SEED, 1, trace, size="toy")
            expected = per_layer if trace else end_to_end
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {header.get('failures')}")
            print(f"self-check {name:17s} trace={trace} {'ok' if result['correct'] else 'FAILED'} "
                  f"({time.monotonic() - start:.1f} s)", file=sys.stderr)
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result, with its detail, to this JSONL file")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload or --self-check is required")
    try:
        build()
        WORK.mkdir(exist_ok=True)
        if args.self_check:
            return self_check()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        table = []
        for name in names:
            header, result = run(name, args.seed, args.seconds, args.trace)
            print_result(header, result, args.out)
            table.append((name, result))
        if args.workload == "all":
            for name, result in table:
                print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
                      f"error_rate={result['failed'] / result['attempted']:.3f}")
                for metric, entry in result["metrics"].items():
                    print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
        return 0
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
