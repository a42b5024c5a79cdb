"""Benchmark of the fink library and CLI; stdlib only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the library is imported from the
checkout's ``src/``.  One process, one thread, a closed loop with one
client.  Each op's answer is checked.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, measured with
  tracing off.  A run repeats whole rounds of the workload's ops, at least
  one.  Ops are timed in CPU time and rescaled to a fixed host speed with
  a reference kernel run next to and during each op (``reference.py``);
  an op's cost is its median over the rounds.
* ``--trace 1``: the per-layer metrics.  The run first measures whole
  rounds untraced, then wraps the library's public functions (see
  ``spans.py``) and measures whole rounds again; the ratio of the two
  medians is ``trace.overhead_ratio``.  Per-function figures are per op.

Every result is also appended, with the machine and the inputs, to
``perfbench/out/results.jsonl``; ``perfbench/compare.py`` compares two such
files.  Spans of a traced run go to ``perfbench/out/spans-*.tsv.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from reference import REFERENCE_MS, Sampler, slowness  # noqa: E402
from spans import COUNTERS, LAYERS, Tracer, span_names  # noqa: E402
from workloads import WORKLOADS, make_round  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 1
REFERENCE_RUNS = 3  # kernel runs next to an op
SUBPROCESS_REPEATS = 5
REACH_HORIZONS = (201, 2001)


@dataclass
class Context:
    workdir: str
    src: str
    in_process: bool


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def fresh_import():
    """Import ``fink`` from the checkout afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "fink" or n.startswith("fink.")]:
        del sys.modules[name]
    api = importlib.import_module("fink")
    if Path(api.__file__).resolve().parent != SRC / "fink":
        fail(f"imported fink from {api.__file__}, not from {SRC}")
    return api


def load_oracle():
    spec = importlib.util.spec_from_file_location("fink_oracle", ROOT / "tests" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def cpu_seconds():
    """CPU time of this thread plus that of this process's finished children.

    The library is single-threaded and never waits, and ``python -m fink``
    children are waited for, so an op's CPU time is its latency less the
    time the shared host gave this process's vCPU to others.  The thread
    clock, not the process clock: while the sampler's process-wide timer
    is armed, Linux advances the process clock only at scheduler ticks.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def measure(fn, sampler, before):
    """Run ``fn``; return (result or exception, (CPU seconds, seconds at the
    reference speed, wall seconds), host slowness after it).

    ``before`` is the host's slowness measured just before.  The op's
    slowness is the mean of that, the in-op samples and the one after.
    """
    clock = sampler.clock
    sampler.start()
    wall = time.perf_counter()
    start = clock()
    try:
        result = fn()
    except Exception as exc:  # a wrong answer, not a crash of the run
        result = exc
    cpu = clock() - start
    wall = time.perf_counter() - wall
    samples, spent = sampler.stop()
    after = slowness(clock, REFERENCE_RUNS)
    cpu -= spent
    speed = statistics.fmean([before, *samples, after])
    return result, (cpu, cpu / speed, wall - spent), after


def setup(workload, seed, oracle, ctx, repeats):
    """Import plus input generation, ``repeats`` times.

    Returns (api, ops, times): ``times`` are at the reference speed.
    """
    sampler = Sampler(cpu_seconds)
    times = []

    def once():
        api = fresh_import()
        return api, make_round(workload, api, oracle, seed, ctx)

    for _ in range(repeats):
        before = slowness(cpu_seconds, REFERENCE_RUNS)
        result, (_, scaled, _), _ = measure(once, sampler, before)
        if isinstance(result, Exception):
            raise result
        api, ops = result
        times.append(scaled)
    return api, ops, times


def run_rounds(ops, seconds, min_rounds, tracer=None, sample=True):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done.

    ``sample=False`` leaves out the in-op kernel runs, whose time would
    otherwise land in the self time of whatever span they interrupt.
    Returns (rounds, failed); ``rounds[r][i]`` is op i's (CPU seconds,
    seconds at the reference speed, wall seconds) in round r.
    """
    rounds, failed = [], 0
    deadline = time.perf_counter() + seconds
    sampler = Sampler(cpu_seconds, armed=sample)
    before = slowness(cpu_seconds, REFERENCE_RUNS)
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        samples = []
        for op in ops:
            if tracer is not None:
                tracer.op = len(rounds) * len(ops) + len(samples)
            result, times, before = measure(op.run, sampler, before)
            if tracer is not None:
                tracer.op = -1
            samples.append(times)
            if isinstance(result, Exception):
                print(f"op {op.label}: {type(result).__name__}: {result}", file=sys.stderr)
                failed += 1
                continue
            try:
                correct = op.check(result)
            except Exception as exc:  # an answer of the wrong shape
                correct = False
                print(f"op {op.label}: check raised {type(exc).__name__}: {exc}", file=sys.stderr)
            if not correct:
                print(f"op {op.label}: wrong answer", file=sys.stderr)
                failed += 1
        rounds.append(samples)
    return rounds, failed


def op_costs(rounds, which=1):
    """Each op's median over the rounds of a run, in seconds.

    ``which`` picks the figure: 1 at the reference speed, 0 CPU time, 2
    wall time.  Over
    a run the host's speed drifts and jumps; an op's time over the kernel
    next to it follows the op's own cost, and the median over rounds drops
    the executions that straddled a jump.
    """
    return [statistics.median(s[which] for s in column) for column in zip(*rounds)]


def timed_subprocess(argv, env):
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True)
    return time.perf_counter() - start


def startup_costs():
    """Median ``python -c pass`` and ``import fink`` minus it, in ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, imported = [], []
    for _ in range(SUBPROCESS_REPEATS):
        bare.append(timed_subprocess([sys.executable, "-c", "pass"], env))
        imported.append(timed_subprocess([sys.executable, "-c", "import fink"], env))
    startup = statistics.median(bare)
    return startup * 1e3, (statistics.median(imported) - startup) * 1e3


def reach_probe(api):
    """Ladder horizons at which validate_family hits the enumeration cap."""
    members = [api.make_builtin(name, 2) for name in ("example13_P", "example13_Q", "evens")]
    hits = 0
    for horizon in REACH_HORIZONS:
        try:
            api.validate_family(members, tail_index=1, horizon=horizon)
        except api.EnumerationCapExceeded:
            hits += 1
    return hits


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, rounds, failed, setup_times):
    if workload == "cli_oneshot":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    costs = op_costs(rounds)
    attempted = len(rounds) * len(costs)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(len(costs) / sum(costs), "1/s"),
        "op_p50_ms": metric(statistics.median(costs) * 1e3, "ms"),
        "op_p90_ms": metric(statistics.quantiles(costs, n=10, method="inclusive")[8] * 1e3, "ms"),
        "ops_ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }


def plain_figures(rounds, which):
    """The end-to-end latency figures in plain CPU or wall time, for the record."""
    costs = op_costs(rounds, which)
    return {
        "ops_per_s": len(costs) / sum(costs),
        "op_p50_ms": statistics.median(costs) * 1e3,
        "op_p90_ms": statistics.quantiles(costs, n=10, method="inclusive")[8] * 1e3,
    }


def per_layer(tracer, traced, untraced, reach, startup_ms, import_ms):
    ops = len(traced) * len(traced[0])
    calls, self_ns = tracer.aggregate()
    metrics = {}
    for layer in LAYERS:
        names = [name for name in span_names() if name.startswith(layer + ".")]
        for name in names:
            metrics[f"{name}.calls"] = metric(calls[name] / ops, "calls/op")
            metrics[f"{name}.self_ms"] = metric(self_ns[name] / ops / 1e6, "ms/op")
        layer_ns = sum(self_ns[name] for name in names)
        metrics[f"{layer}.self_ms"] = metric(layer_ns / ops / 1e6, "ms/op")
    counters = tracer.counters
    for name in COUNTERS:
        metrics[name] = metric(counters[name] / ops, "count/op")
    combos = counters["span.two_span.combinations"]
    found = counters["span.two_span.common_found"]
    metrics["span.two_span.hit_ratio"] = metric(found / combos if combos else 0.0, "ratio")
    metrics["diagonal.reach.cap_exceeded"] = metric(reach, "count")
    metrics["cli.python_startup_ms"] = metric(startup_ms, "ms")
    metrics["cli.import_ms"] = metric(import_ms, "ms")
    # wall clock, like the spans
    metrics["trace.op_ms"] = metric(
        sum(times[2] for samples in traced for times in samples) / ops * 1e3, "ms/op"
    )
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(op_costs(traced)) / statistics.median(op_costs(untraced)), "ratio"
    )
    return metrics


def machine_and_inputs(args):
    def git_commit():
        # the ceiling keeps git from searching the checkout's parents
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                env=env, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    lines, digest = {}, hashlib.sha256()
    for path in sorted((SRC / "fink").glob("*.py")):
        data = path.read_bytes()
        lines[path.stem] = data.count(b"\n")
        digest.update(path.name.encode() + b"\0" + data)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def check_declared(metrics, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    names = {m["name"]: m["unit"] for m in declared}
    produced = {name: m["unit"] for name, m in metrics.items()}
    if produced != names:
        fail(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(produced) ^ set(names))}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fink" / "__init__.py").is_file():
        fail(f"no fink sources under {SRC}")
    if not (ROOT / "tests" / "oracle.py").is_file():
        fail("tests/oracle.py, the reference the answers are checked against, is missing")
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ctx = Context(str(workdir), str(SRC), in_process=bool(args.trace))
        oracle = load_oracle()
        if args.trace:
            api, ops, _ = setup(args.workload, args.seed, oracle, ctx, 1)
            untraced, failed_untraced = run_rounds(ops, args.seconds / 2, 1, sample=False)
            reach = reach_probe(api)
            tracer = Tracer()
            tracer.install(api)
            rounds, failed = run_rounds(ops, args.seconds / 2, 1, tracer, sample=False)
            startup_ms, import_ms = startup_costs()
            metrics = per_layer(tracer, rounds, untraced, reach, startup_ms, import_ms)
            tracer.write(OUT / f"spans-{args.workload}.tsv.gz")
            failed += failed_untraced
            rounds += untraced
            check_declared(metrics, "per_layer")
        else:
            _, ops, setup_times = setup(args.workload, args.seed, oracle, ctx, SETUP_REPEATS)
            rounds, failed = run_rounds(ops, args.seconds, MIN_ROUNDS)
            metrics = end_to_end(args.workload, rounds, failed, setup_times)
            check_declared(metrics, "end_to_end")
    finally:
        shutil.rmtree(workdir)

    attempted = len(rounds) * len(ops)
    info = machine_and_inputs(args)
    info.update(
        attempted=attempted, failed=failed, round_ops=len(ops), rounds=len(rounds),
        cpu_time=plain_figures(rounds, 0), wall_time=plain_figures(rounds, 2),
        reference_ms=REFERENCE_MS,
    )
    record = dict(info, metrics=metrics)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))


if __name__ == "__main__":
    main()
