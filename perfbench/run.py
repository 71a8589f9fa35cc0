#!/usr/bin/env python3
"""Benchmark of the hybridsgd command line: four workloads through
`hybridsgd.cli.main`, timed end to end, traced per layer, and gated for
correctness on every invocation.

Run from the root of a hybridsgd checkout (the package is imported from
./src; nothing is installed):

    python3 perfbench/run.py --workload run-logistic --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke            # tiny sizes: metric names, units, negative control
    python3 perfbench/run.py --holdout          # correctness gate alone, on the held-out instance
    python3 perfbench/run.py --make-reference   # rewrite reference.json from the current code

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
traced and untraced invocations alternately and reports the per-layer ones.
Human-readable lines come first; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.  Working files,
recorded spans and a results record with the environment go to
.perfbench_work/ in the checkout.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in every child it starts; this
# must happen before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import Timeline
from tracer import FULL_METHODS, LAYER, ROOT, SAMPLE_METHODS, Instrument, Tracer, summarize
from workloads import HELD_OUT, INSTANCES, SMOKE, WORKLOADS, closed_form_calls, compare

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

SETUP_REPEATS = 15
MIN_SAMPLES = 3
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
P99_MIN_SAMPLES = 1000

# What a user pays before the first step: a fresh interpreter importing the
# CLI, building the workload's objective and its start points (stream id 1 is
# the CLI's init stream).
SETUP_CODE = """\
import json, sys
import hybridsgd.cli
from hybridsgd.core import HybridPoint, RngStream, sample_gaussian
from hybridsgd.objectives import objective_from_dict
spec, count, seed = json.loads(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
if spec is not None:
    obj = objective_from_dict(spec)
    rng = RngStream(seed, 1)
    points = [HybridPoint(obj.layout, sample_gaussian(rng, obj.layout.d)) for _ in range(count)]
"""
CHILD_MAIN = "import sys; from hybridsgd.cli import main; sys.exit(main(sys.argv[1:]))"


class Session:
    """One workload instance: its config, output paths and gate tallies."""

    def __init__(self, workload, instance, reference, smoke=False):
        self.workload = workload
        self.instance = instance
        self.reference = reference
        self.dir = WORK / f"{workload.name}-{SMOKE if smoke else instance}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = workload.config(instance, smoke) if workload.config else None
        cfg_path = self.dir / "config.json"
        if self.config is not None:
            cfg_path.write_text(json.dumps(self.config, indent=1) + "\n", encoding="utf-8")
        self.out = self.dir / "out"
        self.argv = workload.argv(instance, smoke, cfg_path, self.out)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None
        self.summary = None

    def invoke(self, main=None) -> float:
        """One in-process invocation (timed around `main` only), then the gate."""
        import hybridsgd.cli

        main = main or hybridsgd.cli.main
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                code = main(self.argv)
        except (Exception, SystemExit):
            code = "an exception: " + traceback.format_exc(limit=-3)
        wall = time.perf_counter() - start
        self.check(code, stdout.getvalue())
        return wall

    def invoke_child(self) -> float:
        """One invocation in a fresh interpreter; returns its peak RSS in MB."""
        with open(self.dir / "child.stdout", "w+", encoding="utf-8") as out, \
                open(self.dir / "child.stderr", "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, "-c", CHILD_MAIN, *self.argv],
                                    stdout=out, stderr=err, env=CHILD_ENV, cwd=CHECKOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            self.check(proc.returncode, out.read())
        return usage.ru_maxrss / 1024.0

    def check(self, code, stdout: str) -> None:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        else:
            try:
                digest = hashlib.sha256()
                for path in self.workload.outputs(self.out):
                    digest.update(path.read_bytes())
                summary = self.workload.summary(stdout, self.out)
            except (OSError, KeyError, ValueError, AttributeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                if self.digest is None:
                    self.digest = digest.hexdigest()
                elif digest.hexdigest() != self.digest:
                    problems.append("output bytes differ from the first invocation")
                self.summary = summary
                if self.reference is not None:
                    problems += compare(summary, self.reference)
        if problems:
            self.failed += 1
            self.problems += problems

    def setup_time(self) -> float:
        """Wall time of one fresh interpreter doing the workload's set-up."""
        spec = self.config["objective"] if self.config else None
        count = self.config.get("points", {}).get("count", 1) if self.config else 0
        seed = self.config.get("seed", 0) if self.config else 0
        argv = [sys.executable, "-c", SETUP_CODE, json.dumps(spec), str(count), str(seed)]
        start = time.perf_counter()
        subprocess.run(argv, env=CHILD_ENV, cwd=CHECKOUT, check=True)
        return time.perf_counter() - start

    def warm_up(self) -> int:
        """The untimed first invocation; counts the workload's work units."""
        tracer = Tracer()
        instrument = Instrument(tracer, only=("step", "estimate_block_lipschitz"))
        try:
            self.invoke()
        finally:
            instrument.undo()
        unit = self.workload.unit
        if unit == "step":
            return sum(1 for span in tracer.spans if span[0] == "step")
        if unit == "hvp":
            return tracer.hvps
        return (self.summary or {}).get("checks_total", 0)

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.workload.outputs(self.out) if p.exists())


def _percentile(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def _loop(seconds: float, body) -> None:
    start = time.perf_counter()
    count = 0
    while count < MIN_SAMPLES or time.perf_counter() - start < seconds:
        body(min((time.perf_counter() - start) / seconds, 1.0))
        count += 1


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, list[str]]:
    rss = session.invoke_child()
    session.setup_time()  # writes the bytecode caches; not counted
    units = session.warm_up()
    timeline = Timeline()

    def one(progress):
        timeline.record("invocation", session.invoke())
        # Set-up runs are spread over the whole run, so they meet the same
        # machine load as the invocations.
        if len(timeline.raw("setup")) < SETUP_REPEATS * progress:
            timeline.record("setup", session.setup_time())

    _loop(seconds, one)
    while len(timeline.raw("setup")) < SETUP_REPEATS:
        timeline.record("setup", session.setup_time())
    walls, setup = timeline.normalized("invocation"), timeline.normalized("setup")
    raw_walls = sorted(timeline.raw("invocation"))
    unit, n, per = session.workload.unit, len(walls), 1e6 / max(units, 1)
    wall, raw_wall = statistics.median(walls), statistics.median(raw_walls)
    tail = (f"p90 {_percentile(raw_walls, 90):.6g} s" if n >= P90_MIN_SAMPLES
            else f"no p90: fewer than {P90_MIN_SAMPLES} samples")
    metrics = {
        "wall_norm_s": (wall, "s"),
        "us_per_unit_norm": (wall * per, "us"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [
        f"machine speed {timeline.speed():.3f} of the reference (median of {len(timeline.kernel_s)} "
        f"calibration runs); *_norm and setup_s are at the reference speed",
        f"{'wall_s':<16} {raw_wall:.6g} s   median of {n} invocations, warm-up excluded; {tail}",
        f"{'wall_norm_s':<16} {wall:.6g} s   median of the same {n}, normalized",
        f"{'us_per_' + unit:<16} {raw_wall * per:.6g} us  wall_s / {units} {unit}s",
        f"{'us_per_unit_norm':<16} {wall * per:.6g} us  wall_norm_s / {units} {unit}s",
        f"{'setup_s':<16} {statistics.median(setup):.6g} s   median of {len(setup)} fresh interpreters, "
        f"normalized; raw median {statistics.median(timeline.raw('setup')):.6g} s",
        f"{'peak_rss_mb':<16} {rss:.6g} MB  1 invocation in a child process",
    ]
    return metrics, lines


def measure_traced(session: Session, seconds: float) -> tuple[dict, list[str]]:
    import hybridsgd.cli

    units = session.warm_up()
    untraced, traced, step_us = [], [], []
    first = None

    def one_pair(progress):
        nonlocal first
        untraced.append(session.invoke())
        tracer = Tracer()
        instrument = Instrument(tracer)
        try:
            wall = session.invoke(tracer.wrap(ROOT, hybridsgd.cli.main))
        finally:
            instrument.undo()
        traced.append((wall, summarize(tracer.spans), tracer.hvps))
        step_us.extend((end - start) / 1e3 for name, start, end, _ in tracer.spans if name == "step")
        first = first or tracer  # its spans are written out once measuring is over

    _loop(seconds, one_pair)
    first.write(session.dir / "spans.csv")
    step_us.sort()
    # Every time comes from one invocation, the fastest traced one (the least
    # disturbed by other load), so the self times add up to its wall time.
    wall, stats, hvps = min(traced, key=lambda run: run[0])
    calls, self_ns, oracle = stats["calls"], stats["self_ns"], stats["oracle_calls"]
    steps = calls["step"]

    def self_s(*names):
        return sum(self_ns[n] for n in names) / 1e9

    def layer_names(layer):
        return [n for n, owner in LAYER.items() if owner == layer]

    def per(count, base):
        return count / base if base else 0.0

    summary = session.summary or {}
    root_s = self_s(*LAYER)
    metrics = {
        "core.rng_draws": (sum(calls[n] for n in layer_names("core")), "count"),
        "core.rng_self_s": (self_s(*layer_names("core")), "s"),
        "objectives.value_calls": (calls["value_at"], "count"),
        "objectives.grad_calls": (calls["grad_at"], "count"),
        "objectives.sample_self_s": (self_s(*SAMPLE_METHODS), "s"),
        "objectives.full_calls": (sum(calls[n] for n in FULL_METHODS), "count"),
        "objectives.full_self_s": (self_s(*FULL_METHODS), "s"),
        "estimator.calls": (calls["estimate_block_gradient"], "count"),
        "estimator.self_s": (self_s(*layer_names("estimator")), "s"),
        "estimator.values_per_direction": (per(oracle["estimator_values"], oracle["directions"]), "ratio"),
        "optimizer.steps": (steps, "count"),
        "optimizer.step_self_s": (self_s("step"), "s"),
        "optimizer.epoch_self_s": (self_s("run_epoch"), "s"),
        "optimizer.run_self_s": (self_s("run"), "s"),
        "optimizer.step_us_p50": (_percentile(step_us, 50) if step_us else 0.0, "us"),
        "optimizer.step_us_p99": (_percentile(step_us, 99) if len(step_us) >= P99_MIN_SAMPLES else 0.0, "us"),
        "optimizer.zo_values_per_step": (per(oracle["zo_values"], steps), "count"),
        "optimizer.fo_grads_per_step": (per(oracle["fo_grads"], steps), "count"),
        "optimizer.trace_sample_evals_per_step": (per(oracle["trace_evals"], steps), "count"),
        "probe.calls": (sum(calls[n] for n in layer_names("probe")), "count"),
        "probe.hvps": (hvps, "count"),
        "probe.self_s": (self_s(*layer_names("probe")), "s"),
        "probe.grad_calls_per_hvp": (per(oracle["probe_grads"], hvps), "ratio"),
        "planner.calls": (sum(calls[n] for n in layer_names("planner")), "count"),
        "planner.self_s": (self_s(*layer_names("planner")), "s"),
        "oracle.calls": (sum(calls[n] for n in layer_names("oracle")), "count"),
        "oracle.self_s": (self_s(*layer_names("oracle")), "s"),
        "oracle.value_calls": (oracle["oracle_values"], "count"),
        "oracle.checks_passed_ratio": (per(summary.get("checks_passed", 0), summary.get("checks_total", 0)), "ratio"),
        "cli.self_s": (self_s(ROOT), "s"),
        "cli.write_s": (self_s(*layer_names("cli.write")), "s"),
        "cli.output_bytes": (session.output_bytes(), "bytes"),
        "trace.overhead_ratio": (wall / min(untraced), "ratio"),
        "trace.unaccounted_s": (wall - root_s, "s"),
    }
    lines = [f"traced: {len(traced)} traced and {len(untraced)} untraced invocations, alternating; "
             f"self times from the fastest traced one ({wall:.6f} s)"]
    layers = ("core", "objectives", "estimator", "optimizer", "probe", "planner", "oracle", "cli", "cli.write")
    lines.append(f"  {'layer':<11} {'self s':>10} {'share':>6} {'inclusive s':>12} {'share':>6}")
    for layer in layers:
        own, inclusive = self_s(*layer_names(layer)), stats["inclusive_ns"][layer] / 1e9
        lines.append(f"  {layer:<11} {own:10.6f} {100 * own / wall:5.1f}% {inclusive:12.6f} "
                     f"{100 * inclusive / wall:5.1f}%")
    lines.append(f"  {'unaccounted':<11} {wall - root_s:10.6f}  (traced wall_s minus the root span)")
    if session.workload.unit == "step":
        expected = closed_form_calls(session.config)
        lines.append("oracle calls per step (measured / closed form from the config, not gated):")
        for key, value in expected.items():
            lines.append(f"  {key:<28} {metrics['optimizer.' + key][0]:.6g} / {value}")
    lines.append(f"work units: {units} {session.workload.unit}s per invocation")
    return metrics, lines


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, *,
                 smoke=False, reference=None) -> dict:
    """Measure one workload; prints the human-readable lines and returns the result."""
    workload = WORKLOADS[name]
    instance = 0 if smoke else seed % INSTANCES
    if reference is None:
        reference = load_reference()[name][SMOKE if smoke else str(instance)]
    session = Session(workload, instance, reference, smoke=smoke)
    env = environment()
    print(f"workload {name}, seed {seed} -> instance {instance}; "
          f"argv: hybridsgd {' '.join(session.argv)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    measured, lines = (measure_traced if trace else measure_end_to_end)(session, seconds)
    for line in lines:
        print(line)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
    if trace:
        for key, (value, unit) in measured.items():
            print(f"  {key:<40} {value:.6g} {unit}")
    rate = session.failed / session.attempted
    print(f"{'error_rate':<16} {rate:.6g}     {session.failed}/{session.attempted} invocations failed")
    for problem in sorted(set(session.problems))[:10]:
        print(f"gate: {problem}", file=sys.stderr)
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "instance": instance, "trace": trace,
              "seconds": seconds, "argv": session.argv, "environment": env, "report": lines,
              "problems": session.problems, **result}
    path = WORK / f"result-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def make_reference() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for key in [*map(str, range(INSTANCES + 1)), SMOKE]:
            smoke = key == SMOKE
            session = Session(workload, 0 if smoke else int(key), None, smoke=smoke)
            session.invoke()
            if session.failed:
                print(f"{name} instance {key}: {session.problems}", file=sys.stderr)
                return 1
            reference[name][key] = session.summary
        print(f"{name}: {INSTANCES + 2} instances")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def holdout() -> int:
    ok = True
    for name in WORKLOADS:
        session = Session(WORKLOADS[name], HELD_OUT, load_reference()[name][str(HELD_OUT)])
        session.invoke_child()
        session.invoke()
        session.invoke()
        ok = ok and session.failed == 0
        print(f"{name} held-out instance {HELD_OUT}: {session.failed}/{session.attempted} failed")
        for problem in sorted(set(session.problems)):
            print(f"  gate: {problem}")
    return 0 if ok else 1


def smoke() -> int:
    """Tiny runs of every workload: names and units as in BENCHMARK.json, and a
    negative control whose perturbed reference must fail every invocation."""
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = load_reference()
    ok = True
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(name, 0, 0.2, trace, smoke=True,
                                  reference=reference[name][SMOKE])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or result["failed"]:
                ok = False
                print(f"SMOKE FAIL {name} trace {trace}: metrics {sorted(set(got) ^ set(want))}, "
                      f"failed {result['failed']}/{result['attempted']}")
    perturbed = dict(reference["run-logistic"][SMOKE])
    perturbed["final_f"] *= 1.0 + 1e-6
    result = run_workload("run-logistic", 0, 0.2, 0, smoke=True,
                          reference=perturbed)
    rate = result["failed"] / result["attempted"]
    print(f"negative control: perturbed final_f gives error_rate {rate:g} (must be 1)")
    ok = ok and rate == 1.0
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--holdout", action="store_true")
    mode.add_argument("--make-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hybridsgd" / "cli.py").is_file():
        print(f"error: {SRC / 'hybridsgd'} not found; run from the root of a hybridsgd checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hybridsgd

    if Path(hybridsgd.__file__).resolve().parent != (SRC / "hybridsgd").resolve():
        print(f"error: imported hybridsgd from {hybridsgd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.make_reference:
        return make_reference()
    if args.holdout:
        return holdout()
    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
