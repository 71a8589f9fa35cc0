"""Spans around hybridsgd's public functions, recorded from outside the package.

A function is wrapped at every place a caller looks its name up: each
`hybridsgd` module global bound to it and, for objective methods, the class
attribute.  Nothing in the package changes on disk, and `Instrument.undo`
puts every name back, so traced and untraced invocations can alternate in one
process.  A span is (name, start ns, end ns, parent index); spans stay in
memory until the caller writes them out.
"""
from __future__ import annotations

import csv
import sys
import time
from collections import Counter, defaultdict

# (defining module, function, layer).  The writers count as the CLI's own
# output time (layer "cli.write") although they live in optimizer and probe.
FUNCTIONS = (
    ("core", "sample_gaussian", "core"),
    ("core", "sample_unit_sphere", "core"),
    ("core", "shuffle_permutation", "core"),
    ("estimator", "estimate_block_gradient", "estimator"),
    ("optimizer", "run", "optimizer"),
    ("optimizer", "run_epoch", "optimizer"),
    ("optimizer", "step", "optimizer"),
    ("probe", "estimate_block_lipschitz", "probe"),
    ("probe", "trajectory_scan", "probe"),
    ("planner", "estimate_constants", "planner"),
    ("oracle", "check_estimator_bounds", "oracle"),
    ("oracle", "check_hybrid_smoothness", "oracle"),
    ("oracle", "dense_hessian", "oracle"),
    ("oracle", "fd_gradient", "oracle"),
    ("optimizer", "write_trace_csv", "cli.write"),
    ("probe", "write_probe_csv", "cli.write"),
)
SAMPLE_METHODS = ("value_at", "grad_at")
FULL_METHODS = ("full_value_at", "full_grad_at", "sample_variance")
ROOT = "main"

LAYER = {name: layer for _, name, layer in FUNCTIONS}
LAYER.update({name: "objectives" for name in SAMPLE_METHODS + FULL_METHODS})
LAYER[ROOT] = "cli"

# Ancestry flags: which enclosing spans a call happened under.
_STEP, _ESTIMATOR, _EPOCH, _PROBE, _ORACLE = 1, 2, 4, 8, 16
_FLAG = {
    "step": _STEP,
    "estimate_block_gradient": _ESTIMATOR,
    "run_epoch": _EPOCH,
    "estimate_block_lipschitz": _PROBE,
    "trajectory_scan": _PROBE,
}
_FLAG.update({name: _ORACLE for name, layer in LAYER.items() if layer == "oracle"})


class Tracer:
    """In-memory span recorder; `hvps` sums the probe counts of returned reports."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.hvps = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if name == "estimate_block_lipschitz":
                self.hvps += result.probes
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "start_ns", "end_ns", "parent"))
            for k, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((k, name, start, end, parent))


def _objective_classes(base) -> list:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("hybridsgd"):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Instrument:
    """Wraps the listed names (default: every traced function and method)."""

    def __init__(self, tracer: Tracer, only: tuple[str, ...] | None = None) -> None:
        from hybridsgd.objectives import FiniteSumObjective

        self._undo: list[tuple[object, str, object]] = []
        modules = [m for k, m in sys.modules.items() if k == "hybridsgd" or k.startswith("hybridsgd.")]
        for module_name, name, _ in FUNCTIONS:
            if only is not None and name not in only:
                continue
            original = getattr(sys.modules[f"hybridsgd.{module_name}"], name)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        for cls in _objective_classes(FiniteSumObjective):
            for name in SAMPLE_METHODS + FULL_METHODS:
                method = cls.__dict__.get(name)
                if method is None or getattr(method, "__isabstractmethod__", False):
                    continue
                if only is None or name in only:
                    self._set(cls, name, tracer.wrap(name, method))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def summarize(spans: list[list]) -> dict:
    """Counts, self times, inclusive layer times and oracle-call attributions
    of one invocation's spans.

    Self time is a span's duration minus the time its child spans cover, so
    the self times of all spans add up to the root span's duration.  A
    layer's inclusive time sums its spans that have no ancestor in the layer.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    flags = [0] * len(spans)
    layers = [frozenset()] * len(spans)
    calls: Counter = Counter()
    self_ns: defaultdict = defaultdict(int)
    inclusive_ns: defaultdict = defaultdict(int)
    oracle_calls: Counter = Counter()
    for k, (name, start, end, parent) in enumerate(spans):
        inherited = flags[parent] if parent >= 0 else 0
        flags[k] = inherited | _FLAG.get(name, 0)
        outer = layers[parent] if parent >= 0 else frozenset()
        layer = LAYER[name]
        if layer in outer:
            layers[k] = outer
        else:
            layers[k] = outer | {layer}
            inclusive_ns[layer] += end - start
        calls[name] += 1
        self_ns[name] += end - start - child_ns[k]
        if name == "value_at":
            if inherited & _ESTIMATOR:
                oracle_calls["estimator_values"] += 1
                if inherited & _STEP:
                    oracle_calls["zo_values"] += 1
            if inherited & _ORACLE:
                oracle_calls["oracle_values"] += 1
        elif name == "grad_at":
            if inherited & _STEP and not inherited & _ESTIMATOR:
                oracle_calls["fo_grads"] += 1
            if inherited & _PROBE:
                oracle_calls["probe_grads"] += 1
        elif name == "sample_gaussian" and inherited & _ESTIMATOR:
            oracle_calls["directions"] += 1
        if name in SAMPLE_METHODS and inherited & _EPOCH and not inherited & _STEP:
            oracle_calls["trace_evals"] += 1
    return {"calls": calls, "self_ns": self_ns, "inclusive_ns": inclusive_ns,
            "oracle_calls": oracle_calls}
