"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` wraps package functions and objective methods by name,
from outside the package, for ``perfbench/run.py --trace 1``.  A name removed
or renamed here would make every traced benchmark run fail, so these tests
import the tracer from its file (read-only: no bytecode is written next to
it) and check the names it wraps and that it puts every one of them back.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from hybridsgd import (
    BlockLayout,
    BlockQuadratic,
    FiniteSumObjective,
    HybridPoint,
    OptimizerConfig,
    RngStream,
    ZoConfig,
    objectives,
    optimizer,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _bindings():
    """Every package module global and objective class attribute, by owner and name."""
    owners = [m for k, m in sys.modules.items() if k == "hybridsgd" or k.startswith("hybridsgd.")]
    owners += [cls for _, cls in inspect.getmembers(objectives, inspect.isclass)
               if issubclass(cls, FiniteSumObjective)]
    return {(owner, name): value for owner in owners for name, value in list(vars(owner).items())}


def test_every_traced_name_exists_in_the_package():
    tracer = _tracer_module()
    for module_name, name, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"hybridsgd.{module_name}")
        assert callable(getattr(module, name, None)), f"hybridsgd.{module_name}.{name}"
    for name in tracer.SAMPLE_METHODS + tracer.FULL_METHODS:
        assert callable(getattr(FiniteSumObjective, name, None)), name


def test_instrument_records_steps_and_undo_restores_every_name():
    tracer = _tracer_module()
    layout = BlockLayout(2, 1)
    obj = BlockQuadratic(layout, np.zeros((3, layout.d)), 2.0, 1.0)
    cfg = OptimizerConfig(0.01, 0.05, zo=ZoConfig(mu=1e-3, directions_per_step=2),
                          epochs=2)
    before = _bindings()
    spans = tracer.Tracer()
    instrument = tracer.Instrument(spans)
    try:
        wrapped = [key for key, value in _bindings().items() if before.get(key) is not value]
        optimizer.run(obj, HybridPoint(layout, [1.0, -1.0, 0.5]), cfg, RngStream(3, 2))
    finally:
        instrument.undo()
    names = [span[0] for span in spans.spans]
    assert names.count("step") == cfg.epochs * obj.n
    assert names.count("run") == 1 and names.count("estimate_block_gradient") == cfg.epochs * obj.n
    assert wrapped  # the instrument did replace names
    after = _bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
