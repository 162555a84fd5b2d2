import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import polybell
from polybell import exact_core, numeric_bridge, pbell


def test_all_lists_every_public_name_and_nothing_else():
    for name in polybell.__all__:
        value = getattr(polybell, name)
        assert not isinstance(value, types.ModuleType), name
    public = {
        name
        for name, value in vars(polybell).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert public <= set(polybell.__all__)
    for module in (exact_core, numeric_bridge, pbell):
        assert set(module.__all__) <= set(polybell.__all__), module.__name__
    assert "__version__" in polybell.__all__
    assert len(polybell.__all__) == len(set(polybell.__all__))


_EXACT_RUN_WITHOUT_NUMPY = """
import contextlib, io, sys

def step(name, numpy_loaded):
    assert ("numpy" in sys.modules) is numpy_loaded, (name, numpy_loaded)
    # the SplitMix64 step table is built by the first draw, never on import
    steps = sys.modules["polybell.numeric_bridge"]._steps
    assert bool(steps) is numpy_loaded, (name, "step table", list(steps))

import polybell
step("import polybell", False)
from polybell import cli
step("import polybell.cli", False)
exact = [
    ["value", "--kind", "pbell", "--n", "10", "--p", "2"],
    ["table", "--kind", "pbell-numbers", "--nmax", "5", "--pmax", "2"],
    ["verify", "--nmax", "6", "--pmax", "2", "--order", "6"],
]
for argv in exact:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    step(argv[0], False)
mc = ["numeric", "mc", "--n", "2", "--p", "1", "--x", "0", "--samples", "100", "--seed", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(mc)
step("numeric mc", True)
"""


def test_exact_commands_do_not_load_numpy():
    # NumPy is imported by the float kernels alone; the exact commands start without it
    src = Path(polybell.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", _EXACT_RUN_WITHOUT_NUMPY],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
