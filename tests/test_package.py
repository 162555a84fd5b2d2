import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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

def step(name, numpy_loaded, bridge_loaded):
    assert ("numpy" in sys.modules) is numpy_loaded, (name, numpy_loaded)
    bridge = sys.modules.get("polybell.numeric_bridge")
    assert (bridge is not None) is bridge_loaded, (name, "numeric_bridge", bridge_loaded)
    # the SplitMix64 step table is built by the first draw, never on import
    assert bridge is None or bool(bridge._steps) is numpy_loaded, (name, "step table", list(bridge._steps))

import polybell
step("import polybell", False, False)
from polybell import cli
step("import polybell.cli", False, False)
exact = [
    (["value", "--kind", "pbell", "--n", "10", "--p", "2"], False),
    (["table", "--kind", "pbell-numbers", "--nmax", "5", "--pmax", "2"], False),
    (["verify", "--nmax", "6", "--pmax", "2", "--order", "6"], True),  # 1F1 and the incomplete gamma
]
for argv, bridge_loaded in exact:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    step(argv[0], False, bridge_loaded)
mc = ["numeric", "mc", "--n", "2", "--p", "1", "--x", "0", "--samples", "100", "--seed", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(mc)
step("numeric mc", True, True)
"""


def _run_src(code: str, *argv: str) -> subprocess.CompletedProcess:
    src = Path(polybell.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120, env=env
    )


def test_exact_commands_do_not_load_numpy():
    # NumPy is imported by the float kernels alone, and numeric_bridge only by
    # the commands that call into it; the exact commands start without either
    result = _run_src(_EXACT_RUN_WITHOUT_NUMPY)
    assert result.returncode == 0, result.stderr


_MODULES_AFTER = """
import contextlib, io, sys
from polybell import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) in (0, 1)
print(" ".join(sorted(m for m in sys.modules if m.startswith("polybell."))))
"""

_EXACT_MODULES = ["cli", "exact_core", "pbell", "polybell", "special_numbers"]
_SUBCOMMAND_MODULES = {
    "value": (["value", "--kind", "polybell", "--n", "6", "--p", "-2", "--cross-check"], []),
    "table": (["table", "--kind", "pbell-poly-coeffs", "--nmax", "4", "--pmax", "1"], []),
    "verify": (["verify", "--nmax", "4", "--pmax", "1", "--order", "4"], ["identity_verifier", "numeric_bridge"]),
    "numeric-dobinski": (["numeric", "dobinski", "--n", "4", "--p", "1"], ["numeric_bridge"]),
    "numeric-mc": (["numeric", "mc", "--n", "2", "--p", "1", "--x", "0", "--samples", "100"], ["numeric_bridge"]),
}


@pytest.mark.parametrize("subcommand", _SUBCOMMAND_MODULES)
def test_each_subcommand_loads_only_the_modules_it_runs(subcommand):
    # value and table never compile the identity suite or the float bridge
    argv, extra = _SUBCOMMAND_MODULES[subcommand]
    result = _run_src(_MODULES_AFTER, *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == sorted(f"polybell.{m}" for m in _EXACT_MODULES + extra)
