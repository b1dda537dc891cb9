"""Import budget: the CLI's cold start loads numpy and the standard library only,
``integrate`` and ``volumes`` runs load neither scipy nor numpy.polynomial, and
conjugation ``verify`` and ``ensemble`` runs load no scipy.

Each check runs in a fresh interpreter, since this test process has
scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
LOADED_HEAVY = (
    "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))"
)


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    out = _run(f"import sys, sectint, sectint.cli; print({LOADED_SCIPY})")
    assert out == "[]"


def test_flat_integrate_loads_no_scipy():
    code = f"""
import contextlib, io, sys
from sectint.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["integrate", "--action", '{{"kind":"direct_sum","field":"R","n":3,"k":2}}', "--n", "400"])
assert code == 0, code
print({LOADED_SCIPY})
"""
    assert _run(code) == "[]"


@pytest.mark.parametrize("command", ["integrate", "volumes"])
def test_direct_sum_run_loads_no_scipy_or_polynomial(command):
    # the Gauss rules of the reduced side are built by Golub-Welsch in plain numpy
    code = f"""
import contextlib, io, sys
from sectint.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["{command}", "--action", '{{"kind":"direct_sum","field":"C","n":4,"k":2}}', "--n", "400"])
assert code in (0, 1), code
print({LOADED_HEAVY})
"""
    assert _run(code) == "[]"


@pytest.mark.parametrize("family, n", [("SU", 3), ("SO", 4), ("Sp", 2)])
def test_conjugation_verify_loads_no_scipy(family, n):
    # the reduction to the torus is one numpy eigensolve, not a Schur form
    code = f"""
import contextlib, io, sys
from sectint.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "--action", '{{"kind":"conjugation","family":"{family}","n":{n}}}', "--points", "2"])
assert code == 0, code
print({LOADED_SCIPY})
"""
    assert _run(code) == "[]"


@pytest.mark.parametrize("action, statistic", [
    ('{"kind":"direct_sum","field":"R","n":3,"k":2}', "coordinate_det"),
    ('{"kind":"direct_sum","field":"R","n":7,"k":5}', "coordinate_norm"),
    ('{"kind":"conjugation","family":"SU","n":2}', "torus_angle"),
    ('{"kind":"conjugation","family":"SU","n":3}', "torus_angle"),
])
def test_ensemble_loads_no_scipy(action, statistic):
    # the p-value is the closed-form chi-square tail, and the direct-sum laws
    # (a chi product, the odd chi_35) are numpy and math
    code = f"""
import contextlib, io, sys
from sectint.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["ensemble", "--action", '{action}', "--statistic", "{statistic}", "--n", "500", "--bins", "8"])
assert code in (0, 1), code
print({LOADED_SCIPY})
"""
    assert _run(code) == "[]"


def _traced_entries():
    """TRACED of perfbench/tracing.py, read as a literal: the harness is not imported."""
    import ast

    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "TRACED")
    return ast.literal_eval(node.value)


@pytest.mark.parametrize("module, func, counted", _traced_entries(), ids=lambda v: v if isinstance(v, str) else "")
def test_traced_functions_resolve(module, func, counted):
    # a function moved out of a traced module fails here rather than in a traced benchmark run
    import importlib
    import inspect

    fn = getattr(importlib.import_module(f"sectint.{module}"), func)
    if counted is not None:
        assert counted[0] in inspect.signature(fn).parameters


def test_benchmark_setup_names_resolve():
    import sectint.volumes

    assert callable(sectint.volumes.cached_group_volume)
