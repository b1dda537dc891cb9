import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the demos, and the README, whose one python block is its quick-start
DEMOS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # each demo in a fresh interpreter, writing its outputs to tmp_path
    if demo.suffix == ".md":
        (block,) = re.findall(r"```python\n(.*?)```", demo.read_text(), re.S)
        demo = tmp_path / "quickstart.py"
        demo.write_text(block)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_module_references_resolve():
    # every `module.name` the README names (with or without `sectint.`) is an
    # attribute of that sectint module, so a renamed or moved name fails here
    import importlib
    import pkgutil

    import sectint

    modules = {m.name for m in pkgutil.iter_modules(sectint.__path__)}
    refs = [(m, name) for m, name in re.findall(r"`(?:sectint\.)?(\w+)\.(\w+)", (ROOT / "README.md").read_text())
            if m in modules]
    assert len(refs) >= 10
    assert [f"{m}.{name}" for m, name in refs if not hasattr(importlib.import_module(f"sectint.{m}"), name)] == []
