"""What a cold start loads: the package imports its modules on first access,
and each CLI verb loads only the modules it runs.

Each check runs in a fresh interpreter and looks only at the modules loaded
after the interpreter started, so whatever the site set-up preloads does not
count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgonal

SRC = str(Path(mgonal.__file__).resolve().parent.parent)

# the modules the benchmark's tracer reads as `mgonal.<module>` before any call
TRACED_MODULES = ("forms", "represent", "local", "reduction", "escalator", "cli")

VERBS = {
    "eval": "--m 5 --x 3",
    "invert": "--m 5 --n 12",
    "represent": "--m 5 --coeffs 1,1 --n 6",
    "set": "--m 3 --coeffs 1,1,1 --bound 1000",
    "truant": "--m 4 --coeffs 1,1,1 --bound 1000",
    "tree": "--m 8 --depth 2 --bound 1000",
    "local": "--m 4 --coeffs 1,1 --n 3",
    "exceptions": "--m 7 --coeffs 1,1,1,1,1 --bound 1000",
    "kwindow": "--m 5 --coeffs 1,1,1,1,1 --n 10000",
    "feasible-k": "--m 5 --coeffs 1,1,1,1,1 --n 1000 --k-max 50",
    "gamma": "--m 12 --bound 1000 --depth 2",
    "growth": "--coeffs 1,1,1,1,1 --m-from 5 --m-to 6 --bound 1000",
    "td5": "--count-only",
}
NUMPY_FREE = ("eval", "invert", "local", "kwindow")


def fresh_run(body: str) -> dict:
    """Run body in a fresh interpreter; return the dict it leaves in `result`,
    with the modules imported after the interpreter started under "loaded"."""
    script = "\n".join([
        "import contextlib, io, json, sys",
        "before = set(sys.modules)",
        "result = {}",
        body,
        'result["loaded"] = sorted(set(sys.modules) - before)',
        "print(json.dumps(result))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    env.pop("MGONAL_CACHE_DIR", None)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("verb", list(VERBS))
def test_verb_loads_only_what_it_runs(verb):
    argv = [verb, *VERBS[verb].split(), "--jobs", "1", "--format", "json"]
    result = fresh_run("\n".join([
        "from mgonal.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    result['code'] = main({argv!r})",
    ]))
    assert result["code"] == 0
    loaded = set(result["loaded"])
    assert "concurrent.futures.process" not in loaded
    assert "logging" not in loaded
    if verb in NUMPY_FREE:
        assert "numpy" not in loaded


def test_package_import_loads_no_module_of_its_own():
    result = fresh_run("import mgonal")
    assert [m for m in result["loaded"] if m.startswith("mgonal.")] == []


def test_modules_and_exports_resolve_on_first_access():
    result = fresh_run("\n".join([
        "import mgonal",
        f"result['names'] = [getattr(mgonal, m).__name__ for m in {TRACED_MODULES!r}]",
        "result['export'] = mgonal.SqrtVal is mgonal.reduction.SqrtVal",
        "result['missing'] = not hasattr(mgonal, 'no_such_name')",
    ]))
    assert result["names"] == [f"mgonal.{m}" for m in TRACED_MODULES]
    assert result["export"] and result["missing"]
    assert {f"mgonal.{m}" for m in TRACED_MODULES} <= set(result["loaded"])
