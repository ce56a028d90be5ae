"""What importing atckit loads: a lazy namespace, and one BLAS thread for the CLI.

Every check runs in a fresh interpreter, because pytest has already
imported numpy and every atckit module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import atckit
from atckit import GeneratorSpec, Shift, make_shift_pair, write_dump

SRC = str(Path(atckit.__file__).resolve().parents[1])
SUBMODULES = ("atc", "doc", "errors", "harness", "io", "ordering", "scores", "simplex", "synth")
TASKS = Path("/proc/self/task")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _fresh(script: str, *args: str, **env: str) -> dict:
    """Run ``script`` in a fresh interpreter without OPENBLAS_NUM_THREADS
    unless ``env`` sets it; its last stdout line is JSON."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**base, "PYTHONPATH": SRC, **env},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


# ------------------------------------------------------------ lazy namespace

_NAMESPACE = """
import json, sys
import atckit
report = {
    "numpy_after_import": "numpy" in sys.modules,
    "atckit_modules_after_import": sorted(m for m in sys.modules if m.startswith("atckit.")),
    "dir": dir(atckit),
}
try:
    atckit.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
report["version"] = atckit.__version__
submodules = sys.argv[1:]
report["submodules"] = {m: getattr(atckit, m) is sys.modules["atckit." + m] for m in submodules}
values = {name: getattr(atckit, name) for name in atckit.__all__}
report["unresolved"] = [
    name for name, value in values.items()
    if not any(getattr(sys.modules["atckit." + m], name, None) is value for m in submodules)
]
star = {}
exec("from atckit import *", star)
report["star_missing"] = [name for name, value in values.items() if star.get(name) is not value]
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def namespace():
    return _fresh(_NAMESPACE, *SUBMODULES)


def test_import_atckit_loads_no_numpy(namespace):
    assert namespace["numpy_after_import"] is False
    assert namespace["atckit_modules_after_import"] == []


def test_every_public_name_resolves(namespace):
    assert namespace["unresolved"] == []
    assert namespace["version"] == atckit.__version__


def test_every_submodule_resolves(namespace):
    assert namespace["submodules"] == {m: True for m in SUBMODULES}


def test_star_import_binds_all(namespace):
    assert namespace["star_missing"] == []


def test_dir_lists_names_and_submodules(namespace):
    assert set(atckit.__all__) | set(SUBMODULES) | {"__version__"} <= set(namespace["dir"])
    assert namespace["dir"] == sorted(namespace["dir"])


def test_unknown_name_raises_the_usual_attribute_error(namespace):
    assert namespace["unknown"] == "module 'atckit' has no attribute 'no_such_name'"


# ----------------------------------------------------------- one BLAS thread


def _openblas() -> bool:
    try:
        return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return False


counts_threads = pytest.mark.skipif(
    not (TASKS.is_dir() and _openblas()), reason="needs /proc/self/task and numpy on OpenBLAS"
)

_CLI_THREADS = """
import json, os, sys
threads = lambda: len(os.listdir("/proc/self/task"))
import atckit.cli
report = {"after_import": threads(), "env": os.environ.get("OPENBLAS_NUM_THREADS")}
if sys.argv[1:]:
    import numpy as np
    polyfit, calls = np.polyfit, []
    def counted(*args, **kwargs):
        calls.append(1)
        return polyfit(*args, **kwargs)
    np.polyfit = counted
    report["exit"] = atckit.cli.main(sys.argv[1:])
    report["polyfit_calls"] = len(calls)
    report["after_main"] = threads()
print(json.dumps(report))
"""


@counts_threads
def test_cli_loads_numpy_with_one_thread_and_restores_the_environment():
    assert _fresh(_CLI_THREADS) == {"after_import": 1, "env": None}


@counts_threads
def test_doc_reg_estimate_keeps_one_thread(tmp_path):
    source, target = make_shift_pair(GeneratorSpec(
        k=3, n=150, target_accuracy=0.8, concentration=5.0, shift=Shift(temperature=1.3), seed=0,
    ))
    write_dump(source, tmp_path / "src.csv")
    write_dump(target, tmp_path / "tgt.csv")
    report = _fresh(
        _CLI_THREADS, "estimate", "--source", str(tmp_path / "src.csv"),
        "--target", str(tmp_path / "tgt.csv"), "--method", "doc-reg", "--boot", "3",
    )
    assert report["exit"] == 0 and report["polyfit_calls"] > 0
    assert (report["after_import"], report["after_main"], report["env"]) == (1, 1, None)


@counts_threads
@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS starts no pool thread on one CPU")
def test_callers_thread_setting_is_kept():
    assert _fresh(_CLI_THREADS, OPENBLAS_NUM_THREADS="2") == {"after_import": 2, "env": "2"}


def test_numpy_loaded_first_leaves_the_environment_alone():
    script = (
        "import json, os, numpy\n"
        "before = dict(os.environ)\n"
        "import atckit.cli\n"
        "print(json.dumps(dict(os.environ) == before))\n"
    )
    assert _fresh(script) is True
