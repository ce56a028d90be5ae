"""What importing atckit loads: a lazy namespace, and for the CLI one BLAS
thread, a frozen import heap, no ``numpy.ma`` and only the modules that a
subcommand uses.

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


def test_startup_loads_numpy_also_when_the_caller_set_the_variable():
    # so numpy loads under the held collector whichever atckit modules the CLI imports eagerly
    script = "import json, sys, atckit._startup; print(json.dumps('numpy' in sys.modules))"
    assert _fresh(script, OPENBLAS_NUM_THREADS="2") is True


def test_numpy_loaded_first_leaves_the_environment_alone():
    script = (
        "import json, os, numpy\n"
        "before = dict(os.environ)\n"
        "import atckit.cli\n"
        "print(json.dumps(dict(os.environ) == before))\n"
    )
    assert _fresh(script) is True


# ------------------------------------------------- no collection of the imports

_COLLECTOR = """
import gc, json, runpy, sys
prelude, entry = sys.argv[1:]
exec(prelude)
passes = []
def seen(phase, info):
    if phase == "start" and "numpy" in sys.modules:
        passes.append(info["generation"])
gc.callbacks.append(seen)
found = [gc.isenabled(), gc.get_threshold()]
exec(entry)
gc.callbacks.remove(seen)
print(json.dumps({
    "found": found, "left": [gc.isenabled(), gc.get_threshold()],
    "frozen": gc.get_freeze_count(), "passes": passes,
}))
"""


@pytest.mark.parametrize(
    "entry",
    # the console script imports atckit.cli; python -m runs its code through runpy
    ["import atckit.cli", "runpy.run_module('atckit.cli')"],
)
def test_cli_import_runs_no_collection_and_freezes_its_heap(entry):
    report = _fresh(_COLLECTOR, "", entry)
    assert report["passes"] == []  # none from numpy's import on
    assert report["frozen"] > 0
    assert report["left"] == report["found"] and report["found"][0] is True


def test_numpy_loaded_first_leaves_the_collector_alone():
    report = _fresh(_COLLECTOR, "import numpy", "import atckit.cli")
    assert report["frozen"] == 0
    assert report["left"] == report["found"] and report["found"][0] is True


def test_callers_disabled_collector_stays_disabled():
    report = _fresh(_COLLECTOR, "gc.disable()", "import atckit.cli")
    assert (report["left"], report["frozen"], report["passes"]) == (report["found"], 0, [])
    assert report["found"][0] is False


# ------------------------------------------------------------ no numpy.ma

_MASKED = """
import json, sys
import atckit.cli
codes = [atckit.cli.main(argv.split("|")) for argv in sys.argv[1:]]
print(json.dumps({"exit": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_bootstrap_commands_never_load_numpy_ma(tmp_path):
    # np.quantile would import it; the percentile interval is taken without it
    source, target = make_shift_pair(GeneratorSpec(
        k=3, n=150, target_accuracy=0.8, concentration=5.0, shift=Shift(temperature=1.3), seed=0,
    ))
    write_dump(source, tmp_path / "src.csv")
    write_dump(target, tmp_path / "tgt.csv")
    benchmark = f"benchmark|--synthetic|--k|2|3|--n|100|--boot|4|--pairwise|--out-dir|{tmp_path}"
    estimate = f"estimate|--source|{tmp_path / 'src.csv'}|--target|{tmp_path / 'tgt.csv'}|--method|doc-reg|--boot|3"
    assert _fresh(_MASKED, benchmark, estimate) == {"exit": [0, 0], "numpy.ma": False}


# ------------------------------------------- only the modules a subcommand uses

_BODIES = """
import gc, json, sys
from pathlib import Path
exec(sys.argv[1])
ran = {}  # module -> whether the collector was on as its body started
def seen(event, args):
    if event == "exec":
        path = Path(getattr(args[0], "co_filename", ""))
        if path.parent.name == "atckit":
            ran[path.stem] = gc.isenabled()
sys.addaudithook(seen)  # a module's body runs through exec; looking at sys.modules could load it
import atckit.cli
report = {"import": sorted(ran), "frozen_at_import": gc.get_freeze_count()}
if sys.argv[2:]:
    report["exit"] = atckit.cli.main(sys.argv[2:])
    report["ran"] = sorted(ran)
    report["collecting"] = ran
    report["frozen_after"] = gc.get_freeze_count()
    report["collector_after"] = gc.isenabled()
print(json.dumps(report))
"""

#: the modules ``import atckit.cli`` runs: what the parser reads
_PARSER = ["__init__", "_startup", "cli", "doc", "errors", "scores", "simplex"]


def test_cli_import_runs_only_what_the_parser_reads():
    assert _fresh(_BODIES, "")["import"] == _PARSER


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["verify", "--k", "3", "--points", "50", "--budget", "0"], ["ordering"]),
        (["generate", "--k", "3", "--n", "20", "--out", "{tmp}/x.csv"], ["io", "synth"]),
        (["estimate", "--source", "{tmp}/src.csv", "--target", "{tmp}/tgt.csv", "--boot", "2"], ["atc", "harness", "io"]),
        (
            ["benchmark", "--synthetic", "--k", "3", "--n", "60", "--boot", "2", "--out-dir", "{tmp}"],
            ["atc", "harness", "io", "synth"],
        ),
    ],
    ids=["verify", "generate", "estimate", "benchmark"],
)
def test_subcommand_runs_only_its_modules_and_freezes_them(tmp_path, argv, runs):
    source, target = make_shift_pair(GeneratorSpec(k=3, n=40, target_accuracy=0.8, seed=0))
    write_dump(source, tmp_path / "src.csv")
    write_dump(target, tmp_path / "tgt.csv")
    report = _fresh(_BODIES, "", *(arg.format(tmp=tmp_path) for arg in argv))
    assert report["exit"] == 0
    assert report["ran"] == sorted(_PARSER + runs)
    assert report["frozen_after"] > report["frozen_at_import"] > 0
    # no collection from the subcommand's start to its freeze, and a running collector after it
    assert {m: report["collecting"][m] for m in runs} == dict.fromkeys(runs, False)
    assert report["collector_after"] is True


def test_library_callers_collector_runs_through_a_subcommand(tmp_path):
    argv = ["benchmark", "--synthetic", "--k", "3", "--n", "60", "--boot", "2", "--out-dir", str(tmp_path)]
    report = _fresh(_BODIES, "import numpy", *argv)
    assert report["exit"] == 0 and report["frozen_after"] == 0
    runs = ["atc", "harness", "io", "synth"]
    assert {m: report["collecting"][m] for m in runs} == dict.fromkeys(runs, True)
    assert report["collector_after"] is True


_IMPORTED_FIRST = """
import json, sys
import atckit.harness
harness = sys.modules["atckit.harness"]
import atckit.cli
suite, calls = harness.run_benchmark_suite, []
def counted(*args):
    calls.append(1)
    return suite(*args)
harness.run_benchmark_suite = counted
code = atckit.cli.main(["benchmark", "--synthetic", "--k", "3", "--n", "50", "--boot", "2", "--out-dir", sys.argv[1]])
print(json.dumps({"kept": sys.modules["atckit.harness"] is harness, "exit": code, "calls": len(calls)}))
"""


def test_module_imported_before_the_cli_is_kept_and_patchable(tmp_path):
    # registering a second object for it would split the identities of its classes
    assert _fresh(_IMPORTED_FIRST, str(tmp_path)) == {"kept": True, "exit": 0, "calls": 1}
