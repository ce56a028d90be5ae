"""Golden outputs: the CLI reproduces recorded files and stdout byte for byte.

Runs a fixed set of commands in-process through ``atckit.cli.main`` and
compares every output with the copy recorded under ``tests/golden/``. The
benchmark and the ``doc-reg`` estimate, the outputs that reach LAPACK, are
also run through ``python -m atckit.cli`` in fresh processes.
Regenerate the recordings only for an intentional output change, with
``PYTHONPATH=src python tests/test_golden.py``, and say why in the change
log.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import atckit
from atckit.cli import main

GOLDEN = Path(__file__).parent / "golden"

BENCHMARK = [
    "benchmark", "--synthetic", "--k", "2", "3", "6", "--n", "300",
    "--methods", "max", "negent", "l2n", "l1u", "l2u", "js", "doc", "doc-reg",
    "--boot", "20", "--seed", "4", "--pairwise",
]
VERIFY_SETTINGS = ["--points", "200", "--budget", "5000", "--seed", "3"]
VERIFY = {
    "verify-k2.txt": ["verify", "--k", "2", *VERIFY_SETTINGS],
    "verify-k3.txt": ["verify", "--k", "3", *VERIFY_SETTINGS],
    "verify-k4-js-max.txt": ["verify", "--k", "4", "--pair", "js,max", *VERIFY_SETTINGS],
    # the only golden of a full report above k = 3: six kernels, one non-trivial class
    "verify-k6.txt": ["verify", "--k", "6", *VERIFY_SETTINGS],
    # two points cannot separate l2n from max, so the witness comes from the search pool
    "verify-k6-l2n-max.txt": [
        "verify", "--k", "6", "--pair", "l2n,max",
        "--points", "2", "--budget", "5000", "--seed", "3",
    ],
}
DUMPS = {
    "source.csv": ["generate", "--k", "5", "--n", "300", "--seed", "1"],
    "target.csv": ["generate", "--k", "5", "--n", "300", "--temperature", "1.5", "--seed", "2"],
}
# the only goldens of generate's own bytes, at a temperature other than 1 and
# with a label prior; about half the rows miss on the first draw and are redrawn
SHIFTED = ["generate", "--k", "5", "--n", "200", "--concentration", "2",
           "--temperature", "1.2", "--label-prior", "0.4,0.3,0.1,0.1,0.1", "--seed", "1"]
GENERATE = {"generate-shifted.csv": SHIFTED, "generate-shifted.json": SHIFTED}
ESTIMATE = {
    "estimate-atc-all.txt": ["--score", "all", "--boot", "10"],
    "estimate-doc-reg.txt": ["--method", "doc-reg", "--boot", "10"],
    "estimate-doc-error.txt": ["--method", "doc", "--convention", "error", "--boot", "5"],
}
NAMES = (
    "benchmark-runs.csv", "benchmark-aggregate.csv", "benchmark-stdout.txt",
    *VERIFY, *ESTIMATE, *GENERATE,
)


def _stdout_of(argv) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buffer.getvalue().encode()


def _fresh_stdout_of(argv) -> bytes:
    """``python -m atckit.cli`` in a fresh process, which loads numpy itself."""
    src = str(Path(atckit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run(
        [sys.executable, "-m", "atckit.cli", *argv], capture_output=True, env={**env, "PYTHONPATH": src},
    )
    assert result.returncode == 0, f"{argv} exited {result.returncode}: {result.stderr.decode()}"
    return result.stdout


def _record_benchmark(run, workdir: Path) -> dict:
    bench_dir = workdir / "benchmark"
    stdout = run(BENCHMARK + ["--out-dir", str(bench_dir)])
    return {
        # the last line names the output directory, which differs per run
        "benchmark-stdout.txt": b"".join(
            line for line in stdout.splitlines(keepends=True) if not line.startswith(b"wrote ")
        ),
        "benchmark-runs.csv": (bench_dir / "runs.csv").read_bytes(),
        "benchmark-aggregate.csv": (bench_dir / "aggregate.csv").read_bytes(),
    }


def _estimate_pair(run, workdir: Path) -> list:
    for name, argv in DUMPS.items():
        run(argv + ["--out", str(workdir / name)])
    return ["estimate", "--source", str(workdir / "source.csv"), "--target", str(workdir / "target.csv")]


def record(workdir: Path) -> dict:
    """Run every golden command under ``workdir``; output name -> bytes."""
    out = _record_benchmark(_stdout_of, workdir)
    for name, argv in VERIFY.items():
        out[name] = _stdout_of(argv)
    for name, argv in GENERATE.items():
        _stdout_of(argv + ["--out", str(workdir / name)])
        out[name] = (workdir / name).read_bytes()
    pair = _estimate_pair(_stdout_of, workdir)
    for name, flags in ESTIMATE.items():
        out[name] = _stdout_of(pair + flags)
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return record(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


def test_fresh_cli_process_matches_golden(tmp_path):
    # pytest has loaded numpy with its full BLAS thread pool; the CLI loads it with one
    out = _record_benchmark(_fresh_stdout_of, tmp_path)
    pair = _estimate_pair(_fresh_stdout_of, tmp_path)
    out["estimate-doc-reg.txt"] = _fresh_stdout_of(pair + ESTIMATE["estimate-doc-reg.txt"])
    assert out == {name: (GOLDEN / name).read_bytes() for name in out}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in record(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name} ({len(data)} bytes)", file=sys.stderr)
