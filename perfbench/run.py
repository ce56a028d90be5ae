"""atckit end-to-end benchmark: one CLI call per sample, in a fresh process.

Usage (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each ``atckit`` call starts after the previous
one has exited, so at most one call runs at a time. A run sets the
workload up ``SETUP_REPEATS`` times (inputs plus a warm-up import of the
package), then calls the CLI until ``--seconds`` have passed (and at
least ``MIN_CALLS`` times), checking every call's output. With
``--trace 1`` one more call runs in-process under ``traced_cli.py`` and
its spans give the per-layer metrics.

The last line of standard output is the result object; the line before
it holds the per-call samples, the environment and the input record.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

from checks import verdict
from tracing import layer_metrics
from workloads import WORKLOADS

SETUP_REPEATS = 3
MIN_CALLS = 3
CALL_TIMEOUT_S = 60.0
#: No new call starts after this many seconds of measuring, whatever --seconds says.
MAX_LOOP_S = 90.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI = [sys.executable, "-m", "atckit.cli"]


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str


def atckit_env() -> dict:
    """The caller's environment with the checkout's ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def spawn(cmd: list[str], env: dict, work: Path) -> Call:
    """Run ``cmd`` to completion; wall time from spawn to exit, rusage of that child alone."""
    out_path, err_path = work / "call.stdout", work / "call.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(CALL_TIMEOUT_S * 1000)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
        timed_out=timed_out,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def problem_with(call: Call, workload, work: Path, expected) -> str | None:
    if call.timed_out:
        return f"timed out after {CALL_TIMEOUT_S:g} s"
    if call.returncode != 0:
        return f"exit code {call.returncode}: {call.stderr.strip()[-500:]}"
    return verdict(workload.check, work, call.stdout, expected)


def _read(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    head = _read(ROOT / ".git" / "HEAD")
    commit = None
    if head and head.startswith("ref: "):
        commit = (_read(ROOT / ".git" / head[5:].strip()) or "").strip() or None
    elif head:
        commit = head.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit or "unknown (checkout is not a git repository)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "atckit" / "cli.py").is_file():
        print(f"perfbench: no atckit sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = atckit_env()

    failures = []
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.prepare(work, args.seed)
        warm = spawn([sys.executable, "-c", "import atckit.cli"], env, work)
        setup.append(time.perf_counter() - start)
        if warm.returncode != 0:
            failures.append(f"warm-up import failed: {warm.stderr.strip()[-500:]}")
    expected = workload.expect(work, args.seed)

    argv_cli = workload.argv(work, args.seed)
    calls = []
    failed = 0
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < min(args.seconds, MAX_LOOP_S):
        workload.reset(work)
        call = spawn(CLI + argv_cli, env, work)
        calls.append(call)
        problem = problem_with(call, workload, work, expected)
        if problem:
            failed += 1
            failures.append(f"call {len(calls)}: {problem}")
    attempted = len(calls)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": ["atckit", *argv_cli],
        "loop": "closed, one client, one call at a time",
        "samples": len(calls),
        "median_wall_s": statistics.median(c.wall_s for c in calls),
        "median_cpu_s": statistics.median(c.cpu_s for c in calls),
        "wall_s": [c.wall_s for c in calls],
        "cpu_s": [c.cpu_s for c in calls],
        "peak_rss_mb": [c.peak_rss_mb for c in calls],
        "setup_s": setup,
        "inputs": inputs,
        "environment": environment(),
    }
    if args.trace:
        workload.reset(work)
        spans_path = work / "spans.json"
        run_id = f"{args.workload}-{args.seed}"
        traced = spawn([sys.executable, str(HERE / "traced_cli.py"), str(spans_path), run_id, "--", *argv_cli],
                       env, work)
        attempted += 1
        problem = problem_with(traced, workload, work, expected)
        if problem:
            failed += 1
            failures.append(f"traced call: {problem}")
        spans = json.loads(spans_path.read_text()) if spans_path.is_file() else []
        metrics, layer_self = layer_metrics(spans, traced.wall_s, detail["median_wall_s"])
        detail.update(
            traced_wall_s=traced.wall_s,
            spans=len(spans),
            layer_self_s=layer_self,
            busiest_layer=max(layer_self, key=layer_self.get) if layer_self else None,
            waiting="none: atckit is single-threaded, so no layer waits on another",
        )
    else:
        # Other tenants of the host only ever add time to a call, so the
        # fastest call of a run is the program's own cost; see README.md.
        metrics = {
            "wall_s": min(c.wall_s for c in calls),
            "cpu_s": min(c.cpu_s for c in calls),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in calls),
            "setup_s": statistics.median(setup),
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    for failure in failures:
        print(f"perfbench: {args.workload}: {failure}", file=sys.stderr)
    if not failures:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
