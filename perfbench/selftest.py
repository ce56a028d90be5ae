"""Self-tests for the output checks: none of them may be vacuous.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Each workload's CLI call runs once, at a small size where the size does
not matter to the check. Its check must accept the real output and then
reject a copy with one planted defect:

* ``bench-synth``: one ``l2u`` error in ``runs.csv`` changed;
* ``verify-k3``: a wrong ``classes:`` line;
* ``estimate-wide``: one printed estimate off by 2/n_target;
* ``generate-wide``: one dump row summing to 1.01.

Exits 1 if any check accepts a defect or rejects a real output.
"""

from __future__ import annotations

import shutil
import sys

from checks import check_dump, verdict
from run import CLI, ROOT, atckit_env, spawn
from workloads import BenchSynth, EstimateWide, GenerateWide, VerifyK3

SEED = 7


def plant_l2u(work, stdout):
    path = work / "out" / "runs.csv"
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if ",l2u," in line)
    head, value = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{abs(float(value) - 0.001):.12g}"
    path.write_text("\n".join(lines) + "\n")
    return stdout


def plant_classes(work, stdout):
    return stdout.replace('["l2n", "l2u"]', '["l2n"], ["l2u"]')


def plant_estimate(n_target):
    def plant(work, stdout):
        lines = stdout.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("atc-max"))
        label, pct = lines[i].split()
        lines[i] = f"{label:<10} {float(pct) + 100.0 * 2 / n_target:.2f}"
        return "\n".join(lines) + "\n"

    return plant


def plant_row_sum(work, stdout):
    path = work / "gen.csv"
    lines = path.read_text().splitlines()
    first, rest = lines[1].split(",", 1)
    lines[1] = f"{float(first) + 0.01!r},{rest}"
    path.write_text("\n".join(lines) + "\n")
    return stdout


def main() -> int:
    bench = BenchSynth()
    bench.n, bench.boot = 300, 3
    estimate = EstimateWide()
    estimate.k, estimate.n = 10, 400
    generate = GenerateWide()
    generate.k, generate.n = 10, 400
    cases = [
        (bench, plant_l2u, bench.check),
        (VerifyK3(), plant_classes, VerifyK3().check),
        (estimate, plant_estimate(estimate.n), estimate.check),
        (generate, plant_row_sum, lambda work, stdout, expected: check_dump(work / "gen.csv", generate.k, generate.n)),
    ]
    env = atckit_env()
    wrong = 0
    for workload, plant, check_planted in cases:
        work = ROOT / ".perfbench_work" / "selftest" / workload.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload.prepare(work, SEED)
        expected = workload.expect(work, SEED)
        call = spawn(CLI + workload.argv(work, SEED), env, work)
        problem = (
            f"exit code {call.returncode}: {call.stderr.strip()[-300:]}"
            if call.returncode != 0
            else verdict(workload.check, work, call.stdout, expected)
        )
        if problem:
            print(f"FAIL {workload.name}: real output rejected: {problem}")
            wrong += 1
            continue
        problem = verdict(check_planted, work, plant(work, call.stdout), expected)
        if problem:
            print(f"ok   {workload.name}: real output accepted; planted defect rejected: {problem}")
        else:
            print(f"FAIL {workload.name}: planted defect ({plant.__name__}) accepted")
            wrong += 1
    shutil.rmtree(ROOT / ".perfbench_work" / "selftest", ignore_errors=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
