"""Planted-defect audit of the tier-1 suite: which one-line defects does it miss?

Each entry of ``MUTANTS`` changes one line of ``src/atckit/``: its old text
must occur exactly once in its file. The script applies each mutant alone
to a fresh copy of the repository in a temporary directory and runs the
tier-1 suite there with ``-x`` and a fixed Hypothesis seed. Criterion 10
fails on every tree, as ROADMAP.md documents, so it is deselected: any
other failing test, or a collection error, kills the mutant. The unmutated
copy runs first and must pass, or no verdict means anything.

It is not a tier-1 test (pytest does not collect it), since every mutant
costs a suite run of up to a minute. From the repository root:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only these

It prints one line per mutant and exits 1 if any survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION_10 = "tests/test_acceptance.py::test_criterion_10_thresholded_estimator_vs_confidence_gap_baseline"
_LEFT_BEHIND = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")

#: name -> (file under src/atckit/, old text, new text)
MUTANTS = {
    # the threshold rule
    "target-count-not-strict": ("atc.py", 'candidates, side="left")', 'candidates, side="right")'),
    "estimate-target-not-strict": ("atc.py", "scores < model.threshold", "scores <= model.threshold"),
    "ties-to-largest-threshold": (
        "atc.py",
        "best = int(np.argmin(np.abs(gamma - proportions)))",
        "best = proportions.size - 1 - int(np.argmin(np.abs(gamma - proportions)[::-1]))",
    ),
    "sentinel-proportion-0": ("atc.py", "/ total[-1], 1.0)", "/ total[-1], 0.0)"),
    "resample-bincount-no-minlength": (
        "atc.py", "np.bincount(ranks[idx], minlength=candidates.size - 1)", "np.bincount(ranks[idx])",
    ),
    "atc-estimate-skips-source-check": (
        "atc.py", "_source_scores(score_batch(source, fn))", "np.ravel(score_batch(source, fn))",
    ),
    "atc-estimate-skips-target-check": (
        "atc.py", "_target_scores(score_batch(target, fn))", "np.ravel(score_batch(target, fn))",
    ),
    # loading, scoring, the engine and aggregation
    "load-summaries-drops-renormalize": (
        "harness.py", "load_dump(path, renormalize)", "load_dump(path)",
    ),
    "doc-reg-seed": (
        "harness.py",
        "_resample_blocks(len(source), [seed, 1], calibration_sets)",
        "_resample_blocks(len(source), [seed, 2], calibration_sets)",
    ),
    "rank-without-rounding": ("harness.py", "round(r.mean_abs_error, RANK_DECIMALS)", "r.mean_abs_error"),
    "row-sum-unsorted": ("scores.py", "    terms.sort(axis=1)\n", "    None\n"),
    "js-branch-bounds": ("scores.py", "(0.5 < out) & (out < 2.0)", "(0.25 < out) & (out < 2.0)"),
    "negative-clamp-to-abs": ("simplex.py", "probs[probs < 0.0] = 0.0", "probs[probs < 0.0] *= -1.0"),
    "equality-tolerance-strict": ("ordering.py", "np.abs(delta) <= eps", "np.abs(delta) < eps"),
    # the sort-based consistency check
    "prefix-tolerance-not-strict": (
        "ordering.py", "sa[rows] - sa[end[rows] - 1] > eps", "sa[rows] - sa[end[rows] - 1] >= eps",
    ),
    "prefix-max-one-late": ("ordering.py", "top[end[rows] - 1]", "top[end[rows]]"),
    "prefix-search-side": ("ordering.py", 'sa - eps, side="right")', 'sa - eps, side="left")'),
}


def _apply(tree: Path, name: str) -> None:
    file, old, new = MUTANTS[name]
    path = tree / "src" / "atckit" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {file}, not once")
    path.write_text(text.replace(old, new))


def _suite(tree: Path) -> tuple[int, str]:
    """Tier-1 in ``tree``: pytest's exit code and the first test that failed or errored."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--hypothesis-seed=0", "--deselect", CRITERION_10],
        cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True,
        text=True,
    )
    failed = [line.split()[1] for line in result.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return result.returncode, failed[0] if failed else ""


def _run(name: str | None) -> tuple[int, str]:
    """:func:`_suite` on a fresh copy of the repository with mutant ``name`` applied (None: none)."""
    with tempfile.TemporaryDirectory(prefix="atckit-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_LEFT_BEHIND)
        if name is not None:
            _apply(tree, name)
        return _suite(tree)


def main(names) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; choose from {list(MUTANTS)}")
    start = time.perf_counter()
    code, first = _run(None)
    if code != 0:
        print(f"the unmutated tree fails (pytest exit {code}, {first or 'no test named'}): no verdict")
        return 2
    survivors = []
    for name in names or MUTANTS:
        code, first = _run(name)
        if code == 0:
            survivors.append(name)
            print(f"SURVIVED {name}", flush=True)
        elif code == 1:
            print(f"killed   {name}: {first}", flush=True)
        else:
            raise SystemExit(f"{name}: pytest exited {code}, which is neither a pass nor a failure")
    print(f"{len(survivors)} of {len(names or MUTANTS)} survived in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
