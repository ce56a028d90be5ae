"""Planted-defect audit of the tier-1 suite: which one-line defects does it miss?

Each entry of ``MUTANTS`` changes one line of ``src/atckit/``: its old text
must occur exactly once in its file. The script applies each mutant alone
to a fresh copy of the repository in a temporary directory and runs the
tier-1 suite there with ``-x`` and a fixed Hypothesis seed. Criterion 10
fails on every tree, as ROADMAP.md documents, so it is deselected: any
other failing test, or a collection error, kills the mutant. The unmutated
copy runs first and must pass, or no verdict means anything. A mutated
suite that runs three times as long as the unmutated one (a mutant that
makes a loop spin) is killed with every process it started, and the
mutant counts as killed by the timeout.

It is not a tier-1 test (pytest does not collect it), since every mutant
costs a suite run of up to a minute. From the repository root:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only these

It prints one line per mutant and exits 1 if any survived.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION_10 = "tests/test_acceptance.py::test_criterion_10_thresholded_estimator_vs_confidence_gap_baseline"
_LEFT_BEHIND = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")
#: A mutated suite may take this many times the unmutated run (copy included) before it is killed.
_TIMEOUT_FACTOR = 3

#: name -> (file under src/atckit/, old text, new text)
MUTANTS = {
    # the threshold rule
    "target-count-not-strict": ("atc.py", 'candidates, side="left")', 'candidates, side="right")'),
    "estimate-target-not-strict": ("atc.py", "scores < model.threshold", "scores <= model.threshold"),
    "pick-tie-to-the-right": (
        "atc.py", "gamma - proportions[best - 1] <= proportion - gamma", "gamma - proportions[best - 1] < proportion - gamma",
    ),
    "sentinel-proportion-0": ("atc.py", "if best < kept.size else 1.0", "if best < kept.size else 0.0"),
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
    "mismatch-names-the-target-twice": (
        "harness.py", 'DimensionError(f"{source_path} has k=', 'DimensionError(f"{target_path} has k=',
    ),
    "mismatch-source-k-against-itself": ("harness.py", "if source.k != target.k:", "if source.k != source.k:"),
    "summary-summarized-again": ("harness.py", "if isinstance(data, _Summary):", "if False:"),
    # the suite summarizes each pair as it reads it, so it holds one pair's matrices at a time
    "suite-keeps-pairs-unsummarized": (
        "harness.py",
        "by_k[test.k] = (_summarize(source_val, kernels), _summarize(test, kernels))",
        "by_k[test.k] = (source_val, test)",
    ),
    "doc-reg-seed": (
        "harness.py",
        "_resample_blocks(len(source), _sub_seed(seed, 1), calibration_sets)",
        "_resample_blocks(len(source), _sub_seed(seed, 2), calibration_sets)",
    ),
    # the percentile interval, taken without np.quantile
    "lerp-half-way-lower-form": ("harness.py", "if t < 0.5 else", "if t <= 0.5 else"),
    "quantile-no-last-value-clamp": ("harness.py", "    if at < n - 1:\n", "    if True:\n"),
    "rank-without-rounding": ("harness.py", "round(r.mean_abs_error, RANK_DECIMALS)", "r.mean_abs_error"),
    "row-sum-unsorted": ("scores.py", "    terms.sort(axis=1)\n", "    None\n"),
    "js-branch-bounds": ("scores.py", "(0.5 < out) & (out < 2.0)", "(0.25 < out) & (out < 2.0)"),
    # a one-row block transposes to (k, 1), whose outer axis numpy sums pairwise
    "row-sum-one-row-reduced": ("scores.py", "    if n == 1:\n", "    if False:\n"),
    # the logs run unmasked, and one rule turns the NaN of 0 * log(0) into 0
    "zero-rule-skipped": ("scores.py", "    logs[x == 0.0] = 0.0\n", "    pass\n"),
    "negative-clamp-to-abs": ("simplex.py", "probs[probs < 0.0] = 0.0", "probs[probs < 0.0] *= -1.0"),
    # the scans that validate_matrix runs only on demand
    "non-finite-scan-skipped": (
        "simplex.py", "if not np.isfinite(sums).all() and not np.all(np.isfinite(probs)):", "if False:",
    ),
    "clamp-not-resummed": ("simplex.py", "            sums = probs.sum(axis=1)\n", "            pass\n"),
    "equality-tolerance-strict": ("ordering.py", "np.abs(delta) <= eps", "np.abs(delta) < eps"),
    # the sort-based consistency check
    "prefix-tolerance-not-strict": (
        "ordering.py", "sa[rows] - sa[end[rows] - 1] > eps", "sa[rows] - sa[end[rows] - 1] >= eps",
    ),
    "prefix-max-one-late": ("ordering.py", "top[end[rows] - 1]", "top[end[rows]]"),
    "prefix-search-side": ("ordering.py", 'sa - eps, side="right")', 'sa - eps, side="left")'),
    # makes _gap_not_kept's step-back loop spin for ever: killed by the timeout
    "group-start-side-spins": ("ordering.py", 'np.searchsorted(sa, sa, side="left")', 'np.searchsorted(sa, sa, side="right")'),
    # the witness rule and the byte bound that replaced the point cap
    "witness-partner-one-late": ("ordering.py", "np.argmax(sb[: end[r]])", "np.argmax(sb[: end[r] + 1])"),
    "witness-gap-strict": ("ordering.py", "np.any(gap <= eps)", "np.any(gap < eps)"),
    "witness-direction-b-first": (
        "ordering.py",
        "_gap_not_kept(va, vb, eps) or _gap_not_kept(vb, va, eps)",
        "_gap_not_kept(vb, va, eps) or _gap_not_kept(va, vb, eps)",
    ),
    "byte-bound-strict": ("ordering.py", "if need > _MAX_CHECK_BYTES:", "if need >= _MAX_CHECK_BYTES:"),
    # the one verdict loop: scores shared by the pairs, one pool for every unresolved pair
    "pool-pairs-from-the-sample": (
        "ordering.py",
        "verdicts[pair].pairs_checked + verdict.pairs_checked",
        "verdicts[pair].pairs_checked + verdicts[pair].pairs_checked",
    ),
    "pair-scored-by-one-function": ("ordering.py", "va, vb = scores[i], scores[j]", "va, vb = scores[i], scores[i]"),
    # the seed rule
    "sub-stream-index-first": ("simplex.py", "return [*np.ravel(seed), j]", "return [j, *np.ravel(seed)]"),
    "cli-seed-bound-off-by-one": ("cli.py", "if args.seed < 0:", "if args.seed < -1:"),
    # verify judges a --pair by the predicted classes restricted to the two functions
    "verify-pair-unrestricted": ("cli.py", "{cls & ids for cls in", "{cls for cls in"),
    "int-seed-allows-minus-one": ("simplex.py", "negative = seed < 0", "negative = seed < -1"),
    # the one resampler and the one monotone transform family
    "resample-skips-row-0": ("simplex.py", "rng.integers(0, n, size=", "rng.integers(1, n, size="),
    "transform-allows-even-exponent": (
        "scores.py", "self.exponent < 1 or self.exponent % 2 == 0", "self.exponent < 1",
    ),
    # parse, validate, generate, fork and exit codes
    "header-allows-one-class": ("io.py", "if len(prob_cols) < 2 or", "if len(prob_cols) < 1 or"),
    "lone-cr-left-in-line": ("io.py", 'if line.find(b"\\r", 0, end) < 0:', "if True:"),
    "label-range-off-by-one": ("io.py", "if not 0 <= label < k:", "if not 0 <= label <= k:"),
    "row-sum-tolerance-strict": ("simplex.py", "np.abs(sums - 1.0) > tolerance", "np.abs(sums - 1.0) >= tolerance"),
    "forced-argmax-loses-its-margin": ("synth.py", "= 0.5 + eps", "= 0.5 - eps"),
    "fork-on-one-cpu": ("harness.py", "len(os.sched_getaffinity(0)) >= 2", "len(os.sched_getaffinity(0)) >= 1"),
    "input-error-exit-code": ("cli.py", "_EXIT_INPUT_ERROR = 2", "_EXIT_INPUT_ERROR = 3"),
    # the start-up of a fresh CLI process
    "library-caller-frozen": ("_startup.py", "_held = _fresh and gc.isenabled()", "_held = gc.isenabled()"),
    "collector-left-off": ("_startup.py", "        gc.enable()\n", "        pass\n"),
}


def _apply(tree: Path, name: str) -> None:
    file, old, new = MUTANTS[name]
    path = tree / "src" / "atckit" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {file}, not once")
    path.write_text(text.replace(old, new))


def _suite(tree: Path, timeout: float | None) -> tuple[int | None, str]:
    """Tier-1 in ``tree``: pytest's exit code (None past ``timeout`` seconds) and
    the first test that failed or errored.

    pytest runs in a session of its own, and its whole process group is
    killed when it returns or times out, so no child it started (a fresh
    CLI process, a forked ``estimate`` worker) is left running.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--hypothesis-seed=0", "--deselect", CRITERION_10],
        cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the group has already ended
        pass
    if stdout is None:
        proc.communicate()  # reap pytest
        return None, ""
    failed = [line.split()[1] for line in stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed[0] if failed else ""


def _run(name: str | None, timeout: float | None = None) -> tuple[int | None, str]:
    """:func:`_suite` on a fresh copy of the repository with mutant ``name`` applied (None: none)."""
    with tempfile.TemporaryDirectory(prefix="atckit-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_LEFT_BEHIND)
        if name is not None:
            _apply(tree, name)
        return _suite(tree, timeout)


def main(names) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; choose from {list(MUTANTS)}")
    start = time.perf_counter()
    code, first = _run(None)
    if code != 0:
        print(f"the unmutated tree fails (pytest exit {code}, {first or 'no test named'}): no verdict")
        return 2
    timeout = _TIMEOUT_FACTOR * (time.perf_counter() - start)
    survivors = []
    for name in names or MUTANTS:
        code, first = _run(name, timeout)
        if code is None:
            print(f"killed (timeout) {name}: no result within {timeout:.0f} s", flush=True)
        elif code == 0:
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
