"""The four benchmark workloads: inputs, atckit argv and output checks.

Each workload is one ``atckit`` CLI call. ``prepare`` writes whatever the
call reads (only ``estimate-wide`` reads files) and returns a record of
the input shapes and bytes on disk; ``expect`` computes, once per run and
outside every timed region, what ``check`` compares the outputs against.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from checks import (
    CheckFailed,
    check_benchmark,
    check_dump,
    check_estimates,
    check_verify,
    read_dump,
)
from oracle import expected_estimates


class Workload:
    """Defaults for a workload whose call reads no files and needs no precomputed answer."""

    name = ""

    def prepare(self, work: Path, seed: int) -> dict:
        return {"bytes_on_disk": 0}

    def expect(self, work: Path, seed: int):
        return None

    def reset(self, work: Path) -> None:
        pass


class BenchSynth(Workload):
    """Bootstrap benchmark over synthetic pairs: the only path through harness and DoC."""

    name = "bench-synth"
    dims = (2, 3, 6)
    n = 2000
    methods = ("max", "negent", "l2n", "l1u", "l2u", "js", "doc", "doc-reg")
    boot = 50

    def prepare(self, work: Path, seed: int) -> dict:
        (work / "out").mkdir(exist_ok=True)
        return {
            "generated_in_process": [[self.n, k] for k in self.dims for _ in ("source", "target")],
            "rows": 2 * self.n * len(self.dims),
            "bytes_on_disk": 0,
        }

    def argv(self, work: Path, seed: int) -> list[str]:
        return [
            "benchmark", "--synthetic", "--k", *map(str, self.dims), "--n", str(self.n),
            "--methods", *self.methods, "--seed", str(seed), "--boot", str(self.boot),
            "--out-dir", str(work / "out"),
        ]

    def reset(self, work: Path) -> None:
        for name in ("runs.csv", "aggregate.csv"):
            (work / "out" / name).unlink(missing_ok=True)

    def check(self, work: Path, stdout: str, expected) -> None:
        out = work / "out"
        check_benchmark(out / "runs.csv", out / "aggregate.csv", self.dims, self.methods, self.boot)


def write_labeled_dump(path: Path, rng: np.random.Generator, k: int, n: int) -> None:
    """Dirichlet rows, concentration 30 on a designated class that is the label 75% of the time."""
    labels = rng.integers(0, k, size=n)
    correct = rng.random(n) < 0.75
    designated = np.where(correct, labels, (labels + rng.integers(1, k, size=n)) % k)
    alpha = np.ones((n, k))
    alpha[np.arange(n), designated] = 30.0
    draws = rng.standard_gamma(alpha)
    probs = draws / draws.sum(axis=1, keepdims=True)
    header = ",".join([f"p{i}" for i in range(k)] + ["label"])
    np.savetxt(
        path, np.column_stack([probs, labels]), fmt=["%.12g"] * k + ["%d"],
        delimiter=",", header=header, comments="",
    )


class EstimateWide(Workload):
    """Point estimates with all six scores on a labeled dump pair at ImageNet width."""

    name = "estimate-wide"
    k = 1000
    n = 1000

    def prepare(self, work: Path, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        record = {}
        for name in ("src.csv", "tgt.csv"):
            write_labeled_dump(work / name, rng, self.k, self.n)
            record[name] = {"shape": [self.n, self.k], "bytes_on_disk": (work / name).stat().st_size}
        return record

    def argv(self, work: Path, seed: int) -> list[str]:
        return ["estimate", "--source", str(work / "src.csv"), "--target", str(work / "tgt.csv"), "--score", "all"]

    def expect(self, work: Path, seed: int) -> dict:
        source, labels = read_dump(work / "src.csv")
        target, _ = read_dump(work / "tgt.csv")
        return expected_estimates(source, labels, target)

    def check(self, work: Path, stdout: str, expected: dict) -> None:
        check_estimates(stdout, expected, self.n)


class VerifyK3(Workload):
    """Order-equivalence verification at k=3, the paper's central claim."""

    name = "verify-k3"
    points = 2000
    budget = 1_000_000

    def prepare(self, work: Path, seed: int) -> dict:
        return {"sampled_points": [self.points, 3], "search_budget_pairs": self.budget, "bytes_on_disk": 0}

    def argv(self, work: Path, seed: int) -> list[str]:
        return ["verify", "--k", "3", "--points", str(self.points), "--budget", str(self.budget), "--seed", str(seed)]

    def check(self, work: Path, stdout: str, expected) -> None:
        check_verify(stdout)


class GenerateWide(Workload):
    """Synthetic dump written at ImageNet width: the write side of io."""

    name = "generate-wide"
    k = 1000
    n = 1000

    def __init__(self):
        self._checked_digest = None

    def argv(self, work: Path, seed: int) -> list[str]:
        return [
            "generate", "--k", str(self.k), "--n", str(self.n), "--temperature", "1.2",
            "--seed", str(seed), "--out", str(work / "gen.csv"),
        ]

    def reset(self, work: Path) -> None:
        (work / "gen.csv").unlink(missing_ok=True)

    def check(self, work: Path, stdout: str, expected) -> None:
        # the same seed must give the same bytes, so a full parse of the
        # first output vouches for every later output with its digest
        digest = hashlib.sha256((work / "gen.csv").read_bytes()).hexdigest()
        if self._checked_digest is None:
            check_dump(work / "gen.csv", self.k, self.n)
            self._checked_digest = digest
        elif digest != self._checked_digest:
            raise CheckFailed("generate wrote different bytes for the same seed")


WORKLOADS = {w.name: w for w in (BenchSynth, EstimateWide, VerifyK3, GenerateWide)}
