#!/usr/bin/env python3
"""File formats and the command line, end to end.

Everything the library does is reachable from the `atckit` CLI over
prediction-dump files, so it can sit in a shell pipeline next to
whatever produced the softmax matrices. This demo generates dumps,
estimates from them, runs a small benchmark, and checks the ordering
structure, all through subprocess calls.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

scratch = tempfile.TemporaryDirectory(prefix="atckit-cli-")  # also removed if a step fails
work = Path(scratch.name)


def run(*args, expect=0):
    cmd = [sys.executable, "-m", "atckit.cli", *args]
    print(f"$ atckit {' '.join(args)}")
    result = subprocess.run(cmd, capture_output=True, text=True)
    output = (result.stdout + result.stderr).rstrip()
    print("\n".join("  " + line for line in output.splitlines()))
    assert result.returncode == expect, f"exit {result.returncode}, expected {expect}"
    print()
    return result


# 1. Write a labeled validation dump and a softened deployment dump.
run("generate", "--k", "4", "--n", "1200", "--accuracy", "0.85", "--seed", "1",
    "--out", str(work / "validation.csv"))
run("generate", "--k", "4", "--n", "1200", "--accuracy", "0.85", "--temperature", "1.1",
    "--seed", "2", "--out", str(work / "deployment.csv"))

print("dump format: header p0..p{k-1}[,label], 12 significant digits")
print("\n".join("  " + line for line in
                (work / "validation.csv").read_text().splitlines()[:3]))
print()

# 2. Point estimates with every score function, plus bootstrap spread.
run("estimate", "--source", str(work / "validation.csv"),
    "--target", str(work / "deployment.csv"), "--score", "all")
run("estimate", "--source", str(work / "validation.csv"),
    "--target", str(work / "deployment.csv"), "--score", "max",
    "--boot", "100", "--seed", "7")

# 3. A small benchmark over two synthetic dimensions.
run("benchmark", "--synthetic", "--k", "2", "5", "--n", "800", "--boot", "100",
    "--seed", "3", "--out-dir", str(work / "bench"))

# 4. Ordering verification: exit code 0 means the observed equivalence
#    classes match what the estimator theory predicts for that k.
run("verify", "--k", "2", "--points", "500", "--budget", "20000", "--seed", "0")

# 5. Input errors exit with code 2 and name the offending line.
bad = work / "broken.csv"
bad.write_text("p0,p1\n0.9,0.1\n0.9,0.3\n")
run("estimate", "--source", str(bad), "--target", str(bad), expect=2)

scratch.cleanup()
print(f"artifacts in {work} removed")
