"""Command line surface: flags, outputs, files, exit codes."""

import csv
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import atckit
import atckit.cli
from atckit import GeneratorSpec, Shift, generate, load_dump, make_shift_pair, write_dump
from atckit.cli import main
from atckit.harness import CANONICAL_METHODS
from atckit.scores import SCORE_IDS

from test_io import UNREADABLE


def _predicted_consistent(a: str, b: str, k: int) -> bool:
    """The rule ``verify --pair`` once had of its own: the two ids share a predicted class."""
    return any({a, b} <= cls for cls in atckit.cli._predicted_classes(k))


def _write_pair(tmp_path, k=2, n=150, seed=0, temperature=1.3):
    spec = GeneratorSpec(
        k=k, n=n, target_accuracy=0.8, concentration=5.0,
        shift=Shift(temperature=temperature), seed=seed,
    )
    source, target = make_shift_pair(spec)
    src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
    write_dump(source, src)
    write_dump(target, tgt)
    return src, tgt


class TestEstimate:
    def test_binary_pair_prints_six_identical_estimates(self, tmp_path, capsys):
        src, tgt = _write_pair(tmp_path, k=2)
        assert main(["estimate", "--source", str(src), "--target", str(tgt)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        values = {line.split()[1] for line in lines}
        assert len(values) == 1

    def test_quadratic_scores_agree_at_k5(self, tmp_path, capsys):
        src, tgt = _write_pair(tmp_path, k=5)
        main(["estimate", "--source", str(src), "--target", str(tgt), "--score", "l2n"])
        out_a = capsys.readouterr().out.split()
        main(["estimate", "--source", str(src), "--target", str(tgt), "--score", "l2u"])
        out_b = capsys.readouterr().out.split()
        assert out_a[1] == out_b[1]

    def test_doc_identity_returns_source_accuracy(self, tmp_path, capsys):
        src, _ = _write_pair(tmp_path, k=3)
        source = load_dump(src)
        from atckit import true_accuracy

        expected = f"{100 * true_accuracy(source).accuracy:.2f}"
        main(["estimate", "--source", str(src), "--target", str(src), "--method", "doc"])
        out = capsys.readouterr().out.split()
        assert out[0] == "doc" and out[1] == expected

    def test_error_convention_flag(self, tmp_path, capsys):
        src, tgt = _write_pair(tmp_path, k=2)
        main(["estimate", "--source", str(src), "--target", str(tgt), "--score", "max"])
        acc = float(capsys.readouterr().out.split()[1])
        main(
            ["estimate", "--source", str(src), "--target", str(tgt), "--score", "max",
             "--convention", "error"]
        )
        err = float(capsys.readouterr().out.split()[1])
        assert acc + err == pytest.approx(100.0, abs=0.02)

    def test_regression_baseline_runs(self, tmp_path, capsys):
        src, tgt = _write_pair(tmp_path, k=3)
        code = main(
            ["estimate", "--source", str(src), "--target", str(tgt), "--method", "doc-reg",
             "--seed", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out.split()
        assert out[0] == "doc-reg"
        assert 0.0 <= float(out[1]) <= 100.0

    def test_bootstrap_summary_appended(self, tmp_path, capsys):
        src, tgt = _write_pair(tmp_path, k=2, n=80)
        main(
            ["estimate", "--source", str(src), "--target", str(tgt), "--score", "max",
             "--boot", "20", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert "boot" in out and "[" in out

    def test_bootstrap_uses_the_benchmark_run_seeds(self, tmp_path, capsys):
        # run i resamples with derive_seed(seed, k, i), and doc-reg calibrates
        # from that same run seed, exactly as in the benchmark harness
        from atckit.harness import bootstrap_resample, derive_seed, summarize
        from per_set_reference import estimate_metric

        src, tgt = _write_pair(tmp_path, k=3, n=120)
        main(["estimate", "--source", str(src), "--target", str(tgt), "--method", "doc-reg",
              "--boot", "5", "--seed", "7"])
        source, target = load_dump(src), load_dump(tgt)
        seeds = [derive_seed(7, 3, i) for i in range(5)]
        values = [
            estimate_metric("doc-reg", bootstrap_resample(source, s), target, s).accuracy
            for s in seeds
        ]
        mean, lo, hi = (f"{100.0 * x:.2f}" for x in summarize(values))
        assert capsys.readouterr().out.split("boot")[1].strip() == f"{mean} [{lo},{hi}]"

    def test_unlabeled_source_is_input_error(self, tmp_path, capsys):
        data = generate(GeneratorSpec(k=2, n=10, target_accuracy=0.9, seed=0))
        unlabeled = type(data)(data.probs)
        src = tmp_path / "u.csv"
        write_dump(unlabeled, src)
        code = main(["estimate", "--source", str(src), "--target", str(src)])
        assert code == 2
        assert "label" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(
            ["estimate", "--source", str(tmp_path / "nope.csv"), "--target", str(tmp_path / "nope.csv")]
        )
        assert code == 2

    def test_bad_row_reports_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("p0,p1,label\n0.9,0.1,0\n0.5,0.6,1\n")
        code = main(["estimate", "--source", str(src), "--target", str(src)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["--source", "--target"])
    @pytest.mark.parametrize(
        "text, reason",
        [
            ("p0,p1,label\n0.9,0.1,0\n0.7,0.7,1\n", "line 3: components sum to 1.4, "),
            ("", "empty file\n"),
        ],
        ids=["bad-row", "empty"],
    )
    def test_bad_dump_named_by_path(self, tmp_path, capsys, side, text, reason):
        good, _ = _write_pair(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        paths = {"--source": good, "--target": good, side: bad}
        argv = ["estimate", *(x for flag, path in paths.items() for x in (flag, str(path)))]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {reason}")

    @pytest.mark.parametrize("name, content, reason", UNREADABLE, ids=[u[0] for u in UNREADABLE])
    def test_unreadable_dump_is_input_error(self, tmp_path, capsys, name, content, reason):
        bad = tmp_path / name
        bad.write_bytes(content)
        assert main(["estimate", "--source", str(bad), "--target", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: {reason}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", ["p0,p1,label\n", "p0,p1,label\n\n\r\n\n"], ids=["header", "blank-lines"])
    def test_no_data_rows_print_one_error_and_no_warning(self, tmp_path, text):
        # in a fresh process: pytest would catch a warning before it reached stderr
        bad = tmp_path / "no-rows.csv"
        bad.write_bytes(text.encode())
        src = str(Path(atckit.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "atckit.cli", "estimate", "--source", str(bad), "--target", str(bad)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {bad}: no data rows\n"

    def test_sum_past_the_float_range_prints_one_error_and_no_warning(self, tmp_path):
        # in a fresh process: pytest would catch numpy's overflow warning before it reached stderr
        bad = tmp_path / "huge.csv"
        bad.write_bytes(b"p0,p1,label\n1e308,1e308,0\n")
        src = str(Path(atckit.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "atckit.cli", "estimate", "--source", str(bad), "--target", str(bad)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {bad}: line 2: components sum to inf, further than 1e-06 from 1\n"

    @pytest.mark.parametrize(
        "payload",
        [{"probs": [[0.5, "x" * 100_000]]}, {"probs": [[0.5, 0.5]], "labels": ["x" * 100_000]}],
        ids=["probability", "label"],
    )
    def test_json_error_line_is_bounded(self, tmp_path, capsys, monkeypatch, payload):
        monkeypatch.chdir(tmp_path)
        Path("long.json").write_text(json.dumps(payload))
        assert main(["estimate", "--source", "long.json", "--target", "long.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: long.json: row 0: ") and err.count("\n") == 1
        assert len(err.encode()) < 200


#: Runs the CLI in a fresh process with the source always read by a forked worker,
#: then exits 99 if any child of that process is left unreaped.
_FORKED_CLI = (
    "import os, sys, atckit.harness\n"
    "atckit.harness._fork_pays = lambda path: True\n"
    "from atckit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "try:\n"
    "    os.waitpid(-1, os.WNOHANG)\n"
    "except ChildProcessError:\n"
    "    sys.exit(code)\n"
    "sys.exit(99)\n"
)

_ESTIMATE_FLAGS = [
    ["--score", "all"],
    *(["--score", s] for s in atckit.SCORE_IDS),
    ["--method", "doc"],
    ["--method", "doc-reg"],
    ["--boot", "3"],
    ["--strict-sums"],
    ["--convention", "error"],
]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEstimateWorker:
    """``estimate`` reads the source in a forked worker or in process, with the same outcome."""

    @staticmethod
    def _run(monkeypatch, capsys, fork, argv):
        """Exit code, stdout and stderr of ``main(argv)``, and how many workers it forked.

        Undoes every patch of the calling test once ``main`` returns.
        """
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(atckit.harness, "_fork_pays", lambda path: fork)
        monkeypatch.setattr(os, "fork", counting_fork)
        code = main(argv)
        captured = capsys.readouterr()
        monkeypatch.undo()
        _no_child_left()
        return code, captured.out, captured.err, len(forks)

    @pytest.mark.parametrize("flags", _ESTIMATE_FLAGS, ids=lambda f: "".join(f))
    @pytest.mark.parametrize("k", [2, 3, 1000])
    def test_stdout_is_byte_identical_either_way(self, tmp_path, monkeypatch, capsys, k, flags):
        src, tgt = _write_pair(tmp_path, k=k, n=60, seed=k)
        argv = ["estimate", "--source", str(src), "--target", str(tgt), "--seed", "5", *flags]
        forked = self._run(monkeypatch, capsys, True, argv)
        in_process = self._run(monkeypatch, capsys, False, argv)
        assert forked[3] == 1 and in_process[3] == 0
        assert forked[:3] == in_process[:3]
        assert forked[0] == 0 and forked[1]

    @staticmethod
    def _precedence_case(tmp_path, case):
        """(argv, the stderr it prints) for one input fault, given to ``estimate``, or with a
        ``pair-`` prefix to ``benchmark --pair``."""
        command, case = ("benchmark", case[5:]) if case.startswith("pair-") else ("estimate", case)
        good, _ = _write_pair(tmp_path)
        bad_source, bad_target = tmp_path / "bad-source.csv", tmp_path / "bad-target.csv"
        bad_source.write_text("p0,p1,label\n0.9,0.1,0\n0.7,0.7,1\n")
        bad_target.write_text("p0,p1\n0.5,0.5\n0.5,0.5\nx,0.5\n")
        unlabeled = tmp_path / "unlabeled.csv"
        write_dump(atckit.PredictionSet(load_dump(good).probs), unlabeled)
        target_error = f"error: {bad_target}: line 4: could not convert string to float: 'x'\n"
        if case == "both-bad":
            paths, err = (bad_source, bad_target), (
                f"error: {bad_source}: line 3: components sum to 1.4, further than 1e-06 from 1\n"
            )
        elif case == "target-bad":
            paths, err = (good, bad_target), target_error
        elif case == "unlabeled-source-bad-target":
            paths, err = (unlabeled, bad_target), target_error
        else:  # a k-mismatch names both files, and beats a missing source label
            (tmp_path / "k3").mkdir()
            other_k, _ = _write_pair(tmp_path / "k3", k=3)
            source = unlabeled if case.startswith("unlabeled") else good
            paths, err = (source, other_k), f"error: {source} has k=2 classes but {other_k} has k=3\n"
        if command == "estimate":
            return ["estimate", "--source", str(paths[0]), "--target", str(paths[1])], err
        return ["benchmark", "--pair", *map(str, paths), "--boot", "2", "--out-dir", str(tmp_path / "out")], err

    _FAULTS = ["both-bad", "target-bad", "unlabeled-source-bad-target", "k-mismatch", "unlabeled-source-k-mismatch"]
    _CASES = [*_FAULTS, *(f"pair-{fault}" for fault in _FAULTS)]

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
    @pytest.mark.parametrize("case", _CASES)
    def test_error_precedence(self, tmp_path, monkeypatch, capsys, case, fork):
        argv, err = self._precedence_case(tmp_path, case)
        assert self._run(monkeypatch, capsys, fork, argv) == (2, "", err, int(fork))
        assert not (tmp_path / "out").exists()

    def test_benchmark_pairs_are_byte_identical_either_way(self, tmp_path, monkeypatch, capsys):
        # and equal to the library's suite on the loaded sets
        pairs, out_dir = [], tmp_path / "out"
        for k in (3, 2):
            (tmp_path / f"k{k}").mkdir()
            pairs += ["--pair", *map(str, _write_pair(tmp_path / f"k{k}", k=k, n=60, seed=k))]
        argv = ["benchmark", *pairs, "--boot", "20", "--seed", "5", "--methods", *CANONICAL_METHODS,
                "--pairwise", "--out-dir", str(out_dir)]
        outputs = {}
        for fork in (True, False):
            code, out, err, forks = self._run(monkeypatch, capsys, fork, argv)
            assert (code, err, forks) == (0, "", 2 if fork else 0)
            outputs[fork] = [out, *((out_dir / name).read_bytes() for name in ("runs.csv", "aggregate.csv"))]
        assert outputs[True] == outputs[False]
        sets = [(load_dump(pairs[i + 1]), load_dump(pairs[i + 2])) for i in (0, 3)]
        config = atckit.BenchmarkConfig(methods=CANONICAL_METHODS, n_boot=20, master_seed=5)
        table = atckit.run_benchmark_suite(sets, config)
        atckit.write_runs_csv(table, tmp_path / "runs.csv")
        atckit.write_aggregate_csv(atckit.aggregate(table), tmp_path / "aggregate.csv")
        assert outputs[False][1:] == [(tmp_path / name).read_bytes() for name in ("runs.csv", "aggregate.csv")]

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
    def test_unlabeled_source_named(self, tmp_path, monkeypatch, capsys, fork):
        good, tgt = _write_pair(tmp_path)
        unlabeled = tmp_path / "unlabeled.csv"
        write_dump(atckit.PredictionSet(load_dump(good).probs), unlabeled)
        argv = ["estimate", "--source", str(unlabeled), "--target", str(tgt)]
        err = f"error: {unlabeled}: estimate needs a labeled source dump\n"
        assert self._run(monkeypatch, capsys, fork, argv) == (2, "", err, int(fork))

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
    def test_strict_sums_reaches_the_source_load(self, tmp_path, monkeypatch, capsys, fork):
        # a source row 1e-7 off is repaired by default and rejected under --strict-sums
        _, tgt = _write_pair(tmp_path)
        src = tmp_path / "off.csv"
        src.write_text("p0,p1,label\n0.5000001,0.5,0\n0.2,0.8,1\n0.7,0.3,0\n")
        argv = ["estimate", "--source", str(src), "--target", str(tgt)]
        code, out, err, forks = self._run(monkeypatch, capsys, fork, [*argv, "--strict-sums"])
        assert (code, out, forks) == (2, "", int(fork))
        assert err == f"error: {src}: line 2: components sum to 1.0000001, further than 1e-09 from 1\n"
        code, out, err, forks = self._run(monkeypatch, capsys, fork, argv)
        assert (code, err, forks) == (0, "", int(fork))
        assert len(out.splitlines()) == 6

    @staticmethod
    def _run_fresh(argv):
        """``atckit`` with the worker forced, in a fresh process that exits 99 on a child left over."""
        src = str(Path(atckit.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-c", _FORKED_CLI, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )

    @pytest.mark.parametrize("case", _CASES)
    def test_error_is_one_line_in_a_fresh_process(self, tmp_path, case):
        argv, err = self._precedence_case(tmp_path, case)
        result = self._run_fresh(argv)
        assert (result.returncode, result.stdout, result.stderr) == (2, "", err)

    def test_success_in_a_fresh_process_leaves_no_worker(self, tmp_path):
        src, tgt = _write_pair(tmp_path, k=3)
        result = self._run_fresh(["estimate", "--source", str(src), "--target", str(tgt)])
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.splitlines()) == 6

    def test_worker_that_dies_is_an_input_error_naming_the_source(self, tmp_path, monkeypatch, capsys):
        src, tgt = _write_pair(tmp_path)
        real_load, parent = atckit.harness.load_dump, os.getpid()

        def load_or_die(path, renormalize=True):
            if os.getpid() != parent:  # the worker, which reads the source
                os._exit(3)
            return real_load(path, renormalize)

        monkeypatch.setattr(atckit.harness, "load_dump", load_or_die)
        code, out, err, forks = self._run(
            monkeypatch, capsys, True, ["estimate", "--source", str(src), "--target", str(tgt)]
        )
        assert (code, out, forks) == (2, "", 1)
        assert err == f"error: {src}: the worker reading it exited with status 3\n"

    def test_no_process_to_spare_reads_in_turn(self, tmp_path, monkeypatch, capsys):
        src, tgt = _write_pair(tmp_path, k=3)
        argv = ["estimate", "--source", str(src), "--target", str(tgt)]
        expected = self._run(monkeypatch, capsys, False, argv)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(atckit.harness, "_fork_pays", lambda path: True)
        monkeypatch.setattr(os, "fork", no_fork)
        assert main(argv) == expected[0] == 0
        assert capsys.readouterr().out == expected[1]

    def test_forks_only_when_it_pays(self, tmp_path, monkeypatch):
        from atckit.harness import _FORK_MIN_BYTES, _fork_pays

        small, big = tmp_path / "small.csv", tmp_path / "big.csv"
        small.write_bytes(b"x" * (_FORK_MIN_BYTES - 1))
        big.write_bytes(b"x" * _FORK_MIN_BYTES)
        assert not _fork_pays(small) and not _fork_pays(tmp_path / "missing.csv")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert _fork_pays(big)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not _fork_pays(big)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, "fork")
        assert not _fork_pays(big)


class TestBenchmark:
    def test_synthetic_shape_contract(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["benchmark", "--synthetic", "--k", "6", "--n", "300", "--boot", "20",
             "--seed", "1", "--out-dir", str(out)]
        )
        assert code == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7  # six ATC variants + naive DoC, one dimension
        assert {r["dimension"] for r in rows} == {"6"}
        with open(out / "runs.csv") as fh:
            runs = list(csv.DictReader(fh))
        assert len(runs) == 7 * 20

    def test_byte_identical_reruns(self, tmp_path):
        # a rerun, and a run listing the dimensions in another order, write the same bytes
        args = ["benchmark", "--synthetic", "--n", "200",
                "--methods", "max", "l2n", "doc", "--boot", "30", "--seed", "9"]
        runs = {"a": ["--k", "2", "3", "6"], "b": ["--k", "2", "3", "6"], "c": ["--k", "6", "2", "3"]}
        for name, dims in runs.items():
            assert main(args + dims + ["--out-dir", str(tmp_path / name)]) == 0
        for csv_name in ("runs.csv", "aggregate.csv"):
            first, *others = ((tmp_path / name / csv_name).read_bytes() for name in runs)
            assert all(other == first for other in others), csv_name

    def test_dump_pairs_and_ranking_output(self, tmp_path, capsys):
        src, tgt = _write_pair(tmp_path, k=3, n=100)
        code = main(
            ["benchmark", "--pair", str(src), str(tgt), "--methods", "max", "doc",
             "--boot", "10", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wins per method" in out
        assert "max" in out and "doc" in out

    def test_needs_some_input(self, capsys):
        assert main(["benchmark", "--boot", "5"]) == 2

    def test_class_count_mismatch_named_before_dimensions_are_compared(self, tmp_path, capsys):
        # the first pair's target has k=2, as the second pair has: its own mismatch is the error
        (tmp_path / "k3").mkdir()
        k3, _ = _write_pair(tmp_path / "k3", k=3)
        k2, _ = _write_pair(tmp_path, k=2)
        argv = ["benchmark", "--pair", str(k3), str(k2), "--pair", str(k2), str(k2), "--boot", "2",
                "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {k3} has k=3 classes but {k2} has k=2\n")

    @pytest.mark.parametrize(
        "flags, err",
        [
            (["--boot", "0"], "error: n_boot must be at least 1, got 0\n"),
            (["--ci", "2"], "error: ci_level must lie strictly between 0 and 1, got 2.0\n"),
            (["--methods", "mystery"], None),  # argparse's own usage error
        ],
        ids=["boot", "ci", "methods"],
    )
    @pytest.mark.parametrize("source", ["pair", "synthetic"])
    def test_config_checked_before_any_pair_is_read_or_made(self, tmp_path, monkeypatch, capsys, flags, err, source):
        def refuse(*args, **kwargs):
            raise AssertionError("a pair was read or made before the config was checked")

        monkeypatch.setattr(atckit.harness, "load_dump", refuse)
        monkeypatch.setattr(atckit.synth, "make_shift_pair", refuse)
        inputs = {"pair": ["--pair", "nope.csv", "nope.csv"], "synthetic": ["--synthetic", "--k", "3"]}[source]
        argv = ["benchmark", *inputs, *flags, "--out-dir", str(tmp_path / "o")]
        if err is None:
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
        else:
            assert main(argv) == 2
            assert capsys.readouterr() == ("", err)
        assert not (tmp_path / "o").exists()

    def test_pairs_are_summarized_one_at_a_time(self, tmp_path, monkeypatch, capsys):
        # in process, the four 3000-row matrices of a k=200 and a k=300 pair hold 22.9 MiB;
        # each pair is summarized as it is read, so the run never holds them all
        argv = ["benchmark", "--boot", "2", "--out-dir", str(tmp_path / "o")]
        for k in (200, 300):
            (tmp_path / f"k{k}").mkdir()
            argv += ["--pair", *map(str, _write_pair(tmp_path / f"k{k}", k=k, n=3000, seed=k))]
        monkeypatch.setattr(atckit.harness, "_fork_pays", lambda path: False)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 3000 * (200 + 300) * 8

    def test_synthetic_pairs_are_summarized_one_at_a_time(self, tmp_path):
        # the run's peak is that of making its largest pair, not of holding every pair's matrices
        argv = ["benchmark", "--synthetic", "--k", "200", "300", "--n", "3000", "--boot", "2",
                "--out-dir", str(tmp_path / "o")]
        spec = atckit.cli._generator_spec(atckit.cli.build_parser().parse_args(argv), 300, 0)
        tracemalloc.start()
        try:
            make_shift_pair(spec)
            _, largest_pair = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the summaries, 8 bytes per row and column: well under the k=200 pair's 9.6 MB of matrices
        assert peak < largest_pair + 2 * 2**20

    def test_synthetic_and_pair_together_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a pair was read or made")

        monkeypatch.setattr(atckit.harness, "load_dump", refuse)
        monkeypatch.setattr(atckit.synth, "make_shift_pair", refuse)
        argv = ["benchmark", "--synthetic", "--k", "3", "--n", "50", "--boot", "2",
                "--pair", "nope.csv", "nope.csv", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: benchmark takes --pair dumps or --synthetic, not both\n")
        assert not (tmp_path / "o").exists()

    def test_repeated_dimension_named_before_later_pairs_are_read(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "k4").mkdir()
        k3 = _write_pair(tmp_path, k=3)
        k4 = _write_pair(tmp_path / "k4", k=4)
        real, read = atckit.harness.load_dump, []

        def recording(path, *args, **kwargs):
            read.append(Path(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(atckit.harness, "load_dump", recording)
        monkeypatch.setattr(atckit.harness, "_fork_pays", lambda path: False)
        argv = ["benchmark", "--boot", "2", "--out-dir", str(tmp_path / "o")]
        for pair in (k3, k3, k4):
            argv += ["--pair", *map(str, pair)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: two pairs share dimension k=3\n")
        assert read == [*k3, *k3]

    def test_unlabeled_pair_named(self, tmp_path, capsys):
        src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
        src.write_text("p0,p1,label\n0.9,0.1,0\n")
        tgt.write_text("p0,p1\n0.9,0.1\n")
        argv = ["benchmark", "--pair", str(src), str(tgt), "--boot", "5", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: benchmark pairs need labels on both sides ({src}, {tgt})\n"

    @pytest.mark.parametrize("methods", [["max"], ["max", "max"]])
    def test_pairwise_with_one_method_fails_before_any_work(self, tmp_path, capsys, methods):
        out_dir = tmp_path / "o"
        code = main(
            ["benchmark", "--synthetic", "--k", "3", "--n", "50", "--methods", *methods,
             "--boot", "5", "--pairwise", "--out-dir", str(out_dir)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--pairwise" in captured.err
        assert not out_dir.exists()

    def test_pairwise_flag_prints_report(self, tmp_path, capsys):
        src, tgt = _write_pair(tmp_path, k=3, n=100)
        main(
            ["benchmark", "--pair", str(src), str(tgt), "--methods", "l2n", "l2u",
             "--boot", "10", "--pairwise", "--out-dir", str(tmp_path / "o")]
        )
        out = capsys.readouterr().out
        assert "l2n vs l2u" in out


class TestVerify:
    def test_binary_single_class_exits_zero(self, capsys):
        code = main(["verify", "--k", "2", "--points", "400", "--budget", "2000", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        classes_line = next(line for line in out.splitlines() if line.startswith("classes:"))
        classes = json.loads(classes_line.split("classes:")[1])
        assert classes == [["js", "l1u", "l2n", "l2u", "max", "negent"]]

    def test_k3_prints_witness_and_matches_prediction(self, capsys):
        code = main(["verify", "--k", "3", "--points", "400", "--budget", "20000", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        by_pair = {frozenset((r["fn_a"], r["fn_b"])): r for r in records}
        assert len(by_pair) == 15
        l2_pair = by_pair[frozenset(("l2n", "l2u"))]
        assert l2_pair["status"] == "consistent-on-sample"
        violated = by_pair[frozenset(("l2n", "max"))]
        assert violated["status"] == "counterexample"
        assert "witness" in violated

    def test_a_sample_past_the_old_2000_point_cap(self, capsys):
        code = main(["verify", "--k", "3", "--points", "100000", "--budget", "0", "--seed", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        records = [json.loads(line) for line in out if line.startswith("{")]
        assert {r["pairs_checked"] for r in records} == {100_000 * 99_999 // 2}
        assert out[-2:] == ['classes: [["js"], ["l1u"], ["l2n", "l2u"], ["max"], ["negent"]]',
                            "expected-classes match: True"]

    def test_explicit_quadratic_pair_at_high_dimension(self, capsys):
        code = main(
            ["verify", "--k", "50", "--points", "300", "--budget", "5000",
             "--pair", "l2n,l2u", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["status"] == "consistent-on-sample"

    def test_undetected_divergence_is_mismatch(self, capsys):
        # two points and no search budget cannot separate l2n from max
        code = main(["verify", "--k", "3", "--points", "2", "--budget", "0",
                     "--pair", "l2n,max", "--seed", "0"])
        assert code == 1

    def test_pairs_checked_counts_sample_and_search_pairs(self, capsys):
        # 50 points give 1225 sample pairs; budget 100 gives a 14-point
        # search pool, 91 pairs, counted whether or not a witness turns up
        flags = ["--k", "3", "--points", "50", "--budget", "100", "--seed", "0"]
        assert main(["verify", *flags, "--pair", "l2n,l2u"]) == 0
        single = json.loads(capsys.readouterr().out.splitlines()[0])
        assert main(["verify", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines if line.startswith("{")]
        (paired,) = [r for r in records if {r["fn_a"], r["fn_b"]} == {"l2n", "l2u"}]
        assert single["pairs_checked"] == paired["pairs_checked"] == 1225 + 14 * 13 // 2

    def test_bad_pair_spelling(self, capsys):
        assert main(["verify", "--k", "3", "--pair", "l2n+max"]) == 2

    @pytest.mark.parametrize("points", [2, 200])
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_pair_is_judged_as_in_the_all_pairs_run(self, capsys, k, points):
        # with no search, a pair's verdict reads only the shared sample; two
        # points leave some pairs at k > 2 looking consistent, a mismatch
        flags = ["--k", str(k), "--points", str(points), "--budget", "0", "--seed", "3"]
        assert main(["verify", *flags]) in (0, 1)
        lines = capsys.readouterr().out.splitlines()
        consistent = {
            frozenset((r["fn_a"], r["fn_b"])): r["status"] == "consistent-on-sample"
            for r in map(json.loads, lines[:-2])
        }
        codes = set()
        for a, b in itertools.combinations_with_replacement(SCORE_IDS, 2):
            observed = a == b or consistent[frozenset((a, b))]
            code = main(["verify", *flags, "--pair", f"{a},{b}"])
            assert capsys.readouterr().out.splitlines()[-1] == f"expected-consistency match: {code == 0}"
            assert code == (0 if observed == _predicted_consistent(a, b, k) else 1), (a, b)
            codes.add(code)
        assert codes == ({0} if k == 2 or points > 2 else {0, 1})


class TestGenerate:
    def test_generate_then_load(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main(
            ["generate", "--k", "4", "--n", "50", "--accuracy", "0.9", "--seed", "2",
             "--out", str(out)]
        )
        assert code == 0
        data = load_dump(out)
        assert data.k == 4 and len(data) == 50
        assert data.labels is not None

    def test_json_format(self, tmp_path):
        out = tmp_path / "synth.json"
        code = main(["generate", "--k", "3", "--n", "20", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith('{"probs": [[')
        assert load_dump(out).k == 3

    def test_label_prior_flag(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main(
            ["generate", "--k", "2", "--n", "400", "--accuracy", "0.95",
             "--label-prior", "0.9,0.1", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        data = load_dump(out)
        assert (data.labels == 0).mean() > 0.75

    def test_invalid_spec_is_input_error(self, tmp_path):
        assert main(["generate", "--k", "1", "--n", "5", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["generate", "--k", "3", "--n", "50", "--out", "{out}"],
         ["benchmark", "--synthetic", "--k", "3", "--n", "50", "--boot", "2", "--out-dir", "{out}"]],
        ids=lambda argv: argv[0],
    )
    def test_infinite_concentration_named(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([arg.format(out=out) for arg in argv] + ["--concentration", "inf"]) == 2
        assert capsys.readouterr() == ("", "error: concentration must be finite and positive, got inf\n")
        assert not out.exists()

    def test_identical_flags_write_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(
                ["generate", "--k", "5", "--n", "100", "--temperature", "1.4",
                 "--seed", "11", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()


BAD_FLAG_VALUES = [
    ["benchmark", "--synthetic", "--n", "50", "--boot", "0"],
    ["benchmark", "--synthetic", "--n", "50", "--ci", "1.5"],
    ["benchmark", "--synthetic", "--n", "50", "--k", "1"],
    ["benchmark", "--synthetic", "--n", "50", "--accuracy", "0"],
    ["benchmark", "--synthetic", "--n", "50", "--temperature", "0"],
    ["benchmark", "--synthetic", "--n", "50", "--k", "3", "3"],
    ["verify", "--k", "0"],
    ["verify", "--k", "1"],
    ["verify", "--k", "3", "--points", "1"],
    ["verify", "--k", "3", "--points", "100000000"],
    ["verify", "--k", "1", "--pair", "l2n,max"],
    ["verify", "--k", "3", "--points", "50", "--budget", "-3"],
    ["verify", "--k", "3", "--points", "50", "--budget", "-3", "--pair", "l2n,l2u"],
    ["verify", "--k", "3", "--points", "10", "--budget", "100000000000000"],
    ["verify", "--k", "3", "--points", "10", "--eps", "nan"],
    ["verify", "--k", "3", "--points", "10", "--eps", "inf"],
    ["verify", "--k", "3", "--points", "10", "--eps", "-1"],
    ["verify", "--k", "3", "--points", "10", "--seed", "-1"],
    ["generate", "--k", "3", "--n", "5", "--label-prior", "0.5,0.5"],
    ["generate", "--k", "3", "--n", "5", "--seed", "-5"],
    ["generate", "--k", "3", "--n", "5", "--temperature", "inf"],
]


class TestBadFlagValues:
    @pytest.mark.parametrize("argv", BAD_FLAG_VALUES, ids=" ".join)
    def test_input_error_exit_without_traceback(self, argv, tmp_path, capsys):
        outputs = {"benchmark": ["--out-dir", str(tmp_path)], "generate": ["--out", str(tmp_path / "x")]}
        assert main(argv + outputs.get(argv[0], [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_negative_boot_count(self, tmp_path, capsys):
        src, tgt = _write_pair(tmp_path, k=3, n=50)
        assert main(["estimate", "--source", str(src), "--target", str(tgt), "--boot", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_negative_calibration_sets_named(self, tmp_path, capsys):
        src, tgt = _write_pair(tmp_path, k=3, n=50)
        argv = ["estimate", "--source", str(src), "--target", str(tgt), "--method", "doc-reg",
                "--calibration-sets", "-3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: calibration sets must not be negative, got -3\n"

    def test_negative_seed_for_doc_reg_named(self, tmp_path, capsys):
        # the flag is named, not the sub-stream seed [-1, 1] that doc-reg derives from it
        src, tgt = _write_pair(tmp_path, k=3, n=50)
        argv = ["estimate", "--source", str(src), "--target", str(tgt), "--method", "doc-reg", "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --seed must not be negative, got -1\n")

    def test_negative_seed_rejected_where_derived(self, tmp_path, capsys):
        # derive_seed would hash these seeds, but the CLI checks --seed before any subcommand runs
        src, tgt = _write_pair(tmp_path, k=3, n=50)
        assert main(["estimate", "--source", str(src), "--target", str(tgt), "--boot", "3", "--seed", "-1"]) == 2
        argv = ["benchmark", "--synthetic", "--k", "3", "--n", "50", "--boot", "2", "--methods", "max", "doc-reg",
                "--seed", "-1", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --seed must not be negative, got -1\n" * 2)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            *(["estimate", "--source", "{missing}", "--target", "{missing}", "--method", method, "--boot", boot]
              for method in ("atc", "doc", "doc-reg") for boot in ("0", "3")),
            ["benchmark", "--pair", "{missing}", "{missing}", "--out-dir", "{out}"],
            ["verify", "--k", "3"],
            ["generate", "--k", "3", "--n", "5", "--out", "{out}"],
        ],
        ids=" ".join,
    )
    def test_negative_seed_checked_first(self, argv, tmp_path, capsys):
        # the seed is checked before the (missing) source is read or any output is made
        missing, out = tmp_path / "missing.csv", tmp_path / "out"
        argv = [arg.format(missing=missing, out=out) for arg in argv]
        assert main([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: --seed must not be negative, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("sets", [10**13, 10**19])
    def test_impossible_calibration_sets_named(self, tmp_path, capsys, sets):
        # 10**13 (mean confidence, accuracy) pairs are 146 TiB, beyond a 47-bit address
        # space; 10**19 rows are more than an array can have
        dump = tmp_path / "two.json"
        dump.write_text('{"probs": [[0.9, 0.1], [0.3, 0.7]], "labels": [0, 0]}')
        argv = ["estimate", "--source", str(dump), "--target", str(dump), "--method", "doc-reg",
                "--calibration-sets", str(sets)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {sets} calibration sets do not fit in memory\n")

    def test_json_label_out_of_range(self, tmp_path, capsys):
        dump = tmp_path / "bad.json"
        dump.write_text('{"probs": [[0.9, 0.1], [0.5, 0.5]], "labels": [0, 5]}')
        assert main(["estimate", "--source", str(dump), "--target", str(dump)]) == 2
        assert capsys.readouterr() == ("", f"error: {dump}: row 1: label 5 outside [0, 2)\n")

    @pytest.mark.parametrize("side", ["--source", "--target"])
    def test_json_label_beyond_int64(self, tmp_path, capsys, side):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"probs": [[0.6, 0.4], [0.3, 0.7]], "labels": [0, 1]}')
        bad.write_text('{"probs": [[0.6, 0.4], [0.3, 0.7]], "labels": [0, 99999999999999999999999]}')
        paths = {"--source": good, "--target": good, side: bad}
        assert main(["estimate", *(x for flag, path in paths.items() for x in (flag, str(path)))]) == 2
        assert capsys.readouterr().err == f"error: {bad}: row 1: label 99999999999999999999999 outside [0, 2)\n"

    def test_unparsable_label_prior_named(self, tmp_path, capsys):
        argv = ["generate", "--k", "2", "--n", "2", "--label-prior", "a,b", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad --label-prior 'a,b'\n"

    # numpy cannot allocate 10**17 rows or classes of float64 (711 PiB), and
    # cannot even describe 10**19 of them (over the largest intp)
    @pytest.mark.parametrize("size", [10**17, 10**19])
    @pytest.mark.parametrize(
        "argv, rows_x_k",
        [
            (["generate", "--k", "{}", "--n", "1"], "1 x {}"),
            (["benchmark", "--synthetic", "--k", "3", "--n", "{}"], "{} x 3"),
        ],
        ids=["generate", "benchmark"],
    )
    def test_impossible_size_is_input_error(self, tmp_path, capsys, size, argv, rows_x_k):
        outputs = {"benchmark": ["--out-dir", str(tmp_path / "o")], "generate": ["--out", str(tmp_path / "x")]}
        argv = [a.format(size) for a in argv] + outputs.get(argv[0], [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        if size == 10**17:
            assert captured.err.startswith("error: Unable to allocate 711. PiB for an array with shape")
            assert captured.err.count("\n") == 1
        else:
            shape = rows_x_k.format(size)
            assert captured.err == f"error: a {shape} float64 array exceeds the addressable size\n"

    @pytest.mark.parametrize("size", [10**17, 10**19])
    def test_impossible_verify_size_meets_the_byte_bound(self, capsys, size):
        assert main(["verify", "--k", str(size), "--points", "2", "--budget", "0"]) == 2
        assert capsys.readouterr() == ("", (
            f"error: a sample of 2 points, which at k={size} need about {2 * (size + 14 + 6) * 8} bytes, "
            "over the 1073741824 bytes one ordering check may hold\n"
        ))

    @pytest.mark.parametrize("temperature, row", [("1e16", 1), ("1e-3", 178)])
    def test_temperature_that_loses_an_argmax_prints_one_error_and_no_warning(self, tmp_path, temperature, row):
        # in a fresh process: pytest would catch numpy's invalid-value warning before it reached stderr
        out = tmp_path / "x.csv"
        src = str(Path(atckit.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "atckit.cli", "generate", "--k", "3", "--n", "2000", "--seed", "4",
             "--temperature", temperature, "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 2 and not out.exists()
        assert result.stderr == f"error: temperature {float(temperature):g}: float64 cannot keep row {row}'s argmax\n"

    @pytest.mark.parametrize(
        "prior, reason",
        [("0.5,0.5,nan", "non-finite component"), ("0.5,0.7,-0.2", "component below -1e-06 (-0.2)")],
        ids=["nan", "negative"],
    )
    def test_bad_label_prior_named(self, tmp_path, capsys, prior, reason):
        argv = ["generate", "--k", "3", "--n", "2", "--label-prior", prior, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: label prior (") and err.endswith(f"): {reason}\n")


class TestEntryPoint:
    def test_module_invocation_and_exit_codes(self, tmp_path):
        out = tmp_path / "dump.csv"
        result = subprocess.run(
            [sys.executable, "-m", "atckit.cli", "generate", "--k", "3", "--n", "10",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        bad = subprocess.run(
            [sys.executable, "-m", "atckit.cli", "estimate", "--source", "missing.csv",
             "--target", "missing.csv"],
            capture_output=True,
            text=True,
        )
        assert bad.returncode == 2
        assert "error:" in bad.stderr

    def test_cli_import_does_not_load_scipy(self):
        # the kernels are plain numpy: importing scipy.special would cost
        # more than numpy itself at every CLI start
        code = (
            "import atckit.cli, sys; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
        )
        src = str(Path(atckit.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
