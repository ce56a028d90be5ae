"""The paper's invariances, end to end.

ATC reads only the order a score induces, and every score function is
symmetric in the classes. So ``estimate --score all`` reports the same
estimates, bit for bit, when the rows of the dumps come in another order,
and when the class columns of both dumps are permuted with the labels
mapped along. Bootstrap runs are not covered: they draw row indices.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from atckit import GeneratorSpec, PredictionSet, Shift, make_shift_pair, write_dump
from atckit.cli import main
from atckit.harness import score_once
from atckit.scores import SCORE_IDS


@st.composite
def _generated_pair(draw):
    spec = GeneratorSpec(
        k=draw(st.integers(2, 6)),
        n=draw(st.integers(1, 60)),
        target_accuracy=draw(st.floats(min_value=0.3, max_value=1.0)),
        concentration=draw(st.floats(min_value=0.5, max_value=20.0)),
        shift=Shift(temperature=draw(st.floats(min_value=0.5, max_value=3.0))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return make_shift_pair(spec)


def _rows(data, order):
    return PredictionSet(data.probs[order], data.labels[order])


def _classes(data, order):
    """Column j of the result is column ``order[j]`` of ``data``; each label follows its column."""
    return PredictionSet(data.probs[:, order], np.argsort(order)[data.labels])


def _atc(source, target):
    return score_once(source, target, SCORE_IDS)(slice(None), 0)


class TestEngine:
    @given(_generated_pair(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_in_any_order_give_the_same_estimates(self, pair, data):
        source, target = pair
        order_s = np.array(data.draw(st.permutations(range(len(source)))))
        order_t = np.array(data.draw(st.permutations(range(len(target)))))
        assert _atc(_rows(source, order_s), _rows(target, order_t)) == _atc(source, target)

    @given(_generated_pair(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_permuted_classes_give_the_same_estimates(self, pair, data):
        source, target = pair
        k = source.probs.shape[1]
        order = np.array(data.draw(st.permutations(range(k))))
        assert _atc(_classes(source, order), _classes(target, order)) == _atc(source, target)


def _estimate(tmp_path, capsys, name, source, target) -> str:
    src, tgt = tmp_path / f"{name}-src.csv", tmp_path / f"{name}-tgt.csv"
    write_dump(source, src)
    write_dump(target, tgt)
    assert main(["estimate", "--source", str(src), "--target", str(tgt), "--score", "all"]) == 0
    return capsys.readouterr().out


def test_cli_estimate_prints_the_same_bytes(tmp_path, capsys):
    source, target = make_shift_pair(GeneratorSpec(
        k=5, n=400, target_accuracy=0.7, concentration=4.0, shift=Shift(temperature=1.6), seed=11,
    ))
    rng = np.random.default_rng(3)
    reference = _estimate(tmp_path, capsys, "reference", source, target)
    assert len(reference.splitlines()) == len(SCORE_IDS)
    rows = _estimate(tmp_path, capsys, "rows", _rows(source, rng.permutation(len(source))), target)
    order = rng.permutation(5)
    classes = _estimate(tmp_path, capsys, "classes", _classes(source, order), _classes(target, order))
    assert rows == reference
    assert classes == reference
