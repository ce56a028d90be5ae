"""Synthetic generator: exact accuracy control and shift behaviour."""

from dataclasses import replace

import numpy as np
import pytest

from atckit import (
    GeneratorSpec,
    InvalidArgumentError,
    ScoreFunction,
    Shift,
    apply_temperature,
    generate,
    make_shift_pair,
    score_batch,
    true_accuracy,
    validate_matrix,
)
from atckit import synth


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            GeneratorSpec(k=1, n=10, target_accuracy=0.8)
        with pytest.raises(ValueError):
            GeneratorSpec(k=3, n=0, target_accuracy=0.8)
        with pytest.raises(ValueError):
            GeneratorSpec(k=3, n=10, target_accuracy=0.0)
        with pytest.raises(ValueError):
            GeneratorSpec(k=3, n=10, target_accuracy=1.1)
        with pytest.raises(ValueError):
            GeneratorSpec(k=3, n=10, target_accuracy=0.5, concentration=0.0)
        with pytest.raises(ValueError):
            Shift(temperature=0.0)

    def test_negative_seed_named(self):
        with pytest.raises(InvalidArgumentError, match="seed must not be negative, got -5"):
            GeneratorSpec(k=3, n=10, target_accuracy=0.8, seed=-5)

    def test_label_prior_must_match_k(self):
        spec = GeneratorSpec(
            k=3, n=10, target_accuracy=0.5, shift=Shift(label_prior=(0.5, 0.5))
        )
        with pytest.raises(ValueError):
            generate(spec)


class TestGenerate:
    def test_deterministic_under_fixed_seed(self):
        spec = GeneratorSpec(k=4, n=200, target_accuracy=0.7, seed=42)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.labels, b.labels)

    def test_perfect_accuracy_is_exact(self):
        spec = GeneratorSpec(k=5, n=300, target_accuracy=1.0, seed=0)
        assert true_accuracy(generate(spec)).value == 1.0

    def test_vectors_are_valid_simplex_points(self):
        spec = GeneratorSpec(k=6, n=500, target_accuracy=0.6, concentration=2.0, seed=1)
        data = generate(spec)
        validate_matrix(data.probs, tolerance=1e-9)  # strict: already renormalized

    def test_empirical_accuracy_within_binomial_noise(self):
        spec = GeneratorSpec(k=2, n=10_000, target_accuracy=0.8, seed=7)
        acc = true_accuracy(generate(spec)).value
        assert abs(acc - 0.8) <= 0.012  # 3 sigma of Bin(1e4, 0.8)

    def test_realized_accuracy_matches_correct_draws_exactly(self):
        # argmax forcing makes accuracy a pure counting identity
        spec = GeneratorSpec(k=4, n=400, target_accuracy=0.65, seed=3)
        data = generate(spec)
        realized = np.mean(data.predicted_labels == data.labels)
        assert true_accuracy(data).value == realized

    def test_fallback_path_still_forces_argmax(self, monkeypatch):
        monkeypatch.setattr(synth, "_MAX_REDRAWS", 0)
        spec = GeneratorSpec(k=6, n=300, target_accuracy=1.0, concentration=1.0, seed=5)
        data = generate(spec)
        assert true_accuracy(data).value == 1.0
        validate_matrix(data.probs, tolerance=1e-9)


class TestTemperature:
    def test_unit_temperature_is_identity(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(4), size=50)
        assert apply_temperature(probs, 1.0) is probs

    def test_preserves_argmax(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(5), size=2000)
        for temperature in (0.25, 0.8, 1.5, 4.0):
            shifted = apply_temperature(probs, temperature)
            assert np.array_equal(np.argmax(shifted, axis=1), np.argmax(probs, axis=1))

    def test_softening_lowers_mean_confidence(self):
        spec = GeneratorSpec(
            k=6, n=10_000, target_accuracy=0.8, concentration=6.0,
            shift=Shift(temperature=1.5), seed=11,
        )
        source, target = make_shift_pair(spec)
        src_conf = score_batch(source, ScoreFunction.MAX_CONF).mean()
        tgt_conf = score_batch(target, ScoreFunction.MAX_CONF).mean()
        assert tgt_conf < src_conf

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            apply_temperature(np.array([[0.5, 0.5]]), 0.0)


class TestMakeShiftPair:
    def test_identity_shift_gives_same_law(self):
        spec = GeneratorSpec(k=3, n=500, target_accuracy=0.75, seed=9)
        source, target = make_shift_pair(replace(spec, shift=Shift(temperature=1.0)))
        assert source.k == target.k == 3
        assert len(source) == len(target) == 500
        # independent draws, not copies
        assert not np.array_equal(source.probs, target.probs)

    def test_pair_is_deterministic(self):
        spec = GeneratorSpec(
            k=3, n=100, target_accuracy=0.7, shift=Shift(temperature=1.3), seed=21
        )
        s1, t1 = make_shift_pair(spec)
        s2, t2 = make_shift_pair(spec)
        assert np.array_equal(s1.probs, s2.probs)
        assert np.array_equal(t1.probs, t2.probs)
        assert np.array_equal(t1.labels, t2.labels)

    def test_skewed_label_prior_shapes_target_histogram(self):
        prior = (0.7, 0.2, 0.1)
        spec = GeneratorSpec(
            k=3, n=10_000, target_accuracy=0.9,
            shift=Shift(temperature=1.0, label_prior=prior), seed=13,
        )
        source, target = make_shift_pair(spec)
        counts = np.bincount(target.labels, minlength=3)
        for cls, p in enumerate(prior):
            sigma = np.sqrt(p * (1 - p) * len(target))
            assert abs(counts[cls] - p * len(target)) <= 3 * sigma
        # the source keeps the uniform prior
        src_counts = np.bincount(source.labels, minlength=3)
        sigma = np.sqrt((1 / 3) * (2 / 3) * len(source))
        assert np.all(np.abs(src_counts - len(source) / 3) <= 3 * sigma)
