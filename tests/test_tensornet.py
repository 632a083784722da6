"""Tests for the trace-value MPS: exactness, sampling, beam search."""

import numpy as np
import pytest

from oracles.trasyn_reference import dense_sample
from repro.linalg import haar_random_u2
from repro.tensornet import TraceMPS
from repro.tensornet.mps import TraceLayout


def _random_sites(rng, sizes):
    return [
        np.stack([haar_random_u2(rng) for _ in range(n)]) for n in sizes
    ]


def _brute_force(target, mats):
    shape = [m.shape[0] for m in mats]
    out = np.empty(shape, dtype=complex)
    for idx in np.ndindex(*shape):
        prod = target.conj().T
        for slot, i in enumerate(idx):
            prod = prod @ mats[slot][i]
        out[idx] = np.trace(prod)
    return out


class TestFullContraction:
    @pytest.mark.parametrize("sizes", [(3, 4), (5, 4, 6), (2, 3, 2, 3)])
    def test_matches_brute_force(self, sizes):
        rng = np.random.default_rng(42)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, sizes)
        mps = TraceMPS(target, mats)
        assert np.allclose(mps.full_tensor(), _brute_force(target, mats))

    def test_rejects_single_site(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            TraceMPS(haar_random_u2(rng), _random_sites(rng, (3,)))

    def test_rejects_bad_target(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            TraceMPS(np.eye(3), _random_sites(rng, (3, 3)))


class TestSampling:
    def test_amplitudes_are_exact_trace_values(self):
        rng = np.random.default_rng(7)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (4, 5, 3))
        mps = TraceMPS(target, mats)
        brute = _brute_force(target, mats)
        choices, amps = mps.sample(64, rng)
        for c, a in zip(choices, amps):
            assert abs(brute[tuple(c)] - a) < 1e-9

    def test_distribution_matches_squared_trace(self):
        rng = np.random.default_rng(11)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (3, 3))
        mps = TraceMPS(target, mats)
        p = np.abs(_brute_force(target, mats)) ** 2
        p /= p.sum()
        counts = np.zeros_like(p)
        n = 30_000
        choices, _ = mps.sample(n, rng)
        for c in choices:
            counts[tuple(c)] += 1
        tv_dist = 0.5 * np.abs(counts / n - p).sum()
        assert tv_dist < 0.03

    def test_chunked_sampling_consistent(self):
        rng = np.random.default_rng(3)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (6, 6, 6))
        mps = TraceMPS(target, mats)
        c1, a1 = mps.sample(50, np.random.default_rng(5), chunk_size=7)
        c2, a2 = mps.sample(50, np.random.default_rng(5), chunk_size=1024)
        assert np.array_equal(c1, c2)
        assert np.allclose(a1, a2)


class TestBeamSearch:
    def test_finds_global_max_small(self):
        rng = np.random.default_rng(13)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (5, 5, 5))
        mps = TraceMPS(target, mats)
        brute = np.abs(_brute_force(target, mats))
        idx, amp = mps.best_first(beam_width=125)
        assert abs(amp) == pytest.approx(brute.max(), rel=1e-9)

    def test_beam_amplitude_consistent(self):
        rng = np.random.default_rng(17)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (4, 4))
        mps = TraceMPS(target, mats)
        brute = _brute_force(target, mats)
        idx, amp = mps.best_first(beam_width=4)
        assert abs(brute[tuple(idx)] - amp) < 1e-9


class TestTraceLayout:
    """The shared layout reproduces the per-target construction exactly."""

    def test_layout_sites_are_target_independent(self):
        rng = np.random.default_rng(21)
        mats = _random_sites(rng, (5, 4, 6))
        a = TraceMPS(haar_random_u2(rng), mats)
        b = TraceMPS(haar_random_u2(rng), mats, a.layout)
        fresh = TraceMPS(b.target, mats)
        for x, y in zip(b.tensors, fresh.tensors):
            assert np.array_equal(x, y)
        assert b.tensors[1] is a.tensors[1]

    def test_layout_size_mismatch_rejected(self):
        rng = np.random.default_rng(22)
        layout = TraceLayout(_random_sites(rng, (3, 4)))
        with pytest.raises(ValueError):
            TraceMPS(haar_random_u2(rng), _random_sites(rng, (3, 5)), layout)

    def test_prefix_grams_cumulate_conditional_weights(self):
        rng = np.random.default_rng(23)
        layout = TraceLayout(_random_sites(rng, (3, 7, 5)))
        for a, pg in zip(layout.sites, layout.prefix_grams):
            n, dl, _ = a.shape
            m = rng.normal(size=dl) + 1j * rng.normal(size=dl)
            weights = np.abs(np.einsum("l,slr->sr", m, a)) ** 2
            m2 = np.outer(m, m.conj()).ravel()
            cum = np.concatenate([m2.real, m2.imag]) @ pg.T
            assert np.allclose(cum, weights.sum(axis=1).cumsum())


class TestSamplerMatchesDenseOracle:
    """Binary search on prefix-Gram sums draws what the dense sweep draws."""

    @pytest.fixture(scope="class")
    def table6(self):
        from repro.enumeration import get_table

        return get_table(6)

    @pytest.mark.parametrize("budgets", [(6, 6), (6, 3, 2), (4, 2, 2, 3)])
    @pytest.mark.parametrize("chunk_size", [7, 1024])
    def test_identical_choices_on_table_slices(self, table6, budgets, chunk_size):
        mats = [table6.mats[table6.indices_for_t_range(0, b)] for b in budgets]
        layout = TraceLayout(mats)
        for seed in range(3):
            target = haar_random_u2(np.random.default_rng([seed, len(budgets)]))
            mps = TraceMPS(target, mats, layout)
            c1, a1 = mps.sample(300, np.random.default_rng(seed), chunk_size)
            c2, a2 = dense_sample(
                mps, 300, np.random.default_rng(seed), chunk_size
            )
            assert np.array_equal(c1, c2)
            assert np.abs(a1 - a2).max() <= 1e-12

    def test_vanished_distribution_raises(self):
        mats = [np.stack([np.eye(2, dtype=complex)] * 2),
                np.zeros((3, 2, 2), dtype=complex)]
        mats[1][0] = np.eye(2)
        mps = TraceMPS(np.eye(2), mats)
        # Zero out the last site so every conditional weight vanishes.
        mps.tensors[1] = np.zeros_like(mps.tensors[1])
        mps.layout.prefix_grams[0] = np.zeros_like(mps.layout.prefix_grams[0])
        with pytest.raises(ArithmeticError):
            mps.sample(4, np.random.default_rng(0))
