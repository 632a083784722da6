"""Focused tests: meet-in-the-middle refinement and workflow internals."""

import math

import numpy as np
import pytest

from oracles.trasyn_reference import refine_pairs_reference
from repro.circuits import Circuit, rotation_count
from repro.enumeration import get_table
from repro.linalg import haar_random_u2, trace_distance
from repro.synthesis.meet import QuaternionIndex, refine_pairs
from repro.tensornet import TraceMPS
from repro.tensornet.mps import TraceLayout
from repro.experiments.workflows import (
    _SequenceCache,
    best_transpile,
    matched_thresholds,
    synthesize_circuit_gridsynth,
    synthesize_circuit_trasyn,
)


@pytest.fixture(scope="module")
def table6():
    return get_table(6)


class TestRefinePairs:
    def test_improves_or_keeps_amplitude(self, table6):
        rng = np.random.default_rng(0)
        idx = table6.indices_for_t_range(0, 6)
        mats = [table6.mats[idx]] * 2
        indexes = [QuaternionIndex(m) for m in mats]
        target = haar_random_u2(rng)
        start = np.array([0, 0])
        udag = target.conj().T
        amp0 = abs(np.trace(udag @ mats[0][0] @ mats[1][0]))
        choice, amp = refine_pairs(target, mats, start, indexes)
        assert abs(amp) >= amp0 - 1e-12

    def test_two_slot_near_optimal(self, table6):
        # Pair refinement from any start must land close to the true
        # 2-slot optimum (estimated by a sampling baseline).
        rng = np.random.default_rng(1)
        idx = table6.indices_for_t_range(0, 6)
        mats = [table6.mats[idx]] * 2
        indexes = [QuaternionIndex(m) for m in mats]
        target = haar_random_u2(rng)
        _, amp = refine_pairs(target, mats, np.array([0, 0]), indexes,
                              neighbours=8)
        err = math.sqrt(max(0.0, 1 - (abs(amp) / 2) ** 2))
        assert err < 0.05  # T<=12 affords ~0.02-0.03

    def test_amplitude_matches_choice(self, table6):
        rng = np.random.default_rng(2)
        idx = table6.indices_for_t_range(0, 4)
        mats = [table6.mats[idx]] * 3
        indexes = [QuaternionIndex(m) for m in mats]
        target = haar_random_u2(rng)
        choice, amp = refine_pairs(target, mats, np.array([1, 2, 3]), indexes)
        prod = target.conj().T
        for i, m in enumerate(mats):
            prod = prod @ m[choice[i]]
        assert complex(np.trace(prod)) == pytest.approx(amp, abs=1e-9)


class TestRefinePairsMatchesOracle:
    """Skipping unchanged environments never changes the result."""

    @pytest.mark.parametrize("budgets", [(6, 6), (4, 3, 4), (3, 2, 2, 3)])
    def test_identical_to_full_sweeps(self, table6, budgets):
        mats = [table6.mats[table6.indices_for_t_range(0, b)] for b in budgets]
        indexes = [QuaternionIndex(m) for m in mats]
        layout = TraceLayout(mats)
        for seed in range(4):
            rng = np.random.default_rng([seed, len(budgets)])
            target = haar_random_u2(rng)
            # A random start leaves the query bound loose; the best of a
            # sampling pass makes it tight, so the bound prunes.
            choices, amps = TraceMPS(target, mats, layout).sample(200, rng)
            for start in (np.array([rng.integers(len(m)) for m in mats]),
                          choices[np.argmax(np.abs(amps))]):
                got = refine_pairs(target, mats, start, indexes)
                want = refine_pairs_reference(target, mats, start, indexes)
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1]

    def test_bounded_query_keeps_leading_neighbours(self, table6):
        mats = table6.mats[table6.indices_for_t_range(0, 6)]
        index = QuaternionIndex(mats)
        targets = np.stack([haar_random_u2(np.random.default_rng(s))
                            for s in range(50)])
        full = index.nearest(targets, k=4)
        bounded = index.nearest(targets, k=4, max_distance=0.1)
        found = bounded >= 0
        assert found.any() and not found.all()
        assert np.array_equal(bounded[found], full[found])

    def test_two_slots_query_once(self, table6, monkeypatch):
        idx = table6.indices_for_t_range(0, 6)
        mats = [table6.mats[idx]] * 2
        indexes = [QuaternionIndex(m) for m in mats]
        calls = []
        original = QuaternionIndex.nearest

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(QuaternionIndex, "nearest", counting)
        target = haar_random_u2(np.random.default_rng(3))
        _, amp = refine_pairs(target, mats, np.array([0, 0]), indexes)
        assert abs(amp) > abs(np.trace(target.conj().T @ mats[0][0] @ mats[1][0]))
        assert len(calls) == 1


class TestWorkflowInternals:
    def test_sequence_cache_reuses(self):
        cache = _SequenceCache()
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or("k", compute) == "value"
        assert cache.get_or("k", compute) == "value"
        assert len(calls) == 1

    def test_best_transpile_picks_minimum(self):
        c = Circuit(2)
        c.rx(0.4, 1).cx(0, 1).rz(0.7, 1).cx(0, 1)
        best = best_transpile(c, "u3")
        # Commutation merges the rx into the rz: one rotation.
        assert rotation_count(best) == 1

    def test_trivial_rotations_cost_no_t(self):
        rng = np.random.default_rng(4)
        c = Circuit(1)
        c.rz(math.pi / 2, 0)  # = S up to phase
        u3c, rzc, eps_t, eps_g = matched_thresholds(c, 0.01)
        tra = synthesize_circuit_trasyn(u3c, eps_t, rng, pre_transpiled=True)
        grid = synthesize_circuit_gridsynth(rzc, eps_g, pre_transpiled=True)
        assert tra.t_count == 0
        assert grid.t_count == 0
        assert tra.n_rotations == 0 and grid.n_rotations == 0

    def test_flow_rejects_wrong_basis(self):
        c = Circuit(1).rx(0.3, 0)
        with pytest.raises(ValueError):
            synthesize_circuit_trasyn(c, 0.01, np.random.default_rng(0),
                                      pre_transpiled=True)
        with pytest.raises(ValueError):
            synthesize_circuit_gridsynth(c, 0.01, pre_transpiled=True)

    @pytest.mark.slow
    def test_synthesized_gates_in_time_order(self):
        # The spliced sequence must realize the rotation when the
        # circuit is *executed*, i.e. reversal from matrix order is
        # correct: check a single-rotation circuit end to end.
        rng = np.random.default_rng(5)
        c = Circuit(1).rz(0.9, 0)
        u3c, _, eps_t, _ = matched_thresholds(c, 0.01)
        tra = synthesize_circuit_trasyn(u3c, eps_t, rng, pre_transpiled=True)
        d = trace_distance(c.unitary(), tra.circuit.unitary())
        assert d <= eps_t + 1e-9

    def test_total_error_bounds_state_infidelity(self):
        rng = np.random.default_rng(6)
        c = Circuit(2).h(0).rz(0.8, 0).cx(0, 1).rx(1.2, 1)
        u3c, _, eps_t, _ = matched_thresholds(c, 0.02)
        tra = synthesize_circuit_trasyn(u3c, eps_t, rng, pre_transpiled=True)
        psi = c.statevector()
        psi_s = tra.circuit.statevector()
        infid = 1 - abs(np.vdot(psi, psi_s)) ** 2
        bound = tra.total_synthesis_error
        assert infid <= (2 * bound) ** 2 + 1e-9

    @pytest.mark.slow
    def test_t_count_scales_with_eps(self):
        rng = np.random.default_rng(7)
        c = Circuit(1).rz(1.2345, 0)
        counts = []
        for eps in (0.05, 0.005):
            u3c, _, eps_t, _ = matched_thresholds(c, eps)
            tra = synthesize_circuit_trasyn(
                u3c, eps_t, rng, cache=_SequenceCache(), pre_transpiled=True
            )
            counts.append(tra.t_count)
        assert counts[1] > counts[0]
