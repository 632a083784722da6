"""Tests for the trasyn synthesizer (steps 1-3 and Algorithm 1)."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.trasyn_reference import simplify_sequence_reference
from repro.enumeration import get_table
from repro.gates.exact import ExactUnitary
from repro.linalg import GATES, haar_random_u2, rz, trace_distance
from repro.synthesis import simplify_sequence, synthesize, trasyn
from repro.synthesis.sequences import matrix_of
from repro.synthesis.trasyn import schedule_for_threshold


@pytest.fixture(scope="module")
def table6():
    return get_table(6)


class TestSynthesize:
    def test_single_slot_is_optimal(self, table6):
        rng = np.random.default_rng(0)
        u = haar_random_u2(rng)
        res = synthesize(u, [6], rng=rng, table=table6)
        # Exhaustive: no table entry may beat the reported error.
        best = min(
            trace_distance(u, m) for m in table6.mats[::13]
        )  # subsample for speed; the reported error must be <= any of them
        assert res.sequence.error <= best + 1e-12
        assert res.sequence.verify(u)

    def test_exact_target_recovered(self, table6):
        # A target that IS a Clifford+T word must synthesize to error ~0.
        target = matrix_of(("H", "T", "S", "H", "T"))
        res = synthesize(target, [6], rng=np.random.default_rng(1), table=table6)
        assert res.sequence.error < 1e-7
        assert res.sequence.t_count <= 2

    @pytest.mark.parametrize("n_tensors", [2, 3])
    def test_multi_tensor_verifies(self, table6, n_tensors):
        rng = np.random.default_rng(2)
        u = haar_random_u2(rng)
        res = synthesize(u, [6] * n_tensors, n_samples=200, rng=rng, table=table6)
        assert res.sequence.verify(u)
        assert res.sequence.t_count <= 6 * n_tensors

    def test_more_tensors_not_worse(self, table6):
        rng = np.random.default_rng(3)
        u = haar_random_u2(rng)
        e1 = synthesize(u, [6], rng=rng, table=table6).sequence.error
        e2 = synthesize(u, [6, 6], n_samples=400, rng=rng, table=table6).sequence.error
        assert e2 <= e1 + 1e-9

    def test_t_budget_respected(self, table6):
        rng = np.random.default_rng(4)
        u = haar_random_u2(rng)
        for budgets in ([3], [3, 3], [2, 2, 2]):
            res = synthesize(u, budgets, n_samples=100, rng=rng, table=table6)
            assert res.sequence.t_count <= sum(budgets)

    def test_t_range_budgets(self, table6):
        rng = np.random.default_rng(5)
        u = haar_random_u2(rng)
        res = synthesize(u, [(2, 4), (0, 6)], n_samples=100, rng=rng, table=table6)
        assert res.sequence.verify(u)

    def test_rejects_budget_above_table(self, table6):
        with pytest.raises(ValueError):
            synthesize(np.eye(2), [7, 7], table=table6)


class TestSimplify:
    def test_cancels_inverse_pairs(self, table6):
        gates = ["H", "H", "T", "Tdg", "S", "Sdg"]
        out = simplify_sequence(gates, table6)
        assert out == []

    def test_merges_t_t_to_s(self, table6):
        out = simplify_sequence(["T", "T"], table6)
        assert out in (["S"], ["Sdg", "Z"])
        assert sum(1 for g in out if g in ("T", "Tdg")) == 0

    def test_preserves_matrix_up_to_phase(self, table6):
        rng = np.random.default_rng(6)
        # Random concatenation of two table sequences.
        for _ in range(5):
            i, j = rng.integers(0, len(table6), size=2)
            gates = list(table6.sequence(int(i))) + list(table6.sequence(int(j)))
            out = simplify_sequence(gates, table6)
            before = ExactUnitary.from_gates(gates)
            after = (
                ExactUnitary.from_gates(out) if out else ExactUnitary.identity()
            )
            assert before.equals_up_to_phase(after)

    def test_never_increases_cost(self, table6):
        rng = np.random.default_rng(7)
        for _ in range(5):
            i, j = rng.integers(0, len(table6), size=2)
            gates = list(table6.sequence(int(i))) + list(table6.sequence(int(j)))
            out = simplify_sequence(gates, table6)
            t_before = sum(1 for g in gates if g in ("T", "Tdg"))
            t_after = sum(1 for g in out if g in ("T", "Tdg"))
            assert t_after <= t_before


class TestSimplifyMatchesOracle:
    """Batched window keys rewrite exactly as one lookup per window."""

    @pytest.mark.parametrize("budget", [4, 6])
    @given(words=st.lists(
        st.sampled_from(["H", "S", "Sdg", "T", "Tdg", "X", "Y", "Z"]),
        max_size=40,
    ))
    @settings(max_examples=40, deadline=None)
    def test_random_words(self, budget, words):
        table = get_table(budget)
        assert simplify_sequence(words, table) == simplify_sequence_reference(
            words, table
        )

    def test_long_clifford_runs_stay_exact(self, table6):
        # 150 H gates give an unreduced window exponent whose
        # coefficients (up to sqrt(2)^150) overflow int64 unless the
        # window is reduced on the way.
        words = ["H"] * 150 + ["T", "H", "T"] + ["S", "H"] * 20
        assert simplify_sequence(words, table6) == simplify_sequence_reference(
            words, table6
        )


class TestBudgetValidation:
    """Bad budgets raise a ValueError naming the entry, before any work."""

    def test_synthesize_empty(self, table6):
        with pytest.raises(ValueError, match="t_budgets is empty"):
            synthesize(np.eye(2), [], table=table6)

    def test_synthesize_inverted_range(self, table6):
        with pytest.raises(ValueError, match=r"t_budgets\[0\] = \(5, 2\)"):
            synthesize(np.eye(2), [(5, 2), 4], table=table6)

    @pytest.mark.parametrize("bad", [-1, (2, -1), (1, 2, 3), "x"])
    def test_synthesize_malformed_entry(self, table6, bad):
        with pytest.raises(ValueError, match=r"t_budgets\[1\]"):
            synthesize(np.eye(2), [3, bad], table=table6)

    def test_trasyn_empty(self, table6):
        with pytest.raises(ValueError, match="t_budgets is empty"):
            trasyn(np.eye(2), t_budgets=[], table=table6)

    @pytest.mark.parametrize("min_tensors", [0, 3])
    def test_trasyn_min_tensors_out_of_range(self, table6, min_tensors):
        with pytest.raises(ValueError, match=f"min_tensors = {min_tensors}"):
            trasyn(np.eye(2), t_budgets=[4, 4], min_tensors=min_tensors,
                   table=table6)

    def test_top_candidates_empty(self, table6):
        from repro.synthesis.mixing import top_candidates

        with pytest.raises(ValueError, match="t_budgets is empty"):
            top_candidates(np.eye(2), [], table=table6)

    def test_trasyn_schedule_entry(self):
        with pytest.raises(ValueError, match=r"t_budgets\[0\]"):
            trasyn(np.eye(2), schedule=[[(3, 1)]])


class TestAlgorithm1:
    def test_threshold_mode_meets_or_best_effort(self):
        rng = np.random.default_rng(8)
        u = haar_random_u2(rng)
        seq = trasyn(u, error_threshold=0.08, rng=rng)
        assert seq.error < 0.08  # easily reachable threshold

    def test_explicit_budget_interface(self, table6):
        rng = np.random.default_rng(9)
        u = haar_random_u2(rng)
        seq = trasyn(u, t_budgets=[6, 6], rng=rng, table=table6, n_samples=100)
        assert seq.verify(u)

    def test_schedule_ladder_shapes(self):
        assert schedule_for_threshold(0.5) == [[8]]
        ladder = schedule_for_threshold(0.001)
        assert ladder[-1] == [12, 12, 8]
        assert all(len(b) >= 1 for b in ladder)

    def test_rz_target(self, table6):
        rng = np.random.default_rng(10)
        seq = trasyn(rz(0.91), t_budgets=[6, 6], rng=rng, table=table6,
                     n_samples=200)
        assert trace_distance(rz(0.91), seq.matrix()) == pytest.approx(
            seq.error, abs=1e-9
        )

    def test_clifford_target_is_free(self, table6):
        seq = trasyn(GATES["H"], t_budgets=[6], rng=np.random.default_rng(11),
                     table=table6)
        assert seq.error < 1e-7
        assert seq.t_count == 0


class TestIndexCacheLifetime:
    """Regression: _INDEX_CACHE must not key QuaternionIndex by id(table).

    id() values are reused after garbage collection, so an id-keyed
    cache could silently serve an index built from a freed table.  The
    cache is now a WeakKeyDictionary keyed by the table object itself.
    """

    def test_index_always_matches_current_table(self):
        import gc

        from repro.enumeration import build_table
        from repro.synthesis.trasyn import _slot_index

        # Repeatedly build short-lived tables: CPython happily reuses
        # the freed object's address (== its id), which made the old
        # id-keyed cache return a stale index for a *different* slice.
        for lo, hi in [(0, 2), (0, 1), (1, 2), (0, 2)]:
            table = build_table(2)
            index = _slot_index(table, lo, hi)
            expect = table.mats[table.indices_for_t_range(lo, hi)]
            assert index.mats.shape == expect.shape
            assert np.array_equal(index.mats, expect)
            del table, index
            gc.collect()

    def test_entries_die_with_their_table(self):
        import gc

        from repro.enumeration import build_table
        from repro.synthesis.trasyn import _INDEX_CACHE, _slot_index

        table = build_table(1)
        _slot_index(table, 0, 1)
        assert table in _INDEX_CACHE
        before = len(_INDEX_CACHE)
        del table
        gc.collect()
        assert len(_INDEX_CACHE) == before - 1

    def test_same_table_reuses_index(self):
        from repro.enumeration import build_table
        from repro.synthesis.trasyn import _slot_index

        table = build_table(1)
        assert _slot_index(table, 0, 1) is _slot_index(table, 0, 1)


class TestLayoutCache:
    """One TraceLayout per (table, T ranges), built once under a lock."""

    def test_same_rung_reuses_layout(self):
        from repro.enumeration import build_table
        from repro.synthesis.trasyn import trace_layout

        table = build_table(2)
        a = trace_layout(table, [(0, 2), (0, 1)])
        assert trace_layout(table, [(0, 2), (0, 1)]) is a
        assert trace_layout(table, [(0, 2), (0, 2)]) is not a
        for m, (lo, hi) in zip(a.site_matrices, [(0, 2), (0, 1)]):
            assert np.array_equal(m, table.mats[table.indices_for_t_range(lo, hi)])

    def test_entries_die_with_their_table(self):
        import gc

        from repro.enumeration import build_table
        from repro.synthesis.trasyn import _LAYOUT_CACHE, trace_layout

        table = build_table(1)
        trace_layout(table, [(0, 1), (0, 1)])
        assert table in _LAYOUT_CACHE
        before = len(_LAYOUT_CACHE)
        del table
        gc.collect()
        assert len(_LAYOUT_CACHE) == before - 1

    def test_concurrent_threads_build_once(self, monkeypatch):
        import importlib

        from repro.enumeration import build_table

        trasyn_mod = importlib.import_module("repro.synthesis.trasyn")
        built = []
        original = trasyn_mod.TraceLayout

        def slow_layout(mats):
            built.append(1)
            time.sleep(0.1)  # widen the race window
            return original(mats)

        monkeypatch.setattr(trasyn_mod, "TraceLayout", slow_layout)
        table = build_table(2)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                trasyn_mod.trace_layout(table, [(0, 2), (0, 2)])))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1
        assert all(r is results[0] for r in results)
