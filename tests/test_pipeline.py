"""Pass/pipeline invariants: unitary preservation and composition laws."""

import math

import numpy as np
import pytest

from repro.bench_circuits.ft_algorithms import qft
from repro.circuits import Circuit, rotation_count
from repro.experiments.rq7_schedule import calibrate
from repro.linalg import trace_distance
from repro.pipeline import (
    CancelInversePairs,
    CommuteRotations,
    DecomposeToRzBasis,
    FunctionPass,
    IsolateU3,
    MergeRuns,
    OPTIMIZATION_LEVELS,
    PassManager,
    SnapTrivialRotations,
    SynthesisCache,
    compile_batch,
    compile_circuit,
    iter_presets,
    preset_lowerings,
    preset_pipeline,
    rng_for_key,
    synthesize_lowered,
)
from repro.target import Target, fix_gate_directions, route_circuit
from repro.transpiler import (
    cancel_inverse_pairs,
    merge_1q_runs,
    snap_trivial_rotations,
    transpile,
)

ALL_PASSES = [
    MergeRuns(),
    CommuteRotations(),
    CancelInversePairs(),
    SnapTrivialRotations(),
    DecomposeToRzBasis(),
    IsolateU3(),
]


def _random_circuit(seed: int, n: int = 3, depth: int = 25) -> Circuit:
    rng = np.random.default_rng(seed)
    c = Circuit(n)
    for _ in range(depth):
        r = rng.random()
        if r < 0.35:
            c.append(
                ["h", "s", "t", "x", "sdg"][int(rng.integers(5))],
                int(rng.integers(n)),
            )
        elif r < 0.7:
            c.append(
                ["rz", "rx", "ry"][int(rng.integers(3))],
                int(rng.integers(n)),
                (float(rng.uniform(0, 2 * math.pi)),),
            )
        else:
            a, b = rng.choice(n, 2, replace=False)
            c.cx(int(a), int(b))
    return c


class TestPassInvariants:
    @pytest.mark.parametrize("p", ALL_PASSES, ids=lambda p: p.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pass_preserves_unitary(self, p, seed):
        c = _random_circuit(seed)
        out = p.run(c)
        assert trace_distance(c.unitary(), out.unitary()) < 1e-7

    @pytest.mark.parametrize("p", ALL_PASSES, ids=lambda p: p.name)
    def test_pass_does_not_mutate_input(self, p):
        c = _random_circuit(3)
        before = list(c.gates)
        p.run(c)
        assert c.gates == before

    @pytest.mark.parametrize("basis", ["u3", "rz"])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("commutation", [False, True])
    def test_preset_preserves_unitary(self, basis, level, commutation):
        c = _random_circuit(7)
        out = preset_pipeline(basis, level, commutation).run(c)
        assert trace_distance(c.unitary(), out.unitary()) < 1e-7


class TestPresetsMatchTranspile:
    @pytest.mark.parametrize("basis", ["u3", "rz"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_same_gates_as_transpile(self, basis, seed):
        c = _random_circuit(seed)
        for level, commutation, pipeline in iter_presets(basis):
            via_fn = transpile(c, basis, level, commutation)
            via_pm = pipeline.run(c)
            assert via_pm.gates == via_fn.gates

    def test_preset_validation(self):
        with pytest.raises(ValueError):
            preset_pipeline("bogus")
        with pytest.raises(ValueError):
            preset_pipeline("u3", optimization_level=7)


class TestPassManager:
    def test_equals_function_composition(self):
        c = _random_circuit(11)
        pm = PassManager([
            SnapTrivialRotations(),
            CancelInversePairs(),
            MergeRuns(),
        ])
        expected = merge_1q_runs(
            cancel_inverse_pairs(snap_trivial_rotations(c))
        )
        assert pm.run(c).gates == expected.gates

    def test_append_and_function_pass(self):
        c = _random_circuit(12)
        pm = PassManager().append(
            FunctionPass(fn=lambda circ: merge_1q_runs(circ), name="merge")
        )
        assert len(pm) == 1
        assert pm.run(c).gates == merge_1q_runs(c).gates

    def test_run_detailed_metrics(self):
        c = _random_circuit(13)
        pm = preset_pipeline("u3", 2)
        res = pm.run_detailed(c)
        assert len(res.metrics) == len(pm)
        assert [m.name for m in res.metrics] == [p.name for p in pm]
        assert all(m.wall_time >= 0.0 for m in res.metrics)
        assert res.metrics[0].gates_in == len(c.gates)
        assert res.metrics[-1].gates_out == len(res.circuit.gates)
        # Chained accounting: each pass starts where the previous ended.
        for prev, cur in zip(res.metrics, res.metrics[1:]):
            assert prev.gates_out == cur.gates_in
        assert res.total_time >= 0.0

    def test_empty_manager_is_identity(self):
        c = _random_circuit(14)
        assert PassManager().run(c).gates == c.gates


class TestCompileCircuit:
    def test_rejects_unknown_workflow(self):
        with pytest.raises(ValueError):
            compile_circuit(Circuit(1), workflow="nope")
        # qft(2) lowers to trivial rotations only, so nothing past the
        # argument checks would notice a bad eps or level.
        for bad in ({"eps": 0.0}, {"eps": -0.1}, {"eps": float("nan")},
                    {"eps": float("inf")}, {"eps_budget": float("nan")},
                    {"eps_budget": float("inf")},
                    {"optimization_level": "fast"},
                    {"optimization_level": 5}):
            with pytest.raises(ValueError, match="eps|optimization_level"):
                compile_circuit(qft(2), workflow="gridsynth", **bad)

    def test_gridsynth_end_to_end(self):
        c = _random_circuit(21, n=2, depth=12)
        res = compile_circuit(c, workflow="gridsynth", eps=0.02)
        assert res.n_rotations > 0
        assert res.total_synthesis_error <= 0.02 * res.n_rotations + 1e-12
        # Output is pure Clifford+T + CX.
        assert all(
            g.name in ("h", "s", "sdg", "t", "tdg", "x", "y", "z",
                       "cx", "cz", "swap")
            for g in res.circuit.gates
        )

    @pytest.mark.parametrize("level", [1, "best"])
    @pytest.mark.parametrize("target", [None, "calibrated_line"])
    def test_fixed_level_uses_preset(self, level, target):
        # objective='count' keeps the first fewest-rotations lowering of
        # the (routed) circuit and synthesizes exactly that one.
        c = _random_circuit(22, n=3, depth=10)
        work, routing = c, None
        if target is not None:
            target = calibrate(Target.line(3))
            routing = route_circuit(c, target)
            work, _ = fix_gate_directions(routing.circuit, target)
        lowered = min(
            preset_lowerings(work, "rz", level), key=rotation_count
        )
        want = synthesize_lowered(
            lowered, "rz", 0.05, SynthesisCache(),
            rng_for=lambda k: rng_for_key(0, k),
        )
        got = compile_circuit(
            c, workflow="gridsynth", eps=0.05, optimization_level=level,
            target=target,
        )
        assert got.circuit.gates == want.circuit.gates
        if routing is not None:
            assert got.routing.permutation == routing.permutation

    def test_batch_matches_rotation_structure(self):
        circs = [_random_circuit(s, n=2, depth=8) for s in range(3)]
        batch = compile_batch(circs, workflow="gridsynth", eps=0.05,
                              max_workers=2)
        assert len(batch) == 3
        singles = [
            compile_circuit(c, workflow="gridsynth", eps=0.05) for c in circs
        ]
        for got, want in zip(batch, singles):
            assert got.circuit.gates == want.circuit.gates


class TestSynthesisCalls:
    """How often each objective synthesizes: count ranks before, the
    others after synthesis."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.pipeline.batch as batch

        seen = []
        real = batch.synthesize_lowered

        def counting(*args, **kwargs):
            seen.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "synthesize_lowered", counting)
        return seen

    @pytest.mark.parametrize("target", [None, "calibrated_line"])
    def test_count_synthesizes_once(self, calls, target):
        if target is not None:
            target = calibrate(Target.line(3))
        compile_circuit(
            _random_circuit(23, n=3, depth=12), workflow="gridsynth",
            eps=0.05, target=target,
        )
        assert len(calls) == 1

    def test_depth_synthesizes_every_preset(self, calls):
        compile_circuit(
            _random_circuit(23, n=3, depth=12), workflow="gridsynth",
            eps=0.05, objective="depth",
        )
        assert len(calls) == len(OPTIMIZATION_LEVELS) * 2 == 10

    def test_esp_synthesizes_every_variant(self, calls):
        from repro.pipeline.batch import _routing_variants

        target = calibrate(Target.line(3))
        compile_circuit(
            _random_circuit(23, n=3, depth=12), workflow="gridsynth",
            eps=0.05, target=target, objective="esp",
        )
        variants = _routing_variants(target, "dense", "esp")
        assert len(variants) == 3
        assert len(calls) == len(variants) * 10
