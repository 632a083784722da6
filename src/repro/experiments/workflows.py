"""End-to-end circuit synthesis workflows (paper Figure 3(a)).

Two competing compilation flows from an input circuit to Clifford+T:

* **trasyn / U3 flow**: transpile to CX+U3 (merging rotations), then
  synthesize each nontrivial U3 directly with trasyn.
* **gridsynth / Rz flow**: transpile to CX+H+Rz (Equation (1)), then
  synthesize each nontrivial Rz with gridsynth.

Both flows run through :mod:`repro.pipeline`: lowering uses the preset
pass pipelines, and rotation synthesis is memoized in a shared
:class:`~repro.pipeline.SynthesisCache` (identical angles appear many
times in Trotter/QAOA circuits).  These entry points keep the paper's
shared-RNG semantics; :func:`repro.pipeline.compile_circuit` is the
order-independent deterministic variant.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits import Circuit, rotation_count
from repro.pipeline import (
    DEFAULT_EPS,
    SynthesisCache,
    SynthesizedCircuit,
    preset_lowerings,
    synthesize_lowered,
)

# Backward-compatible name: the old per-run cache grew into the
# pipeline-level SynthesisCache (same get_or interface).
_SequenceCache = SynthesisCache

__all__ = [
    "DEFAULT_EPS",
    "SynthesizedCircuit",
    "best_transpile",
    "evaluate_synthesized",
    "matched_thresholds",
    "synthesize_circuit_gridsynth",
    "synthesize_circuit_trasyn",
]


def best_transpile(circuit: Circuit, basis: str) -> Circuit:
    """Pick the transpile preset with fewest rotations (Section 3.4)."""
    return min(preset_lowerings(circuit, basis), key=rotation_count)


def synthesize_circuit_trasyn(
    circuit: Circuit,
    eps: float = DEFAULT_EPS,
    rng: np.random.Generator | None = None,
    cache: SynthesisCache | None = None,
    pre_transpiled: bool = False,
) -> SynthesizedCircuit:
    """The U3 workflow: CX+U3 transpilation, trasyn per rotation."""
    if rng is None:
        rng = np.random.default_rng(0)
    if cache is None:
        cache = SynthesisCache()
    start = time.monotonic()
    lowered = circuit if pre_transpiled else best_transpile(circuit, "u3")
    result = synthesize_lowered(
        lowered, "u3", eps, cache,
        rng_for=lambda key: rng,
        name=circuit.name + "_trasyn",
    )
    result.wall_time = time.monotonic() - start
    return result


def synthesize_circuit_gridsynth(
    circuit: Circuit,
    eps: float = DEFAULT_EPS,
    cache: SynthesisCache | None = None,
    pre_transpiled: bool = False,
) -> SynthesizedCircuit:
    """The Rz workflow: CX+H+Rz transpilation, gridsynth per rotation."""
    if cache is None:
        cache = SynthesisCache()
    start = time.monotonic()
    lowered = circuit if pre_transpiled else best_transpile(circuit, "rz")
    result = synthesize_lowered(
        lowered, "rz", eps, cache,
        rng_for=lambda key: np.random.default_rng(0),
        name=circuit.name + "_gridsynth",
    )
    result.wall_time = time.monotonic() - start
    return result


def evaluate_synthesized(
    reference: Circuit,
    synthesized: SynthesizedCircuit | Circuit,
    noise=None,
    *,
    backend: str = "auto",
    trajectories: int | None = None,
    max_bond: int | None = None,
    seed: int = 0,
    reference_state=None,
):
    """Fidelity evaluation of a synthesized circuit against its source.

    Runs through the :mod:`repro.sim.backends` protocol, so circuits
    beyond the 12-qubit density-matrix wall are evaluated with
    statevector trajectories or MPS as appropriate.  Returns a
    :class:`repro.sim.FidelityEvaluation`.  ``reference_state`` lets
    callers evaluating many synthesized variants of one source circuit
    precompute the ideal state once.
    """
    from repro.sim.evaluate import evaluate_fidelity

    circuit = (
        synthesized.circuit
        if isinstance(synthesized, SynthesizedCircuit)
        else synthesized
    )
    return evaluate_fidelity(
        circuit,
        reference=reference,
        noise=noise,
        backend=backend,
        trajectories=trajectories,
        max_bond=max_bond,
        seed=seed,
        reference_state=reference_state,
    )


def matched_thresholds(
    circuit: Circuit, base_eps: float = DEFAULT_EPS
) -> tuple[Circuit, Circuit, float, float]:
    """Transpile both IRs and match circuit-level error budgets.

    Following the paper's RQ3 setup: trasyn synthesizes U3 rotations at
    ``base_eps``; gridsynth's per-rotation threshold is scaled by the
    rotation-count ratio so both flows land at the same circuit-level
    error budget (n_u3 * base_eps).
    """
    u3_circ = best_transpile(circuit, "u3")
    rz_circ = best_transpile(circuit, "rz")
    n_u3 = max(1, rotation_count(u3_circ))
    n_rz = max(1, rotation_count(rz_circ))
    grid_eps = base_eps * n_u3 / n_rz
    return u3_circ, rz_circ, base_eps, grid_eps
