"""The benchmark's two workloads: inputs, one compile pass, oracle.

Each workload turns ``--seed`` into its inputs, runs one *pass* (every
circuit once, with a cold :class:`repro.SynthesisCache`), and checks
each output against :mod:`oracle`.

All calls go through the program's public API; nothing here imports the
program's own benchmark harness.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

import oracle

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")

#: Gate names counted by ``t_count`` and ``clifford_count`` (non-Pauli
#: single-qubit Cliffords, as in the paper's Clifford count).
T_GATES = frozenset({"t", "tdg"})
CLIFFORD_GATES = frozenset({"h", "s", "sdg"})


@dataclass
class Quality:
    """Checked figures of one item's output."""

    t_count: int
    clifford_count: int
    synthesis_error: float
    #: Predicted success probability, or None without a target.
    esp: float | None = None


def load_circuit(name: str):
    """Parse a frozen circuit after verifying its manifest checksum."""
    from repro.circuits.qasm import from_qasm

    with open(os.path.join(INPUTS, "MANIFEST.json")) as fh:
        entry = json.load(fh)["circuits"][name]
    with open(os.path.join(INPUTS, entry["file"]), "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != entry["sha256"]:
        raise RuntimeError(f"{entry['file']}: checksum {digest} != manifest")
    return from_qasm(raw.decode())


def cpu_seconds() -> float:
    """User + system CPU time of this process and its reaped children.

    The benchmark times compiles in CPU seconds: unlike wall time they do
    not grow while the process waits for a CPU that other load holds.
    Children are included so work moved into subprocesses still counts.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def time_items(items, run):
    """``run(i, item)`` per item; ``(wall seconds, CPU seconds, outputs)``.

    An item that raises yields its exception as the output, counted as
    failed by the caller.
    """
    walls, cpus, outputs = [], [], []
    for i, (name, item) in enumerate(items):
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out = run(i, item)
        except Exception as exc:
            out = exc
        cpus.append(cpu_seconds() - c0)
        walls.append(time.perf_counter() - w0)
        outputs.append((name, out))
    return walls, cpus, outputs


def gate_triples(circuit):
    return [(g.name, tuple(g.qubits), tuple(g.params)) for g in circuit.gates]


def ladder_top(eps: float) -> int:
    """Largest table budget trasyn's escalation ladder uses at ``eps``."""
    from repro.synthesis.trasyn import schedule_for_threshold

    ladder = schedule_for_threshold(eps)
    return max(b if isinstance(b, int) else b[1] for r in ladder for b in r)


def _recording_cache():
    """A cold SynthesisCache that remembers the error of every new word."""
    from repro import SynthesisCache

    class RecordingCache(SynthesisCache):
        def __init__(self):
            super().__init__()
            self.words: list[tuple[float, float]] = []  # (error, banded eps)

        def put(self, key, seq):
            stored = super().put(key, seq)
            if stored is seq:
                self.words.append((seq.error, float(key[-1])))
            return stored

    return RecordingCache()


class CompileWorkload:
    """Frozen circuits through ``repro.compile_circuit``, one shared cold cache per pass."""

    circuits: tuple[str, ...] = ()
    workflow = "trasyn"
    eps: float | None = None  # None: the compile_circuit default

    def __init__(self, seed: int):
        self.seed = seed

    def table_budgets(self) -> list[int]:
        from repro.pipeline import bucket_eps

        if self.workflow != "trasyn":
            return []
        # Budget 2 serves the exact pi/4-angle U3s.
        return sorted({2, ladder_top(bucket_eps(self.requested_eps()))})

    def setup(self) -> None:
        self.inputs = [(name, load_circuit(name)) for name in self.circuits]

    def compile_kwargs(self) -> dict:
        kw = {"workflow": self.workflow, "seed": self.seed}
        if self.eps is not None:
            kw["eps"] = self.eps
        return kw

    def run_pass(self):
        """``(item walls, item CPU seconds, outputs, cache)`` for one cold pass."""
        from repro import compile_circuit

        cache = _recording_cache()
        kwargs = self.compile_kwargs()
        walls, cpus, outputs = time_items(
            self.inputs, lambda i, circuit: compile_circuit(circuit, cache=cache, **kwargs)
        )
        return walls, cpus, outputs, cache

    def requested_eps(self) -> float:
        from repro.pipeline import DEFAULT_EPS

        return self.eps or DEFAULT_EPS

    def quality(self, circuit, result) -> Quality:
        gates = gate_triples(result.circuit)
        oracle.check_vocabulary(gates)
        self.check_action(circuit, result, gates)
        return Quality(
            t_count=sum(1 for g in gates if g[0] in T_GATES),
            clifford_count=sum(1 for g in gates if g[0] in CLIFFORD_GATES),
            synthesis_error=result.total_synthesis_error,
            esp=result.esp,
        )

    def check_action(self, circuit, result, gates) -> None:
        raise NotImplementedError


class TrasynSuite(CompileWorkload):
    """One small circuit per paper category at ``compile_circuit`` defaults."""

    circuits = ("qft_n3", "tfim_n2", "qaoa_n4_p1")

    def check_action(self, circuit, result, gates) -> None:
        n = circuit.n_qubits
        want = oracle.circuit_unitary(gate_triples(circuit), n)
        got = oracle.circuit_unitary(gates, n)
        dist = oracle.unitary_distance(want, got)
        if dist > result.total_synthesis_error + 1e-9:
            raise oracle.OracleError(
                f"distance {dist:.3e} exceeds reported "
                f"{result.total_synthesis_error:.3e}"
            )


class RoutedEsp(CompileWorkload):
    """Gridsynth compiles ranked by ESP on a seeded calibrated grid:4x4."""

    circuits = ("qaoa_n16_p2", "heisenberg_n14_s2", "qft_n12")
    workflow = "gridsynth"
    rows = cols = 4

    def setup(self) -> None:
        from repro import Target

        super().setup()
        rng = np.random.default_rng([self.seed, 4])
        self.edges = oracle.grid_edges(self.rows, self.cols)
        # Small rates keep ESP well above 0 on ~10k-gate outputs, so the
        # objective ranks real differences rather than makespan ties.
        edge_errors = {e: float(rng.uniform(3.5e-4, 6.5e-4)) for e in sorted(self.edges)}
        self.target = Target.grid(
            self.rows,
            self.cols,
            gate_errors={
                "h": 1e-5, "s": 1e-5, "sdg": 1e-5, "x": 1e-5, "y": 1e-5,
                "z": 1e-5, "t": 2e-5, "tdg": 2e-5, "cx": 5e-4, "swap": 1.5e-3,
            },
            gate_durations={"cx": 3.0, "swap": 9.0, "t": 1.0, "tdg": 1.0},
            edge_errors=edge_errors,
            idle_error_rate=1e-6,
        )

    def compile_kwargs(self) -> dict:
        return {**super().compile_kwargs(), "objective": "esp", "target": self.target}

    def check_action(self, circuit, result, gates) -> None:
        oracle.check_coupling(gates, self.edges)
        routing = result.routing
        n_phys = result.circuit.n_qubits
        n = circuit.n_qubits
        rng = np.random.default_rng([self.seed, 5, n])
        psi = oracle.random_state(rng, n)
        ancillas = np.zeros((2,) * (n_phys - n), dtype=complex)
        ancillas.flat[0] = 1.0
        want = oracle.apply_gates(psi, gate_triples(circuit), n)
        want = oracle.place(np.multiply.outer(want, ancillas), routing.permutation)
        start = oracle.place(
            np.multiply.outer(psi, ancillas), routing.initial_layout.as_list()
        )
        got = oracle.apply_gates(start, gates, n_phys)
        dist = oracle.state_distance(want.ravel(), got.ravel())
        if dist > 2.0 * result.total_synthesis_error + 1e-9:
            raise oracle.OracleError(
                f"state distance {dist:.3e} exceeds 2*sum(eps) = "
                f"{2.0 * result.total_synthesis_error:.3e}"
            )


WORKLOADS = {
    "trasyn-suite": TrasynSuite,
    "routed-esp": RoutedEsp,
}
