"""Independent correctness oracle: a small dense numpy gate interpreter.

Nothing here imports ``repro``.  Gate matrices are written out from
their textbook definitions, so a convention drift inside the compiler
(a flipped rotation sign, a swapped CX orientation, a word spliced in
the wrong order) shows up as an oracle failure instead of agreeing with
itself.

Conventions: a state on ``n`` qubits is a tensor of shape ``(2,) * n``
whose axis ``q`` is qubit ``q``; a circuit is a sequence of
``(name, qubits, params)`` triples applied in time order; a synthesis
word (``GateSequence.gates``) lists its gates in matrix-product order,
so its matrix is ``G0 @ G1 @ ...``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


class OracleError(Exception):
    """A compiled output disagrees with the independent interpretation."""


_SQ2 = 1.0 / math.sqrt(2.0)
_W = cmath.exp(1j * math.pi / 4)

FIXED_1Q = {
    "i": np.eye(2, dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, _W]).astype(complex),
    "tdg": np.diag([1, _W.conjugate()]).astype(complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
}

# Two-qubit gates as (2, 2, 2, 2) tensors indexed [out_a, out_b, in_a, in_b]
# with the first listed qubit as ``a`` (the control for cx/cz).
_CX = np.zeros((2, 2, 2, 2), dtype=complex)
for _a in range(2):
    for _b in range(2):
        _CX[_a, _b ^ _a, _a, _b] = 1.0
_CZ = np.zeros((2, 2, 2, 2), dtype=complex)
for _a in range(2):
    for _b in range(2):
        _CZ[_a, _b, _a, _b] = -1.0 if (_a and _b) else 1.0
_SWAP = np.zeros((2, 2, 2, 2), dtype=complex)
for _a in range(2):
    for _b in range(2):
        _SWAP[_b, _a, _a, _b] = 1.0
FIXED_2Q = {"cx": _CX, "cz": _CZ, "swap": _SWAP}

#: The gate vocabulary a compiled Clifford+T circuit may use ("i" covers
#: duration-carrying idle markers, which act as the identity).
CLIFFORD_T = frozenset(FIXED_1Q) | frozenset(FIXED_2Q)


def one_qubit_matrix(name: str, params=()) -> np.ndarray:
    """2x2 matrix of a named single-qubit gate."""
    if name in FIXED_1Q:
        return FIXED_1Q[name]
    if name == "rz":
        (theta,) = params
        return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])
    if name == "rx":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "u3":
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [
                [c, -cmath.exp(1j * lam) * s],
                [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
            ],
            dtype=complex,
        )
    raise ValueError(f"oracle has no matrix for gate {name!r}")


def apply_gates(state: np.ndarray, gates, n_qubits: int) -> np.ndarray:
    """Apply time-ordered ``(name, qubits, params)`` gates to ``state``.

    ``state`` has shape ``(2,) * n_qubits + batch``; trailing batch axes
    (e.g. the columns of an identity) ride along untouched.
    """
    for name, qubits, params in gates:
        if len(qubits) == 1:
            m = one_qubit_matrix(name, params)
        elif len(qubits) == 2:
            m = FIXED_2Q.get(name)
            if m is None:
                raise ValueError(f"oracle has no matrix for gate {name!r}")
            m = m.reshape(4, 4)
        else:
            raise ValueError(f"gate {name!r} on {len(qubits)} qubits")
        state = _apply_local(m, state, list(qubits))
    return state


def _apply_local(m: np.ndarray, state: np.ndarray, axes: list[int]) -> np.ndarray:
    """``m`` (indexed ``[out, in]`` over ``axes``) applied to ``state``.

    Written as element-wise sums over the slices of the acted-on axes
    rather than a matrix product, so it never calls into multi-threaded
    BLAS: on a host whose CPUs are shared, BLAS threads that wait for
    each other slow the check down by an order of magnitude.
    """
    k = len(axes)
    moved = np.moveaxis(state, axes, list(range(k)))
    flat = moved.reshape(2**k, -1)
    out = np.zeros_like(flat)
    for i in range(2**k):
        for j in range(2**k):
            if m[i, j] != 0:
                out[i] += m[i, j] * flat[j]
    return np.moveaxis(out.reshape(moved.shape), list(range(k)), axes)


def circuit_unitary(gates, n_qubits: int) -> np.ndarray:
    """Dense unitary of a time-ordered gate list (small ``n`` only)."""
    dim = 2**n_qubits
    cols = np.eye(dim, dtype=complex).reshape((2,) * n_qubits + (dim,))
    return apply_gates(cols, gates, n_qubits).reshape(dim, dim)


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-insensitive distance sqrt(1 - |Tr(U^dag V)/N|^2)."""
    overlap = abs(np.vdot(u, v)) / u.shape[0]
    return math.sqrt(max(0.0, 1.0 - overlap * overlap))


def state_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over global phase of ||a - e^{i phi} b|| for unit vectors."""
    overlap = min(1.0, abs(np.vdot(a, b)))
    return math.sqrt(max(0.0, 2.0 - 2.0 * overlap))


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Seeded Haar-like random state of shape ``(2,) * n_qubits``."""
    dim = 2**n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return (v / np.linalg.norm(v)).reshape((2,) * n_qubits)


def place(state_virtual: np.ndarray, l2p) -> np.ndarray:
    """Move virtual qubit ``v`` of a full-width state onto physical ``l2p[v]``."""
    return np.moveaxis(state_virtual, list(range(len(l2p))), list(l2p))


def grid_edges(rows: int, cols: int) -> frozenset[tuple[int, int]]:
    """Undirected nearest-neighbour edges of a rows x cols grid, row-major."""
    edges = set()
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.add((q, q + 1))
            if r + 1 < rows:
                edges.add((q, q + cols))
    return frozenset(edges)


def check_vocabulary(gates) -> None:
    """Raise unless every gate is a Clifford+T (or idle) gate."""
    for name, qubits, _ in gates:
        if name not in CLIFFORD_T:
            raise OracleError(f"non-Clifford+T gate {name!r} on {qubits}")


def check_coupling(gates, edges) -> None:
    """Raise unless every two-qubit gate sits on a coupling edge."""
    for name, qubits, _ in gates:
        if len(qubits) == 2:
            a, b = qubits
            if (min(a, b), max(a, b)) not in edges:
                raise OracleError(f"{name} on {qubits} is off the coupling map")

