"""Meet-in-the-middle pair refinement for trasyn.

For two adjacent tensor slots with environment ``E`` (a unitary), the
amplitude of choices (A, B) is ``Tr(E A B)``; maximizing it over both
slots jointly is a nearest-neighbour problem: ``A B`` should approximate
``E^dag`` up to phase, i.e. ``B ~ A^dag E^dag``.

The search uses the quaternion geometry of SU(2): after dividing out the
determinant phase, a 2x2 special unitary ``[[a, -conj(b)], [b, conj(a)]]``
maps to the unit 4-vector ``q = (Re a, Im a, Re b, Im b)``, and

    Tr(U^dag V) = 2 <q_U, q_V>

exactly.  Maximizing |Tr| is therefore a max-|dot| query, served by a
Euclidean k-d tree over ``{+q, -q}`` of every table candidate.  One pair
sweep finds the *jointly* optimal two-slot assignment (up to quaternion
sign degeneracies resolved by exact rescoring), which is what lets the
search reach the information-theoretic error floor of its total T budget.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree


def to_quaternions(mats: np.ndarray) -> np.ndarray:
    """Map a batch of U(2) matrices (N, 2, 2) to unit quaternions (N, 4).

    The result is defined up to sign; callers must treat ``q`` and ``-q``
    as the same rotation.
    """
    det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    phase = np.sqrt(det)
    su = mats / phase[:, None, None]
    q = np.stack(
        [su[:, 0, 0].real, su[:, 0, 0].imag, su[:, 1, 0].real, su[:, 1, 0].imag],
        axis=1,
    )
    return q


class QuaternionIndex:
    """k-d tree over the +-quaternions of a candidate matrix set."""

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        q = to_quaternions(mats)
        self._tree = cKDTree(np.concatenate([q, -q], axis=0))
        self._n = mats.shape[0]

    def nearest(
        self, targets: np.ndarray, k: int = 2, max_distance: float = np.inf
    ) -> np.ndarray:
        """Candidate indices (M, k) maximizing |<q_target, q_candidate>|.

        Only candidates within quaternion distance ``max_distance`` are
        returned; missing neighbours are ``-1``.  A bound prunes the tree
        search, and the neighbours it keeps are the same, in the same
        order, as the leading ones of an unbounded query.
        """
        q = to_quaternions(targets)
        _, idx = self._tree.query(q, k=k, distance_upper_bound=max_distance)
        return np.where(idx < 2 * self._n, idx % self._n, -1)


# Squared-distance slack on the query bound: rounding in the quaternion
# map and the exact rescoring is ~1e-15, far below it.
_BOUND_SLACK = 1e-9


def refine_pairs(
    target: np.ndarray,
    mats: list[np.ndarray],
    choice: np.ndarray,
    indexes: list[QuaternionIndex],
    neighbours: int = 4,
    max_sweeps: int = 4,
) -> tuple[np.ndarray, complex]:
    """Sweep jointly-optimal updates over adjacent slot pairs.

    ``indexes[i]`` must be the :class:`QuaternionIndex` of ``mats[i]``.
    Returns the improved choice vector and its exact amplitude.

    A pair's best update depends only on its environment, i.e. on the
    choices outside the pair.  When those are unchanged since the pair
    was last evaluated, the evaluation would find the same candidate,
    which was either taken then or lost to an amplitude that has only
    grown since, so the pair is skipped.  On two slots the environment
    is always ``U^dag``: one k-d-tree query in total.

    A pair only replaces the current choice when its amplitude beats
    ``|best|``.  Since ``|Tr(env A B)| = 2 - d^2`` for the quaternion
    distance ``d`` between ``A^dag env^dag`` and ``B``, the query is
    bounded to ``d^2 < 2 - |best|`` (plus slack for rounding): every
    pair that could win, and every pair tied with it, is still scored
    exactly as an unbounded query would score it.
    """
    choice = np.array(choice, dtype=np.int64)
    n_slots = len(mats)
    udag = target.conj().T
    best_amp = _amplitude(udag, mats, choice)
    evaluated_with: dict[int, tuple[int, ...]] = {}
    for _ in range(max_sweeps):
        improved = False
        for i in range(n_slots - 1):
            outside = tuple(choice[:i]) + tuple(choice[i + 2:])
            if evaluated_with.get(i) == outside:
                continue
            evaluated_with[i] = outside
            left = np.eye(2, dtype=complex)
            for j in range(i):
                left = left @ mats[j][choice[j]]
            right = np.eye(2, dtype=complex)
            for j in range(i + 2, n_slots):
                right = right @ mats[j][choice[j]]
            env = right @ udag @ left  # amplitude = Tr(env A B)
            env_dag = env.conj().T
            # For every A in slot i, the ideal B is A^dag env^dag.
            a_mats = mats[i]
            targets_b = np.einsum("sji,jk->sik", a_mats.conj(), env_dag)
            reach = math.sqrt(max(2.0 - abs(best_amp), 0.0) + _BOUND_SLACK)
            cand_b = indexes[i + 1].nearest(
                targets_b, k=neighbours, max_distance=reach
            )
            found = cand_b >= 0
            if not found.any():
                continue
            cand_b = np.where(found, cand_b, 0)
            # Exact rescoring: Tr(env A B) for the k nearest B per A.
            ea = np.einsum("ij,sjk->sik", env, a_mats)  # (N, 2, 2)
            b_sel = mats[i + 1][cand_b]  # (N, k, 2, 2)
            scores = np.abs(np.einsum("sab,sjba->sj", ea, b_sel))
            scores[~found] = -1.0
            flat = int(np.argmax(scores))
            s_a, s_b = np.unravel_index(flat, scores.shape)
            amp = np.trace(env @ a_mats[s_a] @ mats[i + 1][cand_b[s_a, s_b]])
            if abs(amp) > abs(best_amp) + 1e-12:
                choice[i] = int(s_a)
                choice[i + 1] = int(cand_b[s_a, s_b])
                best_amp = complex(amp)
                improved = True
        if not improved:
            break
    return choice, best_amp


def _amplitude(udag: np.ndarray, mats: list[np.ndarray], choice) -> complex:
    prod = udag.copy()
    for j, m in enumerate(mats):
        prod = prod @ m[choice[j]]
    return complex(np.trace(prod))
