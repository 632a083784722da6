"""Straightforward trasyn kernels: dense sampler, pair sweeps, peephole.

* :func:`dense_sample` draws from a :class:`~repro.tensornet.TraceMPS`
  by materializing every site's (k, N) conditional weights and their
  ``cumsum``; the library binary-searches prefix-Gram sums instead.
* :func:`refine_pairs_reference` re-evaluates every adjacent pair on
  every sweep; the library skips a pair whose environment is unchanged.
* :func:`simplify_sequence_reference` looks every window up in the
  table one at a time; the library keys all windows from one start in
  a single batch.

The library kernels must match these exactly (same choices, same words).
"""

from __future__ import annotations

import numpy as np

from repro.gates.exact import ExactUnitary
from repro.synthesis.trasyn import _segment_cost


def dense_sample(mps, n_samples, rng, chunk_size=1024):
    """``TraceMPS.sample`` with the dense per-site conditional sweep."""
    first = mps.tensors[0][:, 0, :]
    probs0 = np.einsum("sd,sd->s", first, first.conj()).real
    probs0 = np.maximum(probs0, 0.0)
    total = probs0.sum()
    if total <= 0.0:
        raise ArithmeticError("degenerate MPS: all trace values vanish")
    choices = np.empty((n_samples, mps.n_sites), dtype=np.int64)
    choices[:, 0] = rng.choice(probs0.shape[0], size=n_samples, p=probs0 / total)
    msgs = first[choices[:, 0]]
    for site in range(1, mps.n_sites):
        sel, msgs = dense_sample_site(mps.tensors[site], msgs, rng, chunk_size)
        choices[:, site] = sel
    return choices, msgs[:, 0]


def dense_sample_site(a, msgs, rng, chunk_size):
    """One conditional-sampling step over the dense (k, N) weights."""
    n, dl, dr = a.shape
    k = msgs.shape[0]
    gram = np.einsum("slr,smr->slm", a, a.conj()).reshape(n, dl * dl)
    sel = np.empty(k, dtype=np.int64)
    new_msgs = np.empty((k, dr), dtype=complex)
    for lo in range(0, k, chunk_size):
        hi = min(lo + chunk_size, k)
        m = msgs[lo:hi]
        m2 = (m[:, :, None] * m.conj()[:, None, :]).reshape(hi - lo, dl * dl)
        probs = np.maximum((m2 @ gram.T).real, 0.0)
        cum = probs.cumsum(axis=1)
        norm = cum[:, -1]
        if (norm <= 0).any():
            raise ArithmeticError("conditional distribution vanished")
        r = rng.random(hi - lo) * norm
        chosen = (cum < r[:, None]).sum(axis=1).clip(max=n - 1)
        sel[lo:hi] = chosen
        new_msgs[lo:hi] = np.einsum("cl,clr->cr", m, a[chosen])
    return sel, new_msgs


def refine_pairs_reference(target, mats, choice, indexes, neighbours=4,
                           max_sweeps=4):
    """``refine_pairs`` evaluating every pair on every sweep."""
    choice = np.array(choice, dtype=np.int64)
    n_slots = len(mats)
    udag = target.conj().T
    best_amp = _amplitude(udag, mats, choice)
    for _ in range(max_sweeps):
        improved = False
        for i in range(n_slots - 1):
            left = np.eye(2, dtype=complex)
            for j in range(i):
                left = left @ mats[j][choice[j]]
            right = np.eye(2, dtype=complex)
            for j in range(i + 2, n_slots):
                right = right @ mats[j][choice[j]]
            env = right @ udag @ left
            env_dag = env.conj().T
            a_mats = mats[i]
            targets_b = np.einsum("sji,jk->sik", a_mats.conj(), env_dag)
            cand_b = indexes[i + 1].nearest(targets_b, k=neighbours)
            ea = np.einsum("ij,sjk->sik", env, a_mats)
            b_sel = mats[i + 1][cand_b]
            scores = np.abs(np.einsum("sab,sjba->sj", ea, b_sel))
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


def _amplitude(udag, mats, choice):
    prod = udag.copy()
    for j, m in enumerate(mats):
        prod = prod @ m[choice[j]]
    return complex(np.trace(prod))


def simplify_sequence_reference(gates, table, max_window_t=None):
    """``simplify_sequence`` with one ``table.lookup`` per window."""
    if max_window_t is None:
        max_window_t = table.budget
    gates = list(gates)
    changed = True
    while changed:
        changed = False
        n = len(gates)
        i = 0
        while i < n:
            window = ExactUnitary.from_gate(gates[i])
            window_t = 1 if gates[i] in ("T", "Tdg") else 0
            best_rewrite = None
            j = i + 1
            end = i + 1
            while j < n:
                g = gates[j]
                window = window @ ExactUnitary.from_gate(g)
                window_t += 1 if g in ("T", "Tdg") else 0
                j += 1
                if window_t > max_window_t:
                    break
                if j - i < 2:
                    continue
                idx = table.lookup(window)
                if idx is None:
                    continue
                old_cost = _segment_cost(gates[i:j])
                new_seq = table.sequence(idx)
                new_cost = _segment_cost(new_seq)
                if new_cost < old_cost:
                    best_rewrite = list(new_seq)
                    end = j
            if best_rewrite is not None:
                gates[i:end] = best_rewrite
                changed = True
                n = len(gates)
            else:
                i += 1
    return [g for g in gates if g != "I"]
