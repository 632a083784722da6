"""The trace-value MPS at the heart of trasyn.

Given a target unitary ``U`` and per-slot candidate matrices ``M_i[s_i]``
(each slot holding every Clifford+T matrix within a T-count range), the
exponentially large tensor of trace values

    T[s_1, ..., s_l] = Tr( U^dag  M_1[s_1] M_2[s_2] ... M_l[s_l] )

is represented exactly as a matrix product state with bond dimension at
most four: the 2x2 matrix index pair travels along the chain and the
trace closure index is carried through every bond (paper Figure 5(b-c),
implemented here as an open-boundary MPS instead of a ring).

Right-canonicalizing the chain (sequential SVDs, paper step 1) makes the
conditional distributions of step 2 local, so *perfect sampling* from
``p proportional to |T|^2`` costs one forward pass per sample batch, and
every sample's amplitude — hence its synthesis error — comes out of the
pass for free.

Only site 0 sees the target, so everything right of it — canonical
sites, the SVD carry site 0 absorbs, and the prefix sums of each site's
Gram tensors that the sampler binary-searches — is a
:class:`TraceLayout` built once per set of slot matrices and shared by
every target.
"""

from __future__ import annotations

import numpy as np

_EYE2 = np.eye(2, dtype=complex)


class TraceLayout:
    """The target-independent part of a :class:`TraceMPS`.

    Sites 1..l-1 of the canonical trace MPS depend only on the slot
    matrices: right-canonicalization sweeps from the last site towards
    site 0, and only site 0 ever sees the target.  A layout holds those
    sites once, together with

    * ``carry`` — the SVD factor site 0 absorbs to finish the sweep;
    * ``prefix_grams`` — per site, the real array ``(N, 2 * dl^2)`` of
      prefix sums of the Gram tensors ``G[s] = A[s] A[s]^dag``, laid out
      so that the cumulative conditional weight of candidate ``s`` for a
      message ``m`` is ``[Re(m m^dag), Im(m m^dag)] . prefix_grams[s]``.

    Building a layout costs the SVDs and Gram sums; every
    :class:`TraceMPS` over the same slot matrices then builds only its
    own site 0 and samples by binary search on the prefix sums.
    """

    def __init__(self, site_matrices: list[np.ndarray]):
        if len(site_matrices) < 2:
            raise ValueError("TraceMPS needs at least two slots; use a direct "
                             "table lookup for single-slot synthesis")
        self.site_matrices = list(site_matrices)
        self.n_sites = len(site_matrices)
        self.site_sizes = [m.shape[0] for m in site_matrices]
        sites = self._build(site_matrices)
        self.carry = self._canonicalize(sites)
        self.sites = sites
        self.prefix_grams = [_prefix_gram(a) for a in sites]

    @staticmethod
    def _build(mats: list[np.ndarray]) -> list[np.ndarray]:
        """Site tensors 1..l-1 (N, D_left, D_right); bond carries (b, a)."""
        tensors: list[np.ndarray] = []
        # Middle sites: W[s, (b,a), (c,a')] = M[s, b, c] * delta_{a,a'}.
        for m in mats[1:-1]:
            w = np.einsum("sbc,ad->sbacd", m, _EYE2)
            tensors.append(np.ascontiguousarray(w.reshape(m.shape[0], 4, 4)))
        # Last site: V[s, (b,a)] = M[s, b, a] closes the trace loop.
        last = mats[-1].reshape(-1, 4, 1)
        tensors.append(np.ascontiguousarray(last))
        return tensors

    @staticmethod
    def _canonicalize(sites: list[np.ndarray]) -> np.ndarray:
        """Right-canonicalize ``sites`` in place; return site 0's carry."""
        carry = None
        for i in range(len(sites) - 1, -1, -1):
            a = sites[i]
            n, dl, dr = a.shape
            mat = a.transpose(1, 0, 2).reshape(dl, n * dr)
            u, s, vh = np.linalg.svd(mat, full_matrices=False)
            rank = s.shape[0]
            sites[i] = np.ascontiguousarray(
                vh.reshape(rank, n, dr).transpose(1, 0, 2)
            )
            carry = u * s
            if i > 0:
                sites[i - 1] = np.einsum("slm,mr->slr", sites[i - 1], carry)
        return carry


def _prefix_gram(a: np.ndarray) -> np.ndarray:
    """Real prefix sums of a site's Gram tensors, shape (N, 2 * dl^2)."""
    n, dl, _ = a.shape
    gram = np.einsum("slr,smr->slm", a, a.conj()).reshape(n, dl * dl)
    cum = gram.cumsum(axis=0)
    # Re(sum m2 * g) = Re(m2) . Re(g) - Im(m2) . Im(g).
    return np.concatenate([cum.real, -cum.imag], axis=1)


class TraceMPS:
    """Open-boundary MPS whose full contraction enumerates trace values.

    Parameters
    ----------
    target:
        The 2x2 unitary ``U`` being synthesized.
    site_matrices:
        List of arrays, one per slot, each of shape ``(N_i, 2, 2)``.
    layout:
        The :class:`TraceLayout` of ``site_matrices``, shared across
        targets; built here when omitted.
    """

    def __init__(
        self,
        target: np.ndarray,
        site_matrices: list[np.ndarray],
        layout: TraceLayout | None = None,
    ):
        target = np.asarray(target, dtype=complex)
        if target.shape != (2, 2):
            raise ValueError("target must be a 2x2 matrix")
        if layout is None:
            layout = TraceLayout(site_matrices)
        elif layout.site_sizes != [m.shape[0] for m in site_matrices]:
            raise ValueError("layout was built for different slot sizes")
        self.target = target
        self.layout = layout
        self.n_sites = layout.n_sites
        self.site_sizes = layout.site_sizes
        # Site 1: B[s] = U^dag M_1[s]; vector over bond (b1, a) = B[s, a, b1].
        b = np.einsum("ab,sbc->sac", target.conj().T, site_matrices[0])
        first = np.ascontiguousarray(b.transpose(0, 2, 1).reshape(-1, 1, 4))
        first = np.einsum("slm,mr->slr", first, layout.carry)
        self.tensors = [first, *layout.sites]

    # -- exact contraction (testing / tiny instances) -----------------------
    def full_tensor(self) -> np.ndarray:
        """Contract everything into the dense trace-value tensor.

        Exponential in the number of slots — test-sized inputs only.
        """
        result = self.tensors[0]  # (N1, 1, D)
        n_accum = result.shape[0]
        result = result.reshape(n_accum, -1)
        for a in self.tensors[1:]:
            n, dl, dr = a.shape
            result = np.einsum("xl,slr->xsr", result.reshape(-1, dl), a)
            result = result.reshape(-1, dr)
        return result.reshape(self.site_sizes)

    # -- perfect sampling ----------------------------------------------------
    def sample(
        self,
        n_samples: int,
        rng: np.random.Generator,
        chunk_size: int = 1024,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw samples from p(s_1..s_l) proportional to |T[s_1..s_l]|^2.

        Returns ``(choices, amplitudes)`` with ``choices`` of shape
        ``(n_samples, n_sites)`` and exact complex trace values per
        sample (no renormalization is ever applied to amplitudes).
        """
        first = self.tensors[0][:, 0, :]  # (N1, D)
        probs0 = np.einsum("sd,sd->s", first, first.conj()).real
        probs0 = np.maximum(probs0, 0.0)
        total = probs0.sum()
        if total <= 0.0:
            raise ArithmeticError("degenerate MPS: all trace values vanish")
        choices = np.empty((n_samples, self.n_sites), dtype=np.int64)
        choices[:, 0] = rng.choice(
            probs0.shape[0], size=n_samples, p=probs0 / total
        )
        msgs = first[choices[:, 0]]  # (k, D)
        for site in range(1, self.n_sites):
            sel, msgs = self._sample_site(
                self.tensors[site], self.layout.prefix_grams[site - 1],
                msgs, rng, chunk_size,
            )
            choices[:, site] = sel
        amplitudes = msgs[:, 0]
        return choices, amplitudes

    @staticmethod
    def _sample_site(
        a: np.ndarray,
        prefix_gram: np.ndarray,
        msgs: np.ndarray,
        rng: np.random.Generator,
        chunk_size: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One conditional-sampling step for a batch of partial chains.

        The conditional weight of candidate ``s`` is ``m^dag G[s] m``, so
        the cumulative weight up to ``s`` is one dot product of the
        message's outer product with ``prefix_gram[s]``.  Each chain
        draws ``r`` uniform in [0, total) and binary-searches for the
        first ``s`` whose cumulative weight reaches ``r``: ``log2 N``
        gathers instead of materializing the (k, N) weights.
        """
        n, dl, dr = a.shape
        k = msgs.shape[0]
        steps = n.bit_length()
        sel = np.empty(k, dtype=np.int64)
        new_msgs = np.empty((k, dr), dtype=complex)
        for lo in range(0, k, chunk_size):
            hi = min(lo + chunk_size, k)
            m = msgs[lo:hi]
            m2 = (m[:, :, None] * m.conj()[:, None, :]).reshape(hi - lo, dl * dl)
            v = np.concatenate([m2.real, m2.imag], axis=1)  # (c, 2 dl^2)
            norm = v @ prefix_gram[-1]
            if (norm <= 0).any():
                raise ArithmeticError("conditional distribution vanished")
            r = rng.random(hi - lo) * norm
            # Count the candidates whose cumulative weight is below r.
            left = np.zeros(hi - lo, dtype=np.int64)
            right = np.full(hi - lo, n, dtype=np.int64)
            for _ in range(steps):
                mid = (left + right) // 2
                cum = np.einsum("cd,cd->c", v, prefix_gram[np.minimum(mid, n - 1)])
                active = left < right
                below = cum < r
                left = np.where(active & below, mid + 1, left)
                right = np.where(active & ~below, mid, right)
            chosen = np.minimum(left, n - 1)
            sel[lo:hi] = chosen
            new_msgs[lo:hi] = np.einsum("cl,clr->cr", m, a[chosen])
        return sel, new_msgs

    # -- greedy decoding (extension beyond the paper) -------------------------
    def best_first(self, beam_width: int = 64) -> tuple[np.ndarray, complex]:
        """Beam search for a high-|amplitude| index assignment.

        The conditional weights used for sampling also steer a
        deterministic beam search; this is the "fine-grained control"
        extension the paper's tensor formulation makes cheap.
        """
        first = self.tensors[0][:, 0, :]
        weights = np.einsum("sd,sd->s", first, first.conj()).real
        order = np.argsort(weights)[::-1][:beam_width]
        beams = [((int(s),), first[s]) for s in order]
        for site in range(1, self.n_sites):
            a = self.tensors[site]
            candidates = []
            msgs = np.stack([m for _, m in beams])
            b = np.einsum("kl,slr->ksr", msgs, a)
            scores = np.einsum("ksr,ksr->ks", b, b.conj()).real
            flat = np.argsort(scores, axis=None)[::-1][: beam_width * 4]
            for f in flat[: beam_width * 4]:
                ki, si = np.unravel_index(f, scores.shape)
                candidates.append((beams[ki][0] + (int(si),), b[ki, si]))
                if len(candidates) >= beam_width:
                    break
            beams = candidates
        best_idx, best_msg = max(beams, key=lambda t: abs(t[1][0]))
        return np.array(best_idx, dtype=np.int64), complex(best_msg[0])
