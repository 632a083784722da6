"""Span tracer for the benchmark's traced run.

The benchmark does not instrument the program.  Instead, for a traced
run it replaces each layer's public callable with a wrapper that records
a span (calls and self time) around the original, then restores
the originals.  Durations are process CPU seconds, like the benchmark's
end-to-end times.  Self time is a span's duration minus the durations of
the spans it encloses, so nested layers are not double counted.

Wrappers are installed where the program looks the callables up:

* module attributes that callers resolve at call time, e.g.
  ``repro.target.route_circuit`` (``batch.py`` imports it inside the
  function body);
* module globals of ``repro.synthesis.trasyn``, reached through
  ``sys.modules`` because the package attribute ``repro.synthesis.trasyn``
  is the *function*, which shadows the module;
* methods of ``TraceMPS``, ``PassManager`` and ``SynthesisCache`` on the
  class itself.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROTATIONS = frozenset({"rz", "rx", "ry", "u3"})


class Tracer:
    """In-memory span aggregator: per-name calls and self time."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._open: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Layer counters recorded at the same boundaries as the spans.
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        children = [0.0]
        self._stack.append(children)
        self._open.append(name)
        start = time.process_time()
        try:
            yield
        finally:
            dur = time.process_time() - start
            self._stack.pop()
            self._open.pop()
            if self._stack:
                self._stack[-1][0] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - children[0]

    def is_open(self, name: str) -> bool:
        return name in self._open

    def wrap(self, name: str, fn, after=None, within=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` counts.

        With ``within``, calls made while no span of that name is open
        are recorded under ``"outside." + name`` instead, so e.g. the
        exact pi/4-angle words the compiler builds with ``synthesize``
        are not counted as trasyn rungs.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if within is not None and not self.is_open(within):
                with self.span("outside." + name):
                    return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def _layer_hooks(tracer: Tracer):
    """``(owner, attribute, span name, after, within)`` per traced callable."""
    import repro.pipeline.batch as batch_mod
    import repro.schedule as schedule_pkg
    import repro.synthesis as synthesis_pkg
    import repro.synthesis.gridsynth as gridsynth_pkg
    import repro.target as target_pkg
    import repro.target.cost as cost_mod
    from repro.pipeline import PassManager, SynthesisCache
    from repro.tensornet import TraceMPS

    trasyn_mod = sys.modules["repro.synthesis.trasyn"]
    counts, maxima = tracer.counts, tracer.maxima

    def after_lower(circuit, args, kwargs):
        counts["lower.rotations_out"] += sum(
            1 for g in circuit.gates if g.name in ROTATIONS
        )

    def after_route(result, args, kwargs):
        counts["route.swaps"] += result.swaps_inserted

    def after_trasyn(seq, args, kwargs):
        eps = kwargs.get("error_threshold")
        if eps is None:
            return
        if seq.error > eps:
            counts["trasyn.threshold_misses"] += 1
        maxima["trasyn.err_ratio.max"] = max(
            maxima["trasyn.err_ratio.max"], seq.error / eps
        )

    def after_rung(result, args, kwargs):
        counts["trasyn.samples_drawn"] += result.samples_drawn

    def after_gridsynth(seq, args, kwargs):
        eps = args[1] if len(args) > 1 else kwargs["eps"]
        if seq.error > eps:
            counts["gridsynth.threshold_misses"] += 1

    inside = "trasyn"
    return [
        (PassManager, "run", "lower", after_lower, None),
        (target_pkg, "route_circuit", "route", after_route, None),
        (batch_mod, "synthesize_lowered", "synthesize_lowered", None, None),
        (SynthesisCache, "get_or", "cache", None, None),
        (synthesis_pkg, "trasyn", "trasyn", after_trasyn, None),
        (trasyn_mod, "synthesize", "trasyn.synthesize", after_rung, inside),
        (TraceMPS, "__init__", "trasyn.mps_build", None, inside),
        (TraceMPS, "sample", "trasyn.sample", None, inside),
        (TraceMPS, "best_first", "trasyn.beam", None, inside),
        (trasyn_mod, "refine_pairs", "trasyn.refine_pairs", None, inside),
        (trasyn_mod, "simplify_sequence", "trasyn.simplify", None, inside),
        (gridsynth_pkg, "gridsynth_rz", "gridsynth", after_gridsynth, None),
        (schedule_pkg, "schedule_circuit", "schedule", None, None),
        (cost_mod, "estimate_esp", "esp", None, None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Install every layer wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, after, within in _layer_hooks(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after, within))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
