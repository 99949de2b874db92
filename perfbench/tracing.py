"""Spans and work counters recorded from outside the package.

The tracer replaces public functions at the module bindings their callers
use (``usreg_sim.pipeline.capture_us``, ``usreg_sim.harness.run_trial``
and so on) with wrappers that record one span per call, then puts the
originals back. No package code changes. Spans stay in memory until the
benchmark writes them out.

A span is ``[name, layer, start_ns, end_ns, parent, trace_id]``. ``parent``
is the index of the enclosing span or -1; every span under one top-level
call (one trial, one registration case, one report write) shares that
call's ``trace_id``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager

# (module whose binding callers use, function name, layer). A function
# imported into two modules is wrapped at both bindings; each caller goes
# through exactly one of them, so no call is counted twice.
TRACED = (
    ("usreg_sim.harness", "run_trial", "harness"),
    ("usreg_sim.harness", "emit_reports", "harness"),
    ("usreg_sim.harness", "generate_phantom", "phantom"),
    ("usreg_sim.harness", "place_phantom", "phantom"),
    ("usreg_sim.harness", "target_grid", "phantom"),
    ("usreg_sim.harness", "ct_frame_volume", "phantom"),
    ("usreg_sim.harness", "hv_search", "pipeline"),
    ("usreg_sim.harness", "hv_acquire", "pipeline"),
    ("usreg_sim.harness", "coordinate_map", "pipeline"),
    ("usreg_sim.harness", "slice_match", "pipeline"),
    ("usreg_sim.harness", "target_imaging", "pipeline"),
    ("usreg_sim.harness", "judge_success", "pipeline"),
    ("usreg_sim.pipeline", "capture_us", "probe"),
    ("usreg_sim.pipeline", "segment_full", "probe"),
    ("usreg_sim.pipeline", "segment_branch", "probe"),
    ("usreg_sim.pipeline", "omia", "imgvol"),
    ("usreg_sim.pipeline", "resample_crop", "imgvol"),
    ("usreg_sim.pipeline", "largest_connected_component", "imgvol"),
    ("usreg_sim.pipeline", "register_rigid", "registration"),
    ("usreg_sim.registration", "register_rigid", "registration"),
)

LAYERS = ("phantom", "probe", "imgvol", "registration", "pipeline", "harness")


@contextmanager
def patched(module_name: str, fn_name: str, make_wrapper):
    """Bind ``make_wrapper(original)`` in place of ``module.fn_name`` for the block."""
    mod = importlib.import_module(module_name)
    original = getattr(mod, fn_name)
    setattr(mod, fn_name, functools.wraps(original)(make_wrapper(original)))
    try:
        yield
    finally:
        setattr(mod, fn_name, original)


class Tracer:
    """Records spans and work counters while installed (a context manager)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_trace = 0
        self._hooks = {
            "register_rigid": self._register_rigid,
            "hv_search": self._hv_search,
            "slice_match": self._slice_match,
            "target_imaging": self._target_imaging,
        }

    def __enter__(self) -> "Tracer":
        self._patches = ExitStack()
        for module_name, fn_name, layer in TRACED:
            self._patches.enter_context(
                patched(module_name, fn_name, self._wrapper_factory(fn_name, layer))
            )
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()

    def _wrapper_factory(self, fn_name: str, layer: str):
        name = f"{layer}.{fn_name}"
        hook = self._hooks.get(fn_name)

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                if self._stack:
                    parent = self._stack[-1]
                    trace_id = self.spans[parent][5]
                else:
                    parent, trace_id = -1, self._next_trace
                    self._next_trace += 1
                span = [name, layer, time.perf_counter_ns(), 0, parent, trace_id]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    return hook(fn, args, kwargs) if hook else fn(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter_ns()
                    self._stack.pop()

            return wrapper

        return make_wrapper

    # -- counters read from each call's own result

    def _register_rigid(self, fn, args, kwargs):
        if kwargs.get("return_trace"):
            return fn(*args, **kwargs)
        # the public trace: one best score per pattern-search sweep, per
        # pyramid level (the coarse level keeps only the winning restart's)
        transform, score, traces = fn(*args, **{**kwargs, "return_trace": True})
        for level, trace in enumerate(traces):
            self.counts[f"sweeps.L{level}"] += len(trace)
        return transform, score

    def _hv_search(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.counts["waypoints"] += result.waypoints_visited
        return result

    def _slice_match(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.counts["comparisons"] += len(result.scores)
        return result

    def _target_imaging(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.counts["frames"] += len(result)
        return result

    # -- summaries

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def total_ms(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end, _, _ in self.spans:
            out[name] += (end - start) / 1e6
        return out

    def self_ms(self) -> dict[str, float]:
        """Per layer: span time minus the part its child spans cover."""
        covered = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for i, (_, layer, start, end, _, _) in enumerate(self.spans):
            out[layer] += (end - start - covered[i]) / 1e6
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "trace_id": t}
            for n, _, s, e, p, t in self.spans
        ]
