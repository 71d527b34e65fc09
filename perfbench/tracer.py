"""Span recorder that times the ponomap layers from outside.

The traced run replaces each public function listed in ``SPANS`` and
``COUNTS`` at every name its callers look it up by: ``mapping`` imports
``descend`` by name, ``cli`` imports ``build``, ``run_suite`` and the
sequence solvers by name, while ``cli`` and ``verify`` reach ``render`` and
``analysis`` as module attributes.  A span records name, start, end and
parent in flat typed arrays held in memory; ``save`` writes them out once
the run is over.  Hot scalar helpers (``center``, ``eval_h``, tau
evaluations) are counted without spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter

# (owners, attribute, span name); an owner is "module" or "module:Class"
SPANS = [
    (("ponomap.cantor", "ponomap.mapping"), "descend", "cantor.descend"),
    (("ponomap.cantor:SequencePack",), "validate", "cantor.SequencePack.validate"),
    *((("ponomap.mapping:PonomarevMap",), m, f"mapping.{m}")
      for m in ("eval", "eval_inverse", "locate", "jacobian_det", "derivative")),
    (("ponomap.mapping", "ponomap.cli", "ponomap.verify"), "build", "mapping.build"),
    *((("ponomap.render",), f, f"render.{f}")
      for f in ("eval_grid", "displacement_field", "jacobian_field", "grid_distortion")),
    *((("ponomap.render",), f, "render.writers")
      for f in ("write_pgm", "write_ppm", "write_grid_csv")),
    *((("ponomap.analysis",), f, f"analysis.{f}")
      for f in ("shell_integral", "grand_norm_report", "sobolev_depth_profile",
                "shell_integral_mc", "pushforward_check", "upper_sum_at_scale",
                "random_cover", "hausdorff_lower_probe")),
    *((("ponomap.gauge", "ponomap.cli"), f, f"gauge.{f}")
      for f in ("finite_measure_sequence", "null_measure_sequence")),
    (("ponomap.gauge",), "tau_root", "gauge.tau_root"),
    *((("ponomap.verify",), f, f"verify.{f}")
      for f in ("_check_pack", "_check_cantor", "_check_map", "_check_jacobian",
                "_check_measures", "_check_norms", "_check_gauge")),
    (("ponomap.cli", "ponomap.verify"), "run_suite", "verify.run_suite"),
    *((("ponomap.cli",), f, f"cli.{f}") for f in ("read_points", "resolve_config")),
]

COUNTS = [
    (("ponomap.cantor", "ponomap.analysis", "ponomap.verify"), "center", "cantor.center"),
    (("ponomap.gauge", "ponomap.cli", "ponomap.analysis", "ponomap.verify"), "eval_h",
     "gauge.eval_h"),
    (("ponomap.cli",), "make_scales", "cli.make_scales"),
]

# wrappers each workload must hit; a zero count means a patch was missed
EXPECTED = {
    "pointmap": {
        "cli.resolve_config", "cli.make_scales", "cli.read_points",
        "gauge.finite_measure_sequence", "gauge.tau_root", "gauge.tau_evals",
        "cantor.SequencePack.validate", "cantor.descend", "mapping.build",
        "mapping.eval", "mapping.eval_inverse", "mapping.locate",
        "mapping.jacobian_det", "render.eval_grid", "render.displacement_field",
        "render.jacobian_field", "render.grid_distortion", "render.writers",
    },
    "certify": {
        "cli.resolve_config", "cli.make_scales", "gauge.finite_measure_sequence",
        "gauge.tau_root", "gauge.tau_evals", "gauge.eval_h",
        "cantor.SequencePack.validate", "cantor.descend", "cantor.center",
        "mapping.build", "mapping.eval", "mapping.eval_inverse", "mapping.locate",
        "mapping.jacobian_det", "mapping.derivative", "analysis.shell_integral",
        "analysis.grand_norm_report", "analysis.shell_integral_mc",
        "analysis.pushforward_check", "analysis.upper_sum_at_scale",
        "analysis.random_cover", "analysis.hausdorff_lower_probe",
        "verify.run_suite", "verify._check_pack", "verify._check_cantor",
        "verify._check_map", "verify._check_jacobian", "verify._check_measures",
        "verify._check_norms", "verify._check_gauge",
    },
    "norms": {
        "cli.resolve_config", "cli.make_scales", "gauge.finite_measure_sequence",
        "gauge.null_measure_sequence", "gauge.tau_root", "gauge.tau_evals",
        "gauge.eval_h", "cantor.SequencePack.validate", "mapping.build",
        "analysis.shell_integral", "analysis.grand_norm_report",
        "analysis.sobolev_depth_profile",
    },
}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory spans plus named counters, per pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.pass_offsets: list[int] = []
        self.pass_counts: list[Counter] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result)`` runs on success and an
        escaping exception is counted as ``<name>.raised.<Class>``."""
        nid = self._id(name)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts, clock = self.stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name: str, fn, inside: str | None = None):
        """Count calls of ``fn``; with ``inside``, only calls whose innermost
        span carries that name."""
        counts, stack, ids = self.counts, self.stack, self.name_ids
        key = f"{name}.calls"
        if inside is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            nid = self._id(inside)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                top = stack[-1]
                if top >= 0 and ids[top] == nid:
                    counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owners, attr: str, make) -> None:
        originals = {}
        for spec in owners:
            owner = _owner(spec)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            # one wrapper per distinct function, shared by every alias
            if id(fn) not in originals:
                originals[id(fn)] = make(fn)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, originals[id(fn)])

    def install(self) -> None:
        counts = self.counts

        def on_descend(d):
            counts["cantor.descend.depth_sum"] += d.depth
            if d.region == "core":
                counts["cantor.descend.core"] += 1

        def on_suite(report):
            counts["verify.checks"] += len(report.checks)
            counts["verify.checks_failed"] += sum(not c.passed for c in report.checks)

        after = {"cantor.descend": on_descend, "verify.run_suite": on_suite}
        for owners, attr, name in SPANS:
            if name == "render.writers":
                self._patch(owners, attr, lambda fn, n=name: self.span(n, _sized(fn, counts)))
            else:
                self._patch(owners, attr,
                            lambda fn, n=name: self.span(n, fn, after.get(n)))
        for owners, attr, name in COUNTS:
            self._patch(owners, attr, lambda fn, n=name: self.counter(n, fn))
        self._patch(("ponomap.gauge:TauSpec",), "__call__",
                    lambda fn: self.counter("gauge.tau_evals", fn, inside="gauge.tau_root"))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def mark_pass(self) -> None:
        self.pass_offsets.append(len(self.name_ids))
        self.pass_counts.append(Counter(self.counts))

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name_ids=np.frombuffer(self.name_ids, np.int32),
            parents=np.frombuffer(self.parents, np.int32),
            starts_ns=np.frombuffer(self.starts, np.int64),
            ends_ns=np.frombuffer(self.ends, np.int64),
            pass_offsets=np.array(self.pass_offsets, np.int64))

    def pass_stats(self) -> list[dict]:
        """Per pass: {name: {calls, s, self_s}} from spans, and the counters."""
        import numpy as np

        ids = np.frombuffer(self.name_ids, np.int32)
        parents = np.frombuffer(self.parents, np.int32)
        dur = (np.frombuffer(self.ends, np.int64)
               - np.frombuffer(self.starts, np.int64)).astype(np.float64) * 1e-9
        # a parent's children cover disjoint parts of its interval
        covered = np.zeros(len(ids))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_s = dur - covered
        roots = np.flatnonzero(~has_parent)
        root_of = roots[np.searchsorted(roots, np.arange(len(ids)), side="right") - 1] \
            if len(roots) else np.zeros(0, np.int64)
        bounds = self.pass_offsets + [len(ids)]
        counts_at = self.pass_counts + [Counter(self.counts)]
        out = []
        for p in range(len(self.pass_offsets)):
            lo, hi = bounds[p], bounds[p + 1]
            spans = {}
            for nid, name in enumerate(self.names):
                sel = ids[lo:hi] == nid
                spans[name] = {"calls": int(sel.sum()),
                               "s": float(dur[lo:hi][sel].sum()),
                               "self_s": float(self_s[lo:hi][sel].sum())}
            # calls of each span name grouped by the command span it ran under
            by_root: Counter = Counter()
            for nid, rid in zip(ids[lo:hi].tolist(), root_of[lo:hi].tolist()):
                by_root[self.names[nid], self.names[ids[rid]]] += 1
            counts = counts_at[p + 1] - counts_at[p]
            out.append({"spans": spans, "counts": dict(counts),
                        "by_command": {f"{a}@{b}": c for (a, b), c in by_root.items()},
                        "span_count": hi - lo})
        return out


def _sized(fn, counts):
    """Writer wrapper that adds the size of the written file to the counters."""

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        result = fn(path, *args, **kwargs)
        counts["render.bytes_written"] += os.path.getsize(path)
        return result

    return wrapper
