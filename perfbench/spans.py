"""Traced runs: spans around calls into each package layer, kept in memory.

The wrappers live here, not in the package.  Installing one replaces the
function at every module attribute that holds it (cubicpoints.curve.smoothness
and cubicpoints.monodromy.smoothness alike), or the method on its class, so
callers inside the package are traced too.  A span records name, start, end,
parent span and op id; self time is a span's duration minus the time its
child spans cover.  A target that a refactor removed is reported as absent.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

# (module, attribute path).  The span is named "<module>.<path>", except that
# torsion_points is split by its certify argument and canonical_section is
# not timed itself: the section callable it returns is, as monodromy.section.
TARGETS = [
    ("numeric", "solve_univariate"),
    ("numeric", "chordal_distance"),
    ("numeric", "chordal_matrix"),
    ("trivariate", "TriPoly.gradient"),
    ("trivariate", "TriPoly.compose_linear"),
    ("curve", "smoothness"),
    ("curve", "inflection_points"),
    ("curve", "polish_onto_curve"),
    ("elliptic", "make_chart"),
    ("elliptic", "third_intersection"),
    ("elliptic", "EllipticChart.add"),
    ("elliptic", "torsion_points"),
    ("elliptic", "points_of_type"),
    ("elliptic", "size_witness"),
    ("symmetry", "hesse_normalize"),
    ("symmetry", "act_on_cubic"),
    ("monodromy", "track"),
    ("monodromy", "canonical_section"),
    ("serialize", "cubic_from_obj"),
    ("serialize", "path_from_obj"),
    ("serialize", "points_to_obj"),
    ("serialize", "canonical_dumps"),
]
TORSION = ("elliptic.torsion_points.certified", "elliptic.torsion_points.uncertified")
SECTION = "monodromy.section"
TRACK = "monodromy.track"
SMOOTHNESS = "curve.smoothness"
OP = "op"


def _span_names() -> list[str]:
    out = []
    for module, path in TARGETS:
        name = f"{module}.{path}"
        if path == "torsion_points":
            out.extend(TORSION)
        elif path != "canonical_section":
            out.append(name)
    return out


# Span names that get .calls, .self_s and .fails metrics, in report order.
SPANS = _span_names()
_MISSING = object()


class Tracer:
    """Spans of one traced pass; install() patches the package, remove() restores it."""

    def __init__(self) -> None:
        self.names = [OP, SECTION] + SPANS
        self._id = {n: i for i, n in enumerate(self.names)}
        # one row per span: [name id, start, end, parent row, op id, failed]
        self.spans: list[list] = []
        self._stack = [-1]
        self._op = -1
        self.degree_sum = 0
        self.steps_taken: dict[int, int] = {}  # track span row -> TrackResult.steps_taken
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> list:
        row = [name_id, time.perf_counter(), 0.0, self._stack[-1], self._op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def _close(self, row: list) -> None:
        row[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_of, after=None):
        def traced(*args, **kwargs):
            row = self._open(name_of(args, kwargs))
            index = self._stack[-1]
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                row[5] = 1
                raise
            finally:
                self._close(row)
            if after is not None:
                after(index, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrapper_for(self, module: str, path: str, fn):
        if path == "torsion_points":
            cert, uncert = (self._id[n] for n in TORSION)

            def name_of(args, kwargs):
                return cert if kwargs.get("certify", args[2] if len(args) > 2 else True) else uncert

            return self._wrap(fn, name_of)
        if path == "canonical_section":
            section = self._id[SECTION]

            def make_section(*args, **kwargs):
                return self._wrap(fn(*args, **kwargs), lambda a, k: section)

            make_section.__wrapped__ = fn
            return make_section
        nid = self._id[f"{module}.{path}"]
        after = None
        if path == "solve_univariate":

            def after(index, args, out):
                self.degree_sum += args[0].degree

        elif path == "track":

            def after(index, args, out):
                self.steps_taken[index] = out.steps_taken

        return self._wrap(fn, lambda a, k: nid, after)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cubicpoints" or k.startswith("cubicpoints.")]
        for module, path in TARGETS:
            try:
                owner = importlib.import_module("cubicpoints." + module)
            except ModuleNotFoundError:
                owner = _MISSING
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, _MISSING)
            fn = getattr(owner, attr, _MISSING)
            if fn is _MISSING:
                self.absent.append(f"{module}.{path}")
                continue
            wrapper = self._wrapper_for(module, path, fn)
            holders = [owner] if outer else [m for m in modules if getattr(m, attr, None) is fn]
            for holder in holders:
                self._patches.append((holder, attr, fn))
                setattr(holder, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            holder, attr, fn = self._patches.pop()
            setattr(holder, attr, fn)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span opened inside carries its id."""
        self._op = op_id
        row = self._open(self._id[OP])
        try:
            yield
        except BaseException:
            row[5] = 1
            raise
        finally:
            self._close(row)
            self._op = -1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-span calls, self time and fails, plus the tracking counters."""
        n = len(self.spans)
        child = [0.0] * n
        track_of = [-1] * n  # nearest enclosing monodromy.track span
        track, section, smooth = self._id[TRACK], self._id[SECTION], self._id[SMOOTHNESS]
        for i, (nid, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                track_of[i] = track_of[parent]
            if nid == track:
                track_of[i] = i
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        fails = [0] * len(self.names)
        evals: dict[int, int] = {}
        smooth_under_track = 0
        for i, (nid, start, end, _, _, failed) in enumerate(self.spans):
            calls[nid] += 1
            self_s[nid] += end - start - child[i]
            fails[nid] += failed
            if track_of[i] >= 0 and nid == section:
                evals[track_of[i]] = evals.get(track_of[i], 0) + 1
            smooth_under_track += track_of[i] >= 0 and nid == smooth
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            i = self._id[name]
            out[f"{name}.calls"] = (calls[i], "count")
            out[f"{name}.self_s"] = (self_s[i], "s")
            out[f"{name}.fails"] = (fails[i], "count")
        section_evals = sum(evals.values())
        accepted = sum(self.steps_taken.values())
        # each finished track evaluates the section once at its start, then
        # once per accepted or rejected step
        rejected = sum(evals.get(t, 0) - 1 - k for t, k in self.steps_taken.items())
        out["numeric.solve_univariate.degree_sum"] = (self.degree_sum, "count")
        out["monodromy.section_evals"] = (section_evals, "count")
        out["monodromy.steps_accepted"] = (accepted, "count")
        out["monodromy.steps_rejected"] = (rejected, "count")
        out["monodromy.accept_ratio"] = (accepted / section_evals if section_evals else 0.0, "ratio")
        out["monodromy.smoothness_per_eval"] = (
            smooth_under_track / section_evals if section_evals else 0.0, "ratio"
        )
        return out

    def steps_per_track(self) -> list[int]:
        return [self.steps_taken[t] for t in sorted(self.steps_taken)]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "op", "failed"],
                    "absent": self.absent,
                    "spans": self.spans,
                },
                fh,
            )
