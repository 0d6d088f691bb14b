"""Tracking labeled point sections along paths of smooth cubics.

A path is piecewise linear in coefficient space.  Tracking evaluates the
section at every step and matches points by nearest neighbor, which is
sound exactly when the step is small against the section's separation;
ambiguous matches trigger step bisection rather than guesswork.  After an
accepted step the next step is sized from the share of the match test's
room that step used, aiming at 1 / _STEP_MARGIN of it, between half and
twice the step and at most the path's base step (Allgower and Georg,
Introduction to Numerical Continuation Methods, ch. 6).  A section
whose signature has a near parameter receives the previous accepted
points there and may continue them instead of recomputing: the
inflections section corrects the nine flexes by Newton
(curve._correct_flexes) and computes them afresh, from a triangle of the
curve's Hesse pencil, only when the correction cannot prove it found all
nine.  Both polish with one batched Newton, curve._newton_flexes.  Other
sections are recomputed from scratch at every step.  Every step computes
one distance matrix, the new set's from the last points, for both the
separation and the match (a continued set holds the corrector's), and the
end set's CurvePoints are built once, after the loop.

track certifies every curve it visits against smoothness_margin, once, and
only then evaluates the section there.  The certificate is the discriminant
gate of curve.smoothness, whose margin does not depend on the frame the
path is written in; the search for a singular point runs only on a curve
the gate finds singular, to name that point.  The sections of
canonical_section therefore expect a curve the caller has certified and
skip the weaker smoothness check of inflection_points.

The verdicts on requested section sizes, SizeVerdict and section_verdict,
are integer arithmetic and live in sizes.py; they are imported from there,
with _integer, the check of every step count and type index.  Waypoints
join when _meets finds them one curve.  The group law (elliptic) and the
symmetries (symmetry) are imported inside the functions that use them, so
a process that tracks only the flexes loads neither.
"""

from __future__ import annotations

import inspect
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .curve import (
    CubicForm,
    PointSet,
    _correct_flexes,
    _flexes_of_smooth,
    inflection_points,
    smoothness,
)
from .errors import (
    DiscriminantPathError,
    InputError,
    NumericalError,
    TrackingAmbiguityError,
)
from .sizes import SizeVerdict, _integer, section_verdict

if TYPE_CHECKING:
    from .symmetry import ProjectiveTransform

__all__ = [
    "Permutation",
    "ParameterPath",
    "TrackResult",
    "track",
    "permutation_of_automorphism",
    "canonical_section",
    "SizeVerdict",
    "section_verdict",
    "FreeActionReport",
    "verify_free_K_action",
]


class Permutation:
    """Bijection of {0, ..., n-1}; composition applies the right factor first."""

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        imgs = [int(i) for i in images]
        if sorted(imgs) != list(range(len(imgs))):
            raise InputError("images do not describe a permutation")
        self.images = tuple(imgs)

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(other) != len(self):
            raise InputError("cannot compose permutations of different sizes")
        return Permutation([self.images[other.images[i]] for i in range(len(self))])

    def inverse(self) -> "Permutation":
        out = [0] * len(self)
        for i, j in enumerate(self.images):
            out[j] = i
        return Permutation(out)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, fixed points included, smallest entry first."""
        seen = [False] * len(self)
        out: list[tuple[int, ...]] = []
        for start in range(len(self)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __repr__(self) -> str:
        parts = ["(" + " ".join(str(i) for i in c) + ")" for c in self.cycles() if len(c) > 1]
        return "Permutation(" + ("".join(parts) if parts else "id") + ")"


# Two waypoints meet when their coefficient vectors are proportional up to
# this relative residual: a few roundings of the same curve, nothing more.
_MEET_TOL = 1e-9


def _meets(f: CubicForm, g: CubicForm) -> bool:
    """Whether waypoints f and g are one curve, so a path may pass from f to g: f's residual against g's line."""
    return f._rep.proportionality_residual(g._rep) <= _MEET_TOL


# track's smallest step: a step that must be halved below it raises.
_MIN_STEP = 1e-6
# More steps would make the base step smaller than _MIN_STEP.
_MAX_STEPS = round(1.0 / _MIN_STEP)


class ParameterPath:
    """Piecewise-linear path through cubic coefficient space; track's base step is 1 / max(steps, segments)."""

    def __init__(self, waypoints: list[CubicForm], steps: int = 64) -> None:
        if len(waypoints) < 2:
            raise InputError("a path needs at least two waypoints")
        self.waypoints = list(waypoints)
        self.steps = _integer(steps, "the step count", most=_MAX_STEPS)

    def at(self, t: float) -> CubicForm:
        if not 0.0 <= t <= 1.0:
            raise InputError("path parameter must lie in [0, 1]")
        nseg = len(self.waypoints) - 1
        x = t * nseg
        i = min(math.floor(x), nseg - 1)
        s = x - i
        p = self.waypoints[i].coeffs
        q = self.waypoints[i + 1].coeffs
        return CubicForm(p * (1.0 - s) + q * s)

    def is_closed(self) -> bool:
        return _meets(self.waypoints[0], self.waypoints[-1])

    def reversed(self) -> "ParameterPath":
        return ParameterPath(list(reversed(self.waypoints)), self.steps)

    def concatenate(self, other: "ParameterPath") -> "ParameterPath":
        if not _meets(self.waypoints[-1], other.waypoints[0]):
            raise InputError("paths do not meet end to start")
        return ParameterPath(
            self.waypoints + other.waypoints[1:], self.steps + other.steps
        )


class TrackResult(NamedTuple):
    """Outcome of tracking: labeled start and end sections, loop permutation.

    end.points[i] is where the point that started at start.points[i] ended
    up.  For a closed path, permutation(j) = i says the track that started
    at label i came home to slot j.
    """

    start: PointSet
    end: PointSet
    permutation: Permutation | None
    steps_taken: int
    min_margin: float


# t sums inexact steps, so the loop ends once t is within roundoff of 1
# instead of taking a last step of a few ulps.
_END_SLACK = 1e-12
# A match must be clear: each point's runner-up is this many times farther
# than its nearest, so a near tie is bisected rather than guessed.
_MATCH_RATIO = 10.0
# No point may move more than this fraction of the new set's separation in
# one step, so it cannot reach a neighbour's basin.
_MATCH_REACH = 0.25
# The next step aims to use 1 / _STEP_MARGIN of the last step's room. A sweep
# over 1.0-1.5 on the translation loop (steps=24) and twelve lassos about the
# discriminant (steps=40) costs least near 1.25: 36 section calls for 36
# steps, against 54 for 39 at 1.0 and 41 for 41 at 1.5.
_STEP_MARGIN = 1.25


def _nearest_two(D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's nearest column, its distance d1 and the runner-up's d2: inf with one column, d1 on a tie."""
    if D.shape[1] < 2:
        return D.argmin(axis=1), D[:, 0], np.full(len(D), np.inf)
    return (D.argmin(axis=1), *np.partition(D, 1, axis=1).T[:2])


def track(
    path: ParameterPath,
    section,
    tol: Tolerances = DEFAULT_TOLERANCES,
    steps: int | None = None,
) -> TrackResult:
    """Continue a section along the path, matching each step's points to the last.

    The section argument maps a CubicForm to a PointSet; it runs only on
    curves already certified here, one smoothness certificate per visited
    curve.  When inspect.signature(section) has a near parameter (it
    follows functools.wraps), every call after the start passes the last
    accepted points, a (n, 3) array in label order, as near; otherwise the
    section is called on the curve alone.  Either way the returned set goes
    through the same matching, on its distances from the last points
    (PointSet._distances_from, which gives the separation too).  A step is
    accepted when the set keeps its size and a separation above 2
    tau_match, and each last point has a distinct nearest new point, at
    most _MATCH_REACH times the new separation away and more than
    _MATCH_RATIO times closer than its runner-up; otherwise, or when the
    section raises NumericalError, the step is halved.  An accepted step
    of length h used the share u of the test's room, the largest over the
    points of _MATCH_RATIO d1 / d2 and d1 / reach (d1 and d2 the nearest
    and runner-up distances); the next step is h / (_STEP_MARGIN u) within
    [h / 2, 2 h], and at most the base step 1 / max(steps, segments), so
    no step is longer than one waypoint segment (u = 0, when no point
    moved, gives 2 h).  The end set is built once, from the last accepted
    set in the matched order.  min_margin is the smallest discriminant-gate
    margin over the accepted curves, a unitary invariant (1 on the Fermat
    cubic).  Raises DiscriminantPathError when any visited curve has a gate
    margin at or below smoothness_margin, TrackingAmbiguityError, naming
    the rejection's reason, when a step would fall below _MIN_STEP, and
    InputError when steps, which overrides path.steps, is not an integer
    from 1 to _MAX_STEPS.
    """
    count = path.steps if steps is None else _integer(steps, "the step count", most=_MAX_STEPS)
    base = 1.0 / max(count, len(path.waypoints) - 1)
    f0 = path.at(0.0)
    rep = smoothness(f0, tol)
    if not rep.smooth or rep.margin <= tol.smoothness_margin:
        raise DiscriminantPathError("path starts on or near the discriminant")
    min_margin = rep.margin
    start = section(f0)
    n = len(start)
    if n == 0:
        raise InputError("cannot track an empty section")
    if start.min_separation() <= 2.0 * tol.tau_match:
        raise NumericalError("section points start closer than the matching scale")
    continues = "near" in inspect.signature(section).parameters
    current = start.arrays.copy()
    last, assignment = start, np.arange(n)
    t = 0.0
    dt = base
    taken = 0
    while t < 1.0 - _END_SLACK:
        t2 = min(1.0, t + dt)
        f2 = path.at(t2)
        rep = smoothness(f2, tol)
        if not rep.smooth or rep.margin <= tol.smoothness_margin:
            raise DiscriminantPathError(
                f"path meets the discriminant near parameter {t2:.6g}"
            )
        try:
            S2 = section(f2, near=current) if continues else section(f2)
        except NumericalError:
            reason = "section could not be recomputed"
        else:
            # points moved this step: demand a clear nearest, not a tolerance hit
            D = S2._distances_from(current)
            separation = S2.min_separation()
            ok = separation > 2.0 * tol.tau_match and len(S2) == n
            if ok:
                assignment, d1, d2 = _nearest_two(D)
                reach = _MATCH_REACH * separation
                clear = _MATCH_RATIO * d1
                # the share of the test's room this step used, by point: at most 1 when accepted
                used = np.maximum(clear / d2, d1 / reach)
                ok = not np.count_nonzero((d2 <= clear) | (d1 > reach)) and len(set(assignment.tolist())) == n
            reason = None if ok else "point matching stayed ambiguous"
        if reason:
            dt *= 0.5
            if dt < _MIN_STEP:
                raise TrackingAmbiguityError(f"{reason} near parameter {t2:.6g}")
            continue
        current = S2.arrays[assignment]
        last = S2
        min_margin = min(min_margin, rep.margin)
        t = t2
        taken += 1
        # aim the next step at 1 / _STEP_MARGIN of the room, within a factor of 2 of this one
        dt = min(base, dt * max(0.5, 1.0 / max(_STEP_MARGIN * float(used.max()), 0.5)))
    end = PointSet([last[j] for j in assignment.tolist()], tol.tau_match)
    perm = None
    if path.is_closed():
        images = start.match(end)
        if images is None:
            raise TrackingAmbiguityError(
                "closed path did not return the section onto itself"
            )
        perm = Permutation(images)
    return TrackResult(start, end, perm, taken, min_margin)


def permutation_of_automorphism(T: ProjectiveTransform, points: PointSet) -> Permutation:
    """sigma(i) = j when the transform carries points[i] to points[j].

    With composition applying the right factor first, this assignment is a
    homomorphism: sigma_(S T) = sigma_S * sigma_T.
    """
    from .symmetry import _permutation_images

    return Permutation(_permutation_images(T, points))


def canonical_section(name: str, tol: Tolerances = DEFAULT_TOLERANCES):
    """Resolve a section name to a callable CubicForm -> PointSet.

    Supported names: "inflections", and "type3k:K" for a positive integer
    K, which marks the first inflection in canonical order as identity (the
    resulting set does not depend on that choice).

    A section expects a curve the caller has certified smooth, as track
    certifies every curve it visits; it does not certify again.  Called on
    a singular curve, a cone included, it raises NumericalError, not
    SingularCurveError.

    The inflections section also takes a keyword near, the (9, 3) stack of
    the flexes of a nearby curve, as track passes it.  It then returns
    curve._correct_flexes's Newton correction of those points, in near's
    order, and falls back to the full computation (canonical order) when
    the correction returns None.
    """
    if name == "inflections":

        def flexes(f: CubicForm, near=None) -> PointSet:
            if near is not None:
                corrected = _correct_flexes(f, near, tol)
                if corrected is not None:
                    return corrected
            return _flexes_of_smooth(f, tol)

        return flexes
    if name.startswith("type3k:"):
        tail = name.split(":", 1)[1]
        try:
            k = int(tail)
        except ValueError:
            raise InputError(f"bad type index in section name: {name!r}") from None
        k = _integer(k, "the type index")

        def sec(f: CubicForm) -> PointSet:
            from .elliptic import make_chart, points_of_type

            flexes = _flexes_of_smooth(f, tol)
            chart = make_chart(f, flexes[0].point, tol)
            return points_of_type(chart, k, certify=False)

        return sec
    raise InputError(f"unknown section name: {name!r}")


class FreeActionReport(NamedTuple):
    free: bool
    point_count: int
    orbit_sizes: tuple[int, ...]


def verify_free_K_action(
    k: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> FreeActionReport:
    """Check that the nine Fermat translations act freely on the type-3k points."""
    from .curve import fermat_cubic
    from .elliptic import make_chart, points_of_type
    from .symmetry import fermat_translations, generate_group, orbit_decomposition

    k = _integer(k, "the type index")
    f = fermat_cubic()
    a, b = fermat_translations(tol)
    group = generate_group([a, b], cap=30)
    flexes = inflection_points(f, tol)
    chart = make_chart(f, flexes[0].point, tol)
    pts = points_of_type(chart, k)
    rep = orbit_decomposition(group, pts)
    return FreeActionReport(
        free=rep.free,
        point_count=len(pts),
        orbit_sizes=tuple(sorted(len(o) for o in rep.orbits)),
    )
