"""Command line interface.

Exit codes: 0 success, 2 bad input, 3 singular curve (including paths that
meet the discriminant), 4 numerical failure, 5 unresolvable tracking
ambiguity.  Output is fully assembled before anything is written, so a
failing run never leaves partial output behind.

Only the stdlib and the integer size arithmetic are imported up front, so
counts, j2, sizes and verdict start without numpy; the curve subcommands
import the numeric stack when they run.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import CubicPointsError, InputError, NumericalError, SingularCurveError, TrackingAmbiguityError
from .sizes import _witnesses_up_to, canonical_dumps, jordan_totient_2, section_verdict

_EXIT_INPUT = 2
_EXIT_NUMERICAL = 4
# The exit code of each package error class, which its subclasses share
# (a DiscriminantPathError exits as a SingularCurveError).
_EXIT_CODES = (
    (InputError, _EXIT_INPUT), (SingularCurveError, 3), (TrackingAmbiguityError, 5), (NumericalError, _EXIT_NUMERICAL)
)
# The subcommands whose output has no CSV form.
_JSON_ONLY = frozenset({"verdict", "hesse", "smooth", "track"})
# The Fermat flexes solve closed-form equations: a chordal miss this large has lost digits.
_SELFTEST_FLEX_MISS = 1e-10
# hesse_normalize gives back a pencil member's lam within this: its fit is checked to tau_hesse.
_SELFTEST_LAM_MISS = 1e-6


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_cubic(path: str):
    from .serialize import cubic_from_obj

    return cubic_from_obj(_load_json(path))


def _tolerances(args: argparse.Namespace) -> Tolerances:
    tol = DEFAULT_TOLERANCES
    if args.tol_match is not None:
        if not 0.0 < args.tol_match < 1.0:
            raise InputError("--tol-match must lie strictly between 0 and 1")
        tol = tol.with_(tau_match=args.tol_match)
    if args.tol_root is not None:
        if not 0.0 < args.tol_root < 1.0:
            raise InputError("--tol-root must lie strictly between 0 and 1")
        tol = tol.with_(tau_root=args.tol_root)
    return tol


def _emit_points(points, args: argparse.Namespace) -> str:
    from .serialize import points_to_csv, points_to_obj

    if args.format == "csv":
        return points_to_csv(points)
    return canonical_dumps(points_to_obj(points))


def _chart_for(args, f, tol: Tolerances):
    from .curve import inflection_points
    from .elliptic import make_chart

    flexes = inflection_points(f, tol)
    idx = getattr(args, "identity_index", 0) or 0
    if not 0 <= idx < len(flexes):
        raise InputError(f"identity index must lie in [0, {len(flexes) - 1}]")
    return make_chart(f, flexes[idx].point, tol)


def _cmd_inflections(args) -> str:
    from .curve import inflection_points

    tol = _tolerances(args)
    f = _load_cubic(args.curve)
    return _emit_points(inflection_points(f, tol), args)


def _cmd_type3k(args) -> str:
    from .elliptic import points_of_type

    tol = _tolerances(args)
    f = _load_cubic(args.curve)
    chart = _chart_for(args, f, tol)
    return _emit_points(points_of_type(chart, args.k), args)


def _cmd_torsion(args) -> str:
    from .elliptic import torsion_points

    tol = _tolerances(args)
    f = _load_cubic(args.curve)
    chart = _chart_for(args, f, tol)
    return _emit_points(torsion_points(chart, args.order), args)


def _cmd_counts(args) -> str:
    if args.max_k < 1:
        raise InputError("--max-k must be a positive integer")
    rows = [(k, 9 * jordan_totient_2(k)) for k in range(1, args.max_k + 1)]
    if args.format == "csv":
        lines = ["k,type,count"] + [f"{k},{3 * k},{c}" for k, c in rows]
        return "\n".join(lines) + "\n"
    return canonical_dumps({"counts": {str(3 * k): c for k, c in rows}})


def _cmd_j2(args) -> str:
    if args.max_k < 1:
        raise InputError("--max-k must be a positive integer")
    rows = [(k, jordan_totient_2(k)) for k in range(1, args.max_k + 1)]
    if args.format == "csv":
        return "\n".join(["k,j2"] + [f"{k},{v}" for k, v in rows]) + "\n"
    return canonical_dumps({"j2": {str(k): v for k, v in rows}})


def _cmd_sizes(args) -> str:
    witnesses = _witnesses_up_to(args.bound)
    if args.format == "csv":
        lines = ["n,witness"]
        for n, w in witnesses.items():
            lines.append(f"{n},{' '.join(str(k) for k in w)}")
        return "\n".join(lines) + "\n"
    out = {
        "bound": args.bound,
        "sizes": list(witnesses),
        "witnesses": {str(n): w for n, w in witnesses.items()},
    }
    return canonical_dumps(out)


def _cmd_verdict(args) -> str:
    v = section_verdict(args.n)
    return canonical_dumps(
        {
            "n": v.n,
            "status": v.status,
            "witness": v.witness,
            "detail": v.detail,
        }
    )


def _cmd_hesse(args) -> str:
    from .serialize import _pair
    from .symmetry import hesse_normalize

    tol = _tolerances(args)
    f = _load_cubic(args.curve)
    T, lam = hesse_normalize(f, tol)
    matrix = [[_pair(complex(c)) for c in row] for row in T.matrix]
    return canonical_dumps({"lambda": _pair(lam), "transform": matrix})


def _cmd_track(args) -> str:
    from .monodromy import canonical_section, track
    from .serialize import path_from_obj, points_to_obj

    tol = _tolerances(args)
    path = path_from_obj(_load_json(args.path))
    sec = canonical_section(args.section, tol)
    result = track(path, sec, tol)
    out = {
        "closed": path.is_closed(),
        "steps_taken": result.steps_taken,
        "min_margin": result.min_margin,
        "start": points_to_obj(result.start)["xyz"],
        "end": points_to_obj(result.end)["xyz"],
        "permutation": list(result.permutation.images) if result.permutation else None,
        "cycle_type": (
            list(result.permutation.cycle_type()) if result.permutation else None
        ),
    }
    return canonical_dumps(out)


def _cmd_smooth(args) -> str:
    from .curve import smoothness
    from .serialize import _pair

    tol = _tolerances(args)
    f = _load_cubic(args.curve)
    rep = smoothness(f, tol)
    out = {
        "smooth": rep.smooth,
        "margin": rep.margin,
        "witness": [_pair(c) for c in rep.witness.coords] if rep.witness else None,
    }
    return canonical_dumps(out)


def _check(cond: bool, msg: str) -> None:
    """A self-test check that, unlike assert, python -O keeps: AssertionError(msg) unless cond."""
    if not cond:
        raise AssertionError(msg)


def _selftest_cases(seed: int, tol: Tolerances):
    import numpy as np

    from .curve import CubicForm, fermat_cubic, hesse_cubic, inflection_points, random_smooth_cubic, smoothness
    from .elliptic import make_chart, points_of_type, torsion_points
    from .monodromy import verify_free_K_action
    from .numeric import chordal_distance, normalize_point
    from .sizes import constructible_sizes, size_witness
    from .symmetry import hesse_normalize

    w = np.exp(2j * np.pi / 3)

    def flexes_closed_form():
        f = fermat_cubic()
        pts = inflection_points(f, tol)
        worst = 0.0
        for i in range(3):
            for k in range(3):
                v = np.zeros(3, dtype=complex)
                v[i] = -(w**k)
                v[(i + 1) % 3] = 1.0
                worst = max(
                    worst,
                    min(chordal_distance(normalize_point(v), p.point) for p in pts),
                )
        _check(worst <= _SELFTEST_FLEX_MISS, f"closed-form mismatch {worst:.2e}")

    def singular_detection():
        f = CubicForm.from_coeffs({(1, 1, 1): 1.0})
        rep = smoothness(f, tol)
        _check(not rep.smooth, "triangle cubic reported smooth")

    def group_law():
        f = fermat_cubic()
        flexes = inflection_points(f, tol)
        chart = make_chart(f, flexes[0].point, tol)
        P, Q = flexes[3].point, flexes[5].point
        _check(
            chordal_distance(chart.add(P, Q).point, chart.add(Q, P).point) <= tol.tau_match,
            "addition is not commutative",
        )
        s = chart.add(P, chart.negate(P))
        _check(chordal_distance(s.point, chart.identity) <= tol.tau_match, "P plus -P missed the identity")

    def torsion_counts():
        f = fermat_cubic()
        flexes = inflection_points(f, tol)
        chart = make_chart(f, flexes[0].point, tol)
        for m in (2, 3, 4):
            _check(len(torsion_points(chart, m)) == m * m, f"the {m}-torsion count is off")
        _check(len(points_of_type(chart, 2)) == 27, "sextatic count is off")

    def size_arithmetic():
        expected = [9, 27, 36, 72, 81, 99, 108, 117, 135, 144, 180]
        _check(constructible_sizes(180) == expected, "frozen size list changed")
        _check(size_witness(36) == [1, 2], "36 lost its witness [1, 2]")
        _check(size_witness(18) is None, "18 gained a witness")

    def translation_action():
        rep = verify_free_K_action(1, tol)
        _check(rep.free and rep.point_count == 9 and rep.orbit_sizes == (9,), f"the translations act as {rep}")

    def hesse_fit():
        lam0 = 1.25 + 0.5j
        _, lam = hesse_normalize(hesse_cubic(lam0), tol)
        _check(abs(lam - lam0) <= _SELFTEST_LAM_MISS, f"lambda came back as {lam}")

    def random_curve():
        rng = np.random.default_rng(seed)
        f = random_smooth_cubic(rng)
        flexes = inflection_points(f, tol)
        _check(len(flexes) == 9, f"{len(flexes)} flexes")
        chart = make_chart(f, flexes[0].point, tol)
        counts = [len(points_of_type(chart, k)) for k in (1, 2, 3)]
        _check(counts == [9, 27, 72], f"layer counts came out as {counts}")

    return [
        ("fermat-inflections-closed-form", flexes_closed_form),
        ("singular-detection", singular_detection),
        ("group-law", group_law),
        ("torsion-counts", torsion_counts),
        ("size-arithmetic", size_arithmetic),
        ("translation-action", translation_action),
        ("hesse-fit", hesse_fit),
        ("random-curve", random_curve),
    ]


def _cmd_selftest(args) -> str:
    tol = _tolerances(args)
    cases = _selftest_cases(args.seed, tol)
    lines = []
    failures = 0
    for name, fn in cases:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            lines.append(f"FAIL {name}: {exc}")
        except Exception as exc:  # a crash is still a failed check
            failures += 1
            lines.append(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            lines.append(f"PASS {name}")
    lines.append(f"{len(cases) - failures}/{len(cases)} checks passed")
    text = "\n".join(lines) + "\n"
    if failures:
        raise _SelftestFailure(text)
    return text


class _SelftestFailure(NumericalError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicpoints",
        description="Distinguished point sets on smooth plane cubics.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--tol-match", type=float, default=None, metavar="T")
    parser.add_argument("--tol-root", type=float, default=None, metavar="T")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inflections", help="the nine inflection points of a curve")
    p.add_argument("--curve", required=True, help="path to a cubic JSON file")
    p.set_defaults(fn=_cmd_inflections)

    p = sub.add_parser("type3k", help="points of type 3k for the given k")
    p.add_argument("--curve", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--identity-index", type=int, default=0)
    p.set_defaults(fn=_cmd_type3k)

    p = sub.add_parser("torsion", help="points killed by the given order")
    p.add_argument("--curve", required=True)
    p.add_argument("-m", "--order", type=int, required=True)
    p.add_argument("--identity-index", type=int, default=0)
    p.set_defaults(fn=_cmd_torsion)

    p = sub.add_parser("counts", help="sizes of the type-3k layers")
    p.add_argument("--max-k", type=int, default=4)
    p.set_defaults(fn=_cmd_counts)

    p = sub.add_parser("j2", help="second Jordan totient values")
    p.add_argument("--max-k", type=int, default=8)
    p.set_defaults(fn=_cmd_j2)

    p = sub.add_parser("sizes", help="constructible section sizes up to a bound")
    p.add_argument("--bound", type=int, default=180)
    p.set_defaults(fn=_cmd_sizes)

    p = sub.add_parser("verdict", help="classify a requested section size")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_verdict)

    p = sub.add_parser("hesse", help="normalize a curve into the diagonal pencil")
    p.add_argument("--curve", required=True)
    p.set_defaults(fn=_cmd_hesse)

    p = sub.add_parser("smooth", help="smoothness certificate for a curve")
    p.add_argument("--curve", required=True)
    p.set_defaults(fn=_cmd_smooth)

    p = sub.add_parser("track", help="track a section along a path of cubics")
    p.add_argument("--path", required=True, help="path to a path JSON file")
    p.add_argument("--section", default="inflections")
    p.set_defaults(fn=_cmd_track)

    p = sub.add_parser("selftest", help="run the built-in verification battery")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.format == "csv" and args.command in _JSON_ONLY:
            raise InputError(f"the {args.command} subcommand only writes JSON")
        text = args.fn(args)
    except _SelftestFailure as exc:
        sys.stdout.write(str(exc))
        return _EXIT_NUMERICAL
    except CubicPointsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return _EXIT_INPUT
    else:
        sys.stdout.write(text)
    return 0


def console_entry() -> None:
    sys.exit(main())
