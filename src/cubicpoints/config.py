"""Tolerance bundle shared across the package.

All thresholds are relative to natural scales (coefficient norms,
normalized projective representatives), never absolute magnitudes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout.

    tau_root: relative residual accepted for a polished polynomial root.
    tau_cluster: radius used to merge nearby roots into one multiple root.
    tau_match: chordal distance below which two projective points are the
        same point for matching and set arithmetic.
    tau_on_curve: relative curve residual accepted for a point reported as
        lying on a curve.
    tau_hesse: relative coefficient residual accepted when fitting a
        transformed cubic to the diagonal-plus-product pencil form.
    smoothness_margin: minimum smoothness margin a sampled cubic on a
        tracked path must keep. The margin is sigma_min / sigma_max of the
        discriminant gate matrix of curve.smoothness: 1 on the Fermat
        cubic, about the relative coefficient distance to the nearest
        singular cubic near the discriminant, and unchanged by a unitary
        change of coordinates.
    tau_singular: gate margin at or below which a cubic is declared
        singular; only then is a singular point searched for, among the
        common zeros of the partials, to report as the witness.
    """

    tau_root: float = 1e-10
    tau_cluster: float = 1e-7
    tau_match: float = 1e-6
    tau_on_curve: float = 1e-8
    tau_hesse: float = 1e-6
    smoothness_margin: float = 1e-4
    tau_singular: float = 1e-8

    def with_(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()
