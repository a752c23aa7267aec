"""Closed-form distance moments over the vertex set, with an exact oracle.

All quantities are averages of powers of the normalized squared distance
d^2/D^2 (D^2 = 4 N^2 p^2 (p-1)) and are exact rationals.  The closed forms:

  avg_point_to_vertices(a)      = |a|^2/D^2 + 1/4 - 1/(4p) - 1/(4p^2)
  avg_vertex_pairs              = (1 - 1/p - 1/p^2) / 2           (N-free)
  fourth_moment_vertex_pairs    = (p - 2 + 1/p + 2/p^2 - 5/p^3 - 4/p^4) / (4(p-1))
  variance_vertex_pairs         = (1 - 1/p^2 - 4/p^3 - 3/p^4) / (4(p-1))

and the five-term polynomial for the second moment about the mean of the
squared distances from a point to the vertices.  The second moment is
evaluated twice, through two independently derived expressions, and the
results are asserted identical; the polynomial is easy to mistranscribe.

The oracle recomputes each moment in exact integer arithmetic over the uniform
law on the vertices, so a formula/oracle match is a zero-tolerance certificate at
that (p, N).  It reads the law the exhaustive reports read: the weighted orbits of
`kernels.vertex_orbits`, whose d^2 come from `kernels.vertex_dist_sq` (pairs) or
`kernels.PackedApex.dist_sq` (a point).  The cancellation sums weight
<a, s> = 2 L(x) + Tr(a), from the apex's mask sums, and sum s = 2 pc(x) - (p-1)
over the +-1 signs s of the same orbits.  The orbits must fit one batch
(`kernels.require_orbit_batch`): pairs do to p = 509, the north pole to p = 797.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels
from .core import BoxSpec, CyclotomicInt, FieldMismatchError

__all__ = [
    "MomentReport",
    "CancellationCheck",
    "avg_point_to_vertices",
    "second_moment_point_to_vertices",
    "avg_vertex_pairs",
    "fourth_moment_vertex_pairs",
    "variance_vertex_pairs",
    "closed_forms",
    "oracle_moments",
    "oracle_cancellation_sums",
]

@dataclass(frozen=True)
class MomentReport:
    """One moment: its closed-form value and, when computed, the oracle's."""

    kind: str
    p: int
    N: int
    formula_value: Fraction
    oracle_value: Optional[Fraction] = None
    alpha: Optional[tuple] = None

    @property
    def exact_equal(self) -> bool:
        return self.oracle_value is not None and self.oracle_value == self.formula_value


def _check_pair(alpha: CyclotomicInt, box: BoxSpec) -> None:
    if alpha.p != box.p:
        raise FieldMismatchError(f"alpha has p={alpha.p}, box has p={box.p}")


def avg_point_to_vertices(alpha: CyclotomicInt, box: BoxSpec) -> Fraction:
    """Mean of d^2(alpha, x) over vertices x; N enters only through d^2(0, alpha)."""
    _check_pair(alpha, box)
    p = box.p
    d0 = Fraction(alpha.norm_sq(), box.diameter_sq())
    return d0 + Fraction(1, 4) - Fraction(1, 4 * p) - Fraction(1, 4 * p * p)


def second_moment_point_to_vertices(alpha: CyclotomicInt, box: BoxSpec) -> Fraction:
    """Second moment about the mean of d^2(alpha, x) over vertices x."""
    _check_pair(alpha, box)
    p, N = box.p, box.N
    e = alpha.euclid_norm_sq()
    t2 = alpha.trace() ** 2
    n2, n4 = N * N, N ** 4
    d2 = box.diameter_sq()
    d4 = d2 * d2

    poly = (
        (n2 + 2 * e) * p ** 4
        - (n2 + 2 * t2) * p ** 3
        - (3 * n2 + 2 * t2) * p ** 2
        + (n2 - 2 * t2) * p
        + 2 * (n2 - t2)
    )
    value = Fraction(2 * n2 * poly, d4)

    # Independent path: fourth raw moment from the three partial sums, minus
    # the squared mean in unreduced form.  Guards against transcription slips.
    s1 = p ** 4 * (e * e + 2 * n2 * (p + 1) * e + n4 * (p - 1) ** 2)
    s2 = -2 * p * p * (p + 1) * (
        e * t2 + n2 * (p - 1) * e + n2 * (p + 3) * t2 + n4 * (p - 1) ** 2
    )
    s3 = (p + 1) ** 2 * (6 * t2 * n2 * (p - 1) + t2 * t2 + n4 * (p - 1) * (3 * p - 5))
    mean_raw = Fraction(p * p * e - (p + 1) * t2 + n2 * (p ** 3 - 2 * p * p + 1), d2)
    check = Fraction(s1 + s2 + s3, d4) - mean_raw * mean_raw
    assert value == check, "second-moment transcription mismatch"
    return value


def avg_vertex_pairs(box: BoxSpec) -> Fraction:
    """Mean of d^2 over ordered vertex pairs; independent of N."""
    p = box.p
    return Fraction(p * p - p - 1, 2 * p * p)


def fourth_moment_vertex_pairs(box: BoxSpec) -> Fraction:
    """Mean of d^4 over ordered vertex pairs."""
    p = box.p
    num = p ** 5 - 2 * p ** 4 + p ** 3 + 2 * p * p - 5 * p - 4
    return Fraction(num, 4 * (p - 1) * p ** 4)


def variance_vertex_pairs(box: BoxSpec) -> Fraction:
    """Variance of d^2 over ordered vertex pairs."""
    p = box.p
    value = Fraction(p ** 4 - p * p - 4 * p - 3, 4 * (p - 1) * p ** 4)
    a = avg_vertex_pairs(box)
    assert value == fourth_moment_vertex_pairs(box) - a * a
    return value


def closed_forms(box: BoxSpec, alpha: Optional[CyclotomicInt] = None) -> list:
    """The closed-form moments as formula-only reports.

    With `alpha` given, the point-to-vertices average and second moment;
    otherwise the pairwise average, fourth moment and variance.
    """
    if alpha is None:
        laws = [("avg_vertex_pairs", avg_vertex_pairs(box)),
                ("fourth_vertex_pairs", fourth_moment_vertex_pairs(box)),
                ("variance_vertex_pairs", variance_vertex_pairs(box))]
    else:
        laws = [("avg_point_vertices", avg_point_to_vertices(alpha, box)),
                ("second_moment_point_vertices", second_moment_point_to_vertices(alpha, box))]
    apex = None if alpha is None else alpha.coeffs
    return [MomentReport(kind, box.p, box.N, value, None, apex) for kind, value in laws]


# --- exhaustive oracle -------------------------------------------------------

def oracle_moments(box: BoxSpec, alpha: Optional[CyclotomicInt] = None) -> list:
    """Recompute the `closed_forms` moments over the vertex orbits and pair them up.

    Oracle values are computed from exact integer power sums, so equality
    with the closed forms is literal rational equality.
    """
    forms = closed_forms(box, alpha)
    d2 = box.diameter_sq()
    if alpha is None:
        tuples, count, weights = kernels.vertex_orbits(box)
        x, y = tuples[:, 0], tuples[:, 1]
        vals = kernels.vertex_dist_sq(box, x, y, kernels.popcount(x), kernels.popcount(y))
        bound = kernels.dist_sq_bound(box.p, box.dim, 2 * box.N)
    else:
        tuples, count, weights = kernels.vertex_orbits(box, alpha.coeffs)
        apex = kernels.PackedApex(box, alpha.coeffs)
        rows = tuples[:, 0]
        vals, bound = apex.dist_sq(rows, kernels.popcount(rows)), apex.bound
    sq = kernels.lift(vals, bound * bound)
    d2_sum = kernels.weighted_sum(vals, weights, count, bound)
    d4_sum = kernels.weighted_sum(sq * sq, weights, count, bound * bound)
    mean = Fraction(d2_sum, count * d2)
    fourth = Fraction(d4_sum, count * d2 * d2)
    central = fourth - mean * mean
    values = [mean, central] if alpha is not None else [mean, fourth, central]
    return [replace(r, oracle_value=value) for r, value in zip(forms, values)]


@dataclass(frozen=True)
class CancellationCheck:
    """Enumerated vs closed-form values of the vertex sums that collapse."""

    p: int
    N: int
    alpha: tuple
    linear: tuple           # sum_x <a, x>                      -> 0
    quadratic: tuple        # sum_x <a, x>^2                    -> #V * |a|_E^2 * N^2
    trace_quadratic: tuple  # sum_x (sum a)^2 (sum x)^2         -> #V * Tr^2 * N^2 (p-1)
    cubic: tuple            # sum_x (sum x)^3                   -> 0
    quartic: tuple          # sum_x (sum x)^4                   -> #V * N^4 (p-1)(3p-5)

    @property
    def all_match(self) -> bool:
        return all(
            got == want
            for got, want in (self.linear, self.quadratic, self.trace_quadratic,
                              self.cubic, self.quartic)
        )


def oracle_cancellation_sums(alpha: CyclotomicInt, box: BoxSpec) -> CancellationCheck:
    """Verify over the weighted vertex orbits the sums that cancel or collapse."""
    _check_pair(alpha, box)
    p, N, dim = box.p, box.N, box.dim
    tuples, nv, weights = kernels.vertex_orbits(box, alpha.coeffs)
    rows = tuples[:, 0]
    tr = alpha.trace()
    # <a, s> = 2 L(x) + Tr(a), Tr(a) = -sum a_j, over the +-1 signs s of row x; 0 if a = 0
    dots = np.broadcast_to(kernels.PackedApex(box, alpha.coeffs).mask_sum(rows, tr, 2), len(rows))
    bound = dim * max(abs(c) for c in alpha.coeffs)  # on |<a, s>|
    lin = N * kernels.weighted_sum(dots, weights, nv, bound)
    quad = N * N * kernels.weighted_sum(kernels.lift(dots, bound * bound) ** 2, weights, nv,
                                        bound * bound)
    srow = kernels.lift(2 * kernels.popcount(rows) - dim, dim ** 4)  # sum s, |sum s| <= dim
    s2, s3, s4 = (N ** k * kernels.weighted_sum(srow ** k, weights, nv, dim ** k) for k in (2, 3, 4))
    return CancellationCheck(
        p=p,
        N=N,
        alpha=alpha.coeffs,
        linear=(lin, 0),
        quadratic=(quad, nv * alpha.euclid_norm_sq() * N * N),
        trace_quadratic=(tr * tr * s2, nv * tr * tr * N * N * (p - 1)),
        cubic=(s3, 0),
        quartic=(s4, nv * N ** 4 * (p - 1) * (3 * p - 5)),
    )
