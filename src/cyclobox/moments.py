"""Closed-form distance moments over the vertex set, with an exhaustive oracle.

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

The oracle recomputes each moment by full enumeration of the 2^(p-1)
vertices (or all ordered vertex pairs) in exact integer arithmetic, so a
formula/oracle match is a zero-tolerance certificate at that (p, N).
"""

from __future__ import annotations

from dataclasses import dataclass
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


# --- exhaustive oracle -------------------------------------------------------

def _pair_power_sums(box: BoxSpec) -> tuple:
    """Power sums of d^2 over all ordered vertex pairs.

    Works block-triangularly: an off-diagonal block stands for both orders
    of its pairs, so it is enumerated once and counted twice.
    """
    v = kernels.box_vertices(box)
    n = len(v)
    block = max(1, int(((1 << 22) // max(box.dim, 1)) ** 0.5))
    total2 = 0
    total4 = 0
    for i0 in range(0, n, block):
        vi = v[i0 : i0 + block]
        for j0 in range(i0, n, block):
            s2, s4 = kernels.power_sums(box.p, vi[:, None, :], v[None, j0 : j0 + block, :],
                                        2 * box.N)
            weight = 1 if i0 == j0 else 2
            total2 += weight * s2
            total4 += weight * s4
    return n * n, total2, total4


def oracle_moments(box: BoxSpec, alpha: Optional[CyclotomicInt] = None) -> list:
    """Recompute moments by full enumeration and pair them with the formulas.

    With `alpha` given, returns the point-to-vertices average and second
    moment; otherwise the exact pairwise average, fourth moment and variance.
    Oracle values are computed from exact integer power sums, so equality
    with the closed forms is literal rational equality.
    """
    d2 = box.diameter_sq()
    reports = []
    if alpha is not None:
        _check_pair(alpha, box)
        v = kernels.box_vertices(box)
        m = box.N + max(abs(c) for c in alpha.coeffs)
        s2, s4 = kernels.power_sums(box.p, v, kernels.coeff_array(alpha.coeffs), m)
        mean = Fraction(s2, len(v) * d2)
        var = Fraction(s4, len(v) * d2 * d2) - mean * mean
        reports.append(
            MomentReport("avg_point_vertices", box.p, box.N,
                         avg_point_to_vertices(alpha, box), mean, alpha.coeffs)
        )
        reports.append(
            MomentReport("second_moment_point_vertices", box.p, box.N,
                         second_moment_point_to_vertices(alpha, box), var, alpha.coeffs)
        )
        return reports

    count, s2, s4 = _pair_power_sums(box)
    mean = Fraction(s2, count * d2)
    fourth = Fraction(s4, count * d2 * d2)
    reports.append(MomentReport("avg_vertex_pairs", box.p, box.N, avg_vertex_pairs(box), mean))
    reports.append(
        MomentReport("fourth_vertex_pairs", box.p, box.N, fourth_moment_vertex_pairs(box), fourth)
    )
    reports.append(
        MomentReport("variance_vertex_pairs", box.p, box.N,
                     variance_vertex_pairs(box), fourth - mean * mean)
    )
    return reports


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
    """Verify by enumeration the sums over vertices that cancel or collapse."""
    _check_pair(alpha, box)
    # object dtype keeps every sum exact regardless of the size of alpha and N
    v = kernels.box_vertices(box).astype(object)
    p, N = box.p, box.N
    nv = len(v)
    a = np.array(alpha.coeffs, dtype=object)
    dots = v @ a
    srow = v.sum(axis=1)
    lin = int(np.sum(dots))
    quad = int(np.sum(dots * dots))
    s2 = int(np.sum(srow * srow))
    s3 = int(np.sum(srow ** 3))
    s4 = int(np.sum(srow ** 4))
    tr = alpha.trace()
    e = alpha.euclid_norm_sq()
    return CancellationCheck(
        p=p,
        N=N,
        alpha=alpha.coeffs,
        linear=(lin, 0),
        quadratic=(quad, nv * e * N * N),
        trace_quadratic=(tr * tr * s2, nv * tr * tr * N * N * (p - 1)),
        cubic=(s3, 0),
        quartic=(s4, nv * N ** 4 * (p - 1) * (3 * p - 5)),
    )
