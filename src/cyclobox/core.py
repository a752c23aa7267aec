"""Exact arithmetic on cyclotomic integers and the trace-form metric.

An element of Z[w], w = exp(2*pi*i/p) with p an odd prime, is stored as its
coefficient vector (a_1, ..., a_{p-1}) in the power basis w, w^2, ..., w^{p-1}.
The trace embedding

    psi(a) = (Tr(a*w), Tr(a*w^2), ..., Tr(a*w^{p-1}))

maps Z[w] into Z^{p-1}; the squared length of psi(a) is the squared norm
used throughout, and it collapses to the closed form

    ||a||^2 = p^2 * sum(a_j^2) - (p+1) * Tr(a)^2,    Tr(a) = -(a_1+...+a_{p-1}).

Everything here is integer arithmetic; rationals (`fractions.Fraction`)
enter only with distances normalized by the box diameter, and floats only
at reporting boundaries (complex-plane embedding, cosines).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Union

ExactRational = Fraction

__all__ = [
    "CycloboxError",
    "FieldMismatchError",
    "DegenerateAngleError",
    "GuardError",
    "ExactRational",
    "CyclotomicInt",
    "TraceVector",
    "BoxSpec",
    "is_odd_prime",
    "trace",
    "psi",
    "norm_sq",
    "euclid_norm_sq",
    "dist_sq",
    "inner_product",
    "diameter_sq",
    "normalized_dist_sq",
    "cos_central_angle",
    "galois_apply",
    "north_pole",
    "east_pole",
    "north_pole_point",
    "alternating_point",
    "embed_complex",
    "euclidean_diameter",
]


VERTEX_ENUM_MAX_P = 17  # 2^16 vertices, 2^32 ordered pairs: the feasibility edge


class CycloboxError(Exception):
    """Base class for errors raised by this package."""


class FieldMismatchError(CycloboxError):
    """Two operands live in cyclotomic fields with different primes."""


class DegenerateAngleError(CycloboxError):
    """A central angle was requested at the origin."""


class GuardError(CycloboxError):
    """A feasibility guard refused the requested computation."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_odd_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24 with these witnesses."""
    if n < 3 or n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


@dataclass(frozen=True)
class CyclotomicInt:
    """Element a_1*w + ... + a_{p-1}*w^{p-1} of Z[w], w = exp(2*pi*i/p)."""

    p: int
    coeffs: tuple

    def __post_init__(self):
        _require_odd_prime(self.p)
        c = tuple(int(a) for a in self.coeffs)
        if len(c) != self.p - 1:
            raise ValueError(
                f"need exactly {self.p - 1} coefficients for p={self.p}, got {len(c)}"
            )
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, p: int) -> "CyclotomicInt":
        return cls(p, (0,) * (p - 1))

    def _check_same_field(self, other: "CyclotomicInt") -> None:
        if self.p != other.p:
            raise FieldMismatchError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_same_field(other)
        return CyclotomicInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_same_field(other)
        return CyclotomicInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, c: int) -> "CyclotomicInt":
        if not isinstance(c, int):
            return NotImplemented
        return CyclotomicInt(self.p, tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def trace(self) -> int:
        """Tr(a) = -(a_1 + ... + a_{p-1})."""
        return -sum(self.coeffs)

    def euclid_norm_sq(self) -> int:
        """Squared Euclidean length of the coefficient vector."""
        return sum(a * a for a in self.coeffs)

    def norm_sq(self) -> int:
        """||a||^2 = p^2 * sum(a_j^2) - (p+1) * Tr(a)^2."""
        t = self.trace()
        return self.p * self.p * self.euclid_norm_sq() - (self.p + 1) * t * t

    def psi(self) -> "TraceVector":
        """Trace embedding; entry j is Tr(a*w^j) = Tr(a) + p*a_{p-j}."""
        t = self.trace()
        return TraceVector(tuple(t + self.p * a for a in reversed(self.coeffs)))

    def galois(self, k: int) -> "CyclotomicInt":
        """Apply the automorphism w -> w^k (a coefficient permutation)."""
        if k % self.p == 0:
            raise ValueError(f"k={k} is not coprime to p={self.p}")
        k = k % self.p
        out = [0] * (self.p - 1)
        for j in range(1, self.p):
            out[(k * j) % self.p - 1] = self.coeffs[j - 1]
        return CyclotomicInt(self.p, tuple(out))

    def embed(self) -> complex:
        """Value of the element as a complex number."""
        return embed_complex(self.coeffs, self.p)


@dataclass(frozen=True)
class TraceVector:
    """Image psi(a) in Z^{p-1}; entries[j-1] = Tr(a * w^j)."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    def norm_sq(self) -> int:
        return sum(e * e for e in self.entries)


@dataclass(frozen=True)
class BoxSpec:
    """The box B(p, N): coefficients in [-N, N]; vertices have all |a_j| = N."""

    p: int
    N: int

    def __post_init__(self):
        _require_odd_prime(self.p)
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")

    @property
    def dim(self) -> int:
        return self.p - 1

    def num_points(self) -> int:
        return (2 * self.N + 1) ** (self.p - 1)

    def num_vertices(self) -> int:
        return 2 ** (self.p - 1)

    def diameter_sq(self) -> int:
        """Squared diameter 4*N^2*p^2*(p-1) in the trace metric."""
        return 4 * self.N * self.N * self.p * self.p * (self.p - 1)

    def contains(self, alpha: CyclotomicInt) -> bool:
        return alpha.p == self.p and all(abs(a) <= self.N for a in alpha.coeffs)

    def is_vertex(self, alpha: CyclotomicInt) -> bool:
        return alpha.p == self.p and all(abs(a) == self.N for a in alpha.coeffs)

    def vertices(self) -> Iterator[CyclotomicInt]:
        """Enumerate all 2^(p-1) vertices; guarded for feasibility."""
        if self.p > VERTEX_ENUM_MAX_P:
            raise GuardError(f"refusing to enumerate 2^{self.dim} vertices "
                             f"(p={self.p} > {VERTEX_ENUM_MAX_P})")
        dim, N = self.dim, self.N
        for mask in range(1 << dim):
            coeffs = tuple(N if (mask >> j) & 1 else -N for j in range(dim))
            yield CyclotomicInt(self.p, coeffs)

    def points(self) -> Iterator[CyclotomicInt]:
        """Enumerate all (2N+1)^(p-1) box points; guarded for feasibility."""
        if self.num_points() > 1 << 20:
            raise GuardError(
                f"refusing to enumerate {(2 * self.N + 1)}^{self.p - 1} box points"
            )
        import itertools

        rng = range(-self.N, self.N + 1)
        for coeffs in itertools.product(rng, repeat=self.dim):
            yield CyclotomicInt(self.p, coeffs)


# --- operations -------------------------------------------------------------

def trace(alpha: CyclotomicInt) -> int:
    return alpha.trace()


def psi(alpha: CyclotomicInt) -> TraceVector:
    return alpha.psi()


def norm_sq(alpha: CyclotomicInt) -> int:
    return alpha.norm_sq()


def euclid_norm_sq(alpha: CyclotomicInt) -> int:
    return alpha.euclid_norm_sq()


def dist_sq(alpha: CyclotomicInt, beta: CyclotomicInt) -> int:
    """Squared trace-metric distance ||beta - alpha||^2 (exact integer)."""
    return (beta - alpha).norm_sq()


def inner_product(alpha: CyclotomicInt, beta: CyclotomicInt) -> int:
    """Polarization (||a||^2 + ||b||^2 - ||b-a||^2) / 2; always an integer."""
    alpha._check_same_field(beta)
    twice = alpha.norm_sq() + beta.norm_sq() - dist_sq(alpha, beta)
    # The norm formula forces the numerator even; a failure here is a bug.
    assert twice % 2 == 0, "polarization numerator must be even"
    return twice // 2


def diameter_sq(box: BoxSpec) -> int:
    return box.diameter_sq()


def normalized_dist_sq(alpha: CyclotomicInt, beta: CyclotomicInt, box: BoxSpec) -> Fraction:
    """dist_sq / diameter_sq as a reduced rational; <= 1 inside the box."""
    if alpha.p != box.p or beta.p != box.p:
        raise FieldMismatchError("points and box must share the same prime")
    return Fraction(dist_sq(alpha, beta), box.diameter_sq())


def cos_central_angle(alpha: CyclotomicInt, beta: CyclotomicInt):
    """Cosine of the angle at the origin between alpha and beta.

    Returns (sign, cos_sq, cos_float) with cos_sq an exact rational equal to
    <a,b>^2 / (||a||^2 ||b||^2) and cos_float = sign * sqrt(cos_sq).
    """
    na, nb = alpha.norm_sq(), beta.norm_sq()
    if na == 0 or nb == 0:
        raise DegenerateAngleError("central angle undefined at the origin")
    ip = inner_product(alpha, beta)
    sign = (ip > 0) - (ip < 0)
    cos_sq = Fraction(ip * ip, na * nb)
    return sign, cos_sq, sign * math.sqrt(cos_sq)


def galois_apply(alpha: CyclotomicInt, k: int) -> CyclotomicInt:
    return alpha.galois(k)


def north_pole(q: int, N: int = 1) -> tuple:
    """Sign pattern (+-N) of the vertex with maximal imaginary part.

    For odd q the first half of the coefficients is +N and the rest -N,
    which lands on the positive imaginary axis.  For even q the coefficient
    at j = q/2 does not move the imaginary part (w^(q/2) = -1); it is set to
    -N so the real part comes out positive (first-quadrant representative).
    """
    if q < 3:
        raise ValueError(f"q must be >= 3, got {q}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if q % 2 == 1:
        half = (q - 1) // 2
        return tuple(N if j <= half else -N for j in range(1, q))
    return tuple(N if 2 * j < q else -N for j in range(1, q))


def east_pole(q: int, N: int = 1) -> tuple:
    """Sign pattern (+-N) of the vertex with maximal real part.

    Coefficient j carries the sign of cos(2*pi*j/q): +N for j <= q/4 or
    j > 3q/4, otherwise -N.  When q is divisible by 4 the angles at
    j = q/4 and j = 3q/4 have zero cosine; both get +N, which cancels their
    sine contributions and keeps the value real.
    """
    if q < 3:
        raise ValueError(f"q must be >= 3, got {q}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    lo, hi = q // 4, (3 * q) // 4
    signs = [N if j <= lo or j > hi else -N for j in range(1, q)]
    if q % 4 == 0:
        signs[3 * q // 4 - 1] = N
    return tuple(signs)


def north_pole_point(box: BoxSpec) -> CyclotomicInt:
    """North pole of the box as a cyclotomic integer (p odd prime)."""
    return CyclotomicInt(box.p, north_pole(box.p, box.N))


def alternating_point(box: BoxSpec, parity: int = 0) -> CyclotomicInt:
    """Vertex with alternating coefficient signs a_j = +-(-1)^j * N.

    The two parities are opposite vertices with zero trace; together they
    realize the diameter of the box.
    """
    s = 1 if parity % 2 == 0 else -1
    return CyclotomicInt(box.p, tuple(s * (-1) ** j * box.N for j in range(1, box.p)))


@lru_cache(maxsize=64)
def _roots_of_unity(q: int) -> tuple:
    return tuple(cmath.exp(2j * cmath.pi * j / q) for j in range(q))


def embed_complex(coeffs: Union[CyclotomicInt, Sequence[int]], q: int | None = None) -> complex:
    """Complex value sum a_j * exp(2*pi*i*j/q) of a coefficient vector."""
    if isinstance(coeffs, CyclotomicInt):
        q = coeffs.p
        coeffs = coeffs.coeffs
    if q is None:
        q = len(coeffs) + 1
    if len(coeffs) != q - 1:
        raise ValueError(f"need q-1={q - 1} coefficients, got {len(coeffs)}")
    roots = _roots_of_unity(q)
    return sum(a * roots[j] for j, a in enumerate(coeffs, start=1))


def euclidean_diameter(q: int, N: int = 1) -> float:
    """Euclidean (complex-plane) diameter 2*N*Im(NP(q)) of the box; odd q only."""
    if q % 2 == 0:
        raise ValueError(f"Euclidean diameter formula requires odd q, got {q}")
    return 2.0 * N * embed_complex(north_pole(q, 1), q).imag
