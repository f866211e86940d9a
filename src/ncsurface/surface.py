"""Constraint surfaces: genus-g polynomials, Morse counting, Poisson bracket.

Univariate root counting is exact (Sturm-based, via sympy) so Euler
characteristics are certified, not sampled.  The trivariate polynomial ring
shares the exact sparse arithmetic of ``free_algebra.SparsePolynomial``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import sympy

from .free_algebra import SparsePolynomial

__all__ = [
    "CommPolynomial3", "SurfaceForm", "SurfaceSpec", "CriticalData", "RootCount",
    "AlphaOutOfRangeError", "NotRegularError",
    "poisson_bracket", "bracket_constraint", "count_simple_roots",
    "build_genus_polynomial", "euler_characteristic", "critical_values_torus_sphere",
    "genus_product_polynomial", "genus_window_bound",
]

_T = sympy.Symbol("t")


class AlphaOutOfRangeError(ValueError):
    """alpha outside the open window (0, 2*mu/M)."""


class NotRegularError(ValueError):
    """P - level or P + level has a multiple root; the surface is singular."""


# ---------------------------------------------------------------------------
# exact polynomials in three commuting variables
# ---------------------------------------------------------------------------

Exponents = tuple[int, int, int]


class CommPolynomial3(SparsePolynomial):
    """Sparse exact polynomial in x, y, z over Fraction coefficients; the
    product adds exponent tuples."""

    __slots__ = ()
    UNIT = (0, 0, 0)

    @staticmethod
    def _key_product(a: Exponents, b: Exponents) -> Exponents:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    @classmethod
    def variable(cls, axis: int) -> "CommPolynomial3":
        expo = [0, 0, 0]
        expo[axis] = 1
        return cls({tuple(expo): 1})

    @classmethod
    def x(cls): return cls.variable(0)

    @classmethod
    def y(cls): return cls.variable(1)

    @classmethod
    def z(cls): return cls.variable(2)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def diff(self, axis: int) -> "CommPolynomial3":
        out = {}
        for expo, coeff in self.terms.items():
            if expo[axis] == 0:
                continue
            new = list(expo)
            new[axis] -= 1
            out[tuple(new)] = coeff * expo[axis]
        return CommPolynomial3(out)

    def evaluate(self, x, y, z):
        total = Fraction(0) if all(isinstance(v, (int, Fraction)) for v in (x, y, z)) else 0.0
        for (a, b, c), coeff in self.terms.items():
            total += coeff * x**a * y**b * z**c
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        def fmt(expo, coeff):
            body = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip("xyz", expo) if e)
            return f"({coeff})" + (f"*{body}" if body else "")
        return " + ".join(fmt(e, c) for e, c in
                          sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])))


def poisson_bracket(f: CommPolynomial3, g: CommPolynomial3,
                    constraint: CommPolynomial3) -> CommPolynomial3:
    """{f,g}_C = grad C . (grad f x grad g), exactly."""
    cx, cy, cz = (constraint.diff(a) for a in range(3))
    fx, fy, fz = (f.diff(a) for a in range(3))
    gx, gy, gz = (g.diff(a) for a in range(3))
    return (cx * (fy * gz - fz * gy)
            + cy * (fz * gx - fx * gz)
            + cz * (fx * gy - fy * gx))


def _univariate_in_x(p_coeffs: Sequence[Fraction]) -> CommPolynomial3:
    return CommPolynomial3({(r, 0, 0): Fraction(a) for r, a in enumerate(p_coeffs)})


def bracket_constraint(p_coeffs: Sequence[Fraction], c: Fraction) -> CommPolynomial3:
    """C = (P(x) + y^2)^2 / 2 + z^2 / 2 - c, the normalization whose brackets
    are {x,y} = z, {y,z} = P'(P + y^2), {z,x} = 2y(P + y^2)."""
    inner = _univariate_in_x(p_coeffs) + CommPolynomial3.y() * CommPolynomial3.y()
    zsq = CommPolynomial3.z() * CommPolynomial3.z()
    half = Fraction(1, 2)
    return half * (inner * inner) + half * zsq - CommPolynomial3.constant(c)


# ---------------------------------------------------------------------------
# exact univariate root counting (Sturm via sympy)
# ---------------------------------------------------------------------------

class RootCount(NamedTuple):
    total_real: int
    all_simple: bool


def _sympy_poly(coeffs: Sequence[Fraction]) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c) for c in reversed([Fraction(v) for v in coeffs])],
                      _T, domain="QQ")


def count_simple_roots(coeffs: Sequence[Fraction]) -> RootCount:
    """Exact number of distinct real roots and squarefreeness of the polynomial
    with ascending coefficients ``coeffs``."""
    poly = _sympy_poly(coeffs)
    if poly.is_zero:
        raise ValueError("zero polynomial")
    simple = sympy.gcd(poly, poly.diff(_T)).degree() <= 0
    return RootCount(int(poly.count_roots()), bool(simple))


def _real_roots_floats(coeffs: Sequence[Fraction], precision: int = 25) -> list[float]:
    poly = _sympy_poly(coeffs)
    return sorted(float(r.evalf(precision)) for r in sympy.real_roots(poly))


# ---------------------------------------------------------------------------
# genus-g construction and Morse counting
# ---------------------------------------------------------------------------

class SurfaceForm(enum.Enum):
    GENERAL_GENUS = "general_genus"    # C = (P + y^2)^2 + z^2 - mu^2
    TORUS_SPHERE = "torus_sphere"      # C = (P + y^2)^2 + z^2 - c


@dataclass(frozen=True)
class SurfaceSpec:
    genus: int | None
    p_coeffs: tuple[Fraction, ...]
    mu_const: Fraction          # level constant: mu (general form) or c (torus/sphere form)
    form: SurfaceForm

    def __post_init__(self):
        coeffs = tuple(Fraction(a) for a in self.p_coeffs)
        object.__setattr__(self, "p_coeffs", coeffs)
        object.__setattr__(self, "mu_const", Fraction(self.mu_const))
        if not coeffs or coeffs[-1] <= 0:
            raise ValueError("P must have a positive leading coefficient")
        if (len(coeffs) - 1) % 2 != 0:
            raise ValueError("P must have even degree")
        if self.mu_const <= 0:
            raise ValueError("level constant must be positive")


@dataclass(frozen=True)
class CriticalData:
    n_plus: int                     # n(0) + n(2) = #{P = level}
    n_minus: int                    # n(1) = #{P = -level}
    chi: int
    genus: int
    critical_x_values: tuple[float, ...]

    def __post_init__(self):
        if self.chi != self.n_plus - self.n_minus:
            raise ValueError("chi must equal n_plus - n_minus")
        if self.chi % 2 != 0:
            raise ValueError("chi must be even")
        if self.genus != (2 - self.chi) // 2:
            raise ValueError("genus must equal (2 - chi)/2")


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Ascending coefficients of the product of two univariate polynomials."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def genus_product_polynomial(g: int) -> list[Fraction]:
    """G(t) = (t - 1)(t - 2^2)...(t - g^2), ascending coefficients."""
    coeffs = [Fraction(1)]
    for j in range(1, g + 1):
        coeffs = _convolve(coeffs, [Fraction(-j * j), Fraction(1)])
    return coeffs


def _poly_eval(coeffs: Sequence[Fraction], value: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(coeffs):
        acc = acc * value + a
    return acc


def genus_window_bound(g: int, eps: Fraction = Fraction(1, 2**40)) -> Fraction:
    """Certified rational upper bound for max of G on [0, g^2 + 1].

    Candidates are the interval endpoints and Sturm-isolated enclosures of
    the critical points of G, each padded by a derivative bound times the
    enclosure width.
    """
    coeffs = genus_product_polynomial(g)
    lo, hi = Fraction(0), Fraction(g * g + 1)
    best = max(_poly_eval(coeffs, lo), _poly_eval(coeffs, hi))
    deriv = [a * (k + 1) for k, a in enumerate(coeffs[1:])]
    if not deriv:
        return best
    # |G'| <= sum |d_k| T^k on [lo, hi]
    tmax = max(abs(lo), abs(hi))
    slope = sum(abs(a) * tmax**k for k, a in enumerate(deriv))
    dpoly = _sympy_poly(deriv)
    for iv_lo, iv_hi in [iv[0] for iv in dpoly.intervals(inf=sympy.Rational(lo),
                                                         sup=sympy.Rational(hi))]:
        a, b = Fraction(int(iv_lo.p), int(iv_lo.q)), Fraction(int(iv_hi.p), int(iv_hi.q))
        if b - a > eps:
            a2, b2 = dpoly.refine_root(sympy.Rational(a), sympy.Rational(b),
                                       eps=sympy.Rational(eps))
            a, b = Fraction(int(a2.p), int(a2.q)), Fraction(int(b2.p), int(b2.q))
        a, b = max(a, lo), min(b, hi)
        candidate = max(_poly_eval(coeffs, a), _poly_eval(coeffs, b)) + slope * (b - a)
        best = max(best, candidate)
    return best


def build_genus_polynomial(g: int, mu: Fraction, alpha: Fraction) -> SurfaceSpec:
    """P(x) = Q(x^2) with Q(t) = alpha*G(t) - mu; requires alpha in (0, 2mu/M)
    where M = max of G on [0, g^2+1] (certified upper bound)."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    mu, alpha = Fraction(mu), Fraction(alpha)
    if mu <= 0:
        raise ValueError("mu must be positive")
    bound = genus_window_bound(g)
    if not 0 < alpha < 2 * mu / bound:
        raise AlphaOutOfRangeError(
            f"alpha must lie in (0, {2 * mu}/{bound}) = (0, 2*mu/M), got {alpha}")
    g_coeffs = genus_product_polynomial(g)
    q_coeffs = [alpha * a for a in g_coeffs]
    q_coeffs[0] -= mu
    p_coeffs = [Fraction(0)] * (2 * len(q_coeffs) - 1)
    for k, a in enumerate(q_coeffs):
        p_coeffs[2 * k] = a
    spec = SurfaceSpec(genus=g, p_coeffs=tuple(p_coeffs), mu_const=mu,
                       form=SurfaceForm.GENERAL_GENUS)
    _check_regular(spec)
    return spec


def _shifted(coeffs: Sequence[Fraction], offset: Fraction) -> list[Fraction]:
    out = list(coeffs)
    out[0] = out[0] + offset
    return out


def _check_regular(spec: SurfaceSpec) -> None:
    if spec.form is SurfaceForm.GENERAL_GENUS:
        mu = spec.mu_const
        for offset in (-mu, mu):
            if not count_simple_roots(_shifted(spec.p_coeffs, offset)).all_simple:
                raise NotRegularError(
                    "P -/+ mu has a multiple root; the level set is not regular")
    else:
        # roots of P^2 - c are simple iff P' is nonzero there (P != 0 at them)
        psq = _convolve(spec.p_coeffs, spec.p_coeffs)
        psq[0] -= spec.mu_const
        if not count_simple_roots(psq).all_simple:
            raise NotRegularError("P^2 - c has a multiple root; the level set is not regular")


def euler_characteristic(spec: SurfaceSpec) -> CriticalData:
    """Morse count of Cote_x: chi = #{P = level} - #{P = -level}."""
    _check_regular(spec)
    if spec.form is SurfaceForm.GENERAL_GENUS:
        mu = spec.mu_const
        plus = count_simple_roots(_shifted(spec.p_coeffs, -mu))     # P = mu
        minus = count_simple_roots(_shifted(spec.p_coeffs, mu))     # P = -mu
        n_plus, n_minus = plus.total_real, minus.total_real
        crit = (_real_roots_floats(_shifted(spec.p_coeffs, -mu))
                + _real_roots_floats(_shifted(spec.p_coeffs, mu)))
    else:
        # torus/sphere form: level sqrt(c) is generally irrational, so count
        # roots of P^2 - c and split them by the sign of P
        psq = _convolve(spec.p_coeffs, spec.p_coeffs)
        psq[0] -= spec.mu_const
        poly = _sympy_poly(psq)
        p_poly = _sympy_poly(spec.p_coeffs)
        n_plus = n_minus = 0
        crit = []
        for root in sympy.real_roots(poly):
            value = p_poly.as_expr().subs(_T, root)
            sign = sympy.sign(value)
            if sign == 0:
                raise NotRegularError("P vanishes at a critical point")
            if bool(sign > 0):
                n_plus += 1
            else:
                n_minus += 1
            crit.append(float(root.evalf(25)))
    chi = n_plus - n_minus
    return CriticalData(n_plus=n_plus, n_minus=n_minus, chi=chi,
                        genus=(2 - chi) // 2, critical_x_values=tuple(sorted(crit)))


def critical_values_torus_sphere(mu: float, c: float) -> list[float]:
    """Real solutions x of (x^2 - mu)^2 = c at y = z = 0: the critical values
    of Cote_x on the torus/sphere surface."""
    if c <= 0:
        raise ValueError("c must be positive")
    root_c = math.sqrt(c)
    if mu <= -root_c:
        raise ValueError("mu must exceed -sqrt(c)")
    values = []
    outer = mu + root_c
    if outer > 0:
        values.extend([-math.sqrt(outer), math.sqrt(outer)])
    inner = mu - root_c
    if inner > 0:
        values.extend([-math.sqrt(inner), math.sqrt(inner)])
    elif inner == 0:
        values.append(0.0)
    return sorted(values)
