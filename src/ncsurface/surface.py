"""Constraint surfaces: genus-g polynomials, Morse counting, Poisson bracket.

Univariate root counting is exact (Sturm chains of integer polynomials) so
Euler characteristics are certified, not sampled.  An even P(x) = Q(x^2), as
every genus-g P is, is counted on the chains of Q, of half the degree.  Each
root is the double nearest it, certified by the exact signs at the ends of
that double's rounding cell, or found by exact bisection where no double
near a float estimate is certified.  The trivariate polynomial ring shares
the exact sparse arithmetic of ``free_algebra.SparsePolynomial``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .free_algebra import SparsePolynomial

__all__ = [
    "CommPolynomial3", "SurfaceForm", "SurfaceSpec", "CriticalData", "RootCount",
    "AlphaOutOfRangeError", "NotRegularError",
    "poisson_bracket", "bracket_constraint", "count_simple_roots",
    "build_genus_polynomial", "euler_characteristic", "critical_values_torus_sphere",
    "genus_product_polynomial", "genus_window_bound",
]


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

    def diff(self, axis: int) -> "CommPolynomial3":
        out = {}
        for expo, coeff in self.terms.items():
            if expo[axis] == 0:
                continue
            new = list(expo)
            new[axis] -= 1
            out[tuple(new)] = coeff * expo[axis]
        return CommPolynomial3(out)

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
# exact univariate root counting (Sturm chains over the integers)
# ---------------------------------------------------------------------------

class RootCount(NamedTuple):
    total_real: int
    all_simple: bool


def _primitive(coeffs: Sequence[Fraction]) -> list[int]:
    """The positive multiple of ``coeffs`` with coprime integer coefficients."""
    coeffs = [Fraction(a) for a in coeffs]
    den = math.lcm(*(a.denominator for a in coeffs))
    ints = [a.numerator * (den // a.denominator) for a in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    content = math.gcd(*ints)
    return [a // content for a in ints]


def _derivative(coeffs: Sequence) -> list:
    return [a * k for k, a in enumerate(coeffs) if k]


def _sturm_chain(p0: Sequence[Fraction], p1: Sequence[Fraction]) -> list[list[int]]:
    """Signed remainder sequence p0, p1, -rem(p0, p1), ..., each element made
    primitive; for p1 = p0' the last element is gcd(p0, p0')."""
    chain = [_primitive(p0), _primitive(p1)]
    if not chain[0]:
        raise ValueError("zero polynomial")
    while chain[-1]:
        r, b = chain[-2], chain[-1]
        while len(r) >= len(b):    # leaves a positive multiple of rem(r, b)
            q, shift = r[-1] if b[-1] > 0 else -r[-1], len(r) - len(b)
            r = [abs(b[-1]) * a for a in r[:-1]]
            for i, a in enumerate(b[:-1]):
                r[i + shift] -= q * a
        chain.append(_primitive([-a for a in r]))
    chain.pop()
    return chain


def _dyadic_eval(p: list[int], m: int, e: int) -> int:
    """The integer 2^(e deg p) p(m/2^e), of the sign of p(m/2^e), by Horner's
    rule on the homogeneous form sum of p_j m^j 2^(e(deg p - j))."""
    acc = shift = 0
    for a in reversed(p):
        acc = acc * m + (a << shift)
        shift += e
    return acc


def _variations(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _at(p: list[int], m: int, e: int, square: bool) -> int:
    """_dyadic_eval at x = m/2^e, or when square at t = x^2: the integer
    2^(2e deg p) p(m^2/2^2e), of the sign of p(x^2)."""
    return _dyadic_eval(p, m * m, 2 * e) if square else _dyadic_eval(p, m, e)


def _count(chain: list[list[int]], square: bool = False) -> int:
    """V(-inf) - V(+inf): distinct real roots of p for a chain of (p, p'); the
    sum of sign(q) over them for a chain of (p, p'q) (Sturm-Tarski).  When
    square, 2 (V(0) - V(+inf)): the real roots of p(x^2), two for each
    positive root of p, for a chain of (p, p') with p(0) != 0."""
    at_inf = _variations([p[-1] for p in chain])
    if square:
        return 2 * (_variations([p[0] for p in chain]) - at_inf)
    return _variations([p[-1] if len(p) % 2 else -p[-1] for p in chain]) - at_inf


def _isolate(chain: list[list[int]], square: bool = False) -> list[tuple[int, int, int]]:
    """Increasing intervals (a/2^e, b/2^e], as triples (a, b, e), one per root of
    the squarefree chain[0]: bisection on V(a) - V(b) within the Fujiwara bound
    2^k.  When square, one per positive root x of chain[0](x^2), from (0,
    2^ceil(k/2)] on, with V read at x^2."""
    p = chain[0]
    k = 1 + max([0] + [-((p[-1].bit_length() - a.bit_length() - 1) // (len(p) - 1 - i))
                       for i, a in enumerate(p[:-1]) if a])
    sturm = lambda m, e: _variations([_at(q, m, e, square) for q in chain])
    bound = 1 << (k + 1) // 2 if square else 1 << k
    lo = 0 if square else -bound
    out, todo = [], [(lo, bound, 0, sturm(lo, 0), sturm(bound, 0))]
    while todo:
        a, b, e, va, vb = todo.pop()
        if va - vb == 1:
            out.append((a, b, e))
        elif va - vb > 1:
            m = a + b       # the midpoint, over 2^(e + 1)
            todo += [(m, 2 * b, e + 1, vm := sturm(m, e + 1), vb), (2 * a, m, e + 1, va, vm)]
    return out


def _refine(p: list[int], a: int, b: int, e: int, done,
            square: bool = False) -> tuple[int, int, int]:
    """Bisect (a/2^e, b/2^e], which holds one simple root of p (of p(x^2) when
    square), on its sign until done(a, b, e) or a midpoint is the root; the
    returned interval holds it."""
    vb = _at(p, b, e, square)
    while vb and not done(a, b, e):
        m, e = a + b, e + 1
        vm = _at(p, m, e, square)
        a, b, vb = (2 * a, m, vm) if vm == 0 or (vm > 0) == (vb > 0) else (m, 2 * b, vb)
    return (a, b, e) if vb else (b, b, e)


def _newton(p: list[int], lo: float, hi: float, positive_right: bool) -> float:
    """A double near the one root of p in (lo, hi): Newton's method in
    doubles, kept in the bracket by bisection, where p is positive right of
    the root iff positive_right.  Rounding near the root may leave it a few
    doubles off; OverflowError for a coefficient beyond the double range."""
    coeffs = [float(a) for a in reversed(p)]
    u = 0.5 * lo + 0.5 * hi
    for _ in range(100):
        f = d = 0.0
        for a in coeffs:
            d = d * u + f
            f = f * u + a
        if f == 0:
            break
        if (f > 0) == positive_right:
            hi = u
        else:
            lo = u
        v = u - f / d if d else math.nan
        if not lo < v < hi:
            v = 0.5 * lo + 0.5 * hi
        if v == u:
            break
        u = v
    return u


def _cell(x: float) -> tuple[int, int, int]:
    """(l, h, f): the ends l/2^f and h/2^f of the finite double x's rounding
    cell, its midpoints with the doubles next to it.  OverflowError for the
    largest double, whose upper neighbour is infinite."""
    (l, dl), (m, d), (h, dh) = (y.as_integer_ratio() for y in
                                (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)))
    top = max(dl, d, dh)        # powers of two: the midpoints are over 2 top
    m *= top // d
    return l * (top // dl) + m, m + h * (top // dh), top.bit_length()


def _rounded_root(p: list[int], a: int, b: int, e: int, square: bool = False) -> float:
    """The double nearest (ties to even) the one root x of p (of p(x^2) when
    square) in (a/2^e, b/2^e].

    A double from _newton (on p(t) at t = x^2, then its square root, when
    square) is the answer when the exact signs of p at the ends of its
    rounding cell, inside the interval, bracket the root; while they show
    the root beyond the cell, the next double is tried, three at most.  A
    cell end that is the root is a tie, which the division b / 2^e rounds to
    even.  Where no double is certified, or the doubles overflow, exact
    bisection to the double finds it."""
    vb = _at(p, b, e, square)
    if vb == 0:
        return b / (1 << e)

    def side(m: int, f: int) -> int:     # the sign of m/2^f - x
        if m << e <= a << f:
            return -1
        if m << e >= b << f:
            return 1
        v = _at(p, m, f, square)
        return 0 if v == 0 else 1 if (v > 0) == (vb > 0) else -1

    try:
        lo, hi = a / (1 << e), b / (1 << e)
        if square:
            x = math.sqrt(_newton(p, lo * lo, hi * hi, vb > 0))
        else:
            x = _newton(p, lo, hi, vb > 0)
        for _ in range(3):
            l, h, f = _cell(x)
            at_l, at_h = side(l, f), side(h, f)
            if at_l == 0 or at_h == 0:
                return (l if at_l == 0 else h) / (1 << f)
            if at_l < 0 < at_h:
                return x
            x = math.nextafter(x, math.inf if at_h < 0 else -math.inf)
    except (OverflowError, ValueError):     # an infinite or NaN double
        pass
    _, end, f = _refine(p, a, b, e, lambda a, b, e: a / (1 << e) == b / (1 << e), square)
    return end / (1 << f)


def _root_floats(chain: list[list[int]], square: bool = False) -> list[float]:
    """Correctly rounded real roots of the squarefree chain[0], increasing;
    when square, of chain[0](x^2) for chain[0](0) != 0: the positive ones and
    their mirrors."""
    roots = [_rounded_root(chain[0], *abe, square) for abe in _isolate(chain, square)]
    return [-x for x in reversed(roots)] + roots if square else roots


def count_simple_roots(coeffs: Sequence[Fraction]) -> RootCount:
    """Exact number of distinct real roots and squarefreeness of the polynomial
    with ascending coefficients ``coeffs``."""
    chain = _sturm_chain(coeffs, _derivative(coeffs))
    return RootCount(_count(chain), len(chain[-1]) == 1)


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

    @functools.cached_property
    def _level_chains(self) -> tuple[bool, list[list[int]], list[list[int]]]:
        """(square, plus, minus): Sturm chains for the general form's levels
        P = mu and P = -mu, raising NotRegularError for a multiple root.  Built
        once per spec: build_genus_polynomial checks their regularity and
        euler_characteristic counts and isolates their roots.

        When every odd coefficient of P is zero, as in every
        build_genus_polynomial spec, P(x) = Q(x^2) and the chains are those
        of Q -/+ mu, of half the degree (square = True): P -/+ mu is
        squarefree iff Q -/+ mu is and has no root at 0, and its roots are
        the +-sqrt(t) of Q -/+ mu's positive roots t.  Else they are the
        chains of P -/+ mu."""
        mu, p = self.mu_const, self.p_coeffs
        square = not any(p[1::2])
        half = p[::2] if square else p
        return (square, _regular_chain(_shifted(half, -mu), "P -/+ mu", square),
                _regular_chain(_shifted(half, mu), "P -/+ mu", square))


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


def _poly_eval(coeffs: Sequence, value):
    acc = 0
    for a in reversed(coeffs):
        acc = acc * value + a
    return acc


@functools.lru_cache(maxsize=64)
def genus_window_bound(g: int) -> Fraction:
    """Certified rational upper bound for max of G on [0, g^2 + 1].

    Candidates are the interval endpoints and Sturm-isolated enclosures of
    width <= 2^-40 of the critical points of G, each padded by a derivative
    bound times the enclosure width.  Memoized (the latest 64 genera): it is
    a function of g alone, and every genus command at that g asks for it.
    """
    coeffs = genus_product_polynomial(g)
    lo, hi = Fraction(0), Fraction(g * g + 1)
    best = max(_poly_eval(coeffs, lo), _poly_eval(coeffs, hi))
    deriv = _derivative(coeffs)
    if not deriv:
        return best
    # |G'| <= sum |d_k| T^k on [lo, hi]
    tmax = max(abs(lo), abs(hi))
    slope = sum(abs(a) * tmax**k for k, a in enumerate(deriv))
    # G has g simple roots 1, 4, ..., g^2, so G' is squarefree with its roots in [1, g^2]
    chain = _sturm_chain(deriv, _derivative(deriv))
    for a, b, e in _isolate(chain):
        a, b, e = _refine(chain[0], a, b, e, lambda a, b, e: (b - a) << 40 <= 1 << e)
        a, b = Fraction(a, 1 << e), Fraction(b, 1 << e)
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
    spec._level_chains      # P -/+ mu must be regular
    return spec


def _shifted(coeffs: Sequence[Fraction], offset: Fraction) -> list[Fraction]:
    out = list(coeffs)
    out[0] = out[0] + offset
    return out


def _regular_chain(coeffs: Sequence[Fraction], name: str,
                   square: bool = False) -> list[list[int]]:
    """Sturm chain of (q, q'), raising NotRegularError if q has a multiple root,
    or when square if q(x^2) has one: if q has one or q(0) = 0."""
    chain = _sturm_chain(coeffs, _derivative(coeffs))
    if len(chain[-1]) > 1 or square and chain[0][0] == 0:
        raise NotRegularError(f"{name} has a multiple root; the level set is not regular")
    return chain


def euler_characteristic(spec: SurfaceSpec) -> CriticalData:
    """Morse count of Cote_x: chi = #{P = level} - #{P = -level}."""
    if spec.form is SurfaceForm.GENERAL_GENUS:
        square, plus, minus = spec._level_chains
        n_plus, n_minus = _count(plus, square), _count(minus, square)
        crit = _root_floats(plus, square) + _root_floats(minus, square)
    else:
        # torus/sphere form: level sqrt(c) is generally irrational, so count
        # the roots of Q = P^2 - c and split them by the sign of P with the
        # Tarski query of (Q, Q'P); P != 0 at them because c > 0
        psq = _convolve(spec.p_coeffs, spec.p_coeffs)
        psq[0] -= spec.mu_const
        chain = _regular_chain(psq, "P^2 - c")
        total = _count(chain)
        signed = _count(_sturm_chain(psq, _convolve(_derivative(psq), spec.p_coeffs)))
        n_plus, n_minus = (total + signed) // 2, (total - signed) // 2
        crit = _root_floats(chain)
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
