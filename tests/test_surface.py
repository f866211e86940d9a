import math
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, strategies as st

from ncsurface import surface
from ncsurface.surface import (AlphaOutOfRangeError, CommPolynomial3,
                               NotRegularError, SurfaceForm, SurfaceSpec,
                               _derivative, _isolate, _poly_eval, _refine, _root_floats,
                               _sturm_chain, _variations, bracket_constraint,
                               build_genus_polynomial, count_simple_roots,
                               critical_values_torus_sphere,
                               euler_characteristic, genus_product_polynomial,
                               genus_window_bound, poisson_bracket)
from reference import genus_spec, p_route_euler_characteristic

X, Y, Z = CommPolynomial3.x(), CommPolynomial3.y(), CommPolynomial3.z()


def rand_poly(rng, max_degree=3):
    terms = {}
    for _ in range(4):
        expo = tuple(rng.randint(0, 1) for _ in range(3))
        if sum(expo) > max_degree:
            continue
        terms[expo] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    return CommPolynomial3(terms)


# ---------------------------------------------------------------------------
# exact root counting
# ---------------------------------------------------------------------------

def test_count_simple_roots_examples():
    assert count_simple_roots([Fraction(-1), 0, 1]) == (2, True)     # x^2 - 1
    assert count_simple_roots([Fraction(1), -2, 1]) == (1, False)    # (x - 1)^2
    assert count_simple_roots([Fraction(4), 0, -5, 0, 1]) == (4, True)


def test_count_simple_roots_rejects_zero():
    for coeffs in ([], [Fraction(0)], [Fraction(0), 0, 0]):
        with pytest.raises(ValueError):
            count_simple_roots(coeffs)


# sympy is the test oracle for the exact Sturm routines
T = sympy.Symbol("t")
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
dyadics = st.builds(lambda m, e: Fraction(m, 2**e), st.integers(-16, 16), st.integers(0, 3))


def sympy_poly(coeffs):
    return sympy.Poly([sympy.Rational(a) for a in reversed(coeffs)], T, domain="QQ")


def ascending(poly):
    return [Fraction(int(a.p), int(a.q)) for a in reversed(poly.all_coeffs())]


@st.composite
def rational_polynomials(draw):
    """A random rational polynomial times linear factors at dyadic points and
    squares of random monic linear or quadratic factors."""
    coeffs = draw(st.lists(small_rationals, max_size=5))
    poly = sympy_poly(coeffs + [draw(small_rationals.filter(bool))])
    for root in draw(st.lists(dyadics, max_size=3)):
        poly *= sympy_poly([-root, 1])
    for lower in draw(st.lists(st.lists(small_rationals, min_size=1, max_size=2), max_size=2)):
        poly *= sympy_poly(lower + [1]) ** 2
    return poly


@given(rational_polynomials())
def test_sturm_routines_match_sympy(poly):
    simple = sympy.gcd(poly, poly.diff(T)).degree() <= 0
    assert count_simple_roots(ascending(poly)) == (poly.count_roots(), simple)
    squarefree = ascending(poly.sqf_part())
    floats = _root_floats(_sturm_chain(squarefree, _derivative(squarefree)))
    assert floats == sorted(float(r.evalf(25)) for r in sympy.real_roots(poly.sqf_part()))


# The bisection on Fraction endpoints that _isolate/_refine replaced with
# integers over a common 2^e: the reference for their roots and window bound.

def fraction_dyadic_eval(p, x):
    e, d = x.denominator.bit_length() - 1, len(p) - 1
    return _poly_eval([a << e * (d - j) for j, a in enumerate(p)], x.numerator)


def fraction_isolate(chain):
    p = chain[0]
    k = 1 + max([0] + [-((p[-1].bit_length() - a.bit_length() - 1) // (len(p) - 1 - i))
                       for i, a in enumerate(p[:-1]) if a])
    sturm = lambda x: _variations([fraction_dyadic_eval(q, x) for q in chain])
    bound = Fraction(2**k)
    out, todo = [], [(-bound, bound, sturm(-bound), sturm(bound))]
    while todo:
        a, b, va, vb = todo.pop()
        if va - vb == 1:
            out.append((a, b))
        elif va - vb > 1:
            m = (a + b) / 2
            todo += [(m, b, vm := sturm(m), vb), (a, m, va, vm)]
    return out


def fraction_refine(p, a, b, done):
    vb = fraction_dyadic_eval(p, b)
    while vb and not done(a, b):
        m = (a + b) / 2
        vm = fraction_dyadic_eval(p, m)
        a, b, vb = (a, m, vm) if vm == 0 or (vm > 0) == (vb > 0) else (m, b, vb)
    return (a, b) if vb else (b, b)


def fraction_root_floats(chain):
    return [float(fraction_refine(chain[0], a, b, lambda a, b: float(a) == float(b))[1])
            for a, b in fraction_isolate(chain)]


def fraction_window_bound(g):
    coeffs = genus_product_polynomial(g)
    value = lambda t: sum(a * t**k for k, a in enumerate(coeffs))
    hi = Fraction(g * g + 1)
    deriv = _derivative(coeffs)
    slope = sum(abs(a) * hi**k for k, a in enumerate(deriv))
    chain = _sturm_chain(deriv, _derivative(deriv))
    best = max(value(Fraction(0)), value(hi))
    for a, b in fraction_isolate(chain):
        a, b = fraction_refine(chain[0], a, b, lambda a, b: b - a <= Fraction(1, 2**40))
        best = max(best, max(value(a), value(b)) + slope * (b - a))
    return best


@given(rational_polynomials())
def test_integer_bisection_matches_fraction_bisection(poly):
    squarefree = ascending(poly.sqf_part())
    chain = _sturm_chain(squarefree, _derivative(squarefree))
    assert _root_floats(chain) == fraction_root_floats(chain)


def test_integer_bisection_matches_fraction_bisection_on_random_squarefree():
    rng = random.Random(7)
    for _ in range(40):
        # distinct rational roots in pairs 2^-30 apart, times x^2 + a (no real
        # root) and x^3 + b (one real root)
        poly = sympy_poly([Fraction(rng.randint(1, 9)), 0, 1])
        poly *= sympy_poly([Fraction(rng.randint(-50, 50) or 1), 0, 0, 1])
        for _ in range(rng.randint(1, 3)):
            r = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            poly *= sympy_poly([-r, 1]) * sympy_poly([-r - Fraction(1, 2**30), 1])
        squarefree = ascending(poly.sqf_part())
        chain = _sturm_chain(squarefree, _derivative(squarefree))
        assert _root_floats(chain) == fraction_root_floats(chain)


@pytest.mark.parametrize("g", range(1, 7))
def test_window_bound_matches_fraction_bisection(g):
    bound = genus_window_bound(g)
    assert type(bound) is Fraction and bound == fraction_window_bound(g)
    # an endpoint attains the bound for these g, so also compare the
    # enclosures of the critical points of G
    deriv = _derivative(genus_product_polynomial(g))
    chain = _sturm_chain(deriv, _derivative(deriv))
    narrow = lambda a, b, e: (b - a) << 40 <= 1 << e
    enclosures = [(Fraction(a, 1 << e), Fraction(b, 1 << e))
                  for a, b, e in (_refine(chain[0], *ab, narrow) for ab in _isolate(chain))]
    assert len(enclosures) == g - 1 and enclosures == [
        fraction_refine(chain[0], a, b, lambda a, b: b - a <= Fraction(1, 2**40))
        for a, b in fraction_isolate(chain)]


@given(st.sampled_from([2, 4]).flatmap(lambda deg: st.lists(small_rationals, min_size=deg,
                                                             max_size=deg)),
       st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4))
@example([Fraction(-1), Fraction(0)], Fraction(1))     # P^2 - c = x^4 - 2x^2
def test_torus_sphere_split_matches_sympy(lower, c):
    spec = SurfaceSpec(None, tuple(lower) + (Fraction(1),), c, SurfaceForm.TORUS_SPHERE)
    p = sympy_poly(spec.p_coeffs)
    q = p ** 2 - sympy.Rational(c)
    if sympy.gcd(q, q.diff(T)).degree() > 0:
        with pytest.raises(NotRegularError):
            euler_characteristic(spec)
        return
    roots = sympy.real_roots(q)
    signs = [sympy.sign(p.as_expr().subs(T, r)) for r in roots]
    data = euler_characteristic(spec)
    assert (data.n_plus, data.n_minus) == (signs.count(1), signs.count(-1))
    assert list(data.critical_x_values) == sorted(float(r.evalf(25)) for r in roots)


# ---------------------------------------------------------------------------
# genus-g construction
# ---------------------------------------------------------------------------

def test_product_polynomial_roots():
    for g in (1, 2, 3):
        coeffs = genus_product_polynomial(g)
        assert coeffs[-1] == 1
        for j in range(1, g + 1):
            value = sum(a * Fraction(j * j) ** k for k, a in enumerate(coeffs))
            assert value == 0


def test_window_bound_matches_endpoint_maxima():
    # for g <= 4 the max of G on [0, g^2+1] sits at an endpoint; hand values
    for g, expected in [(1, 1), (2, 4), (3, 54), (4, 1664)]:
        assert genus_window_bound(g) == expected


def test_window_bound_dominates_samples():
    for g in (2, 3):
        coeffs = genus_product_polynomial(g)
        bound = genus_window_bound(g)
        hi = Fraction(g * g + 1)
        for i in range(41):
            t = hi * i / 40
            value = sum(a * t ** k for k, a in enumerate(coeffs))
            assert value <= bound


def test_build_genus_polynomial_g1():
    spec = build_genus_polynomial(1, Fraction(1), Fraction(1, 2))
    data = euler_characteristic(spec)
    assert data.n_plus == 2 and data.n_minus == 2
    assert data.chi == 0 and data.genus == 1


def test_build_genus_polynomial_g2():
    spec = build_genus_polynomial(2, Fraction(1), Fraction(1, 8))
    data = euler_characteristic(spec)
    assert data.n_plus == 2 and data.n_minus == 4
    assert data.chi == -2 and data.genus == 2


def test_alpha_window_is_open():
    with pytest.raises(AlphaOutOfRangeError):
        build_genus_polynomial(2, Fraction(1), Fraction(2, 4))   # alpha = 2mu/M
    with pytest.raises(AlphaOutOfRangeError):
        build_genus_polynomial(1, Fraction(1), Fraction(0))
    with pytest.raises(AlphaOutOfRangeError):
        build_genus_polynomial(1, Fraction(1), Fraction(3))


def test_euler_characteristic_genus_family():
    for g in (1, 2, 3, 4):
        alpha = Fraction(1) / genus_window_bound(g)
        data = euler_characteristic(build_genus_polynomial(g, Fraction(1), alpha))
        assert data.genus == g and data.chi == 2 - 2 * g
        assert len(data.critical_x_values) == 2 + 2 * g
        assert list(data.critical_x_values) == sorted(data.critical_x_values)


def test_a_genus_command_builds_each_sturm_chain_once():
    """build_genus_polynomial and euler_characteristic share the chains of
    Q -/+ mu, P(x) = Q(x^2), of degree g, and the window bound of a genus
    already asked for is not recomputed: two chains per command, with the
    same data."""
    g, mu = 3, Fraction(1)
    alpha = Fraction(1) / genus_window_bound(g)
    with mock.patch.object(surface, "_sturm_chain", wraps=surface._sturm_chain) as chain:
        data = euler_characteristic(build_genus_polynomial(g, mu, alpha))
    assert chain.call_count == 2
    spec = build_genus_polynomial(g, mu, alpha)
    square, plus, minus = spec._level_chains
    assert square and len(plus[0]) == len(minus[0]) == g + 1
    fresh = SurfaceSpec(spec.genus, spec.p_coeffs, spec.mu_const, spec.form)
    assert euler_characteristic(fresh) == data


def morse_outcome(morse, spec):
    """Every field of morse(spec), the critical x as hex, or the error's type
    and text."""
    try:
        data = morse(spec)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return data.n_plus, data.n_minus, data.chi, data.genus, \
        [x.hex() for x in data.critical_x_values]


window_fractions = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**9).filter(lambda f: 0 < f < 1),
    st.integers(1, 30).map(lambda k: Fraction(1, 10**k)),       # far inside the window
    st.integers(1, 30).map(lambda k: 1 - Fraction(1, 10**k)))   # at its edge


@given(st.integers(1, 6), st.fractions(min_value=Fraction(1, 10**6), max_value=10**6,
                                       max_denominator=10**6), window_fractions)
@example(1, Fraction(10**400), Fraction(1, 100) / (2 * Fraction(10**400)))  # t beyond doubles
@example(6, Fraction(1), 1 - Fraction(1, 10**30))
def test_genus_morse_data_match_the_p_route(g, mu, frac):
    """build_genus_polynomial's spec, counted and rooted on the chains of
    Q -/+ mu, gives the counts and critical x, bit for bit, of the chains of
    P -/+ mu; the -mu level alpha G(x^2) = 0 has the exact roots +-1..+-g."""
    alpha = frac * 2 * mu / genus_window_bound(g)
    got = morse_outcome(euler_characteristic, build_genus_polynomial(g, mu, alpha))
    assert got == morse_outcome(p_route_euler_characteristic, genus_spec(g, mu, alpha))
    assert {float(j).hex() for j in range(-g, g + 1) if j} <= set(got[4])


roots_with_repeats = st.lists(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 4),
                                               Fraction(1), Fraction(9, 4), Fraction(3)]),
                              min_size=1, max_size=4)


def monic_from_roots(roots) -> list[Fraction]:
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [b - r * a for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@given(roots_with_repeats, st.booleans(), st.booleans(),
       st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8))
@example([Fraction(0), Fraction(1)], True, False, Fraction(1))   # P - mu = x^2 (x^2 - 1)
@example([Fraction(1), Fraction(1)], True, False, Fraction(1, 2))    # Q - mu = (t - 1)^2
def test_general_form_specs_match_the_p_route(roots, even, irreducible, mu):
    """Specs of P - mu with the given roots, in t = x^2 when even (P(x) =
    Q(x^2), on Q's chains) and in x otherwise (a P with odd terms, on P's
    chains), times x^2 + 1 or t^2 + 1 when irreducible: counts, critical x
    and NotRegularError texts are those of the chains of P -/+ mu."""
    lower = monic_from_roots(roots + ([Fraction(-2)] if len(roots) % 2 and not even else []))
    if irreducible:
        lower = [b + a for a, b in zip(lower + [0, 0], [0, 0] + lower)]    # times (var^2 + 1)
    p = lower
    if even:
        p = [Fraction(0)] * (2 * len(lower) - 1)
        p[::2] = lower
    p[0] += mu
    spec = SurfaceSpec(None, tuple(p), mu, SurfaceForm.GENERAL_GENUS)
    assert morse_outcome(euler_characteristic, spec) == \
        morse_outcome(p_route_euler_characteristic, spec)


@given(st.integers(2**52, 2**53 - 1), st.integers(-40, 40), st.booleans(), st.booleans())
@example(2**52, 0, True, False)     # 1 + 2^-53, between 1 and 1 + 2^-52: rounds down to 1
@example(2**52 + 1, 0, True, True)  # 1 + 3 2^-53: rounds up to 1 + 2^-51
def test_a_root_on_a_rounding_cell_end_rounds_to_even(m, s, even, negative):
    """A root halfway between two doubles, of P - mu = x^2 - r^2 (on Q's
    chains) or (x - r)(x + 2r) (on P's), is the even one of them, as the
    division b / 2^e rounds it, certified at the cell end with no bisection.
    The other root, -r or -2r, is far from r, and at mu = 2r^2 P + mu has
    no real root; the coefficients r and 2r^2 are small next to the slope
    3r at r, so Newton's double is within a double or two of it.  Roots
    near another, as in the next test, may leave it further off."""
    r = Fraction(2 * m + 1, 2**(53 + s)) * (-1 if negative else 1)
    lower = [-r * r, Fraction(0), Fraction(1)] if even else [-2 * r * r, r, Fraction(1)]
    mu = 2 * r * r
    spec = SurfaceSpec(None, (lower[0] + mu, *lower[1:]), mu, SurfaceForm.GENERAL_GENUS)
    with mock.patch.object(surface, "_refine", wraps=surface._refine) as refine:
        got = morse_outcome(euler_characteristic, spec)
    assert refine.call_count == 0
    assert got == morse_outcome(p_route_euler_characteristic, spec)
    assert float(r).hex() in got[4] and float(r) != r


@pytest.mark.parametrize("m", [4571731547631149, 2**52 + 2**20 + 1])
def test_a_root_on_a_rounding_cell_end_next_to_another_rounds_to_even(m):
    """P - mu = (x - r)(x + 1), r = -(2m + 1)/2^53 halfway between two doubles:
    at r = -1.0151... the Newton double in doubles is four doubles off r, and
    r = -(1 + 2^-32 + 3 2^-53) lies 2.3e-10 from the root -1; neither double
    is certified, and exact bisection finds the even double."""
    r = -Fraction(2 * m + 1, 2**53)
    mu = Fraction(1)
    spec = SurfaceSpec(None, (mu - r, 1 - r, Fraction(1)), mu, SurfaceForm.GENERAL_GENUS)
    with mock.patch.object(surface, "_refine", wraps=surface._refine) as refine:
        got = morse_outcome(euler_characteristic, spec)
    assert refine.call_count == 1
    assert got == morse_outcome(p_route_euler_characteristic, spec)
    assert float(r).hex() in got[4] and float(r) != r


@pytest.mark.parametrize("g, mu, alpha", [(1, Fraction(10**400), Fraction(1, 100)),
                                           (10, Fraction(1), Fraction(1, 10**16))])
def test_roots_no_double_certifies_take_exact_bisection(g, mu, alpha):
    """At mu = 10^400 the coefficients of Q - mu are beyond the double range,
    and at g = 10 the float start of a root is not within three doubles of
    it: both bisect exactly, to the p route's doubles."""
    with mock.patch.object(surface, "_refine", wraps=surface._refine) as refine:
        got = morse_outcome(euler_characteristic, build_genus_polynomial(g, mu, alpha))
    assert refine.call_count >= 1
    assert got == morse_outcome(p_route_euler_characteristic, genus_spec(g, mu, alpha))


def test_not_regular_detected():
    # P + mu = (x^2 - 1)^2 has double roots
    spec = SurfaceSpec(None, (Fraction(0), 0, Fraction(-2), 0, Fraction(1)),
                       Fraction(1), SurfaceForm.GENERAL_GENUS)
    with pytest.raises(NotRegularError):
        euler_characteristic(spec)


def test_torus_sphere_euler_sphere_regime():
    spec = SurfaceSpec(None, (Fraction(-1, 2), 0, Fraction(1)), Fraction(1),
                       SurfaceForm.TORUS_SPHERE)
    data = euler_characteristic(spec)
    assert data.n_plus == 2 and data.n_minus == 0 and data.genus == 0
    assert len(data.critical_x_values) == 2


def test_torus_sphere_euler_torus_regime():
    spec = SurfaceSpec(None, (Fraction(-13, 10), 0, Fraction(1)), Fraction(1),
                       SurfaceForm.TORUS_SPHERE)
    data = euler_characteristic(spec)
    assert data.n_plus == 2 and data.n_minus == 2 and data.genus == 1
    assert len(data.critical_x_values) == 4


# ---------------------------------------------------------------------------
# Poisson bracket
# ---------------------------------------------------------------------------

def torus_constraint(mu=Fraction(1), c=Fraction(1)):
    return bracket_constraint([-mu, Fraction(0), Fraction(1)], c)


def test_bracket_xy_equals_z():
    assert poisson_bracket(X, Y, torus_constraint()) == Z


def test_bracket_antisymmetry_and_ff():
    C = torus_constraint()
    f = X * X + 2 * Y
    assert poisson_bracket(f, f, C).is_zero()
    g = Y * Z
    assert poisson_bracket(f, g, C) == -1 * poisson_bracket(g, f, C)


def test_bracket_yz_equals_dxC():
    mu = Fraction(3, 2)
    C = torus_constraint(mu=mu)
    expected = 2 * X * (X * X + Y * Y - CommPolynomial3.constant(mu))
    assert poisson_bracket(Y, Z, C) == expected


def test_bracket_zx_equals_dyC():
    mu = Fraction(1)
    C = torus_constraint(mu=mu)
    expected = 2 * Y * (X * X + Y * Y - CommPolynomial3.constant(mu))
    assert poisson_bracket(Z, X, C) == expected


def test_jacobi_identity_random_triples():
    rng = random.Random(29)
    C = torus_constraint()
    for _ in range(20):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        total = (poisson_bracket(f, poisson_bracket(g, h, C), C)
                 + poisson_bracket(g, poisson_bracket(h, f, C), C)
                 + poisson_bracket(h, poisson_bracket(f, g, C), C))
        assert total.is_zero()


def test_leibniz_rule():
    rng = random.Random(37)
    C = torus_constraint()
    for _ in range(10):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        lhs = poisson_bracket(f, g * h, C)
        rhs = poisson_bracket(f, g, C) * h + g * poisson_bracket(f, h, C)
        assert lhs == rhs


def test_constraint_is_casimir():
    rng = random.Random(43)
    C = torus_constraint(mu=Fraction(2, 3), c=Fraction(5, 4))
    for _ in range(10):
        assert poisson_bracket(C, rand_poly(rng), C).is_zero()


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------

def test_critical_values_toral():
    values = critical_values_torus_sphere(1.3, 1.0)
    expected = sorted([-math.sqrt(2.3), -math.sqrt(0.3), math.sqrt(0.3), math.sqrt(2.3)])
    assert len(values) == 4
    assert all(abs(a - b) < 1e-14 for a, b in zip(values, expected))


def test_critical_values_spherical():
    values = critical_values_torus_sphere(0.9, 1.0)
    assert len(values) == 2
    assert abs(values[1] - math.sqrt(1.9)) < 1e-14


def test_critical_values_transition():
    values = critical_values_torus_sphere(1.0, 1.0)
    assert len(values) == 3
    assert values[1] == 0.0
    assert abs(values[2] - math.sqrt(2.0)) < 1e-14


def test_critical_values_validation():
    with pytest.raises(ValueError):
        critical_values_torus_sphere(1.0, 0.0)
    with pytest.raises(ValueError):
        critical_values_torus_sphere(-2.0, 1.0)
