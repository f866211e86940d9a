import hashlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from ncsurface.free_algebra import (AlgebraParams, IncompatibleOrderError,
                                    NCPolynomial, NonTerminatingError,
                                    NoOverlapError, Ordering, ReductionSystem,
                                    build_genus_relations, build_torus_system,
                                    casimir_centrality, casimir_polynomial,
                                    check_consistency_identity,
                                    check_overlap_resolvable, commutator,
                                    consistency_defect, enumerate_basis,
                                    misordering_index, one_step_reductions,
                                    reduce, symmetrized_rescale, word_compare)


def rational(rng, num=9, den=9):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def positive_rational(rng, num=9, den=9):
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def random_params(rng):
    h2 = Fraction(rng.randint(1, 9), rng.randint(10, 20))
    assert 0 < h2 < 1
    return AlgebraParams(rational(rng), h2)


# ---------------------------------------------------------------------------
# misordering index and the partial order
# ---------------------------------------------------------------------------

def test_misordering_examples():
    assert misordering_index("WV") == 1
    assert misordering_index("VW") == 0
    assert misordering_index("WWVV") == 4
    assert misordering_index("") == 0


@given(st.text(alphabet="WV", max_size=12))
def test_misordering_matches_pair_enumeration(word):
    brute = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                if word[i] == "W" and word[j] == "V")
    assert misordering_index(word) == brute


def test_word_compare_examples():
    assert word_compare("WV", "VW") is Ordering.GREATER
    assert word_compare("W", "VV") is Ordering.LESS
    assert word_compare("WV", "VV") is Ordering.INCOMPARABLE
    assert word_compare("WVW", "WVW") is Ordering.EQUAL


@given(st.text(alphabet="WV", max_size=8), st.text(alphabet="WV", max_size=8))
def test_word_compare_antisymmetric(p, q):
    a, b = word_compare(p, q), word_compare(q, p)
    flip = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS,
            Ordering.EQUAL: Ordering.EQUAL,
            Ordering.INCOMPARABLE: Ordering.INCOMPARABLE}
    assert b is flip[a]


# ---------------------------------------------------------------------------
# torus reduction system
# ---------------------------------------------------------------------------

def test_torus_system_coefficients():
    system = build_torus_system(AlgebraParams(Fraction(1), Fraction(1, 2)))
    sigma1 = system.rules[0][1]
    assert sigma1.coefficient("W") == Fraction(4, 3)
    assert sigma1.coefficient("WVW") == Fraction(2, 3)
    assert sigma1.coefficient("VWW") == -1


def test_torus_system_mu_zero_drops_linear_term():
    system = build_torus_system(AlgebraParams(Fraction(0), Fraction(1, 3)))
    sigma1 = system.rules[0][1]
    assert len(sigma1.terms) == 2
    assert sigma1 == NCPolynomial({"WVW": 1, "VWW": -1})


def test_torus_system_monomial_counts():
    rng = random.Random(11)
    for _ in range(5):
        params = random_params(rng)
        system = build_torus_system(params)
        expected = 2 if params.mu == 0 else 3
        for _, replacement in system.rules:
            assert len(replacement.terms) == expected


def test_replacements_strictly_below_patterns():
    system = build_torus_system(AlgebraParams(Fraction(2, 3), Fraction(1, 5)))
    for pattern, replacement in system.rules:
        for word in replacement.terms:
            assert word_compare(word, pattern) is Ordering.LESS


def test_incompatible_rule_rejected():
    with pytest.raises(IncompatibleOrderError):
        ReductionSystem([("WV", NCPolynomial.monomial("VWW"))])


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_sigma1_example():
    params = AlgebraParams(Fraction(1), Fraction(1, 2))
    system = build_torus_system(params)
    nf = reduce(NCPolynomial.monomial("WWV"), system)
    assert nf == system.rules[0][1]


def test_reduce_identity_and_basis_words():
    system = build_torus_system(AlgebraParams(Fraction(1), Fraction(1, 3)))
    assert reduce(NCPolynomial.one(), system) == NCPolynomial.one()
    for word in ("", "VWVW", "VVWVWW", "W", "V"):
        assert reduce(NCPolynomial.monomial(word), system) == NCPolynomial.monomial(word)


def test_normal_forms_contain_no_forbidden_subwords():
    rng = random.Random(3)
    system = build_torus_system(AlgebraParams(Fraction(2), Fraction(1, 4)))
    for _ in range(30):
        word = "".join(rng.choice("WV") for _ in range(rng.randint(0, 8)))
        nf = reduce(NCPolynomial.monomial(word), system)
        for w in nf.terms:
            assert "WWV" not in w and "WVV" not in w


def test_reduce_idempotent_and_linear():
    rng = random.Random(5)
    system = build_torus_system(AlgebraParams(Fraction(1, 2), Fraction(2, 7)))
    for _ in range(10):
        p = NCPolynomial({
            "".join(rng.choice("WV") for _ in range(rng.randint(0, 7))):
                rational(rng) for _ in range(4)})
        q = NCPolynomial({
            "".join(rng.choice("WV") for _ in range(rng.randint(0, 7))):
                rational(rng) for _ in range(3)})
        a, b = rational(rng), rational(rng)
        rp, rq = reduce(p, system), reduce(q, system)
        assert reduce(rp, system) == rp
        assert reduce(p.scale(a) + q.scale(b), system) == rp.scale(a) + rq.scale(b)


def _random_order_normal_form(word, system, rng):
    poly = NCPolynomial.monomial(word)
    for _ in range(10000):
        reducible = [(w, system.all_matches(w)) for w in sorted(poly.terms)
                     if system.all_matches(w)]
        if not reducible:
            return poly
        w, matches = rng.choice(reducible)
        pos, idx = rng.choice(matches)
        coeff = poly.terms[w]
        poly = poly - NCPolynomial.monomial(w, coeff) + \
            system.apply_at(w, pos, idx).scale(coeff)
    raise AssertionError("random-order reduction did not terminate")


def test_confluence_under_randomized_rule_application():
    # spec invariant: 100 random words of degree <= 8, all orders agree
    rng = random.Random(17)
    system = build_torus_system(AlgebraParams(Fraction(3, 2), Fraction(1, 3)))
    for _ in range(100):
        word = "".join(rng.choice("WV") for _ in range(rng.randint(2, 8)))
        reference = reduce(NCPolynomial.monomial(word), system)
        for _ in range(3):
            assert _random_order_normal_form(word, system, rng) == reference


def test_nonterminating_safety_bound():
    looping = ReductionSystem([("W", NCPolynomial.monomial("V")),
                               ("V", NCPolynomial.monomial("W"))], validate=False)
    with pytest.raises(NonTerminatingError):
        reduce(NCPolynomial.monomial("W"), looping)


# sha256 of str(reduce(W^k V^k)) at (mu, hbar^2) = (5/7, 1/3): pins the exact
# normal forms against any change to the rewriting or coefficient arithmetic
NORMAL_FORM_DIGESTS = {
    3: "e4eb31419ef860d8479f335dd72609e602b534417aa271e0bdea6b549a299747",
    4: "68d6aea7aef04fb5dfcd612a51c914f185fe02a46bacb500e6d4d6a0876f8b9a",
    5: "705dc770919dc5818409b57eee870dacc61e804d1a9dc9f2a782d360beb20528",
    6: "8cbb7532efcf59ee5faa160e48798bde451180a886a1d29921b22652899217e5",
}


@pytest.mark.parametrize("k", sorted(NORMAL_FORM_DIGESTS))
def test_normal_form_digests_of_w_k_v_k(k):
    system = build_torus_system(AlgebraParams(Fraction(5, 7), Fraction(1, 3)))
    nf = reduce(NCPolynomial.monomial("W" * k + "V" * k), system)
    assert hashlib.sha256(str(nf).encode()).hexdigest() == NORMAL_FORM_DIGESTS[k]


# ---------------------------------------------------------------------------
# overlap ambiguity
# ---------------------------------------------------------------------------

def test_overlap_resolvable_for_random_exact_params():
    rng = random.Random(23)
    for _ in range(10):
        system = build_torus_system(random_params(rng))
        check = check_overlap_resolvable(system, "WWVV")
        assert check.resolvable and check.witness.is_zero()


def test_corrupted_rule_not_resolvable():
    params = AlgebraParams(Fraction(2, 3), Fraction(1, 3))
    h2, mu = params.hbar_sq, params.mu
    good = build_torus_system(params)
    bad_sigma1 = NCPolynomial({
        "W": 4 * mu,                       # 4*mu instead of 4*mu*h^2/(1+h^2)
        "WVW": 2 * (1 - h2) / (1 + h2),
        "VWW": -1})
    bad = ReductionSystem([("WWV", bad_sigma1), good.rules[1]])
    check = check_overlap_resolvable(bad, "WWVV")
    assert not check.resolvable and not check.witness.is_zero()


def test_no_overlap_for_single_rule():
    system = build_torus_system(AlgebraParams(Fraction(1), Fraction(1, 3)))
    single = ReductionSystem([system.rules[0]])
    with pytest.raises(NoOverlapError):
        check_overlap_resolvable(single, "WWV")


def test_one_step_reductions_of_the_overlap():
    system = build_torus_system(AlgebraParams(Fraction(1), Fraction(1, 3)))
    assert len(one_step_reductions("WWVV", system)) == 2


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

def test_enumerate_basis_examples():
    assert enumerate_basis(0) == [""]
    assert enumerate_basis(1) == ["", "V", "W"]
    assert enumerate_basis(2) == ["", "V", "W", "VV", "VW", "WV", "WW"]


def test_enumerate_basis_counts_triples():
    for deg in range(6):
        expected = sum(1 for i in range(deg + 1) for j in range(deg + 1)
                       for k in range(deg + 1) if i + 2 * j + k <= deg)
        assert len(enumerate_basis(deg)) == expected


def test_basis_words_are_irreducible():
    system = build_torus_system(AlgebraParams(Fraction(1), Fraction(1, 3)))
    for word in enumerate_basis(6):
        assert system.leftmost_match(word) is None


# ---------------------------------------------------------------------------
# genus relations and the consistency identity
# ---------------------------------------------------------------------------

def _sympy_poly_oracle(poly, X, Y):
    """Independent expansion of an NCPolynomial over noncommutative symbols."""
    total = sympy.S.Zero
    for word, coeff in poly.terms.items():
        term = sympy.Rational(coeff)
        for ch in word:
            term = term * (X if ch == "X" else Y)
        total += term
    return sympy.expand(total)


def test_genus_relations_specialize_to_torus_equations():
    mu = Fraction(5, 7)
    h2 = Fraction(1, 3)
    rel = build_genus_relations([-mu, Fraction(0), Fraction(1)], h2)
    # phi_X and phi_Y divided by i*hbar
    assert rel.phi_x == NCPolynomial({"XXX": 2, "XYY": 1, "YYX": 1, "X": -2 * mu})
    assert rel.phi_y == NCPolynomial({"YYY": 2, "YXX": 1, "XXY": 1, "Y": -2 * mu})
    assert rel.hbar_sq == h2


def test_genus_relations_mu_zero():
    rel = build_genus_relations([Fraction(0), Fraction(0), Fraction(1)], Fraction(1, 4))
    assert rel.phi_y == NCPolynomial({"YYY": 2, "YXX": 1, "XXY": 1})


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_genus_relations_against_sympy_oracle(genus):
    # deg P = 2g with random rational coefficients, oracle-expanded phi_X/(i hbar)
    rng = random.Random(31 + genus)
    degree = 2 * genus
    coeffs = [rational(rng) for _ in range(degree)] + [positive_rational(rng)]
    rel = build_genus_relations(coeffs, Fraction(1, 5))
    X, Y = sympy.symbols("X Y", commutative=False)
    p_plus_y2 = sum(sympy.Rational(a) * X ** r for r, a in enumerate(coeffs)) + Y * Y
    phi_x = sympy.S.Zero
    for r in range(1, degree + 1):
        for i in range(r):
            phi_x += sympy.Rational(coeffs[r]) * X ** i * p_plus_y2 * X ** (r - 1 - i)
    assert sympy.expand(_sympy_poly_oracle(rel.phi_x, X, Y) - sympy.expand(phi_x)) == 0


def test_genus_relations_reject_nonpositive_hbar_sq():
    for h2 in (Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError, match="hbar_sq"):
            build_genus_relations([Fraction(-1), Fraction(0), Fraction(1)], h2)


def test_consistency_identity_for_torus_polynomial():
    rng = random.Random(7)
    for _ in range(5):
        mu = rational(rng)
        h2 = Fraction(rng.randint(1, 9), rng.randint(10, 30))
        assert check_consistency_identity([-mu, Fraction(0), Fraction(1)], h2)


def test_consistency_identity_for_random_even_polynomials():
    rng = random.Random(13)
    for _ in range(8):
        degree = rng.choice([2, 4, 6, 8])
        coeffs = [rational(rng) for _ in range(degree)] + [positive_rational(rng)]
        assert check_consistency_identity(coeffs, Fraction(2, 5))


def test_consistency_breaks_under_perturbation():
    coeffs = [Fraction(-1), Fraction(0), Fraction(1)]
    rel = build_genus_relations(coeffs, Fraction(1, 3))
    # perturb a monomial that does not commute with X, e.g. XYY
    word = next(w for w in rel.phi_x.terms if "Y" in w)
    bumped = rel.phi_x + NCPolynomial.monomial(word, rel.phi_x.terms[word])
    assert not consistency_defect(bumped, rel.phi_y).is_zero()
    assert consistency_defect(rel.phi_x, rel.phi_y).is_zero()


# ---------------------------------------------------------------------------
# Casimir centrality
# ---------------------------------------------------------------------------

def test_casimir_centrality_examples():
    assert casimir_centrality(AlgebraParams(Fraction(1), Fraction(1, 3)))
    assert casimir_centrality(AlgebraParams(Fraction(0), Fraction(1, 2)))


def test_casimir_centrality_random_params():
    rng = random.Random(41)
    for _ in range(6):
        assert casimir_centrality(random_params(rng))


def test_casimir_without_hbar_factor_not_central():
    params = AlgebraParams(Fraction(1), Fraction(1, 3))
    system = build_torus_system(params)
    bad = casimir_polynomial(params, with_hbar_factor=False)
    w = NCPolynomial.monomial("W")
    assert not reduce(commutator(w, bad), system).is_zero()


def test_d_dtilde_commute_after_reduction():
    params = AlgebraParams(Fraction(3, 4), Fraction(2, 5))
    system = build_torus_system(params)
    d, dt = NCPolynomial.monomial("WV"), NCPolynomial.monomial("VW")
    assert reduce(commutator(d, dt), system).is_zero()


# ---------------------------------------------------------------------------
# commutative specialization (the ideal vanishes at hbar -> 0)
# ---------------------------------------------------------------------------

def test_torus_relations_commutative_limit():
    rng = random.Random(2)
    w, v = complex(0.7, 0.2), complex(-0.3, 0.9)
    assignment = {"W": w, "V": v}
    gaps = []
    for exponent in (2, 4, 6):
        eps = Fraction(1, 10 ** exponent)
        system = build_torus_system(AlgebraParams(Fraction(1), eps))
        pattern, replacement = system.rules[0]
        lhs = NCPolynomial.monomial(pattern).evaluate(assignment)
        rhs = replacement.evaluate(assignment)
        gaps.append(abs(lhs - rhs))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5


# ---------------------------------------------------------------------------
# rescaling, params, serialization
# ---------------------------------------------------------------------------

def test_symmetrized_rescale_values():
    assert symmetrized_rescale(Fraction(1, 3)) == Fraction(3, 8)
    assert symmetrized_rescale(Fraction(3, 4)) == Fraction(1)
    # vanishes with its argument
    assert symmetrized_rescale(Fraction(1, 10 ** 9)) < Fraction(1, 10 ** 8)
    with pytest.raises(ValueError):
        symmetrized_rescale(Fraction(3))
    with pytest.raises(ValueError):
        symmetrized_rescale(Fraction(0))


def test_build_genus_relations_degree_errors():
    from ncsurface.free_algebra import DegreeZeroError
    with pytest.raises(DegreeZeroError):
        build_genus_relations([Fraction(2)], Fraction(1, 3))
    with pytest.raises(ValueError):
        build_genus_relations([Fraction(1), Fraction(1), Fraction(0)], Fraction(1, 3))


def test_rescale_boundary_rejected_by_params():
    with pytest.raises(ValueError):
        AlgebraParams(Fraction(1), symmetrized_rescale(Fraction(3, 4)))
    AlgebraParams(Fraction(1), symmetrized_rescale(Fraction(1, 3)))


def test_algebra_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        AlgebraParams(Fraction(1), Fraction(0))
    params = AlgebraParams(Fraction(1), Fraction(1, 3))
    assert abs(params.hbar ** 2 - 1 / 3) < 1e-15
    assert abs(params.q.real ** 2 + params.q.imag ** 2 - 1) < 1e-15


def test_serialization_canonical_form():
    poly = NCPolynomial({"W": Fraction(4, 3), "WVW": Fraction(2, 3), "VWW": -1})
    assert str(poly) == "(4/3)*W + (-1)*VWW + (2/3)*WVW"
    assert str(NCPolynomial.zero()) == "0"
    assert str(NCPolynomial.one()) == "(1)*1"


def test_polynomial_ring_axioms_small():
    rng = random.Random(19)
    def rand_poly():
        return NCPolynomial({
            "".join(rng.choice("WV") for _ in range(rng.randint(0, 4))):
                rational(rng) for _ in range(3)})
    for _ in range(15):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
