"""Representations stored as their nonzero entries, checked against the dense
code they replace.

The ``dense_*`` functions of reference.py are the dense-W implementations
that the entries-based library code was written from, kept verbatim in
substance as the reference: every report, graph, index and eigenvalue of the
library must equal theirs bit for bit.  One stated exception is the diagonal data
(d, d~): a row or column of W with three or more entries is summed in another
order, which moves d or d~ by a few ulp and the block-loop canonicalization
built on them by at most DIAGONAL_ROUNDOFF relative to max|W|.  The
other is the commutator measure: within COMMUTATOR_ROUNDOFF of the dense
products over every ordering, since it forms each sum over orderings by a
recursion, and on structured operands (_Shifts) sums in another order too.
"""

import cmath
import dataclasses
import functools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from ncsurface import berezin, representations, spectra
from ncsurface.cli import main, parse_poly3
from ncsurface.representations import (LoopSpec, NonFiniteMatrixError, NotSingleLoopError,
                                       Representation, RepParams, StringSpec,
                                       canonicalize_loop, construct_degenerate_rep,
                                       construct_loop_rep, construct_string_rep,
                                       direct_sum, loop_weights, matrix_graph, rep_index,
                                       reps_equivalent, solve_string_theta, string_weights,
                                       verify_relations)
from ncsurface.spectra import DegreeTooHighError, commutator_vs_bracket, position_spectrum
from ncsurface.surface import CommPolynomial3, bracket_constraint, poisson_bracket
from reference import (dense_canonical_loops, dense_casimir, dense_eigenvalues, dense_equivalent,
                       dense_graph, dense_rep_index, dense_verify, operand_array,
                       orderings_symmetrized_substitution)

DIAGONAL_ROUNDOFF = 1e-13


def random_unitary(rng, m):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# the dense reference
# ---------------------------------------------------------------------------

def dense_loop_w(spec: LoopSpec, mu: float, c: float) -> np.ndarray:
    weights = loop_weights(spec.n, spec.k, spec.beta, mu, c)
    m = spec.block_dim
    if spec.unitaries is not None:
        blocks = list(spec.unitaries)
    else:
        eye = np.eye(m, dtype=complex)
        blocks = [cmath.exp(1j * a) * eye for a in spec.phases]
    N = spec.n * m
    W = np.zeros((N, N), dtype=complex)
    for l in range(spec.n):
        row, col, src = l * m, ((l + 1) % spec.n) * m, (l + 1) % spec.n
        W[row:row + m, col:col + m] = math.sqrt(weights[src]) * blocks[src]
    return W


def dense_string_w(spec: StringSpec) -> np.ndarray:
    weights = string_weights(spec.n, spec.theta, spec.c)
    W = np.zeros((spec.n, spec.n), dtype=complex)
    for i in range(spec.n - 1):
        W[i, i + 1] = math.sqrt(weights[i]) * cmath.exp(1j * spec.phases[i])
    return W


def dense_commutator_vs_bracket(f, g, reps, mu: Fraction, c: Fraction) -> list[tuple[int, float]]:
    bracket = poisson_bracket(f, g, bracket_constraint([-mu, Fraction(0), Fraction(1)], c))
    out = []
    for rep in reps:
        W, hbar = rep.W, rep.params.hbar
        X, Y = (W + W.conj().T) / 2, (W - W.conj().T) / 2j
        Z = (X @ Y - Y @ X) / (1j * hbar)
        F = orderings_symmetrized_substitution(f, X, Y, Z)
        G = orderings_symmetrized_substitution(g, X, Y, Z)
        H = (F @ G - G @ F) / (1j * hbar)
        B = orderings_symmetrized_substitution(bracket, X, Y, Z)
        denom = np.linalg.norm(B)
        if denom == 0:
            denom = 1.0
        out.append((rep.n, float(np.linalg.norm(H - B) / denom)))
    return out


# ---------------------------------------------------------------------------
# drawn representations
# ---------------------------------------------------------------------------

@st.composite
def drawn_reps(draw):
    """(rep, reference W, partner): a loop with coprime k, a string, a block
    loop (m = 2, 3), a degenerate rep or a direct sum of a loop and a string,
    built by the library, with the dense reference W built the dense way,
    then left alone, relabeled, or perturbed on or off its pattern; the
    partner is a second rep of the same kind for the equivalence test."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["loop", "string", "block loop", "degenerate", "sum"]))
    big = draw(st.booleans())        # from N = 96 on

    def loop(n, m=1):
        k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1 and n > 4 * k]))
        phases = rng.uniform(0, 2 * math.pi, n)
        if draw(st.booleans()):     # gauge-trivial: a total phase of 0 or pi, up to roundoff
            phases += (draw(st.sampled_from([0.0, math.pi])) - phases.sum()) / n
        spec = LoopSpec(n=n, k=k, beta=draw(st.floats(0, 2 * math.pi)),
                        phases=phases, block_dim=m,
                        unitaries=[random_unitary(rng, m) for _ in range(n)] if m > 1 else None)
        mu = (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta)
        return construct_loop_rep(spec, mu, 1.0), dense_loop_w(spec, mu, 1.0)

    def string(n):
        mu = draw(st.floats(0.3, 0.95))
        spec = StringSpec(n=n, theta=solve_string_theta(n, mu, 1.0), mu=mu,
                          phases=rng.uniform(0, 2 * math.pi, n - 1))
        return construct_string_rep(spec), dense_string_w(spec)

    below = representations._DENSE_BELOW - 1
    if kind == "loop":
        rep, W = loop(draw(st.integers(100, 200) if big else st.integers(5, below)))
    elif kind == "string":
        rep, W = string(draw(st.integers(100, 200) if big else st.integers(4, below)))
    elif kind == "block loop":
        m = draw(st.sampled_from([2, 3]))
        rep, W = loop(draw(st.integers(35, 60) if big else st.integers(5, 12)), m)
    elif kind == "degenerate":
        U = random_unitary(rng, draw(st.integers(1, 12)))
        rep = construct_degenerate_rep(1.7, U)
        W = math.sqrt(1.7) * U
    else:
        a, Wa = loop(draw(st.integers(5, 60)))
        b, Wb = string(draw(st.integers(4, 60)))
        rep = direct_sum([a, b])
        W = scipy.linalg.block_diag(Wa, Wb)
    assert np.array_equal(rep.W, W)
    nonzero = np.nonzero(W)
    assert np.array_equal(rep.vals.view(np.int64), W[nonzero].view(np.int64))

    partner = Representation(W * np.exp(1j * draw(st.sampled_from([0.0, 0.3]))),
                             rep.params, rep.regime)
    change = draw(st.sampled_from(["none", "relabel", "on pattern", "off pattern"]))
    W = W.copy()
    if change == "relabel":
        perm = rng.permutation(rep.n)
        W = W[np.ix_(perm, perm)]
    elif change != "none":
        rows, cols = nonzero if change == "on pattern" else np.nonzero(W == 0)
        if len(rows):
            at = rng.integers(len(rows))
            W[rows[at], cols[at]] += 1e-3 * np.max(np.abs(W)) * np.exp(1j * rng.uniform(0, 6))
    if change != "none":
        rep = Representation(W, rep.params, rep.regime)
    return rep, W, partner


def outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def bitwise(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def gauge_trivial_loop(n: int = 150, k: int = 7):
    """A drawn_reps value for a loop whose phases sum to 0 up to roundoff, so
    that every run compares the real-twist branch bit for bit."""
    phases = np.random.default_rng(n).uniform(0, 2 * math.pi, n)
    phases -= phases.mean()
    spec = LoopSpec(n=n, k=k, beta=0.4, phases=phases)
    mu = 1.5 / math.cos(spec.theta)
    rep = construct_loop_rep(spec, mu, 1.0)
    return rep, dense_loop_w(spec, mu, 1.0), Representation(rep.W * np.exp(0.3j), rep.params,
                                                            rep.regime)


@settings(max_examples=60, deadline=None)
@given(drawn_reps())
@example(gauge_trivial_loop())
def test_entries_based_readers_equal_the_dense_code(drawn):
    rep, W, partner = drawn
    # the entries are np.nonzero(W) in row-major order, no zero, no repeat
    rows, cols = np.nonzero(W)
    assert np.array_equal(rep.rows, rows) and np.array_equal(rep.cols, cols)
    assert np.array_equal(rep.vals.view(np.int64), W[rows, cols].view(np.int64))
    assert np.array_equal(rep.W, W)

    # the reference is dense products; from N = _DENSE_BELOW on W would run
    # on its reading's parts (_parts), which test_representations and
    # test_sums_and_relabeled_block_loops_match_the_dense_code compare with
    # dense products
    with mock.patch.object(representations, "_DENSE_BELOW", math.inf):
        assert verify_relations(rep) == dense_verify(W, rep.params)
    eigs = spectra._phi_x_eigenvalues(rep)
    assert np.array_equal(bitwise(eigs), bitwise(dense_eigenvalues(W)))
    graph, reference_graph = matrix_graph(rep), dense_graph(W)
    assert np.array_equal(graph.rows, reference_graph.rows)
    assert np.array_equal(graph.cols, reference_graph.cols)
    assert outcome(rep_index, rep) == outcome(dense_rep_index, W)

    # d and d~ are exact unless a row or column of W holds three entries or more;
    # such a W is no loop or string, so reps_equivalent raises before reading c
    crowded = max(np.bincount(r.rows).max(initial=0) for r in (rep, partner)) >= 3 or \
        max(np.bincount(r.cols).max(initial=0) for r in (rep, partner)) >= 3
    peak = float(np.max(np.abs(W)))
    if crowded:
        assert representations._casimir(rep) == pytest.approx(
            dense_casimir(W, rep.params), rel=0, abs=DIAGONAL_ROUNDOFF * peak ** 4)
    assert (outcome(reps_equivalent, rep, partner)
            == outcome(dense_equivalent, W, partner.W, rep.params))

    loops, reference = outcome(canonicalize_loop, rep), outcome(dense_canonical_loops, W,
                                                                rep.params)
    if isinstance(reference, type):
        assert loops == reference
        return
    tol = DIAGONAL_ROUNDOFF * peak if crowded else 0.0
    assert len(loops) == len(reference)
    for loop, ref in zip(loops, reference):
        assert np.max(np.abs(loop.W - ref), initial=0.0) <= tol


@pytest.mark.parametrize("kind", ["loop", "string"])
def test_a_large_rep_is_read_without_a_dense_array(kind):
    N = 2000
    if kind == "loop":
        make = lambda phase: construct_loop_rep(
            LoopSpec(n=N, k=1, beta=0.3, phases=[phase] + [0.0] * (N - 1)), 1.3, 1.0)
    else:
        theta = solve_string_theta(N, 0.9, 1.0)
        make = lambda phase: construct_string_rep(
            StringSpec(n=N, theta=theta, mu=0.9, phases=[phase] + [0.0] * (N - 2)))
    rep, other = make(0.0), make(0.5)
    assert verify_relations(rep).ok()
    assert len(position_spectrum(rep).eigenvalues) == N
    if kind == "loop":
        assert rep_index(rep).phase == 0.0
        assert not reps_equivalent(rep, other)
    else:
        with pytest.raises(NotSingleLoopError):
            rep_index(rep)
        assert reps_equivalent(rep, other)
    for r in (rep, other):
        assert not {"W", "phi_X"} & set(vars(r))


# ---------------------------------------------------------------------------
# the commutator measure
# ---------------------------------------------------------------------------

MONOMIALS = [CommPolynomial3({powers: Fraction(1)}) for powers in
             [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2),
              (1, 1, 0), (1, 0, 1), (0, 1, 1)]]
COMMUTATOR_ROUNDOFF = 1e-13


@st.composite
def commutator_reps(draw):
    """A loop with coprime k, a string, a block loop (m = 2) or a Haar
    degenerate rep, below the crossover N = _DENSE_BELOW or from it on, and
    (f, g) monomials of degree <= 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["loop", "string", "block loop", "degenerate"]))
    big = draw(st.booleans())
    crossover = representations._DENSE_BELOW
    if kind in ("loop", "block loop"):
        m = 1 if kind == "loop" else 2
        n = draw(st.integers(crossover // m, 160 // m) if big
                 else st.integers(5, (crossover - 1) // m))
        k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1 and n > 4 * k]))
        spec = LoopSpec(n=n, k=k, beta=draw(st.floats(0, 2 * math.pi)),
                        phases=rng.uniform(0, 2 * math.pi, n), block_dim=m,
                        unitaries=[random_unitary(rng, m) for _ in range(n)] if m > 1 else None)
        rep = construct_loop_rep(spec, (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta),
                                 1.0)
    elif kind == "string":
        n = draw(st.integers(crossover, 160) if big else st.integers(4, crossover - 1))
        mu = draw(st.floats(0.3, 0.95))
        rep = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, mu, 1.0), mu=mu,
                                              phases=rng.uniform(0, 2 * math.pi, n - 1)))
    else:
        rep = construct_degenerate_rep(1.7, random_unitary(
            rng, draw(st.integers(96, 128) if big else st.integers(1, 12))))
    f, g = draw(st.sampled_from(MONOMIALS)), draw(st.sampled_from(MONOMIALS))
    return rep, f, g


# A degenerate rep has W W^dagger = W^dagger W = mu, so X^2 + Y^2 = mu and
# Z = 0 up to roundoff, and every bracket of the constraint vanishes on it:
# its error is a ratio of two roundoffs, which any change in the order of
# summation changes entirely.  Its values are checked on the scale of their
# terms instead.  A polynomial's scale, sqrt(N) sum |coeff| s^degree with s
# the largest spectral norm of X, Y and Z, bounds the Frobenius norm of its
# substitution, and 2 scale(f) scale(g) / (sqrt(N) hbar) bounds
# [F, G]/(i hbar).  Over 400 draws of these reps the worst were 7.2 eps of
# the bracket's scale for |B|, 1.5 eps of the sum of both scales for
# |H - B|, and 0.5 eps for a substitution against the orderings reference.
DEGENERATE_ROUNDOFF = 1e-14


def _assert_degenerate_measure(rep, f, g, formed, error):
    """The substitutions commutator_vs_bracket formed on a degenerate rep
    are the orderings reference's, both make the bracket and H - B vanish to
    roundoff, and the error is |H - B| / |B| of what the code formed.  A
    weighted-homogeneous pair is formed on W 2^-e, with its bracket built
    from mu 4^-e and c 16^-e, and with B = 0 its error |H|_F is scaled back
    by 2^(e (w_f + w_g))."""
    [(polys, (X, Y, Z), values)] = formed
    e = shift = 0
    if None not in (spectra._weight(f), spectra._weight(g)):
        e = max(representations._binary_exponent(rep.vals), -1000)
        shift = (spectra._weight(f) + spectra._weight(g)) * e
    mu, c = Fraction(rep.params.mu) / Fraction(4) ** e, Fraction(rep.params.c) / Fraction(16) ** e
    bracket = poisson_bracket(f, g, bracket_constraint([-mu, Fraction(0), Fraction(1)], c))
    assert polys == [f, g, bracket]
    hbar, s = rep.params.hbar, max(np.linalg.norm(operand_array(M), 2) for M in (X, Y, Z))

    def scale(poly):
        return math.sqrt(rep.n) * sum(abs(float(a)) * s ** sum(p) for p, a in poly.terms.items())

    fro = representations._fro
    expected = [orderings_symmetrized_substitution(poly, X, Y, Z) for poly in polys]
    for poly, got, want in zip(polys, values, expected):
        assert fro(got - want) <= DEGENERATE_ROUNDOFF * scale(poly)
    for F, G, B in (expected, values):     # the code's own last, for the error below
        H = (F @ G - G @ F) / (1j * hbar)
        assert fro(B) <= DEGENERATE_ROUNDOFF * scale(bracket)
        assert fro(H - B) <= DEGENERATE_ROUNDOFF * (
            2 * scale(f) * scale(g) / (math.sqrt(rep.n) * hbar) + scale(bracket))
    assert error == float(fro(H - B) / fro(B) if fro(B) else np.ldexp(fro(H - B), shift))


@settings(max_examples=150, deadline=None)
@given(commutator_reps())
def test_commutator_measure_equals_the_dense_code(drawn):
    """Within COMMUTATOR_ROUNDOFF of dense products over every ordering, on
    every operand kind: the word sums come from a recursion, which sums the
    same words in another order.  On a degenerate rep, within
    DEGENERATE_ROUNDOFF of the scale of the terms.  The dense route is
    pinned bit for bit by
    test_the_readme_convergence_errors_are_pinned_bit_for_bit."""
    rep, f, g = drawn
    mu, c = Fraction(rep.params.mu), Fraction(rep.params.c)
    formed, substitutions = [], spectra._symmetrized_substitutions

    def recorded(plan, X, Y, Z):
        values = substitutions(plan, X, Y, Z)
        formed.append((plan[0], (X, Y, Z), values))
        return values

    with mock.patch.object(spectra, "_symmetrized_substitutions", recorded):
        errors = outcome(commutator_vs_bracket, f, g, [rep], mu, c)
    if rep.n >= representations._DENSE_BELOW:     # the operands are the entries, no dense view
        assert not {"W", "phi_X"} & set(vars(rep))
    reference = outcome(dense_commutator_vs_bracket, f, g, [rep], mu, c)
    if isinstance(reference, type):
        assert reference is DegreeTooHighError and errors is DegreeTooHighError
        return
    [(n, error)], [(_, expected)] = errors, reference
    assert n == rep.n
    if rep.regime is representations.Regime.DEGENERATE:
        _assert_degenerate_measure(rep, f, g, formed, error)
        return
    assert abs(error - expected) <= COMMUTATOR_ROUNDOFF


# The errors the README's converge command prints, N = 10 and 20 and 40 on
# dense products and 80 on shift-diagonal ones, as float.hex: numpy 2.4 and
# OpenBLAS on x86-64, like M1_REPORTS below.
README_CONVERGE = [(10, "0x1.2acc969c1103fp-5"), (20, "0x1.144ffe699bb40p-7"),
                   (40, "0x1.0f2d961a14ba6p-9"), (80, "0x1.0dec15de358d4p-11")]


def test_the_readme_convergence_errors_are_pinned_bit_for_bit(capsys):
    assert main(["converge", "--f", "x^2", "--g", "y^2", "--n", "10,20,40,80",
                 "--mu", "13/10", "--c", "1"]) == 0
    errors = json.loads(capsys.readouterr().out)["errors"]
    assert [(row["n"], row["error"].hex()) for row in errors] == README_CONVERGE


@st.composite
def summed_reps(draw):
    """(rep, pair): a relabeled block loop (m = 2, 3), a sum of 2 to 4 loops
    of one length, a sum of two loops of lengths n and n + 1, or a loop plus
    a block loop (m = 2) of one theta, each of N >= _DENSE_BELOW; the sums
    in stored order or relabeled, and one entry perturbed on the pattern or
    not; and the (f, g) of a commutator measure."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["relabeled block loop", "equal loops", "unequal loops",
                                 "loop + block loop"]))
    mu = draw(st.floats(1.1, 3.0))

    def loop(n, m=1):
        spec = LoopSpec(n=n, k=1, beta=draw(st.floats(0, 2 * math.pi)),
                        phases=rng.uniform(0, 2 * math.pi, n), block_dim=m,
                        unitaries=[random_unitary(rng, m) for _ in range(n)] if m > 1 else None)
        return construct_loop_rep(spec, mu, 1.0)

    if kind == "relabeled block loop":
        m = draw(st.sampled_from([2, 3]))
        rep = loop(draw(st.integers(-(-representations._DENSE_BELOW // m), 100)), m)
    elif kind == "equal loops":
        count = draw(st.integers(2, 4))
        n = draw(st.integers(max(12, -(-representations._DENSE_BELOW // count)), 80))
        rep = direct_sum([loop(n) for _ in range(count)])
    elif kind == "unequal loops":
        n = draw(st.integers(24, 150))
        rep = direct_sum([loop(n), loop(n + 1)])
    else:
        n = draw(st.integers(16, 100))
        rep = direct_sum([loop(n), loop(n, 2)])
    vals = rep.vals.copy()
    if draw(st.booleans()):
        bump = 1e-3 * np.max(np.abs(vals)) * np.exp(1j * rng.uniform(0, 6))
        vals[rng.integers(len(vals))] += bump
    perm = rng.permutation(rep.n) if kind != "equal loops" or draw(st.booleans()) \
        else np.arange(rep.n)
    rep = Representation.from_entries(rep.n, perm[rep.rows], perm[rep.cols], vals, rep.params,
                                      rep.regime)
    return rep, draw(st.sampled_from(["x^2,y^2", "x,z", "x*y,z"]))


@settings(max_examples=40, deadline=None)
@given(summed_reps())
def test_sums_and_relabeled_block_loops_match_the_dense_code(drawn):
    """Relabeled block loops and direct sums are multiplied on their reading,
    parts whose block diagonal is W in the reading's vertex order, and give
    the dense verdict, c_estimate within 1e-12 relative, the residuals of a
    W that fails within 1e-9 relative (1e-14 absolute), and the commutator
    error within COMMUTATOR_ROUNDOFF."""
    rep, pair = drawn
    parts = [part for _, part in representations._parts(rep)]
    assert all(isinstance(part, representations._Shifts) for part in parts)
    order = rep._cyclic[0]
    assert np.array_equal(operand_array(parts), rep.W[np.ix_(order, order)])
    report, dense = verify_relations(rep), dense_verify(rep.W, rep.params)
    assert report.ok() == dense.ok()
    assert report.c_estimate == pytest.approx(dense.c_estimate, rel=1e-12)
    if not dense.ok():
        for name in ("residual_wwd", "residual_casimir", "intertwine_residual", "residual_yz",
                     "residual_zx"):
            assert getattr(report, name) == pytest.approx(getattr(dense, name), rel=1e-9,
                                                          abs=1e-14)
    f, g = (parse_poly3(text) for text in pair.split(","))
    mu, c = Fraction(rep.params.mu), Fraction(rep.params.c)
    [(_, error)] = commutator_vs_bracket(f, g, [rep], mu, c)
    [(_, expected)] = dense_commutator_vs_bracket(f, g, [rep], mu, c)
    assert abs(error - expected) <= COMMUTATOR_ROUNDOFF


def test_commutator_measure_at_large_n_is_read_without_a_dense_array():
    x, y = CommPolynomial3.x(), CommPolynomial3.y()
    x2, y2 = x * x, y * y
    reps = [construct_loop_rep(LoopSpec(n=n, k=1), 1.3, 1.0) for n in (1000, 2000, 4000)]
    errors = [e for _, e in commutator_vs_bracket(x2, y2, reps, Fraction(13, 10), Fraction(1))]
    for rep in reps:
        assert not {"W", "phi_X"} & set(vars(rep))
    # the error is O(hbar^2): each doubling of N divides it by 4
    for a, b in zip(errors, errors[1:]):
        assert a / b == pytest.approx(4, abs=0.05)


# ---------------------------------------------------------------------------
# the m = 1 operands, bit for bit
# ---------------------------------------------------------------------------

# The fields of verify_relations' reports of a phased loop of winding 5 and
# a phased string, and of verify_bt_relations' reports at (mu, nu) = (1.3, 1),
# as float.hex, and the errors of a commutator ladder, all on _Shifts with
# 1 x 1 blocks, which are multiplied elementwise: these pin their residuals
# to the last bit.  They were taken with numpy 2.4 and OpenBLAS on x86-64;
# a BLAS whose dot product sums in another order moves the Frobenius norms
# in their last bits.
M1_REPORTS = {
    ("loop", 96): ["0x1.1417d02250456p-57", "0x1.19d2db74fae55p-46", "0x1.0000000000000p+0",
                   "0x1.06aa2010f2de7p-61", "0x1.070ab7bf3769ep-56", "0x1.0e34b70d16c1ep-56"],
    ("loop", 256): ["0x1.7d46b3e5f7983p-58", "0x1.ca8273dfd19dbp-43", "0x1.0000000000000p+0",
                    "0x1.55e77be807795p-62", "0x1.0ac980602bb03p-55", "0x1.0a58fa23ceebep-55"],
    ("loop", 1024): ["0x1.055cf8ca6c6dcp-60", "0x1.415abe98bbe8fp-40", "0x1.0000000000000p+0",
                     "0x1.3680d6b4e0485p-64", "0x1.603a618193e3ep-56", "0x1.64679e1ecf2d2p-56"],
    ("string", 96): ["0x1.da42b85361fa8p-58", "0x1.395310cf04957p-44", "0x1.ffffffffffffdp-1",
                     "0x1.0bd091bee1c69p-60", "0x1.55c3373b44cfcp-54", "0x1.45fa3b637cccbp-54"],
    ("string", 256): ["0x1.9ecf197c48840p-59", "0x1.5f2122dc6c6a1p-42", "0x1.fffffffffffffp-1",
                      "0x1.43949f3c2770ep-62", "0x1.73cb73a607a74p-54", "0x1.73c6e3972c878p-54"],
    ("string", 1024): ["0x1.9fa7ea54c28acp-61", "0x1.612efc6d95312p-39", "0x1.0000000000000p+0",
                       "0x1.2be25abb28f0cp-64", "0x1.685f553781defp-54", "0x1.6a33ab8ba5b0cp-54"],
    ("bt", 96): ["0x1.ebee23eb8eddcp-50", "0x1.1b718e1478cbdp-49", "0x1.1b718e1478cbdp-49",
                 "0x1.bd6bd06c2f234p-49", "0x1.0c152382d7365p-5", "0x1.0c2da5e36128ep-5",
                 "0x1.2666666666666p+1"],
    ("bt", 256): ["0x1.844489b3d370ap-49", "0x1.16358f7dd2a28p-49", "0x1.16358f7dd2a28p-49",
                  "0x1.6be3dd2782c73p-48", "0x1.921fb54442d18p-7", "0x1.9224e047e368ep-7",
                  "0x1.2666666666666p+1"],
    ("bt", 1024): ["0x1.8409a0427083fp-48", "0x1.8489c77f949cdp-48", "0x1.8489c77f949cdp-48",
                   "0x1.7370c0a2759d0p-47", "0x1.921fb54442d18p-9", "0x1.922007f34ad0ep-9",
                   "0x1.2666666666666p+1"],
}
M1_LADDER = [(96, "0x1.76b713def1f87p-12"),
             (128, "0x1.a55b5ffb6e9c6p-13"),
             (256, "0x1.a52aa2d9b5d52p-15")]
# the same errors when each ordering was multiplied out on its own: the
# recursion sums the same words in another order
M1_LADDER_BY_ORDERINGS = [(96, "0x1.76b713def1d75p-12"),
                          (128, "0x1.a55b5ffb6e9dbp-13"),
                          (256, "0x1.a52aa2d9b5da5p-15")]


def _m1_reps(n: int) -> tuple[Representation, Representation]:
    rng = np.random.default_rng(n)
    loop = construct_loop_rep(LoopSpec(n=n, k=5, beta=0.3,
                                       phases=rng.uniform(0, 2 * math.pi, n)), 1.3, 1.0)
    string = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, 0.9, 1.0), mu=0.9,
                                             phases=rng.uniform(0, 2 * math.pi, n - 1)))
    return loop, string


@pytest.mark.parametrize("n", [96, 256, 1024])
def test_loop_string_and_bt_residuals_are_pinned_bit_for_bit(n):
    loop, string = _m1_reps(n)
    spec = berezin.BTSpec(1.3, 1.0, n)
    reports = {"loop": verify_relations(loop), "string": verify_relations(string),
               "bt": berezin.verify_bt_relations(*berezin.bt_matrices(spec), spec)}
    for kind, report in reports.items():
        assert [float(v).hex() for v in dataclasses.astuple(report)] == M1_REPORTS[kind, n]


def test_a_commutator_ladder_is_pinned_bit_for_bit():
    reps = [construct_loop_rep(LoopSpec(n=n, k=1, beta=0.3), 1.3, 1.0) for n in (96, 128, 256)]
    x, y = CommPolynomial3.x(), CommPolynomial3.y()
    errors = commutator_vs_bracket(x * x, y * y, reps, Fraction(13, 10), Fraction(1))
    assert [(n, error.hex()) for n, error in errors] == M1_LADDER
    for (n, error), (m, old) in zip(errors, M1_LADDER_BY_ORDERINGS):
        assert n == m and abs(error - float.fromhex(old)) <= COMMUTATOR_ROUNDOFF


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("pair", ["x,z", "y,z", "x^2,y^2", "x^2,z", "x*y,z"])
def test_commutator_measure_on_block_diagonals_matches_dense(n, pair):
    """A block loop of block_dim 2 (N = 2n) on its block diagonals gives the
    dense route's errors within COMMUTATOR_ROUNDOFF."""
    rng = np.random.default_rng(n)
    spec = LoopSpec(n=n, k=1, beta=0.3, block_dim=2,
                    unitaries=[random_unitary(rng, 2) for _ in range(n)])
    rep = construct_loop_rep(spec, 1.3, 1.0)
    f, g = (parse_poly3(text) for text in pair.split(","))
    [(_, operand)] = representations._parts(rep)
    assert isinstance(operand, representations._Shifts)
    [(_, blocks)] = commutator_vs_bracket(f, g, [rep], Fraction(13, 10), Fraction(1))
    with mock.patch.object(representations, "_DENSE_BELOW", math.inf):
        [(_, dense)] = commutator_vs_bracket(f, g, [rep], Fraction(13, 10), Fraction(1))
    assert abs(blocks - dense) <= COMMUTATOR_ROUNDOFF


# ---------------------------------------------------------------------------
# the entries constructor and non-finite entries
# ---------------------------------------------------------------------------

def test_from_entries_sorts_drops_zeros_and_rejects_repeats():
    params = RepParams(1.3, 1.0, math.pi / 7)
    rep = Representation.from_entries(3, [2, 0, 1, 0], [0, 2, 1, 1], [1j, 2.0, 0.0, -1.0],
                                      params, representations.Regime.TORAL)
    assert rep.rows.tolist() == [0, 0, 2] and rep.cols.tolist() == [1, 2, 0]
    assert rep.vals.tolist() == [-1.0, 2.0, 1j]
    with pytest.raises(ValueError, match="repeated"):
        Representation.from_entries(3, [1, 1], [2, 2], [1.0, 1.0], params,
                                    representations.Regime.TORAL)
    with pytest.raises(ValueError, match="outside"):
        Representation.from_entries(3, [3], [0], [1.0], params, representations.Regime.TORAL)
    with pytest.raises(ValueError):
        rep.vals[0] = 5.0


@pytest.mark.parametrize("rows, cols, vals, match", [
    ([0.5, 1.7], [1, 2], [1.0, 2.0], "must be integers"),       # not truncated to 0, 1
    ([0, 1], [1.0, 2.0], [1.0, 2.0], "must be integers"),
    ([[0, 1]], [[1, 2]], [1.0, 2.0], "1-D"),
    ([[0], [1]], [[1], [2]], [[1.0], [2.0]], "1-D"),
    ([0, 1], [1, 2], [1.0], "one length"),
    ([0, 1, 2], [1, 2], [1.0, 2.0, 3.0], "one length"),
])
def test_from_entries_rejects_malformed_positions(rows, cols, vals, match):
    params = RepParams(1.3, 1.0, math.pi / 7)
    with pytest.raises(ValueError, match=match):
        Representation.from_entries(3, rows, cols, vals, params, representations.Regime.TORAL)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_non_finite_entries_are_rejected(bad):
    rep = construct_loop_rep(LoopSpec(n=7), 1.3, 1.0)
    W = rep.W.copy()
    W[3, 1] = bad
    with pytest.raises(NonFiniteMatrixError):
        Representation(W, rep.params, rep.regime)
    with pytest.raises(NonFiniteMatrixError):
        Representation.from_entries(7, [0], [1], [bad], rep.params, rep.regime)
    assert issubclass(NonFiniteMatrixError, ValueError)
    assert spectra.NonFiniteMatrixError is NonFiniteMatrixError


# ---------------------------------------------------------------------------
# the builders' trusted store against from_entries
# ---------------------------------------------------------------------------

def _both_doors(build) -> list[tuple[Representation, Representation]]:
    """(built, checked) for each Representation ``build()`` stores through
    Representation._from_trusted: built is what it stored, checked what
    from_entries stores from copies of the same triplets."""
    handed, trusted = [], Representation._from_trusted.__func__

    def spy(cls, n, rows, cols, vals, params, regime):
        handed.append((n, rows.copy(), cols.copy(), vals.copy(), params, regime))
        return trusted(cls, n, rows, cols, vals, params, regime)

    with mock.patch.object(Representation, "_from_trusted", classmethod(spy)):
        built = build()
    built = built if isinstance(built, list) else [built]
    assert len(built) == len(handed)
    return [(rep, Representation.from_entries(*triplets)) for rep, triplets in zip(built, handed)]


def _assert_stored_alike(built: Representation, checked: Representation) -> None:
    assert (built.n, built.params, built.regime) == (checked.n, checked.params, checked.regime)
    for a, b in zip((built.rows, built.cols, built.vals), (checked.rows, checked.cols,
                                                          checked.vals)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert not a.flags.writeable and not b.flags.writeable
        assert a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


def _builds():
    """Every library builder of triplets, each as (id, build)."""
    rng = np.random.default_rng(11)
    builds = []
    for m in (1, 2, 3):
        n = 7 if m > 1 else 30
        phased = LoopSpec(n=n, k=1, beta=0.3, block_dim=m, phases=rng.uniform(0, 7, n))
        haar = LoopSpec(n=n, k=1, beta=0.3, block_dim=m,
                        unitaries=[random_unitary(rng, m) for _ in range(n)])
        # permutation unitaries: the zeros off each permutation are dropped
        permutations = [np.exp(1j * rng.uniform(0, 7)) * np.eye(m)[rng.permutation(m)]
                        for _ in range(n)]
        permuted = LoopSpec(n=n, k=1, beta=0.3, block_dim=m, unitaries=permutations)
        for name, spec in (("phases", phased), ("haar", haar), ("permutations", permuted)):
            builds.append((f"loop m={m} {name}", functools.partial(construct_loop_rep, spec,
                                                                    1.3, 1.0)))
    builds.append(("loop m=2 plain", functools.partial(
        construct_loop_rep, LoopSpec(n=9, k=2, beta=0.1, block_dim=2), 1.3, 1.0)))
    for n in (30, 31):
        spec = StringSpec(n=n, theta=solve_string_theta(n, 0.9, 1.0), mu=0.9,
                          phases=rng.uniform(0, 7, n - 1))
        builds.append((f"string n={n}", functools.partial(construct_string_rep, spec)))
    block = construct_loop_rep(LoopSpec(n=64, k=1, beta=0.3, block_dim=2,
                                        unitaries=[random_unitary(rng, 2) for _ in range(64)]),
                               1.3, 1.0)
    builds.append(("canonicalize_loop", functools.partial(canonicalize_loop, block)))
    pair = [construct_loop_rep(LoopSpec(n=40, k=1, beta=0.3), 1.3, 1.0),
            construct_string_rep(StringSpec(n=31, theta=solve_string_theta(31, 0.9, 1.0),
                                            mu=0.9))]
    builds.append(("direct_sum", functools.partial(direct_sum, pair)))
    builds.append(("decompose", functools.partial(representations.decompose, direct_sum(pair))))
    builds.append(("bt_w_matrix", functools.partial(berezin.bt_w_matrix,
                                                    berezin.BTSpec(1.0, 1.0, 31))))
    return builds


@pytest.mark.parametrize("build", [pytest.param(build, id=name) for name, build in _builds()])
def test_builders_store_what_from_entries_stores_bit_for_bit(build):
    pairs = _both_doors(build)
    assert pairs
    for built, checked in pairs:
        _assert_stored_alike(built, checked)


def test_the_trusted_store_drops_exact_zeros():
    """A block loop of plain blocks hands its zero off-diagonal entries in,
    and a Berezin-Toeplitz W at mu = nu, odd N, its zero weight: both are
    dropped, as from_entries drops them."""
    [(plain, _)] = _both_doors(functools.partial(
        construct_loop_rep, LoopSpec(n=9, k=2, beta=0.1, block_dim=2), 1.3, 1.0))
    assert len(plain.vals) == 18 and plain.vals.all()
    spec = berezin.BTSpec(1.0, 1.0, 31)
    assert np.count_nonzero(berezin._cycle(spec) == 0) == 1
    [(bt, _)] = _both_doors(functools.partial(berezin.bt_w_matrix, spec))
    assert len(bt.vals) == 30 and bt.vals.all()


@pytest.mark.parametrize("kind", ["loop", "string"])
def test_a_nan_phase_raises_through_the_constructor(kind):
    with pytest.raises(NonFiniteMatrixError):
        if kind == "loop":
            construct_loop_rep(LoopSpec(n=7, phases=[0.0] * 6 + [math.nan]), 1.3, 1.0)
        else:
            construct_string_rep(StringSpec(n=7, theta=solve_string_theta(7, 0.9, 1.0), mu=0.9,
                                            phases=[math.nan] + [0.0] * 5))


# ---------------------------------------------------------------------------
# the three-diagonal test of dense operands
# ---------------------------------------------------------------------------

def _on_three_diagonals(M: np.ndarray) -> bool:
    """The reference verdict: every nonzero of M on the cyclic offsets -1, 0, 1."""
    n = len(M)
    at = np.arange(n)
    return np.count_nonzero(M) == sum(np.count_nonzero(M[at, (at + a) % n]) for a in (-1, 0, 1))


@pytest.mark.parametrize("off_band", [None, 1.0, 1j, -1e-300j, -0.0, complex(-0.0, -0.0)])
@pytest.mark.parametrize("layout", ["C", "F", "float64"])
def test_three_diagonal_verdict_counts_nonzero_parts(off_band, layout):
    """_operands reads dense X, Y, Z on their three cyclic diagonals
    exactly when np.count_nonzero of the entries says every nonzero lies on
    them: one off-band entry that is real or purely imaginary is a nonzero,
    a -0.0 is not, whatever the memory order or dtype."""
    N = 128
    X, Y, Z = (M.copy() for M in berezin.bt_matrices(berezin.BTSpec(1.3, 1.0, N)))
    if layout == "float64":     # real X and Z, and Z again for Y
        X, Y, Z = X.real.copy(), Z.real.copy(), Z.real.copy()
    if off_band is not None:
        X[3, N // 2] = off_band.real if layout == "float64" else off_band
    if layout == "F":
        X, Y, Z = (np.asfortranarray(M) for M in (X, Y, Z))
    expected = all(_on_three_diagonals(M) for M in (X, Y, Z))
    assert expected == (X[3, N // 2] == 0)
    _, *operands = representations._operands(X, Y, Z)
    assert isinstance(operands[0], representations._Shifts) == expected
    if expected:
        for M, shifted in zip((X, Y, Z), operands):
            assert np.array_equal(_dense_of(shifted), M)
    else:
        assert all(operand is M for operand, M in zip(operands, (X, Y, Z)))


def _dense_of(shifts) -> np.ndarray:
    """The N x N array a scalar-block _Shifts stands for."""
    n = shifts.k
    at = np.arange(n)
    M = np.zeros((n, n), dtype=complex)
    for a, x in shifts.terms.items():
        M[at, (at + a) % n] = x
    return M


# ---------------------------------------------------------------------------
# verification at extreme scales
# ---------------------------------------------------------------------------

def _scaled(rep: Representation, power: int) -> Representation:
    """W 2^power, mu 4^power, c 16^power: the same representation, exactly."""
    p = rep.params
    return Representation.from_entries(
        rep.n, rep.rows, rep.cols, rep.vals * 2.0 ** power,
        RepParams(math.ldexp(p.mu, 2 * power), math.ldexp(p.c, 4 * power), p.theta), rep.regime)


def _perturbed(rep: Representation) -> Representation:
    W = rep.W.copy()
    W[0, 1 % rep.n] *= 1 + 1e-3
    return Representation(W, rep.params, rep.regime)


@pytest.mark.parametrize("n", [30, 150])
@pytest.mark.parametrize("kind", ["loop", "string"])
@pytest.mark.parametrize("power", [-250, -125, 125, 250])
def test_verify_residuals_are_exact_at_every_binary_scale(kind, n, power):
    if kind == "loop":
        rep = construct_loop_rep(LoopSpec(n=n, k=1, beta=0.4,
                                          phases=np.linspace(0, 2, n)), 1.3, 1.0)
    else:
        rep = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, 0.8, 1.0),
                                              mu=0.8, phases=np.linspace(0, 2, n - 1)))
    for base, ok in ((rep, True), (_perturbed(rep), False)):
        report, far = verify_relations(base), verify_relations(_scaled(base, power))
        assert report.ok() is ok and far.ok() is ok
        for name in ("residual_wwd", "residual_casimir", "intertwine_residual",
                     "residual_yz", "residual_zx"):
            assert getattr(far, name) == getattr(report, name)
        assert far.c_estimate == math.ldexp(report.c_estimate, 4 * power)


def test_verify_at_decimal_scales_the_double_range_cannot_square():
    rep = construct_loop_rep(LoopSpec(n=30), 1.3e150, 1e300)     # W ~ 1e75
    report = verify_relations(rep)
    assert report.ok() and report.c_estimate == pytest.approx(1e300, rel=1e-12)
    small = construct_loop_rep(LoopSpec(n=30), 1.3e-150, 1e-300)     # W ~ 1e-75
    assert verify_relations(small).ok()
    bumped = _perturbed(small)
    assert not verify_relations(bumped).ok()
    assert verify_relations(bumped).residual_wwd > 1e-6
