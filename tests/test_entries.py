"""Representations stored as their nonzero entries, checked against the dense
code they replace.

The ``dense_*`` functions of reference.py are the dense-W implementations
that the entries-based library code was written from, kept verbatim in
substance as the reference: every report, graph, index and eigenvalue of the
library must equal theirs bit for bit.  One stated exception is the diagonal data
(d, d~): a row or column of W with three or more entries is summed in another
order, which moves d or d~ by a few ulp and the block-loop canonicalization
built on them by at most DIAGONAL_ROUNDOFF relative to max|W|.  The
other is the commutator measure: bit for bit on dense operands, within
COMMUTATOR_ROUNDOFF on CSR or shift-diagonal operands, whose products sum in
another order.
"""

import cmath
import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from ncsurface import representations, spectra
from ncsurface.representations import (LoopSpec, NonFiniteMatrixError, NotSingleLoopError,
                                       Representation, RepParams, StringSpec,
                                       canonicalize_loop, construct_degenerate_rep,
                                       construct_loop_rep, construct_string_rep,
                                       direct_sum, loop_weights, matrix_graph, rep_index,
                                       reps_equivalent, solve_string_theta, string_weights,
                                       verify_relations)
from ncsurface.spectra import (MAX_SUBSTITUTION_DEGREE, DegreeTooHighError,
                               commutator_vs_bracket, position_spectrum)
from ncsurface.surface import CommPolynomial3, bracket_constraint, poisson_bracket
from reference import (dense_canonical_loops, dense_casimir, dense_eigenvalues, dense_equivalent,
                       dense_graph, dense_rep_index, dense_verify)

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


def dense_symmetrized_substitution(poly: CommPolynomial3, X: np.ndarray, Y: np.ndarray,
                                   Z: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    total = np.zeros((n, n), dtype=complex)
    mats = {"x": X, "y": Y, "z": Z}
    for (a, b, c), coeff in poly.terms.items():
        degree = a + b + c
        if degree > MAX_SUBSTITUTION_DEGREE:
            raise DegreeTooHighError(f"monomial degree {degree}")
        letters = "x" * a + "y" * b + "z" * c
        orderings = sorted(set(itertools.permutations(letters)))
        acc = np.zeros((n, n), dtype=complex)
        for order in orderings:
            acc += functools.reduce(np.matmul, [mats[ch] for ch in order]) if order else np.eye(n)
        total += (float(coeff) / len(orderings)) * acc
    return total


def dense_commutator_vs_bracket(f, g, reps, mu: Fraction, c: Fraction) -> list[tuple[int, float]]:
    bracket = poisson_bracket(f, g, bracket_constraint([-mu, Fraction(0), Fraction(1)], c))
    out = []
    for rep in reps:
        W, hbar = rep.W, rep.params.hbar
        X, Y = (W + W.conj().T) / 2, (W - W.conj().T) / 2j
        Z = (X @ Y - Y @ X) / (1j * hbar)
        F = dense_symmetrized_substitution(f, X, Y, Z)
        G = dense_symmetrized_substitution(g, X, Y, Z)
        H = (F @ G - G @ F) / (1j * hbar)
        B = dense_symmetrized_substitution(bracket, X, Y, Z)
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
    big = draw(st.booleans())        # above the CSR crossover of verify_relations

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

    if kind == "loop":
        rep, W = loop(draw(st.integers(100, 200) if big else st.integers(5, 40)))
    elif kind == "string":
        rep, W = string(draw(st.integers(100, 200) if big else st.integers(4, 40)))
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

    # the reference mirrors the CSR products; a loop or string at N >= 96
    # would run on its walk order (_Shifts), which test_representations
    # compares with dense products
    with mock.patch.object(representations, "_shift_operands", lambda matrices, n: None):
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
# the commutator measure on CSR operands
# ---------------------------------------------------------------------------

MONOMIALS = [CommPolynomial3({powers: Fraction(1)}) for powers in
             [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2),
              (1, 1, 0), (1, 0, 1), (0, 1, 1)]]
COMMUTATOR_ROUNDOFF = 1e-13


@st.composite
def commutator_reps(draw):
    """A loop with coprime k, a string, a block loop (m = 2) or a Haar
    degenerate rep, below N = 96 or at N >= 96, and (f, g) monomials of
    degree <= 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["loop", "string", "block loop", "degenerate"]))
    big = draw(st.booleans())
    if kind in ("loop", "block loop"):
        m = 1 if kind == "loop" else 2
        n = draw(st.integers(96 // m, 160 // m) if big else st.integers(5, 40 // m))
        k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1 and n > 4 * k]))
        spec = LoopSpec(n=n, k=k, beta=draw(st.floats(0, 2 * math.pi)),
                        phases=rng.uniform(0, 2 * math.pi, n), block_dim=m,
                        unitaries=[random_unitary(rng, m) for _ in range(n)] if m > 1 else None)
        rep = construct_loop_rep(spec, (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta),
                                 1.0)
    elif kind == "string":
        n = draw(st.integers(96, 160) if big else st.integers(4, 40))
        mu = draw(st.floats(0.3, 0.95))
        rep = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, mu, 1.0), mu=mu,
                                              phases=rng.uniform(0, 2 * math.pi, n - 1)))
    else:
        rep = construct_degenerate_rep(1.7, random_unitary(
            rng, draw(st.integers(96, 128) if big else st.integers(1, 12))))
    f, g = draw(st.sampled_from(MONOMIALS)), draw(st.sampled_from(MONOMIALS))
    return rep, f, g


@settings(max_examples=150, deadline=None)
@given(commutator_reps())
def test_commutator_measure_equals_the_dense_code(drawn):
    rep, f, g = drawn
    mu, c = Fraction(rep.params.mu), Fraction(rep.params.c)
    errors = outcome(commutator_vs_bracket, f, g, [rep], mu, c)
    sparse = rep.n >= 96 and rep.regime is not representations.Regime.DEGENERATE
    if sparse:      # the CSR operands are the entries, with no dense view built
        assert not {"W", "phi_X"} & set(vars(rep))
    reference = outcome(dense_commutator_vs_bracket, f, g, [rep], mu, c)
    if isinstance(reference, type):
        assert reference is DegreeTooHighError and errors is DegreeTooHighError
        return
    [(n, error)], [(_, expected)] = errors, reference
    assert n == rep.n
    if sparse:
        assert abs(error - expected) <= COMMUTATOR_ROUNDOFF
    else:       # the dense operands: the same products, bit for bit
        assert error.hex() == expected.hex()


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
