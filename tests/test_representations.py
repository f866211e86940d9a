import cmath
import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ncsurface import representations
from ncsurface.free_algebra import (AlgebraParams, NCPolynomial, build_torus_system,
                                    casimir_polynomial)
from ncsurface.representations import (EllipsePoint, LoopSpec, MatrixGraph, MixedKindsError,
                                       NegativeMuError, NonFiniteMatrixError,
                                       NonPositiveWeightError,
                                       NoRealCrossingError, NoRootError,
                                       NotBlockCyclicError, NotSingleLoopError,
                                       Regime, RepIndex, Representation, RepParams,
                                       StringSpec, VerificationReport,
                                       WindowViolationError,
                                       axis_crossings, canonicalize_loop,
                                       classify_regime, construct_degenerate_rep,
                                       construct_loop_rep, construct_string_rep,
                                       decompose, direct_sum,
                                       edge_consistency_residual, ellipse_map_s,
                                       ellipse_map_s_inverse, ellipse_point,
                                       ellipse_residual, f_beta, f_beta_residual,
                                       loop_weights, matrix_graph, rep_index,
                                       reps_equivalent, solve_string_theta,
                                       string_weights, verify_relations)
from ncsurface.spectra import position_spectrum
from reference import (bisection_string_theta, casimir_by_mean, chain_kind,
                       construct_loop_rep_by_blocks,
                       construct_string_rep_by_two_sines, csgraph_components,
                       csgraph_decompose, dense_canonicalize_loop, dense_verify_relations,
                       matching_class_order, matrix_value, operand_array, reachability,
                       reading_or_matching_class_order, rep_index_by_edge_mask,
                       reps_equivalent_by_edge_mask, reps_equivalent_reference)


def random_unitary(rng, m):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# the ellipse map s
# ---------------------------------------------------------------------------

def test_s_fixed_point_and_example():
    assert ellipse_map_s(EllipsePoint(2.0, 0.0), 1.0, math.pi / 6) == EllipsePoint(3.0, 2.0)
    mu = 0.7
    fixed = ellipse_map_s(EllipsePoint(mu, mu), mu, 0.3)
    assert abs(fixed.d - mu) < 1e-15 and abs(fixed.d_tilde - mu) < 1e-15


def test_s_is_a_bijection():
    rng = random.Random(1)
    for _ in range(20):
        p = EllipsePoint(rng.uniform(-3, 3), rng.uniform(-3, 3))
        mu, theta = rng.uniform(-1, 2), rng.uniform(0.05, 0.7)
        q = ellipse_map_s_inverse(ellipse_map_s(p, mu, theta), mu, theta)
        assert abs(q.d - p.d) < 1e-12 and abs(q.d_tilde - p.d_tilde) < 1e-12


def test_s_preserves_quadratic_form():
    rng = random.Random(2)
    mu, c, theta = 1.2, 1.7, 0.29
    for _ in range(20):
        p = ellipse_point(rng.uniform(-4, 4), mu, c, theta)
        q = ellipse_map_s(p, mu, theta)
        assert ellipse_residual(p, mu, c, theta) < 1e-12
        assert ellipse_residual(q, mu, c, theta) < 1e-12


def test_ellipse_point_chain_property():
    mu, c, theta = 0.7, 1.7, 0.31
    rng = random.Random(3)
    for _ in range(10):
        b0 = rng.uniform(-5, 5)
        a = ellipse_map_s(ellipse_point(b0, mu, c, theta), mu, theta)
        b = ellipse_point(b0 + 2 * theta, mu, c, theta)
        assert abs(a.d - b.d) < 1e-12 and abs(a.d_tilde - b.d_tilde) < 1e-12


def test_ellipse_point_symmetric_value():
    pt = ellipse_point(-0.4, 0.0, 1.0, 0.4)   # beta0 = -theta
    assert abs(pt.d - 1.0) < 1e-14 and abs(pt.d_tilde - 1.0) < 1e-14


def test_s_power_identity_iff_root_of_unity():
    mu, c = 0.7, 1.7
    n, k = 7, 1
    theta = math.pi * k / n
    p = ellipse_point(0.33, mu, c, theta)
    q = p
    for _ in range(n):
        q = ellipse_map_s(q, mu, theta)
    assert abs(q.d - p.d) < 1e-10 and abs(q.d_tilde - p.d_tilde) < 1e-10
    # an angle that is not a rational multiple of pi does not return
    theta = 0.4
    q = ellipse_point(0.33, mu, c, theta)
    for _ in range(7):
        q = ellipse_map_s(q, mu, theta)
    base = ellipse_point(0.33, mu, c, theta)
    assert abs(q.d - base.d) + abs(q.d_tilde - base.d_tilde) > 1e-3


# ---------------------------------------------------------------------------
# axis crossings and regimes
# ---------------------------------------------------------------------------

def test_axis_crossings_mu_zero():
    theta = 0.31
    am, ap = axis_crossings(0.0, 1.0, theta)
    assert abs(ap - 2 * math.sin(theta)) < 1e-15
    assert abs(am + 2 * math.sin(theta)) < 1e-15


def test_axis_crossing_final_point():
    mu, c, theta = 0.8, 1.3, 0.27
    am, ap = axis_crossings(mu, c, theta)
    image = ellipse_map_s(EllipsePoint(0.0, ap), mu, theta)
    assert abs(image.d - am) < 1e-13 and abs(image.d_tilde) < 1e-13


def test_axis_crossings_toral_regime_raises():
    with pytest.raises(NoRealCrossingError):
        axis_crossings(1.3, 1.0, math.pi / 30)


def test_classify_regime_table():
    theta = math.pi / 30
    assert classify_regime(0.9, 1.0, theta) is Regime.SPHERICAL
    assert classify_regime(1.3, 1.0, theta) is Regime.TORAL
    assert classify_regime(-2.0, 1.0, theta) is Regime.INVALID
    assert classify_regime(0.5, 0.0, theta) is Regime.DEGENERATE
    # boundaries as printed: <= on the right ends
    assert classify_regime(1.0, 1.0, theta) is Regime.SPHERICAL
    assert classify_regime(1 / math.cos(theta), 1.0, theta) is Regime.CRITICAL_TORAL
    assert classify_regime(1 / math.cos(theta) + 1e-9, 1.0, theta) is Regime.TORAL
    # mu = -sqrt(c) hosts the trivial 1-dim string, not an invalid point
    assert classify_regime(-1.0, 1.0, theta) is Regime.SPHERICAL


# ---------------------------------------------------------------------------
# loop representations
# ---------------------------------------------------------------------------

def test_loop_weight_value():
    w = loop_weights(5, 1, 0.0, 1.3, 1.0)
    assert abs(w[0] - 2.53607) < 1e-5


def test_loop_rep_verifies():
    for mu in (1.1, 1.3):
        rep = construct_loop_rep(LoopSpec(n=30, k=1), mu, 1.0)
        report = verify_relations(rep)
        assert report.ok(1e-10)
        assert abs(report.c_estimate - 1.0) < 1e-10
        assert report.residual_yz < 1e-10 and report.residual_zx < 1e-10


def phi_y_z(rep):
    """phi(Y) = (W - W^dagger)/2i and phi(Z) = [phi(X), phi(Y)]/(i hbar) from rep.W."""
    Y = (rep.W - rep.W.conj().T) / 2j
    return Y, representations._phi_z(rep.phi_X, Y, rep.params.hbar)


def test_loop_rep_hermitian_generators():
    rep = construct_loop_rep(LoopSpec(n=12, k=1, beta=0.4), 1.5, 1.0)
    for H in (rep.phi_X, *phi_y_z(rep)):
        assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_loop_requires_positive_weights():
    with pytest.raises(NonPositiveWeightError):
        construct_loop_rep(LoopSpec(n=30, k=1), 0.9, 1.0)


def _first_non_positive(weights, first):
    return next((l, float(w)) for l, w in enumerate(weights, start=first) if w <= 0)


@pytest.mark.parametrize("mu", [0.3, 0.9, 1.0])
def test_a_non_positive_weight_names_the_first_bad_l(mu):
    with pytest.raises(NonPositiveWeightError) as caught:
        construct_loop_rep(LoopSpec(n=30, k=1, beta=0.4), mu, 1.0)
    expected = _first_non_positive(loop_weights(30, 1, 0.4, mu, 1.0), 0)
    assert (caught.value.index, caught.value.value) == expected
    # a string's weights are e~_1 .. e~_n-1
    weights = np.array([0.5, 0.0, -1.0, 2.0])
    with pytest.raises(NonPositiveWeightError) as caught:
        representations._check_weights(weights, 1)
    assert (caught.value.index, caught.value.value) == _first_non_positive(weights, 1) == (2, 0.0)


def test_phased_w_is_built_bit_for_bit_as_by_cmath_exp(monkeypatch):
    """The phase factors are np.exp(1j a), bytes equal to cmath.exp(1j a)'s,
    so W is unchanged to the last bit, signed zeros included."""
    rng = np.random.default_rng(11)
    phases = np.concatenate([rng.uniform(-50, 50, 300), [0.0, -0.0, math.pi, -math.pi, 1e-300]])
    n = len(phases)

    def build():
        return (construct_loop_rep(LoopSpec(n=n, k=3, beta=0.2, phases=phases), 1.3, 1.0),
                construct_string_rep(StringSpec(n=n + 1, theta=solve_string_theta(n + 1, 0.9, 1.0),
                                                mu=0.9, phases=phases)),
                construct_loop_rep(LoopSpec(n=n, k=1, phases=list(phases), block_dim=2), 1.3, 1.0))

    got = build()
    monkeypatch.setattr(representations, "_phase_factors", lambda phases: np.array(
        [cmath.exp(1j * a) for a in phases], dtype=complex))
    for rep, reference in zip(got, build()):
        assert rep.vals.tobytes() == reference.vals.tobytes()
        assert rep.rows.tobytes() == reference.rows.tobytes()


def _same_bytes(built: Representation, reference: Representation) -> bool:
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in ((built.rows, reference.rows), (built.cols, reference.cols),
                            (built.vals, reference.vals)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_default_phases_build_what_zero_phases_build_bit_for_bit(m):
    """A spec without phases reads as a list of n zeros and stores the bytes
    that an array of zeros, whose factors go through np.exp, gives: exp(0j)
    is exactly 1 + 0j.  So does a list of -0.0, as np.exp gives it."""
    for n, k, beta, mu in ((5, 1, 0.0, 1.3), (96, 5, 0.3, 1.3), (257, 2, 1.1, 2.0)):
        spec = LoopSpec(n=n, k=k, beta=beta, block_dim=m)
        assert spec.phases == [0.0] * n
        built = construct_loop_rep(spec, mu, 1.0)
        for zero in (0.0, -0.0):
            listed = LoopSpec(n=n, k=k, beta=beta, block_dim=m, phases=[zero] * n)
            by_exp = LoopSpec(n=n, k=k, beta=beta, block_dim=m, phases=np.full(n, zero))
            assert _same_bytes(construct_loop_rep(listed, mu, 1.0), built)
            assert _same_bytes(construct_loop_rep(by_exp, mu, 1.0), built)
    for n in (5, 30, 401):
        theta = solve_string_theta(n, 0.9, 1.0)
        spec = StringSpec(n=n, theta=theta, mu=0.9)
        assert spec.phases == [0.0] * (n - 1)
        built = construct_string_rep(spec)
        for zero in (0.0, -0.0):
            by_exp = StringSpec(n=n, theta=theta, mu=0.9, phases=np.full(n - 1, zero))
            assert _same_bytes(construct_string_rep(by_exp), built)


def test_default_phases_copy_compare_and_change_as_a_list():
    """The default phases are a plain list: a spec made without them equals
    one given [0.0] * n, survives pickle, deepcopy and dataclasses.asdict,
    and a phase set in place afterwards is built, not skipped."""
    loop = LoopSpec(n=7, k=1, beta=0.2)
    string = StringSpec(n=6, theta=solve_string_theta(6, 0.9, 1.0), mu=0.9)
    assert loop == LoopSpec(n=7, k=1, beta=0.2, phases=[0.0] * 7)
    assert string == StringSpec(n=6, theta=string.theta, mu=0.9, phases=[0.0] * 5)
    for spec in (loop, string):
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec),
                       type(spec)(**dataclasses.asdict(spec))):
            assert copied == spec and type(copied.phases) is list
    loop.phases[3] = 0.5
    rep = construct_loop_rep(loop, 1.3, 1.0)
    phased = construct_loop_rep(LoopSpec(n=7, k=1, beta=0.2, phases=np.eye(7)[3] * 0.5), 1.3, 1.0)
    assert _same_bytes(rep, phased)
    assert not _same_bytes(rep, construct_loop_rep(LoopSpec(n=7, k=1, beta=0.2), 1.3, 1.0))
    with pytest.raises(NonFiniteMatrixError):       # None converts to NaN, as before
        construct_loop_rep(LoopSpec(n=7, k=1, phases=[None] * 7), 1.3, 1.0)


def test_loop_spec_validation():
    with pytest.raises(ValueError):
        LoopSpec(n=4, k=1)
    with pytest.raises(ValueError):
        LoopSpec(n=10, k=2)       # gcd != 1
    with pytest.raises(ValueError):
        LoopSpec(n=9, k=4)        # theta >= pi/4
    with pytest.raises(ValueError):
        LoopSpec(n=7, k=1, phases=[0.0] * 3)


def test_critical_toral_loop_odd_dimension():
    # theta = pi/N, N odd, 1 < mu/sqrt(c) <= 1/cos(theta): all weights positive
    n = 7
    mu = 1.05
    assert classify_regime(mu, 1.0, math.pi / n) is Regime.CRITICAL_TORAL
    rep = construct_loop_rep(LoopSpec(n=n, k=1), mu, 1.0)
    assert rep.regime is Regime.CRITICAL_TORAL
    assert verify_relations(rep).ok(1e-10)


def test_loop_edge_consistency_and_qn():
    rep = construct_loop_rep(LoopSpec(n=9, k=2, beta=0.3), 1.8, 1.0)
    assert edge_consistency_residual(rep) < 1e-10
    q = rep.params.q
    assert abs(q ** 9 - 1) < 1e-12


def test_loop_index_and_matrix_power():
    rep = construct_loop_rep(LoopSpec(n=5, k=1), 1.3, 1.0)
    z = rep_index(rep).z
    expected = math.sqrt(float(np.prod(loop_weights(5, 1, 0.0, 1.3, 1.0))))
    assert abs(z - expected) < 1e-12
    power = np.linalg.matrix_power(rep.W, 5)
    assert np.max(np.abs(power - z * np.eye(5))) < 1e-12


def test_loop_index_phases():
    # all phases zero: real positive; phases summing to pi: real negative
    rep = construct_loop_rep(LoopSpec(n=6, k=1), 1.4, 1.0)
    z = rep_index(rep).z
    assert z.imag == pytest.approx(0.0, abs=1e-12) and z.real > 0
    phases = [math.pi / 6] * 6
    rep2 = construct_loop_rep(LoopSpec(n=6, k=1, phases=phases), 1.4, 1.0)
    z2 = rep_index(rep2).z
    assert z2.imag == pytest.approx(0.0, abs=1e-10) and z2.real < 0


def test_rep_index_rejects_strings():
    s = construct_string_rep(StringSpec(n=4, theta=solve_string_theta(4, 0.5, 1.0), mu=0.5))
    with pytest.raises(NotSingleLoopError):
        rep_index(s)


@st.composite
def loop_specs(draw, n_max=60):
    """A single loop with random k, beta and phases, and a toral mu at c = 1."""
    n = draw(st.integers(5, n_max))
    k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1 and n > 4 * k]))
    angle = st.floats(0, 2 * math.pi)
    spec = LoopSpec(n=n, k=k, beta=draw(angle), phases=draw(st.lists(angle, min_size=n,
                                                                      max_size=n)))
    mu = (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta)
    return spec, mu


@given(loop_specs())
def test_rep_index_against_matrix_power(drawn):
    spec, mu = drawn
    rep = construct_loop_rep(spec, mu, 1.0)
    index = rep_index(rep)
    power = np.linalg.matrix_power(rep.W, rep.n)
    assert np.max(np.abs(power - index.z * np.eye(rep.n))) <= 1e-12 * abs(index.z)
    assert index.log_modulus == pytest.approx(math.log(abs(power[0, 0])), abs=1e-12)


def _triplets(rep):
    return rep.n, rep.rows.tobytes(), rep.cols.tobytes(), rep.vals.tobytes()


def _outcome(call, *args):
    """repr of call(*args), or its exception's type and message."""
    try:
        return repr(call(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def loop_builds(draw):
    """A loop at any n, k, beta, phases (drawn, all zero, or the default),
    mu and c, at block_dim 1..3 with or without unitaries, and mu down into
    the range where a weight turns negative."""
    n = draw(st.integers(5, 300))
    k = draw(st.sampled_from([k for k in range(1, min(n, 40)) if math.gcd(k, n) == 1
                              and n > 4 * k]))
    m = draw(st.sampled_from([1, 1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    phases = draw(st.sampled_from([None, [0.0] * n, list(rng.uniform(-20, 20, n))]))
    c = draw(st.sampled_from([1.0, 1e-8, 0.37, 1e6]))
    # mu / sqrt(c) above 1/cos(theta) keeps every weight positive; below, some go negative
    ratio = draw(st.floats(0.9, 4.0)) / math.cos(math.pi * k / n)
    unitaries = None
    if m > 1 and draw(st.booleans()):
        unitaries = [random_unitary(rng, m) for _ in range(n)]
    spec = LoopSpec(n=n, k=k, beta=draw(st.floats(-20, 20)), phases=phases, block_dim=m,
                    unitaries=unitaries)
    return spec, ratio * math.sqrt(c), c


@settings(max_examples=150, deadline=None)
@given(loop_builds(), st.sampled_from([None, 1e-13, 1e-11, 1e-6]))
def test_builds_index_and_equivalence_match_their_references_byte_for_byte(drawn, faint):
    """Every build's rows, cols and vals equal construct_loop_rep_by_blocks'
    (one path at every block_dim, in reference.py), and at block_dim 1 those
    of the same phases given as 1 x 1 unitaries; rep_index's fields and
    reps_equivalent's verdicts equal those of the edge-mask references, on
    the loop itself and with a faint entry off its cycle (relative to
    max|W|) that the graph drops."""
    spec, mu, c = drawn
    built = _outcome(construct_loop_rep, spec, mu, c)
    assert built == _outcome(construct_loop_rep_by_blocks, spec, mu, c)
    if built.startswith("NonPositiveWeightError"):
        return
    rep = construct_loop_rep(spec, mu, c)
    assert _triplets(rep) == _triplets(construct_loop_rep_by_blocks(spec, mu, c))
    if spec.block_dim == 1 and spec.unitaries is None:
        as_blocks = dataclasses.replace(spec, phases=None, unitaries=[
            np.array([[cmath.exp(1j * a)]]) for a in spec.phases])
        assert _triplets(construct_loop_rep(as_blocks, mu, c)) == _triplets(rep)
    if faint is not None:
        n = rep.n
        off = (int(rep.rows[0]), int(rep.cols[0]) + n // 2) if n > 2 else (0, 0)
        entries = {(int(i), int(j)): v for i, j, v in zip(rep.rows, rep.cols, rep.vals)}
        entries.setdefault((off[0], off[1] % n), faint * float(np.abs(rep.vals).max()))
        rows, cols = np.array(sorted(entries)).T
        rep = Representation.from_entries(n, rows, cols, [entries[e] for e in zip(rows, cols)],
                                          rep.params, rep.regime)
    assert _outcome(rep_index, rep) == _outcome(rep_index_by_edge_mask, rep)
    assert representations._casimir(rep) == casimir_by_mean(rep)
    other = construct_loop_rep(dataclasses.replace(spec, phases=None), mu, c)
    for b, tol in ((rep, 1e-10), (other, 1e-10), (other, 10.0)):
        assert _outcome(reps_equivalent, rep, b, tol) == \
            _outcome(reps_equivalent_by_edge_mask, rep, b, tol)


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 400), st.floats(0.05, 0.95), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_string_builds_and_verdicts_match_their_references_byte_for_byte(n, ratio, negative,
                                                                       seed):
    """A string's rows, cols and vals equal construct_string_rep_by_two_sines'
    (both sines evaluated), and reps_equivalent's verdicts against another
    string equal the edge-mask reference's."""
    mu = -ratio if negative else ratio
    phases = list(np.random.default_rng(seed).uniform(-20, 20, n - 1))
    spec = StringSpec(n=n, theta=solve_string_theta(n, mu, 1.0), mu=mu, phases=phases)
    rep = construct_string_rep(spec)
    assert _triplets(rep) == _triplets(construct_string_rep_by_two_sines(spec))
    assert representations._casimir(rep) == casimir_by_mean(rep)
    other = construct_string_rep(dataclasses.replace(spec, phases=None))
    for b, tol in ((rep, 1e-10), (other, 1e-10)):
        assert _outcome(reps_equivalent, rep, b, tol) == \
            _outcome(reps_equivalent_by_edge_mask, rep, b, tol)


@pytest.mark.parametrize("mu, n, k", [(10.0, 401, 1), (5.0, 1025, 1), (10.0, 1025, 3)])
def test_rep_index_in_log_space_beyond_the_double_range(mu, n, k):
    rng = random.Random(n + k)
    phases = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
    rep = construct_loop_rep(LoopSpec(n=n, k=k, beta=0.4, phases=phases), mu, 1.0)
    index = rep_index(rep)
    expected = 0.5 * float(np.sum(np.log(loop_weights(n, k, 0.4, mu, 1.0))))
    assert abs(index.log_modulus - expected) <= 1e-12 * expected
    assert abs(math.remainder(index.phase - sum(phases), 2 * math.pi)) <= 1e-10
    assert -math.pi <= index.phase <= math.pi
    assert not math.isnan(index.z.real) and not math.isnan(index.z.imag)
    if expected < 700:
        assert math.log(index.modulus) == pytest.approx(expected, rel=1e-12)
    else:
        assert index.modulus == math.inf


def test_rep_index_rejects_a_sum_of_loops():
    loops = [construct_loop_rep(LoopSpec(n=n, k=1), 1.6, 1.0) for n in (5, 6)]
    with pytest.raises(NotSingleLoopError, match="5-cycle, not a 11-cycle"):
        rep_index(direct_sum(loops))


def test_rep_index_rejects_two_edges_into_one_column():
    # one edge per row, but 0 -> 1 -> 2 -> 1 never returns to vertex 0
    W = np.zeros((3, 3))
    W[[0, 1, 2], [1, 2, 1]] = 1.0
    with pytest.raises(NotSingleLoopError, match="one edge per row and per column"):
        rep_index(Representation(W, RepParams(1.3, 1.0, math.pi / 5), Regime.TORAL))


@pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
def test_rep_index_bounds_the_mass_below_zero_tol(lam):
    rep = construct_loop_rep(LoopSpec(n=9, k=2, beta=0.3), 1.6, 1.0)
    rep = Representation(lam * rep.W, rep.params, rep.regime)
    zero_tol = 1e-9 * float(np.max(np.abs(rep.W)))
    for size, single_loop in ((0.9 * zero_tol, False), (1e-15 * lam, True)):
        W = rep.W.copy()
        W[0, 5] = size
        bumped = Representation(W, rep.params, rep.regime)
        graph, unbumped = matrix_graph(W), matrix_graph(rep.W)
        assert np.array_equal(graph.rows, unbumped.rows)
        assert np.array_equal(graph.cols, unbumped.cols)
        if single_loop:
            assert rep_index(bumped).log_modulus == pytest.approx(rep_index(rep).log_modulus)
        else:
            with pytest.raises(NotSingleLoopError, match="off-cycle"):
                rep_index(bumped)


def test_rep_index_from_z_alone():
    index = rep_index(construct_loop_rep(LoopSpec(n=6, k=1), 1.4, 1.0))
    again = RepIndex(index.z)
    assert again.log_modulus == pytest.approx(index.log_modulus, abs=1e-14)
    assert again.phase == pytest.approx(index.phase, abs=1e-14)


# ---------------------------------------------------------------------------
# string representations
# ---------------------------------------------------------------------------

def test_solve_string_theta_examples():
    assert solve_string_theta(7, 0.0, 2.0) == pytest.approx(math.pi / 14, abs=1e-14)
    assert solve_string_theta(9, 1.0, 1.0) == pytest.approx(math.pi / 10, abs=1e-15)
    theta = solve_string_theta(30, 0.9, 1.0)
    assert math.pi / 60 < theta < math.pi / 31
    assert abs(math.cos(30 * theta) + 0.9 * math.cos(theta)) < 1e-13


def test_solve_string_theta_no_root_in_toral_regime():
    with pytest.raises(NoRootError):
        solve_string_theta(30, 1.3, 1.0)


# mu/sqrt(c) from the NoRootError edge at -1 through the ratios just below
# 1, where the root nears pi/(n + 1), to the toral side, where there is none
STRING_RATIOS = [-1.0, math.nextafter(-1.0, 0.0), -0.5, 0.0, 0.3, 0.9, 0.99, 1 - 1e-9,
                 1 - 1e-12, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1.3]


def test_string_theta_stops_where_the_bisection_stands_still():
    """solve_string_theta stops once the midpoint is an end of the bracket;
    the 200-step bisection gives the same theta bit for bit, or the same
    error, at every n = 2..4001, four ratios per n in turn over
    STRING_RATIOS, at c = 1 and c = 2.5."""
    def outcome(solve, n, mu, c):
        try:
            return solve(n, mu, c).hex()
        except NoRootError:
            return NoRootError

    for n in range(2, 4002):
        for j in range(4):
            ratio = STRING_RATIOS[(4 * n + j) % len(STRING_RATIOS)]
            c = 1.0 if n % 2 else 2.5
            mu = ratio * math.sqrt(c)
            assert outcome(solve_string_theta, n, mu, c) == outcome(bisection_string_theta, n,
                                                                    mu, c), (n, mu, c)


def test_string_rep_verifies():
    theta = solve_string_theta(30, 0.9, 1.0)
    rep = construct_string_rep(StringSpec(n=30, theta=theta, mu=0.9))
    report = verify_relations(rep)
    assert report.ok(1e-10)
    assert abs(report.c_estimate - 1.0) < 1e-10
    assert edge_consistency_residual(rep) < 1e-10


def test_string_weights_example_n3():
    w = string_weights(3, math.pi / 6, 1.0)
    assert np.allclose(w, [1.0, 1.0])
    rep = construct_string_rep(StringSpec(n=3, theta=math.pi / 6, mu=0.0, c=1.0))
    assert verify_relations(rep).ok(1e-10)


def test_string_trivial_n1():
    rep = construct_string_rep(StringSpec(n=1, theta=0.3, mu=-0.5))
    assert rep.W.shape == (1, 1) and rep.W[0, 0] == 0
    assert rep.params.c == pytest.approx(0.25)


def test_string_diagonal_zero_pattern():
    theta = solve_string_theta(12, 0.4, 1.0)
    rep = construct_string_rep(StringSpec(n=12, theta=theta, mu=0.4))
    W = rep.W
    d = np.real(np.diag(W @ W.conj().T))
    dt = np.real(np.diag(W.conj().T @ W))
    assert np.sum(np.abs(dt) < 1e-12) == 1 and abs(dt[0]) < 1e-12   # transmitter
    assert np.sum(np.abs(d) < 1e-12) == 1 and abs(d[-1]) < 1e-12    # receiver


def test_string_spec_validation():
    with pytest.raises(ValueError):
        StringSpec(n=3, theta=0.3, mu=0.0)          # mu=0 needs explicit c
    with pytest.raises(ValueError):
        StringSpec(n=5, theta=0.25, mu=0.3)         # cos(n theta) > 0 with mu > 0
    with pytest.raises(WindowViolationError):
        StringSpec(n=7, theta=3 * math.pi / 14, mu=0.0, c=1.0)   # (n+1)theta > pi
    with pytest.raises(ValueError):
        StringSpec(n=30, theta=solve_string_theta(30, 0.9, 1.0), mu=0.9, c=2.0)


def test_mu_sqrt_c_boundary_window_endpoint_accepted():
    # mu = sqrt(c): theta = pi/(n+1) exactly, (n+1)theta = pi accepted
    n = 9
    theta = solve_string_theta(n, 1.0, 1.0)
    rep = construct_string_rep(StringSpec(n=n, theta=theta, mu=1.0))
    assert verify_relations(rep).ok(1e-10)


# ---------------------------------------------------------------------------
# degenerate representations
# ---------------------------------------------------------------------------

def test_degenerate_rep_examples():
    rep = construct_degenerate_rep(0.0, np.eye(4))
    assert np.all(rep.W == 0)
    rep = construct_degenerate_rep(4.0, np.eye(3))
    assert np.allclose(rep.W, 2 * np.eye(3))
    W = rep.W
    assert np.allclose(W @ W.conj().T, 4 * np.eye(3))
    assert np.allclose(W.conj().T @ W, 4 * np.eye(3))
    report = verify_relations(rep)
    assert report.ok(1e-12) and abs(report.c_estimate) < 1e-12


def test_degenerate_rep_random_unitary():
    rng = np.random.default_rng(0)
    U = random_unitary(rng, 6)
    rep = construct_degenerate_rep(2.5, U)
    report = verify_relations(rep)
    assert max(report.residual_wwd, report.residual_casimir,
               report.intertwine_residual) < 1e-12


def test_degenerate_rejects_negative_mu():
    with pytest.raises(NegativeMuError):
        construct_degenerate_rep(-1.0, np.eye(2))


def test_verification_ok_covers_every_residual():
    assert VerificationReport(0.0, 0.0, 1.0, 0.0, 0.0, 0.0).ok()
    for k in (0, 1, 3, 4, 5):
        residuals = [0.0] * 6
        residuals[k] = 1e-6
        assert not VerificationReport(*residuals).ok()


def _scaled(rep, lam):
    """W -> lam W, mu -> lam^2 mu, c -> lam^4 c: the same representation at another scale."""
    p = rep.params
    return Representation(lam * rep.W, RepParams(lam ** 2 * p.mu, lam ** 4 * p.c, p.theta),
                          rep.regime)


@st.composite
def scaled_pairs(draw):
    """(rep, a rep equivalent to it or None, one that is not or None, lam) for a
    loop, a block loop or a string."""
    lam = draw(st.sampled_from([1e-6, 1e6]) | st.floats(-6, 6).map(lambda e: 10 ** e))
    kind = draw(st.sampled_from(["loop", "block loop", "string"]))
    if kind == "block loop":
        n = draw(st.integers(5, 16))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        spec = LoopSpec(n=n, k=1, beta=draw(st.floats(0, 2 * math.pi)), block_dim=2,
                        unitaries=[random_unitary(rng, 2) for _ in range(n)])
        mu = (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta)
        return construct_loop_rep(spec, mu, 1.0), None, None, lam
    if kind == "loop":
        spec, mu = draw(loop_specs(n_max=40))
        n, total = spec.n, sum(spec.phases)
        moved = draw(st.lists(st.floats(0, 2 * math.pi), min_size=n - 1, max_size=n - 1))
        twin = LoopSpec(n=n, k=spec.k, beta=spec.beta + 2 * math.pi / n,
                        phases=moved + [total - sum(moved)])
        other = LoopSpec(n=n, k=spec.k, beta=spec.beta, phases=[spec.phases[0] + 0.5]
                         + list(spec.phases[1:]))
        return tuple(construct_loop_rep(s, mu, 1.0) for s in (spec, twin, other)) + (lam,)
    n = draw(st.integers(3, 40))
    mu = draw(st.floats(0.3, 0.95))
    theta = solve_string_theta(n, mu, 1.0)
    phases = draw(st.lists(st.floats(0, 2 * math.pi), min_size=n - 1, max_size=n - 1))
    return (construct_string_rep(StringSpec(n=n, theta=theta, mu=mu)),
            construct_string_rep(StringSpec(n=n, theta=theta, mu=mu, phases=phases)), None, lam)


def _canonical_loops(rep):
    """The W of each single loop canonicalize_loop splits rep into, or None
    when rep is not block-cyclic."""
    try:
        return [loop.W for loop in canonicalize_loop(rep)]
    except NotBlockCyclicError:
        return None


def _chain_or_none(rep):
    """The kind _single_chain reads, or None when rep is not one loop or string."""
    try:
        return representations._single_chain(rep)[0]
    except NotSingleLoopError:
        return None


@given(scaled_pairs())
def test_verdicts_are_scale_invariant(drawn):
    rep, twin, other, lam = drawn
    big = _scaled(rep, lam)
    assert verify_relations(rep).ok() and verify_relations(big).ok()
    p = big.params
    assert classify_regime(p.mu, p.c, p.theta) == classify_regime(rep.params.mu, rep.params.c,
                                                                  p.theta)
    assert position_spectrum(big).branch_pattern() == position_spectrum(rep).branch_pattern()
    graph, big_graph = matrix_graph(rep), matrix_graph(big)
    assert np.array_equal(graph.rows, big_graph.rows)
    assert np.array_equal(graph.cols, big_graph.cols)
    assert _chain_or_none(big) == _chain_or_none(rep)
    loops, big_loops = _canonical_loops(rep), _canonical_loops(big)
    is_string = not rep.W[-1].any()      # a string's last vertex is a receiver
    assert (loops is None) == (big_loops is None) == is_string
    for small, large in zip(loops or [], big_loops or []):
        assert np.max(np.abs(large - lam * small)) <= 1e-10 * lam * np.max(np.abs(small))
    if twin is not None:
        assert reps_equivalent(big, _scaled(twin, lam)) and reps_equivalent(rep, twin)
    if other is not None:
        assert not reps_equivalent(big, _scaled(other, lam))
        assert not reps_equivalent(rep, other)
        shift = rep.n * math.log(lam)
        assert rep_index(big).log_modulus == pytest.approx(rep_index(rep).log_modulus + shift,
                                                           abs=1e-11)
    if not is_string:
        W = rep.W.copy()
        W[0, 0] += 3e-8 * float(np.max(np.abs(W)))      # 3 tol, off the band
        for off_band in (Representation(W, rep.params, rep.regime),
                         _scaled(Representation(W, rep.params, rep.regime), lam)):
            with pytest.raises(NotBlockCyclicError, match="no vertex classes"):
                canonicalize_loop(off_band)
    W = rep.W.copy()
    W[0, 0] += 1e-4 * float(np.max(np.abs(W)))
    bumped = Representation(W, rep.params, rep.regime)
    report, big_report = verify_relations(bumped), verify_relations(_scaled(bumped, lam))
    assert not report.ok() and not big_report.ok()
    for name in ("residual_wwd", "residual_casimir", "intertwine_residual", "residual_yz",
                 "residual_zx"):
        assert getattr(big_report, name) == pytest.approx(getattr(report, name), rel=1e-6)


def _large_loop_and_string(n):
    return (construct_loop_rep(LoopSpec(n=n, k=1, beta=0.3), 1.3, 1.0),
            construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, 0.9, 1.0), mu=0.9)))


@pytest.mark.parametrize("n", [10 ** 3, 10 ** 4, 10 ** 5])
def test_verify_rejects_one_entry_scaled_by_1e_8_at_large_n(n):
    """A loop or string with the entry a quarter along it scaled by 1 + 1e-8
    fails ok(): 1/hbar^2 amplifies the local defect in residual_casimir."""
    for rep in _large_loop_and_string(n):
        vals = rep.vals.copy()
        vals[len(vals) // 4] *= 1 + 1e-8
        twin = Representation.from_entries(n, rep.rows, rep.cols, vals, rep.params, rep.regime)
        report = verify_relations(twin)
        assert not report.ok() and report.residual_casimir >= 3.4e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_verify_accepts_exact_loops_and_strings_at_n_1e5():
    """residual_casimir of an exact loop or string grows like N (the eps /
    hbar^2 roundoff floor) and passes tol 1e-10 near N = 2 10^4."""
    assert all(verify_relations(rep).ok() for rep in _large_loop_and_string(10 ** 5))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_verify_accepts_an_exact_loop_at_small_c():
    """residual_casimir is |C_hat - 4c| relative to 4c, and C_hat's roundoff
    does not shrink with c: an exact loop (mu = 1.3, N = 30, beta = 0.3)
    reads 1.19e-10, 8.9e-9 and 7.1e-5 at c = 1e-8, 1e-12 and 1e-20, and
    fails ok() from c = 1e-8 down."""
    assert all(verify_relations(construct_loop_rep(LoopSpec(n=30, k=1, beta=0.3), 1.3, c)).ok()
               for c in (1e-8, 1e-12, 1e-20))


def test_w_is_read_once_per_representation(monkeypatch):
    """The relation checks, the spectrum, the index, the canonical split and
    the equivalence test of one loop read its entry pattern once."""
    calls = []
    read = representations._read_chains
    monkeypatch.setattr(representations, "_read_chains",
                        lambda *entries: calls.append(entries[0]) or read(*entries))
    rep = construct_loop_rep(LoopSpec(n=256, k=1, beta=0.3), 1.3, 1.0)
    verify_relations(rep)
    position_spectrum(rep)
    rep_index(rep)
    canonicalize_loop(rep)
    assert reps_equivalent(rep, rep)
    assert calls == [256]


def _natural_chains_and_near_misses():
    """(n, rows, cols, vals): loops and strings in the order the constructors
    write, and near misses: a loop without its corner entry, a relabeled
    loop, a string plus an isolated vertex, a reversed string."""
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5, 96, 257):
        every = np.arange(n)
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        yield n, every, (every + 1) % n, vals                       # loop
        yield n, every[:-1], every[1:], vals[:-1]                   # string
        perm = rng.permutation(n)
        order = np.argsort(perm)
        yield n, perm[every][order], perm[(every + 1) % n][order], vals[order]
        if n > 1:
            yield n, every[:-2], every[1:-1], vals[:-2]             # string + vertex
            yield n, every[1:], every[:-1], vals[1:]                # reversed string


def test_the_natural_order_is_read_as_the_walk_reads_it():
    for n, rows, cols, vals in _natural_chains_and_near_misses():
        read, walked = (reader(n, rows, cols, vals) for reader in
                        (representations._read_chains, representations._walk_chains))
        assert len(read) == len(walked)
        for (v, closed, w), (v_walk, closed_walk, w_walk) in zip(read, walked):
            assert closed == closed_walk
            assert v.dtype == v_walk.dtype and np.array_equal(v, v_walk)
            assert w.dtype == w_walk.dtype and np.array_equal(w, w_walk)


def test_verify_sensitive_to_perturbation():
    rep = construct_loop_rep(LoopSpec(n=10, k=1), 1.4, 1.0)
    W = rep.W.copy()
    W[2, 3] += 1e-3
    bumped = Representation(W, rep.params, rep.regime)
    assert verify_relations(bumped).residual_wwd > 1e-6


# ---------------------------------------------------------------------------
# verification on dense and structured operands
# ---------------------------------------------------------------------------

RESIDUALS = ("residual_wwd", "residual_casimir", "intertwine_residual", "residual_yz",
             "residual_zx")


@st.composite
def altered_reps(draw, n_min, n_max):
    """(rep, change): a loop with coprime k, a string or a block loop (m = 2,
    3) of dimension n_min..n_max, left alone ("none"), randomly relabeled
    ("relabel"), or with one entry of W perturbed "on pattern" or "off
    pattern"."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    angle = st.floats(0, 2 * math.pi)
    kind = draw(st.sampled_from(["loop", "string", "block loop"]))
    if kind == "string":
        n = draw(st.integers(max(n_min, 3), n_max))
        mu = draw(st.floats(0.3, 0.95))
        rep = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, mu, 1.0), mu=mu,
                                              phases=rng.uniform(0, 2 * math.pi, n - 1)))
    else:
        m = 1 if kind == "loop" else draw(st.sampled_from([2, 3]))
        n = draw(st.integers(max(5, -(-n_min // m)), n_max // m))
        k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1 and n > 4 * k]))
        spec = LoopSpec(n=n, k=k, beta=draw(angle), phases=rng.uniform(0, 2 * math.pi, n),
                        block_dim=m,
                        unitaries=[random_unitary(rng, m) for _ in range(n)] if m > 1 else None)
        rep = construct_loop_rep(spec, (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta),
                                 1.0)
    W = rep.W.copy()
    change = draw(st.sampled_from(["none", "relabel", "on pattern", "off pattern"]))
    if change == "relabel":
        perm = rng.permutation(rep.n)
        W = W[np.ix_(perm, perm)]
    elif change != "none":
        rows, cols = np.nonzero(W) if change == "on pattern" else np.nonzero(W == 0)
        at = rng.integers(len(rows))
        W[rows[at], cols[at]] += 1e-3 * np.max(np.abs(W)) * np.exp(1j * draw(angle))
    return Representation(W, rep.params, rep.regime), change


@given(altered_reps(3, representations._DENSE_BELOW - 1))
def test_verify_below_the_crossover_is_the_dense_evaluation(drawn):
    rep, _ = drawn
    [(_, W)] = representations._parts(rep)
    assert isinstance(W, np.ndarray)
    assert verify_relations(rep) == dense_verify_relations(rep)


def _on_one_block_offset(rep) -> bool:
    """The block reading's rule: cut into m x m blocks of consecutive
    indices, m >= 2 the largest number of entries in a row dividing N,
    every entry of W lies on one cyclic block offset."""
    m = int(np.bincount(rep.rows).max())
    if m < 2 or rep.n % m:
        return False
    return len(np.unique((rep.cols // m - rep.rows // m) % (rep.n // m))) == 1


@settings(max_examples=12)
@given(altered_reps(representations._DENSE_BELOW, 300))
def test_verify_above_the_crossover_matches_the_dense_evaluation(drawn):
    rep, change = drawn
    perturbed = change.endswith("pattern")
    # a loop, string or block loop, relabeled or perturbed on its pattern or
    # not, is read (Representation._cyclic), and its operand is W in the
    # reading's vertex order; an entry off the pattern may leave no reading,
    # and then the products are dense
    parts = [part for _, part in representations._parts(rep)]
    if isinstance(parts[0], np.ndarray):
        assert change == "off pattern" and rep._cyclic is None
    else:
        order = rep._cyclic[0]
        assert np.array_equal(operand_array(parts), rep.W[np.ix_(order, order)])
    report, dense = verify_relations(rep), dense_verify_relations(rep)
    assert report.ok() == dense.ok() == (not perturbed)
    assert report.c_estimate == pytest.approx(dense.c_estimate, rel=1e-12)
    if perturbed:
        for name in RESIDUALS:
            assert getattr(report, name) == pytest.approx(getattr(dense, name), rel=1e-9,
                                                          abs=1e-14)


@st.composite
def chain_reps(draw, n_min, n_max):
    """(rep, perturbed): a phased loop with coprime k or a phased string of
    dimension n_min..n_max, left alone, relabeled by a random permutation,
    or with one entry perturbed on its pattern."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(max(n_min, 3), n_max))
        mu = draw(st.floats(0.3, 0.95))
        rep = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, mu, 1.0), mu=mu,
                                              phases=rng.uniform(0, 2 * math.pi, n - 1)))
    else:
        n = draw(st.integers(max(n_min, 5), n_max))
        k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1 and n > 4 * k]))
        spec = LoopSpec(n=n, k=k, beta=draw(st.floats(0, 2 * math.pi)),
                        phases=rng.uniform(0, 2 * math.pi, n))
        rep = construct_loop_rep(spec, (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta),
                                 1.0)
    W = rep.W.copy()
    change = draw(st.sampled_from(["none", "relabel", "on pattern"]))
    if change == "relabel":
        perm = rng.permutation(rep.n)
        W = W[np.ix_(perm, perm)]
    elif change == "on pattern":
        rows, cols = np.nonzero(W)
        at = rng.integers(len(rows))
        W[rows[at], cols[at]] += 1e-3 * np.max(np.abs(W)) * np.exp(1j * rng.uniform(0, 6))
    return Representation(W, rep.params, rep.regime), change == "on pattern"


@settings(max_examples=40, deadline=None)
@given(chain_reps(5, 400))
def test_verify_on_shift_operands_matches_the_dense_evaluation(drawn):
    """The shift-diagonal operands, forced at every N, against dense
    products: the same verdict, and residuals within 1e-9 relative (1e-14
    absolute).  residual_casimir of an exact loop or string sits at its
    roundoff floor, about 2e-13 at N = 200 (ROADMAP item 4), where two
    summation orders differ by more than 1e-14: there both are within ok()."""
    rep, perturbed = drawn
    with mock.patch.object(representations, "_DENSE_BELOW", 0):
        [(_, operand)] = representations._parts(rep)
        assert isinstance(operand, representations._Shifts)
        report = verify_relations(rep)
    dense = dense_verify_relations(rep)
    assert report.ok() == dense.ok() == (not perturbed)
    assert report.c_estimate == pytest.approx(dense.c_estimate, rel=1e-12)
    for name in RESIDUALS if perturbed else set(RESIDUALS) - {"residual_casimir"}:
        assert getattr(report, name) == pytest.approx(getattr(dense, name), rel=1e-9,
                                                      abs=1e-14)


def _haar_blocks(rng, m, n):
    """n Haar-distributed m x m unitaries from one stacked QR."""
    q, r = np.linalg.qr(rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m)))
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    return q * (diagonal / np.abs(diagonal))[:, None, :]


def _block_loop(rng, n, k, m, beta, mu):
    spec = LoopSpec(n=n, k=k, beta=beta, block_dim=m, unitaries=list(_haar_blocks(rng, m, n)))
    return construct_loop_rep(spec, mu / math.cos(spec.theta), 1.0)


@st.composite
def block_loops(draw, n_min, n_max):
    """(rep, change): a block loop with m = 2 or 3 of dimension n_min..n_max,
    Haar blocks and any coprime k, left alone ("none") or with one
    entry perturbed "on pattern" or "off pattern"."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(-(-n_min // m), n_max // m))
    k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1 and n > 4 * k]))
    rep = _block_loop(rng, n, k, m, draw(st.floats(0, 2 * math.pi)),
                      1 + draw(st.floats(0.05, 2.0)))
    rows, cols, vals = rep.rows, rep.cols, rep.vals.copy()
    change = draw(st.sampled_from(["none", "on pattern", "off pattern"]))
    bump = 1e-3 * np.max(np.abs(vals)) * np.exp(1j * draw(st.floats(0, 2 * math.pi)))
    if change == "on pattern":
        vals[rng.integers(len(vals))] += bump
    elif change == "off pattern":
        row, col = rng.integers(rep.n, size=2)
        while (col // m - row // m) % n == 1:       # the only block offset of W
            row, col = rng.integers(rep.n, size=2)
        rows, cols, vals = np.append(rows, row), np.append(cols, col), np.append(vals, bump)
    return Representation.from_entries(rep.n, rows, cols, vals, rep.params, rep.regime), change


@settings(max_examples=10, deadline=None)
@given(block_loops(96, 600))
def test_verify_on_block_diagonals_matches_the_dense_evaluation(drawn):
    """A block loop in the order construct_loop_rep writes, perturbed on its
    pattern or not, is multiplied on its one block offset; with an entry
    off the pattern it has no reading and goes dense.  Either way: the dense verdict,
    c_estimate within 1e-12 relative, and the residuals of a perturbed W
    within 1e-9 relative (1e-14 absolute)."""
    rep, change = drawn
    [(_, operand)] = representations._parts(rep)
    kind = type(operand)
    assert kind is (np.ndarray if change == "off pattern" else representations._Shifts)
    assert (kind is representations._Shifts) == _on_one_block_offset(rep)
    report, dense = verify_relations(rep), dense_verify_relations(rep)
    assert report.ok() == dense.ok() == (change == "none")
    assert report.c_estimate == pytest.approx(dense.c_estimate, rel=1e-12)
    if change != "none":
        for name in RESIDUALS:
            assert getattr(report, name) == pytest.approx(getattr(dense, name), rel=1e-9,
                                                          abs=1e-14)


@st.composite
def wide_block_loops(draw):
    """(rep, perturbed): a block loop of block_dim 2..16 and N = 48..~600,
    with Haar, monomial (a permutation times phases) or block-diagonal
    blocks (two Haar blocks, of sizes a and m - a), stored as
    construct_loop_rep writes it or relabeled, with one entry perturbed on
    the pattern or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 16))
    n = draw(st.integers(max(5, -(-48 // m)), max(5, 600 // m)))
    kind = draw(st.sampled_from(["haar", "monomial", "block-diagonal"]))
    if kind == "haar":
        unitaries = list(_haar_blocks(rng, m, n))
    elif kind == "monomial":
        unitaries = [np.eye(m)[rng.permutation(m)] * np.exp(1j * rng.uniform(0, 6, m))
                     for _ in range(n)]
    else:
        a = draw(st.integers(1, m - 1))
        unitaries = [np.zeros((m, m), dtype=complex) for _ in range(n)]
        for U, A, B in zip(unitaries, _haar_blocks(rng, a, n), _haar_blocks(rng, m - a, n)):
            U[:a, :a], U[a:, a:] = A, B
    spec = LoopSpec(n=n, k=1, beta=draw(st.floats(0, 2 * math.pi)), block_dim=m,
                    unitaries=unitaries)
    rep = construct_loop_rep(spec, (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta),
                             1.0)
    rows, cols, vals = rep.rows, rep.cols, rep.vals.copy()
    if draw(st.booleans()):
        perm = rng.permutation(rep.n)
        rows, cols = perm[rows], perm[cols]
    perturbed = draw(st.booleans())
    if perturbed:
        vals[rng.integers(len(vals))] += 1e-3 * np.max(np.abs(vals)) * np.exp(1j * rng.uniform(0, 6))
    return Representation.from_entries(rep.n, rows, cols, vals, rep.params, rep.regime), perturbed


@settings(max_examples=15, deadline=None)
@given(wide_block_loops())
def test_verify_on_blocks_of_any_size_matches_the_dense_evaluation(drawn):
    """Block loops of any block_dim, in any vertex order, are read on their
    classes, of any size, and give the dense verdict, c_estimate within 1e-12
    relative and the residuals of a perturbed W within 1e-9 relative (1e-14
    absolute), as test_verify_on_block_diagonals_matches_the_dense_evaluation
    asks of block_dim 2 and 3."""
    rep, perturbed = drawn
    assert rep._cyclic is not None
    report, dense = verify_relations(rep), dense_verify_relations(rep)
    assert report.ok() == dense.ok() == (not perturbed)
    assert report.c_estimate == pytest.approx(dense.c_estimate, rel=1e-12)
    if perturbed:
        for name in RESIDUALS:
            assert getattr(report, name) == pytest.approx(getattr(dense, name), rel=1e-9,
                                                          abs=1e-14)


def test_a_block_loop_runs_on_its_blocks_in_any_vertex_order():
    """A relabeled block loop is read on its vertex classes: the block
    loop's own blocks, from the class of vertex 0 on, each class's vertices
    ascending."""
    rng = np.random.default_rng(5)
    rep = _block_loop(rng, 64, 3, 2, 0.3, 1.3)
    perm = rng.permutation(rep.n)
    relabeled = Representation.from_entries(rep.n, perm[rep.rows], perm[rep.cols], rep.vals,
                                            rep.params, rep.regime)
    for r in (rep, relabeled):
        [(_, blocks)] = representations._parts(r)
        assert isinstance(blocks, representations._Shifts) and (blocks.k, blocks.m) == (64, 2)
        assert list(blocks.terms) == [1] and verify_relations(r).ok()
    order = relabeled._cyclic[0].reshape(64, 2)
    classes = np.sort(perm.reshape(64, 2), axis=1)
    start = int(np.flatnonzero(classes.min(axis=1) == 0)[0])
    assert np.array_equal(order, np.roll(classes, -start, axis=0))


def test_the_block_reading_places_every_entry():
    """The block terms are W itself, and W with a full row (8 entries per
    row on average, but m = N) is one block of N."""
    rep = _block_loop(np.random.default_rng(2), 50, 1, 3, 0.3, 1.3)
    [(_, blocks)] = representations._parts(rep)
    m, k, dense = blocks.m, blocks.k, np.zeros((rep.n, rep.n), dtype=complex)
    for a, x in blocks.terms.items():
        for i, j, l in itertools.product(range(m), range(m), range(k)):
            dense[l * m + i, (l + a) % k * m + j] = x[i, j, l]
    assert np.array_equal(dense, rep.W)
    n = 96
    rows = np.concatenate([np.zeros(n, dtype=int), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), (np.arange(1, n) + 1) % n])
    crowded = Representation.from_entries(n, rows, cols, np.ones(len(rows)), rep.params,
                                          rep.regime)
    [(_, block)] = representations._parts(crowded)
    assert (block.k, block.m) == (1, n) and np.array_equal(operand_array(block), crowded.W)


@pytest.mark.parametrize("n", [48, 64, 128, 200])
@pytest.mark.parametrize("kind", ["degenerate", "random"])
def test_verify_keeps_a_dense_filled_w_dense(n, kind):
    """A dense-filled W, a degenerate rep or a random W, is read as one
    block of N (k = 1), whose products are the dense ones: the report is
    the dense evaluation's bit for bit."""
    rng = np.random.default_rng(n)
    if kind == "degenerate":
        rep = construct_degenerate_rep(1.7, random_unitary(rng, n))
    else:
        W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rep = Representation(W, RepParams(1.3, 1.0, math.pi / n), Regime.TORAL)
    [(_, block)] = representations._parts(rep)
    assert (block.k, block.m) == (1, n)
    assert verify_relations(rep) == dense_verify_relations(rep)


# The two evaluations of residual_wwd take the same cubic words in different
# orders; both are normalized by |W|_F^3 and differ by at most 0.3 eps at
# N <= 60, so 1e-15 (4.5 eps) is their roundoff floor.
RULE_FLOOR = 1e-15
# The expanded Casimir polynomial carries (WV)^2, (VW)^2, WVVW and VWWV times
# 1/h^2 ~ (N/pi)^2, which cancel to (D - D~)^2/h^2: at N = 60 that costs up
# to 2.9e-13 (1300 eps), against 3.8e-14 for verify_relations' factored
# C_hat.  1e-12 leaves a factor 3.4 above it.
CASIMIR_FLOOR = 1e-12


@pytest.mark.parametrize("n", [5, 30, 60])
@pytest.mark.parametrize("kind", ["loop", "string", "degenerate"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_the_exact_engines_relations_on_w_match_verify_relations(n, kind, perturbed):
    """build_torus_system's two rules (lhs - rhs) and casimir_polynomial - 4c,
    evaluated on W with V = W^dagger, give verify_relations' residual_wwd
    (each rule's |.|_F times 1 + h^2, over |W|_F^3; the second rule is the
    adjoint of the first) and residual_casimir (over 4c, absolute at c = 0),
    within the floors above: on exact representations, and with every
    entry of W scaled by 1 + 1e-3 N(0, 1), where both residuals are
    1e-5 .. 0.5."""
    rng = np.random.default_rng(n)
    if kind == "loop":
        rep = construct_loop_rep(LoopSpec(n=n, k=1, beta=0.3), 1.3, 1.0)
    elif kind == "string":
        rep = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, 0.9, 1.0),
                                              mu=0.9))
    else:
        rep = construct_degenerate_rep(1.7, random_unitary(rng, n))
    if perturbed:
        rep = Representation.from_entries(
            rep.n, rep.rows, rep.cols, rep.vals * (1 + 1e-3 * rng.normal(size=len(rep.vals))),
            rep.params, rep.regime)
    p = rep.params
    params = AlgebraParams(Fraction(p.mu), Fraction(math.tan(p.theta) ** 2))
    letters = {"W": rep.W, "V": rep.W.conj().T}
    report = verify_relations(rep)
    cube = np.linalg.norm(rep.W) ** 3
    for lhs, rhs in build_torus_system(params).rules:
        defect = matrix_value(NCPolynomial.monomial(lhs) - rhs, letters)
        residual = (1 + float(params.hbar_sq)) * np.linalg.norm(defect) / cube
        assert abs(residual - report.residual_wwd) <= RULE_FLOOR
    casimir = np.linalg.norm(matrix_value(casimir_polynomial(params), letters)
                             - 4 * p.c * np.eye(n))
    residual = casimir / (4 * p.c) if p.c > 0 else casimir
    assert abs(residual - report.residual_casimir) <= CASIMIR_FLOOR
    assert (report.residual_wwd > 1e-5) == perturbed


# ---------------------------------------------------------------------------
# graphs, decomposition
# ---------------------------------------------------------------------------

def test_matrix_graph_loop_and_string():
    loop = construct_loop_rep(LoopSpec(n=5, k=1), 1.3, 1.0)
    g = matrix_graph(loop.W)
    assert g.rows.tolist() == [0, 1, 2, 3, 4] and g.cols.tolist() == [1, 2, 3, 4, 0]
    string = construct_string_rep(StringSpec(n=3, theta=math.pi / 6, mu=0.0, c=1.0))
    gs = matrix_graph(string.W)
    assert gs.rows.tolist() == [0, 1] and gs.cols.tolist() == [1, 2]


@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    if n else st.just(frozenset()))))
def test_graph_components_and_cycles_against_reachability(drawn):
    n, edges = drawn
    pairs = np.array(sorted(edges), dtype=int).reshape(-1, 2)
    graph = MatrixGraph(n, pairs[:, 0], pairs[:, 1])
    linked = reachability(n, edges | {(j, i) for i, j in edges}) | np.eye(n, dtype=bool)
    expected = sorted({tuple(np.flatnonzero(row)) for row in linked})
    assert graph.weak_components() == [list(c) for c in expected]


@settings(max_examples=300)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))))
@example((6, [(2, 2), (3, 1), (3, 1), (1, 3), (5, 4)]))   # a self-loop, repeats, isolated 0
def test_weak_components_match_csgraph(drawn):
    """Self-loops, repeated edges and isolated vertices included: the same
    lists in the same order as scipy's connected_components."""
    n, edges = drawn
    pairs = np.array(edges, dtype=int).reshape(-1, 2)
    rows, cols = pairs[:, 0], pairs[:, 1]
    assert MatrixGraph(n, rows, cols).weak_components() == csgraph_components(n, rows, cols)


@pytest.mark.parametrize("shape", ["path", "cycles"])
def test_weak_components_match_csgraph_at_n_1e5(shape):
    """A permuted 10^5-vertex path, whose labels take many rounds to settle,
    and 10^4 disjoint 10-cycles on permuted vertices."""
    n = 10 ** 5
    perm = np.random.default_rng(1).permutation(n)
    if shape == "path":
        rows, cols = perm[:-1], perm[1:]
    else:
        cycles = np.arange(n).reshape(-1, 10)
        rows, cols = perm[cycles.ravel()], perm[np.roll(cycles, -1, axis=1).ravel()]
    components = MatrixGraph(n, rows, cols).weak_components()
    assert len(components) == (1 if shape == "path" else 10 ** 4)
    assert components == csgraph_components(n, rows, cols)


def _walk_edges(walk, closed):
    return set(zip(walk, walk[1:])) | ({(walk[-1], walk[0])} if closed else set())


@st.composite
def chain_graphs(draw):
    """(n, edges): one loop or string, a direct sum of two, relabeled or not;
    a random partial permutation; or any edge set."""
    shape = draw(st.sampled_from(["loop", "string", "sum", "partial", "any"]))
    if shape == "partial":
        n = draw(st.integers(1, 12))
        image = draw(st.permutations(range(n)))
        domain = draw(st.lists(st.integers(0, n - 1), unique=True))
        return n, frozenset(zip(domain, image))
    if shape == "any":
        n = draw(st.integers(1, 8))
        return n, draw(st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    kinds = [shape] if shape != "sum" else draw(st.lists(st.sampled_from(["loop", "string"]),
                                                         min_size=2, max_size=2))
    sizes = [draw(st.integers(1, 10)) for _ in kinds]
    n = sum(sizes)
    label = draw(st.one_of(st.just(list(range(n))), st.permutations(range(n))))
    edges, at = set(), 0
    for kind, size in zip(kinds, sizes):
        edges |= _walk_edges(label[at:at + size], kind == "loop")
        at += size
    return n, frozenset(edges)


@settings(max_examples=200)
@given(chain_graphs(), st.booleans(), st.randoms(use_true_random=False))
@example((3, frozenset({(0, 1), (1, 0), (1, 2)})), False, random.Random(0))   # two in row 1
def test_single_chain_against_reachability(drawn, faint, rnd):
    """_single_chain's kind and walk against the reachability reference; a
    faint entry, below EDGE_RTOL max|W|, is no edge."""
    n, edges = drawn
    W = np.zeros((n, n), dtype=complex)
    for i, j in edges:
        W[i, j] = cmath.rect(rnd.uniform(0.5, 2.0), rnd.uniform(-3.0, 3.0))
    if faint and edges and len(edges) < n * n:
        i, j = rnd.choice([(i, j) for i in range(n) for j in range(n) if (i, j) not in edges])
        W[i, j] = 1e-12
    rep = Representation(W, RepParams(1.3, 1.0, math.pi / 7), Regime.TORAL)
    kind = chain_kind(n, edges)
    if kind is None:
        with pytest.raises(NotSingleLoopError):
            representations._single_chain(rep)
        return
    if kind == "loop":
        succ = dict(edges)
        walk = [0]
        while len(walk) < n:
            walk.append(succ[walk[-1]])
        walk.append(0)
    else:       # a path's vertices by how many they reach
        walk = sorted(range(n), key=lambda v: -reachability(n, edges)[v].sum())
    read, w, _ = representations._single_chain(rep)
    assert read == kind
    assert np.array_equal(w, W[walk[:-1], walk[1:]])


@pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
def test_matrix_graph_edges_lie_above_1e_9_max_abs_w(lam):
    g = matrix_graph(lam * np.diag([1.0, -1.1e-9, 0.9e-9j]))
    assert g.rows.tolist() == g.cols.tolist() == [0, 1]


def test_matrix_graph_self_loops():
    g = matrix_graph(np.diag([1.0, 1.0]))
    assert g.rows.tolist() == g.cols.tolist() == [0, 1]
    assert g.weak_components() == [[0], [1]]


def test_decompose_round_trip():
    loop = construct_loop_rep(LoopSpec(n=5, k=1), 1.3, 1.0)
    string = construct_string_rep(StringSpec(n=3, theta=math.pi / 6, mu=0.0, c=1.0))
    combo = direct_sum([loop, string])
    parts = decompose(combo)
    assert [p.n for p in parts] == [5, 3]
    rebuilt = direct_sum(parts)
    assert np.array_equal(rebuilt.W, combo.W)


def test_direct_sum_of_nothing_is_a_value_error():
    with pytest.raises(ValueError, match="at least one representation"):
        direct_sum([])


def test_decompose_permuted_blocks():
    loop = construct_loop_rep(LoopSpec(n=5, k=1), 1.3, 1.0)
    string = construct_string_rep(StringSpec(n=3, theta=math.pi / 6, mu=0.0, c=1.0))
    combo = direct_sum([loop, string])
    perm = np.random.default_rng(11).permutation(8)
    scrambled = Representation(combo.W[np.ix_(perm, perm)], combo.params, combo.regime)
    assert sorted(p.n for p in decompose(scrambled)) == [3, 5]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["loop", "string", "block"]), st.integers(5, 30)),
                min_size=1, max_size=4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_decompose_matches_the_csgraph_blocks_byte_for_byte(summands, relabel, seed):
    """Sums of loops, strings and block loops (m = 2, Haar), in block order
    or on randomly relabeled vertices: the blocks' n and stored entries are
    those read off csgraph's components, bit for bit and of the same
    dtypes."""
    rng = np.random.default_rng(seed)
    parts = []
    for kind, n in summands:
        if kind == "string":
            theta = solve_string_theta(n, 0.9, 1.0)
            parts.append(construct_string_rep(StringSpec(n=n, theta=theta, mu=0.9)))
        else:
            m = 2 if kind == "block" else 1
            unitaries = [random_unitary(rng, m) for _ in range(n)] if m > 1 else None
            spec = LoopSpec(n=n, k=1, beta=0.3, block_dim=m, unitaries=unitaries)
            parts.append(construct_loop_rep(spec, 1.3, 1.0))
    rep = direct_sum(parts)
    if relabel:
        perm = rng.permutation(rep.n)
        rep = Representation.from_entries(rep.n, perm[rep.rows], perm[rep.cols], rep.vals,
                                          rep.params, rep.regime)
    got, expected = decompose(rep), csgraph_decompose(rep)
    assert len(got) == len(expected) == len(parts)
    for a, b in zip(got, expected):
        assert a.n == b.n
        for x, y in ((a.rows, b.rows), (a.cols, b.cols), (a.vals, b.vals)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_decompose_connected_is_singleton():
    loop = construct_loop_rep(LoopSpec(n=6, k=1), 1.4, 1.0)
    assert len(decompose(loop)) == 1


def _per_edge_consistency_residual(rep):
    """Reference: edge_consistency_residual as a loop over the edge set
    {(i, j) : |W_ij| > 1e-9 max|W|}, one EllipsePoint at a time."""
    zero_tol = 1e-9 * float(np.max(np.abs(rep.W)))
    edges = set(zip(*(a.tolist() for a in np.nonzero(np.abs(rep.W) > zero_tol))))
    points = rep.ellipse_points()
    worst = 0.0
    for i, j in edges:
        image = ellipse_map_s(points[i], rep.params.mu, rep.params.theta)
        worst = max(worst, abs(image.d - points[j].d), abs(image.d_tilde - points[j].d_tilde))
    return worst


@given(altered_reps(3, 60))
def test_edge_consistency_residual_matches_the_per_edge_loop(drawn):
    rep, change = drawn
    residual = edge_consistency_residual(rep)
    assert residual == _per_edge_consistency_residual(rep)
    if change.endswith("pattern"):
        assert residual > 1e-9
    else:
        assert residual < 1e-10


# ---------------------------------------------------------------------------
# canonicalization of block loops
# ---------------------------------------------------------------------------

def test_canonicalize_block_loop_against_eigen_oracle():
    rng = np.random.default_rng(7)
    m, k = 2, 5
    unitaries = [random_unitary(rng, m) for _ in range(k)]
    block = construct_loop_rep(LoopSpec(n=k, k=1, block_dim=m, unitaries=unitaries),
                               1.3, 1.0)
    loops = canonicalize_loop(block)
    assert len(loops) == m and all(l.n == k for l in loops)
    indices = sorted((rep_index(l).z for l in loops),
                     key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    # oracle: eigenvalues of W^k are the indices, each with multiplicity k
    eigenvalues = np.linalg.eigvals(np.linalg.matrix_power(block.W, k))
    eigenvalues = sorted(eigenvalues, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    for j, z in enumerate(indices):
        for e in eigenvalues[j * k:(j + 1) * k]:
            assert abs(e - z) < 1e-8
    for loop in loops:
        assert verify_relations(loop).ok(1e-9)


def test_canonicalize_single_loop_gauge():
    rep = construct_loop_rep(LoopSpec(n=7, k=1,
                                      phases=[0.3, -0.1, 0.8, 0.0, 1.2, -2.0, 0.5]),
                             1.4, 1.0)
    canon = canonicalize_loop(rep)
    assert len(canon) == 1
    assert abs(rep_index(canon[0]).z - rep_index(rep).z) < 1e-10


def test_canonicalize_invariant_under_conjugation():
    rng = np.random.default_rng(13)
    m, k = 3, 6
    unitaries = [random_unitary(rng, m) for _ in range(k)]
    block = construct_loop_rep(LoopSpec(n=k, k=1, block_dim=m, unitaries=unitaries),
                               1.5, 1.0)
    perm = rng.permutation(block.n)
    conjugated = Representation(block.W[np.ix_(perm, perm)], block.params, block.regime)
    za = sorted((rep_index(l).z for l in canonicalize_loop(block)),
                key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    zb = sorted((rep_index(l).z for l in canonicalize_loop(conjugated)),
                key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    assert all(abs(a - b) < 1e-10 for a, b in zip(za, zb))


@st.composite
def relabeled_block_loops(draw):
    """(rep, m): a loop of block_dim m with Haar blocks whose holonomy
    eigenvalues lie at least 0.1 apart, under a random relabeling."""
    n = draw(st.integers(5, 40))
    m = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1 and n > 4 * k]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    unitaries = [random_unitary(rng, m) for _ in range(n)]
    eigenvalues = np.linalg.eigvals(functools.reduce(np.matmul, unitaries))
    assume(all(abs(a - b) >= 0.1 for i, a in enumerate(eigenvalues) for b in eigenvalues[:i]))
    spec = LoopSpec(n=n, k=k, beta=draw(st.floats(0, 2 * math.pi)), block_dim=m,
                    unitaries=unitaries)
    rep = construct_loop_rep(spec, (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta), 1.0)
    perm = rng.permutation(rep.n)
    return Representation(rep.W[np.ix_(perm, perm)], rep.params, rep.regime), m


@given(relabeled_block_loops())
def test_canonicalize_matches_dense_conjugation(drawn):
    rep, m = drawn
    loops, reference = canonicalize_loop(rep), dense_canonicalize_loop(rep)
    assert len(loops) == len(reference) == m
    scale = float(np.max(np.abs(rep.W)))
    for loop, ref in zip(loops, reference):
        assert np.max(np.abs(loop.W - ref.W)) <= 1e-12 * scale
        z, z_ref = rep_index(loop), rep_index(ref)
        assert abs(z.log_modulus - z_ref.log_modulus) <= 1e-10
        assert abs(math.remainder(z.phase - z_ref.phase, 2 * math.pi)) <= 1e-10


def test_canonicalize_a_long_single_loop():
    """At N = 40001 the (d, d~) gap between neighbouring classes, about
    12/N^2 max|W|^2, is below CANONICAL_RTOL; its cycle, cut at
    REPEAT_RTOL at vertex 0 alone, still splits whole."""
    rep = construct_loop_rep(LoopSpec(40001, 1, beta=0.3), 1.3, 1.0)
    (loop,) = canonicalize_loop(rep)
    z, z_ref = rep_index(loop), rep_index(rep)
    assert loop.n == rep.n
    assert z.log_modulus == pytest.approx(z_ref.log_modulus, rel=1e-10)
    assert abs(math.remainder(z.phase - z_ref.phase, 2 * math.pi)) <= 1e-10


def _by_matching(rep):
    """canonicalize_loop's loops when the classes come from the (d, d~)
    matching (reference.matching_class_order)."""
    with mock.patch.object(representations, "_class_order", matching_class_order):
        return canonicalize_loop(rep)


def _class_order(rep):
    """canonicalize_loop's class order of rep, at its tolerance."""
    tol = representations.CANONICAL_RTOL * float(np.max(np.abs(rep.vals))) ** 2
    return representations._class_order(rep, *representations._diagonal_data(rep), tol)


def _entries(loops):
    return [(loop.n, loop.rows.tobytes(), loop.cols.tobytes(), loop.vals.tobytes())
            for loop in loops]


@pytest.mark.parametrize("n", [*range(5, 41), 97, 256, 1000, 1999, 3000])
def test_canonicalize_a_single_loop_by_walk_as_by_matching(n):
    """The cycle's classes give the loop the (d, d~) matching gives, bit
    for bit, with random phases and relabeled vertices."""
    rng = np.random.default_rng(n)
    k = 2 if n % 2 and n > 8 else 1
    spec = LoopSpec(n=n, k=k, beta=float(rng.uniform(0, 2 * math.pi)),
                    phases=rng.uniform(0, 2 * math.pi, n))
    rep = construct_loop_rep(spec, 1.3 / math.cos(spec.theta), 1.0)
    relabel = rng.permutation(n)
    relabeled = Representation.from_entries(n, relabel[rep.rows], relabel[rep.cols], rep.vals,
                                            rep.params, rep.regime)
    for r in (rep, relabeled):
        assert _class_order(r) is not None
        assert _entries(canonicalize_loop(r)) == _entries(_by_matching(r))


def test_canonicalize_rejects_a_cycle_off_the_ellipse_map():
    """One cycle entry 1e-3 off moves (d, d~) of its ends off the ellipse
    map's chain: its graph gives no class order, and the matching rejected
    it too."""
    rep = construct_loop_rep(LoopSpec(n=12, k=1, beta=0.3), 1.3, 1.0)
    vals = rep.vals.copy()
    vals[5] *= 1 + 1e-3
    bumped = Representation.from_entries(rep.n, rep.rows, rep.cols, vals, rep.params,
                                         rep.regime)
    assert _class_order(bumped) is None
    for split in (canonicalize_loop, _by_matching):
        with pytest.raises(NotBlockCyclicError):
            split(bumped)


def test_canonicalize_a_block_loop_whose_graph_is_one_cycle():
    """Swap blocks make W one 2k-cycle whose vertex 0 shares its (d, d~)
    with vertex 1: a block loop of block_dim 2, not a single loop.  The
    cycle is cut at vertices 0 and 1 into two k-segments, which give the
    block order, unless an entry parts the two."""
    k = 7
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    spec = LoopSpec(n=k, k=1, beta=0.3, block_dim=2,
                    unitaries=[swap] + [np.eye(2, dtype=complex)] * (k - 1))
    rep = construct_loop_rep(spec, 1.3, 1.0)
    [(walk, closed, _)] = rep._chains
    assert closed and len(walk) == 2 * k
    order, m = _class_order(rep)
    assert m == 2 and np.array_equal(order, np.arange(2 * k))
    loops = canonicalize_loop(rep)
    assert [loop.n for loop in loops] == [k, k]
    assert _entries(loops) == _entries(_by_matching(rep))
    # entry 0 scaled by 1 + 1e-8 parts vertices 0 and 1 by more than
    # REPEAT_RTOL: the cycle is cut at vertex 0 alone, one 2k-loop, as the
    # cyclic reading took it; entry 2 leaves them together
    for at, sizes in ((0, [2 * k]), (2, [k, k])):
        vals = rep.vals.copy()
        vals[at] *= 1 + 1e-8
        scaled = Representation.from_entries(rep.n, rep.rows, rep.cols, vals, rep.params,
                                             rep.regime)
        loops = canonicalize_loop(scaled)
        assert [loop.n for loop in loops] == sizes
        with mock.patch.object(representations, "_class_order",
                               reading_or_matching_class_order):
            assert _entries(canonicalize_loop(scaled)) == _entries(loops)


def test_the_operands_and_the_split_read_one_cyclic_reading():
    """A loop, a string and a block loop at N >= 48 are multiplied on the
    very _Shifts of their cyclic reading.  The split takes its classes from
    that reading on offset 1 at m >= 2, and from cut cycles where W's graph
    is cycles only, as the swap-block one-cycle W and a block loop of
    diagonal blocks (two k-cycles) are; it takes none from a string (a path).
    2 x 2 ones blocks on the diagonal (offset 0) are 32 one-class cycles cut
    into one class of 64, as the matching found it, which is not unitary."""
    n = 64
    loop = construct_loop_rep(LoopSpec(n=n, k=1, beta=0.3), 1.3, 1.0)
    string = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, 0.9, 1.0),
                                             mu=0.9))
    block = _block_loop(np.random.default_rng(4), n // 2, 1, 2, 0.3, 1.3)
    for rep in (loop, string, block):
        [(_, part)] = representations._parts(rep)
        assert [part] == rep._cyclic[1] and part is rep._cyclic[1][0]
        assert all(not x.flags.writeable for x in part.terms.values())
    assert list(string._cyclic[1][0].terms) == [1] and _class_order(string) is None
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    one_cycle = construct_loop_rep(LoopSpec(n=7, k=1, beta=0.3, block_dim=2,
                                            unitaries=[swap] + [np.eye(2)] * 6), 1.3, 1.0)
    assert one_cycle._cyclic[1][0].m == 1 and _class_order(one_cycle)[1] == 2
    phases = np.exp(1j * np.random.default_rng(4).uniform(0, 2 * math.pi, (n // 2, 2)))
    diagonal_blocks = construct_loop_rep(LoopSpec(n=n // 2, k=1, beta=0.3, block_dim=2,
                                                  unitaries=list(map(np.diag, phases))),
                                         1.3, 1.0)
    assert [len(walk) for walk, closed, _ in diagonal_blocks._chains if closed] == [n // 2] * 2
    order, m = _class_order(diagonal_blocks)
    assert m == 2 and np.array_equal(order, np.arange(n))
    diagonal = Representation.from_entries(n, np.repeat(np.arange(n), 2),
                                           (np.arange(2 * n) // 4) * 2 + np.arange(2 * n) % 2,
                                           np.ones(2 * n), loop.params, loop.regime)
    [part] = diagonal._cyclic[1]
    assert list(part.terms) == [0] and part.m == 2
    order, m = _class_order(diagonal)
    assert m == n and np.array_equal(order, np.arange(n))
    for split in (canonicalize_loop, _by_matching):
        with pytest.raises(NotBlockCyclicError, match="not proportional to a unitary"):
            split(diagonal)


@st.composite
def block_loops_to_split(draw):
    """A block loop with m = 2 or 3 and k = 5..3000 blocks (Haar blocks,
    mu = 1.1 or 1.3), left alone, relabeled, or with one entry scaled by
    1 + delta, delta in {1e-3, 1e-6, 3e-8, 1e-9}."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.sampled_from([2, 3]))
    n = draw(st.one_of(st.integers(5, 60), st.integers(61, 3000)))
    rep = _block_loop(rng, n, 1, m, draw(st.floats(0, 2 * math.pi)),
                      draw(st.sampled_from([1.1, 1.3])))
    rows, cols, vals = rep.rows, rep.cols, rep.vals.copy()
    change = draw(st.sampled_from(["none", "relabel", "scale"]))
    if change == "relabel":
        perm = rng.permutation(rep.n)
        rows, cols = perm[rows], perm[cols]
    elif change == "scale":
        vals[draw(st.integers(0, len(vals) - 1))] *= 1 + draw(st.sampled_from(
            [1e-3, 1e-6, 3e-8, 1e-9]))
    return Representation.from_entries(rep.n, rows, cols, vals, rep.params, rep.regime)


def _split(rep):
    """canonicalize_loop's loops as bytes, or its exception's type and text."""
    try:
        return _entries(canonicalize_loop(rep))
    except NotBlockCyclicError as error:
        return type(error), str(error)


@settings(max_examples=40, deadline=None)
@given(block_loops_to_split())
def test_canonicalize_a_block_loop_by_block_order_as_by_matching(drawn):
    """Where the (d, d~) matching splits a block loop, the block order
    splits it into the same loops, byte for byte; where the block order
    rejects it, the matching rejects it too.  The block order may split
    what the matching rejects: with one entry scaled, vertex 0's window can
    lose its classes (hypothesis seed 1, k = 5, m = 3).  A relabeled block
    loop takes its block order from its vertex classes.  ``drawn`` is split
    as it is, and by the matching alone (reference.matching_class_order)."""
    by_block_order = _split(drawn)
    with mock.patch.object(representations, "_class_order", matching_class_order):
        by_matching = _split(drawn)
    if by_matching[0] is not NotBlockCyclicError:
        assert by_block_order == by_matching
    if by_block_order[0] is NotBlockCyclicError:
        assert by_matching[0] is NotBlockCyclicError


def test_canonicalize_takes_a_block_loop_in_block_order_in_any_vertex_order():
    """A relabeled block loop is split in the order of its vertex classes,
    into the matching's loops byte for byte."""
    rng = np.random.default_rng(11)
    rep = _block_loop(rng, 128, 1, 2, 0.3, 1.3)
    perm = rng.permutation(rep.n)
    relabeled = Representation.from_entries(rep.n, perm[rep.rows], perm[rep.cols], rep.vals,
                                            rep.params, rep.regime)
    order, m = _class_order(rep)
    assert m == 2 and np.array_equal(order, np.arange(rep.n))
    order, m = _class_order(relabeled)
    assert m == 2 and np.array_equal(order, relabeled._cyclic[0])
    loops = canonicalize_loop(relabeled)
    assert [loop.n for loop in loops] == [128, 128]
    assert _entries(loops) == _entries(_by_matching(relabeled))


def test_canonicalize_splits_the_ci_block_loop_in_block_order_as_by_matching():
    """The block loop of 5 10^4 blocks (m = 2, winding 11) that CI splits:
    its blocks follow s, and its split in block order is the matching's
    byte for byte."""
    k, m = 5 * 10 ** 4, 2
    spec = LoopSpec(n=k, k=11, beta=0.3, block_dim=m,
                    unitaries=list(_haar_blocks(np.random.default_rng(1), m, k)))
    rep = construct_loop_rep(spec, 1.3, 1.0)
    assert _class_order(rep)[1] == m
    by_block_order = _entries(canonicalize_loop(rep))
    assert _entries(_by_matching(rep)) == by_block_order


def test_canonicalize_splits_a_block_loop_in_block_order_where_classes_crowd():
    """At 2.5 10^4 blocks of winding 1, vertex classes near the ends of the
    weight range lie within each other's match window.  In block order the
    loop splits, certified by the holonomy, unitarity and rebuild checks,
    into two loops that satisfy the relations, and so does a relabeled copy
    in the order of its vertex classes; the matching finds 4 vertices where
    it expects 2."""
    k, m = 25000, 2
    rng = np.random.default_rng(1)
    rep = _block_loop(rng, k, 1, m, 0.3, 1.3)
    assert _class_order(rep)[1] == m
    loops = canonicalize_loop(rep)
    assert [loop.n for loop in loops] == [k, k]
    for loop in loops:
        report = verify_relations(loop)
        assert max(report.residual_wwd, report.intertwine_residual, report.residual_yz,
                   report.residual_zx) <= 1e-15
        # residual_casimir sits on its eps/hbar roundoff floor at this N (ROADMAP item 4)
        assert report.residual_casimir <= 1e-8
    perm = rng.permutation(rep.n)
    relabeled = Representation.from_entries(rep.n, perm[rep.rows], perm[rep.cols], rep.vals,
                                            rep.params, rep.regime)
    assert [loop.n for loop in canonicalize_loop(relabeled)] == [k, k]
    with pytest.raises(NotBlockCyclicError, match="found 4"):
        _by_matching(relabeled)


def test_canonicalize_rejects_a_sum_of_loops_on_one_orbit():
    # the ellipse map returns to vertex 0 after 5 steps and never reaches the
    # second loop's vertices
    a, b = (construct_loop_rep(LoopSpec(n=5, k=1, beta=beta), 1.3, 1.0) for beta in (0.1, 0.5))
    with pytest.raises(NotBlockCyclicError, match="no vertex classes"):
        canonicalize_loop(direct_sum([a, b]))
    with pytest.raises(NotBlockCyclicError, match="do not partition"):
        _by_matching(direct_sum([a, b]))
    assert len(canonicalize_loop(direct_sum([a, a]))) == 2


def _block_diagonal(rng, sizes, count):
    """count unitaries whose diagonal blocks are Haar unitaries of ``sizes``."""
    blocks = np.zeros((count, sum(sizes), sum(sizes)), dtype=complex)
    for at, size in zip(np.cumsum(sizes) - sizes, sizes):
        blocks[:, at:at + size, at:at + size] = _haar_blocks(rng, size, count)
    return list(blocks)


@st.composite
def reps_to_split(draw):
    """(rep, base, change): a W of one of the families whose classes
    canonicalize_loop reads off its graph: a loop, a + a, a + a + a, a + b
    (loops of k vertices), a block loop of k blocks of monomial (m = 2, 3),
    diagonal (m = 2), block-diagonal (1 + 2, 2 + 2) or Haar (m = 2 and
    9..12) blocks, a loop plus a Haar block loop (m = 2, 3) of one beta, a
    Haar block loop plus itself (m = 2), k in {5, 12, 50}, or a degenerate
    rep sqrt(mu) U of a Haar U, N = 3..20.  ``base`` is left alone or
    relabeled; ``rep`` is base, or base given one entry of 1e-12 max|W| off
    its pattern or one entry scaled by 1 + delta, delta in {1e-9, 3e-9,
    1e-8} (``change`` "off pattern" or the delta)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["loop", "a + a", "a + a + a", "a + b", "monomial",
                                   "diagonal", "block-diagonal", "haar", "wide haar",
                                   "loop + block loop", "block loop + block loop",
                                   "degenerate"]))
    k, mu = draw(st.sampled_from([5, 12, 50])), draw(st.sampled_from([1.1, 1.3]))

    def loop(m=1, unitaries=None, beta=draw(st.floats(0, 2 * math.pi))):
        spec = LoopSpec(n=k, k=1, beta=beta, block_dim=m, unitaries=unitaries)
        return construct_loop_rep(spec, mu / math.cos(spec.theta), 1.0)

    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, (k, 3)))
    if family in ("loop", "a + a", "a + a + a"):
        rep = direct_sum([loop()] * (family.count("a") or 1))
    elif family == "a + b":
        rep = direct_sum([loop(), loop(beta=draw(st.floats(0, 2 * math.pi)))])
    elif family == "monomial":
        m = draw(st.sampled_from([2, 3]))
        rep = loop(m, [np.eye(m)[rng.permutation(m)] * phases[l, :m] for l in range(k)])
    elif family == "diagonal":
        rep = loop(2, [np.diag(phases[l, :2]) for l in range(k)])
    elif family == "block-diagonal":
        sizes = draw(st.sampled_from([(1, 2), (2, 2)]))
        rep = loop(sum(sizes), _block_diagonal(rng, sizes, k))
    elif family == "loop + block loop":
        m = draw(st.sampled_from([2, 3]))
        rep = direct_sum([loop(), loop(m, list(_haar_blocks(rng, m, k)))])
    elif family == "block loop + block loop":
        rep = direct_sum([loop(2, list(_haar_blocks(rng, 2, k)))] * 2)
    elif family == "degenerate":
        rep = construct_degenerate_rep(mu, random_unitary(rng, draw(st.integers(3, 20))))
    else:
        m = 2 if family == "haar" else draw(st.integers(9, 12))
        rep = loop(m, list(_haar_blocks(rng, m, k)))
    rows, cols, vals = rep.rows, rep.cols, rep.vals.copy()
    if draw(st.booleans()):
        perm = rng.permutation(rep.n)
        rows, cols = perm[rows], perm[cols]
    base = Representation.from_entries(rep.n, rows, cols, vals, rep.params, rep.regime)
    change = draw(st.sampled_from(["none", "off pattern", 1e-9, 3e-9, 1e-8]))
    if change == "off pattern" and len(vals) < rep.n ** 2:
        at = rng.choice(np.flatnonzero(base.W.ravel() == 0))
        rows, cols = np.append(rows, at // rep.n), np.append(cols, at % rep.n)
        vals = np.append(vals, 1e-12 * np.max(np.abs(vals)))
    elif isinstance(change, float):
        vals[rng.integers(len(vals))] *= 1 + change
    return Representation.from_entries(rep.n, rows, cols, vals, rep.params, rep.regime), \
        base, change


@settings(max_examples=200, deadline=None)
@given(reps_to_split())
def test_canonicalize_splits_what_the_matching_split_byte_for_byte(drawn):
    """Where the class source canonicalize_loop had before its (d, d~)
    matching was deleted (the cyclic reading, else the matching: reference.
    reading_or_matching_class_order) splits W, W's graph gives the same
    loops byte for byte; where it rejects W, so does the graph, but for one
    entry scaled by 1 + 1e-8.  That can move a classmate of vertex 0 out of
    the matching's window, where the graph keeps the class whole (a class of
    more than 8 vertices, which had no reading, or of several graph classes;
    see the degenerate N = 9 below).  Such a split must then be the
    unscaled W's, to within the scaling."""
    rep, base, change = drawn
    with mock.patch.object(representations, "_class_order", reading_or_matching_class_order):
        reference = _split(rep)
    split = _split(rep)
    if reference[0] is not NotBlockCyclicError:
        assert split == reference
    elif split[0] is not NotBlockCyclicError:
        assert change == 1e-8
        unscaled = canonicalize_loop(base)
        assert [(loop.n, loop.rows.tobytes(), loop.cols.tobytes()) for loop in unscaled] \
            == [(n, rows, cols) for n, rows, cols, _ in split]
        for loop, (_, _, _, vals) in zip(unscaled, split):
            assert np.allclose(np.frombuffer(vals, dtype=complex), loop.vals, rtol=0, atol=1e-7)


def test_canonicalize_splits_a_loop_plus_a_block_loop_and_block_diagonal_blocks():
    """A loop plus a block loop of m = 2 (one beta) has classes of 1 + 2
    vertices, from two cycles of graph classes of 1 and of 2; a block loop
    of block-diagonal 1 + 2 unitaries too, from one W.  Both split into 3
    loops, in stored order and relabeled, as the matching split them."""
    rng = np.random.default_rng(2)
    spec = LoopSpec(n=12, k=1, beta=0.3)
    a = construct_loop_rep(spec, 1.3, 1.0)
    block = construct_loop_rep(dataclasses.replace(
        spec, block_dim=2, unitaries=list(_haar_blocks(rng, 2, 12))), 1.3, 1.0)
    block_diagonal = construct_loop_rep(dataclasses.replace(
        spec, block_dim=3, unitaries=_block_diagonal(rng, (1, 2), 12)), 1.3, 1.0)
    for rep in (direct_sum([a, block]), block_diagonal):
        perm = rng.permutation(rep.n)
        relabeled = Representation.from_entries(rep.n, perm[rep.rows], perm[rep.cols],
                                                rep.vals, rep.params, rep.regime)
        for r in (rep, relabeled):
            assert _class_order(r)[1] == 3
            loops = canonicalize_loop(r)
            assert [loop.n for loop in loops] == [12] * 3
            assert _entries(loops) == _entries(_by_matching(r))


def test_canonicalize_splits_a_degenerate_rep_of_9_with_an_entry_scaled():
    """sqrt(mu) U, N = 9, is one class of 9 vertices, which the matching
    took: with entry 35 scaled by 1 + 1e-8 its window about vertex 0 lost
    classmates, and it found no classes that tile.  Its graph's reading
    splits it into 9 one-vertex loops, as it splits every N <= 8."""
    rep = construct_degenerate_rep(1.3, random_unitary(np.random.default_rng(0), 9))
    vals = rep.vals.copy()
    vals[35] *= 1 + 1e-8
    scaled = Representation.from_entries(9, rep.rows, rep.cols, vals, rep.params, rep.regime)
    with pytest.raises(NotBlockCyclicError, match="do not tile"):
        _by_matching(scaled)
    assert [loop.n for loop in canonicalize_loop(scaled)] == [1] * 9
    assert _entries(canonicalize_loop(rep)) == _entries(_by_matching(rep))


@pytest.mark.parametrize("delta, splits", [(3e-9, True), (1e-6, False)])
def test_canonicalize_verdict_does_not_depend_on_the_scaled_row(delta, splits):
    """One entry scaled by 1 + delta: a 50-loop and a block loop (k = 25,
    Haar 2 x 2 blocks) split for every row at 3e-9 and are rejected for
    every row at 1e-6.  Chaining the ellipse map from vertex 0 rejected
    rows 0 and 49 at 3e-9, since an error there rode along every step.  The
    single loop's walk takes every row it splits, with the matching's bound."""
    rng = np.random.default_rng(0)
    loop = construct_loop_rep(LoopSpec(n=50, k=1, beta=0.3), 1.3, 1.0)
    block = construct_loop_rep(LoopSpec(n=25, k=1, beta=0.3, block_dim=2,
                                        unitaries=[random_unitary(rng, 2) for _ in range(25)]),
                               1.3, 1.0)
    for rep in (loop, block):
        verdicts = []
        for at in range(len(rep.vals)):
            vals = rep.vals.copy()
            vals[at] *= 1 + delta
            scaled = Representation.from_entries(rep.n, rep.rows, rep.cols, vals, rep.params,
                                                 rep.regime)
            try:
                canonicalize_loop(scaled)
                verdicts.append(True)
            except NotBlockCyclicError:
                verdicts.append(False)
            if rep is loop:
                assert (_class_order(scaled) is not None) == verdicts[-1]
        assert verdicts == [splits] * len(rep.vals)


def test_canonicalize_rejects_strings():
    theta = solve_string_theta(6, 0.5, 1.0)
    string = construct_string_rep(StringSpec(n=6, theta=theta, mu=0.5))
    with pytest.raises(NotBlockCyclicError):
        canonicalize_loop(string)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_reps_equivalent_reflexive_and_shifted_beta():
    rep = construct_loop_rep(LoopSpec(n=7, k=1, beta=0.21), 1.5, 1.0)
    assert reps_equivalent(rep, rep)
    shifted = construct_loop_rep(LoopSpec(n=7, k=1, beta=0.21 + 2 * math.pi / 7),
                                 1.5, 1.0)
    assert reps_equivalent(rep, shifted)


def test_reps_equivalent_detects_different_beta():
    a = construct_loop_rep(LoopSpec(n=7, k=1, beta=0.05), 1.5, 1.0)
    b = construct_loop_rep(LoopSpec(n=7, k=1, beta=0.25), 1.5, 1.0)
    assert not reps_equivalent(a, b)


def test_reps_equivalent_strings_by_casimir():
    theta = solve_string_theta(8, 0.6, 1.0)
    a = construct_string_rep(StringSpec(n=8, theta=theta, mu=0.6))
    b = construct_string_rep(StringSpec(n=8, theta=theta, mu=0.6,
                                        phases=[0.4] * 7))
    assert reps_equivalent(a, b)


def test_reps_equivalent_mixed_kinds():
    # critical toral regime: loops and strings coexist in the same algebra
    mu, theta = 1.2, math.pi / 7
    c = mu ** 2 * math.cos(theta) ** 2
    loop = construct_loop_rep(LoopSpec(n=7, k=1), mu, c)
    string = construct_string_rep(StringSpec(n=7, theta=theta, mu=mu))
    with pytest.raises(MixedKindsError):
        reps_equivalent(loop, string)


def test_reps_equivalent_rejects_what_is_not_one_loop_or_string():
    """A direct sum, a sum in a non-permutation basis and a loop with one
    entry off its cycle raise before any Casimir is compared."""
    mu, theta = 1.2, math.pi / 7
    c = mu ** 2 * math.cos(theta) ** 2
    loop = construct_loop_rep(LoopSpec(n=7, k=1), mu, c)
    string = construct_string_rep(StringSpec(n=7, theta=theta, mu=mu))
    U = random_unitary(np.random.default_rng(7), 14)
    pair = direct_sum([loop, loop])
    haar = Representation(U @ pair.W @ U.conj().T, pair.params, pair.regime)
    W = loop.W.copy()
    W[0, 3] = 1e-3 * np.max(np.abs(W))
    bumped = Representation(W, loop.params, loop.regime)
    for other in (direct_sum([loop, string]), haar, bumped):
        for a, b in ((loop, other), (other, loop), (other, other)):
            with pytest.raises(NotSingleLoopError):
                reps_equivalent(a, b)


def test_reps_equivalent_rejects_different_algebras():
    a = construct_loop_rep(LoopSpec(n=7, k=1), 1.5, 1.0)
    b = construct_loop_rep(LoopSpec(n=8, k=1), 1.5, 1.0)
    with pytest.raises(ValueError):
        reps_equivalent(a, b)


def test_reps_equivalent_tells_tiny_indices_apart():
    # |z| is about 1e-41, so z differs by far less than 1e-10 between the two
    a, b = (construct_loop_rep(LoopSpec(n=30, k=1, phases=[phase] + [0.0] * 29), 2e-3, 1e-6)
            for phase in (0.0, 1.0))
    assert abs(rep_index(a).z) < 1e-40
    assert reps_equivalent(a, a) and reps_equivalent(b, b)
    assert not reps_equivalent(a, b)


def test_reps_equivalent_gauge_pairs_at_large_n():
    # |z| is about 3e3 at n = 256, where rounding alone moves z by more than 1e-10
    rng = random.Random(256)
    n, mu = 256, 1.3
    for _ in range(20):
        k = rng.choice([1, 3, 5, 7])
        beta = rng.uniform(0, 2 * math.pi)
        phases = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
        moved = [rng.uniform(0, 2 * math.pi) for _ in range(n - 1)]
        moved.append(sum(phases) - sum(moved))
        a = construct_loop_rep(LoopSpec(n=n, k=k, beta=beta, phases=phases), mu, 1.0)
        b = construct_loop_rep(LoopSpec(n=n, k=k, beta=beta + 2 * math.pi / n, phases=moved),
                               mu, 1.0)
        assert reps_equivalent(a, b)


@st.composite
def rep_pairs(draw):
    """Two loops or two strings of one algebra, with Casimirs equal, 1e-6
    apart or 50% apart, and equal or different indices."""
    c_a = draw(st.floats(0.1, 4.0))
    c_b = draw(st.sampled_from([c_a, c_a * (1 + 1e-6), c_a * 1.5]))
    if draw(st.booleans()):
        spec, mu = draw(loop_specs(n_max=40))
        n = spec.n
        moved = draw(st.lists(st.floats(0, 2 * math.pi), min_size=n - 1, max_size=n - 1))
        other = draw(st.sampled_from([
            spec,
            LoopSpec(n=n, k=spec.k, beta=spec.beta + 2 * math.pi / n,
                     phases=moved + [sum(spec.phases) - sum(moved)]),
            LoopSpec(n=n, k=spec.k, beta=spec.beta,
                     phases=[spec.phases[0] + 0.5] + list(spec.phases[1:]))]))
        mu *= math.sqrt(max(c_a, c_b))
        return construct_loop_rep(spec, mu, c_a), construct_loop_rep(other, mu, c_b)
    n = draw(st.integers(3, 40))
    phases = [draw(st.lists(st.floats(0, 2 * math.pi), min_size=n - 1, max_size=n - 1))
              for _ in range(2)]
    if draw(st.booleans()):      # mu = 0 leaves c free
        return tuple(construct_string_rep(StringSpec(n=n, theta=math.pi / (2 * n), mu=0.0,
                                                     c=c, phases=p))
                     for c, p in zip((c_a, c_b), phases))
    mu = draw(st.floats(0.3, 0.95))
    theta = solve_string_theta(n, mu, 1.0)
    return tuple(construct_string_rep(StringSpec(n=n, theta=theta, mu=mu, phases=p))
                 for p in phases)


@given(rep_pairs())
def test_reps_equivalent_matches_the_verify_relations_casimir(pair):
    a, b = pair
    for rep in pair:
        assert representations._casimir(rep) == pytest.approx(
            verify_relations(rep).c_estimate, rel=1e-12)
    assert reps_equivalent(a, b) == reps_equivalent_reference(a, b)
    assert reps_equivalent(b, a) == reps_equivalent_reference(b, a)


# ---------------------------------------------------------------------------
# f(beta)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(7, 2), (9, 4)])
def test_f_beta_symmetries(n, k):
    rng = random.Random(3)
    for _ in range(10):
        beta = rng.uniform(-3, 3)
        f0 = f_beta(beta, n, k, 1.3, 1.0)
        tol = 1e-12 * max(1.0, abs(f0))
        assert abs(f0 - f_beta(beta + 2 * math.pi / n, n, k, 1.3, 1.0)) < tol
        assert abs(f0 - f_beta(2 * math.pi / n - beta, n, k, 1.3, 1.0)) < tol


@pytest.mark.parametrize("n,k", [(7, 2), (9, 4)])
def test_f_beta_closed_form_residual_constant(n, k):
    rng = random.Random(5)
    base = f_beta_residual(0.1, n, k, 1.3, 1.0)
    for _ in range(10):
        value = f_beta_residual(rng.uniform(-3, 3), n, k, 1.3, 1.0)
        assert abs(value - base) < 1e-12 * max(1.0, abs(base))


def test_f_beta_past_the_double_range_raises_with_the_log():
    expected = float(np.sum(np.log(loop_weights(400, 1, 0.3, 10.0, 1.0))))
    assert expected > math.log(np.finfo(float).max)
    for fn in (f_beta, f_beta_residual):
        with pytest.raises(OverflowError, match=r"log\|f\| = sum log\|factor\|") as excinfo:
            fn(0.3, 400, 1, 10.0, 1.0)
        assert float(str(excinfo.value).rsplit("= ", 1)[1]) == pytest.approx(expected, rel=1e-12)


def test_f_beta_strictly_monotone_on_fundamental_domain():
    n, k = 7, 1
    values = [f_beta(b, n, k, 1.5, 1.0)
              for b in np.linspace(0, math.pi / n, 9)]
    diffs = np.diff(values)
    assert np.all(diffs > 0) or np.all(diffs < 0)
