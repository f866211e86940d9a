import cmath
import functools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse import csr_array

from ncsurface import representations
from ncsurface.representations import (EllipsePoint, LoopSpec, MatrixGraph, MixedKindsError,
                                       NegativeMuError, NonPositiveWeightError,
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
from reference import (chain_kind, dense_canonicalize_loop, dense_verify_relations, reachability,
                       reps_equivalent_reference)


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
            with pytest.raises(NotBlockCyclicError, match="outside the cyclic band"):
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_verify_accepts_exact_loops_and_strings_at_n_1e5():
    """residual_casimir of an exact loop or string grows like N (the eps /
    hbar^2 roundoff floor) and passes tol 1e-10 near N = 2 10^4."""
    assert all(verify_relations(rep).ok() for rep in _large_loop_and_string(10 ** 5))


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


def test_verify_sensitive_to_perturbation():
    rep = construct_loop_rep(LoopSpec(n=10, k=1), 1.4, 1.0)
    W = rep.W.copy()
    W[2, 3] += 1e-3
    bumped = Representation(W, rep.params, rep.regime)
    assert verify_relations(bumped).residual_wwd > 1e-6


# ---------------------------------------------------------------------------
# verification on dense and CSR operands
# ---------------------------------------------------------------------------

RESIDUALS = ("residual_wwd", "residual_casimir", "intertwine_residual", "residual_yz",
             "residual_zx")


@st.composite
def altered_reps(draw, n_min, n_max):
    """(rep, perturbed): a loop with coprime k, a string or a block loop
    (m = 2, 3) of dimension n_min..n_max, left alone, randomly relabeled, or
    with one entry of W perturbed on or off its pattern."""
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
    return Representation(W, rep.params, rep.regime), change.endswith("pattern")


@given(altered_reps(3, 95))
def test_verify_below_the_crossover_is_the_dense_evaluation(drawn):
    rep, _ = drawn
    assert isinstance(representations._operands(rep.W)[1], np.ndarray)
    assert verify_relations(rep) == dense_verify_relations(rep)


@settings(max_examples=12)
@given(altered_reps(96, 300))
def test_verify_on_csr_operands_matches_the_dense_evaluation(drawn):
    rep, perturbed = drawn
    # one entry per row and column: a loop or string, relabeled or not, on
    # shift-diagonal operands; a block loop or an entry off the pattern on CSR
    chain = max(np.bincount(rep.rows).max(), np.bincount(rep.cols).max()) == 1
    kind = type(representations._operands(rep)[1])
    assert kind is (representations._Shifts if chain else csr_array)
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
    roundoff floor, about 2e-13 at N = 200 (ROADMAP item 2), where two
    summation orders differ by more than 1e-14: there both are within ok()."""
    rep, perturbed = drawn
    with mock.patch.object(representations, "_DENSE_BELOW", 0):
        assert isinstance(representations._operands(rep)[1], representations._Shifts)
        report = verify_relations(rep)
    dense = dense_verify_relations(rep)
    assert report.ok() == dense.ok() == (not perturbed)
    assert report.c_estimate == pytest.approx(dense.c_estimate, rel=1e-12)
    for name in RESIDUALS if perturbed else set(RESIDUALS) - {"residual_casimir"}:
        assert getattr(report, name) == pytest.approx(getattr(dense, name), rel=1e-9,
                                                      abs=1e-14)


def test_verify_keeps_a_dense_filled_w_dense():
    rep = construct_degenerate_rep(1.7, random_unitary(np.random.default_rng(3), 128))
    assert isinstance(representations._operands(rep.W)[1], np.ndarray)
    assert verify_relations(rep) == dense_verify_relations(rep)


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
    read, w = representations._single_chain(rep)
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


def test_decompose_permuted_blocks():
    loop = construct_loop_rep(LoopSpec(n=5, k=1), 1.3, 1.0)
    string = construct_string_rep(StringSpec(n=3, theta=math.pi / 6, mu=0.0, c=1.0))
    combo = direct_sum([loop, string])
    perm = np.random.default_rng(11).permutation(8)
    scrambled = Representation(combo.W[np.ix_(perm, perm)], combo.params, combo.regime)
    assert sorted(p.n for p in decompose(scrambled)) == [3, 5]


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
    rep, perturbed = drawn
    residual = edge_consistency_residual(rep)
    assert residual == _per_edge_consistency_residual(rep)
    if perturbed:
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
    12/N^2 max|W|^2, is below CANONICAL_RTOL; the walk still splits it."""
    rep = construct_loop_rep(LoopSpec(40001, 1, beta=0.3), 1.3, 1.0)
    (loop,) = canonicalize_loop(rep)
    z, z_ref = rep_index(loop), rep_index(rep)
    assert loop.n == rep.n
    assert z.log_modulus == pytest.approx(z_ref.log_modulus, rel=1e-10)
    assert abs(math.remainder(z.phase - z_ref.phase, 2 * math.pi)) <= 1e-10


def _without_walk(monkeypatch, rep):
    """canonicalize_loop's loops when the classes come from (d, d~) matching."""
    with monkeypatch.context() as patch:
        patch.setattr(representations, "_single_loop_walk", lambda rep, d, dt: None)
        return canonicalize_loop(rep)


def _entries(loops):
    return [(loop.n, loop.rows.tobytes(), loop.cols.tobytes(), loop.vals.tobytes())
            for loop in loops]


@pytest.mark.parametrize("n", [*range(5, 41), 97, 256, 1000, 1999, 3000])
def test_canonicalize_a_single_loop_by_walk_as_by_matching(monkeypatch, n):
    """The walk's classes give the loop the (d, d~) matching gives, bit for
    bit, with random phases and relabeled vertices."""
    rng = np.random.default_rng(n)
    k = 2 if n % 2 and n > 8 else 1
    spec = LoopSpec(n=n, k=k, beta=float(rng.uniform(0, 2 * math.pi)),
                    phases=rng.uniform(0, 2 * math.pi, n))
    rep = construct_loop_rep(spec, 1.3 / math.cos(spec.theta), 1.0)
    relabel = rng.permutation(n)
    relabeled = Representation.from_entries(n, relabel[rep.rows], relabel[rep.cols], rep.vals,
                                            rep.params, rep.regime)
    for r in (rep, relabeled):
        assert representations._single_loop_walk(r, *representations._diagonal_data(r)) is not None
        assert _entries(canonicalize_loop(r)) == _entries(_without_walk(monkeypatch, r))


def test_canonicalize_rejects_a_cycle_off_the_ellipse_map():
    """One cycle entry 1e-3 off moves (d, d~) of its ends off the ellipse
    map's chain: the walk does not take it, and the matching rejects it."""
    rep = construct_loop_rep(LoopSpec(n=12, k=1, beta=0.3), 1.3, 1.0)
    vals = rep.vals.copy()
    vals[5] *= 1 + 1e-3
    bumped = Representation.from_entries(rep.n, rep.rows, rep.cols, vals, rep.params,
                                         rep.regime)
    assert representations._single_loop_walk(bumped,
                                             *representations._diagonal_data(bumped)) is None
    with pytest.raises(NotBlockCyclicError):
        canonicalize_loop(bumped)


def test_canonicalize_a_block_loop_whose_graph_is_one_cycle(monkeypatch):
    """Swap blocks make W one 2k-cycle whose vertex 0 shares its (d, d~)
    with vertex k: a block loop of block_dim 2, not a single loop."""
    k = 7
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    spec = LoopSpec(n=k, k=1, beta=0.3, block_dim=2,
                    unitaries=[swap] + [np.eye(2, dtype=complex)] * (k - 1))
    rep = construct_loop_rep(spec, 1.3, 1.0)
    [(walk, closed, _)] = rep._chains
    assert closed and len(walk) == 2 * k
    assert representations._single_loop_walk(rep, *representations._diagonal_data(rep)) is None
    loops = canonicalize_loop(rep)
    assert [loop.n for loop in loops] == [k, k]
    assert _entries(loops) == _entries(_without_walk(monkeypatch, rep))


def test_canonicalize_rejects_a_sum_of_loops_on_one_orbit():
    # the ellipse map returns to vertex 0 after 5 steps and never reaches the
    # second loop's vertices
    a, b = (construct_loop_rep(LoopSpec(n=5, k=1, beta=beta), 1.3, 1.0) for beta in (0.1, 0.5))
    with pytest.raises(NotBlockCyclicError, match="do not partition"):
        canonicalize_loop(direct_sum([a, b]))
    assert len(canonicalize_loop(direct_sum([a, a]))) == 2


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
                walk = representations._single_loop_walk(
                    scaled, *representations._diagonal_data(scaled))
                assert (walk is not None) == verdicts[-1]
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
