import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncsurface.representations import (EllipsePoint, InconsistentGraphError,
                                       LoopSpec, MatrixGraph, MixedKindsError,
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
                                       graph_classify, loop_weights, matrix_graph,
                                       rep_index, representation_kind,
                                       reps_equivalent, solve_string_theta,
                                       string_weights, verify_relations)
from ncsurface.spectra import position_spectrum


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


def test_loop_rep_hermitian_generators():
    rep = construct_loop_rep(LoopSpec(n=12, k=1, beta=0.4), 1.5, 1.0)
    for H in (rep.phi_X, rep.phi_Y, rep.phi_Z):
        assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_loop_requires_positive_weights():
    with pytest.raises(NonPositiveWeightError):
        construct_loop_rep(LoopSpec(n=30, k=1), 0.9, 1.0)


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


@pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
def test_rep_index_bounds_the_mass_below_zero_tol(lam):
    rep = construct_loop_rep(LoopSpec(n=9, k=2, beta=0.3), 1.6, 1.0)
    rep = Representation(lam * rep.W, rep.params, rep.regime)
    zero_tol = 1e-9 * float(np.max(np.abs(rep.W)))
    for size, single_loop in ((0.9 * zero_tol, False), (1e-15 * lam, True)):
        W = rep.W.copy()
        W[0, 5] = size
        bumped = Representation(W, rep.params, rep.regime)
        assert matrix_graph(W).edges == matrix_graph(rep.W).edges
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
    d = np.real(np.diag(rep.D))
    dt = np.real(np.diag(rep.D_tilde))
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
    assert np.allclose(rep.D, 4 * np.eye(3)) and np.allclose(rep.D_tilde, 4 * np.eye(3))
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
    """(rep, a rep equivalent to it, one that is not or None, lam) for a loop or a string."""
    lam = draw(st.sampled_from([1e-3, 1e3]) | st.floats(-3, 3).map(lambda e: 10 ** e))
    if draw(st.booleans()):
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


@given(scaled_pairs())
def test_verdicts_are_scale_invariant(drawn):
    rep, twin, other, lam = drawn
    big = _scaled(rep, lam)
    assert verify_relations(rep).ok() and verify_relations(big).ok()
    p = big.params
    assert classify_regime(p.mu, p.c, p.theta) == classify_regime(rep.params.mu, rep.params.c,
                                                                  p.theta)
    assert position_spectrum(big).branch_pattern() == position_spectrum(rep).branch_pattern()
    assert reps_equivalent(big, _scaled(twin, lam)) and reps_equivalent(rep, twin)
    if other is not None:
        assert not reps_equivalent(big, _scaled(other, lam))
        assert not reps_equivalent(rep, other)
        shift = rep.n * math.log(lam)
        assert rep_index(big).log_modulus == pytest.approx(rep_index(rep).log_modulus + shift,
                                                           abs=1e-11)
    W = rep.W.copy()
    W[0, 0] += 1e-4 * float(np.max(np.abs(W)))
    bumped = Representation(W, rep.params, rep.regime)
    report, big_report = verify_relations(bumped), verify_relations(_scaled(bumped, lam))
    assert not report.ok() and not big_report.ok()
    for name in ("residual_wwd", "residual_casimir", "intertwine_residual", "residual_yz",
                 "residual_zx"):
        assert getattr(big_report, name) == pytest.approx(getattr(report, name), rel=1e-6)


def test_verify_sensitive_to_perturbation():
    rep = construct_loop_rep(LoopSpec(n=10, k=1), 1.4, 1.0)
    W = rep.W.copy()
    W[2, 3] += 1e-3
    bumped = Representation(W, rep.params, rep.regime)
    assert verify_relations(bumped).residual_wwd > 1e-6


# ---------------------------------------------------------------------------
# graphs, decomposition
# ---------------------------------------------------------------------------

def test_matrix_graph_loop_and_string():
    loop = construct_loop_rep(LoopSpec(n=5, k=1), 1.3, 1.0)
    g = matrix_graph(loop.W)
    assert len(g.edges) == 5 and g.has_directed_cycle(list(range(5)))
    string = construct_string_rep(StringSpec(n=3, theta=math.pi / 6, mu=0.0, c=1.0))
    gs = matrix_graph(string.W)
    assert gs.edges == frozenset({(0, 1), (1, 2)})
    assert gs.transmitters() == [0] and gs.receivers() == [2]


def _reachability(n, edges):
    """Boolean transitive closure by repeated squaring."""
    reach = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        reach[i, j] = True
    for _ in range(max(n, 1).bit_length()):
        reach |= (reach.astype(int) @ reach.astype(int)) > 0
    return reach


@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    if n else st.just(frozenset()))))
def test_graph_components_and_cycles_against_reachability(drawn):
    n, edges = drawn
    graph = MatrixGraph(n, edges)
    reach = _reachability(n, edges)
    linked = _reachability(n, edges | {(j, i) for i, j in edges}) | np.eye(n, dtype=bool)
    expected = sorted({tuple(np.flatnonzero(row)) for row in linked})
    assert graph.weak_components() == [list(c) for c in expected]
    for comp in expected:
        assert graph.has_directed_cycle(list(comp)) == bool(np.any(np.diag(reach)[list(comp)]))


def test_matrix_graph_self_loops():
    g = matrix_graph(np.diag([1.0, 1.0]))
    assert g.edges == frozenset({(0, 0), (1, 1)})
    assert g.has_directed_cycle([0])


def test_graph_classify_loop_and_string():
    loop = construct_loop_rep(LoopSpec(n=6, k=1), 1.4, 1.0)
    cls = graph_classify(matrix_graph(loop.W), loop)
    assert cls.components[0].kind == "loop" and cls.components[0].size == 6
    assert cls.transmitters == () and cls.receivers == ()
    theta = solve_string_theta(4, 0.5, 1.0)
    string = construct_string_rep(StringSpec(n=4, theta=theta, mu=0.5))
    cls = graph_classify(matrix_graph(string.W), string)
    assert cls.components[0].kind == "string"
    assert cls.transmitters == (0,) and cls.receivers == (3,)


def test_graph_classify_direct_sum_of_strings():
    theta = solve_string_theta(4, 0.5, 1.0)
    s = construct_string_rep(StringSpec(n=4, theta=theta, mu=0.5))
    combo = direct_sum([s, s])
    cls = graph_classify(matrix_graph(combo.W), combo)
    assert len(cls.components) == 2
    assert all(c.kind == "string" for c in cls.components)


def test_graph_classify_cross_check_fires():
    loop = construct_loop_rep(LoopSpec(n=5, k=1), 1.3, 1.0)
    # drop one edge: vertex appears as transmitter in the graph but not in D~
    edges = set(matrix_graph(loop.W).edges)
    edges.remove((0, 1))
    tampered = MatrixGraph(5, frozenset(edges))
    with pytest.raises(InconsistentGraphError):
        graph_classify(tampered, loop)


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


def test_representation_kind():
    loop = construct_loop_rep(LoopSpec(n=5, k=1), 1.3, 1.0)
    assert representation_kind(loop) == "loop"
    theta = solve_string_theta(5, 0.5, 1.0)
    assert representation_kind(construct_string_rep(
        StringSpec(n=5, theta=theta, mu=0.5))) == "string"


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


def test_f_beta_strictly_monotone_on_fundamental_domain():
    n, k = 7, 1
    values = [f_beta(b, n, k, 1.5, 1.0)
              for b in np.linspace(0, math.pi / n, 9)]
    diffs = np.diff(values)
    assert np.all(diffs > 0) or np.all(diffs < 0)
