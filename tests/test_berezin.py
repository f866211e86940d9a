import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsurface import berezin, representations
from ncsurface.berezin import (BTSpec, ComplexSqrtError, NTooSmallError,
                               RegimeMismatchError, bt_matrices, bt_w_matrix,
                               compare_with_loop_rep, nu_one_gap,
                               verify_bt_relations)
from ncsurface.representations import (LoopSpec, NonPositiveWeightError, construct_loop_rep,
                                       reps_equivalent, verify_relations)
from reference import bt_matrices_by_representation, compare_with_loop_rep_by_construction

BT_SIZES = [*range(5, 65), 97, 128, 255, 256, 511, 512, 1000]


# ---------------------------------------------------------------------------
# the Berezin-Toeplitz matrices
# ---------------------------------------------------------------------------

def test_bt_matrices_hermitian():
    X, Y, Z = bt_matrices(BTSpec(1.3, 1.0, 30))
    for H in (X, Y, Z):
        assert np.max(np.abs(H - H.conj().T)) < 1e-13


@pytest.mark.parametrize("mu", [1.0, 1.3])
def test_bt_matrices_equal_the_dense_sums_bit_for_bit(mu):
    """X, Y, Z written from W's cycle entries hold the bits of the dense
    sums over DS = W, signed zeros included; at mu = nu and odd N one
    weight is 0."""
    for N in [*range(5, 41), 97, 255, 256, 383, 384, 511, 1023, 1024]:
        spec = BTSpec(mu, 1.0, N)
        DS = bt_w_matrix(spec).W
        ls = np.arange(1, N + 1)
        expected = ((DS + DS.T) / 2, (DS - DS.T) / 2j,
                    np.diag(-spec.nu * np.sin(2 * math.pi * ls / N)).astype(complex))
        for got, want in zip(bt_matrices(spec), expected):
            assert got.tobytes() == want.tobytes(), N


@pytest.mark.parametrize("mu, nu", [(1.3, 1.0), (1.0, 1.0), (2.0, 0.5), (1.3, None)])
def test_bt_matrices_from_the_cycle_are_those_from_bt_w_matrix(mu, nu):
    """X, Y, Z written from _cycle hold the bits of those written from
    bt_w_matrix's entries for N = 5..1000; at mu = nu and odd N the zero
    weight writes nothing in both."""
    for N in BT_SIZES:
        spec = BTSpec(mu, nu or 1 / math.cos(math.pi / N), N)
        for got, want in zip(bt_matrices(spec), bt_matrices_by_representation(spec)):
            assert got.tobytes() == want.tobytes(), N


def test_bt_w_is_exactly_ds():
    spec = BTSpec(1.3, 1.0, 30)
    W = bt_w_matrix(spec).W
    entries = np.sqrt(1.3 + np.cos((2 * np.arange(1, 31) + 1) * math.pi / 30))
    S = np.zeros((30, 30))
    for i in range(30):
        S[i, (i + 1) % 30] = 1.0
    assert np.max(np.abs(W - np.diag(entries) @ S)) < 1e-15


def test_bt_entries_match_cosine_formula():
    W = bt_w_matrix(BTSpec(1.3, 1.0, 30)).W
    for l in range(29):
        expected = math.sqrt(1.3 + math.cos((2 * (l + 1) + 1) * math.pi / 30))
        assert abs(abs(W[l, l + 1]) - expected) < 1e-14


def test_bt_complex_sqrt_guard():
    with pytest.raises(ComplexSqrtError):
        bt_matrices(BTSpec(0.2, 1.0, 8))


def test_bt_relations_over_n_range():
    for N in range(5, 65):
        spec = BTSpec(1.3, 1.0, N)
        report = verify_bt_relations(*bt_matrices(spec), spec)
        # 1e-12 N: a residual sums the roundoff of O(N) entries, and exact matrices
        # measure at most 0.25 N ulp for N = 5..1000, while 1e-12 N (about 4500 N
        # ulp) still fails Z (1 + 1e-8) there for mu/nu <= 10 (cli.cmd_bt)
        assert report.ok(1e-12 * N), (N, report.residuals())


def test_bt_relations_detect_perturbation():
    spec = BTSpec(1.3, 1.0, 12)
    X, Y, Z = bt_matrices(spec)
    Zp = Z.copy()
    Zp[0, 0] += 1e-3
    assert verify_bt_relations(X, Y, Zp, spec).residual_casimir > 1e-6


def _dense_verify_bt_relations(X, Y, Z, spec):
    """verify_bt_relations as dense O(N^3) products only: the reference on
    both sides of the crossover to shift-diagonal operands."""
    theta = spec.theta
    hbar = spec.hbar
    eye = np.eye(spec.N)
    A = X @ X + Y @ Y - spec.mu * eye
    cZ = math.cos(theta) * Z
    r1 = np.linalg.norm(X @ Y - Y @ X - 1j * hbar * cZ)
    r2 = np.linalg.norm(Y @ cZ - cZ @ Y - 1j * hbar * (X @ A + A @ X))
    r3 = np.linalg.norm(cZ @ X - X @ cZ - 1j * hbar * (Y @ A + A @ Y))
    r4 = np.linalg.norm(A @ A + cZ @ cZ - (spec.nu * math.cos(theta)) ** 2 * eye)
    return berezin.BTRelationReport(float(r1), float(r2), float(r3), float(r4), theta, hbar,
                                    spec.scale)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("N", [30, representations._DENSE_BELOW - 1, representations._DENSE_BELOW,
                               64, 128, 256, 384])
def test_bt_relations_match_the_dense_evaluation(N, perturbed):
    spec = BTSpec(1.3, 1 / math.cos(math.pi / N), N)
    X, Y, Z = bt_matrices(spec)
    if perturbed:
        Z = Z.copy()
        Z[N // 3, N // 3] += 1e-3
    report, dense = verify_bt_relations(X, Y, Z, spec), _dense_verify_bt_relations(X, Y, Z, spec)
    on_shifts = isinstance(berezin._operands(X, Y, Z)[1], representations._Shifts)
    assert on_shifts == (N >= representations._DENSE_BELOW)
    if not on_shifts:
        assert report == dense
        return
    # 1e-12 N: a residual sums the roundoff of O(N) entries, and exact matrices
    # measure at most 0.25 N ulp for N = 5..1000, while 1e-12 N (about 4500 N
    # ulp) still fails Z (1 + 1e-8) there for mu/nu <= 10 (cli.cmd_bt)
    assert report.ok(1e-12 * N) == dense.ok(1e-12 * N) == (not perturbed)
    if perturbed:
        assert report.residuals() == pytest.approx(dense.residuals(), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 400), st.floats(1.1, 3.0), st.sampled_from([None, "X", "Y", "Z"]),
       st.integers(0, 2 ** 32 - 1))
def test_bt_relations_on_shift_operands_match_the_dense_evaluation(N, ratio, perturb, seed):
    """The three cyclic diagonals of X, Y, Z as shift-diagonal operands,
    forced at every N, against dense products: the same verdict, and
    residuals within 1e-9 relative (1e-14 absolute) when one entry on the
    diagonals is perturbed, hermitian pair by pair."""
    nu = 1 / math.cos(math.pi / N)
    spec = BTSpec(ratio * nu, nu, N)
    X, Y, Z = (M.copy() for M in bt_matrices(spec))
    if perturb is not None:
        rng = np.random.default_rng(seed)
        i, a = int(rng.integers(N)), int(rng.integers(-1, 2))
        j = (i + a) % N
        M = {"X": X, "Y": Y, "Z": Z}[perturb]
        bump = 1e-3 * np.exp(1j * rng.uniform(0, 6)) if i != j else 1e-3
        M[i, j] += bump
        if i != j:
            M[j, i] += np.conj(bump)
    with mock.patch.object(representations, "_DENSE_BELOW", 0):
        assert isinstance(berezin._operands(X, Y, Z)[1], representations._Shifts)
        report = verify_bt_relations(X, Y, Z, spec)
    dense = _dense_verify_bt_relations(X, Y, Z, spec)
    # 1e-12 N: a residual sums the roundoff of O(N) entries, and exact matrices
    # measure at most 0.25 N ulp for N = 5..1000, while 1e-12 N (about 4500 N
    # ulp) still fails Z (1 + 1e-8) there for mu/nu <= 10 (cli.cmd_bt)
    assert report.ok(1e-12 * N) == dense.ok(1e-12 * N) == (perturb is None)
    if perturb is not None:
        assert report.residuals() == pytest.approx(dense.residuals(), rel=1e-9, abs=1e-14)


def test_bt_operands_off_the_three_diagonals_stay_off_shifts():
    N = 128
    X, Y, Z = bt_matrices(BTSpec(1.3, 1.0, N))
    Z = Z.copy()
    Z[0, N // 2] = Z[N // 2, 0] = 1e-3
    assert isinstance(berezin._operands(X, Y, Z)[1], np.ndarray)


def test_bt_casimir_identity_normalized_nu():
    N = 16
    spec = BTSpec(1.3, 1 / math.cos(math.pi / N), N)
    X, Y, Z = bt_matrices(spec)
    A = X @ X + Y @ Y - spec.mu * np.eye(N)
    cZ = math.cos(spec.theta) * Z
    assert np.max(np.abs(A @ A + cZ @ cZ - np.eye(N))) < 1e-12


def test_bt_casimir_via_representation_engine():
    N = 24
    spec = BTSpec(1.3, 1.0, N)
    c = (spec.nu * math.cos(spec.theta)) ** 2
    rep = bt_w_matrix(spec)
    assert rep.params.c == c
    report = verify_relations(rep)
    assert report.ok(1e-10)
    assert abs(report.c_estimate - c) < 1e-10 * c


# ---------------------------------------------------------------------------
# loop comparison
# ---------------------------------------------------------------------------

def test_compare_exact_with_normalized_nu():
    N = 30
    comparison = compare_with_loop_rep(BTSpec(1.3, 1 / math.cos(math.pi / N), N))
    assert comparison.equivalent and comparison.max_entry_diff <= 1e-10
    assert comparison.c == pytest.approx(1.0, abs=1e-12)


def test_compare_exact_at_other_parameters():
    comparison = compare_with_loop_rep(BTSpec(2.0, 1.0, 10))
    assert comparison.equivalent
    assert comparison.c == pytest.approx(math.cos(math.pi / 10) ** 2, abs=1e-14)


def _dense_shift_search(W_bt, W_loop):
    """The comparison by brute force: every cyclic relabeling of the dense
    matrix, the least shift of equal differences."""
    N = len(W_bt)
    best, best_shift = math.inf, 0
    for shift in range(N):
        perm = (np.arange(N) + shift) % N
        diff = float(np.max(np.abs(W_bt[np.ix_(perm, perm)] - W_loop)))
        if diff < best:
            best, best_shift = diff, shift
    return best, best_shift


@pytest.mark.parametrize("nu_auto", [False, True])
@pytest.mark.parametrize("mu", [1.0, 1.1, 1.3, 2.0])   # mu = nu = 1: a zero BT weight at odd N
def test_compare_matches_dense_shift_search(mu, nu_auto):
    """The entries compared at the same l differ as the best cyclic
    relabeling of the dense matrices does, bit for bit, and that best
    relabeling is the identity."""
    for N in range(5, 41):
        nu = 1 / math.cos(math.pi / N) if nu_auto else 1.0
        spec = BTSpec(mu, nu, N)
        for c_loop in (None, nu * nu, 0.01):
            c = (nu * math.cos(spec.theta)) ** 2 if c_loop is None else c_loop
            try:
                loop = construct_loop_rep(LoopSpec(n=N, k=1, beta=spec.theta), mu, c)
                berezin._cycle(spec)
            except (NonPositiveWeightError, ComplexSqrtError) as exc:
                expected = RegimeMismatchError if isinstance(exc, NonPositiveWeightError) \
                    else ComplexSqrtError
                with pytest.raises(expected):
                    compare_with_loop_rep(spec, c_loop)
                continue
            comparison = compare_with_loop_rep(spec, c_loop)
            best, best_shift = _dense_shift_search(bt_w_matrix(spec).W, loop.W)
            equivalent = best <= berezin.LOOP_MATCH_RTOL * float(np.max(np.abs(loop.vals)))
            assert (comparison.max_entry_diff.hex(), comparison.equivalent, comparison.c) == \
                (best.hex(), equivalent, c), (N, c_loop)
            assert best_shift == 0, (N, c_loop)


def _table_comparison(spec: BTSpec, c_loop: float | None = None):
    """compare_with_loop_rep by the full N x N table of rotated cycle
    entries, and the least shift of the least difference."""
    c_loop = spec.casimir if c_loop is None else c_loop
    loop = construct_loop_rep(LoopSpec(n=spec.N, k=1, beta=spec.theta), spec.mu, c_loop)
    N = spec.N
    rotated = berezin._cycle(spec)[(np.arange(N) + np.arange(N)[:, None]) % N]
    edge_diff = np.max(np.abs(rotated - loop.vals), axis=1)
    best_shift = int(np.argmin(edge_diff))
    best = float(edge_diff[best_shift])
    return berezin.LoopComparison(
        best, best <= berezin.LOOP_MATCH_RTOL * float(np.max(np.abs(loop.vals))), c_loop), \
        best_shift


@pytest.mark.parametrize("mu", [1.1, 1.3, 10.0])
def test_compare_is_the_table_comparison(mu):
    """The entries compared at the same l give the LoopComparison of the
    best row of the table of every cyclic relabeling, bit for bit, at the
    exact and the surface Casimir scale, and that row is shift 0."""
    for N in [*range(5, 64), 97, 128, 199, 256, 384, 1024]:
        for c_loop in (None, 1.0):
            spec = BTSpec(mu, 1.0, N)
            try:
                expected, best_shift = _table_comparison(spec, c_loop)
            except NonPositiveWeightError:
                with pytest.raises(RegimeMismatchError):
                    compare_with_loop_rep(spec, c_loop)
                continue
            assert best_shift == 0, (N, c_loop)
            got = compare_with_loop_rep(spec, c_loop)
            assert (got.max_entry_diff.hex(), got.equivalent, got.c) == \
                (expected.max_entry_diff.hex(), expected.equivalent, expected.c)


def comparison_outcome(compare, spec, c_loop):
    try:
        got = compare(spec, c_loop)
    except ValueError as exc:
        return type(exc), str(exc)
    return got.max_entry_diff.hex(), got.equivalent, got.c


def searched_outcome(spec, c_loop):
    """comparison_outcome of the reference that searches every cyclic
    relabeling, whose best shift must be 0."""
    def compare(spec, c_loop):
        comparison, best_shift = compare_with_loop_rep_by_construction(spec, c_loop)
        assert best_shift == 0, (spec, c_loop)
        return comparison
    return comparison_outcome(compare, spec, c_loop)


@pytest.mark.parametrize("mu", [0.5, 0.9, 1.0, 1.1, 1.3, 10.0])
def test_compare_from_loop_weights_is_the_comparison_with_the_built_loop(mu):
    """The comparison read from loop_weights is that of the loop
    construct_loop_rep builds, bit for bit, errors included, for N =
    5..1000: the exact and surface scales, mu = nu at odd N (a zero BT
    weight), mu too small for a loop (RegimeMismatchError), a complex BT
    square root, c_loop <= 0 (ValueError), and an infinite or NaN c_loop
    (RegimeMismatchError, NonFiniteMatrixError)."""
    for N in BT_SIZES:
        for nu in (1.0, 1 / math.cos(math.pi / N)):
            spec = BTSpec(mu, nu, N)
            for c_loop in (None, nu * nu, 0.01, 0.0, -1.0, math.inf, math.nan):
                assert comparison_outcome(compare_with_loop_rep, spec, c_loop) == \
                    searched_outcome(spec, c_loop)


@settings(max_examples=200, deadline=None)
@given(st.integers(5, 300), st.floats(-100, 100), st.floats(-17, math.log10(3)),
       st.one_of(st.sampled_from(["default", "surface", "above", "below"]), st.floats(-6, 6)))
def test_compare_is_the_searched_comparison(N, log_mu, log_ratio, scale):
    """For mu from 1e-100 to 1e100, nu/mu from 1e-17 to 3 and c_loop the
    default, nu^2, 1e-6 to 1e6 mu^2 or the default 1e-8 off either way, the
    entries compared at the same l give the search's outcome, errors
    included, and its best shift is 0."""
    mu = 10.0 ** log_mu
    spec = BTSpec(mu, mu * 10.0 ** log_ratio, N)
    c_loop = {"default": None, "surface": spec.nu ** 2, "above": spec.casimir * (1 + 1e-8),
              "below": spec.casimir * (1 - 1e-8)}.get(scale) if isinstance(scale, str) \
        else mu * mu * 10.0 ** scale
    outcome = comparison_outcome(compare_with_loop_rep, spec, c_loop)
    assert outcome == searched_outcome(spec, c_loop)
    if not isinstance(outcome[0], type):        # no error: the table agrees too
        expected, best_shift = _table_comparison(spec, c_loop)
        assert best_shift == 0
        assert outcome == (expected.max_entry_diff.hex(), expected.equivalent, expected.c)


def test_compare_builds_no_representation():
    spec = BTSpec(1.3, 1.0, 30)
    with mock.patch.object(representations.Representation, "_store") as store:
        assert compare_with_loop_rep(spec).equivalent
    assert store.call_count == 0


def test_nu_one_gap_decreases():
    gaps = [nu_one_gap(1.3, N) for N in (10, 20, 40, 80)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # the gap scales like theta^2 ~ 1/N^2
    assert gaps[-1] < gaps[0] / 16


@pytest.mark.parametrize("mu", [1.1, 1.3, 2.0, 10.0])
def test_nu_one_gap_follows_its_leading_term(mu):
    """nu_one_gap(mu, N) = theta^2/(4 sqrt(mu - 1)) (1 + O(theta^2)) for N =
    2^6..2^14, below the entries' roundoff floor: within 1 % from N = 64 and
    1e-4 from N = 1024, with log-log slopes within 0.005 of -2."""
    Ns = [2 ** e for e in range(6, 15)]
    gaps = [nu_one_gap(mu, N) for N in Ns]
    deviations = [gap / ((math.pi / N) ** 2 / (4 * math.sqrt(mu - 1))) - 1
                  for N, gap in zip(Ns, gaps)]
    assert all(abs(d) <= 1e-2 for d in deviations), deviations
    assert all(abs(d) <= 1e-4 for N, d in zip(Ns, deviations) if N >= 1024), deviations
    slopes = [math.log2(b / a) for a, b in zip(gaps, gaps[1:])]     # N doubles at each step
    assert all(abs(slope + 2) <= 5e-3 for slope in slopes), slopes


def test_regime_mismatch_when_mu_too_small():
    with pytest.raises(RegimeMismatchError):
        compare_with_loop_rep(BTSpec(0.9, 1.0, 30))


def test_btspec_validation():
    with pytest.raises(NTooSmallError):
        BTSpec(1.3, 1.0, 4)
    with pytest.raises(ValueError):
        BTSpec(1.3, -1.0, 10)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            BTSpec(value, 1.0, 10)
        with pytest.raises(ValueError, match="finite"):
            BTSpec(1.3, value, 10)
    # (|mu| + nu)^2, the scale of the Casimir residual, must be a double too
    with pytest.raises(ValueError, match="double range"):
        BTSpec(1.3e200, 1e200, 10)
    # c = (nu cos(pi/N))^2 underflows: the error names nu, not a c never given
    with pytest.raises(ValueError, match=r"nu = 1e-300 makes the Casimir scale"):
        BTSpec(1.3e-300, 1e-300, 30)


@pytest.mark.parametrize("N, kind", [pytest.param(30, np.ndarray, id="30"),
                                     pytest.param(128, representations._Shifts, id="128"),
                                     pytest.param(128, None, id="128-permuted")])
@pytest.mark.parametrize("lam", [1e-100, 1e-12, 1e-6, 1.0, 1e6, 1e12, 1e100])
def test_bt_verdicts_are_scale_invariant(lam, N, kind):
    """Dense operands at N = 30, the three cyclic diagonals at N = 128, and
    dense ones at N = 128 for X, Y, Z conjugated by one fixed permutation."""
    spec = BTSpec(1.3 * lam, lam / math.cos(math.pi / N), N)
    X, Y, Z = bt_matrices(spec)
    if kind is None:
        perm = np.random.default_rng(0).permutation(N)
        X, Y, Z = (M[np.ix_(perm, perm)] for M in (X, Y, Z))
        kind = np.ndarray
    assert all(isinstance(M, kind) for M in representations._operands(X, Y, Z))
    # 1e-12 N: a residual sums the roundoff of O(N) entries, and exact matrices
    # measure at most 0.25 N ulp for N = 5..1000, while 1e-12 N (about 4500 N
    # ulp) still fails Z (1 + 1e-8) there for mu/nu <= 10 (cli.cmd_bt)
    assert verify_bt_relations(X, Y, Z, spec).ok(1e-12 * N)
    assert compare_with_loop_rep(spec).equivalent
    # a Z 1 % wrong, and a loop whose Casimir scale is 1 % off; 1e-12 N as above
    assert not verify_bt_relations(X, Y, 1.01 * Z, spec).ok(1e-12 * N)
    assert not compare_with_loop_rep(spec, c_loop=1.01 * spec.casimir).equivalent


@pytest.mark.parametrize("mu", [1.1, 1.3, 2.0])
def test_bt_w_is_the_loop_at_the_bt_casimir(mu):
    for N in [*range(5, 65), 1000, 4000]:
        spec = BTSpec(mu, 1.0, N)
        rep = bt_w_matrix(spec)
        assert len(rep.vals) == N
        assert verify_relations(rep).ok(), N
        beta = math.pi / N
        assert reps_equivalent(rep, construct_loop_rep(LoopSpec(N, 1, beta), mu, spec.casimir)), N
        try:
            surface_loop = construct_loop_rep(LoopSpec(N, 1, beta), mu, spec.nu ** 2)
        except NonPositiveWeightError:
            pass
        else:
            assert not reps_equivalent(rep, surface_loop), N
        if N >= representations._DENSE_BELOW:     # below, verify_relations multiplies the dense W
            assert not {"W", "phi_X"} & set(vars(rep))


def test_bt_w_drops_a_zero_weight():
    # mu = nu at odd N: x_l = 0 where (2l+1) pi/N = pi
    rep = bt_w_matrix(BTSpec(1.0, 1.0, 7))
    assert len(rep.vals) == 6 and 0 in berezin._cycle(BTSpec(1.0, 1.0, 7))
