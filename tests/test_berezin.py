import math

import numpy as np
import pytest

from ncsurface import berezin
from ncsurface.berezin import (BTSpec, ComplexSqrtError, NTooSmallError,
                               RegimeMismatchError, bt_matrices, bt_w_matrix,
                               clock_shift, compare_with_loop_rep,
                               face_function_matrix, nu_one_gap,
                               verify_bt_relations)
from ncsurface.representations import (LoopSpec, NonPositiveWeightError, RepParams,
                                       Representation, construct_loop_rep,
                                       verify_relations)


# ---------------------------------------------------------------------------
# clock and shift
# ---------------------------------------------------------------------------

def test_clock_shift_orders():
    cs = clock_shift(5)
    assert np.allclose(np.linalg.matrix_power(cs.S, 5), np.eye(5))
    assert np.max(np.abs(np.linalg.matrix_power(cs.T, 5) - np.eye(5))) < 1e-14
    assert abs(abs(cs.q) - 1) < 1e-15 and abs(cs.chi ** 2 - cs.q) < 1e-15


def test_shift_conjugation_identities():
    cs = clock_shift(5)
    d = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(np.diag(cs.S @ d @ cs.S.conj().T), [2, 3, 4, 5, 1])
    assert np.allclose(np.diag(cs.S.conj().T @ d @ cs.S), [5, 1, 2, 3, 4])


def test_clock_trace_vanishes():
    for n in (5, 8, 13):
        assert abs(np.trace(clock_shift(n).T)) < 1e-13


def test_commutation_st_equals_q_ts():
    cs = clock_shift(7)
    assert np.max(np.abs(cs.S @ cs.T - cs.q * cs.T @ cs.S)) < 1e-14


def test_clock_shift_rejects_small_n():
    with pytest.raises(NTooSmallError):
        clock_shift(4)


def test_face_function_examples():
    cs = clock_shift(5)
    assert np.allclose(face_function_matrix(0, 0, cs), np.eye(5))
    assert np.allclose(face_function_matrix(1, 0, cs), cs.S.conj().T)
    assert np.allclose(face_function_matrix(0, 1, cs), cs.T)
    expected = cs.chi ** 6 * np.linalg.matrix_power(cs.S.conj().T, 2) @ \
        np.linalg.matrix_power(cs.T, 3)
    assert np.allclose(face_function_matrix(2, 3, cs), expected)


def test_face_functions_unitary():
    cs = clock_shift(6)
    for r1, r2 in [(1, 1), (-1, -1), (3, -2), (2, 5)]:
        M = face_function_matrix(r1, r2, cs)
        assert np.max(np.abs(M @ M.conj().T - np.eye(6))) < 1e-13
        assert abs(abs(np.linalg.det(M)) - 1) < 1e-12


def test_face_function_product_phase():
    cs = clock_shift(5)
    prod = face_function_matrix(1, 1, cs) @ face_function_matrix(-1, -1, cs)
    assert np.max(np.abs(prod @ prod.conj().T - np.eye(5))) < 1e-13
    assert abs(abs(np.linalg.det(prod)) - 1) < 1e-12


# ---------------------------------------------------------------------------
# the Berezin-Toeplitz matrices
# ---------------------------------------------------------------------------

def test_bt_matrices_hermitian():
    X, Y, Z = bt_matrices(BTSpec(1.3, 1.0, 30))
    for H in (X, Y, Z):
        assert np.max(np.abs(H - H.conj().T)) < 1e-13


def test_bt_w_is_exactly_ds():
    spec = BTSpec(1.3, 1.0, 30)
    W = bt_w_matrix(spec)
    entries = np.sqrt(1.3 + np.cos((2 * np.arange(1, 31) + 1) * math.pi / 30))
    S = np.zeros((30, 30))
    for i in range(30):
        S[i, (i + 1) % 30] = 1.0
    assert np.max(np.abs(W - np.diag(entries) @ S)) < 1e-15


def test_bt_entries_match_cosine_formula():
    W = bt_w_matrix(BTSpec(1.3, 1.0, 30))
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
        assert report.ok(1e-12 * N), (N, report.residuals())


def test_bt_relations_detect_perturbation():
    spec = BTSpec(1.3, 1.0, 12)
    X, Y, Z = bt_matrices(spec)
    Zp = Z.copy()
    Zp[0, 0] += 1e-3
    assert verify_bt_relations(X, Y, Zp, spec).residual_casimir > 1e-6


def _dense_verify_bt_relations(X, Y, Z, spec):
    """verify_bt_relations as dense O(N^3) products only: the reference on
    both sides of the crossover to CSR operands."""
    theta = spec.theta
    hbar = spec.hbar
    eye = np.eye(spec.N)
    A = X @ X + Y @ Y - spec.mu * eye
    cZ = math.cos(theta) * Z
    r1 = np.linalg.norm(X @ Y - Y @ X - 1j * hbar * cZ)
    r2 = np.linalg.norm(Y @ cZ - cZ @ Y - 1j * hbar * (X @ A + A @ X))
    r3 = np.linalg.norm(cZ @ X - X @ cZ - 1j * hbar * (Y @ A + A @ Y))
    r4 = np.linalg.norm(A @ A + cZ @ cZ - (spec.nu * math.cos(theta)) ** 2 * eye)
    return berezin.BTRelationReport(float(r1), float(r2), float(r3), float(r4), theta, hbar)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("N", [30, 64, 128, 256, 384])
def test_bt_relations_match_the_dense_evaluation(N, perturbed):
    spec = BTSpec(1.3, 1 / math.cos(math.pi / N), N)
    X, Y, Z = bt_matrices(spec)
    if perturbed:
        Z = Z.copy()
        Z[N // 3, N // 3] += 1e-3
    report, dense = verify_bt_relations(X, Y, Z, spec), _dense_verify_bt_relations(X, Y, Z, spec)
    on_csr = not isinstance(berezin._operands(X, Y, Z)[1], np.ndarray)
    assert on_csr == (N >= 96)
    if not on_csr:
        assert report == dense
        return
    assert report.ok(1e-12 * N) == dense.ok(1e-12 * N) == (not perturbed)
    if perturbed:
        assert report.residuals() == pytest.approx(dense.residuals(), rel=1e-9)


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
    rep = Representation(bt_w_matrix(spec), RepParams(spec.mu, c, spec.theta),
                         regime=None)
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
    """The comparison by brute force: every cyclic relabeling of the dense matrix."""
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
def test_compare_matches_dense_shift_search(mu, nu_auto, monkeypatch):
    for N in range(5, 41):
        nu = 1 / math.cos(math.pi / N) if nu_auto else 1.0
        spec = BTSpec(mu, nu, N)
        for c_loop in (None, nu * nu, 0.01):
            c = (nu * math.cos(spec.theta)) ** 2 if c_loop is None else c_loop
            try:
                loop = construct_loop_rep(LoopSpec(n=N, k=1, beta=spec.theta), mu, c)
                W = bt_w_matrix(spec)
            except (NonPositiveWeightError, ComplexSqrtError) as exc:
                expected = RegimeMismatchError if isinstance(exc, NonPositiveWeightError) \
                    else ComplexSqrtError
                with pytest.raises(expected):
                    compare_with_loop_rep(spec, c_loop)
                continue
            # a relabeled BT matrix moves the best shift away from 0
            for relabel in (0, N // 3):
                perm = (np.arange(N) + relabel) % N
                W_bt = W[np.ix_(perm, perm)]
                monkeypatch.setattr(berezin, "bt_w_matrix", lambda _: W_bt)
                comparison = compare_with_loop_rep(spec, c_loop)
                monkeypatch.undo()
                expected = _dense_shift_search(W_bt, loop.W)
                assert (comparison.max_entry_diff, comparison.shift) == expected, (N, c_loop)
                assert comparison.shift == -relabel % N


def test_nu_one_gap_decreases():
    gaps = [nu_one_gap(1.3, N) for N in (10, 20, 40, 80)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # the gap scales like theta^2 ~ 1/N^2
    assert gaps[-1] < gaps[0] / 16


def test_regime_mismatch_when_mu_too_small():
    with pytest.raises(RegimeMismatchError):
        compare_with_loop_rep(BTSpec(0.9, 1.0, 30))


def test_btspec_validation():
    with pytest.raises(NTooSmallError):
        BTSpec(1.3, 1.0, 4)
    with pytest.raises(ValueError):
        BTSpec(1.3, -1.0, 10)
