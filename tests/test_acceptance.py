"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  All tolerances are pinned here; nothing is deferred to calibration.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from ncsurface.berezin import (BTSpec, bt_matrices, compare_with_loop_rep,
                               nu_one_gap, verify_bt_relations)
from ncsurface.free_algebra import (AlgebraParams, NCPolynomial,
                                    build_genus_relations, build_torus_system,
                                    casimir_centrality,
                                    check_consistency_identity,
                                    check_overlap_resolvable, consistency_defect)
from ncsurface.representations import (LoopSpec, StringSpec, construct_loop_rep,
                                       construct_string_rep, f_beta,
                                       f_beta_residual, rep_index,
                                       reps_equivalent, solve_string_theta,
                                       verify_relations)
from ncsurface.spectra import (build_figure_rep, commutator_vs_bracket,
                               position_spectrum, sweep_mu)
from ncsurface.surface import (CommPolynomial3, build_genus_polynomial,
                               euler_characteristic, genus_window_bound)


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:2d} PASS — {description} "
          f"({elapsed:.2f}s)")


def rational(rng, num=9, den=9):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_params(rng):
    return AlgebraParams(rational(rng), Fraction(rng.randint(1, 9), rng.randint(10, 24)))


def test_criterion_1_diamond_lemma_confluence():
    with criterion(1, "W^2V^2 overlap resolvable with witness exactly 0, "
                      "20 random exact parameter pairs, < 1 s"):
        rng = random.Random(101)
        start = time.perf_counter()
        for _ in range(20):
            system = build_torus_system(random_params(rng))
            check = check_overlap_resolvable(system, "WWVV")
            assert check.resolvable
            assert check.witness.is_zero()
        assert time.perf_counter() - start < 1.0


def test_criterion_2_genus_consistency_identity():
    with criterion(2, "[X,phi_X] + [Y,phi_Y] = 0 exactly for x^2 - mu and 20 "
                      "random rational P (deg <= 8); perturbation flips it"):
        rng = random.Random(202)
        for _ in range(3):
            mu = rational(rng)
            h2 = Fraction(rng.randint(1, 9), rng.randint(10, 30))
            assert check_consistency_identity([-mu, Fraction(0), Fraction(1)], h2)
        for _ in range(20):
            degree = rng.choice([2, 4, 6, 8])
            coeffs = [rational(rng) for _ in range(degree)]
            coeffs.append(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            assert check_consistency_identity(coeffs, Fraction(2, 5))
        rel = build_genus_relations([Fraction(-1), Fraction(0), Fraction(1)],
                                    Fraction(1, 3))
        word = next(w for w in rel.phi_x.terms if "Y" in w)
        bumped = rel.phi_x + NCPolynomial.monomial(word, rel.phi_x.terms[word])
        assert not consistency_defect(bumped, rel.phi_y).is_zero()


def test_criterion_3_casimir_centrality():
    with criterion(3, "[W,C], [V,C], [D,D~] reduce to exactly 0 for 20 random "
                      "exact parameter pairs"):
        rng = random.Random(303)
        for _ in range(20):
            assert casimir_centrality(random_params(rng))


def test_criterion_4_morse_genus_counts():
    with criterion(4, "genus g in {1,2,3,4}: chi = 2-2g with Sturm-exact "
                      "counts {P=mu} -> 2 and {P=-mu} -> 2g, < 2 s"):
        start = time.perf_counter()
        for g in (1, 2, 3, 4):
            alpha = Fraction(1) / genus_window_bound(g)
            data = euler_characteristic(build_genus_polynomial(g, Fraction(1), alpha))
            assert data.chi == 2 - 2 * g
            assert data.genus == g
            assert data.n_plus == 2
            assert data.n_minus == 2 * g
        assert time.perf_counter() - start < 2.0


def test_criterion_5_representation_verification():
    with criterion(5, "N=30 loops (mu = 1.1, 1.3) and the mu = 0.9 string: all "
                      "residuals <= 1e-10, Casimir estimate within 1e-10"):
        reps = [construct_loop_rep(LoopSpec(n=30, k=1, beta=0.0), mu, 1.0)
                for mu in (1.1, 1.3)]
        theta = solve_string_theta(30, 0.9, 1.0)
        reps.append(construct_string_rep(StringSpec(n=30, theta=theta, mu=0.9)))
        for rep in reps:
            report = verify_relations(rep)
            assert report.residual_wwd <= 1e-10
            assert report.residual_casimir <= 1e-10
            assert report.intertwine_residual <= 1e-10
            assert abs(report.c_estimate - 1.0) <= 1e-10


def test_criterion_6_branch_patterns_reproduce_figure():
    with criterion(6, "sweep mu = 0.9, 1.1, 1.3 at N=30: branch patterns (1), "
                      "(1,2,1), (1,2,1); two-branch interval narrower at 1.1"):
        patterns = {}
        widths = {}
        for mu in (0.9, 1.1, 1.3):
            report = position_spectrum(build_figure_rep(mu, 1.0, 30))
            patterns[mu] = report.branch_pattern()
            widths[mu] = [iv.hi - iv.lo for iv in report.intervals if iv.count == 2]
        assert patterns[0.9] == (1,)
        assert patterns[1.1] == (1, 2, 1)
        assert patterns[1.3] == (1, 2, 1)
        assert len(widths[1.1]) == 1 and len(widths[1.3]) == 1
        assert abs(widths[1.1][0] - 2 * math.sqrt(0.1)) < 1e-12
        assert abs(widths[1.3][0] - 2 * math.sqrt(0.3)) < 1e-12
        assert widths[1.1][0] < widths[1.3][0]
        rows = [r for r in sweep_mu([0.9, 1.1, 1.3], 1.0, 30) if r.i is not None]
        assert len(rows) == 90


def _random_loop_spec(rng):
    n = rng.randint(5, 16)
    ks = [k for k in range(1, n) if math.gcd(k, n) == 1 and n > 4 * k]
    k = rng.choice(ks)
    beta = rng.uniform(0, 2 * math.pi)
    phases = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
    return LoopSpec(n=n, k=k, beta=beta, phases=phases)


def _spectral_fingerprint(rep):
    """Brute-force invariants: sorted spectra of W and D plus the Casimir."""
    w_eigs = sorted(np.linalg.eigvals(rep.W),
                    key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    d_eigs = sorted(np.linalg.eigvalsh(rep.W @ rep.W.conj().T))
    return w_eigs, d_eigs, verify_relations(rep).c_estimate


def _fingerprints_match(a, b, tol=1e-9):
    (wa, da, ca), (wb, db, cb) = a, b
    if len(wa) != len(wb) or abs(ca - cb) > tol:
        return False
    return (all(abs(x - y) <= tol for x, y in zip(wa, wb))
            and all(abs(x - y) <= tol for x, y in zip(da, db)))


def test_criterion_7_loop_index_and_equivalence():
    with criterion(7, "W^n = z I to 1e-10 for 10 random loops; equivalence "
                      "predicate agrees with brute-force spectral comparison "
                      "on 10 random pairs"):
        rng = random.Random(707)
        mu, c = 1.5, 1.0   # toral for every theta < pi/4: 1/cos(theta) < sqrt(2) < 1.5
        for _ in range(10):
            spec = _random_loop_spec(rng)
            rep = construct_loop_rep(spec, mu, c)
            z = rep_index(rep).z
            power = np.linalg.matrix_power(rep.W, rep.n)
            assert np.max(np.abs(power - z * np.eye(rep.n))) <= 1e-10 * max(1.0, abs(z))
        agreements = 0
        for pair in range(10):
            spec_a = _random_loop_spec(rng)
            a = construct_loop_rep(spec_a, mu, c)
            if pair % 2 == 0:
                # same index: shift beta by 2 pi/n and redistribute phases
                total = sum(spec_a.phases)
                phases = [rng.uniform(0, 2 * math.pi) for _ in range(spec_a.n - 1)]
                phases.append(total - sum(phases))
                spec_b = LoopSpec(n=spec_a.n, k=spec_a.k,
                                  beta=spec_a.beta + 2 * math.pi / spec_a.n,
                                  phases=phases)
            else:
                spec_b = LoopSpec(n=spec_a.n, k=spec_a.k,
                                  beta=spec_a.beta + 0.37,
                                  phases=spec_a.phases)
            b = construct_loop_rep(spec_b, mu, c)
            predicate = reps_equivalent(a, b, tol=1e-9)
            brute = _fingerprints_match(_spectral_fingerprint(a),
                                        _spectral_fingerprint(b))
            assert predicate == brute, (pair, predicate, brute)
            agreements += 1
        assert agreements == 10


def test_criterion_8_f_beta_structure():
    with criterion(8, "f periodicity/reflection and closed-form residual "
                      "beta-independence at (n,k) = (7,2), (9,4), rel. 1e-12"):
        rng = random.Random(808)
        for n, k in ((7, 2), (9, 4)):
            base_residual = f_beta_residual(0.0, n, k, 1.3, 1.0)
            for _ in range(10):
                beta = rng.uniform(-math.pi, math.pi)
                f0 = f_beta(beta, n, k, 1.3, 1.0)
                tol = 1e-12 * max(1.0, abs(f0))
                assert abs(f0 - f_beta(beta + 2 * math.pi / n, n, k, 1.3, 1.0)) <= tol
                assert abs(f0 - f_beta(2 * math.pi / n - beta, n, k, 1.3, 1.0)) <= tol
                residual = f_beta_residual(beta, n, k, 1.3, 1.0)
                assert abs(residual - base_residual) <= \
                    1e-12 * max(1.0, abs(base_residual))


def test_criterion_9_berezin_toeplitz():
    with criterion(9, "BT relations <= 1e-12 N for N = 5..64; exact loop "
                      "match at nu = 1/cos(pi/N); nu = 1 gap decreasing"):
        for N in range(5, 65):
            spec = BTSpec(1.3, 1.0, N)
            report = verify_bt_relations(*bt_matrices(spec), spec)
            # 1e-12 N: a residual sums the roundoff of O(N) entries, and exact matrices
            # measure at most 0.25 N ulp for N = 5..1000, while 1e-12 N (about 4500 N
            # ulp) still fails Z (1 + 1e-8) there for mu/nu <= 10 (cli.cmd_bt)
            assert max(report.residuals()) <= 1e-12 * N, (N, report.residuals())
        for N in (5, 12, 30, 64):
            comparison = compare_with_loop_rep(
                BTSpec(1.3, 1 / math.cos(math.pi / N), N))
            assert comparison.max_entry_diff <= 1e-10
            assert comparison.equivalent
        gaps = [nu_one_gap(1.3, N) for N in (10, 20, 40, 80)]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_criterion_10_commutator_bracket_convergence():
    with criterion(10, "commutator/bracket error: (x,y) <= 1e-10 at every N; "
                       "(x^2,y^2) strictly decreasing with final <= initial/4"):
        x, y = CommPolynomial3.x(), CommPolynomial3.y()
        mu, c = Fraction(13, 10), Fraction(1)
        reps = [construct_loop_rep(LoopSpec(n=n, k=1), float(mu), float(c))
                for n in (10, 20, 40, 80)]
        for _, err in commutator_vs_bracket(x, y, reps, mu, c):
            assert err <= 1e-10
        errors = [e for _, e in commutator_vs_bracket(x * x, y * y, reps, mu, c)]
        assert all(a > b for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] <= errors[0] / 4
