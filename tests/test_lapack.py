"""The LAPACK routines the package calls through ctypes from numpy's own
LAPACK: bit for bit those scipy reaches, a typed error naming the routine
where numpy's LAPACK exports it under none of the names looked up, and no
scipy module loaded on the way."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ncsurface import representations, spectra
from ncsurface.cli import main
from ncsurface.representations import (LoopSpec, StringSpec, canonicalize_loop,
                                       construct_loop_rep, construct_string_rep,
                                       solve_string_theta)
from ncsurface.spectra import position_spectrum
from reference import (scipy_band_eigenvalues, scipy_complex_schur, scipy_dgbbrd,
                       scipy_dlasq1)

ROUTINES = {"dlasq1": "idddi", "dgbbrd": "ciiiiididddidididi", "dsbevd": "cciididdidiiii",
            "zhbevd": "cciizidzizidiiii", "zgees": "ccpiziizzizidpi"}


def _haar(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k Haar-distributed m x m unitaries from one stacked QR."""
    q, r = np.linalg.qr(rng.normal(size=(k, m, m)) + 1j * rng.normal(size=(k, m, m)))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _bytes(*arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def test_the_band_solver_is_scipys_eig_banded_bit_for_bit():
    """200 real symmetric and complex hermitian lower bands of 1 or 2
    off-diagonals, N = 3 .. 300."""
    rng = np.random.default_rng(1)
    for case in range(200):
        n, kd = int(rng.integers(3, 301)), int(rng.integers(1, 3))
        band = rng.normal(size=(kd + 1, n))
        if case % 2:
            band = band + 1j * rng.normal(size=(kd + 1, n))
            band[0] = band[0].real
        for d in range(1, kd + 1):
            band[d, n - d:] = 0     # past the matrix's last row
        got = spectra._band_eigenvalues(band)
        assert got.tobytes() == scipy_band_eigenvalues(band).tobytes()


def test_the_schur_form_is_scipys_bit_for_bit():
    """500 m x m matrices, m = 1 .. 8: holonomies (products of Haar
    unitaries, as canonicalize_loop forms them) and general complex ones."""
    rng = np.random.default_rng(2)
    for case in range(500):
        m = case % 8 + 1
        if case % 2:
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        else:
            a = np.linalg.multi_dot([np.eye(m), *_haar(rng, 5, m)])
        assert _bytes(*representations._complex_schur(a)) == _bytes(*scipy_complex_schur(a))


def test_a_schur_form_of_a_non_finite_matrix_is_refused():
    a = np.eye(2, dtype=complex)
    a[0, 1] = math.nan
    with pytest.raises(representations.NonFiniteMatrixError):
        representations._complex_schur(a)


def test_dlasq1_and_dgbbrd_are_cython_lapacks_bit_for_bit():
    """dqds of 200 bidiagonals (N = 1 .. 300, entries of either sign) and
    dgbbrd of 200 tridiagonals (N = 1 .. 300)."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 301))
        d, e = rng.normal(size=n), np.append(rng.normal(size=n - 1), 0.0)
        assert spectra._dlasq1(d, e).tobytes() == scipy_dlasq1(d, e).tobytes()
        band = rng.normal(size=(3, n))
        band[0, 0] = band[2, -1] = 0      # outside the matrix
        assert _bytes(*spectra._dgbbrd(band)) == _bytes(*scipy_dgbbrd(band))


def _routes() -> list:
    """position_spectrum's four LAPACK routes: an even loop (dgbbrd and
    dlasq1), a string (dlasq1), an odd loop (dsbevd) and a complex twist
    (zhbevd)."""
    rng = np.random.default_rng(4)
    return [construct_loop_rep(LoopSpec(n=256, k=1, beta=0.3), 1.3, 1.0),
            construct_string_rep(StringSpec(n=301, theta=solve_string_theta(301, 0.9, 1.0),
                                            mu=0.9)),
            construct_loop_rep(LoopSpec(n=401, k=1, beta=0.3), 1.3, 1.0),
            construct_loop_rep(LoopSpec(n=257, k=1, beta=0.3,
                                        phases=rng.uniform(0, 2 * math.pi, 257)), 1.3, 1.0)]


def test_a_routine_numpys_lapack_does_not_export_raises_a_typed_error():
    """Where none of the names _LAPACK_SYMBOLS gives a routine resolves, each
    of position_spectrum's four routes and canonicalize_loop raise
    LapackNotFoundError, a LapackError, naming the first routine they reach
    and every name tried; with dgbbrd already loaded and _LAPACK_SYMBOLS
    emptied, the even loop names dlasq1.  Nothing is cached for a routine
    not found, so it resolves once the names do."""
    missing = tuple(("missing_" + pattern, integer)
                    for pattern, integer in representations._LAPACK_SYMBOLS)
    unitaries = list(_haar(np.random.default_rng(5), 16, 2))
    block_loop = construct_loop_rep(LoopSpec(n=16, k=1, beta=0.3, block_dim=2,
                                             unitaries=unitaries), 1.3, 1.0)
    calls = [(position_spectrum, rep) for rep in _routes()] + [(canonicalize_loop, block_loop)]
    representations._lapack.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(representations, "_LAPACK_SYMBOLS", missing)
            for (call, rep), routine in zip(calls, ["dgbbrd", "dlasq1", "dsbevd", "zhbevd",
                                                    "zgees"]):
                names = tuple(pattern.format(routine) for pattern, _ in missing)
                with pytest.raises(representations.LapackNotFoundError) as caught:
                    call(rep)
                assert isinstance(caught.value, spectra.LapackError)
                assert (caught.value.routine, caught.value.names) == (routine, names)
                assert str(caught.value) == (f"LAPACK {routine} is not in numpy's LAPACK "
                                             f"(tried {', '.join(names)})")
        assert representations._lapack.cache_info().currsize == 0
        representations._lapack("dgbbrd", ROUTINES["dgbbrd"])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(representations, "_LAPACK_SYMBOLS", ())
            with pytest.raises(representations.LapackNotFoundError, match="LAPACK dlasq1 "):
                position_spectrum(_routes()[0])
        assert len(position_spectrum(_routes()[0]).eigenvalues) == 256
    finally:
        representations._lapack.cache_clear()


def test_spectrum_with_no_lapack_routine_found_is_usage_error(monkeypatch, capsys):
    """ncsurface spectrum of a 256-loop exits 2 with one error line."""
    representations._lapack.cache_clear()
    monkeypatch.setattr(representations, "_LAPACK_SYMBOLS", ())
    try:
        code = main(["spectrum", "--kind", "loop", "--n", "256", "--mu", "1.3", "--c", "1"])
    finally:
        representations._lapack.cache_clear()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: LAPACK dgbbrd is not in numpy's LAPACK (tried )\n"


def test_large_n_spectra_sweeps_and_block_loop_splits_load_no_scipy_module():
    """In a fresh interpreter, position_spectrum on each of its four LAPACK
    routes, sweep_mu at N = 256, the relation checks, split and equivalence
    of a block loop (128 blocks, m = 2), and the relation checks of a
    relabeled block loop, of a loop plus a block loop of one theta, which
    decompose splits, and of a sum of two equal-length loops, with the
    commutator measure of the last, reach all five LAPACK routines and load
    no scipy module."""
    code = textwrap.dedent("""
        import math, sys
        from fractions import Fraction
        import numpy as np
        from ncsurface import representations
        from ncsurface.representations import (LoopSpec, Representation, StringSpec,
                                               canonicalize_loop, construct_loop_rep,
                                               construct_string_rep, decompose, direct_sum,
                                               reps_equivalent, solve_string_theta,
                                               verify_relations)
        from ncsurface.spectra import commutator_vs_bracket, position_spectrum, sweep_mu
        from ncsurface.surface import CommPolynomial3
        rng = np.random.default_rng(1)
        reps = [construct_loop_rep(LoopSpec(n=256, k=1, beta=0.3), 1.3, 1.0),
                construct_loop_rep(LoopSpec(n=401, k=1, beta=0.3), 1.3, 1.0),
                construct_loop_rep(LoopSpec(n=257, k=1, beta=0.3,
                                            phases=rng.uniform(0, 2 * math.pi, 257)), 1.3, 1.0),
                construct_string_rep(StringSpec(n=301, theta=solve_string_theta(301, 0.9, 1.0),
                                                mu=0.9))]
        for rep in reps:
            position_spectrum(rep)
        assert len(sweep_mu([0.9, 1.1, 1.3], 1.0, 256)) == 3 * 256
        q, r = np.linalg.qr(rng.normal(size=(128, 2, 2)) + 1j * rng.normal(size=(128, 2, 2)))
        d = np.diagonal(r, axis1=1, axis2=2)
        block = construct_loop_rep(LoopSpec(n=128, k=1, beta=0.3, block_dim=2,
                                            unitaries=list(q * (d / np.abs(d))[:, None, :])),
                                   1.3, 1.0)
        assert verify_relations(block).ok()
        a, b = canonicalize_loop(block)
        assert reps_equivalent(a, a) and not reps_equivalent(a, b)
        perm = rng.permutation(block.n)
        relabeled = Representation.from_entries(block.n, perm[block.rows], perm[block.cols],
                                                block.vals, block.params, block.regime)
        loops = [construct_loop_rep(LoopSpec(n=128, k=1, beta=beta), 1.3, 1.0)
                 for beta in (0.3, 0.7)]
        pair = direct_sum(loops)
        for rep in (relabeled, direct_sum([loops[0], block]), pair):
            assert verify_relations(rep).ok()
        assert [part.n for part in decompose(direct_sum([loops[0], block]))] == [128, 256]
        x, y = CommPolynomial3.x(), CommPolynomial3.y()
        [(n, error)] = commutator_vs_bracket(x * x, y * y, [pair], Fraction(13, 10), Fraction(1))
        assert n == 256 and 0 < error < 1e-3
        assert representations._lapack.cache_info().currsize == 5
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert not loaded, loaded
        """)
    src = str(Path(representations.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
