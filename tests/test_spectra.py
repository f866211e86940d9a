import dataclasses
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ncsurface import representations, spectra
from ncsurface.cli import parse_poly3
from ncsurface.representations import (LoopSpec, NonPositiveWeightError, Regime,
                                       Representation, RepParams, StringSpec, _phi_z,
                                       canonicalize_loop,
                                       construct_degenerate_rep, direct_sum,
                                       construct_loop_rep, construct_string_rep,
                                       solve_string_theta)
from ncsurface.spectra import (BranchInterval, DegreeTooHighError, NonFiniteMatrixError,
                               NotHermitianError, SpectrumReport, SweepRow,
                               build_figure_rep, commutator_vs_bracket,
                               detect_branches, hermitian_eigenvalues,
                               position_spectrum, spectrum_rows, sweep_mu,
                               sweep_reports, sweep_rows_to_csv, symmetrized_substitution,
                               write_spectrum_svg)
from ncsurface.surface import CommPolynomial3, bracket_constraint, poisson_bracket
from reference import (dense_eigenvalues, detect_branches_by_mask, detect_branches_by_max,
                       operand_array, orderings_symmetrized_substitution,
                       spectrum_svg_by_fstrings, sweep_rows_to_csv_by_fields)

X_POLY, Y_POLY, Z_POLY = (CommPolynomial3.x(), CommPolynomial3.y(),
                          CommPolynomial3.z())


# ---------------------------------------------------------------------------
# eigensolver contract
# ---------------------------------------------------------------------------

def test_eigenvalues_examples():
    assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])
    assert np.allclose(hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])),
                       [-1, 1])


def test_eigenvalues_trace_identities():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    H = (A + A.conj().T) / 2
    ev = hermitian_eigenvalues(H)
    assert len(ev) == 40
    assert abs(ev.sum() - np.trace(H).real) < 1e-10
    assert abs((ev ** 2).sum() - np.linalg.norm(H) ** 2) < 1e-9


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
@pytest.mark.parametrize("kind", ["loop", "dense"])
def test_eigenvalues_reject_non_finite_entries(kind, bad):
    rng = np.random.default_rng(2)
    if kind == "loop":      # a periodic tridiagonal
        H = construct_loop_rep(LoopSpec(n=13, k=3), 1.3, 1.0).phi_X.copy()
    else:                   # a dense one
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        H = (A + A.conj().T) / 2
    H[2, 2] = bad
    with pytest.raises(NonFiniteMatrixError):
        hermitian_eigenvalues(H)


def test_eigenvalues_of_huge_finite_entries():
    big = 1e200 * np.array([[1.0, 1.0], [1.0, 0.0]])
    with np.errstate(all="raise"):        # the norms are taken of big 2^-e
        eigs = hermitian_eigenvalues(big)
    assert np.allclose(eigs / 1e200, [-0.6180339887, 1.6180339887])


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_hermiticity_is_checked_at_any_scale(scale):
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
    H = np.array([[2.0, 1 - 1j, 0.0], [1 + 1j, 0.0, 0.5j], [0.0, -0.5j, -1.0]])
    assert hermitian_eigenvalues(scale * H) == pytest.approx(
        scale * hermitian_eigenvalues(H), rel=1e-14)


def _w_block(rng: np.random.Generator, kind: str, m: int, k: int,
             phases: str) -> tuple[list[int], list[int], np.ndarray]:
    """The entries (rows, cols, vals) of an m x m W that is a cycle visiting
    0, k, 2k, ... (mod m), a path 0 -> 1 -> ... -> m-1 (an isolated vertex
    at m = 1), a self-loop (m = 1) or a 2-cycle (m = 2), with moduli in
    [0.1, 2] and phases 0 or pi ("real"), arbitrary phases that sum to 0 or
    pi up to roundoff ("gauge"), or arbitrary phases ("any")."""
    if kind == "cycle":
        walk = [(t * k) % m for t in range(m)]
        edges = list(zip(walk, walk[1:] + walk[:1]))
    else:
        edges = {"path": [(t, t + 1) for t in range(m - 1)], "self-loop": [(0, 0)],
                 "2-cycle": [(0, 1), (1, 0)]}[kind]
    angles = rng.uniform(0, 2 * np.pi, len(edges))
    if phases == "gauge" and edges:
        angles[-1] = rng.choice([0.0, np.pi]) - angles[:-1].sum()
    phase = rng.choice([1.0, -1.0], len(edges)) if phases == "real" else np.exp(1j * angles)
    rows, cols = [i for i, _ in edges], [j for _, j in edges]
    return rows, cols, rng.uniform(0.1, 2.0, len(edges)) * phase


def _w_sum(rng: np.random.Generator, blocks, scale: float) -> Representation:
    """The direct sum of the (size, entries) blocks, relabeled by a random
    permutation and scaled."""
    n = sum(size for size, _ in blocks)
    rows, cols, vals, at = [], [], [], 0
    for size, (r, c, v) in blocks:
        rows += [i + at for i in r]
        cols += [j + at for j in c]
        vals.append(v)
        at += size
    perm = rng.permutation(n)
    return Representation.from_entries(n, perm[np.array(rows, dtype=int)],
                                       perm[np.array(cols, dtype=int)],
                                       scale * np.concatenate([np.empty(0)] + vals),
                                       RepParams(1.3, 1.0, math.pi / 7), Regime.TORAL)


@st.composite
def path_cycle_matrices(draw):
    """Direct sums of cycles (any k coprime to the length), paths (isolated
    vertices among them), self-loops and 2-cycles, relabeled by a random
    permutation and scaled."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["cycle", "path", "self-loop", "2-cycle"]))
        m = {"cycle": draw(st.integers(3, 40)), "path": draw(st.integers(1, 40)),
             "self-loop": 1, "2-cycle": 2}[kind]
        k = draw(st.sampled_from([k for k in range(1, m) if math.gcd(k, m) == 1] or [1]))
        phases = draw(st.sampled_from(["real", "gauge", "any"]))
        blocks.append((m, _w_block(rng, kind, m, k, phases)))
    return _w_sum(rng, blocks, draw(st.sampled_from([1e-100, 1e-8, 1.0, 3.7, 1e8, 1e100])))


def _assert_close(got, expected):
    assert np.max(np.abs(np.subtract(got, expected))) <= 1e-13 * np.max(np.abs(expected))


@settings(max_examples=150, deadline=None)
@given(path_cycle_matrices())
def test_eigenvalues_of_paths_and_cycles_against_eigvalsh(rep):
    """The walk route, forced below N = 48, where most of these matrices
    lie, against eigvalsh, and bit for bit against the dense reference,
    which sends a 2-cycle to eigvalsh too."""
    expected = np.linalg.eigvalsh(rep.phi_X)
    with monkeypatch_dense_below(0):
        got = spectra._phi_x_eigenvalues(rep)
        assert got.tobytes() == dense_eigenvalues(rep.W).tobytes()
    assert got.shape == expected.shape
    _assert_close(got, expected)


def _record_band_dtypes(monkeypatch) -> list:
    """The dtype of each band matrix spectra hands to its band solver
    (dsbevd or zhbevd), in order."""
    solved = []
    band_eigenvalues = spectra._band_eigenvalues

    def recording(band):
        solved.append(band.dtype)
        return band_eigenvalues(band)

    monkeypatch.setattr(spectra, "_band_eigenvalues", recording)
    return solved


def _record_half_size(monkeypatch) -> list:
    """The LAPACK routine of each half-size call spectra makes, in order."""
    called = []
    for name in ("_dgbbrd", "_dlasq1"):
        routine = getattr(spectra, name)

        def recording(*args, routine=routine, name=name):
            called.append(name[1:])
            return routine(*args)

        monkeypatch.setattr(spectra, name, recording)
    return called


@pytest.mark.parametrize("n", [97, 256, 1024])
def test_gauge_trivial_phases_take_the_real_band_solver(monkeypatch, n):
    """A total phase of 0 up to roundoff makes a real twist: an odd loop
    takes the real band solver, an even one the half-size route, which
    takes real twists only."""
    rng = np.random.default_rng(n)
    phases = rng.uniform(0, 2 * math.pi, n)
    phases -= phases.mean()      # a total phase of 0, up to roundoff
    plain = construct_loop_rep(LoopSpec(n=n, k=1), 1.3, 1.0)
    phased = construct_loop_rep(LoopSpec(n=n, k=1, phases=phases), 1.3, 1.0)
    solved, halved = _record_band_dtypes(monkeypatch), _record_half_size(monkeypatch)
    got = position_spectrum(phased).eigenvalues
    if n % 2:
        assert solved == [np.float64] and halved == []
    else:
        assert solved == [] and halved == ["dgbbrd", "dlasq1"]
    _assert_close(got, position_spectrum(plain).eigenvalues)
    _assert_close(got, np.linalg.eigvalsh(phased.phi_X))


ROUNDING = 97 * np.finfo(float).eps       # m eps for the 97-vertex loop below


@pytest.mark.parametrize("total, dtype", [
    (0.0, np.float64), (4 * ROUNDING, np.float64), (-4 * ROUNDING, np.float64),
    (math.pi, np.float64), (math.pi - 4 * ROUNDING, np.float64),
    (64 * ROUNDING, np.complex128), (math.pi + 64 * ROUNDING, np.complex128),
    (1e-9, np.complex128), (math.pi - 1e-9, np.complex128), (1e-6, np.complex128),
])
def test_a_twist_is_real_within_rounding_only(monkeypatch, total, dtype):
    """phi(X) of a loop has a twist at the angle -+ its total phase: within
    16 m eps of the real axis it takes the real band solver, beyond that the
    complex one (a real twist at 1e-9 would move eigenvalues by about 1e-11,
    2 theta max|H_ij| / m); either way the spectrum is eigvalsh's."""
    rng = np.random.default_rng(7)
    phases = rng.uniform(0, 2 * math.pi, 97)
    phases[-1] += total - phases.sum()
    rep = construct_loop_rep(LoopSpec(n=97, k=1, phases=phases), 1.3, 1.0)
    solved = _record_band_dtypes(monkeypatch)
    got = spectra._phi_x_eigenvalues(rep)
    assert solved == [dtype]
    _assert_close(got, np.linalg.eigvalsh(rep.phi_X))


def _chain_reps(n: int) -> list:
    """Loops (unphased: a real twist; phased: a complex one; phases summing
    to 0 up to roundoff; k = 3) and a phased string of dimension n, each
    also relabeled by a random permutation."""
    rng = np.random.default_rng(n)
    trivial = rng.uniform(0, 2 * math.pi, n)
    trivial -= trivial.mean()
    reps = [construct_loop_rep(LoopSpec(n=n, k=1, beta=0.3, phases=phases), 1.3, 1.0)
            for phases in (None, rng.uniform(0, 2 * math.pi, n), trivial)]
    if n > 16 and math.gcd(3, n) == 1:
        reps.append(construct_loop_rep(LoopSpec(n=n, k=3, beta=0.3), 1.3, 1.0))
    reps.append(construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, 0.9, 1.0),
                                                mu=0.9, phases=rng.uniform(0, 6, n - 1))))
    for rep in list(reps):
        perm = rng.permutation(n)
        reps.append(Representation(rep.W[np.ix_(perm, perm)], rep.params, rep.regime))
    return reps


@pytest.mark.parametrize("n", [*range(5, 17), 31, 96, 97, 255, 256, 383, 384, 512, 1023, 1024])
def test_a_chain_spectrum_from_the_entries_is_the_dense_one_bit_for_bit(n):
    """position_spectrum reads a loop's or string's band off W's entries;
    the eigenvalues are the dense reference's, which walks phi(X)'s graph,
    bit for bit, natural and relabeled, real and complex twist.  Both take
    the walk route, forced below N = 48."""
    with monkeypatch_dense_below(0):
        for rep in _chain_reps(n):
            got = np.array(position_spectrum(rep).eigenvalues)
            assert got.tobytes() == dense_eigenvalues(rep.W).tobytes()


@pytest.mark.parametrize("n, banded", [(representations._DENSE_BELOW - 1, False),
                                      (representations._DENSE_BELOW, True)])
def test_loops_and_strings_take_the_band_solver_from_the_crossover_on(monkeypatch, n, banded):
    """Below the crossover N = representations._DENSE_BELOW (an even N) a
    loop's or string's spectrum comes from eigvalsh, with no call to
    LAPACK's band or bidiagonal routines; from it on, the even loop's and
    the string's from dlasq1, the half-size route, and neither from the
    band solver.  Either way it is eigvalsh's."""
    loop = construct_loop_rep(LoopSpec(n=n, k=1, beta=0.3), 1.3, 1.0)
    string = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, 0.9, 1.0),
                                             mu=0.9))
    solved, halved = _record_band_dtypes(monkeypatch), _record_half_size(monkeypatch)
    for rep in (loop, string):
        solved.clear()
        halved.clear()
        got = position_spectrum(rep).eigenvalues
        assert solved == [] and ("dlasq1" in halved) is banded
        _assert_close(got, np.linalg.eigvalsh(rep.phi_X))


@pytest.mark.parametrize("kind, n, band, half", [
    ("loop", 400, [], ["dgbbrd", "dlasq1"]),
    ("loop", 401, [np.float64], []),
    ("phased loop", 400, [np.complex128], []),
    ("string", 400, [], ["dlasq1"]),
    ("string", 401, [], ["dlasq1"]),
    ("phased string", 401, [], ["dlasq1"]),
])
def test_the_route_of_a_loop_or_string(monkeypatch, kind, n, band, half):
    """Strings and even loops with a real twist are bipartite: their
    spectrum is +-sigma from dlasq1 (a cycle's block reduced by dgbbrd
    first).  An odd loop and a complex twist take the band solver, dsbevd
    or zhbevd."""
    rng = np.random.default_rng(n)
    if kind.endswith("loop"):
        phases = rng.uniform(0, 2 * math.pi, n) if kind == "phased loop" else None
        rep = construct_loop_rep(LoopSpec(n=n, k=1, beta=0.3, phases=phases), 1.3, 1.0)
    else:
        phases = rng.uniform(0, 2 * math.pi, n - 1) if kind == "phased string" else None
        rep = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, 0.9, 1.0),
                                              mu=0.9, phases=phases))
    solved, halved = _record_band_dtypes(monkeypatch), _record_half_size(monkeypatch)
    got = position_spectrum(rep).eigenvalues
    assert (solved, halved) == (band, half)
    _assert_close(got, np.linalg.eigvalsh(rep.phi_X))


@pytest.mark.parametrize("with_loop", [False, True])
def test_one_vertex_walks_make_no_lapack_call(monkeypatch, with_loop):
    """30 self-loops and 30 isolated vertices: each self-loop's eigenvalue is
    Re W_vv and each isolated vertex's exactly 0.0, with no call to dlasq1,
    dgbbrd or a band solver.  Next to them, an odd loop with a real twist
    makes its one dsbevd call alone."""
    rng = np.random.default_rng(5)
    blocks = [(1, _w_block(rng, kind, 1, 1, "any")) for kind in ["self-loop", "path"] * 30]
    if with_loop:
        blocks.append((101, _w_block(rng, "cycle", 101, 1, "real")))
    rep = _w_sum(rng, blocks, 1.0)
    solved, halved = _record_band_dtypes(monkeypatch), _record_half_size(monkeypatch)
    got = spectra._phi_x_eigenvalues(rep)
    assert solved == ([np.float64] if with_loop else []) and halved == []
    diagonal = np.diag(rep.W).real      # Re W_vv, and +0.0 off the self-loops
    if with_loop:
        assert np.isin(diagonal, got).all()
        _assert_close(got, np.linalg.eigvalsh(rep.phi_X))
    else:
        assert got.tobytes() == np.sort(diagonal).tobytes()


@st.composite
def loop_and_string_sums(draw):
    """2 to 5 loops and strings of n = 48 .. 300 each, odd and even, with
    zero or random phases."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for _ in range(draw(st.integers(2, 5))):
        n, phased = draw(st.integers(48, 300)), draw(st.booleans())
        if draw(st.booleans()):
            k = draw(st.sampled_from([k for k in (1, 2, 3, 5) if math.gcd(k, n) == 1]))
            spec = LoopSpec(n=n, k=k, beta=draw(st.floats(0, 2 * math.pi)),
                            phases=rng.uniform(0, 2 * math.pi, n) if phased else None)
            parts.append(construct_loop_rep(spec, 1.3, 1.0))
        else:
            parts.append(construct_string_rep(StringSpec(
                n=n, theta=solve_string_theta(n, 0.9, 1.0), mu=0.9,
                phases=rng.uniform(0, 2 * math.pi, n - 1) if phased else None)))
    return parts


@settings(max_examples=40, deadline=None)
@given(loop_and_string_sums())
def test_a_sums_spectrum_is_the_sorted_union_of_its_parts_bit_for_bit(parts):
    """Each chain of a direct sum is solved alone, on the arrays its part
    gives the solver alone, so the sum's eigenvalues are its parts' sorted
    together, bit for bit."""
    got = spectra._phi_x_eigenvalues(direct_sum(parts))
    union = np.sort(np.concatenate([spectra._phi_x_eigenvalues(part) for part in parts]))
    assert got.tobytes() == union.tobytes()


def _block_loop_rep(k: int, m: int, seed: int) -> Representation:
    """A block loop of k Haar m x m blocks from one stacked QR."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(k, m, m)) + 1j * rng.normal(size=(k, m, m)))
    d = np.diagonal(r, axis1=1, axis2=2)
    unitaries = list(q * (d / np.abs(d))[:, None, :])
    return construct_loop_rep(LoopSpec(n=k, k=1, beta=0.3, block_dim=m, unitaries=unitaries),
                              1.3, 1.0)


# a call that reaches each LAPACK routine: an even loop's spectrum reaches
# dgbbrd and dlasq1, an odd one's dsbevd, a complex twist's zhbevd, and a
# block loop's split zgees
LAPACK_CALLERS = {
    "dgbbrd": lambda: position_spectrum(construct_loop_rep(LoopSpec(n=96, k=1, beta=0.3),
                                                           1.3, 1.0)),
    "dsbevd": lambda: position_spectrum(construct_loop_rep(LoopSpec(n=97, k=1, beta=0.3),
                                                           1.3, 1.0)),
    "zhbevd": lambda: position_spectrum(construct_loop_rep(
        LoopSpec(n=96, k=1, beta=0.3, phases=np.linspace(0, 1, 96)), 1.3, 1.0)),
    "zgees": lambda: canonicalize_loop(_block_loop_rep(16, 2, 1)),
}
LAPACK_CALLERS["dlasq1"] = LAPACK_CALLERS["dgbbrd"]


@pytest.mark.parametrize("routine", ["dgbbrd", "dlasq1", "dsbevd", "zhbevd", "zgees"])
@pytest.mark.parametrize("info", [-3, 1])
def test_a_lapack_failure_raises_lapack_error(monkeypatch, routine, info):
    """INFO != 0 from any LAPACK routine the package calls raises
    LapackError, which names the routine and INFO, and reaches no caller as
    a spectrum or a split."""
    lapack = representations._lapack

    def failing(name, signature):
        call, integer = lapack(name, signature)
        if name != routine:
            return call, integer

        def fail(*args):
            args[-1].value = info       # INFO, the last argument of each
        return fail, integer

    monkeypatch.setattr(representations, "_lapack", failing)
    with pytest.raises(spectra.LapackError, match=f"{routine} failed with INFO = {info}") \
            as excinfo:
        LAPACK_CALLERS[routine]()
    assert (excinfo.value.routine, excinfo.value.info) == (routine, info)
    assert isinstance(excinfo.value, np.linalg.LinAlgError)
    assert spectra.LapackError is representations.LapackError


@pytest.mark.parametrize("n", [97, 4001])
def test_an_odd_string_has_the_eigenvalue_zero_exactly(n):
    """An odd path's biadjacency block has one column more than rows: its
    eigenvalue 0 is exact, not a rounding-sized number (the band solver
    gave 4.17e-18 at N = 4001), and +0.0."""
    rep = construct_string_rep(StringSpec(n=n, theta=solve_string_theta(n, 0.9, 1.0), mu=0.9))
    eigs = np.array(position_spectrum(rep).eigenvalues)
    assert eigs[n // 2] == 0.0 and not np.signbit(eigs[n // 2])
    assert np.count_nonzero(eigs == 0.0) == 1


EPS = np.finfo(float).eps


@st.composite
def bipartite_sums(draw):
    """A W that is a path (odd or even length) or an even cycle with a real
    twist +-|t| of 96 .. 1024 vertices, alone or in a direct sum with an
    odd cycle, a cycle with a complex twist or a second bipartite component;
    relabeled at random and scaled by 2^-500, 1 or 2^500."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["path", "even cycle"]))
    m = draw(st.integers(96, 1024))
    m += kind == "even cycle" and m % 2
    k = draw(st.sampled_from([k for k in (1, 3, 5, 7) if math.gcd(k, m) == 1]))
    blocks = [(m, _w_block(rng, kind.split()[-1], m, k, draw(st.sampled_from(["real", "gauge"]))))]
    for other in draw(st.lists(st.sampled_from(["odd cycle", "complex twist", "bipartite"]),
                               max_size=2)):
        size = draw(st.integers(3, 40))
        if other == "odd cycle":
            blocks.append((size | 1, _w_block(rng, "cycle", size | 1, 1, "any")))
        elif other == "complex twist":
            blocks.append((size + size % 2, _w_block(rng, "cycle", size + size % 2, 1, "any")))
        else:
            blocks.append((size, _w_block(rng, "path", size, 1, "any")))
    return _w_sum(rng, blocks, draw(st.sampled_from([2.0 ** -500, 1.0, 2.0 ** 500])))


@settings(max_examples=40, deadline=None)
@given(bipartite_sums())
def test_bipartite_spectra_against_eigvalsh(rep):
    """Both solvers are backward stable: each returns the eigenvalues of
    H + E with ||E||_2 of order N eps ||H||_2 (Householder tridiagonalization
    in eigvalsh; the Givens rotations of dgbbrd, dsbevd or zhbevd, dqds
    adding a relative error of a few eps per singular value), and ||H||_2 <=
    2 max|H_ij| on a graph of degree <= 2.  So by Weyl's inequality the two
    spectra differ by at most about 4 N eps max|H_ij|; the largest
    difference seen over 150 examples was 0.41 N eps max|H_ij|, at N near
    100."""
    H = rep.phi_X
    expected = np.linalg.eigvalsh(H)
    got = spectra._phi_x_eigenvalues(rep)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 4 * rep.n * EPS * np.max(np.abs(H))


def _relabeled(rep: Representation, rng: np.random.Generator) -> Representation:
    """rep with its vertices relabeled by a random permutation."""
    perm = rng.permutation(rep.n)
    return Representation.from_entries(rep.n, perm[rep.rows], perm[rep.cols], rep.vals,
                                       rep.params, rep.regime)


@st.composite
def single_chains(draw):
    """A loop (k coprime to n; zero phases, phases summing to 0 or pi up to
    roundoff, or random ones) or a string (zero or random phases) of
    dimension 96 .. 1024, odd or even, left alone or relabeled."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(96, 1024))
    if draw(st.booleans()):
        k = draw(st.sampled_from([k for k in (1, 2, 3, 5, 7, 11) if math.gcd(k, n) == 1]))
        kind = draw(st.sampled_from(["zero", "zero-sum", "random"]))
        phases = None if kind == "zero" else rng.uniform(0, 2 * math.pi, n)
        if kind == "zero-sum":
            phases += (draw(st.sampled_from([0.0, math.pi])) - phases.sum()) / n
        spec = LoopSpec(n=n, k=k, beta=draw(st.floats(0, 2 * math.pi)), phases=phases)
        rep = construct_loop_rep(spec, (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta),
                                 1.0)
    else:
        mu = draw(st.floats(0.3, 0.95))
        rep = construct_string_rep(StringSpec(
            n=n, theta=solve_string_theta(n, mu, 1.0), mu=mu,
            phases=rng.uniform(0, 2 * math.pi, n - 1) if draw(st.booleans()) else None))
    return _relabeled(rep, rng) if draw(st.booleans()) else rep


@settings(max_examples=60, deadline=None)
@given(single_chains())
def test_a_single_chain_read_off_its_walk_is_the_entry_reader_bit_for_bit(rep):
    """_phi_x_eigenvalues feeds a loop or string to the solver from W's walk;
    the dense reference walks the graph of phi(X) and reads its entries.
    The walk is oriented as phi(X)'s is walked, so the eigenvalues agree
    bit for bit."""
    got = spectra._phi_x_eigenvalues(rep)
    assert got.tobytes() == dense_eigenvalues(rep.W).tobytes()


def _record_eigvalsh(monkeypatch) -> list:
    """The dimension of each matrix spectra hands to np.linalg.eigvalsh."""
    called = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: called.append(len(H)) or eigvalsh(H))
    return called


def test_loops_strings_and_their_sums_skip_eigvalsh(monkeypatch):
    """From N = 48 on, loops, strings and direct sums of them, relabeled or
    not, go to the solvers from their walks and never reach eigvalsh; a
    block loop, whose phi(X) has vertices of degree 4, does."""
    loop = construct_loop_rep(LoopSpec(n=200, k=3, beta=0.3), 1.3, 1.0)
    string = construct_string_rep(StringSpec(n=201, theta=solve_string_theta(201, 0.9, 1.0),
                                             mu=0.9))
    small = construct_loop_rep(LoopSpec(n=7, k=1, beta=0.3), 1.3, 1.0)
    rng = np.random.default_rng(1)
    unitaries = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                 for _ in range(50)]
    block_loop = construct_loop_rep(LoopSpec(n=50, k=1, block_dim=2, unitaries=unitaries),
                                    1.3, 1.0)
    called = _record_eigvalsh(monkeypatch)
    for rep in (loop, _relabeled(loop, rng), string, direct_sum([loop, loop]),
                _relabeled(direct_sum([string, loop, small]), rng)):
        position_spectrum(rep)
    assert called == []
    position_spectrum(block_loop)
    assert called == [100]


def test_a_chain_entry_that_halves_to_zero_takes_eigvalsh():
    """W's smallest subnormal entry 2^-1074 halves to 0 in phi(X), which
    then is a path, not a cycle: the walk route leaves it to eigvalsh of
    the dense phi(X), which has no entry there."""
    loop = construct_loop_rep(LoopSpec(n=128, k=1, beta=0.3), 1.3, 1.0)
    vals = loop.vals.copy()
    vals[5] = 2.0 ** -1074
    tiny = Representation.from_entries(128, loop.rows, loop.cols, vals, loop.params, loop.regime)
    with np.errstate(over="raise", invalid="raise", divide="raise"):     # no NaN twist
        got = spectra._phi_x_eigenvalues(tiny)
    assert got.tobytes() == np.linalg.eigvalsh(tiny.phi_X).tobytes()


def _scaled_chains() -> list[Representation]:
    rng = np.random.default_rng(3)
    return [construct_loop_rep(LoopSpec(n=128, k=1, beta=0.3), 1.3, 1.0),
            construct_loop_rep(LoopSpec(n=129, k=1, beta=0.3), 1.3, 1.0),
            construct_loop_rep(LoopSpec(n=128, k=3, beta=0.3, phases=rng.uniform(0, 6, 128)),
                               1.5, 1.0),
            construct_string_rep(StringSpec(n=129, theta=solve_string_theta(129, 0.9, 1.0),
                                            mu=0.9, phases=rng.uniform(0, 6, 128)))]


@pytest.mark.parametrize("scale", [1e-310, 3e-309, 1e-308, 1e-305, 1e-200, 1e200, 1e307, 5e307])
def test_path_and_cycle_spectra_at_any_scale(scale):
    """An even loop (dgbbrd and dqds), an odd one (the real band solver), a
    complex twist (the complex one) and a string, scaled from subnormal
    entries to near overflow, through the walk and through eigvalsh
    (hermitian_eigenvalues): the twist's phases
    are taken of the entries scaled by a power of two, so 1/|h| of a
    subnormal h does not overflow (it made LAPACK's hbevd fail with
    INFO = 127 at 1e-308).  Each solver is backward stable, with an error
    of a small multiple of N units of roundoff times max|H_ij|; the unit is
    eps, plus, for subnormal entries, their spacing 2^-1074 relative to the
    largest, since every rounding there is absolute.  So the scaled
    spectrum, scaled back, lies within N units of the unit-scale one
    relative to its largest eigenvalue: seen at most 0.12 N eps at normal
    scales and 0.02 N units at 1e-310, where a unit is about 300 eps."""
    for rep in _scaled_chains():
        H = rep.phi_X
        expected = hermitian_eigenvalues(H)
        unit = EPS + 2.0 ** -1074 / (scale * np.max(np.abs(H)))
        small = Representation.from_entries(rep.n, rep.rows, rep.cols, scale * rep.vals,
                                            rep.params, rep.regime)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for got in (hermitian_eigenvalues(scale * H), spectra._phi_x_eigenvalues(small)):
                assert np.max(np.abs(got / scale - expected)) <= \
                    rep.n * unit * np.max(np.abs(expected))


def test_eigenvalues_of_degree_three_graphs_are_eigvalsh():
    rng = np.random.default_rng(4)
    unitaries = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                 for _ in range(7)]
    block_loop = construct_loop_rep(LoopSpec(n=7, k=1, block_dim=2, unitaries=unitaries),
                                    1.3, 1.0)
    haar = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))[0]
    star = np.zeros((4, 4), dtype=complex)      # one vertex of degree 3
    star[0, 1:] = star[1:, 0] = [1.0, 2.0, 3.0]
    for H in (block_loop.phi_X, construct_degenerate_rep(1.7, haar).phi_X, star):
        assert np.array_equal(hermitian_eigenvalues(H), np.linalg.eigvalsh(H))


# ---------------------------------------------------------------------------
# spectra and branching
# ---------------------------------------------------------------------------

def test_loop_spectrum_within_surface_extent():
    rep = build_figure_rep(1.3, 1.0, 30)
    report = position_spectrum(rep)
    assert len(report.eigenvalues) == 30
    assert min(report.eigenvalues) > -math.sqrt(2.3)
    assert max(report.eigenvalues) < math.sqrt(2.3)


def test_string_spectrum_within_surface_extent():
    rep = build_figure_rep(0.9, 1.0, 30)
    report = position_spectrum(rep)
    assert min(report.eigenvalues) > -math.sqrt(1.9)
    assert max(report.eigenvalues) < math.sqrt(1.9)


def test_degenerate_singleton_spectrum():
    rep = construct_degenerate_rep(4.0, np.eye(1))
    report = position_spectrum(rep)
    assert report.eigenvalues == (2.0,)


def test_branch_patterns_match_figure():
    for mu, expected in [(0.9, (1,)), (1.1, (1, 2, 1)), (1.3, (1, 2, 1))]:
        report = position_spectrum(build_figure_rep(mu, 1.0, 30))
        assert report.branch_pattern() == expected, mu


def test_detect_branches_arithmetic_sequence():
    intervals = detect_branches(np.linspace(-0.9, 0.9, 15), [-1.0, 1.0])
    assert intervals[0].count == 1


def test_detect_branches_interleaved_two_branches():
    # two smooth interleaved sequences with distinct slopes
    a = np.linspace(-0.8, 0.8, 12)
    b = np.linspace(-0.78, 0.72, 12) + 0.013
    spectrum = np.sort(np.concatenate([a, b]))
    intervals = detect_branches(spectrum, [-1.0, 1.0])
    assert intervals[0].count == 2


@pytest.mark.parametrize("scale", [2.0 ** -40, 2.0 ** -500, 1e-150, 1e75, 2.0 ** 500])
def test_detect_branches_is_scale_invariant(scale):
    """The N = 60 loop's spectrum and critical values, both scaled, read the
    torus pattern: the flatness floor is relative to the spectrum's range."""
    report = position_spectrum(construct_loop_rep(LoopSpec(n=60, k=1), 1.3, 1.0))
    crits = [iv.lo for iv in report.intervals] + [report.intervals[-1].hi]
    assert report.branch_pattern() == (1, 2, 1)
    intervals = detect_branches([scale * v for v in report.eigenvalues],
                                [scale * v for v in crits])
    assert tuple(iv.count for iv in intervals) == (1, 2, 1)


def test_detect_branches_too_few_eigenvalues_indeterminate():
    intervals = detect_branches([0.1, 0.2, 0.3], [0.0, 1.0])
    assert intervals[0].count is None and intervals[0].n_points == 3


def test_detect_branches_tolerates_duplicates():
    spectrum = [0.1, 0.1, 0.2, 0.2 + 1e-13, 0.3, 0.5, 0.6]
    intervals = detect_branches(spectrum, [0.0, 1.0])
    assert intervals[0].count in (1, 2)


@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("n", [30, 31, 60, 97, 256, 1001, 2000, 4000, 4001])
@pytest.mark.parametrize("mu", [0.5, 0.9, 1.02, 1.05, 1.1, 1.3, 2.0, 3.0])
def test_branch_counts_are_the_topologys_at_every_n(mu, n, beta):
    """Every determinate count of a figure spectrum is the surface's, (1)
    for the sphere and (1, 2, 1) for the torus, with a margin to the
    threshold 1: one-branch statistics <= 0.3, two-branch ones >= 3.5.
    Only intervals of fewer than MIN_POINTS eigenvalues read None."""
    report = position_spectrum(build_figure_rep(mu, 1.0, n, beta))
    expected = (1, 2, 1) if mu > 1 else (1,)
    assert len(report.intervals) == len(expected)
    for iv, count in zip(report.intervals, expected):
        if iv.count is None:
            assert iv.n_points < spectra.MIN_POINTS and iv.statistic is None
            continue
        assert iv.count == count
        assert iv.statistic <= 0.3 if count == 1 else iv.statistic >= 3.5


def test_the_median_rule_counts_where_the_max_rule_did_not():
    """The largest |second difference| of a one-branch interval sits just
    before a saddle value, and its ratio to the halves' drifts up with N:
    at N = 4000, mu = 1.05 the max rule reads (2, 2, 2), the median rule
    the torus's (1, 2, 1).  At N = 30, mu = 1.02 the middle interval holds
    4 eigenvalues, which the max rule read as 1 branch and the median rule
    leaves indeterminate."""
    for n, mu, by_max, by_median in [(4000, 1.05, (2, 2, 2), (1, 2, 1)),
                                     (30, 1.02, (1, 1, 1), (1, None, 1))]:
        report = position_spectrum(build_figure_rep(mu, 1.0, n))
        crits = [iv.lo for iv in report.intervals] + [report.intervals[-1].hi]
        assert report.branch_pattern() == by_median
        assert tuple(iv.count for iv in
                     detect_branches_by_max(report.eigenvalues, crits)) == by_max


@pytest.mark.parametrize("n", [30, 31, 4000, 4001])
@pytest.mark.parametrize("mu", [1 + 1e-7, 1.001, 1.0055])
def test_the_critical_toral_band_builds_by_parity(mu, n):
    """In the critical toral band 1 < mu/sqrt(c) <= 1/cos(pi/N) a beta = 0
    loop of even N has the weight e~_{N/2} = mu - sqrt(c)/cos(pi/N) <= 0, so
    the figure's default beta there is pi/N for even N (0 for odd N), and
    every figure builds: (1, None, 1) at N = 30 and 31, (1, 2, 1) at 4000
    and 4001 from mu = 1.001 on.  A beta given is kept."""
    critical = mu <= 1 / math.cos(math.pi / n)
    beta = math.pi / n if critical and n % 2 == 0 else 0.0
    rep = build_figure_rep(mu, 1.0, n)
    loop = construct_loop_rep(LoopSpec(n=n, k=1, beta=beta), mu, 1.0)
    assert rep.vals.tobytes() == loop.vals.tobytes()
    if beta:
        with pytest.raises(NonPositiveWeightError):
            build_figure_rep(mu, 1.0, n, 0.0)
    expected = (1, 2, 1) if n > 31 and mu >= 1.001 else (1, None, 1)
    assert position_spectrum(rep).branch_pattern() == expected
    [(_, report)] = sweep_reports([mu], 1.0, n)
    assert report == position_spectrum(rep)


@st.composite
def spectra_on_critical_values(draw):
    """(spectrum, critical values): eigenvalues drawn, with repeats,
    from the critical values themselves and a few other values, or a figure
    spectrum with some eigenvalues moved onto critical values."""
    if draw(st.booleans()):
        crits = draw(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
        pool = crits + draw(st.lists(st.floats(-4, 4), min_size=1, max_size=12))
        spectrum = draw(st.lists(st.sampled_from(pool), max_size=80))
    else:
        report = position_spectrum(build_figure_rep(draw(st.sampled_from([0.9, 1.1, 1.3])),
                                                    1.0, draw(st.integers(8, 60))))
        crits = [iv.lo for iv in report.intervals] + [report.intervals[-1].hi]
        spectrum = list(report.eigenvalues)
        for at in draw(st.lists(st.integers(0, len(spectrum) - 1), max_size=6)):
            spectrum[at] = draw(st.sampled_from(crits))
    return draw(st.permutations(spectrum)), crits


@settings(max_examples=200)
@given(spectra_on_critical_values())
def test_detect_branches_cuts_each_interval_as_the_mask_does(drawn):
    """The searchsorted slices keep lo < lambda < hi strict: every interval,
    its bounds, count, point count and statistic, is bit for bit the mask
    form's."""
    spectrum, crits = drawn
    got = detect_branches(spectrum, crits)
    assert [repr(iv) for iv in got] == [repr(iv) for iv in
                                        detect_branches_by_mask(spectrum, crits)]


@st.composite
def short_intervals(draw):
    """(spectrum, critical values): 0 to 7 eigenvalues strictly inside each
    interval, with repeats, plus eigenvalues on the critical values, so that
    intervals start at both parities; at 5 points one half of an interval
    has a second difference, from 6 points on both halves do."""
    crits = sorted(set(draw(st.lists(st.floats(-3, 3), min_size=2, max_size=6))))
    assume(len(crits) >= 2)
    spectrum = draw(st.lists(st.sampled_from(crits), max_size=4))
    for lo, hi in zip(crits, crits[1:]):
        if math.nextafter(lo, hi) == hi:        # no double strictly inside
            continue
        inside = st.floats(lo, hi, exclude_min=True, exclude_max=True)
        values = draw(st.lists(inside, max_size=7))
        if values and draw(st.booleans()):
            values = values[:-1] + [values[0]]          # a repeat
        spectrum += values
    return draw(st.permutations(spectrum)), crits


@settings(max_examples=300)
@given(short_intervals())
def test_detect_branches_of_short_intervals_is_the_mask_form(drawn):
    """Intervals of 0 to 7 points, at either parity of their first index,
    read off the whole spectrum's second differences as the mask form reads
    its own slices: every interval bit for bit."""
    spectrum, crits = drawn
    got = detect_branches(spectrum, crits)
    assert [repr(iv) for iv in got] == [repr(iv) for iv in
                                        detect_branches_by_mask(spectrum, crits)]


def test_loop_spectrum_reflection_symmetric_at_beta_zero():
    report = position_spectrum(build_figure_rep(1.3, 1.0, 30))
    eigs = np.array(report.eigenvalues)
    assert np.max(np.abs(eigs + eigs[::-1])) < 1e-9


def test_spectrum_range_invariant_guards_wrong_params():
    from ncsurface.representations import RepParams, Representation
    rep = construct_loop_rep(LoopSpec(n=12, k=1), 1.4, 1.0)
    # claim a much smaller surface than the matrix actually represents
    shrunk = Representation(rep.W, RepParams(0.05, 0.001, rep.params.theta),
                            rep.regime)
    with pytest.raises(ValueError):
        position_spectrum(shrunk)


def test_trace_zero_for_loops_and_strings():
    loop = construct_loop_rep(LoopSpec(n=12, k=1), 1.4, 1.0)
    assert abs(sum(position_spectrum(loop).eigenvalues)) < 1e-12
    theta = solve_string_theta(12, 0.4, 1.0)
    string = construct_string_rep(StringSpec(n=12, theta=theta, mu=0.4))
    assert abs(sum(position_spectrum(string).eigenvalues)) < 1e-12


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_row_counts_and_patterns():
    rows = sweep_mu([0.9, 1.1, 1.3], 1.0, 30)
    data = [r for r in rows if r.i is not None]
    assert len(data) == 90
    for mu, expected in [(0.9, {1}), (1.1, {1, 2}), (1.3, {1, 2})]:
        branches = {r.branches for r in data if r.mu == mu and r.branches is not None}
        assert branches == expected


def test_sweep_two_branch_interval_width_shrinks_with_mu():
    def two_branch_width(mu):
        report = position_spectrum(build_figure_rep(mu, 1.0, 30))
        widths = [iv.hi - iv.lo for iv in report.intervals if iv.count == 2]
        assert len(widths) == 1
        return widths[0]
    assert two_branch_width(1.1) < two_branch_width(1.3)
    assert two_branch_width(1.1) == pytest.approx(2 * math.sqrt(0.1), abs=1e-12)
    assert two_branch_width(1.3) == pytest.approx(2 * math.sqrt(0.3), abs=1e-12)


def test_sweep_empty_and_error_rows():
    assert sweep_mu([], 1.0, 30) == []
    rows = sweep_mu([-5.0], 1.0, 30)
    assert len(rows) == 1 and rows[0].i is None and rows[0].branches is None
    assert rows[0].error.startswith("cos(n t) + -5 cos(t) has no sign change")
    assert sweep_rows_to_csv(rows).splitlines()[1] == f"-5,,,,,error: {rows[0].error}"


def test_sweep_csv_shape():
    rows = sweep_mu([0.9], 1.0, 30)
    text = sweep_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "mu,i,lambda,gap,interval,branches"
    assert len(lines) == 31
    last = lines[-1].split(",")
    assert last[1] == "30" and last[3] == ""       # no gap on the last row


def test_csv_rows_of_any_field_types_are_written_as_by_each_field():
    """Complete rows go through one template, every other row field by field:
    both write the bytes of the per-field _fmt path."""
    rows = [SweepRow(1.3, 1, -1.0501617427459710, 0.11547596430469975, 0, 1),
            SweepRow(1.3, 2, -0.0, math.inf, 0, 2),
            SweepRow(1.3, 3, math.nan, 1e-300, 2, 1),
            SweepRow(1.3, 30, 1.5, None, 2, 1),                # no gap after the last
            SweepRow(1.3, 4, 0.5, 0.1, None, None),             # on a critical value
            SweepRow(1.3, 5, 0.6, 0.1, 1, None),                # an indeterminate interval
            SweepRow(-2.0, None, None, None, None, None, "no sign change"),
            SweepRow(1.3, 6, 0.6, 0.1, 1, 2, "an error beside complete fields"),
            SweepRow(np.float64(1.1), 1, 0.5, 0.25, 0, 1),     # a numpy mu
            SweepRow(1.1, np.int64(2), np.float64(0.5), 0.25, 0, 1),
            SweepRow(1.1, True, 0.5, 0.25, False, 1),
            SweepRow(1.1, 3, 1, 0.25, 0, 1)]                   # an int lambda
    for row in rows:
        assert sweep_rows_to_csv([row]) == sweep_rows_to_csv_by_fields([row]), row
    swept = sweep_mu([np.float64(0.9), 1.1, -2.0, 1.3], 1.0, 30)
    for table in (rows, swept, []):
        assert sweep_rows_to_csv(table) == sweep_rows_to_csv_by_fields(table)


@pytest.mark.parametrize("rep", [
    construct_degenerate_rep(1.0, np.eye(1)),      # one eigenvalue and no gap
    construct_degenerate_rep(1.0, np.eye(2)),
    build_figure_rep(1.3, 1.0, 30), build_figure_rep(0.9, 1.0, 31),
    construct_loop_rep(LoopSpec(n=60, k=1, beta=0.3), 1.3e5, 1e10)],
    ids=["1x1", "2x2", "loop-30", "string-31", "loop-60-scaled"])
def test_svg_circles_by_one_template_are_those_of_fstrings(tmp_path, rep):
    report = position_spectrum(rep)
    write_spectrum_svg(report, str(tmp_path / "s.svg"))
    assert (tmp_path / "s.svg").read_text() == spectrum_svg_by_fstrings(report)


def test_spectrum_rows_interval_ids():
    report = position_spectrum(build_figure_rep(1.3, 1.0, 30))
    rows = spectrum_rows(report)
    assert {r.interval for r in rows} == {0, 1, 2}


def _scanned_rows(report: SpectrumReport) -> list[SweepRow]:
    """The rows by a scan of the intervals for each eigenvalue: the first
    interval with lo < lambda < hi (the reference)."""
    rows = []
    for i, lam in enumerate(report.eigenvalues, start=1):
        interval = None
        for idx, iv in enumerate(report.intervals):
            if iv.lo < lam < iv.hi:
                interval = idx
                break
        branches = report.intervals[interval].count if interval is not None else None
        gap = report.gaps[i - 1] if i <= len(report.gaps) else None
        rows.append(SweepRow(report.mu, i, lam, gap, interval, branches))
    return rows


def _reports_for_rows() -> list[SpectrumReport]:
    figure = [position_spectrum(build_figure_rep(mu, 1.0, n))
              for mu in (0.9, 1.1, 1.3) for n in (30, 256)]
    singleton = position_spectrum(construct_degenerate_rep(4.0, np.eye(1)))    # N = 1
    crits = [-2.0, -1.0, 1.0, 1.0, 2.0]     # one interval is empty
    intervals = tuple(BranchInterval(lo, hi, count, 0)
                      for lo, hi, count in zip(crits, crits[1:], (1, 2, None, 1)))
    eigs = (-3.0, -2.0, -1.5, -1.0, -0.5, 1.0, 1.5, 2.0, 2.5)     # on and off the critical values
    by_hand = SpectrumReport(eigs, tuple(np.diff(eigs).tolist()), intervals, 1.3, 1.0, len(eigs))
    return [*figure, singleton, by_hand]


def test_spectrum_rows_are_the_scanned_rows():
    """One searchsorted for all eigenvalues gives each row the interval and
    branch count of the per-row scan, with the same types, an eigenvalue on
    a critical value in no interval, and no gap on the last row."""
    for report in _reports_for_rows():
        assert [repr(r) for r in spectrum_rows(report)] == \
            [repr(r) for r in _scanned_rows(report)]
    rows = spectrum_rows(_reports_for_rows()[-1])
    assert [r.interval for r in rows] == [None, None, 0, None, 1, None, 3, None, None]
    assert [r.branches for r in rows] == [None, None, 1, None, 2, None, 1, None, None]


def test_sweep_row_keeps_its_fields_default_and_immutability():
    """SweepRow is a frozen dataclass with the fields, order and default it
    had; dataclasses.replace builds a corrected or corrupted row from it, as
    the benchmark's oracle self-tests do."""
    assert [f.name for f in dataclasses.fields(SweepRow)] == \
        ["mu", "i", "lam", "gap", "interval", "branches", "error"]
    row = SweepRow(1.3, 2, 0.5, 0.25, 1, 2)
    assert row.error is None
    assert row == SweepRow(mu=1.3, i=2, lam=0.5, gap=0.25, interval=1, branches=2, error=None)
    assert hash(row) == hash(SweepRow(1.3, 2, 0.5, 0.25, 1, 2, None))
    assert repr(row) == "SweepRow(mu=1.3, i=2, lam=0.5, gap=0.25, interval=1, branches=2, " \
        "error=None)"
    assert dataclasses.asdict(SweepRow(0.9, None, None, None, None, None, "failed")) == {
        "mu": 0.9, "i": None, "lam": None, "gap": None, "interval": None, "branches": None,
        "error": "failed"}
    assert dataclasses.replace(row, branches=1) == SweepRow(1.3, 2, 0.5, 0.25, 1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.lam = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del row.mu
    with pytest.raises(TypeError):
        SweepRow(1.3, 2, 0.5)


# ---------------------------------------------------------------------------
# commutator vs bracket
# ---------------------------------------------------------------------------

def figure_loops(n_values, mu=Fraction(13, 10), c=Fraction(1)):
    return [construct_loop_rep(LoopSpec(n=n, k=1), float(mu), float(c))
            for n in n_values]


def test_commutator_vs_bracket_xy_exact():
    reps = figure_loops([10, 20, 40, 80])
    for n, err in commutator_vs_bracket(X_POLY, Y_POLY, reps, Fraction(13, 10),
                                        Fraction(1)):
        assert err <= 1e-10, (n, err)


def test_commutator_vs_bracket_yz_ordering_gap_shrinks():
    reps = figure_loops([10, 20, 40, 80])
    errors = [e for _, e in commutator_vs_bracket(Y_POLY, Z_POLY, reps,
                                                  Fraction(13, 10), Fraction(1))]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    # gap is O(hbar^2) = O(1/N^2): quartering N halves twice
    assert errors[-1] < errors[0] / 16


def test_commutator_vs_bracket_x2y2_strictly_decreasing():
    reps = figure_loops([10, 20, 40, 80])
    errors = [e for _, e in commutator_vs_bracket(X_POLY * X_POLY, Y_POLY * Y_POLY,
                                                  reps, Fraction(13, 10), Fraction(1))]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= errors[0] / 4


def phi_xyz(rep):
    """phi(X), phi(Y) = (W - W^dagger)/2i and phi(Z) = [phi(X), phi(Y)]/(i hbar)
    from rep.W."""
    X, Y = rep.phi_X, (rep.W - rep.W.conj().T) / 2j
    return X, Y, _phi_z(X, Y, rep.params.hbar)


def test_symmetrized_substitution_degree_cap():
    rep = construct_loop_rep(LoopSpec(n=6, k=1), 1.4, 1.0)
    too_high = X_POLY * X_POLY * X_POLY * Y_POLY * Y_POLY
    with pytest.raises(DegreeTooHighError):
        symmetrized_substitution(too_high, *phi_xyz(rep))


def test_symmetrized_substitution_xyz_average():
    rep = construct_loop_rep(LoopSpec(n=6, k=1), 1.4, 1.0)
    X, Y, Z = phi_xyz(rep)
    half = CommPolynomial3.constant(Fraction(1, 2))
    assert np.allclose(symmetrized_substitution(X_POLY * Y_POLY, X, Y, Z), (X @ Y + Y @ X) / 2)
    assert np.allclose(symmetrized_substitution(X_POLY * Y_POLY + half, X, Y, Z),
                       (X @ Y + Y @ X + np.eye(6)) / 2)
    assert not symmetrized_substitution(CommPolynomial3(), X, Y, Z).any()


def test_symmetrized_substitution_on_shift_operands():
    rep = construct_loop_rep(LoopSpec(n=6, k=1), 1.4, 1.0)
    X, Y, Z = phi_xyz(rep)
    with monkeypatch_dense_below(0):
        _, *shifts = representations._operands(X, Y, Z)
    assert all(isinstance(M, representations._Shifts) for M in shifts)
    half = CommPolynomial3.constant(Fraction(1, 2))
    for poly, expected in ((X_POLY * Y_POLY, (X @ Y + Y @ X) / 2),
                           (X_POLY * Y_POLY + half, (X @ Y + Y @ X + np.eye(6)) / 2),
                           (Z_POLY * Z_POLY * X_POLY * Y_POLY, None),
                           (CommPolynomial3(), np.zeros((6, 6)))):
        result = symmetrized_substitution(poly, *shifts)
        assert isinstance(result, representations._Shifts)
        reference = symmetrized_substitution(poly, X, Y, Z) if expected is None else expected
        assert np.allclose(operand_array(result), reference, rtol=0, atol=1e-14)


# every monomial of degree <= 4, and f, g and {f,g}_C of the pairs the
# benchmark's converge runs take, at mu = 13/10 and c = 1
COMMUTATOR_PAIRS = ["x,z", "y,z", "x^2,y^2", "x^2,z", "x*y,z"]


def _pair_polynomials(pair: str) -> list[CommPolynomial3]:
    f, g = (parse_poly3(text) for text in pair.split(","))
    constraint = bracket_constraint([Fraction(-13, 10), Fraction(0), Fraction(1)], Fraction(1))
    return [f, g, poisson_bracket(f, g, constraint)]


SUBSTITUTED = ([CommPolynomial3({powers: Fraction(1)})
                for powers in itertools.product(range(5), repeat=3) if sum(powers) <= 4]
               + [poly for pair in COMMUTATOR_PAIRS for poly in _pair_polynomials(pair)])
# The recursion and the product per ordering form the same words, of at most
# 4 factors, and sum at most 12 of them per monomial and 5 monomials per
# polynomial, in other orders: each entry moves by a few dozen eps (2.2e-16)
# of the terms' norms, about 1e-14, which the result's norm matches for
# these polynomials up to the cancellation between a bracket's signed
# monomials, at most a factor of 10 here (the worst measured is 1.3e-15).
SUBSTITUTION_ROUNDOFF = 1e-13


@st.composite
def substitution_operands(draw):
    """phi(X), phi(Y), phi(Z) of a phased loop (m = 1) or a Haar block loop
    (m = 2) of 5 to 30 blocks, as dense or _Shifts operands."""
    kind = draw(st.sampled_from(["dense", "shifts"]))
    m = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(5, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    unitaries = None
    if m == 2:
        q, r = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
        d = np.diagonal(r, axis1=1, axis2=2)
        unitaries = list(q * (d / np.abs(d))[:, None, :])
    spec = LoopSpec(n=n, k=1, beta=draw(st.floats(0, 2 * math.pi)),
                    phases=rng.uniform(0, 2 * math.pi, n), block_dim=m, unitaries=unitaries)
    rep = construct_loop_rep(spec, (1 + draw(st.floats(0.05, 2.0))) / math.cos(spec.theta), 1.0)
    if kind == "shifts":
        with monkeypatch_dense_below(0):
            [(_, W)] = representations._parts(rep)
        assert isinstance(W, representations._Shifts) and W.m == m
    else:
        W = rep.W
    X, Y = (W + W.conj().T) / 2, (W - W.conj().T) / 2j
    return X, Y, _phi_z(X, Y, rep.params.hbar)


@settings(max_examples=200, deadline=None)
@given(substitution_operands(), st.sampled_from(SUBSTITUTED))
def test_the_word_sum_recursion_is_the_sum_over_orderings(operands, poly):
    """symmetrized_substitution against its definition (reference.py), a
    product per ordering, on every operand kind: within
    SUBSTITUTION_ROUNDOFF of the result's norm."""
    got = symmetrized_substitution(poly, *operands)
    expected = orderings_symmetrized_substitution(poly, *operands)
    assert type(got) is type(expected)
    difference = representations._fro(got - expected)
    assert difference <= SUBSTITUTION_ROUNDOFF * representations._fro(expected)


@pytest.mark.parametrize("pair", COMMUTATOR_PAIRS)
def test_a_shared_table_substitutes_as_separate_ones_bit_for_bit(pair):
    """f, g and {f,g}_C from one table of word sums equal each from its own,
    bit for bit: each T is formed by the same products either way, and each
    polynomial's monomials are added in the same order."""
    polys = _pair_polynomials(pair)
    for n in (12, 64):
        rep = construct_loop_rep(LoopSpec(n=n, k=1, beta=0.3, phases=np.linspace(0, 2, n)),
                                 1.3, 1.0)
        [(_, W)] = representations._parts(rep)
        X, Y = (W + W.conj().T) / 2, (W - W.conj().T) / 2j
        operands = (X, Y, _phi_z(X, Y, rep.params.hbar))
        as_array = np.asarray if isinstance(W, np.ndarray) else operand_array
        shared = spectra._symmetrized_substitutions(spectra._word_sum_plan(polys), *operands)
        for poly, together in zip(polys, shared):
            alone = symmetrized_substitution(poly, *operands)
            assert as_array(together).tobytes() == as_array(alone).tobytes()


def test_the_measure_takes_one_product_per_word_sum_step():
    """commutator_vs_bracket for (x^2, z) on a loop's _Shifts: one product
    for each pair (sub-multiset of degree >= 2 of a monomial of f, g or
    {f,g}_C, a letter of it), here found as the first letters of the
    suffixes of every ordering, plus 2 for Z = [X, Y]/(i hbar) and 2 for
    H = [F, G]/(i hbar).  A product per ordering took 27 for the words."""
    polys = _pair_polynomials("x^2,z")
    steps = {(tuple(sorted(order[i:])), order[i])
             for poly in polys for (a, b, c) in poly.terms
             for order in itertools.permutations("x" * a + "y" * b + "z" * c)
             for i in range(len(order) - 1)}
    assert len(steps) == 14
    rep = construct_loop_rep(LoopSpec(n=representations._DENSE_BELOW, k=1, beta=0.3), 1.3, 1.0)
    calls = []
    matmul = representations._Shifts.__matmul__

    def counting(self, other):
        calls.append(None)
        return matmul(self, other)

    with mock.patch.object(representations._Shifts, "__matmul__", counting):
        commutator_vs_bracket(*polys[:2], [rep], Fraction(13, 10), Fraction(1))
    assert len(calls) == len(steps) + 4


@pytest.mark.parametrize("pair", COMMUTATOR_PAIRS)
def test_commutator_measure_on_shift_operands_at_small_n(pair):
    """Forced onto shift-diagonal operands below N = 48, loops (relabeled
    too) and strings give the dense errors within 1e-9 relative."""
    f, g = (parse_poly3(text) for text in pair.split(","))
    loops = [rep for n in (5, 12, 40) for rep in _chain_reps(n)
             if rep.params.mu == 1.3 and rep.params.c == 1.0]
    strings = [rep for n in (5, 12, 40) for rep in _chain_reps(n) if rep.params.mu == 0.9]
    for reps, mu in ((loops, Fraction(13, 10)), (strings, Fraction(9, 10))):
        for rep in reps:
            c = Fraction(rep.params.c)
            dense = commutator_vs_bracket(f, g, [rep], mu, c)
            with monkeypatch_dense_below(0):
                shifted = commutator_vs_bracket(f, g, [rep], mu, c)
            assert shifted[0][1] == pytest.approx(dense[0][1], rel=1e-9, abs=1e-14)


def monkeypatch_dense_below(n: int):
    return mock.patch.object(representations, "_DENSE_BELOW", n)


@pytest.mark.parametrize("pair", COMMUTATOR_PAIRS)
def test_commutator_vs_bracket_at_extreme_scales(pair):
    """A weighted-homogeneous pair at (4^j mu, 16^j c) gives the errors of
    (mu, c) bit for bit, dense (N = 10) and on _Shifts (N = 60)."""
    f, g = (parse_poly3(text) for text in pair.split(","))
    mu = Fraction(13, 10)
    reference = commutator_vs_bracket(f, g, figure_loops([10, 60]), mu, Fraction(1))
    for j in (-200, 37, 200):
        scaled_mu, scaled_c = mu * Fraction(4) ** j, Fraction(16) ** j
        reps = figure_loops([10, 60], scaled_mu, scaled_c)
        assert commutator_vs_bracket(f, g, reps, scaled_mu, scaled_c) == reference


def test_an_unscaled_pair_whose_error_underflows_raises():
    """(x + z, y) is not weighted-homogeneous, so it runs unscaled.  At
    (13/10, 1) its errors are those of the unscaled evaluation bit for bit;
    at (4^-200 mu, 16^-200 c), where H - B has entries of about 1e-182 and
    the squares in its Frobenius norm underflow to 0, it raises instead of
    reading an error of 0."""
    f, g = parse_poly3("x + z"), parse_poly3("y")
    mu = Fraction(13, 10)
    assert commutator_vs_bracket(f, g, figure_loops([10, 60]), mu, Fraction(1)) == [
        (10, 0.030219597309223974), (60, 0.000778264242752173)]
    small_mu, small_c = mu / Fraction(4) ** 200, Fraction(1, 16 ** 200)
    for n in (10, 60):
        with pytest.raises(ValueError, match=f"at N = {n} underflows"):
            commutator_vs_bracket(f, g, figure_loops([n], small_mu, small_c), small_mu, small_c)


def test_commutator_vs_bracket_rejects_mismatched_params():
    reps = figure_loops([10])
    with pytest.raises(ValueError):
        commutator_vs_bracket(X_POLY, Y_POLY, reps, Fraction(1), Fraction(1))


# ---------------------------------------------------------------------------
# svg artifact
# ---------------------------------------------------------------------------

def test_write_spectrum_svg(tmp_path):
    report = position_spectrum(build_figure_rep(1.3, 1.0, 30))
    path = tmp_path / "spectrum.svg"
    write_spectrum_svg(report, str(path))
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<circle") == 30 + 29
