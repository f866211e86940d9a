"""Spectra of phi(X): eigenvalue branching against critical values, the
mu-sweep behind the eigenvalue-distribution figure, and the commutator vs
Poisson-bracket convergence measure.

phi(X) = (W + W^dagger)/2 is read off W's one reading of loops, strings and
self-loops (Representation._chains): from N = 48 on, a W made of them goes
to LAPACK's bidiagonal and band solvers from its walks, in O(N^2) with no
N x N array; any other W, and every W below N = 48, to the dense
np.linalg.eigvalsh, in O(N^3).  The commutator measure substitutes
polynomials into phi(X), phi(Y), phi(Z) from one table of the sums over
the orderings of each letter multiset, each formed once by a recursion on
its first letter.  The LAPACK routines are called through
ctypes from the LAPACK numpy links against (representations._lapack), so
a spectrum imports no scipy wherever that LAPACK exports them.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import representations
from .representations import (LapackError, LoopSpec, NonFiniteMatrixError, Representation,
                              StringSpec, _binary_exponent, _fro,
                              _operands, _phi_z, _Shifts, construct_loop_rep,
                              construct_string_rep, solve_string_theta)
from .surface import (CommPolynomial3, bracket_constraint,
                      critical_values_torus_sphere, poisson_bracket)

__all__ = [
    "SpectrumReport", "BranchInterval", "SweepRow",
    "NotHermitianError", "DegreeTooHighError", "NonFiniteMatrixError", "LapackError",
    "hermitian_eigenvalues", "position_spectrum", "detect_branches",
    "sweep_mu", "sweep_reports", "sweep_rows", "spectrum_rows", "sweep_rows_to_csv",
    "commutator_vs_bracket",
    "symmetrized_substitution", "build_figure_rep", "write_spectrum_svg",
]

BRANCH_RATIO = 2.0
MAX_SUBSTITUTION_DEGREE = 4


class NotHermitianError(ValueError):
    pass


class DegreeTooHighError(ValueError):
    pass


def hermitian_eigenvalues(H: np.ndarray) -> np.ndarray:
    """All eigenvalues of a hermitian matrix, ascending: np.linalg.eigvalsh,
    O(N^3).  Nothing in this package, the CLI or the benchmark workloads
    calls it (spectra read phi(X) off W), so it takes no structured route;
    it stays public for library users and for the benchmark tracer, which
    looks it up by name.

    Raises NonFiniteMatrixError for a NaN or infinite entry and
    NotHermitianError when ||H - H^dagger|| > 1e-12 ||H|| (Frobenius;
    eigvalsh reads one triangle only), both norms taken of H 2^-e, 2^e the
    power of two just above H's largest real or imaginary part (at least
    2^-1000), so that neither overflows nor underflows at any scale.
    """
    H = np.asarray(H, dtype=complex)
    e = max(_binary_exponent(H), -1000)     # 2^-e is a double; scaling up is exact
    scaled = H * 2.0 ** -e
    scale = np.linalg.norm(scaled)
    defect = np.linalg.norm(scaled - scaled.conj().T)
    if defect > 1e-12 * max(scale, 1e-300):
        with np.errstate(over="ignore"):
            defect = np.ldexp(defect, e)
        raise NotHermitianError(f"matrix is not hermitian (defect {defect:.3g})")
    return np.linalg.eigvalsh(H)


def _walk_eigenvalues(components: list[tuple[np.ndarray, bool, np.ndarray]],
                      isolated: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the hermitian H whose graph is the union of
    ``components`` (walk v_0 .. v_m-1, closed into a cycle of m >= 3 or not,
    hops[t] = H_{v_t v_t+1} != 0 along it, v_m = v_0; a zero diagonal) and
    of isolated vertices with the diagonal entries ``isolated``.

    The diagonal gauge that turns each entry H_{v_t v_t+1} along a
    component's walk v_0 .. v_{m-1} into its modulus leaves a cycle's
    closing entry H_{v_m-1 v_0} times the product of the other entries'
    phases: the twist t, whose phases are taken of the entries times an
    exact 2^-e (_binary_exponent, e >= -1000), so no 1/|h| overflows.
    A twist of an m-vertex cycle is real to double precision when its angle
    theta to the real axis satisfies sin(theta) <= 16 m eps (eps = 2^-52),
    and it is then replaced by +-|t|, the sign of Re t.  The reason: the
    gauge that spreads theta evenly over the cycle's m entries turns H into
    a matrix that differs from the real-twisted one by at most
    2 theta max|H_ij| / m in norm, so no eigenvalue moves by more than
    32 eps max|H_ij| (Weyl), the size of rounding.  The product that forms
    t carries an angle error of a few m eps by itself: a loop whose phases
    are set to sum to 0 or pi gets sin(theta) <= 5.6 m eps (measured over
    3130 loops at m = 5 .. 1025), which this rule makes real.

    A path (an isolated vertex with a zero diagonal too) and a cycle of even
    length with a real twist are bipartite, and their eigenvalues are +-sigma
    of their half-size biadjacency blocks (_bipartite_eigenvalues), about a
    quarter of the full-size band solve's work.  Every other cycle (an odd
    one, a complex twist) is laid out as v_0, v_{m-1}, v_1, v_{m-2}, ...,
    which puts every edge within distance 2 of the diagonal; these blocks
    are stacked into one band matrix, in which edges of different components
    never meet, for LAPACK's dsbevd or zhbevd (_band_eigenvalues): O(m^2 b)
    flops for the reduction to tridiagonal form (b = 2) and O(m^2) for the
    eigenvalues.
    Real twists make a real band matrix, the others a complex one, which
    costs about twice as much.
    """
    banded = []     # (complex twist, walk, hops, twist) for the band solvers
    paths, cycles = [], []      # the bipartite ones: moduli, and (moduli, twist)
    for walk, closed, hops in components:
        if not closed:
            paths.append(np.abs(hops))
            continue
        scaled = hops[:-1] * 2.0 ** -max(_binary_exponent(hops[:-1]), -1000)
        twist = hops[-1] * np.prod(scaled / np.abs(scaled))
        if abs(twist.imag) <= 16 * len(walk) * np.finfo(float).eps * abs(twist):
            twist = math.copysign(abs(twist), twist.real)
        if twist.imag != 0 or len(walk) % 2:
            banded.append((twist.imag != 0, walk, hops, twist))
        else:
            cycles.append((np.abs(hops[:-1]), twist))
    banded.sort(key=lambda component: component[0])     # the real ones first
    size = sum(len(walk) for _, walk, _, _ in banded)
    split = sum(len(walk) for is_complex, walk, _, _ in banded if not is_complex)
    band = np.zeros((3, size), dtype=complex)      # band[d, j] = A[j + d, j]
    start = 0
    for _, walk, hops, twist in banded:
        m = len(walk)
        j = np.arange(m)
        position = np.empty(m, dtype=int)       # of v_t in v_0, v_m-1, v_1, v_m-2, ...
        position[np.stack([j, j[::-1]], axis=1).ravel()[:m]] = j
        ends = position, position[(j + 1) % m]
        band[np.abs(ends[0] - ends[1]), start + np.minimum(*ends)] = np.abs(hops)
        band[1, start] = twist      # (v_m-1, v_0) sits at band positions (1, 0)
        start += m
    eigs = [isolated]
    if paths or cycles:
        eigs.append(_bipartite_eigenvalues(paths, cycles))
    for part in (band[:, :split].real, band[:, split:]):
        if part.shape[1]:      # LAPACK's rescaling wants no more bands than rows
            eigs.append(_band_eigenvalues(part[:part.shape[1]]))
    return np.sort(np.concatenate(eigs))


def _bipartite_eigenvalues(paths: list[np.ndarray],
                           cycles: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Eigenvalues, unordered, of the direct sum of zero-diagonal paths, each
    given by its edge moduli h_0 .. h_m-2 along its walk v_0 .. v_m-1, and
    even cycles, each given by h_0 .. h_m-2 and the real twist t of its
    closing edge (v_m-1, v_0).

    Each is bipartite between the rows r_i = v_2i and the columns
    c_i = v_2i+1, so its eigenvalues are +-sigma, the singular values of its
    biadjacency block B, of half its size:
    - a path's B^T is upper bidiagonal, with h_0, h_2, ... on the diagonal
      and h_1, h_3, ... above it.  An odd path's has one column more than
      it has rows and gets a zero row, the pad, which adds one zero singular
      value; that one is dropped, and the path's eigenvalue 0 is put in
      exactly;
    - an even cycle's B is cyclic bidiagonal: B[i, i] = h_2i,
      B[i, i-1] = h_2i-1 and, in the corner, B[0, k-1] = t (k = m/2).  Its
      rows in the order r_0, r_k-1, r_1, r_k-2, ... and its columns in the
      order c_k-1, c_0, c_k-2, c_1, ... make it tridiagonal, which LAPACK's
      dgbbrd reduces to an upper bidiagonal by Givens rotations.
    The bidiagonals, stacked into one, go to LAPACK's dlasq1, the dqds
    algorithm (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 1990;
    Fernando & Parlett, Numer. Math. 67, 1994): O(k^2) flops.
    """
    # each path's moduli padded to an even count, so that their concatenation
    # splits into a diagonal and a superdiagonal; every block's last
    # superdiagonal entry is 0, which cuts it from the next block
    chain = np.concatenate([np.zeros(0)] + [np.append(h, np.zeros(2 - len(h) % 2))
                                            for h in paths])
    d, e = chain[0::2], chain[1::2]
    if cycles:
        band = np.zeros((3, sum(len(h) + 1 for h, _ in cycles) // 2), order="F")
        start = 0       # band[1 + i - j, j] = A[i, j], LAPACK's layout
        for h, twist in cycles:
            k = (len(h) + 1) // 2
            j = np.arange(k)
            r = np.stack([j, j[::-1]], axis=1).ravel()[:k]      # the row at position j
            column = np.empty(k, dtype=int)                     # the position of c_q
            column[np.stack([j[::-1], j], axis=1).ravel()[:k]] = j
            b = np.append(h, twist)     # B[i, i] = b[2i], B[i, i-1] = b[2i-1], b[-1] = t
            for value, at in ((b[2 * r], column[r]), (b[2 * r - 1], column[r - 1])):
                band[1 + j - at, start + at] = value
            start += k
        bd, be = _dgbbrd(band)
        d, e = np.concatenate([d, bd]), np.concatenate([e, be])
    pads = sum(len(h) % 2 == 0 for h in paths)
    sigma = _dlasq1(d, e)[:len(d) - pads]       # descending: the pads' zeros are last
    # 0.0 - sigma, not -sigma: a zero singular value gives +0.0, as eigvalsh would
    return np.concatenate([sigma, 0.0 - sigma, np.zeros(pads)])


def _dlasq1(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The singular values, descending, of the upper bidiagonal matrix with
    the diagonal d and the superdiagonal e[:-1]: e has len(d) entries, as in
    LAPACK's dlasq1, which uses the last as workspace.  LapackError when
    INFO != 0."""
    n = len(d)
    if len(e) != n:
        raise ValueError(f"dlasq1 takes {n} superdiagonal slots, got {len(e)}")
    d, e = np.array(d, dtype=float), np.array(e, dtype=float)    # overwritten
    dlasq1, integer = representations._lapack("dlasq1", "idddi")
    info = integer()
    dlasq1(integer(n), d, e, np.empty(4 * n), info)      # N D E WORK INFO
    if info.value:
        raise LapackError("dlasq1", info.value)
    return d


def _dgbbrd(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An upper bidiagonal (d, e) with the singular values of the square
    tridiagonal A given as band[1 + i - j, j] = A[i, j] (LAPACK's band
    layout, kl = ku = 1), by LAPACK's dgbbrd without vectors; e[-1] = 0, as
    _dlasq1 takes it.  LapackError when INFO != 0."""
    if band.ndim != 2 or len(band) != 3:
        raise ValueError(f"dgbbrd takes a tridiagonal band of 3 rows, got {band.shape}")
    n = band.shape[1]
    ab = np.array(band, dtype=float, order="F")     # overwritten
    d, e, unused = np.empty(n), np.zeros(n), np.zeros(1)
    dgbbrd, integer = representations._lapack("dgbbrd", "ciiiiididddidididi")
    info = integer()
    # VECT M N NCC KL KU AB LDAB D E Q LDQ PT LDPT C LDC WORK INFO; Q, PT and C
    # are not referenced for VECT = 'N' and NCC = 0
    dgbbrd(b"N", integer(n), integer(n), integer(0), integer(1), integer(1), ab, integer(3),
           d, e, unused, integer(1), unused, integer(1), unused, integer(1), np.empty(2 * n),
           info)
    if info.value:
        raise LapackError("dgbbrd", info.value)
    return d, e


def _band_eigenvalues(band: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the real symmetric (float64 ``band``) or
    complex hermitian (complex128) A given by its lower band,
    band[d, j] = A[j + d, j], with no more bands than columns: LAPACK's
    dsbevd or zhbevd without vectors (JOBZ = 'N', UPLO = 'L'), with the
    least workspace LAPACK documents for them (LWORK = 2N for dsbevd;
    LWORK = LRWORK = N for zhbevd; LIWORK = 1).  LapackError when
    INFO != 0."""
    if band.ndim != 2 or not 1 <= len(band) <= band.shape[1]:
        raise ValueError(f"a band solve takes 1 to N bands of N columns, got {band.shape}")
    kd, n = len(band) - 1, band.shape[1]
    if np.iscomplexobj(band):
        routine, ab, z = "zhbevd", np.array(band, dtype=complex, order="F"), np.zeros(1, complex)
        call, integer = representations._lapack(routine, "cciizidzizidiiii")
        work = (np.empty(n, dtype=complex), integer(n), np.empty(n), integer(n))
    else:
        routine, ab, z = "dsbevd", np.array(band, dtype=float, order="F"), np.zeros(1)
        call, integer = representations._lapack(routine, "cciididdidiiii")
        work = (np.empty(2 * n), integer(2 * n))
    w, info = np.empty(n), integer()
    # JOBZ UPLO N KD AB LDAB W Z LDZ WORK LWORK (zhbevd: RWORK LRWORK) IWORK
    # LIWORK INFO; Z is not referenced for JOBZ = 'N'
    call(b"N", b"L", integer(n), integer(kd), ab, integer(kd + 1), w, z, integer(1), *work,
         (integer * 1)(), integer(1), info)
    if info.value:
        raise LapackError(routine, info.value)
    return w


def _phi_x_eigenvalues(rep: Representation) -> np.ndarray:
    """Eigenvalues of phi(X) = (W + W^dagger)/2, ascending, by one of two
    routes; phi(X) is hermitian by construction, so it needs no hermiticity
    check.

    From N = 48 (representations._DENSE_BELOW) on, when W is a sum of loops
    of length >= 3, strings and self-loops (Representation._chains), the
    components go to _walk_eigenvalues from their walks, with no N x N array
    and O(N + nnz) work before LAPACK's O(N^2) solve: phi(X)'s entries along
    a walk are w/2 (W's mirror entries are 0), and a self-loop is an
    isolated vertex of phi(X) whose eigenvalue is Re W_vv.  Each walk is
    oriented as a walk of phi(X)'s graph would be: a path from its smaller
    end, a cycle from its smallest vertex toward the smaller neighbour.

    Any other W goes to np.linalg.eigvalsh of the dense phi(X), O(N^3),
    after a check that W + W^dagger did not overflow: below N = 48, where
    the walk route is slower (0.29 against 0.23 ms for a loop's eigenvalues
    at N = 32, against 0.30 and 0.34 ms at N = 48; the table at
    representations._DENSE_BELOW).  At
    any N: a block loop or a degenerate rep with a dense U, whose phi(X) has
    vertices of degree > 2; a 2-cycle (W_ij and W_ji both set), which adds
    two of W's entries into one of phi(X)'s; and a w/2 that underflows to 0,
    which leaves phi(X) without that edge.
    """
    chains = rep._chains if rep.n >= representations._DENSE_BELOW else None
    if chains is not None:
        components, isolated = [], []
        for walk, closed, w in chains:
            if closed and len(walk) == 1:
                isolated.append(w[0].real)
                continue
            hops = w / 2
            if closed and len(walk) == 2 or not hops.all():
                break
            if (walk[1] > walk[-1]) if closed else (walk[0] > walk[-1]):
                walk, hops = walk[::-1], hops[::-1].conj()
                if closed:      # back to the smallest vertex first
                    walk = np.roll(walk, 1)
            components.append((walk, closed, hops))
        else:
            return _walk_eigenvalues(components, np.array(isolated))
    if not np.isfinite(rep.phi_X).all():
        raise NonFiniteMatrixError("phi(X) has an infinite entry: W overflows in W + W^dagger")
    return np.linalg.eigvalsh(rep.phi_X)


@dataclass(frozen=True)
class BranchInterval:
    lo: float
    hi: float
    count: int | None      # None = indeterminate (fewer than 4 eigenvalues)
    n_points: int


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple[float, ...]
    gaps: tuple[float, ...]
    intervals: tuple[BranchInterval, ...]
    mu: float
    c: float
    N: int

    def branch_pattern(self) -> tuple[int | None, ...]:
        return tuple(iv.count for iv in self.intervals)


def _check_ratio(ratio: float) -> None:
    if not (math.isfinite(ratio) and ratio > 1):
        raise ValueError(f"branch ratio must be a finite number > 1, got {ratio}")


def detect_branches(spectrum: Sequence[float], critical_values: Sequence[float],
                    ratio: float = BRANCH_RATIO) -> list[BranchInterval]:
    """Branch count per open interval between consecutive critical values.

    An interval holds two branches when splitting its eigenvalues into the
    odd- and even-indexed subsequences reduces the maximal second difference
    by at least ``ratio`` (interleaving signature); fewer than 4 eigenvalues
    is reported as indeterminate.
    """
    _check_ratio(ratio)
    eigs = np.sort(np.asarray(spectrum, dtype=float))
    crits = sorted(critical_values)
    if len(crits) < 2:
        raise ValueError("need at least two critical values")
    scale = float(eigs[-1] - eigs[0]) if len(eigs) > 1 else 1.0
    # lo < lambda < hi: from the first eigenvalue above lo to the last below hi
    starts = np.searchsorted(eigs, crits[:-1], side="right").tolist()
    stops = np.searchsorted(eigs, crits[1:], side="left").tolist()
    # |second differences| of the whole spectrum and of its even- and
    # odd-indexed subsequences, taken once: an interval's values, and those
    # of its own halves, are slices of these (the parity of an element's
    # index picks its subsequence)
    second = np.abs(np.diff(eigs, n=2))
    by_parity = [np.abs(np.diff(eigs[p::2], n=2)) for p in (0, 1)]
    out = []
    for lo, hi, start, stop in zip(crits, crits[1:], starts, stops):
        if stop - start < 4:
            out.append(BranchInterval(lo, hi, None, max(stop - start, 0)))
            continue
        m0 = float(np.max(second[start:stop - 2]))
        subs = []
        for first in (start, start + 1):        # the interval's [0::2] and [1::2]
            size = (stop - first + 1) // 2
            if size >= 3:
                at = first // 2
                subs.append(float(np.max(by_parity[first % 2][at:at + size - 2])))
        if m0 <= 1e-12 * scale or not subs:
            count = 1
        else:
            m1 = max(subs)
            count = 2 if (m1 == 0.0 or m0 / m1 >= ratio) else 1
        out.append(BranchInterval(lo, hi, count, stop - start))
    return out


def position_spectrum(rep: Representation, ratio: float = BRANCH_RATIO) -> SpectrumReport:
    """Spectrum of phi(X) with gaps and branch intervals for the rep's (mu, c).

    The eigenvalues come from _phi_x_eigenvalues.  From N = 48 on, a loop,
    a string or a direct sum of them is read off W's walks with no N x N
    array: a string, and a loop of even N whose twist lies within 16 N eps
    of the real axis (its phases sum to 0 or pi up to roundoff), is
    bipartite, and its eigenvalues are +-sigma of the N/2 x N/2 biadjacency
    block through LAPACK's dqds, in O(N^2) (_bipartite_eigenvalues); a real
    twist moves no eigenvalue by more than 32 eps max|phi(X)_ij|
    (_walk_eigenvalues).  An odd loop, or one with a complex twist, takes
    the band solver of half-bandwidth 2, also O(N^2).  Below N = 48, and for
    block loops of block_dim >= 2 and degenerate reps with a dense U, the
    dense phi(X) goes to the O(N^3) np.linalg.eigvalsh."""
    eigs = _phi_x_eigenvalues(rep)
    if rep.params.c > 0:
        crits = critical_values_torus_sphere(rep.params.mu, rep.params.c)
    else:
        # degenerate surface: the circle x^2 + y^2 = mu, extent +- sqrt(mu)
        edge = math.sqrt(max(rep.params.mu, 0.0))
        crits = [-edge, edge]
    slack = 0.15 * (crits[-1] - crits[0])
    if eigs[0] < crits[0] - slack or eigs[-1] > crits[-1] + slack:
        raise ValueError(
            "spectrum extends beyond the surface's critical range; the "
            "representation does not match the stated (mu, c)")
    intervals = detect_branches(eigs, crits, ratio)
    return SpectrumReport(tuple(eigs.tolist()), tuple(np.diff(eigs).tolist()), tuple(intervals),
                          rep.params.mu, rep.params.c, rep.n)


def build_figure_rep(mu: float, c: float, N: int, beta: float = 0.0) -> Representation:
    """The N-dimensional representation used in the eigenvalue figure: a loop
    with theta = pi/N for mu/sqrt(c) > 1, otherwise the string with theta
    solved from cos(N theta) + (mu/sqrt(c)) cos(theta) = 0."""
    if c <= 0:
        raise ValueError("c must be positive")
    if mu / math.sqrt(c) > 1:
        return construct_loop_rep(LoopSpec(n=N, k=1, beta=beta), mu, c)
    theta = solve_string_theta(N, mu, c)
    return construct_string_rep(StringSpec(n=N, theta=theta, mu=mu,
                                           c=c if mu == 0 else None))


@dataclass(frozen=True, init=False)
class SweepRow:
    """One eigenvalue's row of a sweep, or a failed mu's (``error`` set).
    __init__ fills the instance dict as unpickling does, 0.6 us a row
    against 2.1 us for the frozen one's object.__setattr__ per field."""
    mu: float
    i: int | None
    lam: float | None
    gap: float | None
    interval: int | None
    branches: int | None
    error: str | None = None     # why this mu has no spectrum

    def __init__(self, mu: float, i: int | None, lam: float | None, gap: float | None,
                 interval: int | None, branches: int | None, error: str | None = None):
        fields = self.__dict__
        (fields["mu"], fields["i"], fields["lam"], fields["gap"], fields["interval"],
         fields["branches"], fields["error"]) = mu, i, lam, gap, interval, branches, error


def spectrum_rows(report: SpectrumReport) -> list[SweepRow]:
    """One SweepRow per eigenvalue; lambda is in interval (lo, hi) when
    lo < lambda < hi, so one on a critical value is in none.  The intervals
    ascend (detect_branches), so one np.searchsorted finds the candidate."""
    eigs = np.array(report.eigenvalues)
    lo = np.array([iv.lo for iv in report.intervals])
    hi = np.array([iv.hi for iv in report.intervals] + [-math.inf])    # [-1]: below every lo
    at = np.searchsorted(lo, eigs) - 1
    at = np.where(eigs < hi[at], at, -1).tolist()
    counts = [iv.count for iv in report.intervals] + [None]
    gaps = itertools.chain(report.gaps, itertools.repeat(None))    # none after the last
    return [SweepRow(report.mu, i, lam, gap, None if k < 0 else k, counts[k])
            for i, lam, gap, k in zip(itertools.count(1), report.eigenvalues, gaps, at)]


def sweep_reports(mu_values: Sequence[float], c: float, N: int, beta: float = 0.0,
                  ratio: float = BRANCH_RATIO) -> list[tuple[float, SpectrumReport | Exception]]:
    """(mu, spectrum report of the figure representation) for each mu; a mu
    whose construction or spectrum fails carries the exception instead and
    the sweep continues."""
    _check_ratio(ratio)
    out: list[tuple[float, SpectrumReport | Exception]] = []
    for mu in mu_values:
        try:
            out.append((mu, position_spectrum(build_figure_rep(mu, c, N, beta), ratio)))
        except Exception as exc:   # record and continue
            out.append((mu, exc))
    return out


def sweep_rows(reports: Sequence[tuple[float, SpectrumReport | Exception]]) -> list[SweepRow]:
    """Rows of every report; a failed mu gives one row with the error text."""
    rows: list[SweepRow] = []
    for mu, report in reports:
        if isinstance(report, Exception):
            rows.append(SweepRow(mu, None, None, None, None, None, str(report)))
        else:
            rows.extend(spectrum_rows(report))
    return rows


def sweep_mu(mu_values: Sequence[float], c: float, N: int,
             beta: float = 0.0, ratio: float = BRANCH_RATIO) -> list[SweepRow]:
    """Eigenvalue rows (mu, i, lambda_i, gap_i, interval id, branch count) for
    each mu; per-mu construction failures are recorded in-row and the sweep
    continues."""
    return sweep_rows(sweep_reports(mu_values, c, N, beta, ratio))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    buf.write("mu,i,lambda,gap,interval,branches\n")
    for row in rows:
        branches = row.branches if row.error is None else f"error: {row.error}"
        buf.write(",".join(_fmt(v) for v in
                           (row.mu, row.i, row.lam, row.gap, row.interval, branches)))
        buf.write("\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commutators vs Poisson brackets
# ---------------------------------------------------------------------------

def symmetrized_substitution(poly: CommPolynomial3, X, Y, Z):
    """Substitute x,y,z -> X,Y,Z with full symmetrization: each monomial is the
    average over all distinct orderings of its letter multiset (degree <= 4).

    X, Y and Z are of one operand kind of representations._operands: dense
    arrays, m x m block diagonals on cyclic block offsets (_Shifts) or
    scipy.sparse CSR arrays, and the result is of the same kind; the
    constant term is the identity of that kind, and the empty sum its zero,
    on _Shifts of X's block size m and block count.  The sums over orderings
    come from the recursion of _symmetrized_substitutions, one product per
    distinct letter of each sub-multiset of degree >= 2: O(N^3) per product
    on dense arrays, O(m N) per pair of offsets on _Shifts (phi(X), phi(Y),
    phi(Z) of a loop or string in walk order, m = 1, or of a block loop in
    block order, on offsets -1..1, -1..1 and 0, whose words of degree <= 4
    use at most 9 offsets), O(nnz) on CSR arrays of banded matrices."""
    [total] = _symmetrized_substitutions(_word_sum_plan([poly]), X, Y, Z)
    return total


def _word_sum_plan(polys: Sequence[CommPolynomial3]) -> tuple[list, list]:
    """(polys, steps): how _symmetrized_substitutions forms ``polys`` from
    one table of word sums.  It depends on the polynomials alone, so one
    plan serves every set of operands.

    T(m), the sum of the products over all distinct orderings of a letter
    multiset m, satisfies T(m) = sum_l L_l T(m - l) over the distinct letters
    l of m (an ordering is its first letter times an ordering of the rest),
    with L_x, L_y, L_z = X, Y, Z and T of the empty multiset the identity.
    The table holds T for every sub-multiset of the polynomials' monomials,
    formed once each in order of degree: a multiset of degree 1 is its
    letter's operand, one of degree >= 2 costs one product per distinct
    letter.  A monomial x^a y^b z^c contributes T((a, b, c)) times its
    coefficient over the multinomial count (a + b + c)! / (a! b! c!), as
    soon as that T is formed.  Each step is (m, products, terms, kept):
    the products (axis, rest, last) form T(m) from L_axis T(rest), T(rest)
    freed after its last read, each term (i, a) adds a T(m) to polys[i],
    and T(m) is kept when a later step reads it.
    """
    for poly in polys:
        for powers in poly.terms:
            if sum(powers) > MAX_SUBSTITUTION_DEGREE:
                raise DegreeTooHighError(
                    f"monomial degree {sum(powers)} exceeds the symmetrization cap "
                    f"{MAX_SUBSTITUTION_DEGREE}")
    # the monomials and their nonempty sub-multisets, by degree
    table = sorted({sub for poly in polys for powers in poly.terms
                    for sub in itertools.product(*(range(p + 1) for p in powers))
                    if any(sub) or sub == powers}, key=lambda m: (sum(m), m))
    # the (step, letter) reading each T last, of the reads once per distinct letter
    readers = {_less(m, axis): (m, axis) for m in table if sum(m) >= 2
               for axis in range(3) if m[axis]}
    steps = []
    for m in table:
        count = math.factorial(sum(m)) // math.prod(map(math.factorial, m))
        steps.append((m, [(axis, _less(m, axis), readers[_less(m, axis)] == (m, axis))
                          for axis in range(3) if sum(m) >= 2 and m[axis]],
                      [(i, float(poly.terms[m]) / count) for i, poly in enumerate(polys)
                       if m in poly.terms], m in readers))
    return list(polys), steps


def _symmetrized_substitutions(plan: tuple[list, list], X, Y, Z) -> list:
    """symmetrized_substitution of each of a _word_sum_plan's polys, in its
    order of products and sums.  Each T is freed after its last use, and
    none is updated in place once formed: a degree-1 T is an operand itself.
    """
    polys, steps = plan
    n = X.shape[0]
    if isinstance(X, np.ndarray):
        zero = lambda: np.zeros((n, n), dtype=complex)
        identity = lambda: np.eye(n, dtype=complex)
    elif isinstance(X, _Shifts):
        zero = lambda: _Shifts(X.k, X.m, {})
        identity = lambda: _Shifts.identity(X.k, X.m)
    else:
        from scipy.sparse import csr_array, eye_array
        zero = lambda: csr_array((n, n), dtype=complex)
        identity = lambda: eye_array(n, dtype=complex, format="csr")
    operands = (X, Y, Z)
    totals = [zero() for _ in polys]
    sums = {}       # the T's still to be read
    for m, products, terms, kept in steps:
        if not products:
            T = operands[m.index(1)] if any(m) else identity()
        else:
            T = None
            for axis, rest, last in products:
                product = operands[axis] @ (sums.pop(rest) if last else sums[rest])
                if T is None:
                    T = product
                else:
                    T += product        # a product made here, never an operand
        for i, a in terms:
            totals[i] += a * T
        if kept:
            sums[m] = T
    return totals


def _less(m: tuple[int, int, int], axis: int) -> tuple[int, int, int]:
    """The letter multiset m with one letter ``axis`` (0, 1, 2 for x, y, z)
    removed."""
    return tuple(p - (i == axis) for i, p in enumerate(m))


def commutator_vs_bracket(f: CommPolynomial3, g: CommPolynomial3,
                          reps: Sequence[Representation],
                          mu: Fraction, c: Fraction) -> list[tuple[int, float]]:
    """For each representation: the relative Frobenius error between
    [F,G]/(i hbar) and the symmetrized substitution of {f,g}_C, with
    C = (P + y^2)^2/2 + z^2/2 - c and P = x^2 - mu.

    X = (W + W^dagger)/2, Y = (W - W^dagger)/2i and Z = [X, Y]/(i hbar) are
    formed from representations._operands: for N >= 48, a loop or string in
    walk order as a sum of shifted diagonals, O(N) per product, and a block
    loop in block order as its m x m block diagonals, O(m N) per product;
    for N >= 96, any other W with at most 8N nonzeros (a relabeled block
    loop, a direct sum) as CSR arrays of its entries, O(nnz) per product; no
    N x N array is built for any of them.  Dense arrays otherwise, and
    always below N = 48, where every product costs O(N^3).

    f, g and {f,g}_C are substituted from one table of word sums
    (_symmetrized_substitutions), which each representation forms once by
    one plan (_word_sum_plan), built once per call at the first rung:
    one product per distinct letter of each sub-multiset of degree >= 2 of
    their monomials, 14 for (x^2, z), whose bracket has the monomials x^3 y,
    x y^3 and x y, against 27 for a product per ordering.  Z and H take 4
    more.

    When f and g are weighted-homogeneous (_weight: x and y of weight 1, z
    of weight 2), as every pair of the README and the benchmark is, the
    products run on W 2^-e, mu 4^-e and c 16^-e, with 2^e the power of two
    just above the largest real or imaginary part of any rung's W.  These
    scalings are exact, so the errors are bit for bit those of the unscaled
    evaluation wherever that neither overflows nor underflows, and stay
    finite at any scale of W.  Other pairs run unscaled.  A NaN or infinite
    error raises ValueError.

    The error falls like hbar^2 until a bracket built on Z, as for (x, z)
    and (x^2, z), meets a roundoff floor from N of about 10^4: Z carries
    eps/hbar of roundoff and H multiplies it by 1/hbar again, so it grows
    like eps N^2.  At mu = 13/10, c = 1, (x, z) gives 3.4e-7, 8.4e-8,
    2.1e-8, 1.5e-8, 6.2e-8, 2.3e-7 at N = 3125 * 2^j up to 10^5, and
    (x^2, z) 1.7e-8, 2.4e-8, 1.0e-7 from N = 25000, while (x^2, y^2) keeps
    falling by 4 per doubling up to 10^5 (3.3e-10)."""
    mu, c = Fraction(mu), Fraction(c)
    weights = (_weight(f), _weight(g))
    # one exponent for every rung, so that one bracket, and one plan, serve
    # them all; H and {f,g} are of weight w_f + w_g in W
    e = shift = 0
    if None not in weights and reps:
        e = max(max(_binary_exponent(rep.vals) for rep in reps), -1000)
        shift = sum(weights) * e
    out, plan = [], None
    for rep in reps:
        if not (math.isclose(rep.params.mu, float(mu), rel_tol=1e-12, abs_tol=1e-12)
                and math.isclose(rep.params.c, float(c), rel_tol=1e-12, abs_tol=1e-12)):
            raise ValueError("representation parameters disagree with (mu, c)")
        hbar = rep.params.hbar
        _, W = _operands(rep)
        if plan is None:    # at the first rung, so an empty ladder raises nothing
            constraint = bracket_constraint([-mu / Fraction(4) ** e, Fraction(0), Fraction(1)],
                                            c / Fraction(16) ** e)
            plan = _word_sum_plan([f, g, poisson_bracket(f, g, constraint)])
        # products that leave the double range give a non-finite error, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            W = W * 2.0 ** -e
            X, Y = (W + W.conj().T) / 2, (W - W.conj().T) / 2j
            Z = _phi_z(X, Y, hbar)
            F, G, B = _symmetrized_substitutions(plan, X, Y, Z)
            H = (F @ G - G @ F) / (1j * hbar)
            denom = _fro(B)     # with {f,g} = 0, the error is |H|_F
            error = float(_fro(H - B) / denom if denom else np.ldexp(_fro(H), shift))
        if not math.isfinite(error):
            raise ValueError(f"the commutator error at N = {rep.n} is {error}: the products "
                             f"left the double range")
        out.append((rep.n, error))
    return out


def _weight(poly: CommPolynomial3) -> int | None:
    """The weight a + b + 2c that every monomial x^a y^b z^c of poly has, 0
    for the zero polynomial, or None when two monomials differ in weight.
    Under W -> 2^-e W, mu -> 4^-e mu and c -> 16^-e c, phi(X) and phi(Y)
    scale by 2^-e and phi(Z) by 4^-e, so a weighted-homogeneous f substitutes
    to 2^(-e weight) F exactly, and {f,g} to 2^(-e (w_f + w_g)) B."""
    weights = {a + b + 2 * c for a, b, c in poly.terms} or {0}
    return weights.pop() if len(weights) == 1 else None


# ---------------------------------------------------------------------------
# minimal SVG scatter (index vs lambda, index vs gap)
# ---------------------------------------------------------------------------

def write_spectrum_svg(report: SpectrumReport, path: str) -> None:
    """Two stacked scatter panels: eigenvalues and gaps versus index, with the
    critical values drawn as horizontal lines in the top panel."""
    width, height, margin = 640, 640, 50
    panel_h = (height - 3 * margin) // 2
    eigs = report.eigenvalues
    gaps = report.gaps
    crits = [iv.lo for iv in report.intervals] + [report.intervals[-1].hi]

    def scale(values, lo, hi, out_lo, out_hi):
        span = (hi - lo) or 1.0
        return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             '<rect width="100%" height="100%" fill="white"/>']
    for panel, (values, label) in enumerate(((eigs, "lambda_i"), (gaps, "gap_i"))):
        top = margin + panel * (panel_h + margin)
        bottom = top + panel_h
        drawn = list(values) + (crits if panel == 0 else [])   # no gaps for N = 1
        lo, hi = min(drawn, default=0.0), max(drawn, default=0.0)
        xs = scale(range(1, len(values) + 1), 1, max(len(values), 2), margin, width - margin)
        ys = scale(values, lo, hi, bottom, top)
        lines.append(f'<line x1="{margin}" y1="{bottom}" x2="{width - margin}" '
                     f'y2="{bottom}" stroke="black"/>')
        lines.append(f'<line x1="{margin}" y1="{top}" x2="{margin}" '
                     f'y2="{bottom}" stroke="black"/>')
        lines.append(f'<text x="{width // 2}" y="{bottom + 35}" font-size="12" '
                     f'text-anchor="middle">i</text>')
        lines.append(f'<text x="{margin - 35}" y="{(top + bottom) // 2}" font-size="12" '
                     f'transform="rotate(-90 {margin - 35} {(top + bottom) // 2})" '
                     f'text-anchor="middle">{label}</text>')
        if panel == 0:
            for cv in crits:
                y = scale([cv], lo, hi, bottom, top)[0]
                lines.append(f'<line x1="{margin}" y1="{y:.2f}" x2="{width - margin}" '
                             f'y2="{y:.2f}" stroke="gray" stroke-dasharray="4 3"/>')
        for x, y in zip(xs, ys):
            lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="black"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
