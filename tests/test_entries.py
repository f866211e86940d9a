"""Representations stored as their nonzero entries, checked against the dense
code they replace.

The ``dense_*`` functions below are the dense-W implementations that the
entries-based library code was written from, kept verbatim in substance as
the reference: every report, graph, index and eigenvalue of the library must
equal theirs bit for bit.  One stated exception is the diagonal data
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
from ncsurface.representations import (EDGE_RTOL, EllipsePoint, LoopSpec,
                                       MatrixGraph, NonFiniteMatrixError,
                                       NotBlockCyclicError,
                                       NotSingleLoopError, RepIndex, Representation,
                                       RepParams, StringSpec, VerificationReport,
                                       canonicalize_loop, construct_degenerate_rep,
                                       construct_loop_rep, construct_string_rep,
                                       direct_sum, ellipse_map_s, loop_weights,
                                       matrix_graph, rep_index, reps_equivalent,
                                       solve_string_theta, string_weights,
                                       verify_relations)
from ncsurface.spectra import (MAX_SUBSTITUTION_DEGREE, DegreeTooHighError,
                               commutator_vs_bracket, position_spectrum)
from ncsurface.surface import CommPolynomial3, bracket_constraint, poisson_bracket

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


def dense_fro(M) -> float:
    return np.linalg.norm(M if isinstance(M, np.ndarray) else M.data)


def dense_verify(W: np.ndarray, params: RepParams) -> VerificationReport:
    n = W.shape[0]
    if n < 96 or np.count_nonzero(W) > 8 * n:
        eye = np.eye(n)
    else:
        from scipy.sparse import csr_array, eye_array
        eye, W = eye_array(n, format="csr"), csr_array(W)
    mu, c, hbar = params.mu, params.c, params.hbar
    h2 = hbar ** 2
    Wh = W.conj().T
    D, Dt = W @ Wh, Wh @ W
    cube = dense_fro(W) ** 3 or 1.0
    lhs = (W @ D + Dt @ W) * (1 + h2)
    rhs = 4 * mu * h2 * W + (1 - h2) * (W @ Dt + D @ W)
    residual_wwd = float(dense_fro(lhs - rhs) / cube)
    delta = D + Dt - 2 * mu * eye
    diff = D - Dt
    chat = delta @ delta + (diff @ diff) / h2
    c_estimate = float(chat.trace().real / (4 * n))
    denom = 4 * c if c > 0 else 1.0
    residual_casimir = float(dense_fro(chat - 4 * c * eye) / denom)
    intertwine = float(dense_fro(W @ Dt - D @ W) / cube)
    X, Y = (W + Wh) / 2, (W - Wh) / 2j
    Z = (X @ Y - Y @ X) / (1j * hbar)
    X2, Y2 = X @ X, Y @ Y
    target_yz = 1j * hbar * (2 * X @ X2 + X @ Y2 + Y2 @ X - 2 * mu * X)
    target_zx = 1j * hbar * (2 * Y @ Y2 + Y @ X2 + X2 @ Y - 2 * mu * Y)
    residual_yz = float(dense_fro(Y @ Z - Z @ Y - target_yz) / cube)
    residual_zx = float(dense_fro(Z @ X - X @ Z - target_zx) / cube)
    return VerificationReport(residual_wwd, residual_casimir, c_estimate,
                              intertwine, residual_yz, residual_zx)


def dense_graph(W: np.ndarray) -> MatrixGraph:
    magnitude = np.abs(W)
    rows, cols = np.nonzero(magnitude > EDGE_RTOL * magnitude.max(initial=0.0))
    return MatrixGraph(W.shape[0], rows, cols)


def dense_diagonal_data(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mass = W.real ** 2 + W.imag ** 2
    return mass.sum(axis=1), mass.sum(axis=0)


def dense_rep_index(W: np.ndarray) -> RepIndex:
    graph = dense_graph(W)
    rows, cols, n, every = graph.rows, graph.cols, graph.n, np.arange(graph.n)
    if not (np.array_equal(rows, every) and np.array_equal(np.sort(cols), every)):
        raise NotSingleLoopError("the graph has not one edge per row and per column")
    succ = cols.tolist()
    order = [0]
    while succ[order[-1]] != 0:
        order.append(succ[order[-1]])
    if len(order) != n:
        raise NotSingleLoopError("not an n-cycle")
    rows, cols = np.array(order), np.roll(order, -1)
    w = W[rows, cols]
    off = np.array(W)
    off[rows, cols] = 0
    if np.linalg.norm(off) > 1e-10 * np.min(np.abs(w)):
        raise NotSingleLoopError("off-cycle mass")
    log_modulus = float(np.sum(np.log(np.abs(w))))
    phase = math.remainder(float(np.sum(np.angle(w))), 2 * math.pi)
    with np.errstate(over="ignore"):
        modulus = float(np.exp(log_modulus))
    return RepIndex(cmath.rect(modulus, phase), log_modulus, phase)


def dense_kind(W: np.ndarray) -> str:
    """"loop" or "string" when the graph of W is one n-cycle or one n-path:
    at most one edge per row and per column, n or n - 1 edges, and every
    vertex reached from vertex 0 (loop) or from the vertex with no in-edge
    (string), by n products with the dense adjacency matrix."""
    magnitude = np.abs(W)
    A = (magnitude > EDGE_RTOL * magnitude.max(initial=0.0)).astype(int)
    n, edges = len(A), int(A.sum())
    if edges not in (n, n - 1) or A.sum(axis=0).max() > 1 or A.sum(axis=1).max() > 1:
        raise NotSingleLoopError("not a partial permutation with n or n - 1 edges")
    kind = "loop" if edges == n else "string"
    reached = np.eye(n, dtype=int)[0 if kind == "loop" else np.argmin(A.sum(axis=0))]
    for _ in range(n):
        reached = np.minimum(reached + reached @ A, 1)
    if not reached.all():
        raise NotSingleLoopError("not one n-cycle or n-path")
    return kind


def dense_casimir(W: np.ndarray, p: RepParams) -> float:
    d, dt = dense_diagonal_data(W)
    return float(np.mean((d + dt - 2 * p.mu) ** 2 + ((d - dt) / p.hbar) ** 2)) / 4


def dense_equivalent(a: np.ndarray, b: np.ndarray, p: RepParams, tol: float = 1e-10) -> bool:
    kind_a, kind_b = dense_kind(a), dense_kind(b)
    if kind_a != kind_b:
        raise representations.MixedKindsError("kinds differ")
    if a.shape != b.shape:
        return False
    ca, cb = dense_casimir(a, p), dense_casimir(b, p)
    if abs(ca - cb) > tol * max(abs(ca), abs(cb)):
        return False
    if kind_a == "string":
        return True
    za, zb = dense_rep_index(a), dense_rep_index(b)
    return math.hypot(za.log_modulus - zb.log_modulus,
                      math.remainder(za.phase - zb.phase, 2 * math.pi)) <= tol


def dense_canonical_loops(W: np.ndarray, p: RepParams, tol: float = 1e-8) -> list[np.ndarray]:
    N = W.shape[0]
    d, dt = dense_diagonal_data(W)
    peak = float(np.max(np.abs(W)))
    cluster_tol = tol * peak ** 2

    def near(td, tdt):
        return (np.abs(d - td) <= cluster_tol) & (np.abs(dt - tdt) <= cluster_tol)

    classes = [np.flatnonzero(near(d[0], dt[0]))]
    m = len(classes[0])
    if m == 0 or N % m != 0:
        raise NotBlockCyclicError("vertex classes do not tile the matrix")
    k = N // m
    target = EllipsePoint(float(d[0]), float(dt[0]))
    for _ in range(k - 1):
        target = ellipse_map_s(target, p.mu, p.theta)
        classes.append(np.flatnonzero(near(*target)))
        if len(classes[-1]) != m:
            raise NotBlockCyclicError("class size")
    perm = np.concatenate(classes)
    if len(np.unique(perm)) != N:
        raise NotBlockCyclicError("classes do not partition the vertices")
    Wp = W[np.ix_(perm, perm)]
    weights = dt[perm].reshape(k, m).mean(axis=1)
    if np.min(weights) <= cluster_tol:
        raise NotBlockCyclicError("cyclic block has zero weight")
    ls, i = np.arange(k)[:, None, None], np.arange(m)
    rows, cols = ls * m + i[:, None], (ls + 1) % k * m + i
    bands = Wp[rows, cols]
    Wp[rows, cols] = 0
    off_band = float(np.linalg.norm(Wp))
    if off_band > tol * peak:
        raise NotBlockCyclicError("nonzero entries outside the cyclic band")
    U = np.roll(bands, 1, axis=0) / np.sqrt(weights)[:, None, None]
    if np.max(np.linalg.norm(U @ U.conj().swapaxes(1, 2) - np.eye(m), axis=(1, 2))) > tol * m:
        raise NotBlockCyclicError("cyclic block is not proportional to a unitary")
    prefix = [np.eye(m, dtype=complex)]
    for l in range(1, k):
        prefix.append(prefix[-1] @ U[l])
    T, S = scipy.linalg.schur(prefix[-1] @ U[0], output="complex")
    eigenvalues = np.diag(T)
    if np.linalg.norm(T - np.diag(eigenvalues)) > tol * m:
        raise NotBlockCyclicError("holonomy failed to diagonalize")
    P = np.array(prefix).conj().swapaxes(1, 2) @ S
    blocks = P.conj().swapaxes(1, 2) @ bands @ np.roll(P, -1, axis=0)
    expected = np.sqrt(np.roll(weights, -1))[:, None, None] * np.eye(m, dtype=complex)
    expected[-1] = math.sqrt(weights[0]) * np.diag(eigenvalues)
    if math.hypot(np.linalg.norm(blocks - expected), off_band) > tol * peak * N:
        raise NotBlockCyclicError("conjugated matrix is not a sum of single loops")
    cycle = np.diagonal(blocks, axis1=1, axis2=2)
    return [np.roll(np.diag(cycle[:, j]), 1, axis=1) for j in np.argsort(np.angle(eigenvalues))]


def dense_eigenvalues(H: np.ndarray) -> np.ndarray:
    """hermitian_eigenvalues on the dense H (its checks are the library's):
    eigvalsh below N = 96 (representations._DENSE_BELOW) and for any vertex
    of degree > 2.  Otherwise each path and each even cycle with a real
    twist whose diagonal is zero gives +-sigma of its biadjacency block, cut
    from H between the walk's even and odd positions and gauged to moduli
    (an odd path's padded with a zero column, a cycle's permuted to a
    tridiagonal for dgbbrd), all through one dlasq1; the other paths and
    cycles go to the band solve."""
    lower = np.tril(H != 0, -1)
    if H.shape[0] < representations._DENSE_BELOW or \
            (lower.sum(axis=0) + lower.sum(axis=1)).max(initial=0) > 2:
        return np.linalg.eigvalsh(H)
    rows, cols = np.nonzero(lower)

    def entries(i, j):
        return np.where(i > j, H[i, j], H[j, i].conj())

    components, diagonals, superdiagonals, cycle_bands, pads = [], [], [], [], 0
    for walk, closed in spectra._walks(H.shape[0], rows, cols):
        twist = None
        if closed:
            cycle = entries(np.array(walk), np.array(walk[1:] + walk[:1]))
            twist = cycle[-1] * np.prod(cycle[:-1] / np.abs(cycle[:-1]))
            if abs(twist.imag) <= 16 * len(walk) * np.finfo(float).eps * abs(twist):
                twist = math.copysign(abs(twist), twist.real)
        is_complex = twist is not None and twist.imag != 0
        if is_complex or H.diagonal()[walk].any() or closed and len(walk) % 2:
            components.append((is_complex, walk, twist))
            continue
        # B[i, i] and B[i, i - 1] are the edges of v_2i, B[0, k - 1] a cycle's closing one
        B = np.abs(H[np.ix_(walk[0::2], walk[1::2])])
        k = len(B)
        if closed:
            B[0, k - 1] = twist
            # rows r_0, r_k-1, r_1, ..., columns c_k-1, c_0, c_k-2, ...: a tridiagonal
            A = B[np.ix_([i for pair in zip(range(k), reversed(range(k))) for i in pair][:k],
                         [i for pair in zip(reversed(range(k)), range(k)) for i in pair][:k])]
            assert not np.triu(A, 2).any() and not np.tril(A, -2).any()
            cycle_bands.append(np.array([np.append(0.0, np.diag(A, 1)), np.diag(A),
                                         np.append(np.diag(A, -1), 0.0)]))
        else:
            pads += B.shape[1] < k
            B = np.pad(B, ((0, 0), (0, k - B.shape[1])))
            diagonals.append(np.diag(B))
            superdiagonals.append(np.append(np.diag(B, -1), 0.0))   # of B^T
    eigs = [np.empty(0)]
    if diagonals or cycle_bands:
        d = np.concatenate([np.empty(0)] + diagonals)
        e = np.concatenate([np.empty(0)] + superdiagonals)
        if cycle_bands:
            bd, be = spectra._dgbbrd(np.concatenate(cycle_bands, axis=1))
            d, e = np.concatenate([d, bd]), np.concatenate([e, be])
        sigma = spectra._dlasq1(d, e)[:len(d) - pads]
        eigs += [sigma, 0.0 - sigma, np.zeros(pads)]
    components.sort(key=lambda component: component[0])
    order, closing = [], []
    for _, walk, twist in components:
        if twist is not None:
            closing.append((len(order), twist))
        order.extend([v for pair in zip(walk, walk[::-1]) for v in pair][:len(walk)])
    split = sum(len(walk) for is_complex, walk, _ in components if not is_complex)
    order = np.array(order, dtype=int)
    band = np.zeros((3, len(order)), dtype=complex)
    band[0] = H.diagonal().real[order]
    for d in (1, 2):
        band[d, :-d] = np.abs(entries(order[d:], order[:-d]))
    for at, twist in closing:
        band[1, at] = twist
    for part in (band[:, :split].real, band[:, split:]):
        if part.shape[1]:
            eigs.append(scipy.linalg.eig_banded(part[:part.shape[1]], lower=True,
                                                eigvals_only=True, check_finite=False))
    return np.sort(np.concatenate(eigs))


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
    assert np.array_equal(bitwise(eigs), bitwise(dense_eigenvalues((W + W.conj().T) / 2)))
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
