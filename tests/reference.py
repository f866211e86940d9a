"""Dense reference implementations of the library's readers of W.

Each function here computes what a library function computes, from the dense
N x N W (or phi(X)) and by the plainest route: the tests check the
entries-based library code against these, bit for bit where the two take
the same arithmetic and within a stated roundoff bound where they do not.
"""

import cmath
import ctypes
import functools
import itertools
import math
import operator

import numpy as np
import scipy.linalg

from ncsurface import representations, spectra
from ncsurface.spectra import MAX_SUBSTITUTION_DEGREE, DegreeTooHighError
from ncsurface.surface import CommPolynomial3
from ncsurface.representations import (EDGE_RTOL, EllipsePoint, MatrixGraph, MixedKindsError,
                                       NotBlockCyclicError, NotSingleLoopError, RepIndex,
                                       Representation, RepParams, VerificationReport,
                                       ellipse_map_s, rep_index, verify_relations)


# ---------------------------------------------------------------------------
# verification, graph, index, equivalence and canonical loops of a dense W
# ---------------------------------------------------------------------------

def dense_fro(M) -> float:
    return np.linalg.norm(M if isinstance(M, np.ndarray) else M.data)


def dense_verify(W: np.ndarray, params: RepParams) -> VerificationReport:
    n = W.shape[0]
    if n < representations._CSR_FROM or np.count_nonzero(W) > 8 * n:
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


# ---------------------------------------------------------------------------
# the same, of a Representation
# ---------------------------------------------------------------------------

def dense_verify_relations(rep):
    """verify_relations as dense O(N^3) products only: the reference on both
    sides of the crossover to CSR operands."""
    W = rep.W
    D, Dt = W @ W.conj().T, W.conj().T @ W
    mu, c = rep.params.mu, rep.params.c
    h2 = rep.params.hbar ** 2
    n = rep.n
    eye = np.eye(n)
    cube = np.linalg.norm(W) ** 3 or 1.0

    lhs = (W @ D + Dt @ W) * (1 + h2)
    rhs = 4 * mu * h2 * W + (1 - h2) * (W @ Dt + D @ W)
    residual_wwd = float(np.linalg.norm(lhs - rhs) / cube)

    delta = D + Dt - 2 * mu * eye
    diff = D - Dt
    chat = delta @ delta + (diff @ diff) / h2
    c_estimate = float(np.trace(chat).real / (4 * n))
    denom = 4 * c if c > 0 else 1.0
    residual_casimir = float(np.linalg.norm(chat - 4 * c * eye) / denom)

    intertwine = float(np.linalg.norm(W @ Dt - D @ W) / cube)

    hbar = rep.params.hbar
    X = (W + W.conj().T) / 2
    Y = (W - W.conj().T) / 2j
    Z = (X @ Y - Y @ X) / (1j * hbar)
    X2, Y2 = X @ X, Y @ Y
    target_yz = 1j * hbar * (2 * X @ X2 + X @ Y2 + Y2 @ X - 2 * mu * X)
    target_zx = 1j * hbar * (2 * Y @ Y2 + Y @ X2 + X2 @ Y - 2 * mu * Y)
    residual_yz = float(np.linalg.norm(Y @ Z - Z @ Y - target_yz) / cube)
    residual_zx = float(np.linalg.norm(Z @ X - X @ Z - target_zx) / cube)

    return VerificationReport(residual_wwd, residual_casimir, c_estimate,
                              intertwine, residual_yz, residual_zx)


def reachability(n, edges):
    """Boolean transitive closure by repeated squaring."""
    reach = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        reach[i, j] = True
    for _ in range(max(n, 1).bit_length()):
        reach |= (reach.astype(int) @ reach.astype(int)) > 0
    return reach


def chain_kind(n, edges):
    """"loop" when the n edges lie on one n-cycle (every vertex reaches every
    vertex), "string" when the n - 1 edges form one n-path (no cycle, and the
    vertices reach n - 1, n - 2, ..., 0 others), else None."""
    reach = reachability(n, edges)
    if len(edges) == n and reach.all():
        return "loop"
    if (len(edges) == n - 1 and not reach.diagonal().any()
            and sorted(reach.sum(axis=1)) == list(range(n))):
        return "string"
    return None


def reps_equivalent_reference(a, b, tol=1e-10):
    """reps_equivalent with c read from verify_relations' trace of C_hat and
    the kinds from reachability."""
    kind_a, kind_b = (chain_kind(rep.n, set(zip(rep.rows.tolist(), rep.cols.tolist())))
                      for rep in (a, b))
    if None in (kind_a, kind_b):
        raise NotSingleLoopError("not one loop or string")
    if kind_a != kind_b:
        raise MixedKindsError(f"cannot compare a {kind_a} with a {kind_b}")
    if a.n != b.n:
        return False
    ca, cb = verify_relations(a).c_estimate, verify_relations(b).c_estimate
    if abs(ca - cb) > tol * max(abs(ca), abs(cb)):
        return False
    if kind_a == "string":
        return True
    za, zb = rep_index(a), rep_index(b)
    return math.hypot(za.log_modulus - zb.log_modulus,
                      math.remainder(za.phase - zb.phase, 2 * math.pi)) <= tol


def dense_canonicalize_loop(rep, tol=1e-8):
    """Reference: canonicalize_loop by the explicit N x N conjugation
    P = diag(S, (U_1..U_l)^dagger S) and a dense comparison with the sum of
    single loops."""
    N = rep.n
    points = rep.ellipse_points()
    scale = max(1.0, float(np.max(np.abs(rep.W))) ** 2)
    cluster_tol = tol * scale

    def same(p, q):
        return abs(p.d - q.d) <= cluster_tol and abs(p.d_tilde - q.d_tilde) <= cluster_tol

    first = [i for i in range(N) if same(points[i], points[0])]
    m = len(first)
    if m == 0 or N % m != 0:
        raise NotBlockCyclicError("vertex classes do not tile the matrix")
    k = N // m
    classes = [first]
    used = set(first)
    target = points[0]
    for _ in range(k - 1):
        target = ellipse_map_s(target, rep.params.mu, rep.params.theta)
        nxt = [i for i in range(N) if i not in used and same(points[i], target)]
        if len(nxt) != m:
            raise NotBlockCyclicError(f"no class of {m} vertices at {target}")
        classes.append(nxt)
        used.update(nxt)
    perm = np.array([i for cls in classes for i in sorted(cls)])
    Wp = rep.W[np.ix_(perm, perm)]
    weights = [float(np.mean([points[i].d_tilde for i in cls])) for cls in classes]
    unitaries = [None] * k
    for l in range(k):
        row, col = l * m, ((l + 1) % k) * m
        U = Wp[row:row + m, col:col + m] / math.sqrt(weights[(l + 1) % k])
        if np.linalg.norm(U @ U.conj().T - np.eye(m)) > tol * m:
            raise NotBlockCyclicError("cyclic block is not proportional to a unitary")
        unitaries[(l + 1) % k] = U
    holonomy = np.eye(m, dtype=complex)
    for l in range(1, k):
        holonomy = holonomy @ unitaries[l]
    T, S = scipy.linalg.schur(holonomy @ unitaries[0], output="complex")
    eigenvalues = np.diag(T)
    P = np.zeros((N, N), dtype=complex)
    P[:m, :m] = S
    acc = np.eye(m, dtype=complex)
    for l in range(1, k):
        acc = acc @ unitaries[l]
        P[l * m:(l + 1) * m, l * m:(l + 1) * m] = acc.conj().T @ S
    W2 = P.conj().T @ Wp @ P
    expected = np.zeros((N, N), dtype=complex)
    for l in range(k - 1):
        expected[l * m:(l + 1) * m, (l + 1) * m:(l + 2) * m] = math.sqrt(weights[l + 1]) * np.eye(m)
    expected[(k - 1) * m:, :m] = math.sqrt(weights[0]) * np.diag(eigenvalues)
    if np.linalg.norm(W2 - expected) > tol * scale * N:
        raise NotBlockCyclicError("conjugated matrix is not a sum of single loops")
    return [Representation(W2[np.ix_(idx, idx)], rep.params, rep.regime)
            for idx in (np.arange(k) * m + j for j in np.argsort(np.angle(eigenvalues)))]


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _walks(n: int, rows: np.ndarray, cols: np.ndarray):
    """(vertex list in walk order, whether it closes into a cycle) for each
    component of the graph on 0..n-1 with the edges (rows[e], cols[e]), in
    which no vertex has degree > 2: the paths, each from its smaller end, in
    the order of that end (isolated vertices among them), then the cycles,
    each from its smallest vertex toward its smaller neighbour."""
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(rows.tolist(), cols.tolist()):
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen = [False] * n
    # the ends of the paths come first, so each path is walked from an end
    ends = [v for v in range(n) if len(neighbours[v]) < 2]
    for start in itertools.chain(ends, range(n)):
        if seen[start]:
            continue
        walk, at = [start], start
        seen[start] = True
        while step := [v for v in neighbours[at] if not seen[v]]:
            at = step[0]
            seen[at] = True
            walk.append(at)
        yield walk, len(neighbours[start]) == 2


def dense_eigenvalues(W: np.ndarray) -> np.ndarray:
    """spectra._phi_x_eigenvalues on the dense W and H = phi(X) = (W +
    W^dagger)/2: eigvalsh below N = 48 (representations._DENSE_BELOW, read
    at call time), when a row or column of W holds two entries or more, and
    when W's off-diagonal entries do not each give one nonzero strict-lower
    entry of H (a 2-cycle W_ij, W_ji, or a W_ij that halves to 0).
    Otherwise H's graph, walked by _walks: an isolated vertex with a nonzero
    diagonal (a self-loop of W) gives that diagonal; each path and each even
    cycle with a real twist gives +-sigma of its biadjacency block, cut from
    H between the walk's even and odd positions and gauged to moduli (an odd
    path's padded with a zero column, a cycle's permuted to a tridiagonal for
    dgbbrd), all through one dlasq1; the other cycles go to the band solve."""
    n = W.shape[0]
    H = (W + W.conj().T) / 2
    pattern = W != 0
    lower = np.tril(H != 0, -1)
    if n < representations._DENSE_BELOW or pattern.sum(axis=0).max() > 1 or \
            pattern.sum(axis=1).max() > 1 or lower.sum() != pattern.sum() - pattern.trace():
        return np.linalg.eigvalsh(H)
    rows, cols = np.nonzero(lower)

    def entries(i, j):
        return np.where(i > j, H[i, j], H[j, i].conj())

    isolated, components, diagonals, superdiagonals, cycle_bands, pads = [], [], [], [], [], 0
    for walk, closed in _walks(n, rows, cols):
        if len(walk) == 1 and H[walk[0], walk[0]] != 0:
            isolated.append(H[walk[0], walk[0]].real)
            continue
        twist = None
        if closed:
            cycle = entries(np.array(walk), np.array(walk[1:] + walk[:1]))
            twist = cycle[-1] * np.prod(cycle[:-1] / np.abs(cycle[:-1]))
            if abs(twist.imag) <= 16 * len(walk) * np.finfo(float).eps * abs(twist):
                twist = math.copysign(abs(twist), twist.real)
        is_complex = twist is not None and twist.imag != 0
        if is_complex or closed and len(walk) % 2:
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
    eigs = [np.array(isolated)]
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
        closing.append((len(order), twist))
        order.extend([v for pair in zip(walk, walk[::-1]) for v in pair][:len(walk)])
    split = sum(len(walk) for is_complex, walk, _ in components if not is_complex)
    order = np.array(order, dtype=int)
    band = np.zeros((3, len(order)), dtype=complex)
    for d in (1, 2):
        band[d, :-d] = np.abs(entries(order[d:], order[:-d]))
    for at, twist in closing:
        band[1, at] = twist
    for part in (band[:, :split].real, band[:, split:]):
        if part.shape[1]:
            eigs.append(scipy.linalg.eig_banded(part[:part.shape[1]], lower=True,
                                                eigvals_only=True, check_finite=False))
    return np.sort(np.concatenate(eigs))


def detect_branches_by_mask(spectrum, critical_values, ratio: float = spectra.BRANCH_RATIO):
    """spectra.detect_branches with each interval's eigenvalues cut from the
    sorted spectrum by the boolean mask lo < lambda < hi."""
    eigs = np.sort(np.asarray(spectrum, dtype=float))
    crits = sorted(critical_values)
    scale = float(eigs[-1] - eigs[0]) if len(eigs) > 1 else 1.0
    out = []
    for lo, hi in zip(crits, crits[1:]):
        inside = eigs[(eigs > lo) & (eigs < hi)]
        if len(inside) < 4:
            out.append(spectra.BranchInterval(lo, hi, None, len(inside)))
            continue
        m0 = float(np.max(np.abs(np.diff(inside, n=2))))
        subs = [float(np.max(np.abs(np.diff(half, n=2))))
                for half in (inside[0::2], inside[1::2]) if len(half) >= 3]
        if m0 <= 1e-12 * scale or not subs:
            count = 1
        else:
            m1 = max(subs)
            count = 2 if (m1 == 0.0 or m0 / m1 >= ratio) else 1
        out.append(spectra.BranchInterval(lo, hi, count, len(inside)))
    return out


# ---------------------------------------------------------------------------
# the commutator measure's substitution and the string angle, by definition
# ---------------------------------------------------------------------------

def orderings_symmetrized_substitution(poly: CommPolynomial3, X, Y, Z):
    """spectra.symmetrized_substitution as its definition reads: every
    distinct ordering of each monomial's letters multiplied out left to
    right, the words summed in sorted order and averaged, on dense, _Shifts
    or CSR operands alike."""
    n = X.shape[0]
    if isinstance(X, np.ndarray):
        total, identity = np.zeros((n, n), dtype=complex), (lambda: np.eye(n, dtype=complex))
    elif isinstance(X, representations._Shifts):
        total = representations._Shifts(X.k, X.m, {})
        identity = lambda: representations._Shifts.identity(X.k, X.m)
    else:
        from scipy.sparse import csr_array, eye_array
        total = csr_array((n, n), dtype=complex)
        identity = lambda: eye_array(n, dtype=complex, format="csr")
    mats = {"x": X, "y": Y, "z": Z}
    for (a, b, c), coeff in poly.terms.items():
        if a + b + c > MAX_SUBSTITUTION_DEGREE:
            raise DegreeTooHighError(f"monomial degree {a + b + c}")
        orderings = sorted(set(itertools.permutations("x" * a + "y" * b + "z" * c)))
        acc = None
        for order in orderings:
            word = (functools.reduce(operator.matmul, [mats[ch] for ch in order]) if order
                    else identity())
            acc = word if acc is None else acc + word
        total += (float(coeff) / len(orderings)) * acc
    return total


def bisection_string_theta(n: int, mu: float, c: float) -> float:
    """representations.solve_string_theta with all 200 bisection steps."""
    if n < 2:
        raise ValueError("need n >= 2")
    if c <= 0:
        raise ValueError("c must be positive")
    ratio = mu / math.sqrt(c)
    hi = math.pi / (n + 1)

    def g(theta: float) -> float:
        return math.cos(n * theta) + ratio * math.cos(theta)

    if ratio == 1:
        return hi
    lo = 1e-15
    if g(lo) <= 0 or g(hi) >= 0:
        raise representations.NoRootError("no sign change")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# LAPACK through scipy: the references of the package's LAPACK wrappers
# ---------------------------------------------------------------------------

def scipy_band_eigenvalues(band: np.ndarray) -> np.ndarray:
    """spectra._band_eigenvalues by scipy.linalg.eig_banded."""
    return scipy.linalg.eig_banded(band, lower=True, eigvals_only=True, check_finite=False)


def scipy_complex_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """representations._complex_schur by scipy.linalg.schur."""
    return scipy.linalg.schur(a, output="complex")


def _call_cython_lapack(name: str, *args) -> None:
    """Call scipy.linalg.cython_lapack's routine ``name`` (32-bit INTEGERs)
    with ``args``, each a pointer: an array's .ctypes, a byref or bytes."""
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[name]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    address_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    routine = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(args))(
        address_of(capsule, name_of(capsule)))
    routine(*args)


def _integer(value: int):
    return ctypes.byref(ctypes.c_int(value))


def scipy_dlasq1(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """spectra._dlasq1 by cython_lapack's dlasq1."""
    d, e = np.array(d, dtype=float), np.array(e, dtype=float)
    info = ctypes.c_int()
    _call_cython_lapack("dlasq1", _integer(len(d)), d.ctypes, e.ctypes,
                        np.empty(4 * len(d)).ctypes, ctypes.byref(info))
    assert info.value == 0
    return d


def scipy_dgbbrd(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """spectra._dgbbrd by cython_lapack's dgbbrd."""
    n = band.shape[1]
    ab = np.array(band, dtype=float, order="F")
    d, e, unused, info = np.empty(n), np.zeros(n), np.zeros(1), ctypes.c_int()
    _call_cython_lapack("dgbbrd", b"N", _integer(n), _integer(n), _integer(0), _integer(1),
                        _integer(1), ab.ctypes, _integer(3), d.ctypes, e.ctypes, unused.ctypes,
                        _integer(1), unused.ctypes, _integer(1), unused.ctypes, _integer(1),
                        np.empty(2 * n).ctypes, ctypes.byref(info))
    assert info.value == 0
    return d, e
