"""Reference implementations: the library's readers of W on the dense W,
and the routes its faster ones replaced.

Each function here computes what a library function computes, from the dense
N x N W (or phi(X)) or by the plainest route: the tests check the library
code against these, bit for bit where the two take the same arithmetic and
within a stated roundoff bound where they do not.
"""

import bisect
import cmath
import ctypes
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from ncsurface import berezin, representations, spectra, surface
from ncsurface.spectra import MAX_SUBSTITUTION_DEGREE, DegreeTooHighError
from ncsurface.surface import CommPolynomial3, CriticalData, SurfaceForm, SurfaceSpec
from ncsurface.representations import (EDGE_RTOL, EllipsePoint, MatrixGraph, MixedKindsError,
                                       NotBlockCyclicError, NotSingleLoopError, RepIndex,
                                       Representation, RepParams, VerificationReport,
                                       ellipse_map_s, matrix_graph, rep_index,
                                       verify_relations)


# ---------------------------------------------------------------------------
# verification, graph, index, equivalence and canonical loops of a dense W
# ---------------------------------------------------------------------------

def dense_fro(M) -> float:
    return np.linalg.norm(M if isinstance(M, np.ndarray) else M.data)


def dense_verify(W: np.ndarray, params: RepParams) -> VerificationReport:
    n = W.shape[0]
    eye = np.eye(n)
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


def csgraph_components(n: int, rows: np.ndarray, cols: np.ndarray) -> list[list[int]]:
    """MatrixGraph.weak_components by scipy's connected_components: the
    sorted vertex lists of the weak components, by smallest vertex."""
    adjacency = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(adjacency, connection="weak")
    components = {}
    for v, label in enumerate(labels.tolist()):
        components.setdefault(label, []).append(v)
    return sorted(components.values())


def csgraph_decompose(rep: Representation) -> list[Representation]:
    """decompose from csgraph_components, one component at a time."""
    graph = matrix_graph(rep)
    components = csgraph_components(rep.n, graph.rows, graph.cols)
    label, local = np.empty(rep.n, dtype=np.intp), np.empty(rep.n, dtype=np.intp)
    for k, comp in enumerate(components):
        label[comp] = k
        local[comp] = np.arange(len(comp))
    blocks = []
    for k, comp in enumerate(components):
        at = np.flatnonzero((label[rep.rows] == k) & (label[rep.cols] == k))
        blocks.append(Representation._from_trusted(len(comp), local[rep.rows[at]],
                                                   local[rep.cols[at]], rep.vals[at],
                                                   rep.params, rep.regime))
    return blocks


def matrix_value(poly, letters: dict) -> np.ndarray:
    """The NCPolynomial ``poly`` with each letter replaced by its matrix in
    ``letters``: the sum over its words of the coefficient, as a double,
    times the product of the words' matrices, left to right."""
    n = len(next(iter(letters.values())))
    total = np.zeros((n, n), dtype=complex)
    for word, coeff in poly.terms.items():
        total += float(coeff) * functools.reduce(np.matmul, [letters[ch] for ch in word],
                                                 np.eye(n))
    return total


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
    sides of the crossover to structured operands."""
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


def operand_array(M) -> np.ndarray:
    """The N x N array an operand stands for: a dense array itself, entry
    (l m + i, (l + a) m + j) of a _Shifts is terms[a][i, j, l], a diagonal
    terms[a][l] at m = 1, and a list of parts (representations._parts) is
    the block diagonal of its parts."""
    if isinstance(M, np.ndarray):
        return M
    if isinstance(M, list):
        return scipy.linalg.block_diag(*map(operand_array, M))
    k, m = M.k, M.m
    dense, blocks = np.zeros((k * m, k * m), dtype=complex), np.arange(k)
    for a, x in M.terms.items():
        x = x.reshape(m, m, k)
        for i, j in itertools.product(range(m), range(m)):
            dense[blocks * m + i, (blocks + a) % k * m + j] += x[i, j]
    return dense


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


def matching_class_order(rep, d, dt, tol):
    """canonicalize_loop's classes (order, m) by the (d, d~) matching the
    library kept beside its reading of W until the reading split every
    block-cyclic W: the first class is the vertices within 2 tol of vertex
    0's (d, d~), each further class those within _step_bounds of s of the
    mean (d, d~) of the class before it, each class ascending.  Raises
    NotBlockCyclicError where no such classes tile the vertices.  Patched in
    for representations._class_order, it gives canonicalize_loop by the
    matching alone."""
    N = rep.n
    cluster_tol = tol
    # Python lists: a class is a few vertices, so per-class numpy calls
    # would cost more than the lookups themselves
    by_d = np.argsort(d, kind="stable")
    sorted_d, by_d, d_of, dt_of = d[by_d].tolist(), by_d.tolist(), d.tolist(), dt.tolist()

    def near(td: float, tdt: float, tol_d: float, tol_dt: float) -> list[int]:
        """The vertices, ascending, with |d - td| <= tol_d and |d~ - tdt|
        <= tol_dt, looked up in d's sort order in O(log N + class size)."""
        lo = bisect.bisect_left(sorted_d, td - tol_d)
        hi = bisect.bisect_right(sorted_d, td + tol_d)
        return sorted(v for v in by_d[lo:hi] if abs(dt_of[v] - tdt) <= tol_dt)

    classes = [near(d_of[0], dt_of[0], 2 * cluster_tol, 2 * cluster_tol)]
    step = representations._step_bounds(rep.params.theta, cluster_tol)
    m = len(classes[0])
    if m == 0 or N % m != 0:
        raise NotBlockCyclicError("vertex classes do not tile the matrix")
    k = N // m
    for _ in range(k - 1):
        # each class is matched against s of the class before it, so an
        # error in one class's (d, d~) is checked once, not carried on;
        # its mean is summed left to right, as _class_order sums it
        last = classes[-1]
        means = (functools.reduce(operator.add, [of[v] for v in last]) / m
                 for of in (d_of, dt_of))
        target = ellipse_map_s(EllipsePoint(*means), rep.params.mu, rep.params.theta)
        classes.append(near(*target, *step))
        if len(classes[-1]) != m:
            raise NotBlockCyclicError(
                f"expected a class of {m} vertices at {target}, found {len(classes[-1])}")
    perm = np.array([v for members in classes for v in members])
    if len(np.unique(perm)) != N:
        raise NotBlockCyclicError("classes do not partition the vertices")
    return perm, m


def reading_class_order(rep, d, dt, tol):
    """The classes canonicalize_loop read off W's cyclic reading before the
    matching was deleted, or None: the reading must be one _Shifts on offset
    1 with classes of at most 8 vertices and, at m = 1, a closed chain whose vertex 0 has no other vertex
    within REPEAT_RTOL max|W|^2 of its (d, d~); each step must follow s as
    the library's _class_order checks it."""
    order, parts = rep._cyclic or (None, [])
    if len(parts) != 1 or list(parts[0].terms) != [1 % parts[0].k] or parts[0].m > 8:
        return None
    [M] = parts
    k, m = M.k, M.m
    if m == 1:
        close = representations.REPEAT_RTOL * float(np.max(np.abs(rep.vals))) ** 2
        if not rep._chains[0][1] or np.count_nonzero(
                (np.abs(d - d[0]) <= close) & (np.abs(dt - dt[0]) <= close)) != 1:
            return None
    by_class = d[order].reshape(k, m), dt[order].reshape(k, m)
    means = [functools.reduce(operator.add, x.T) / m for x in by_class]
    target_d, target_dt = ellipse_map_s(EllipsePoint(*means), rep.params.mu, rep.params.theta)
    tol_d, tol_dt = representations._step_bounds(rep.params.theta, tol)
    lo, hi = target_d[:-1] - tol_d, target_d[:-1] + tol_d
    class_d, class_dt = by_class[0][1:], by_class[1][1:]
    follows = np.all((class_d >= lo[:, None]) & (class_d <= hi[:, None])
                     & (np.abs(class_dt - target_dt[:-1, None]) <= tol_dt))
    return (order, m) if follows else None


def reading_or_matching_class_order(rep, d, dt, tol):
    """The class source canonicalize_loop had before the matching was
    deleted: the reading's classes (reading_class_order), else the
    matching's (matching_class_order)."""
    return reading_class_order(rep, d, dt, tol) or matching_class_order(rep, d, dt, tol)


# ---------------------------------------------------------------------------
# builds, index and equivalence as the library computed them before each call
# was cut to its per-call floor: the byte-identity references
# ---------------------------------------------------------------------------

def loop_weights_by_expression(n: int, k: int, beta: float, mu: float, c: float) -> np.ndarray:
    """representations.loop_weights as one expression of temporaries."""
    theta = math.pi * k / n
    ls = np.arange(n)
    return mu + math.sqrt(c) * np.cos(2 * ls * theta + beta) / math.cos(theta)


def _check_weights_by_mask(weights: np.ndarray, first: int) -> None:
    bad = np.flatnonzero(weights <= 0)
    if bad.size:
        raise representations.NonPositiveWeightError(int(bad[0]) + first, float(weights[bad[0]]))


def construct_loop_rep_by_blocks(spec, mu: float, c: float) -> Representation:
    """construct_loop_rep by one path at every block_dim: phases become
    e^{i a} 1 blocks, every block writes its m^2 entries, and the zeros
    off their diagonals are dropped."""
    if c <= 0:
        raise ValueError("loop representations need c > 0")
    n, m = spec.n, spec.block_dim
    weights = loop_weights_by_expression(n, spec.k, spec.beta, mu, c)
    _check_weights_by_mask(weights, 0)
    if spec.unitaries is not None:
        blocks = np.array(spec.unitaries)
    else:
        blocks = representations._phase_factors(spec.phases)[:, None, None] * np.eye(m)
    # block l, at block row l and block column l + 1, is sqrt(e~_{l+1}) U_{l+1};
    # its row l m + i holds the m columns (l + 1 mod n) m + j in order
    src = (np.arange(n) + 1) % n
    values = np.sqrt(weights[src])[:, None, None] * blocks[src]
    rows = np.repeat(np.arange(n * m), m)
    cols = np.tile(src[:, None] * m + np.arange(m), m).ravel()
    params = RepParams(mu, c, spec.theta)
    return Representation._from_trusted(n * m, rows, cols, values.ravel(), params,
                                        representations.classify_regime(mu, c, spec.theta))


def two_sine_string_weights(n: int, theta: float, c: float) -> np.ndarray:
    """representations.string_weights with both sines evaluated."""
    ls = np.arange(1, n)
    return 2 * math.sqrt(c) * np.sin(ls * theta) * np.sin((n - ls) * theta) / math.cos(theta)


def construct_string_rep_by_two_sines(spec) -> Representation:
    weights = two_sine_string_weights(spec.n, spec.theta, spec.c)
    _check_weights_by_mask(weights, 1)
    rows = np.arange(spec.n - 1)
    vals = np.sqrt(weights) * representations._phase_factors(spec.phases)
    params = RepParams(spec.mu, spec.c, spec.theta)
    return Representation._from_trusted(spec.n, rows, rows + 1, vals, params,
                                        representations.classify_regime(spec.mu, spec.c,
                                                                        spec.theta))


def _edge_mask(vals: np.ndarray) -> np.ndarray:
    magnitude = np.abs(vals)
    return magnitude > EDGE_RTOL * magnitude.max(initial=0.0)


def _masked_single_chain(rep: Representation, edge: np.ndarray) -> tuple[str, np.ndarray]:
    n = rep.n
    chains = rep._chains if edge.all() else representations._read_chains(
        n, rep.rows[edge], rep.cols[edge], rep.vals[edge])
    if chains is None:
        raise NotSingleLoopError(
            f"the graph has {np.count_nonzero(edge)} edges; a loop has {n} and a "
            f"string {n - 1}, at most one edge per row and per column")
    walk, closed, w = chains[0]
    if len(walk) != n:
        shape = "cycle" if closed else "path"
        raise NotSingleLoopError(
            f"vertex {walk[0]} lies on a {len(walk)}-{shape}, not a {n}-{shape}")
    return "loop" if closed else "string", w


def rep_index_by_edge_mask(rep: Representation) -> RepIndex:
    """rep_index reading the edge mask of |W_ij| on every call, |w_l| twice
    and arg w_l by np.angle."""
    edge = _edge_mask(rep.vals)
    kind, w = _masked_single_chain(rep, edge)
    if kind != "loop":
        raise NotSingleLoopError("W is a string; the index needs a loop")
    return _masked_loop_index(rep, w, edge)


def _masked_loop_index(rep: Representation, w: np.ndarray, edge: np.ndarray) -> RepIndex:
    mass = 0.0 if edge.all() else float(np.linalg.norm(rep.vals[~edge]))
    if mass > 1e-10 * np.min(np.abs(w)):
        raise NotSingleLoopError(f"off-cycle mass {mass:.3g} exceeds 1e-10 min |w_l|")
    log_modulus = float(np.sum(np.log(np.abs(w))))
    phase = math.remainder(float(np.sum(np.angle(w))), 2 * math.pi)
    with np.errstate(over="ignore"):
        modulus = float(np.exp(log_modulus))
    return RepIndex(cmath.rect(modulus, phase), log_modulus, phase)


def casimir_by_mean(rep: Representation) -> float:
    """representations._casimir by np.mean over expression temporaries."""
    mass = rep.vals.real ** 2 + rep.vals.imag ** 2
    d = np.bincount(rep.rows, mass, minlength=rep.n)
    dt = np.bincount(rep.cols, mass, minlength=rep.n)
    p = rep.params
    return float(np.mean((d + dt - 2 * p.mu) ** 2 + ((d - dt) / p.hbar) ** 2)) / 4


def reps_equivalent_by_edge_mask(a: Representation, b: Representation,
                                 tol: float = 1e-10) -> bool:
    """reps_equivalent over rep_index_by_edge_mask's reads and casimir_by_mean."""
    if not (math.isclose(a.params.mu, b.params.mu, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(a.params.theta, b.params.theta, rel_tol=1e-12)):
        raise ValueError("representations belong to different algebras")
    edge_a, edge_b = _edge_mask(a.vals), _edge_mask(b.vals)
    (kind_a, w_a), (kind_b, w_b) = _masked_single_chain(a, edge_a), _masked_single_chain(b, edge_b)
    if kind_a != kind_b:
        raise MixedKindsError(f"cannot compare a {kind_a} with a {kind_b}")
    if a.n != b.n:
        return False
    ca, cb = (casimir_by_mean(rep) for rep in (a, b))
    if abs(ca - cb) > tol * max(abs(ca), abs(cb)):
        return False
    if kind_a == "string":
        return True
    za, zb = _masked_loop_index(a, w_a, edge_a), _masked_loop_index(b, w_b, edge_b)
    return math.hypot(za.log_modulus - zb.log_modulus,
                      math.remainder(za.phase - zb.phase, 2 * math.pi)) <= tol


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
    Otherwise H's graph, walked by _walks, each component solved alone: an
    isolated vertex gives its diagonal (Re W_vv of a self-loop, else 0);
    each path and each even cycle with a real twist gives +-sigma of its
    biadjacency block, cut from H between the walk's even and odd positions
    and gauged to moduli (an odd path's padded with a zero column, a
    cycle's permuted to a tridiagonal for dgbbrd), through dlasq1; every
    other cycle gives the eigenvalues of its own band, by eig_banded."""
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

    isolated, eigs = [], []
    for walk, closed in _walks(n, rows, cols):
        if len(walk) == 1:
            isolated.append(H[walk[0], walk[0]].real)
            continue
        twist = None
        if closed:
            cycle = entries(np.array(walk), np.array(walk[1:] + walk[:1]))
            twist = cycle[-1] * np.prod(cycle[:-1] / np.abs(cycle[:-1]))
            if abs(twist.imag) <= 16 * len(walk) * np.finfo(float).eps * abs(twist):
                twist = math.copysign(abs(twist), twist.real)
        if twist is not None and (twist.imag != 0 or len(walk) % 2):
            order = np.array([v for pair in zip(walk, walk[::-1]) for v in pair][:len(walk)])
            band = np.zeros((3, len(walk)), dtype=complex)
            for d in (1, 2):
                band[d, :-d] = np.abs(entries(order[d:], order[:-d]))
            band[1, 0] = twist
            eigs.append(scipy.linalg.eig_banded(band if twist.imag else band.real, lower=True,
                                                eigvals_only=True, check_finite=False))
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
            d, e = spectra._dgbbrd(np.array([np.append(0.0, np.diag(A, 1)), np.diag(A),
                                             np.append(np.diag(A, -1), 0.0)]))
        else:
            B = np.pad(B, ((0, 0), (0, k - B.shape[1])))
            d, e = np.diag(B), np.append(np.diag(B, -1), 0.0)      # of B^T
        pads = len(walk) % 2 * (not closed)
        sigma = spectra._dlasq1(d, e)[:k - pads]
        eigs.append(np.concatenate([sigma, 0.0 - sigma, np.zeros(pads)]))
    return np.sort(np.concatenate([np.array(isolated)] + eigs))


def detect_branches_by_mask(spectrum, critical_values):
    """spectra.detect_branches with each interval's eigenvalues cut from the
    sorted spectrum by the boolean mask lo < lambda < hi, and each lower
    median read off a full sort."""
    def lower_median(values):
        return float(np.sort(values)[(len(values) - 1) // 2])

    eigs = np.sort(np.asarray(spectrum, dtype=float))
    crits = sorted(critical_values)
    scale = float(eigs[-1] - eigs[0]) if len(eigs) > 1 else 1.0
    out = []
    for lo, hi in zip(crits, crits[1:]):
        inside = eigs[(eigs > lo) & (eigs < hi)]
        if len(inside) < spectra.MIN_POINTS:
            out.append(spectra.BranchInterval(lo, hi, None, len(inside)))
            continue
        second = np.abs(np.diff(inside, n=2))
        if np.max(second) <= 1e-12 * scale:
            out.append(spectra.BranchInterval(lo, hi, 1, len(inside)))
            continue
        median = lower_median(second)
        halves = max(lower_median(np.abs(np.diff(half, n=2)))
                     for half in (inside[0::2], inside[1::2]) if len(half) >= 3)
        statistic = median / halves if halves else (math.inf if median else 0.0)
        out.append(spectra.BranchInterval(lo, hi, 2 if statistic >= spectra.BRANCH_THRESHOLD
                                          else 1, len(inside), statistic))
    return out


def detect_branches_by_max(spectrum, critical_values, ratio: float = 2.0):
    """The branch rule spectra.detect_branches replaced: two branches when
    the largest |second difference| of an interval is at least ``ratio``
    times the largest of its even- and odd-indexed halves; fewer than 4
    eigenvalues are indeterminate.  Its one-branch ratio drifts up with N
    (1.37 at N = 1001, 2.24 at 16000 on the mu = 1.3 loop), so it miscounts
    large spectra."""
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
    right, the words summed in sorted order and averaged, on dense or
    _Shifts operands alike."""
    n = X.shape[0]
    if isinstance(X, np.ndarray):
        total, identity = np.zeros((n, n), dtype=complex), (lambda: np.eye(n, dtype=complex))
    else:
        total, identity = X.zero(), X.eye
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


# ---------------------------------------------------------------------------
# genus Morse counts on P's own Sturm chains, the BT comparison on a built
# loop, and the CSV and SVG writers field by field: the byte-identity
# references of the routes that replaced them
# ---------------------------------------------------------------------------

def p_route_count(chain: list[list[int]]) -> int:
    """V(-inf) - V(+inf) of a Sturm chain."""
    return (surface._variations([p[-1] if len(p) % 2 else -p[-1] for p in chain])
            - surface._variations([p[-1] for p in chain]))


def p_route_isolate(chain: list[list[int]]) -> list[tuple[int, int, int]]:
    """Intervals (a/2^e, b/2^e], one per real root of chain[0], by bisection
    on V(a) - V(b) from (-2^k, 2^k], 2^k the Fujiwara bound."""
    p = chain[0]
    k = 1 + max([0] + [-((p[-1].bit_length() - a.bit_length() - 1) // (len(p) - 1 - i))
                       for i, a in enumerate(p[:-1]) if a])
    sturm = lambda m, e: surface._variations([surface._dyadic_eval(q, m, e) for q in chain])
    bound = 1 << k
    out, todo = [], [(-bound, bound, 0, sturm(-bound, 0), sturm(bound, 0))]
    while todo:
        a, b, e, va, vb = todo.pop()
        if va - vb == 1:
            out.append((a, b, e))
        elif va - vb > 1:
            m = a + b
            todo += [(m, 2 * b, e + 1, vm := sturm(m, e + 1), vb), (2 * a, m, e + 1, va, vm)]
    return out


def p_route_root_floats(chain: list[list[int]]) -> list[float]:
    """Each real root of chain[0] bisected on its sign until both ends of its
    interval round to one double, or a midpoint is the root."""
    p, out = chain[0], []
    for a, b, e in p_route_isolate(chain):
        vb = surface._dyadic_eval(p, b, e)
        while vb and a / (1 << e) != b / (1 << e):
            m, e = a + b, e + 1
            vm = surface._dyadic_eval(p, m, e)
            a, b, vb = (2 * a, m, vm) if vm == 0 or (vm > 0) == (vb > 0) else (m, 2 * b, vb)
        out.append(b / (1 << e))
    return out


def p_route_euler_characteristic(spec: SurfaceSpec) -> CriticalData:
    """euler_characteristic of a general-form spec on the Sturm chains of
    P - mu and P + mu, whatever P's odd coefficients."""
    mu = spec.mu_const
    plus, minus = (surface._regular_chain(surface._shifted(spec.p_coeffs, s), "P -/+ mu")
                   for s in (-mu, mu))
    n_plus, n_minus = p_route_count(plus), p_route_count(minus)
    chi = n_plus - n_minus
    return CriticalData(n_plus, n_minus, chi, (2 - chi) // 2,
                        tuple(sorted(p_route_root_floats(plus) + p_route_root_floats(minus))))


def genus_spec(g: int, mu: Fraction, alpha: Fraction) -> SurfaceSpec:
    """The spec build_genus_polynomial makes, P(x) = alpha G(x^2) - mu, with
    neither its window nor its regularity checked."""
    q = [alpha * a for a in surface.genus_product_polynomial(g)]
    q[0] -= mu
    p = [Fraction(0)] * (2 * len(q) - 1)
    p[::2] = q
    return SurfaceSpec(g, tuple(p), mu, SurfaceForm.GENERAL_GENUS)


def compare_with_loop_rep_by_construction(spec, c_loop=None):
    """berezin.compare_with_loop_rep over every cyclic relabeling of the
    cycle entries against the loop that construct_loop_rep builds, searched
    in the order of a bound from two probe entries: the LoopComparison of the
    least difference, and the least shift that gives it."""
    if c_loop is None:
        c_loop = spec.casimir
    try:
        loop = representations.construct_loop_rep(
            representations.LoopSpec(n=spec.N, k=1, beta=spec.theta), spec.mu, c_loop)
    except representations.NonPositiveWeightError as exc:
        raise berezin.RegimeMismatchError(
            f"no loop representation at mu = {spec.mu}, c = {c_loop}: {exc}") from exc
    N, w_loop = spec.N, loop.vals
    x = np.tile(berezin._cycle(spec), 2)
    probes = (int(np.argmax(np.abs(w_loop))), int(np.argmin(np.abs(w_loop))))
    bound = np.maximum(*(np.abs(x[p:p + N] - w_loop[p]) for p in probes))
    best, best_shift = math.inf, 0
    for shift in np.argsort(bound, kind="stable").tolist():
        if bound[shift] > best:
            break
        diff = float(np.max(np.abs(x[shift:shift + N] - w_loop)))
        if (diff, shift) < (best, best_shift):
            best, best_shift = diff, shift
    equivalent = best <= berezin.LOOP_MATCH_RTOL * float(np.max(np.abs(w_loop)))
    return berezin.LoopComparison(best, equivalent, c_loop), best_shift


def bt_matrices_by_representation(spec):
    """berezin.bt_matrices written from the entries of bt_w_matrix."""
    w = berezin.bt_w_matrix(spec)
    X, Y, Z = (np.zeros((spec.N, spec.N), dtype=complex) for _ in range(3))
    X[w.rows, w.cols] = X[w.cols, w.rows] = w.vals / 2
    Y[w.rows, w.cols] = w.vals / 2j
    Y[w.cols, w.rows] = (0 - w.vals) / 2j
    ls = np.arange(1, spec.N + 1)
    np.fill_diagonal(Z, -spec.nu * np.sin(2 * math.pi * ls / spec.N))
    return X, Y, Z


def sweep_rows_to_csv_by_fields(rows) -> str:
    """spectra.sweep_rows_to_csv with every field through spectra._fmt."""
    out = "mu,i,lambda,gap,interval,branches\n"
    for row in rows:
        branches = row.branches if row.error is None else f"error: {row.error}"
        out += ",".join(spectra._fmt(v) for v in
                        (row.mu, row.i, row.lam, row.gap, row.interval, branches)) + "\n"
    return out


def spectrum_svg_by_fstrings(report) -> str:
    """The text spectra.write_spectrum_svg writes, every circle by its own
    f-string."""
    width, height, margin = 640, 640, 50
    panel_h = (height - 3 * margin) // 2
    eigs, gaps = report.eigenvalues, report.gaps
    crits = [iv.lo for iv in report.intervals] + [report.intervals[-1].hi]

    def scale(values, lo, hi, out_lo, out_hi):
        span = (hi - lo) or 1.0
        return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             '<rect width="100%" height="100%" fill="white"/>']
    for panel, (values, label) in enumerate(((eigs, "lambda_i"), (gaps, "gap_i"))):
        top = margin + panel * (panel_h + margin)
        bottom = top + panel_h
        drawn = list(values) + (crits if panel == 0 else [])
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
    return "\n".join(lines) + "\n"
