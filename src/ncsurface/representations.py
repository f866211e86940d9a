"""Hermitian matrix representations of the torus/sphere algebra.

Construction (loops, strings, degenerate), verification against the defining
matrix relations, the ellipse map s linking diagonal data, sparsity-graph
classification, block-loop canonicalization, the loop index, and equivalence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "Regime", "RepParams", "EllipsePoint", "Representation",
    "LoopSpec", "StringSpec", "MatrixGraph", "GraphComponent",
    "GraphClassification", "RepIndex", "VerificationReport",
    "NoRealCrossingError", "NonPositiveWeightError", "NoRootError",
    "WindowViolationError", "NegativeMuError", "InconsistentGraphError",
    "NotBlockCyclicError", "NotSingleLoopError", "MixedKindsError",
    "ellipse_map_s", "ellipse_map_s_inverse", "ellipse_point", "ellipse_residual",
    "axis_crossings", "classify_regime", "construct_loop_rep",
    "solve_string_theta", "construct_string_rep", "construct_degenerate_rep",
    "verify_relations", "matrix_graph", "graph_classify", "decompose",
    "canonicalize_loop", "rep_index", "reps_equivalent", "representation_kind",
    "f_beta", "f_beta_residual", "edge_consistency_residual", "direct_sum",
    "loop_weights", "string_weights",
]


class NoRealCrossingError(ValueError):
    """Ellipse does not intersect the axes (pure toral regime)."""


class NonPositiveWeightError(ValueError):
    def __init__(self, index: int, value: float):
        super().__init__(f"weight e~_{index} = {value:.6g} is not positive")
        self.index = index
        self.value = value


class NoRootError(ValueError):
    """No string angle in the admissible window."""


class WindowViolationError(ValueError):
    """(n+1)*theta > pi in the spherical regime."""


class NegativeMuError(ValueError):
    """Degenerate representations require mu >= 0."""


class InconsistentGraphError(RuntimeError):
    """Graph transmitters/receivers disagree with the matrix diagonals."""


class NotBlockCyclicError(RuntimeError):
    """Matrix does not have the block-cyclic loop structure."""


class NotSingleLoopError(ValueError):
    """Representation is not a single directed loop."""


class MixedKindsError(ValueError):
    """Equivalence is defined between two loops or two strings only."""


class Regime(Enum):
    DEGENERATE = "degenerate"
    SPHERICAL = "spherical"
    CRITICAL_TORAL = "critical_toral"
    TORAL = "toral"
    INVALID = "invalid"


@dataclass(frozen=True)
class RepParams:
    """Numeric parameters of a representation: mu, Casimir scale c, theta."""

    mu: float
    c: float
    theta: float

    def __post_init__(self):
        if not 0 < self.theta < math.pi / 4:
            raise ValueError(f"theta must lie in (0, pi/4), got {self.theta}")
        if self.c < 0:
            raise ValueError("c must be nonnegative")

    @property
    def hbar(self) -> float:
        return math.tan(self.theta)

    @property
    def q(self) -> complex:
        return cmath.exp(2j * self.theta)


class EllipsePoint(NamedTuple):
    d: float
    d_tilde: float


def ellipse_residual(point: EllipsePoint, mu: float, c: float, theta: float) -> float:
    """|(d + d~ - 2mu)^2 + ((d - d~)/hbar)^2 - 4c|."""
    hbar = math.tan(theta)
    d, dt = point
    return abs((d + dt - 2 * mu) ** 2 + ((d - dt) / hbar) ** 2 - 4 * c)


def ellipse_map_s(point: EllipsePoint, mu: float, theta: float) -> EllipsePoint:
    """s(d, d~) = (4 mu sin^2(theta) + 2 d cos(2 theta) - d~, d)."""
    d, dt = point
    return EllipsePoint(4 * mu * math.sin(theta) ** 2 + 2 * d * math.cos(2 * theta) - dt, d)


def ellipse_map_s_inverse(point: EllipsePoint, mu: float, theta: float) -> EllipsePoint:
    u, v = point
    return EllipsePoint(v, 4 * mu * math.sin(theta) ** 2 + 2 * v * math.cos(2 * theta) - u)


def ellipse_point(beta0: float, mu: float, c: float, theta: float) -> EllipsePoint:
    """Point of the constraint ellipse whose d~-component carries the base
    angle: (mu + sqrt(c) cos(beta0 + 2 theta)/cos(theta),
            mu + sqrt(c) cos(beta0)/cos(theta)).

    This is the loop-compatible parametrization: s(x(b)) = x(b + 2 theta)
    holds exactly, and x(2 l theta + beta) reproduces the loop diagonal data
    (d~ = e~_l, d = e~_{l+1})."""
    rc = math.sqrt(c)
    return EllipsePoint(mu + rc * math.cos(beta0 + 2 * theta) / math.cos(theta),
                        mu + rc * math.cos(beta0) / math.cos(theta))


def axis_crossings(mu: float, c: float, theta: float) -> tuple[float, float]:
    """(a_minus, a_plus) = 2 sin(theta) [mu sin(theta) -/+ sqrt(c - mu^2 cos^2 theta)]."""
    disc = c - mu * mu * math.cos(theta) ** 2
    if disc < 0:
        raise NoRealCrossingError(
            f"c = {c} < (mu cos theta)^2 = {mu * mu * math.cos(theta) ** 2}: no axis crossing")
    root = math.sqrt(disc)
    s = math.sin(theta)
    return 2 * s * (mu * s - root), 2 * s * (mu * s + root)


def classify_regime(mu: float, c: float, theta: float) -> Regime:
    """Regime by mu/sqrt(c): spherical (-1 <= r <= 1), critical toral
    (1 < r <= 1/cos theta), toral (r > 1/cos theta); c = 0 is degenerate."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    if not 0 < theta < math.pi / 4:
        raise ValueError("theta must lie in (0, pi/4)")
    if c == 0:
        return Regime.DEGENERATE
    ratio = mu / math.sqrt(c)
    if ratio < -1:
        return Regime.INVALID
    if ratio <= 1:
        return Regime.SPHERICAL
    if ratio <= 1 / math.cos(theta):
        return Regime.CRITICAL_TORAL
    return Regime.TORAL


class Representation:
    """phi(W) plus derived hermitian generators and diagonal data."""

    def __init__(self, W: np.ndarray, params: RepParams, regime: Regime):
        W = np.array(W, dtype=complex)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("W must be square")
        W.setflags(write=False)
        self.W = W
        self.params = params
        self.regime = regime

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @cached_property
    def D(self) -> np.ndarray:
        return self.W @ self.W.conj().T

    @cached_property
    def D_tilde(self) -> np.ndarray:
        return self.W.conj().T @ self.W

    @cached_property
    def phi_X(self) -> np.ndarray:
        return (self.W + self.W.conj().T) / 2

    @cached_property
    def phi_Y(self) -> np.ndarray:
        return (self.W - self.W.conj().T) / 2j

    @cached_property
    def phi_Z(self) -> np.ndarray:
        X, Y = self.phi_X, self.phi_Y
        return (X @ Y - Y @ X) / (1j * self.params.hbar)

    def ellipse_points(self) -> list[EllipsePoint]:
        d = np.real(np.diag(self.D))
        dt = np.real(np.diag(self.D_tilde))
        return [EllipsePoint(float(a), float(b)) for a, b in zip(d, dt)]

    def __repr__(self):
        return (f"Representation(n={self.n}, regime={self.regime.value}, "
                f"mu={self.params.mu}, c={self.params.c}, theta={self.params.theta})")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

@dataclass
class LoopSpec:
    """Cyclic representation data: theta = pi*k/n, weights from beta."""

    n: int
    k: int = 1
    beta: float = 0.0
    phases: Sequence[float] | None = None
    block_dim: int = 1
    unitaries: Sequence[np.ndarray] | None = None

    def __post_init__(self):
        if self.n < 5:
            raise ValueError(f"loop length n must be >= 5, got {self.n}")
        if self.k < 1 or math.gcd(self.k, self.n) != 1:
            raise ValueError("k must be a positive integer coprime to n")
        if not self.n > 4 * self.k:
            raise ValueError(
                f"theta = pi*{self.k}/{self.n} >= pi/4; loops need theta < pi/4")
        if self.block_dim < 1:
            raise ValueError("block_dim must be >= 1")
        if self.phases is None:
            self.phases = [0.0] * self.n
        if len(self.phases) != self.n:
            raise ValueError(f"need {self.n} phases, got {len(self.phases)}")
        if self.unitaries is not None:
            if len(self.unitaries) != self.n:
                raise ValueError(f"need {self.n} unitaries")
            self.unitaries = [np.asarray(U, dtype=complex) for U in self.unitaries]
            for U in self.unitaries:
                if U.shape != (self.block_dim, self.block_dim):
                    raise ValueError("unitary blocks must be block_dim x block_dim")

    @property
    def theta(self) -> float:
        return math.pi * self.k / self.n


def loop_weights(n: int, k: int, beta: float, mu: float, c: float) -> np.ndarray:
    """e~_l = sqrt(c) [mu/sqrt(c) + cos(2 l theta + beta)/cos(theta)]."""
    theta = math.pi * k / n
    ls = np.arange(n)
    return mu + math.sqrt(c) * np.cos(2 * ls * theta + beta) / math.cos(theta)


def construct_loop_rep(spec: LoopSpec, mu: float, c: float) -> Representation:
    """Block-cyclic phi(W) with superdiagonal blocks sqrt(e~_l) U_l and the
    wrap-around corner sqrt(e~_0) U_0."""
    if c <= 0:
        raise ValueError("loop representations need c > 0")
    weights = loop_weights(spec.n, spec.k, spec.beta, mu, c)
    for l, w in enumerate(weights):
        if w <= 0:
            raise NonPositiveWeightError(l, float(w))
    m = spec.block_dim
    if spec.unitaries is not None:
        blocks = list(spec.unitaries)
    else:
        eye = np.eye(m, dtype=complex)
        blocks = [cmath.exp(1j * a) * eye for a in spec.phases]
    N = spec.n * m
    W = np.zeros((N, N), dtype=complex)
    for l in range(spec.n):
        row = l * m
        col = ((l + 1) % spec.n) * m
        src = (l + 1) % spec.n
        W[row:row + m, col:col + m] = math.sqrt(weights[src]) * blocks[src]
    params = RepParams(mu, c, spec.theta)
    return Representation(W, params, classify_regime(mu, c, spec.theta))


def solve_string_theta(n: int, mu: float, c: float) -> float:
    """Unique theta in (0, pi/(n+1)] with cos(n theta) + (mu/sqrt(c)) cos(theta) = 0,
    found by bisection (200 iterations)."""
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
        raise NoRootError(
            f"cos(n t) + {ratio:.6g} cos(t) has no sign change on (0, pi/{n + 1}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class StringSpec:
    """String representation data.  For mu != 0 the Casimir scale is
    c = mu^2 cos^2(theta)/cos^2(n theta); for mu = 0 it is a free scale and
    must be given explicitly."""

    n: int
    theta: float
    mu: float
    phases: Sequence[float] | None = None
    c: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("string length n must be >= 1")
        if not 0 < self.theta < math.pi / 4:
            raise ValueError(f"theta must lie in (0, pi/4), got {self.theta}")
        if self.phases is None:
            self.phases = [0.0] * max(self.n - 1, 0)
        if len(self.phases) != self.n - 1:
            raise ValueError(f"need {self.n - 1} phases, got {len(self.phases)}")
        cn = math.cos(self.n * self.theta)
        if self.mu != 0:
            if cn != 0 and math.copysign(1, cn) == math.copysign(1, self.mu):
                raise ValueError(
                    "sign(cos n theta) must equal -sign(mu) for a string to exist")
            derived = self.mu ** 2 * math.cos(self.theta) ** 2 / cn ** 2
            if self.c is None:
                self.c = derived
            elif not math.isclose(self.c, derived, rel_tol=1e-10, abs_tol=1e-12):
                raise ValueError(
                    f"c = {self.c} inconsistent with mu^2 cos^2(theta)/cos^2(n theta)"
                    f" = {derived}")
        else:
            if self.c is None:
                raise ValueError("mu = 0 strings need an explicit c (free scale)")
            if self.n > 1 and abs(cn) > 1e-9:
                raise ValueError("mu = 0 strings require cos(n theta) = 0 (q^n = -1)")
        if self.c <= 0:
            raise ValueError("c must be positive")
        ratio = self.mu / math.sqrt(self.c)
        if ratio <= 1 and (self.n + 1) * self.theta > math.pi + 1e-12:
            raise WindowViolationError(
                f"(n+1) theta = {(self.n + 1) * self.theta:.6g} exceeds pi "
                "in the spherical regime")


def string_weights(n: int, theta: float, c: float) -> np.ndarray:
    """e~_l = 2 sqrt(c) sin(l theta) sin((n-l) theta) / cos(theta), l = 1..n-1."""
    ls = np.arange(1, n)
    return 2 * math.sqrt(c) * np.sin(ls * theta) * np.sin((n - ls) * theta) / math.cos(theta)


def construct_string_rep(spec: StringSpec) -> Representation:
    """Strictly upper-bidiagonal phi(W) with entries sqrt(e~_l) e^{i alpha}."""
    weights = string_weights(spec.n, spec.theta, spec.c)
    for l, w in enumerate(weights, start=1):
        if w <= 0:
            raise NonPositiveWeightError(l, float(w))
    W = np.zeros((spec.n, spec.n), dtype=complex)
    for i in range(spec.n - 1):
        W[i, i + 1] = math.sqrt(weights[i]) * cmath.exp(1j * spec.phases[i])
    params = RepParams(spec.mu, spec.c, spec.theta)
    return Representation(W, params, classify_regime(spec.mu, spec.c, spec.theta))


def construct_degenerate_rep(mu: float, U: np.ndarray,
                             theta: float = math.pi / 6) -> Representation:
    """phi(W) = sqrt(mu) U for unitary U; Casimir value 0 (any theta works)."""
    if mu < 0:
        raise NegativeMuError(f"mu must be >= 0, got {mu}")
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("U must be square")
    defect = np.linalg.norm(U @ U.conj().T - np.eye(U.shape[0]))
    if defect > 1e-8 * max(1.0, np.linalg.norm(U)):
        raise ValueError(f"U is not unitary (defect {defect:.3g})")
    return Representation(math.sqrt(mu) * U, RepParams(mu, 0.0, theta), Regime.DEGENERATE)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    residual_wwd: float
    residual_casimir: float
    c_estimate: float
    intertwine_residual: float
    residual_yz: float
    residual_zx: float

    def ok(self, tol: float = 1e-10) -> bool:
        return all(r <= tol for r in (self.residual_wwd, self.residual_casimir,
                                      self.intertwine_residual, self.residual_yz, self.residual_zx))


def verify_relations(rep: Representation, tol: float = 1e-10) -> VerificationReport:
    """Residuals of the defining matrix relations, unchanged by the scaling
    W -> lambda W, mu -> lambda^2 mu, c -> lambda^4 c.

    residual_wwd  : |(WD + D~W)(1+h^2) - 4 mu h^2 W - (1-h^2)(WD~ + DW)|_F
    residual_casimir : |C_hat - 4c| relative to 4c (absolute when c = 0)
    intertwine_residual : |W D~ - D W|_F
    residual_yz/zx : the X,Y,Z-form relations with the verbatim ordering
    All but residual_casimir are cubic in W (mu counts as W^2), so they are
    divided by |W|_F^3.
    """
    W = rep.W
    D, Dt = rep.D, rep.D_tilde
    mu, c = rep.params.mu, rep.params.c
    h2 = rep.params.hbar ** 2
    n = rep.n
    eye = np.eye(n)
    cube = np.linalg.norm(W) ** 3 or 1.0    # a zero W has zero residuals

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

    X, Y, Z = rep.phi_X, rep.phi_Y, rep.phi_Z
    hbar = rep.params.hbar
    X2, Y2 = X @ X, Y @ Y
    target_yz = 1j * hbar * (2 * X @ X2 + X @ Y2 + Y2 @ X - 2 * mu * X)
    target_zx = 1j * hbar * (2 * Y @ Y2 + Y @ X2 + X2 @ Y - 2 * mu * Y)
    residual_yz = float(np.linalg.norm(Y @ Z - Z @ Y - target_yz) / cube)
    residual_zx = float(np.linalg.norm(Z @ X - X @ Z - target_zx) / cube)

    return VerificationReport(residual_wwd, residual_casimir, c_estimate,
                              intertwine, residual_yz, residual_zx)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixGraph:
    n: int
    edges: frozenset[tuple[int, int]]

    def transmitters(self) -> list[int]:
        has_in = {j for _, j in self.edges}
        return [i for i in range(self.n) if i not in has_in]

    def receivers(self) -> list[int]:
        has_out = {i for i, _ in self.edges}
        return [i for i in range(self.n) if i not in has_out]

    def weak_components(self) -> list[list[int]]:
        """Sorted vertex lists of the weak components, by smallest vertex."""
        count, labels = self._components(range(self.n), "weak")
        return sorted(np.flatnonzero(labels == k).tolist() for k in range(count))

    def has_directed_cycle(self, vertices: Sequence[int]) -> bool:
        """A self-loop, or a strong component of two or more vertices."""
        count, _ = self._components(vertices, "strong")
        return count < len(vertices) or any((v, v) in self.edges for v in vertices)

    def _components(self, vertices: Sequence[int], connection: str) -> tuple[int, np.ndarray]:
        """scipy's components of the subgraph on ``vertices``.  scipy.sparse is
        imported here: it adds about 40 ms to importing ncsurface."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components
        index = {v: k for k, v in enumerate(vertices)}
        inside = [(index[i], index[j]) for i, j in self.edges if i in index and j in index]
        rows, cols = zip(*inside) if inside else ((), ())
        adjacency = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(index),) * 2)
        return connected_components(adjacency, connection=connection)


def _default_zero_tol(W: np.ndarray) -> float:
    peak = float(np.max(np.abs(W))) if W.size else 0.0
    return 1e-9 * peak


def matrix_graph(W: np.ndarray, zero_tol: float | None = None) -> MatrixGraph:
    """Directed graph with an edge (i, j) iff |W_ij| > zero_tol."""
    W = np.asarray(W)
    if zero_tol is None:
        zero_tol = _default_zero_tol(W)
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    rows, cols = np.nonzero(np.abs(W) > zero_tol)
    return MatrixGraph(W.shape[0], frozenset(zip(rows.tolist(), cols.tolist())))


@dataclass(frozen=True)
class GraphComponent:
    vertices: tuple[int, ...]
    kind: str       # "loop" | "string"

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class GraphClassification:
    components: tuple[GraphComponent, ...]
    transmitters: tuple[int, ...]
    receivers: tuple[int, ...]


def graph_classify(graph: MatrixGraph, rep: Representation,
                   zero_tol: float | None = None) -> GraphClassification:
    """Classify components as loops (contain a directed cycle) or strings, and
    cross-check transmitters/receivers against the D~/D diagonals."""
    if zero_tol is None:
        zero_tol = _default_zero_tol(rep.W)
    diag_tol = max(1.0, float(np.max(np.abs(rep.W))) ** 2) * 1e-12 + rep.n * zero_tol ** 2 * 4
    d = np.real(np.diag(rep.D))
    dt = np.real(np.diag(rep.D_tilde))
    matrix_transmitters = {i for i in range(rep.n) if dt[i] <= diag_tol}
    matrix_receivers = {i for i in range(rep.n) if d[i] <= diag_tol}
    if set(graph.transmitters()) != matrix_transmitters:
        raise InconsistentGraphError(
            f"graph transmitters {sorted(graph.transmitters())} != "
            f"diagonal zeros of D~ {sorted(matrix_transmitters)}")
    if set(graph.receivers()) != matrix_receivers:
        raise InconsistentGraphError(
            f"graph receivers {sorted(graph.receivers())} != "
            f"diagonal zeros of D {sorted(matrix_receivers)}")
    components = []
    for comp in graph.weak_components():
        kind = "loop" if graph.has_directed_cycle(comp) else "string"
        components.append(GraphComponent(tuple(comp), kind))
    return GraphClassification(tuple(components),
                               tuple(graph.transmitters()), tuple(graph.receivers()))


def decompose(rep: Representation, zero_tol: float | None = None) -> list[Representation]:
    """Split into permutation-similarity blocks, one per weak component."""
    graph = matrix_graph(rep.W, zero_tol)
    out = []
    for comp in graph.weak_components():
        idx = np.array(comp)
        out.append(Representation(rep.W[np.ix_(idx, idx)], rep.params, rep.regime))
    return out


def direct_sum(reps: Sequence[Representation]) -> Representation:
    mats = [r.W for r in reps]
    n = sum(m.shape[0] for m in mats)
    W = np.zeros((n, n), dtype=complex)
    at = 0
    for m in mats:
        k = m.shape[0]
        W[at:at + k, at:at + k] = m
        at += k
    first = reps[0]
    return Representation(W, first.params, first.regime)


def edge_consistency_residual(rep: Representation, zero_tol: float | None = None) -> float:
    """max over edges (i,j) of |x_j - s(x_i)| (diagonal data moves by s)."""
    graph = matrix_graph(rep.W, zero_tol)
    points = rep.ellipse_points()
    mu, theta = rep.params.mu, rep.params.theta
    worst = 0.0
    for i, j in graph.edges:
        image = ellipse_map_s(points[i], mu, theta)
        worst = max(worst, abs(image.d - points[j].d),
                    abs(image.d_tilde - points[j].d_tilde))
    return worst


# ---------------------------------------------------------------------------
# canonicalization, index, equivalence
# ---------------------------------------------------------------------------

def canonicalize_loop(rep: Representation, tol: float = 1e-8) -> list[Representation]:
    """Split a block-cyclic loop into block_dim single loops.

    Groups the vertices into classes by their (d, d~) values chained by the
    ellipse map, reads off the unitary blocks U_l, diagonalizes the holonomy
    U_1 U_2 ... U_{k-1} U_0 = S V S^dagger, conjugates by the explicit
    unitary P = diag(S, (U_1..U_l)^dagger S) and splits the result into one
    single loop per holonomy eigenvalue.  The loop indices are the holonomy
    eigenvalues scaled by sqrt(prod e~_l).
    """
    N = rep.n
    points = rep.ellipse_points()
    scale = max(1.0, float(np.max(np.abs(rep.W))) ** 2)
    cluster_tol = tol * scale

    def same(p: EllipsePoint, q: EllipsePoint) -> bool:
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
            raise NotBlockCyclicError(
                f"expected a class of {m} vertices at {target}, found {len(nxt)}")
        classes.append(nxt)
        used.update(nxt)
    if len(used) != N:
        raise NotBlockCyclicError("classes do not partition the vertices")

    perm = np.array([i for cls in classes for i in sorted(cls)])
    Wp = rep.W[np.ix_(perm, perm)]

    # weights: e~ of class l is the d~ value there
    weights = [float(np.mean([points[i].d_tilde for i in classes[l]])) for l in range(k)]
    unitaries: list[np.ndarray | None] = [None] * k
    for l in range(k):
        row, col = l * m, ((l + 1) % k) * m
        w = weights[(l + 1) % k]
        if w <= cluster_tol:
            raise NotBlockCyclicError("cyclic block has zero weight")
        U = Wp[row:row + m, col:col + m] / math.sqrt(w)
        if np.linalg.norm(U @ U.conj().T - np.eye(m)) > tol * m:
            raise NotBlockCyclicError("cyclic block is not proportional to a unitary")
        unitaries[(l + 1) % k] = U
        outside = Wp[row:row + m].copy()
        outside[:, col:col + m] = 0
        if np.linalg.norm(outside) > tol * scale:
            raise NotBlockCyclicError("nonzero entries outside the cyclic band")

    holonomy = np.eye(m, dtype=complex)
    for l in range(1, k):
        holonomy = holonomy @ unitaries[l]
    holonomy = holonomy @ unitaries[0]
    T, S = scipy.linalg.schur(holonomy, output="complex")
    eigenvalues = np.diag(T)
    if np.linalg.norm(T - np.diag(eigenvalues)) > tol * m:
        raise NotBlockCyclicError("holonomy failed to diagonalize (not unitary?)")

    # the explicit conjugation: P = diag(S, P_1, ..., P_{k-1}),
    # P_l = (U_1 .. U_l)^dagger S; then P^dagger Wp P has scalar blocks
    # sqrt(e~_l) I with corner sqrt(e~_0) V
    P = np.zeros((N, N), dtype=complex)
    P[:m, :m] = S
    acc = np.eye(m, dtype=complex)
    for l in range(1, k):
        acc = acc @ unitaries[l]
        P[l * m:(l + 1) * m, l * m:(l + 1) * m] = acc.conj().T @ S
    W2 = P.conj().T @ Wp @ P

    expected = np.zeros((N, N), dtype=complex)
    for l in range(k - 1):
        expected[l * m:(l + 1) * m, (l + 1) * m:(l + 2) * m] = \
            math.sqrt(weights[l + 1]) * np.eye(m)
    expected[(k - 1) * m:, :m] = math.sqrt(weights[0]) * np.diag(eigenvalues)
    if np.linalg.norm(W2 - expected) > tol * scale * N:
        raise NotBlockCyclicError("conjugated matrix is not a sum of single loops")

    loops = []
    for j in np.argsort(np.angle(eigenvalues)):
        idx = np.array([l * m + j for l in range(k)])
        loops.append(Representation(W2[np.ix_(idx, idx)], rep.params, rep.regime))
    return loops


def _read_cycle(W: np.ndarray, zero_tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(order, w): the vertices of the single n-cycle of W in successor order
    from vertex 0, and its entries w_l = W[order[l], order[l + 1]].  Raises
    NotSingleLoopError unless the graph of W is one n-cycle."""
    graph = matrix_graph(W, zero_tol)
    succ = dict(graph.edges)
    if not len(graph.edges) == len(succ) == len(set(succ.values())) == graph.n > 0:
        raise NotSingleLoopError("the graph has not one edge per row and per column")
    order = [0]
    while succ[order[-1]] != 0:
        order.append(succ[order[-1]])
    if len(order) != graph.n:
        raise NotSingleLoopError(f"vertex 0 lies on a {len(order)}-cycle, not a {graph.n}-cycle")
    rows, cols = np.array(order), np.roll(order, -1)
    w = W[rows, cols]
    # W^n = z 1 holds exactly for the cycle alone.  An entry eps off it, which
    # the graph drops below zero_tol, changes W^n by eps |z| / |w_l| to first
    # order (w_l the cycle entry it bypasses); bound that relative change.
    off = np.array(W)
    off[rows, cols] = 0
    mass = np.linalg.norm(off)
    if mass > 1e-10 * np.min(np.abs(w)):
        raise NotSingleLoopError(f"off-cycle mass {mass:.3g} exceeds 1e-10 min |w_l|")
    return rows, w


@dataclass(frozen=True)
class RepIndex:
    """Loop index z = exp(log_modulus + i phase) with W^n = z 1.  log_modulus
    and phase are exact at any size; beyond the double range z has infinite
    modulus, never nan.  ``RepIndex(z)`` derives both from z."""

    z: complex
    log_modulus: float | None = None
    phase: float | None = None

    def __post_init__(self):
        if self.log_modulus is None:
            object.__setattr__(self, "log_modulus", math.log(abs(self.z)) if self.z else -math.inf)
            object.__setattr__(self, "phase", cmath.phase(self.z))

    @property
    def modulus(self) -> float:
        return abs(self.z)


def rep_index(rep: Representation, zero_tol: float | None = None) -> RepIndex:
    """Loop index z = prod w_l over the cycle entries of a single loop
    (W^n = z 1), read in log space: log|z| = sum log|w_l|, arg z = sum arg w_l
    mod 2 pi.  Raises NotSingleLoopError unless W is one n-cycle."""
    _, w = _read_cycle(rep.W, zero_tol)
    log_modulus = float(np.sum(np.log(np.abs(w))))
    phase = math.remainder(float(np.sum(np.angle(w))), 2 * math.pi)
    with np.errstate(over="ignore"):
        modulus = float(np.exp(log_modulus))
    return RepIndex(cmath.rect(modulus, phase), log_modulus, phase)


def representation_kind(rep: Representation, zero_tol: float | None = None) -> str:
    """'loop' | 'string' for a connected representation."""
    graph = matrix_graph(rep.W, zero_tol)
    comps = graph.weak_components()
    if len(comps) != 1:
        raise ValueError("representation is not connected")
    return "loop" if graph.has_directed_cycle(comps[0]) else "string"


def reps_equivalent(a: Representation, b: Representation, tol: float = 1e-10) -> bool:
    """Loops: equal dimension, Casimir and index.  Strings: equal dimension
    and Casimir.  These invariants are complete, so no intertwiner search is
    needed.  Both arguments must represent the same algebra (equal mu, theta).
    ``tol`` is relative: |c_a - c_b| <= tol max(|c_a|, |c_b|) and
    |log z_a - log z_b| <= tol (log|z| and arg z mod 2 pi), which is
    |z_a - z_b| <= tol |z| to first order at any scale of W or |z|."""
    if not (math.isclose(a.params.mu, b.params.mu, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(a.params.theta, b.params.theta, rel_tol=1e-12)):
        raise ValueError("representations belong to different algebras")
    kind_a, kind_b = representation_kind(a), representation_kind(b)
    if kind_a != kind_b:
        raise MixedKindsError(f"cannot compare a {kind_a} with a {kind_b}")
    if a.n != b.n:
        return False
    ca = verify_relations(a).c_estimate
    cb = verify_relations(b).c_estimate
    if abs(ca - cb) > tol * max(abs(ca), abs(cb)):
        return False
    if kind_a == "string":
        return True
    za, zb = rep_index(a), rep_index(b)
    return math.hypot(za.log_modulus - zb.log_modulus,
                      math.remainder(za.phase - zb.phase, 2 * math.pi)) <= tol


# ---------------------------------------------------------------------------
# the loop weight product f(beta)
# ---------------------------------------------------------------------------

def f_beta(beta: float, n: int, k: int, mu: float, c: float) -> float:
    """f(beta) = prod_{l<n} [mu + sqrt(c) cos(2 l theta + beta)/cos(theta)],
    theta = pi k / n."""
    if math.gcd(k, n) != 1:
        raise ValueError("need gcd(k, n) = 1")
    theta = math.pi * k / n
    rc = math.sqrt(c)
    value = 1.0
    for l in range(n):
        value *= mu + rc * math.cos(2 * l * theta + beta) / math.cos(theta)
    return value


def f_beta_residual(beta: float, n: int, k: int, mu: float, c: float) -> float:
    """f(beta) - (sqrt(c)/cos theta)^n (-1/2)^{n-1} cos(n beta); independent of
    beta (it equals the constant Fourier coefficient of f)."""
    theta = math.pi * k / n
    lead = (math.sqrt(c) / math.cos(theta)) ** n
    return f_beta(beta, n, k, mu, c) - lead * (-0.5) ** (n - 1) * math.cos(n * beta)
