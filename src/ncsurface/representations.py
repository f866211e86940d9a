"""Hermitian matrix representations of the torus/sphere algebra.

Construction (loops, strings, degenerate), verification against the defining
matrix relations, the ellipse map s linking diagonal data, the sparsity graph
and its weak components (decompose), block-loop canonicalization, the loop
index, and equivalence.

A Representation stores W as its nonzero entries, so a loop or string (N
entries) is built, verified, indexed, classified and measured against the
Poisson bracket in O(N) memory and time.  W's entry pattern is read once
into its loops, strings and self-loops (Representation._chains), and the
vertex order in which W is a direct sum of loops, strings and block loops
once too (Representation._cyclic): every reader of W's structure reads
those.  |W_ij| is read once, when W is stored, for max|W| and whether
every entry is an edge.  The sparsity graph of W has an edge (i, j) iff |W_ij| > 1e-9 max|W|
(EDGE_RTOL): every structural verdict reads W through that one rule.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Regime", "RepParams", "EllipsePoint", "Representation",
    "LoopSpec", "StringSpec", "MatrixGraph", "RepIndex", "VerificationReport",
    "NoRealCrossingError", "NonPositiveWeightError", "NoRootError", "LapackNotFoundError",
    "WindowViolationError", "NegativeMuError", "NotBlockCyclicError",
    "NotSingleLoopError", "MixedKindsError", "NonFiniteMatrixError", "LapackError",
    "ellipse_map_s", "ellipse_map_s_inverse", "ellipse_point", "ellipse_residual",
    "axis_crossings", "classify_regime", "construct_loop_rep",
    "solve_string_theta", "construct_string_rep", "construct_degenerate_rep",
    "verify_relations", "matrix_graph", "decompose",
    "canonicalize_loop", "rep_index", "reps_equivalent",
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


class NotBlockCyclicError(RuntimeError):
    """Matrix does not have the block-cyclic loop structure."""


class NotSingleLoopError(ValueError):
    """The graph of W is not one loop (a single n-cycle) or one string (a
    single n-path), or it is a string where a loop is required."""


class MixedKindsError(ValueError):
    """Equivalence is defined between two loops or two strings only."""


class NonFiniteMatrixError(ValueError):
    """A matrix entry is NaN or infinite."""


class LapackError(np.linalg.LinAlgError):
    """A LAPACK routine returned INFO != 0: an illegal argument (INFO < 0)
    or a failure of the routine's iteration (INFO > 0)."""

    def __init__(self, routine: str, info: int):
        super().__init__(f"LAPACK {routine} failed with INFO = {info}")
        self.routine, self.info = routine, info


class LapackNotFoundError(LapackError):
    """numpy's LAPACK exports a routine under none of the names tried."""

    def __init__(self, routine: str, names: Sequence[str]):
        np.linalg.LinAlgError.__init__(self, f"LAPACK {routine} is not in numpy's LAPACK "
                                             f"(tried {', '.join(names)})")
        self.routine, self.info, self.names = routine, None, tuple(names)


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
    """phi(W) stored as its nonzero entries: W[rows[e], cols[e]] = vals[e],
    listed in the row-major order np.nonzero gives, with no zero value and
    no repeated position.  A loop or string is thus a weighted partial
    permutation with N (or N - 1) entries; any other W is a plain list of
    triplets.

    ``Representation(W, params, regime)`` takes a dense N x N array.
    Triplets come in by one of two doors: ``from_entries`` validates
    foreign triplets (shapes, integer positions, bounds, order and repeats);
    the builders of this library (construct_loop_rep, construct_string_rep,
    decompose, direct_sum, canonicalize_loop's split loops and
    berezin.bt_w_matrix) store their own through the private
    ``_from_trusted``, which keeps only the zero drop and the finite check.
    W and phi_X are read-only dense views built on first access: O(N^2)
    memory, which no reader needs for a loop or string.  Raises
    NonFiniteMatrixError for a NaN or infinite entry, whichever door.
    """

    def __init__(self, W: np.ndarray, params: RepParams, regime: Regime):
        W = np.asarray(W, dtype=complex)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("W must be square")
        if not W.size:
            raise ValueError("W must be at least 1 x 1")
        rows, cols = np.nonzero(W)
        self._store(W.shape[0], rows, cols, W[rows, cols], params, regime)

    @classmethod
    def from_entries(cls, n: int, rows, cols, vals, params: RepParams,
                     regime: Regime) -> Representation:
        """The n x n W with W[rows[e], cols[e]] = vals[e], all other entries 0,
        from foreign triplets, every one checked.  rows, cols and vals are
        1-D and of one length, and the positions are integer arrays (a float
        position raises ValueError, not a rounded index).  The entries may
        come in any order; zero values are dropped, a position outside the
        matrix or repeated raises ValueError, and a NaN or infinite value
        NonFiniteMatrixError.  The stored arrays are copies, so the caller's
        stay writable.  The library's own builders skip these checks
        (_from_trusted)."""
        if n < 1:
            raise ValueError("W must be at least 1 x 1")
        rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=complex)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.shape != vals.shape:
            raise ValueError(f"rows, cols and vals must be 1-D and of one length, got shapes "
                             f"{rows.shape}, {cols.shape} and {vals.shape}")
        if len(rows) and not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
            raise ValueError(f"entry positions must be integers, got {rows.dtype}, {cols.dtype}")
        keep = vals != 0        # indexing copies, so the caller's arrays stay writable
        rows, cols = (a[keep].astype(np.intp, copy=False) for a in (rows, cols))
        vals = vals[keep]
        if len(rows) and (rows.min() < 0 or cols.min() < 0 or rows.max() >= n or cols.max() >= n):
            raise ValueError(f"entry position outside the {n} x {n} matrix")
        key = rows * n + cols
        if np.any(np.diff(key) <= 0):
            order = np.argsort(key, kind="stable")
            if np.any(np.diff(key[order]) == 0):
                raise ValueError("an entry position is repeated")
            rows, cols, vals = rows[order], cols[order], vals[order]
        return cls._from_trusted(n, rows, cols, vals, params, regime)

    @classmethod
    def _from_trusted(cls, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                      params: RepParams, regime: Regime) -> Representation:
        """from_entries for triplets the caller built itself and gives up:
        contiguous intp rows and cols and complex vals, made read-only here,
        so that nothing may write to them after, the positions row-major,
        inside the n x n matrix and never repeated.  Exact zeros are dropped
        and a NaN or infinite value raises NonFiniteMatrixError (_store);
        nothing else is checked."""
        rep = cls.__new__(cls)
        rep._store(n, rows, cols, vals, params, regime)
        return rep

    def _store(self, n, rows, cols, vals, params, regime) -> None:
        """Keep the entries, read-only, after one pass of |W_ij|: its min
        finds exact zeros, dropped only when there are any, and its max is
        kept as _peak, with _all_edges, whether every entry is an edge
        (_edges), so that the readers of W's graph skip the edge mask.  A
        NaN or infinite value raises NonFiniteMatrixError."""
        magnitude = np.abs(vals)
        low = magnitude.min(initial=math.inf)
        if not low > 0:             # an exact zero, or a NaN
            keep = vals != 0
            rows, cols, vals, magnitude = rows[keep], cols[keep], vals[keep], magnitude[keep]
            low = magnitude.min(initial=math.inf)
        peak = magnitude.max(initial=0.0)
        # |W_ij| is also infinite for finite parts near the top of the double range
        if not math.isfinite(peak) and not np.isfinite(vals).all():
            raise NonFiniteMatrixError("W has a NaN or infinite entry")
        self.n = int(n)
        self.rows, self.cols, self.vals = rows, cols, vals
        for array in (rows, cols, vals):
            array.setflags(write=False)
        self._peak = float(peak)
        self._all_edges = bool(low > EDGE_RTOL * peak)
        self.params = params
        self.regime = regime

    @cached_property
    def W(self) -> np.ndarray:
        W = np.zeros((self.n, self.n), dtype=complex)
        W[self.rows, self.cols] = self.vals
        return _read_only(W)

    @cached_property
    def phi_X(self) -> np.ndarray:
        return _read_only((self.W + self.W.conj().T) / 2)

    @cached_property
    def _chains(self) -> list[tuple[np.ndarray, bool, np.ndarray]] | None:
        """W's loops, strings and self-loops (_read_chains), every entry
        kept: read once, since the entries never change."""
        return _read_chains(self.n, self.rows, self.cols, self.vals)

    @cached_property
    def _classes(self) -> list[np.ndarray] | None:
        """W's vertex classes chained (_class_chains), every entry kept: read
        once, for _cyclic and canonicalize_loop's _class_order."""
        return _class_chains(self.n, self.rows, self.cols)

    @cached_property
    def _cyclic(self) -> tuple[np.ndarray, list[_Shifts]] | None:
        """(order, parts): W in the vertex order ``order`` as a direct sum of
        block-cyclic parts on consecutive index ranges, or None; read once
        like _chains, the parts' terms read-only and exactly W's entries.
        The b chains of one length and class size, of W's vertices (_chains,
        a string's w_n-1 = 0) or else of its vertex classes (_classes, of any
        size), are interleaved onto one _Shifts on block offset b, block
        l b + j the l-th class of chain j, one part per such group.  Before
        the classes, W is read in stored order (_stored_blocks), O(nnz) with
        no sort: a W with a full row, as a dense one, is one block of N."""
        n, rows, cols, vals, chains = self.n, self.rows, self.cols, self.vals, self._chains
        if chains is not None and len(chains) == 1:     # its values as they are, no copy
            walk, closed, w = chains[0]
            return walk, [_Shifts(n, 1, {1 % n: _read_only(w if closed else np.append(w, 0))})]
        if chains is not None:
            return _interleaved(n, rows, cols, vals, [walk[:, None] for walk, _, _ in chains])
        blocks = _stored_blocks(n, rows, cols)
        if blocks is not None:
            (m, offset), k = blocks, n // blocks[0]
            x = np.zeros((m, m, k), dtype=complex)
            x[rows % m, cols % m, rows // m] = vals
            return np.arange(n), [_Shifts(k, m, {offset: _read_only(x)})]
        classes = self._classes
        return None if classes is None else _interleaved(n, rows, cols, vals, classes)

    def ellipse_points(self) -> list[EllipsePoint]:
        d, dt = _diagonal_data(self)
        return [EllipsePoint(float(a), float(b)) for a, b in zip(d, dt)]

    def __repr__(self):
        return (f"Representation(n={self.n}, regime={self.regime.value}, "
                f"mu={self.params.mu}, c={self.params.c}, theta={self.params.theta})")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _diagonal_data(rep: Representation) -> tuple[np.ndarray, np.ndarray]:
    """(d, d~): d_i = sum_j |W_ij|^2 and d~_j = sum_i |W_ij|^2, the diagonals
    of W W^dagger and W^dagger W, summed over W's entries in O(nnz).  A row
    or column with one entry gives its |W_ij|^2 exactly; one with several is
    summed in row-major order, so it may differ from another summation order
    by a few ulp of d_i (or d~_j)."""
    squares = np.square(rep.vals.view(np.float64))      # Re^2, Im^2 in turn
    mass = squares[::2] + squares[1::2]
    return (np.bincount(rep.rows, mass, minlength=rep.n),
            np.bincount(rep.cols, mass, minlength=rep.n))


def _read_chains(n: int, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray) -> list[tuple[np.ndarray, bool, np.ndarray]] | None:
    """The components of the n x n W with the entries W[rows[e], cols[e]] =
    vals[e], listed row-major, when every row and every column holds at most
    one entry; else None.  Each component is (v, closed, w):

    - a path (closed False), an isolated vertex included, walked from its
      vertex with no entry in its column: w_t = W[v_t, v_t+1], m - 1 values;
    - a cycle (closed True), a self-loop included, walked from its smallest
      vertex along W's entries: w_t = W[v_t, v_t+1] with v_m = v_0.

    Paths come first, in the order of their smaller end, then cycles, in the
    order of their smallest vertex: the order of a walk of phi(X)'s graph
    that starts from the path ends.  Cycles a -> a+1 -> ... -> b -> a on
    runs of vertices (loops and their direct sums as constructed) or one
    path 0 -> ... -> n-1 (a string) are read in O(n) numpy, any other W by
    _walk_chains."""
    every = np.arange(n)
    if len(rows) == n and (rows == every).all():
        if cols[-1] == 0 and (cols[:-1] == every[1:]).all():
            return [(every, True, vals)]
        ends = np.flatnonzero(cols != every + 1)        # where a cycle closes
        starts = np.concatenate(([0], ends[:-1] + 1))
        if ends[-1] == n - 1 and np.array_equal(cols[ends], starts):
            return [(every[a:b + 1], True, vals[a:b + 1]) for a, b in zip(starts, ends)]
    if len(rows) == n - 1 and (rows == every[:-1]).all() and (cols == every[1:]).all():
        return [(every, False, vals)]
    return _walk_chains(n, rows, cols, vals)


def _walk_chains(n: int, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray) -> list[tuple[np.ndarray, bool, np.ndarray]] | None:
    """_read_chains by a walk from each path head and each unvisited vertex:
    O(N + nnz), one Python step a vertex."""
    in_degree = np.bincount(cols, minlength=n)
    # the entries are row-major, so a row's second entry follows its first
    if np.any(np.diff(rows) == 0) or in_degree.max() > 1:
        return None
    succ = np.full(n, -1)
    succ[rows] = cols
    heads = np.flatnonzero(in_degree == 0).tolist()
    succ, seen = succ.tolist(), [False] * n
    paths, cycles = [], []
    # every vertex off the paths lies on a cycle, reached after the paths
    for start in itertools.chain(heads, range(n)):
        if seen[start]:
            continue
        walk, v = [start], succ[start]
        seen[start] = True
        while v >= 0 and v != start:
            walk.append(v)
            seen[v] = True
            v = succ[v]
        (cycles if v == start else paths).append(walk)
    paths.sort(key=lambda walk: min(walk[0], walk[-1]))
    chains = []
    for walks, closed in ((paths, False), (cycles, True)):
        for walk in map(np.array, walks):
            stepped = walk if closed else walk[:-1]     # a path's end has no entry in its row
            chains.append((walk, closed, vals[np.searchsorted(rows, stepped)]))
    return chains


def _stored_blocks(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[int, int] | None:
    """(m, b) when W's entries lie, in stored order, on one cyclic block
    offset b of blocks of m consecutive indices, m >= 2 a row's most
    entries, as construct_loop_rep writes a block loop; else None.  O(nnz)."""
    m = int(np.bincount(rows, minlength=n).max(initial=0))
    if m < 2 or n % m:
        return None
    offset = (cols // m - rows // m) % (n // m)
    return (m, int(offset[0])) if np.all(offset == offset[0]) else None


def _class_chains(n: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray] | None:
    """W's vertex classes chained as _read_chains chains vertices (a cycle
    from the class of its smallest vertex), each chain the (k, m) array of
    its classes' vertices, ascending in a class; or None.  A class is the
    rows whose entries fall in the same columns, which lie in the next class
    (rows with no entry end a path; a vertex with none is a class).  None
    when a column is reached from two classes, a class's columns straddle
    classes, or a chain's classes differ in size.  O(nnz) numpy, a sort of N
    and a Python step per class."""
    counts = np.bincount(rows, minlength=n)
    full = counts > 0
    key = np.full(n, -1)
    key[full] = cols[np.cumsum(counts)[full] - counts[full]]    # a row's first entry
    owner = np.full(n, -1)          # the key of the class whose rows reach a column
    owner[cols] = key[rows]
    owned = np.flatnonzero(owner >= 0)
    code = np.where(full, key, np.where(owner >= 0, n + owner, 2 * n + np.arange(n)))
    if np.any(owner[cols] != key[rows]) or np.any(code[owned] != code[owner[owned]]):
        return None
    every = np.arange(n)
    lead = np.full(3 * n, n)        # the smallest vertex of each class
    np.minimum.at(lead, code, every)
    leaders = np.flatnonzero(lead[code] == every)
    label = (np.cumsum(lead[code] == every) - 1)[lead[code]]
    sources = np.flatnonzero(full[leaders])          # the classes whose rows hold entries
    chains = _read_chains(len(leaders), sources, label[key[leaders[sources]]], sources)
    if chains is None:
        return None
    size = np.bincount(label)
    start, by_class = np.cumsum(size) - size, np.argsort(label * n + every)
    if any(np.any(size[walk] != size[walk[0]]) for walk, _, _ in chains):
        return None
    return [by_class[start[walk][:, None] + np.arange(size[walk[0]])] for walk, _, _ in chains]


def _interleaved(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 components: list[np.ndarray]) -> tuple[np.ndarray, list[_Shifts]]:
    """_cyclic's (order, parts) from its components, the (k, m) arrays of
    their classes' vertices, by one scatter of W's entries into the terms."""
    groups: dict[tuple[int, int], list[np.ndarray]] = {}
    for members in components:
        groups.setdefault(members.shape, []).append(members)
    order = np.concatenate([np.stack(group, axis=1).ravel() for group in groups.values()])
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    shapes = [(k * len(group), m, len(group)) for (k, m), group in groups.items()]
    K, m, _ = np.array(shapes).T        # per group: block count and size, and b
    first, start = np.cumsum(K * m) - K * m, np.cumsum(K * m * m) - K * m * m
    r, c = position[rows], position[cols]
    g = np.repeat(np.arange(len(shapes)), K * m)[r]
    (l, i), j = np.divmod(r - first[g], m[g]), (c - first[g]) % m[g]
    buffer = np.zeros(int((K * m * m).sum()), dtype=complex)
    buffer[start[g] + (i * m[g] + j) * K[g] + l] = vals
    parts = [_Shifts(k, size, {b % k: _read_only(
        buffer[at:at + k * size * size].reshape((size, size, k) if size > 1 else k))})
        for (k, size, b), at in zip(shapes, start.tolist())]
    return order, parts


def _binary_exponent(values: np.ndarray) -> int:
    """The e with 2^(e-1) <= max(|Re v|, |Im v|) < 2^e over ``values`` (0 when
    they are all zero or there are none), so values 2^-e have parts below 1.
    Raises NonFiniteMatrixError for a NaN or infinite value."""
    parts = np.ascontiguousarray(values, dtype=complex).view(np.float64)
    peak = float(np.max(np.abs(parts), initial=0.0))
    if not math.isfinite(peak):
        raise NonFiniteMatrixError("matrix has a NaN or infinite entry")
    return math.frexp(peak)[1]


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

@dataclass
class LoopSpec:
    """Cyclic representation data: theta = pi*k/n, weights from beta.  Any
    unitaries are kept as one (n, block_dim, block_dim) complex array."""

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
            self.unitaries = np.array(self.unitaries, dtype=complex)
            if self.unitaries.shape[1:] != (self.block_dim, self.block_dim):
                raise ValueError("unitary blocks must be block_dim x block_dim")

    @property
    def theta(self) -> float:
        return math.pi * self.k / self.n


def loop_weights(n: int, k: int, beta: float, mu: float, c: float) -> np.ndarray:
    """e~_l = sqrt(c) [mu/sqrt(c) + cos(2 l theta + beta)/cos(theta)]."""
    theta = math.pi * k / n
    return mu + math.sqrt(c) * np.cos(np.arange(0, 2 * n, 2) * theta + beta) / math.cos(theta)


def _check_weights(weights: np.ndarray, first: int) -> None:
    """Raise NonPositiveWeightError for the first weight e~_l <= 0, weights[0]
    being e~_first."""
    if not weights.min(initial=math.inf) > 0:      # a weight <= 0, or a NaN
        bad = np.flatnonzero(weights <= 0)
        if bad.size:
            raise NonPositiveWeightError(int(bad[0]) + first, float(weights[bad[0]]))


def _phase_factors(phases: Sequence[float]) -> np.ndarray:
    """e^{i a} for each phase a: bit for bit cmath.exp(1j * a), which the
    tests pin.  A list whose items all equal zero, such as the default
    phases, gives ones with no conversion or exp: the np.exp below gives
    exactly 1 + 0j for 0.0 and -0.0 alike."""
    if type(phases) is list and not any(phases) and phases.count(0.0) == len(phases):
        return np.ones(len(phases), dtype=complex)
    return np.exp(1j * np.asarray(phases, dtype=float))


def construct_loop_rep(spec: LoopSpec, mu: float, c: float) -> Representation:
    """Block-cyclic phi(W) with superdiagonal blocks sqrt(e~_l) U_l and the
    wrap-around corner sqrt(e~_0) U_0, built in O(n m^2) and stored as
    written (Representation._from_trusted), row-major.  Blocks without
    unitaries are e^{i a_l} times the identity, and only their n m diagonal
    entries are written: a loop (block_dim 1) is its n entries, with no
    block array.  Unitary blocks write all n m^2 entries, of which exact
    zeros are dropped.  The two kinds take the same values, bit for bit,
    for e^{i a_l} given as 1 x 1 unitaries."""
    if c <= 0:
        raise ValueError("loop representations need c > 0")
    n, m = spec.n, spec.block_dim
    weights = loop_weights(n, spec.k, spec.beta, mu, c)
    _check_weights(weights, 0)
    # block l, at block row l and block column l + 1, is sqrt(e~_{l+1}) U_{l+1};
    # following[l m + i] = (l + 1 mod n) m + i, row i of the next block
    index = np.arange(n * m)
    following = _roll(index, m)
    if spec.unitaries is None:
        # row l m + i holds column (l + 1 mod n) m + i alone
        values = _roll(np.sqrt(weights) * _phase_factors(spec.phases), 1)
        rows, cols = index, following
        if m > 1:
            values = values.repeat(m)
    else:
        # row l m + i holds the m columns (l + 1 mod n) m + j in order
        values = _roll((np.sqrt(weights)[:, None, None] * spec.unitaries).ravel(), m * m)
        rows, cols = index.repeat(m), following.reshape(n, m).repeat(m, axis=0).ravel()
    theta = spec.theta
    return Representation._from_trusted(n * m, rows, cols, values, RepParams(mu, c, theta),
                                        classify_regime(mu, c, theta))


def solve_string_theta(n: int, mu: float, c: float) -> float:
    """Unique theta in (0, pi/(n+1)] with cos(n theta) + (mu/sqrt(c)) cos(theta) = 0,
    found by halving a bracket: at most 200 steps, and none once its midpoint
    is one of its ends (two adjacent doubles, after about 60 steps).
    From there every step would keep the bracket as it is, since g(lo) > 0
    and g(hi) <= 0 hold throughout, so the result is that of all 200."""
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
        if mid == lo or mid == hi:
            break
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
    # (n - l) theta for l = 1..n-1 is l theta for l = n-1..1: one sine pass
    sines = np.sin(np.arange(1, n) * theta)
    return 2 * math.sqrt(c) * sines * sines[::-1] / math.cos(theta)


def construct_string_rep(spec: StringSpec) -> Representation:
    """Strictly upper-bidiagonal phi(W) with entries sqrt(e~_l) e^{i alpha}."""
    weights = string_weights(spec.n, spec.theta, spec.c)
    _check_weights(weights, 1)
    vals = np.sqrt(weights) * _phase_factors(spec.phases)
    params = RepParams(spec.mu, spec.c, spec.theta)
    return Representation._from_trusted(spec.n, np.arange(spec.n - 1), np.arange(1, spec.n),
                                        vals, params, classify_regime(spec.mu, spec.c, spec.theta))


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


def _phi_z(X, Y, hbar: float):
    """phi(Z) = [X, Y]/(i hbar), for X and Y of one operand kind."""
    return (X @ Y - Y @ X) / (1j * hbar)


def _roll(x: np.ndarray, a: int) -> np.ndarray:
    """y with y[..., l] = x[..., (l + a) mod k] along the last axis, for
    0 <= a < k (np.roll(x, -a, axis=-1))."""
    if not a:
        return x
    if x.ndim == 1:     # m = 1: plain slices cost a loop's verify less
        return np.concatenate((x[a:], x[:a]))
    return np.concatenate((x[..., a:], x[..., :a]), axis=-1)


class _Shifts:
    """M cut into k x k blocks of m x m, on cyclic block offsets: M[(l, i),
    (l + a, j)] = terms[a][i, j, l], rows and columns (l, i) = l m + i, each
    terms[a] the (m, m, k) stack of block offset a's blocks, and N = k m.  At
    m = 1 the blocks are scalars and terms[a][l] is the diagonal of length k
    itself: M = sum_a diag(d_a) S^a, S the cyclic shift.  A loop in walk
    order is diag(w) S (a string's w_{n-1} = 0), a block loop in block order
    has m = block_dim and the offset 1, b interleaved chains the offset b
    (Representation._cyclic), and Berezin-Toeplitz X, Y, Z offsets -1, 0, 1.

    Sums, scalar multiples and adjoints stay of this kind, and so do products:
    (A B)_{a+b} = A_a roll(B_b, -a), block by block, with no N x N array.  At
    m = 1 that is an elementwise product, O(N) per pair of offsets; for
    2 <= m <= 8 the broadcast product (x[:, :, None] y[None]).sum(1) over an
    (m, m, m, k) temporary, and above that np.matmul over the (k, m, m)
    stack, with no temporary m times an operand: O(m^2 N) per pair either
    way.  One product, best of 7 on a 2-core x86-64 host, one BLAS thread:
    broadcast 11 us, matmul 131 us at m = 2, k = 512; broadcast 2.1 ms,
    matmul 0.58 ms at m = 12, k = 500.  ``data`` holds every stored value,
    which _values and _fro read."""

    __array_ufunc__ = None      # a numpy scalar times M defers to __rmul__

    def __init__(self, k: int, m: int, terms: dict[int, np.ndarray]):
        self.k, self.m, self.terms = k, m, terms

    def eye(self) -> _Shifts:
        k, m = self.k, self.m
        eye = np.ones(k, dtype=complex) if m == 1 else \
            np.repeat(np.eye(m, dtype=complex)[:, :, None], k, axis=2)
        return _Shifts(k, m, {0: eye})

    def zero(self) -> _Shifts:
        return _Shifts(self.k, self.m, {})

    @property
    def shape(self) -> tuple[int, int]:
        return self.k * self.m, self.k * self.m

    @property
    def data(self) -> np.ndarray:
        return np.array(list(self.terms.values()), dtype=complex).ravel()

    def trace(self) -> complex:
        if 0 not in self.terms:
            return 0j
        x = self.terms[0]
        return complex((x if self.m == 1 else np.trace(x)).sum())

    def conj(self) -> _Shifts:
        return _Shifts(self.k, self.m, {a: x.conj() for a, x in self.terms.items()})

    @property
    def T(self) -> _Shifts:
        # block (l, l + a) of M is the transpose of block (l + a, l) of M^T,
        # on offset -a
        k, m = self.k, self.m
        return _Shifts(k, m, {(-a) % k: _roll(x if m == 1 else x.swapaxes(0, 1), (-a) % k)
                              for a, x in self.terms.items()})

    def _merged(self, other: _Shifts, sign: int) -> _Shifts:
        terms = dict(self.terms)
        for a, x in other.terms.items():
            if a in terms:
                terms[a] = terms[a] + x if sign > 0 else terms[a] - x
            else:
                terms[a] = x if sign > 0 else -x
        return _Shifts(self.k, self.m, terms)

    def __add__(self, other: _Shifts) -> _Shifts:
        return self._merged(other, 1)

    def __sub__(self, other: _Shifts) -> _Shifts:
        return self._merged(other, -1)

    def __mul__(self, scalar) -> _Shifts:
        return _Shifts(self.k, self.m, {a: x * scalar for a, x in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> _Shifts:
        return _Shifts(self.k, self.m, {a: x / scalar for a, x in self.terms.items()})

    def __matmul__(self, other: _Shifts) -> _Shifts:
        k, m, terms = self.k, self.m, {}
        for a, x in self.terms.items():
            for b, y in other.terms.items():
                y = _roll(y, a)
                if m == 1:
                    product = x * y
                elif m <= 8:
                    product = (x[:, :, None] * y[None]).sum(1)
                else:       # on the (k, m, m) stacks, views of the terms
                    product = np.matmul(x.transpose(2, 0, 1), y.transpose(2, 0, 1))
                    product = product.transpose(1, 2, 0)
                key = (a + b) % k
                if key in terms:
                    terms[key] += product       # a product made here, never an operand's
                else:
                    terms[key] = product
        return _Shifts(k, self.m, terms)


# Below this N the relation checks and the commutator measure multiply dense
# arrays and the spectra call np.linalg.eigvalsh (_parts, _operands,
# spectra._phi_x_eigenvalues).  Dense against structured, in ms, best of 7 x 40 with
# one BLAS thread on a shared 2-core x86-64 host (cells move by up to 30%):
#
#   route, operands                       N = 32     N = 48     N = 64     N = 80
#   verify_relations, loop (_Shifts)      0.44/0.55  1.12/0.52  2.15/0.54  3.57/0.54
#     block loop, m = 2 (_Shifts)         0.60/1.48  1.12/1.10  2.07/1.11  3.55/1.13
#   verify_bt_relations (_Shifts)         0.29/0.45  0.54/0.44  1.02/0.46  2.04/0.46
#   commutator x^2, y^2, loop (_Shifts)   0.53/0.73  0.76/0.72  1.56/0.74  2.43/0.74
#   spectrum, loop (walks)                0.23/0.29  0.34/0.30  0.53/0.33  0.77/0.34
#     loop, complex twist (walks)         0.22/0.29  0.35/0.34  0.54/0.45  0.79/0.55
#     string (walks)                      0.14/0.15  0.28/0.15  0.43/0.17  0.69/0.18
#
# with N = 33 and 49 as 32 and 48.
_DENSE_BELOW = 48


def _parts(rep: Representation) -> list[tuple]:
    """The (identity, part) pairs the relation checks and the commutator
    measure multiply: for N >= 48 (_DENSE_BELOW), one per _Shifts part of
    rep's reading (Representation._cyclic), if any, else W dense.  The parts
    lie on disjoint index ranges: their values and traces join (_joined)."""
    cyclic = rep._cyclic if rep.n >= _DENSE_BELOW else None
    if cyclic is None:
        return [(np.eye(rep.n), rep.W)]
    return [(part.eye(), part) for part in cyclic[1]]


def _operands(*matrices: np.ndarray) -> tuple:
    """The identity and the dense arrays ``matrices`` as verify_bt_relations
    multiplies them, all of one kind: for N >= 48 (_DENSE_BELOW), arrays
    with every nonzero on the cyclic offsets -1, 0 and 1, as the
    Berezin-Toeplitz X, Y, Z, are read off those diagonals as _Shifts, O(N)
    per product; anything else is dense, O(N^3)."""
    n = matrices[0].shape[0]
    if n >= _DENSE_BELOW:
        at, shifts = np.arange(n), []
        for M in matrices:
            diagonals = {a: M[at, (at + a) % n] for a in sorted({0, 1 % n, -1 % n})}
            # every nonzero of M lies on the three diagonals: O(N^2), but no
            # list of positions as np.nonzero makes
            if _nonzero_parts(M) != sum(_nonzero_parts(x) for x in diagonals.values()):
                break
            shifts.append(_Shifts(n, 1, {a: x for a, x in diagonals.items() if x.any()}))
        else:
            return (shifts[0].eye(), *shifts)
    return (np.eye(n), *matrices)


def _nonzero_parts(M: np.ndarray) -> int:
    """The number of nonzero real and imaginary parts of M's entries, on the
    float64 view of M as a contiguous complex array: M's nonzeros lie within
    a set of its entries iff their counts are equal (-0.0 counts as zero).
    About 0.65 of np.count_nonzero's time on the complex entries: 3.2 -> 2.2
    ms at 1024 x 1024 (best of 9, 2-core x86-64 host)."""
    return np.count_nonzero(np.ascontiguousarray(M, dtype=complex).view(np.float64))


def _values(M) -> np.ndarray:
    """A dense array itself, or the stored values of a _Shifts."""
    return M if isinstance(M, np.ndarray) else M.data


def _joined(operands: list) -> np.ndarray:
    """One operand itself, or the stored values of a reading's parts in turn
    (_parts): the direct sum's, for _fro and _values."""
    return operands[0] if len(operands) == 1 else \
        np.concatenate([_values(M).ravel() for M in operands])


def _fro(M) -> float:
    """Frobenius norm of a dense array or a _Shifts, which stores no entry
    twice."""
    return np.linalg.norm(_values(M))


def _scaled_cube(norm: float, exponent: int) -> float:
    """(|W|_F 2^-e)^3 from norm = |W|_F 2^-e.  pow is not exactly covariant
    under powers of two (its result moves by an ulp for about 1 argument in
    2000), so wherever |W|_F^3 itself is a normal double this is pow(|W|_F, 3)
    2^-3e, which keeps every residual bit for bit what the unscaled
    evaluation gives."""
    with np.errstate(over="ignore"):
        cube = np.ldexp(norm, exponent) ** 3
    if sys.float_info.min <= cube < math.inf:
        return math.ldexp(cube, -3 * exponent)
    return norm ** 3


def verify_relations(rep: Representation) -> VerificationReport:
    """Residuals of the defining matrix relations, unchanged by the scaling
    W -> lambda W, mu -> lambda^2 mu, c -> lambda^4 c.

    residual_wwd  : |(WD + D~W)(1+h^2) - 4 mu h^2 W - (1-h^2)(WD~ + DW)|_F
    residual_casimir : |C_hat - 4c| relative to 4c (absolute when c = 0)
    intertwine_residual : |W D~ - D W|_F, W W^dagger W associated two ways, so
        roundoff for any finite W and no verdict's cause (3.7e-17 for a
        random dense 10 x 10 W whose residual_wwd is 0.32)
    residual_yz/zx : the X,Y,Z-form relations with the verbatim ordering
    D = W W^dagger and D~ = W^dagger W.  All but residual_casimir are cubic in
    W (mu counts as W^2), so they are divided by |W|_F^3.

    The products run on W 2^-e, mu 4^-e and c 16^-e, 2^e just above W's
    largest real or imaginary part (at least 2^-1000): exact scalings, so
    the residuals are the unscaled evaluation's wherever that stays in
    range, and no W between 1e-300 and 1e300 in modulus over- or underflows
    into a wrong verdict.  c_estimate (and the absolute residual_casimir of
    c = 0) is scaled back by 16^e.

    Cost (_parts): 22 products.  For N >= 48, a direct sum of loops,
    strings and block loops, in any vertex order and with classes of any
    size, is multiplied on its reading's m x m blocks, O(m^2 N) per product,
    with residuals and c_estimate within roundoff of the dense evaluation
    (a W with a full row is one block of N, bit for bit); any other W, and
    every W below N = 48, takes dense O(N^3) products.
    """
    # 2^-e is a double, and no W scaled up by 2^1000 comes near underflow
    e = max(_binary_exponent(rep.vals), -1000)
    with np.errstate(over="ignore"):
        mu, c = float(np.ldexp(rep.params.mu, -2 * e)), float(np.ldexp(rep.params.c, -4 * e))
    terms = [_relation_terms(I, P * 2.0 ** -e, mu, c, rep.params.hbar) for I, P in _parts(rep)]
    with np.errstate(over="ignore"):
        norm_w, wwd, intertwine, yz, zx, casimir = (_fro(_joined([t[i] for t in terms]))
                                                    for i in range(6))
        trace = functools.reduce(operator.add, [t[6] for t in terms])
        c_estimate = float(np.ldexp(trace.real / (4 * rep.n), 4 * e))
        residual_casimir = float(casimir / (4 * c) if c > 0 else np.ldexp(casimir, 4 * e))
    cube = _scaled_cube(norm_w, e) or 1.0    # a zero W has zero residuals
    return VerificationReport(float(wwd / cube), residual_casimir, c_estimate,
                              float(intertwine / cube), float(yz / cube), float(zx / cube))


def _relation_terms(eye, W, mu: float, c: float, hbar: float) -> tuple:
    """verify_relations' products on one operand W 2^-e (mu 4^-e, c 16^-e):
    W, the defects of residual_wwd, intertwine_residual, residual_yz and
    residual_zx, C_hat - 4c, and trace(C_hat).  Each intermediate is freed
    after its last reader, so that few operand-sized arrays are alive at
    once; every expression is evaluated as written, so the bits do not
    depend on when its inputs are freed."""
    h2 = hbar ** 2
    Wh = W.conj().T
    D, Dt = W @ Wh, Wh @ W
    WDt, DW = W @ Dt, D @ W
    lhs = (W @ D + Dt @ W) * (1 + h2)
    rhs = 4 * mu * h2 * W + (1 - h2) * (WDt + DW)
    wwd, intertwine = lhs - rhs, WDt - DW
    del lhs, rhs, WDt, DW
    delta = D + Dt - 2 * mu * eye
    diff = D - Dt
    del D, Dt
    chat = delta @ delta + (diff @ diff) / h2
    del delta, diff
    X, Y = (W + Wh) / 2, (W - Wh) / 2j
    del Wh
    Z = _phi_z(X, Y, hbar)
    X2, Y2 = X @ X, Y @ Y
    target = 1j * hbar * (2 * X @ X2 + X @ Y2 + Y2 @ X - 2 * mu * X)
    yz = Y @ Z - Z @ Y - target
    target = 1j * hbar * (2 * Y @ Y2 + Y @ X2 + X2 @ Y - 2 * mu * Y)
    del X2, Y2
    zx = Z @ X - X @ Z - target
    del X, Y, Z, target
    with np.errstate(over="ignore"):
        casimir = chat - 4 * c * eye
    return W, wwd, intertwine, yz, zx, casimir, chat.trace()


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

# |W_ij| > EDGE_RTOL max|W| makes (i, j) an edge: relative, so the graph is
# unchanged by W -> lambda W, and far above the roundoff of a zero entry
EDGE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class MatrixGraph:
    """Directed graph on 0..n-1 with the edges (rows[e], cols[e]), listed in
    the row-major order np.nonzero gives."""

    n: int
    rows: np.ndarray
    cols: np.ndarray

    def weak_components(self) -> list[list[int]]:
        """Sorted vertex lists of the weak components, by smallest vertex: one
        stable argsort of the labels decompose reads (_component_labels)."""
        label = _component_labels(self.n, self.rows, self.cols)
        order = np.argsort(label, kind="stable")
        return [part.tolist() for part in    # n = 0 splits into one empty part
                np.split(order, np.flatnonzero(np.diff(label[order])) + 1) if part.size]


def _component_labels(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """label[v], the smallest vertex of v's weak component in the graph on
    0..n-1 with the edges (rows[e], cols[e]): each round hooks the roots at
    both ends of every edge to the smaller one and jumps pointers until every
    label is a root, O(log n) rounds of O(n + nnz) numpy."""
    label = np.arange(n)
    while not np.array_equal(a := label[rows], b := label[cols]):
        low = np.minimum(a, b)
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


def _edges(vals: np.ndarray) -> np.ndarray:
    """Mask of the entries that are edges: |W_ij| > EDGE_RTOL max|W|."""
    magnitude = np.abs(vals)
    return magnitude > EDGE_RTOL * magnitude.max(initial=0.0)


def matrix_graph(W: Representation | np.ndarray) -> MatrixGraph:
    """Directed graph with an edge (i, j) iff |W_ij| > EDGE_RTOL max|W|, read
    off a Representation's entries in O(nnz); a dense array is first turned
    into its nonzero entries, in O(N^2).  Public, and looked up by name by
    the benchmark tracer (benchmarks/spans.py)."""
    if isinstance(W, Representation):
        n, rows, cols, vals = W.n, W.rows, W.cols, W.vals
    else:
        W = np.asarray(W)
        (rows, cols), n = np.nonzero(W), W.shape[0]
        vals = W[rows, cols]
    edge = _edges(vals)
    return MatrixGraph(n, rows[edge], cols[edge])


def decompose(rep: Representation) -> list[Representation]:
    """Split into permutation-similarity blocks, one per weak component,
    each holding the entries of W among its vertices."""
    graph = matrix_graph(rep)
    label = _component_labels(rep.n, graph.rows, graph.cols)
    # components numbered by smallest vertex, each listed in vertex order
    _, block, sizes = np.unique(label, return_inverse=True, return_counts=True)
    local = np.argsort(np.argsort(block, kind="stable")) - (np.cumsum(sizes) - sizes)[block]
    which = block[rep.rows]
    inside = np.flatnonzero(which == block[rep.cols])
    # a stable sort by component keeps each block's entries row-major
    inside = inside[np.argsort(which[inside], kind="stable")]
    bounds = np.cumsum(np.bincount(which[inside], minlength=len(sizes)))[:-1]
    # relabeling within a component is monotone, so each block stays row-major
    return [Representation._from_trusted(size, local[rep.rows[at]], local[rep.cols[at]],
                                         rep.vals[at], rep.params, rep.regime)
            for size, at in zip(sizes, np.split(inside, bounds))]


def direct_sum(reps: Sequence[Representation]) -> Representation:
    if not reps:
        raise ValueError("direct_sum needs at least one representation")
    offsets = np.cumsum([0] + [r.n for r in reps])
    first = reps[0]
    # each block is row-major and lies below and right of the one before
    return Representation._from_trusted(
        int(offsets[-1]), np.concatenate([r.rows + at for r, at in zip(reps, offsets)]),
        np.concatenate([r.cols + at for r, at in zip(reps, offsets)]),
        np.concatenate([r.vals for r in reps]), first.params, first.regime)


def edge_consistency_residual(rep: Representation) -> float:
    """max over edges (i,j) of |x_j - s(x_i)| (diagonal data moves by s)."""
    graph = matrix_graph(rep)
    d, dt = _diagonal_data(rep)
    image = ellipse_map_s(EllipsePoint(d[graph.rows], dt[graph.rows]),
                          rep.params.mu, rep.params.theta)
    gaps = np.abs(np.subtract(image, (d[graph.cols], dt[graph.cols])))
    return float(np.max(gaps, initial=0.0))


# ---------------------------------------------------------------------------
# LAPACK, from the library numpy links against
# ---------------------------------------------------------------------------

# The names a LAPACK routine goes by in that library, each with the type of
# its INTEGER: scipy-openblas64 (numpy's wheels), another ILP64 build, LP64.
_LAPACK_SYMBOLS = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64),
                   ("{}_", ctypes.c_int32))


@functools.cache
def _lapack(name: str, signature: str) -> tuple:
    """(routine, integer): LAPACK's routine ``name`` as a ctypes function and
    the ctypes type of its INTEGER arguments.

    The routine is looked up by dlsym in numpy.linalg._umath_linalg, which
    also searches the libraries it depends on, so it is found in the LAPACK
    numpy already loaded, under the first of _LAPACK_SYMBOLS that resolves;
    LapackNotFoundError, naming the routine and every name tried, when none
    does.  Each letter of ``signature`` types one argument: c a CHARACTER,
    i an INTEGER (a scalar or an array of the integer type), d a float64
    and z a complex128 array, whose dtype and Fortran contiguity ctypes
    checks, p an argument the call leaves unreferenced (a SELECT or BWORK),
    passed as None."""
    from numpy.linalg import _umath_linalg

    library = ctypes.CDLL(_umath_linalg.__file__)
    for pattern, integer in _LAPACK_SYMBOLS:
        if hasattr(library, pattern.format(name)):
            address = ctypes.cast(getattr(library, pattern.format(name)), ctypes.c_void_p).value
            break
    else:
        raise LapackNotFoundError(name, [pattern.format(name) for pattern, _ in _LAPACK_SYMBOLS])
    types = {"c": ctypes.c_char_p, "i": ctypes.POINTER(integer), "p": ctypes.c_void_p,
             "d": np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS"),
             "z": np.ctypeslib.ndpointer(np.complex128, flags="F_CONTIGUOUS")}
    return ctypes.CFUNCTYPE(None, *(types[t] for t in signature))(address), integer


def _complex_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, S) with a = S T S^dagger, T upper triangular and S unitary: the
    complex Schur form of the square ``a``, by LAPACK's zgees with Schur
    vectors and no sorting, with the optimal LWORK its workspace query
    (LWORK = -1) returns.
    NonFiniteMatrixError for a NaN or infinite entry, which LAPACK's QR
    iteration does not reject; LapackError when INFO != 0."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"a Schur form takes a square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteMatrixError("the matrix has a NaN or infinite entry")
    n = len(a)
    zgees, integer = _lapack("zgees", "ccpiziizzizidpi")
    T = np.array(a, dtype=complex, order="F")      # overwritten by T
    S, eigenvalues = np.empty((n, n), dtype=complex, order="F"), np.empty(n, dtype=complex)
    sdim, info = integer(), integer()

    def call(work: np.ndarray, lwork: int) -> None:
        # JOBVS SORT SELECT N A LDA SDIM W VS LDVS WORK LWORK RWORK BWORK INFO;
        # SELECT and BWORK are not referenced for SORT = 'N'
        zgees(b"V", b"N", None, integer(n), T, integer(n), sdim, eigenvalues, S, integer(n),
              work, integer(lwork), np.empty(n), None, info)
        if info.value:
            raise LapackError("zgees", info.value)

    query = np.empty(1, dtype=complex)
    call(query, -1)     # the optimal LWORK, in query[0]
    lwork = int(query[0].real)
    call(np.empty(max(lwork, 1), dtype=complex), lwork)
    return T, S


# ---------------------------------------------------------------------------
# canonicalization, index, equivalence
# ---------------------------------------------------------------------------

# canonicalize_loop's tolerance, relative to max|W| (max|W|^2 for d, d~): far
# above roundoff.  A class step may miss s by 4 CANONICAL_RTOL in d and 2 in
# d~ (_step_bounds).  Cycles REPEAT_RTOL cuts unevenly are cut at 2 CANONICAL_RTOL
# about vertex 0's (d, d~): below the class gap of a k-loop, 1.3e-5 max|W|^2 at
# k = 1000 and 1.8e-7 at k = 10^4, above it from k of about 1.9e4 (mu = 1.3, c = 1).
CANONICAL_RTOL = 1e-8

# Two vertices of one class of a block loop share (d, d~) up to a few ulp of
# max|W|^2; the class gap of a single k-loop, about 12/k^2 max|W|^2, stays
# above this up to k of about 3e6: cycles are cut at this window first.
REPEAT_RTOL = 1e-12


def canonicalize_loop(rep: Representation) -> list[Representation]:
    """Split a block-cyclic loop into block_dim single loops.

    The vertex classes are read off W's graph in O(N), in any vertex order
    (_class_order): a block loop stored in block order, or the cycles of W's
    vertices or vertex classes (a loop, sums of loops and block loops of
    one beta, monomial, diagonal or block-diagonal blocks) cut at the
    classes sharing vertex 0's (d, d~).  Each class must follow s of the
    one before it, a check that does not depend on the labelling: one entry
    of a 50-loop scaled by 1 + 1e-8 splits, by 1 + 1e-7 is rejected, on
    every row.  Any other W raises NotBlockCyclicError.  The band blocks B_l =
    sqrt(e~_{l+1}) U_{l+1} from class l to class l+1 are read off W's
    relabeled entries, with no N x N matrix, and the holonomy U_1 U_2 ...
    U_{k-1} U_0 = S V S^dagger fixes the gauge P_0 = S, P_l = U_l^dagger
    P_{l-1}, one m x m block at a time: band block l becomes P_l^dagger B_l
    P_{l+1} = sqrt(e~_{l+1}) 1, and the corner sqrt(e~_0) V.  Their
    diagonals give one single loop per holonomy eigenvalue, whose index is
    that eigenvalue scaled by sqrt(prod e~_l); the holonomy, unitarity and
    rebuild checks certify the split.
    """
    N = rep.n
    d, dt = _diagonal_data(rep)
    tol = CANONICAL_RTOL
    peak = rep._peak
    cluster_tol = tol * peak ** 2

    order = _class_order(rep, d, dt, cluster_tol)
    if order is None:
        raise NotBlockCyclicError("W's graph has no vertex classes that follow the ellipse map")
    perm, m = order
    k = N // m

    # e~ of class l is the d~ value there
    weights = dt[perm].reshape(k, m).mean(axis=1)
    if np.min(weights) <= cluster_tol:
        raise NotBlockCyclicError("cyclic block has zero weight")
    # entry (r, c) of the relabeled W lies in band block l = r // m when
    # c // m = l + 1 (mod k): that block's entry (r % m, c % m)
    position = np.empty(N, dtype=np.intp)
    position[perm] = np.arange(N)
    r, c = position[rep.rows], position[rep.cols]
    on_band = c // m == (r // m + 1) % k
    bands = np.zeros((k, m, m), dtype=complex)
    bands[r[on_band] // m, r[on_band] % m, c[on_band] % m] = rep.vals[on_band]
    off_band = float(np.linalg.norm(rep.vals[~on_band]))
    if off_band > tol * peak:
        raise NotBlockCyclicError("nonzero entries outside the cyclic band")
    U = np.roll(bands, 1, axis=0) / np.sqrt(weights)[:, None, None]
    if np.max(np.linalg.norm(U @ U.conj().swapaxes(1, 2) - np.eye(m), axis=(1, 2))) > tol * m:
        raise NotBlockCyclicError("cyclic block is not proportional to a unitary")

    prefix = [np.eye(m, dtype=complex)]          # U_1 ... U_l
    for l in range(1, k):
        prefix.append(prefix[-1] @ U[l])
    T, S = _complex_schur(prefix[-1] @ U[0])
    eigenvalues = np.diag(T)
    if np.linalg.norm(T - np.diag(eigenvalues)) > tol * m:
        raise NotBlockCyclicError("holonomy failed to diagonalize (not unitary?)")
    P = np.array(prefix).conj().swapaxes(1, 2) @ S
    blocks = P.conj().swapaxes(1, 2) @ bands @ np.roll(P, -1, axis=0)
    expected = np.sqrt(np.roll(weights, -1))[:, None, None] * np.eye(m, dtype=complex)
    expected[-1] = math.sqrt(weights[0]) * np.diag(eigenvalues)
    if math.hypot(np.linalg.norm(blocks - expected), off_band) > tol * peak * N:
        raise NotBlockCyclicError("conjugated matrix is not a sum of single loops")

    cycle = np.diagonal(blocks, axis1=1, axis2=2)
    ls = np.arange(k)
    return [Representation._from_trusted(k, ls, (ls + 1) % k, cycle[:, j].copy(), rep.params,
                                         rep.regime)
            for j in np.argsort(np.angle(eigenvalues))]


def _step_bounds(theta: float, tol: float) -> tuple[float, float]:
    """How far, in d and d~, s of one vertex class's (d, d~) may lie from the
    next class's when every class lies within tol of an exact orbit of s:
    s(d, d~) = (4 mu sin^2 theta + 2 cos(2 theta) d - d~, d) turns errors of
    tol in d and d~ into up to (2 |cos 2 theta| + 1) tol in d and tol in d~,
    and the next class's own error adds tol to each."""
    return (2 * abs(math.cos(2 * theta)) + 2) * tol, 2 * tol


def _class_order(rep: Representation, d: np.ndarray, dt: np.ndarray,
                 tol: float) -> tuple[np.ndarray, int] | None:
    """(order, m): canonicalize_loop's classes, class l the vertices
    order[l m .. l m + m - 1], ascending, read off W's graph under the
    EDGE_RTOL rule, or None: W's blocks if W is stored on block offset 1
    (_stored_blocks), else the cycles of its vertices (_read_chains) or
    vertex classes (_class_chains), every column holding an edge, cut at
    the classes near vertex 0's (d, d~), within REPEAT_RTOL max|W|^2, else
    2 tol (_cut_cycles).  Each step but the closing one must follow s: class
    l + 1 within _step_bounds of tol of s of the mean (d, d~) of class l,
    summed left to right.  O(N) numpy, with no Python step per class."""
    n = rep.n
    if rep._all_edges:      # the graph is W's entries, read as cached on rep
        rows, cols, chains = rep.rows, rep.cols, rep._chains
    else:
        edge = _edges(rep.vals)
        rows, cols = rep.rows[edge], rep.cols[edge]
        chains = _read_chains(n, rows, cols, rep.vals[edge])
    blocks = None if chains is not None else _stored_blocks(n, rows, cols)
    if blocks is not None and blocks[1] == 1 % (n // blocks[0]):
        order, m = np.arange(n), blocks[0]
    else:
        if chains is not None:
            cycles = [walk[:, None] for walk, _, _ in chains]
        else:
            cycles = rep._classes if rep._all_edges else _class_chains(n, rows, cols)
        if cycles is None or np.bincount(cols, minlength=n).min() == 0:
            return None
        for radius in (REPEAT_RTOL * rep._peak ** 2, 2 * tol):
            cut = (np.abs(d - d[0]) <= radius) & (np.abs(dt - dt[0]) <= radius)
            if (classes := _cut_cycles(cycles, cut)) is not None:
                break
        else:
            return None
        order, m = classes.ravel(), classes.shape[1]
    k = n // m
    by_class = d[order].reshape(k, m), dt[order].reshape(k, m)
    means = [functools.reduce(operator.add, x.T) / m for x in by_class]
    target_d, target_dt = ellipse_map_s(EllipsePoint(*means), rep.params.mu, rep.params.theta)
    tol_d, tol_dt = _step_bounds(rep.params.theta, tol)
    lo, hi = target_d[:-1] - tol_d, target_d[:-1] + tol_d
    class_d, class_dt = by_class[0][1:], by_class[1][1:]
    follows = np.all((class_d >= lo[:, None]) & (class_d <= hi[:, None])
                     & (np.abs(class_dt - target_dt[:-1, None]) <= tol_dt))
    return (order, m) if follows else None


def _cut_cycles(cycles: list[np.ndarray], cut: np.ndarray) -> np.ndarray | None:
    """The cycles of vertex classes ``cycles``, (k, m) arrays as _class_chains
    gives them, cut at each class holding a vertex ``cut`` marks: the (L, M)
    array whose row l is the l-th class of every segment, ascending; None
    for a cycle with no cut or segments of several lengths."""
    segments = []
    for members in cycles:
        at = np.flatnonzero(cut[members].any(axis=1))
        if not len(at):
            return None
        segments += np.split(np.roll(members, -at[0], axis=0), at[1:] - at[0])
    uneven = len({len(s) for s in segments}) > 1
    return None if uneven else np.sort(np.concatenate(segments, axis=1), axis=1)


def _single_chain(rep: Representation) -> tuple[str, np.ndarray, float]:
    """(kind, w, mass): "loop" when W's graph under the EDGE_RTOL rule is one
    n-cycle from v_0 = 0, "string" when it is one n-path from v_0, its vertex
    with no in-edge (at n = 1: a self-loop, or no edge); w holds the entries
    W[v_l, v_l+1] in walk order, and mass is the Frobenius norm of the
    entries the graph drops.  When every entry is an edge (rep._all_edges,
    read as W was stored) the graph is Representation._chains and mass is
    exactly 0; else the graph is _read_chains of the edges.  Raises
    NotSingleLoopError for any other graph."""
    n = rep.n
    if rep._all_edges:
        chains, edges, mass = rep._chains, len(rep.vals), 0.0
    else:
        edge = _edges(rep.vals)
        chains = _read_chains(n, rep.rows[edge], rep.cols[edge], rep.vals[edge])
        edges, mass = np.count_nonzero(edge), float(np.linalg.norm(rep.vals[~edge]))
    if chains is None:
        raise NotSingleLoopError(
            f"the graph has {edges} edges; a loop has {n} and a "
            f"string {n - 1}, at most one edge per row and per column")
    walk, closed, w = chains[0]
    if len(walk) != n:
        shape = "cycle" if closed else "path"
        raise NotSingleLoopError(
            f"vertex {walk[0]} lies on a {len(walk)}-{shape}, not a {n}-{shape}")
    return "loop" if closed else "string", w, mass


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


def rep_index(rep: Representation) -> RepIndex:
    """Loop index z = prod w_l over the cycle entries of a single loop
    (W^n = z 1), read in log space: log|z| = sum log|w_l|, arg z = sum arg w_l
    mod 2 pi.  Raises NotSingleLoopError unless W is one n-cycle.

    Each call reads W's graph as stored (rep._all_edges, and rep._chains,
    read on the first call of any reader and cached), then |w_l| once, for
    log|z| and, only when some entry is not an edge, the off-cycle bound,
    and arg w_l once: O(N), in a fixed number of numpy passes."""
    kind, w, mass = _single_chain(rep)
    if kind != "loop":
        raise NotSingleLoopError("W is a string; the index needs a loop")
    return _loop_index(w, mass)


def _loop_index(w: np.ndarray, mass: float) -> RepIndex:
    """rep_index of a loop whose cycle entries _single_chain read as w, with
    the entries off its graph of Frobenius norm ``mass``."""
    # W^n = z 1 holds exactly for the cycle alone.  An entry eps off it, which
    # the graph drops, changes W^n by eps |z| / |w_l| to first order (w_l the
    # cycle entry it bypasses); bound that relative change.  Every edge is a
    # cycle edge, so the off-cycle entries are those the graph drops: none,
    # and a mass of exactly 0, when every entry is an edge.
    magnitude = np.abs(w)
    if mass and mass > 1e-10 * magnitude.min():
        raise NotSingleLoopError(f"off-cycle mass {mass:.3g} exceeds 1e-10 min |w_l|")
    log_modulus = float(np.log(magnitude).sum())
    # np.angle(w), without its dispatch
    phase = math.remainder(float(np.arctan2(w.imag, w.real).sum()), 2 * math.pi)
    with np.errstate(over="ignore"):
        modulus = float(np.exp(log_modulus))
    return RepIndex(cmath.rect(modulus, phase), log_modulus, phase)


def _casimir(rep: Representation) -> float:
    """c as the vertex mean of ((d + d~ - 2 mu)^2 + ((d - d~)/hbar)^2)/4, which
    is verify_relations' trace(C_hat)/(4n) whenever W W^dagger and W^dagger W
    are diagonal, as they are for every loop and string.  (d, d~) is read
    once (_diagonal_data) and each square formed in place."""
    d, dt = _diagonal_data(rep)
    p = rep.params
    terms = d + dt - 2 * p.mu
    terms *= terms
    spread = (d - dt) / p.hbar
    spread *= spread
    terms += spread
    return float(terms.sum()) / len(terms) / 4


def reps_equivalent(a: Representation, b: Representation, tol: float = 1e-10) -> bool:
    """Loops: equal dimension, Casimir and index.  Strings: equal dimension
    and Casimir.  These invariants are complete, so no intertwiner search is
    needed.  Both arguments must represent the same algebra (equal mu, theta).
    ``tol`` is relative: |c_a - c_b| <= tol max(|c_a|, |c_b|) and
    |log z_a - log z_b| <= tol (log|z| and arg z mod 2 pi), which is
    |z_a - z_b| <= tol |z| to first order at any scale of W or |z|.
    Raises NotSingleLoopError unless each of a and b is one loop or one
    string in a permutation basis (see _single_chain).

    Each call reads, for each of a and b: W's graph as stored (see
    rep_index); then, when the kinds and dimensions agree, (d, d~) once for
    the Casimir (_casimir); then, for two loops whose Casimirs agree, |w_l|
    and arg w_l once each for the index (_loop_index).  O(N) in all."""
    if not (math.isclose(a.params.mu, b.params.mu, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(a.params.theta, b.params.theta, rel_tol=1e-12)):
        raise ValueError("representations belong to different algebras")
    (kind_a, w_a, mass_a), (kind_b, w_b, mass_b) = _single_chain(a), _single_chain(b)
    if kind_a != kind_b:
        raise MixedKindsError(f"cannot compare a {kind_a} with a {kind_b}")
    if a.n != b.n:
        return False
    ca, cb = _casimir(a), _casimir(b)
    if abs(ca - cb) > tol * max(abs(ca), abs(cb)):
        return False
    if kind_a == "string":
        return True
    za, zb = _loop_index(w_a, mass_a), _loop_index(w_b, mass_b)
    return math.hypot(za.log_modulus - zb.log_modulus,
                      math.remainder(za.phase - zb.phase, 2 * math.pi)) <= tol


# ---------------------------------------------------------------------------
# the loop weight product f(beta)
# ---------------------------------------------------------------------------

def f_beta(beta: float, n: int, k: int, mu: float, c: float) -> float:
    """f(beta) = prod_{l<n} [mu + sqrt(c) cos(2 l theta + beta)/cos(theta)],
    theta = pi k / n.  Raises OverflowError, stating log|f| = sum log|factor|,
    when the product leaves the double range."""
    if math.gcd(k, n) != 1:
        raise ValueError("need gcd(k, n) = 1")
    theta = math.pi * k / n
    rc = math.sqrt(c)
    factors = [mu + rc * math.cos(2 * l * theta + beta) / math.cos(theta) for l in range(n)]
    value = math.prod(factors)
    if math.isinf(value):
        log_abs = math.fsum(math.log(abs(factor)) for factor in factors)
        raise OverflowError(f"f(beta) overflows a double: log|f| = sum log|factor| = {log_abs!r}")
    return value


def f_beta_residual(beta: float, n: int, k: int, mu: float, c: float) -> float:
    """f(beta) - (sqrt(c)/cos theta)^n (-1/2)^{n-1} cos(n beta); independent of
    beta (it equals the constant Fourier coefficient of f)."""
    theta = math.pi * k / n
    lead = (math.sqrt(c) / math.cos(theta)) ** n
    return f_beta(beta, n, k, mu, c) - lead * (-0.5) ** (n - 1) * math.cos(n * beta)
