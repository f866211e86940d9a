"""Berezin-Toeplitz torus matrices from clock-and-shift operators, the
relations they satisfy, and the exact correspondence with single-loop
representations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .representations import (LoopSpec, NonPositiveWeightError, _read_cycle,
                              construct_loop_rep)

__all__ = [
    "ClockShift", "BTSpec", "BTRelationReport", "LoopComparison",
    "NTooSmallError", "ComplexSqrtError", "RegimeMismatchError",
    "clock_shift", "face_function_matrix", "bt_matrices", "bt_w_matrix",
    "verify_bt_relations", "compare_with_loop_rep", "nu_one_gap",
]


class NTooSmallError(ValueError):
    pass


class ComplexSqrtError(ValueError):
    """mu + nu cos(...) < 0: the parametrization square roots turn complex."""


class RegimeMismatchError(ValueError):
    """The comparison loop has a non-positive weight (mu too small)."""


@dataclass(frozen=True)
class ClockShift:
    """Shift S (cyclic permutation) and clock T = diag(1, q, ..., q^{N-1})
    with q = e^{-2 pi i/N}; they obey S T = q T S and S^N = T^N = 1."""

    N: int
    S: np.ndarray
    T: np.ndarray
    q: complex
    chi: complex


def _shift_power(N: int, power: int) -> np.ndarray:
    """S^power exactly, as a permutation matrix (S maps e_j -> e_{j-1})."""
    return np.roll(np.eye(N, dtype=complex), power, axis=1)


def clock_shift(N: int) -> ClockShift:
    if N < 5:
        raise NTooSmallError(f"need N >= 5, got {N}")
    q = cmath.exp(-2j * math.pi / N)
    chi = cmath.exp(-1j * math.pi / N)
    S = _shift_power(N, 1)   # S diag(d) S^-1 = diag(d_2, ..., d_N, d_1)
    T = np.diag([cmath.exp(-2j * math.pi * l / N) for l in range(N)])
    return ClockShift(N, S, T, q, chi)


def face_function_matrix(r1: int, r2: int, cs: ClockShift) -> np.ndarray:
    """chi^{r1 r2} S^{-r1} T^{r2}; exponents are handled exactly mod N."""
    N = cs.N
    phase = cmath.exp(-1j * math.pi * ((r1 * r2) % (2 * N)) / N)
    Tpow = np.diag([cmath.exp(-2j * math.pi * ((l * r2) % N) / N) for l in range(N)])
    return phase * _shift_power(N, -r1) @ Tpow


@dataclass(frozen=True)
class BTSpec:
    """Parameters of the quantized torus (x^2 + y^2 - mu)^2 + z^2 = nu^2.

    The torus regime needs mu/nu > 1; smaller ratios surface as
    ComplexSqrtError or RegimeMismatchError from the constructions."""

    mu: float
    nu: float
    N: int

    def __post_init__(self):
        if self.N < 5:
            raise NTooSmallError(f"need N >= 5, got {self.N}")
        if self.nu <= 0:
            raise ValueError("nu must be positive")

    @property
    def theta(self) -> float:
        return math.pi / self.N

    @property
    def hbar(self) -> float:
        return math.tan(self.theta)


def _weights(spec: BTSpec) -> np.ndarray:
    """x_l^2 = mu + nu cos(2 pi l/N + pi/N) for l = 1..N."""
    ls = np.arange(1, spec.N + 1)
    return spec.mu + spec.nu * np.cos(2 * math.pi * ls / spec.N + math.pi / spec.N)


def bt_matrices(spec: BTSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X = (DS + S^-1 D)/2, Y = -i(DS - S^-1 D)/2 with D = diag(x_l), and
    Z = diag(-nu sin(2 pi l/N))."""
    squares = _weights(spec)
    bad = np.nonzero(squares < 0)[0]
    if bad.size:
        raise ComplexSqrtError(
            f"mu + nu cos((2l+1)pi/N) < 0 at l = {int(bad[0]) + 1}")
    # D S has the single entry x_l at (l, l+1), and S^-1 D = (D S)^T
    DS = np.sqrt(squares).astype(complex)[:, None] * _shift_power(spec.N, 1)
    X = (DS + DS.T) / 2
    Y = (DS - DS.T) / 2j
    ls = np.arange(1, spec.N + 1)
    Z = np.diag(-spec.nu * np.sin(2 * math.pi * ls / spec.N)).astype(complex)
    return X, Y, Z


def bt_w_matrix(spec: BTSpec) -> np.ndarray:
    """W = X + iY = D S (cancellation is exact)."""
    X, Y, _ = bt_matrices(spec)
    return X + 1j * Y


@dataclass(frozen=True)
class BTRelationReport:
    residual_xy: float
    residual_yz: float
    residual_zx: float
    residual_casimir: float
    theta: float
    hbar: float

    def residuals(self) -> tuple[float, float, float, float]:
        return (self.residual_xy, self.residual_yz, self.residual_zx,
                self.residual_casimir)

    def ok(self, tol: float) -> bool:
        return max(self.residuals()) <= tol


def verify_bt_relations(X: np.ndarray, Y: np.ndarray, Z: np.ndarray,
                        spec: BTSpec) -> BTRelationReport:
    """Frobenius residuals of the four relations with hbar = tan(pi/N):

        [X,Y] = i hbar (cos t Z)
        [Y, cos t Z] = i hbar (X A + A X),   A = X^2 + Y^2 - mu
        [cos t Z, X] = i hbar (Y A + A Y)
        A^2 + (cos t Z)^2 = (nu cos t)^2
    """
    theta = spec.theta
    hbar = spec.hbar
    eye = np.eye(spec.N)
    A = X @ X + Y @ Y - spec.mu * eye
    cZ = math.cos(theta) * Z
    r1 = np.linalg.norm(X @ Y - Y @ X - 1j * hbar * cZ)
    r2 = np.linalg.norm(Y @ cZ - cZ @ Y - 1j * hbar * (X @ A + A @ X))
    r3 = np.linalg.norm(cZ @ X - X @ cZ - 1j * hbar * (Y @ A + A @ Y))
    r4 = np.linalg.norm(A @ A + cZ @ cZ - (spec.nu * math.cos(theta)) ** 2 * eye)
    return BTRelationReport(float(r1), float(r2), float(r3), float(r4), theta, hbar)


@dataclass(frozen=True)
class LoopComparison:
    max_entry_diff: float
    equivalent: bool
    c: float
    shift: int


def compare_with_loop_rep(spec: BTSpec, c_loop: float | None = None,
                          tol: float = 1e-10) -> LoopComparison:
    """Compare W = X + iY against the single loop with n = N, k = 1,
    beta = pi/N, zero phases and Casimir scale ``c_loop``.

    The default c_loop = (nu cos(pi/N))^2 realizes the correspondence
    entrywise-exactly; c_loop = nu^2 (the surface scale) quantifies the
    asymptotic-only agreement of the nu = 1 normalization.  The comparison
    allows a cyclic relabeling of indices: the shift whose rotated cycle
    entries differ least, where the dense difference max_entry_diff is taken.
    """
    theta = spec.theta
    if c_loop is None:
        c_loop = (spec.nu * math.cos(theta)) ** 2
    try:
        loop = construct_loop_rep(LoopSpec(n=spec.N, k=1, beta=theta),
                                  spec.mu, c_loop)
    except NonPositiveWeightError as exc:
        raise RegimeMismatchError(
            f"no loop representation at mu = {spec.mu}, c = {c_loop}: {exc}") from exc
    W_bt = bt_w_matrix(spec)
    N = spec.N
    # W_bt = D S, like the loop, is zero off the edges (l, l+1) under every
    # cyclic relabeling, so a shift's largest difference lies on those edges
    rows, w_loop = _read_cycle(loop.W, zero_tol=0.0)
    cols = np.roll(rows, -1)
    shifts = np.arange(N)[:, None]
    rotated = W_bt[(rows + shifts) % N, (cols + shifts) % N]
    best_shift = int(np.argmin(np.max(np.abs(rotated - w_loop), axis=1)))
    perm = (np.arange(N) + best_shift) % N
    best = float(np.max(np.abs(W_bt[np.ix_(perm, perm)] - loop.W)))
    return LoopComparison(best, best <= tol, c_loop, best_shift)


def nu_one_gap(mu: float, N: int) -> float:
    """Entrywise gap between the nu = 1 Berezin-Toeplitz matrices and the
    loop representation on the same surface (c = nu^2 = 1); vanishes only
    asymptotically, like theta^2."""
    return compare_with_loop_rep(BTSpec(mu, 1.0, N), c_loop=1.0).max_entry_diff
