"""Berezin-Toeplitz quantization of the torus (Bordemann, Meinrenken and
Schlichenmaier, arXiv:hep-th/9309134): W = X + iY = D S, the cyclic shift S
weighted by D = diag(x_l), is a loop and is stored as its N cycle entries;
the four relations X, Y, Z satisfy; and the exact correspondence with
single-loop representations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .representations import (LoopSpec, NonPositiveWeightError, Representation, RepParams,
                              _binary_exponent, _fro, _operands, _values, classify_regime,
                              construct_loop_rep)

__all__ = [
    "BTSpec", "BTRelationReport", "LoopComparison",
    "NTooSmallError", "ComplexSqrtError", "RegimeMismatchError", "bt_matrices",
    "bt_w_matrix", "verify_bt_relations", "compare_with_loop_rep", "nu_one_gap",
]


class NTooSmallError(ValueError):
    pass


class ComplexSqrtError(ValueError):
    """mu + nu cos(...) < 0: the parametrization square roots turn complex."""


class RegimeMismatchError(ValueError):
    """The comparison loop has a non-positive weight (mu too small)."""


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
        if not math.isfinite(self.scale * self.scale):   # BTRelationReport.ok reads s^2
            raise ValueError("mu and nu must be finite, with (|mu| + nu)^2 in the double range")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.casimir < sys.float_info.min:
            raise ValueError(f"nu = {self.nu!r} makes the Casimir scale (nu cos(pi/N))^2 = "
                             f"{self.casimir!r} smaller than the smallest normal double")

    @property
    def theta(self) -> float:
        return math.pi / self.N

    @property
    def hbar(self) -> float:
        return math.tan(self.theta)

    @property
    def scale(self) -> float:
        """s = |mu| + nu: X and Y scale like sqrt(s), Z like s."""
        return abs(self.mu) + self.nu

    @property
    def casimir(self) -> float:
        """c = (nu cos(pi/N))^2, the Casimir scale of the loop that W equals."""
        return (self.nu * math.cos(self.theta)) ** 2


def _cycle(spec: BTSpec) -> np.ndarray:
    """The cycle entries x_l = W[l, l+1 mod N] for l = 0..N-1, with
    x_l^2 = mu + nu cos(2 pi (l+1)/N + pi/N)."""
    ls = np.arange(1, spec.N + 1)
    squares = spec.mu + spec.nu * np.cos(2 * math.pi * ls / spec.N + math.pi / spec.N)
    bad = np.nonzero(squares < 0)[0]
    if bad.size:
        raise ComplexSqrtError(f"mu + nu cos((2l+1)pi/N) < 0 at l = {int(bad[0]) + 1}")
    return np.sqrt(squares)


def bt_w_matrix(spec: BTSpec) -> Representation:
    """W = D S as the loop with entries x_l at (l, l+1 mod N), mu and c =
    (nu cos(pi/N))^2; a zero weight (mu = nu at odd N) leaves N - 1 entries."""
    ls = np.arange(spec.N)
    params = RepParams(spec.mu, spec.casimir, spec.theta)
    return Representation._from_trusted(spec.N, ls, (ls + 1) % spec.N,
                                        _cycle(spec).astype(complex), params,
                                        classify_regime(spec.mu, spec.casimir, spec.theta))


def bt_matrices(spec: BTSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense X = (DS + S^-1 D)/2, Y = -i(DS - S^-1 D)/2 with D = diag(x_l),
    and Z = diag(-nu sin(2 pi l/N)).

    S^-1 D = (D S)^T, and DS and its transpose share no position (N >= 5),
    so only W's cycle entries w and their mirrors are written into zeros,
    bit for bit as the dense sums round them: w/2 in X, w/2i above and
    (0 - w)/2i below the diagonal in Y (-w/2i would flip the sign of a zero
    part).  At N = 1024 that takes 2.5 ms against 36 ms for the sums
    (2-core x86-64 host, one BLAS thread)."""
    w = bt_w_matrix(spec)
    X, Y, Z = (np.zeros((spec.N, spec.N), dtype=complex) for _ in range(3))
    X[w.rows, w.cols] = X[w.cols, w.rows] = w.vals / 2
    Y[w.rows, w.cols] = w.vals / 2j
    Y[w.cols, w.rows] = (0 - w.vals) / 2j
    ls = np.arange(1, spec.N + 1)
    np.fill_diagonal(Z, -spec.nu * np.sin(2 * math.pi * ls / spec.N))
    return X, Y, Z


@dataclass(frozen=True)
class BTRelationReport:
    residual_xy: float
    residual_yz: float
    residual_zx: float
    residual_casimir: float
    theta: float
    hbar: float
    scale: float

    def residuals(self) -> tuple[float, float, float, float]:
        return (self.residual_xy, self.residual_yz, self.residual_zx,
                self.residual_casimir)

    def ok(self, tol: float) -> bool:
        """Residuals within tol s, s^{3/2}, s^{3/2}, s^2 with s = BTSpec.scale,
        the sizes of their terms: the verdict is the same for (lambda mu,
        lambda nu) at every lambda > 0."""
        s = self.scale
        return all(r <= tol * b for r, b in zip(self.residuals(), (s, s ** 1.5, s ** 1.5, s * s)))


def verify_bt_relations(X: np.ndarray, Y: np.ndarray, Z: np.ndarray,
                        spec: BTSpec) -> BTRelationReport:
    """Frobenius residuals of the four relations with hbar = tan(pi/N):

        [X,Y] = i hbar (cos t Z)
        [Y, cos t Z] = i hbar (X A + A X),   A = X^2 + Y^2 - mu
        [cos t Z, X] = i hbar (Y A + A Y)
        A^2 + (cos t Z)^2 = (nu cos t)^2

    The products run on X 2^-e, Y 2^-e, Z 4^-e, mu 4^-e and c 16^-e, 2^e just
    above the largest part of X and Y, and r1..r4 are scaled back by 4^e, 8^e,
    8^e and 16^e.  The scalings are exact, so no mu, nu that BTSpec accepts
    overflows or underflows into a wrong verdict.

    Cost (representations._operands): for N >= 48, X, Y, Z whose nonzeros
    lie on the cyclic offsets -1, 0 and 1, as bt_matrices builds them, are
    multiplied as sums of shifted diagonals in O(N) per product, after an
    O(N^2) count of nonzero parts that shows the rest is zero (1.0 ms at N
    = 256); the residuals then differ from the dense evaluation at roundoff
    level.  Any other X, Y, Z (permuted ones, say), and all below N = 48,
    are dense O(N^3) products.
    """
    theta = spec.theta
    hbar = spec.hbar
    eye, X, Y, Z = _operands(X, Y, Z)
    # 4^-e is a double, and no X scaled up by 2^500 comes near underflow
    e = max(_binary_exponent(_values(X)), _binary_exponent(_values(Y)), -500)
    X, Y, Z = X * 2.0 ** -e, Y * 2.0 ** -e, Z * 4.0 ** -e
    with np.errstate(over="ignore"):
        mu, c = float(np.ldexp(spec.mu, -2 * e)), float(np.ldexp(spec.casimir, -4 * e))
    A = X @ X + Y @ Y - mu * eye
    cZ = math.cos(theta) * Z
    r1 = _fro(X @ Y - Y @ X - 1j * hbar * cZ)
    r2 = _fro(Y @ cZ - cZ @ Y - 1j * hbar * (X @ A + A @ X))
    r3 = _fro(cZ @ X - X @ cZ - 1j * hbar * (Y @ A + A @ Y))
    r4 = _fro(A @ A + cZ @ cZ - c * eye)
    with np.errstate(over="ignore"):
        residuals = [float(np.ldexp(r, k * e)) for r, k in ((r1, 2), (r2, 3), (r3, 3), (r4, 4))]
    return BTRelationReport(*residuals, theta, hbar, spec.scale)


# max_entry_diff / max|w_l| is at most 2.1 ulp for the exact correspondence
# (mu = 1.1..10, nu = 1, N = 5..4000), and at least 2.5e-10 for a c_loop 1e-8 off
LOOP_MATCH_RTOL = 1e-10


@dataclass(frozen=True)
class LoopComparison:
    max_entry_diff: float
    equivalent: bool
    c: float
    shift: int


def compare_with_loop_rep(spec: BTSpec, c_loop: float | None = None) -> LoopComparison:
    """Compare W = X + iY against the single loop with n = N, k = 1,
    beta = pi/N, zero phases and Casimir scale ``c_loop``.

    The default c_loop = (nu cos(pi/N))^2 realizes the correspondence
    entrywise-exactly; c_loop = nu^2 (the surface scale) quantifies the
    asymptotic-only agreement of the nu = 1 normalization.  The comparison
    allows a cyclic relabeling of indices: the shift whose rotated cycle
    entries differ least, and max_entry_diff is that least difference.
    ``equivalent`` is max_entry_diff <= LOOP_MATCH_RTOL max|w_l| over the
    loop's entries w_l, a verdict unchanged by (mu, nu) -> (lambda mu,
    lambda nu).

    The result, ties included, is the N x N table's, in O(N): at most 2
    shifts were evaluated in full for N = 5..199, 256, 384, 1024, 4000 (best
    of 9, table -> bound: 1.1 -> 0.29 ms at N = 256, 349 -> 1.0 ms at 4000).
    """
    if c_loop is None:
        c_loop = spec.casimir
    try:
        loop = construct_loop_rep(LoopSpec(n=spec.N, k=1, beta=spec.theta),
                                  spec.mu, c_loop)
    except NonPositiveWeightError as exc:
        raise RegimeMismatchError(
            f"no loop representation at mu = {spec.mu}, c = {c_loop}: {exc}") from exc
    # Both W are zero off the edges (l, l+1 mod N) under every cyclic
    # relabeling, so a shift's largest difference lies on them.  Relabeling by
    # s puts x_{l+s} at (l, l+1), where the loop holds w_l = vals[l].  The cycle
    # keeps a zero weight, which bt_w_matrix drops.
    N, w_loop = spec.N, loop.vals
    x = np.tile(_cycle(spec), 2)        # x[s:s + N]: the cycle relabeled by s
    # a shift's difference is at least that at the probes, the largest and
    # smallest |w_l|: shifts go in order of this bound, until it exceeds the best
    probes = (int(np.argmax(np.abs(w_loop))), int(np.argmin(np.abs(w_loop))))
    bound = np.maximum(*(np.abs(x[p:p + N] - w_loop[p]) for p in probes))
    best, best_shift = math.inf, 0
    for shift in np.argsort(bound, kind="stable").tolist():
        if bound[shift] > best:
            break
        diff = float(np.max(np.abs(x[shift:shift + N] - w_loop)))
        if (diff, shift) < (best, best_shift):      # the least shift of equal ones
            best, best_shift = diff, shift
    return LoopComparison(best, best <= LOOP_MATCH_RTOL * float(np.max(np.abs(w_loop))), c_loop,
                          best_shift)


def nu_one_gap(mu: float, N: int) -> float:
    """Entrywise gap between the nu = 1 Berezin-Toeplitz matrices and the
    loop representation on the same surface (c = nu^2 = 1); vanishes only
    asymptotically, like theta^2."""
    return compare_with_loop_rep(BTSpec(mu, 1.0, N), c_loop=1.0).max_entry_diff
