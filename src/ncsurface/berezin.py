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

from .representations import (NonPositiveWeightError, Representation, RepParams,
                              _binary_exponent, _fro, _loop_moduli, _operands, _roll, _values,
                              classify_regime)

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
    part).  A zero weight (mu = nu at odd N) writes nothing, as bt_w_matrix
    drops it.  At N = 1024 that takes 2.5 ms against 36 ms for the sums
    (2-core x86-64 host, one BLAS thread)."""
    N, x = spec.N, _cycle(spec)
    rows = np.flatnonzero(x)
    cols = (rows + 1) % N
    # flat positions of (l, l+1 mod N) and of its mirror in the row-major arrays
    up, down, w = rows * N + cols, cols * N + rows, x[rows].astype(complex)
    X, Y, Z = (np.zeros(N * N, dtype=complex) for _ in range(3))
    X[up] = X[down] = w / 2
    Y[up] = w / 2j
    Y[down] = (0 - w) / 2j
    Z[::N + 1] = -spec.nu * np.sin(2 * math.pi * np.arange(1, N + 1) / N)
    return X.reshape(N, N), Y.reshape(N, N), Z.reshape(N, N)


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
    O(N^2) count of nonzero parts that shows the rest is zero; the residuals
    then differ from the dense evaluation at roundoff level.  Any other X,
    Y, Z (permuted ones, say), and all below N = 48, are dense O(N^3)
    products.
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


def compare_with_loop_rep(spec: BTSpec, c_loop: float | None = None) -> LoopComparison:
    """Compare W = X + iY with the single loop of n = N, k = 1, beta = pi/N,
    zero phases and Casimir scale ``c_loop``: the default (nu cos(pi/N))^2
    realizes the correspondence entrywise-exactly, and c_loop = nu^2 (the
    surface scale) measures the asymptotic-only agreement of nu = 1.

    Both W are zero off the edges (l, l+1 mod N), and max_entry_diff =
    max_l |x_l - w_l| pairs the cycle entry x_l with the loop's w_l at the
    same l.  No cyclic relabeling does better: x_l = sqrt(mu + nu cos phi_l)
    and w_l = sqrt(mu + sqrt(c_loop) cos phi_l / cos theta), phi_l = (2l + 3)
    pi/N, are nondecreasing in the same cos phi_l, so this is the sorted
    pairing, whose largest difference is the least of all pairings.
    ``equivalent`` is max_entry_diff <= LOOP_MATCH_RTOL max w_l, unchanged by
    (mu, nu) -> (lambda mu, lambda nu).  The w_l and the errors come from
    _loop_moduli, as construct_loop_rep's do, with no Representation built:
    ValueError for c_loop <= 0, RegimeMismatchError for a weight <= 0 and
    NonFiniteMatrixError for a NaN or infinite one.
    """
    if c_loop is None:
        c_loop = spec.casimir
    try:
        moduli = _loop_moduli(spec.N, 1, spec.theta, spec.mu, c_loop)
    except NonPositiveWeightError as exc:
        raise RegimeMismatchError(
            f"no loop representation at mu = {spec.mu}, c = {c_loop}: {exc}") from exc
    # the loop's entry at (l, l+1 mod N); the cycle keeps a zero weight, which
    # bt_w_matrix drops
    w_loop = _roll(moduli, 1)
    diff = float(np.abs(_cycle(spec) - w_loop).max())
    return LoopComparison(diff, diff <= LOOP_MATCH_RTOL * float(w_loop.max()), c_loop)


def nu_one_gap(mu: float, N: int) -> float:
    """Entrywise gap between the nu = 1 Berezin-Toeplitz matrices and the
    loop representation on the same surface (c = nu^2 = 1), which agree only
    asymptotically.  For mu > 1 the largest difference sits at cos phi_l =
    -1, where x_l = sqrt(mu - 1) and w_l = sqrt(mu - 1/cos theta), so

        nu_one_gap(mu, N) = theta^2/(4 sqrt(mu - 1)) (1 + O(theta^2)),

    theta = pi/N.  The law holds until the entries' roundoff, about eps
    sqrt(mu^2 - 1) (N/pi)^2 relative to the gap, takes over: at N = 2^20 the
    gap exceeds its leading term by 1e-5 of it at mu = 1.3, 3.5e-4 at mu = 10."""
    return compare_with_loop_rep(BTSpec(mu, 1.0, N), c_loop=1.0).max_entry_diff
