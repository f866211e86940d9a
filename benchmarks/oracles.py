"""Oracles of the ncsurface benchmark: independent checks of every result.

Each check returns ``None`` when the result is right and a ``Failure``
otherwise.  Checks run outside the timed region and use closed forms or a
second computation path, never the call they check.

A failure carries ``known`` when the numbers show it is an instance of a
defect recorded in ROADMAP item 4 (an overflow or a tolerance that does not
scale with the data).  Such failures still count as failed operations; they
only keep the run's ``correct`` flag from flipping.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

# log of the largest double; rep_index overflows where |z|^2 exceeds it
LOG_DBL_MAX = math.log(sys.float_info.max)
OVERFLOW = "rep_index overflow of W^n / |z|^2 (ROADMAP item 4)"
ABS_TOL = "absolute tolerance on z in reps_equivalent (ROADMAP item 4)"


@dataclass(frozen=True)
class Failure:
    reason: str
    known: str | None = None


def raised(outcome) -> Failure | None:
    if isinstance(outcome, Exception):
        return Failure(f"raised {type(outcome).__name__}: {outcome}")
    return None


def expect(condition: bool, reason: str) -> Failure | None:
    return None if condition else Failure(reason)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def matrix_equals(rep, expected: np.ndarray) -> Failure | None:
    """phi(W) equals the closed-form matrix entrywise (relative 1e-12)."""
    if (f := raised(rep)):
        return f
    W = np.asarray(rep.W)
    if W.shape != expected.shape:
        return Failure(f"shape {W.shape}, expected {expected.shape}")
    err = float(np.max(np.abs(W - expected)))
    scale = max(1.0, float(np.max(np.abs(expected))))
    return expect(err <= 1e-12 * scale, f"W differs from the closed form by {err:.3g}")


def verification(report, c: float, mu: float) -> Failure | None:
    """``VerificationReport.ok()`` and a Casimir estimate equal to c."""
    if (f := raised(report)):
        return f
    if not report.ok():
        return Failure(f"verification not ok: {report}")
    err = abs(report.c_estimate - c)
    return expect(err <= 1e-9 * max(1.0, c, mu * mu),
                  f"c_estimate {report.c_estimate!r}, expected {c!r}")


def spectrum(report, n: int, pattern) -> Failure | None:
    """n finite, ascending eigenvalues and the expected branch pattern."""
    if (f := raised(report)):
        return f
    eigs = np.asarray(report.eigenvalues)
    if eigs.shape != (n,) or not np.all(np.isfinite(eigs)) or np.any(np.diff(eigs) < 0):
        return Failure(f"expected {n} finite ascending eigenvalues")
    return expect(report.branch_pattern() == pattern,
                  f"branch pattern {report.branch_pattern()}, expected {pattern}")


def expected_pattern(mu: float, c: float) -> tuple[int, ...]:
    """The paper's branch patterns: (1) on the sphere, (1,2,1) on the torus."""
    return (1,) if mu / math.sqrt(c) <= 1 else (1, 2, 1)


def log_index(weights: np.ndarray, phases) -> tuple[float, float]:
    """Closed form of the loop index in log space: log|z| = (1/2) sum log e~_l,
    arg z = sum alpha_l."""
    return 0.5 * float(np.sum(np.log(weights))), float(np.sum(phases))


def _angle_gap(a: float, b: float) -> float:
    return abs(cmath.phase(cmath.exp(1j * (a - b))))


def loop_index(index, log_modulus: float, phase: float) -> Failure | None:
    """rep_index against the log-domain closed form.

    An index with a ``log_modulus`` field is compared in log space, and its z
    only where |z| is a double; an index without one must have a finite z that
    matches.  A raise, or a non-finite z, where |z|^2 leaves the double range
    is the known overflow; a wrong finite answer never is."""
    if (f := raised(index)):
        return _overflow(f, log_modulus)
    if hasattr(index, "log_modulus"):
        failure = _index_mismatch(float(index.log_modulus), float(index.phase),
                                  log_modulus, phase)
        if failure is not None or log_modulus >= LOG_DBL_MAX:
            return failure
    z = complex(index.z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return _overflow(Failure(f"index z = {z} is not finite"), log_modulus)
    if z == 0:
        return Failure("index z = 0")
    return _index_mismatch(math.log(abs(z)), cmath.phase(z), log_modulus, phase)


def _overflow(failure: Failure, log_modulus: float) -> Failure:
    return Failure(failure.reason, OVERFLOW) if 2 * log_modulus > LOG_DBL_MAX else failure


def _index_mismatch(got_log, got_phase, log_modulus, phase) -> Failure | None:
    if abs(got_log - log_modulus) > 1e-9 * max(1.0, abs(log_modulus)):
        return Failure(f"log|z| = {got_log!r}, expected {log_modulus!r}")
    if _angle_gap(got_phase, phase) > 1e-8:
        return Failure(f"arg z = {got_phase!r}, expected {phase!r} mod 2pi")
    return None


def cycle_log_index(W: np.ndarray) -> tuple[float, float] | None:
    """(log|z|, arg z) of a single loop read off its n nonzeros, or None when
    the nonzeros do not form one n-cycle."""
    W = np.asarray(W)
    n = W.shape[0]
    cols = np.argmax(np.abs(W), axis=1)
    vals = W[np.arange(n), cols]
    v, seen = 0, 0
    while True:
        v = int(cols[v])
        seen += 1
        if v == 0 or seen > n:
            break
    if seen != n or np.any(vals == 0):
        return None
    return float(np.sum(np.log(np.abs(vals)))), float(np.sum(np.angle(vals)))


def canonical_loops(loops, log_modulus: float, holonomy: np.ndarray) -> Failure | None:
    """One single loop per holonomy eigenvalue lambda_j, with index
    sqrt(prod e~_l) lambda_j."""
    if (f := raised(loops)):
        return f
    expected = sorted(cmath.phase(lam) for lam in np.linalg.eigvals(holonomy))
    if len(loops) != len(expected):
        return Failure(f"{len(loops)} loops, expected {len(expected)}")
    got = []
    for loop in loops:
        idx = cycle_log_index(loop.W)
        if idx is None:
            return Failure("a canonical block is not a single loop")
        got.append(idx)
    for want in expected:      # matched by nearest angle: +-pi sort either way
        lm, ph = min(got, key=lambda t: _angle_gap(t[1], want))
        if abs(lm - log_modulus) > 1e-9 * max(1.0, abs(log_modulus)) or \
                _angle_gap(ph, want) > 1e-8:
            return Failure(f"canonical loop index ({lm!r}, {ph!r}) does not match "
                           f"({log_modulus!r}, {want!r})")
    return None


def nearest_first(angles, loop) -> list[int]:
    """Indices of ``angles`` ordered by distance to the index angle of ``loop``."""
    idx = cycle_log_index(loop.W)
    phase = idx[1] if idx else 0.0
    return sorted(range(len(angles)), key=lambda i: _angle_gap(angles[i], phase))


def equivalence(verdict, expected: bool, a, b) -> Failure | None:
    """The equivalence verdict of two single loops.

    A wrong verdict is the absolute-tolerance defect when the indices compared
    relative to their size agree with ``expected`` and the tolerance 1e-10 on
    z decides the verdict: a false True where |z_a - z_b| <= 1e-10, a false
    False where 1e-10 is below ten times n eps |z|, the rounding bound of the
    n-fold product z, so that rounding alone can exceed it."""
    if (f := raised(verdict)):
        return f
    if verdict is expected:
        return None
    failure = Failure(f"reps_equivalent gave {verdict!r}, expected {expected!r}")
    ia, ib = cycle_log_index(a.W), cycle_log_index(b.W)
    if ia and ib and max(ia[0], ib[0]) < LOG_DBL_MAX / 2:
        za, zb = (cmath.rect(math.exp(lm), ph) for lm, ph in (ia, ib))
        relative = abs(ia[0] - ib[0]) <= 1e-9 * max(1.0, abs(ia[0])) and \
            _angle_gap(ia[1], ib[1]) <= 1e-9
        rounding = 10 * a.n * sys.float_info.epsilon * max(abs(za), abs(zb))
        decided = abs(za - zb) <= 1e-10 if verdict else 1e-10 < rounding
        if relative is expected and decided:
            return Failure(failure.reason, ABS_TOL)
    return failure


# ---------------------------------------------------------------------------
# spectra and Berezin-Toeplitz
# ---------------------------------------------------------------------------

def sweep_patterns(rows, expected: dict[float, tuple[int, ...]], n: int) -> Failure | None:
    """Every mu gives n rows and its paper branch pattern."""
    if (f := raised(rows)):
        return f
    for mu, pattern in expected.items():
        mine = [r for r in rows if r.mu == mu]
        if len(mine) != n or any(isinstance(r.branches, str) for r in mine):
            return Failure(f"mu={mu}: {len(mine)} rows or an error row")
        got = pattern_from_rows((r.interval, r.branches) for r in mine)
        if got != pattern:
            return Failure(f"mu={mu}: branch pattern {got}, expected {pattern}")
    return None


def pattern_from_rows(pairs) -> tuple | None:
    """Branch pattern from (interval, branches) pairs of spectrum rows."""
    counts: dict[int, object] = {}
    for interval, branches in pairs:
        if interval is not None:
            counts[interval] = branches
    if sorted(counts) != list(range(len(counts))):
        return None
    return tuple(counts[i] for i in range(len(counts)))


def bt_matrices(xyz, weights: np.ndarray) -> Failure | None:
    """X, Y hermitian with X + iY = D S, D = diag(sqrt(x_l^2))."""
    if (f := raised(xyz)):
        return f
    X, Y, Z = xyz
    n = len(weights)
    W = X + 1j * Y
    expected = np.zeros((n, n), dtype=complex)
    expected[np.arange(n), (np.arange(n) + 1) % n] = np.sqrt(weights)
    err = max(float(np.max(np.abs(W - expected))),
              float(np.max(np.abs(X - X.conj().T))), float(np.max(np.abs(Z - Z.conj().T))))
    return expect(err <= 1e-12 * max(1.0, float(np.max(np.sqrt(weights)))),
                  f"BT matrices differ from D S by {err:.3g}")


def bt_relations(report, n: int) -> Failure | None:
    if (f := raised(report)):
        return f
    return expect(report.ok(1e-12 * n), f"BT residuals {report.residuals()} above 1e-12*N")


def bt_equivalent(comparison) -> Failure | None:
    if (f := raised(comparison)):
        return f
    return expect(comparison.equivalent,
                  f"BT matrices not equivalent to the loop (diff {comparison.max_entry_diff})")


def decreasing_errors(errors, ns) -> Failure | None:
    """commutator-vs-bracket errors: positive, finite, strictly decreasing in N."""
    if (f := raised(errors)):
        return f
    if [n for n, _ in errors] != list(ns):
        return Failure(f"errors for N = {[n for n, _ in errors]}, expected {list(ns)}")
    values = [e for _, e in errors]
    ok = all(math.isfinite(e) and e > 0 for e in values) and \
        all(a > b for a, b in zip(values, values[1:]))
    return expect(ok, f"errors {values} do not decrease in N")
