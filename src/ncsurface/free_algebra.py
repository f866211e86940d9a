"""Exact free-algebra engine: words, polynomials, reduction systems.

Words are plain strings over a single-letter alphabet ({W,V} for the
torus/sphere algebra, {X,Y,Z} for the generator form).  Polynomials map
words to exact rational (Fraction) coefficients, so confluence,
consistency and centrality checks are exact zero tests.  The genus relations
carry a common factor i*hbar, which is kept outside the polynomials.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

__all__ = [
    "Ordering", "SparsePolynomial", "NCPolynomial", "ReductionSystem", "AlgebraParams",
    "GenusRelations", "OverlapCheck",
    "NonTerminatingError", "NoOverlapError", "IncompatibleOrderError",
    "DegreeZeroError",
    "misordering_index", "word_compare", "reduce", "one_step_reductions",
    "build_torus_system", "check_overlap_resolvable", "enumerate_basis",
    "build_genus_relations", "consistency_defect", "check_consistency_identity",
    "casimir_polynomial", "casimir_centrality", "symmetrized_rescale",
    "commutator",
]


class NonTerminatingError(RuntimeError):
    """Reduction exceeded its safety bound (incompatible order)."""


class NoOverlapError(ValueError):
    """Word admits fewer than two distinct first reductions."""


class IncompatibleOrderError(ValueError):
    """A replacement monomial is not strictly below its pattern."""


class DegreeZeroError(ValueError):
    """Constraint polynomial has degree zero (empty relation sums)."""


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INCOMPARABLE = 2


def misordering_index(word: str) -> int:
    """Number of pairs k < k' with word[k] = W and word[k'] = V."""
    count = 0
    vs_after = word.count("V")
    for ch in word:
        if ch == "V":
            vs_after -= 1
        elif ch == "W":
            count += vs_after
    return count


def word_compare(p: str, q: str) -> Ordering:
    """Partial order: by total degree, then by misordering index among
    permutations of the same letter multiset."""
    if p == q:
        return Ordering.EQUAL
    if len(p) != len(q):
        return Ordering.LESS if len(p) < len(q) else Ordering.GREATER
    if sorted(p) != sorted(q):
        return Ordering.INCOMPARABLE
    mp, mq = misordering_index(p), misordering_index(q)
    if mp < mq:
        return Ordering.LESS
    if mp > mq:
        return Ordering.GREATER
    return Ordering.INCOMPARABLE


class SparsePolynomial:
    """Finite Fraction-linear combination of monomial keys; immutable by
    convention.  A subclass gives the key of the unit monomial (``UNIT``) and
    the product of two keys (``_key_product``)."""

    __slots__ = ("terms",)
    UNIT: Hashable

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(coeff, Fraction):
                    coeff = Fraction(coeff)
                if coeff:
                    clean[key] = coeff
        self.terms = clean

    @staticmethod
    def _accumulate(acc: dict, key, coeff: Fraction) -> None:
        """acc[key] += coeff, dropping the key when the sum vanishes."""
        prev = acc.get(key)
        total = coeff if prev is None else prev + coeff
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)

    def _new(self, terms: dict):
        """A polynomial of this class over already-clean ``terms``."""
        result = object.__new__(type(self))
        result.terms = terms
        return result

    @classmethod
    def constant(cls, value):
        return cls({cls.UNIT: value})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def _coerce(self, value):
        if type(value) is type(self):
            return value
        if isinstance(value, (int, Fraction)):
            return self.constant(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            self._accumulate(out, key, coeff)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                self._accumulate(out, self._key_product(k1, k2), c1 * c2)
        return self._new(out)

    def __rmul__(self, other):
        # only scalars reach here, and they commute with every monomial
        return self.__mul__(other)

    def scale(self, coeff):
        return self * self.constant(coeff)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class NCPolynomial(SparsePolynomial):
    """Finite rational combination of words; the product concatenates words."""

    __slots__ = ()
    UNIT = ""

    @staticmethod
    def _key_product(a: str, b: str) -> str:
        return a + b

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls.constant(1)

    @classmethod
    def monomial(cls, word: str, coeff=1) -> "NCPolynomial":
        return cls({word: coeff})

    def coefficient(self, word: str) -> Fraction:
        return self.terms.get(word, Fraction(0))

    def sorted_terms(self) -> list[tuple[str, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        """Commutative numeric specialization (letters -> commuting numbers)."""
        total = 0j
        for word, coeff in self.terms.items():
            value = complex(coeff)
            for ch in word:
                value *= assignment[ch]
            total += value
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.sorted_terms():
            parts.append(f"({coeff})*{word if word else '1'}")
        return " + ".join(parts)


def commutator(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    return a * b - b * a


@dataclass(frozen=True)
class AlgebraParams:
    """Exact parameters (mu, hbar^2) of the torus/sphere algebra."""

    mu: Fraction
    hbar_sq: Fraction
    c: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "mu", Fraction(self.mu))
        object.__setattr__(self, "hbar_sq", Fraction(self.hbar_sq))
        if not 0 < self.hbar_sq < 1:
            raise ValueError(f"hbar_sq must lie in (0,1), got {self.hbar_sq}")
        if self.c is not None and self.c < 0:
            raise ValueError("c must be nonnegative")

    @property
    def hbar(self) -> float:
        return math.sqrt(float(self.hbar_sq))

    @property
    def theta(self) -> float:
        return math.atan(self.hbar)

    @property
    def q(self) -> complex:
        return complex(math.cos(2 * self.theta), math.sin(2 * self.theta))


class ReductionSystem:
    """Ordered rewrite rules (pattern word -> replacement polynomial).

    With ``validate=True`` every replacement monomial must be strictly
    below its pattern in the (degree, misordering) partial order, which
    guarantees termination of ``reduce``.
    """

    def __init__(self, rules: Iterable[tuple[str, NCPolynomial]], validate: bool = True):
        self.rules: tuple[tuple[str, NCPolynomial], ...] = tuple(rules)
        if not self.rules:
            raise ValueError("reduction system needs at least one rule")
        if validate:
            for pattern, replacement in self.rules:
                for word in replacement.terms:
                    if word_compare(word, pattern) is not Ordering.LESS:
                        raise IncompatibleOrderError(
                            f"replacement monomial {word!r} not below pattern {pattern!r}")

    def leftmost_match(self, word: str) -> tuple[int, int] | None:
        """(position, rule index) of the leftmost match; rule order breaks ties."""
        for pos in range(len(word)):
            for idx, (pattern, _) in enumerate(self.rules):
                if word.startswith(pattern, pos):
                    return pos, idx
        return None

    def all_matches(self, word: str) -> list[tuple[int, int]]:
        out = []
        for pos in range(len(word)):
            for idx, (pattern, _) in enumerate(self.rules):
                if word.startswith(pattern, pos):
                    out.append((pos, idx))
        return out

    def apply_at(self, word: str, pos: int, idx: int) -> NCPolynomial:
        pattern, replacement = self.rules[idx]
        if not word.startswith(pattern, pos):
            raise ValueError(f"rule {idx} does not match {word!r} at {pos}")
        prefix, suffix = word[:pos], word[pos + len(pattern):]
        out = {}
        for sub, coeff in replacement.terms.items():
            out[prefix + sub + suffix] = coeff
        return NCPolynomial(out)


def one_step_reductions(word: str, system: ReductionSystem) -> list[NCPolynomial]:
    """All distinct single-rewrite results of ``word``."""
    results: list[NCPolynomial] = []
    for pos, idx in system.all_matches(word):
        cand = system.apply_at(word, pos, idx)
        if not any(cand == seen for seen in results):
            results.append(cand)
    return results


def _word_normal_form(word: str, system: ReductionSystem,
                      cache: dict[str, NCPolynomial], budget: list[int]) -> NCPolynomial:
    cached = cache.get(word)
    if cached is not None:
        return cached
    match = system.leftmost_match(word)
    if match is None:
        irreducible = NCPolynomial.monomial(word)
        cache[word] = irreducible
        return irreducible
    budget[0] -= 1
    if budget[0] < 0:
        raise NonTerminatingError(
            f"reduction of {word!r} exceeded the safety bound; "
            "the system is not compatible with the partial order")
    rewritten = system.apply_at(word, *match)
    acc: dict[str, Fraction] = {}
    for sub, coeff in rewritten.terms.items():
        for nf_word, nf_coeff in _word_normal_form(sub, system, cache, budget).terms.items():
            NCPolynomial._accumulate(acc, nf_word, coeff * nf_coeff)
    result = NCPolynomial(acc)
    cache[word] = result
    return result


def reduce(poly: NCPolynomial, system: ReductionSystem) -> NCPolynomial:
    """Unique normal form of ``poly`` modulo the two-sided ideal of the system.

    Rewrites the leftmost occurrence of the highest-priority pattern until no
    monomial contains any pattern as a subword.  The safety bound of
    10*(degree+1)^2 fresh rewrites per initial monomial turns an incompatible
    order into a NonTerminatingError instead of a hang.
    """
    cache: dict[str, NCPolynomial] = {}
    total = NCPolynomial.zero()
    for word, coeff in poly.terms.items():
        budget = [10 * (len(word) + 1) ** 2]
        nf = _word_normal_form(word, system, cache, budget)
        total = total + nf.scale(coeff)
    return total


@dataclass
class OverlapCheck:
    resolvable: bool
    witness: NCPolynomial


def check_overlap_resolvable(system: ReductionSystem, overlap: str) -> OverlapCheck:
    """Reduce every one-step rewriting of ``overlap`` to normal form; the
    ambiguity is resolvable iff all normal forms agree."""
    firsts = one_step_reductions(overlap, system)
    if len(firsts) < 2:
        raise NoOverlapError(
            f"{overlap!r} admits {len(firsts)} distinct first reduction(s), need >= 2")
    normal_forms = [reduce(p, system) for p in firsts]
    witness = NCPolynomial.zero()
    resolvable = True
    base = normal_forms[0]
    for other in normal_forms[1:]:
        diff = other - base
        if not diff.is_zero():
            resolvable = False
            witness = diff
            break
    return OverlapCheck(resolvable, witness)


def build_torus_system(params: AlgebraParams) -> ReductionSystem:
    """The two-rule system of the torus/sphere algebra in W, V:

        W^2 V -> 4 mu h^2/(1+h^2) W + 2(1-h^2)/(1+h^2) WVW - VW^2
        W V^2 -> 4 mu h^2/(1+h^2) V + 2(1-h^2)/(1+h^2) VWV - V^2 W
    """
    h2 = params.hbar_sq
    a = 4 * params.mu * h2 / (1 + h2)
    b = 2 * (1 - h2) / (1 + h2)
    sigma1 = NCPolynomial({"W": a, "WVW": b, "VWW": -1})
    sigma2 = NCPolynomial({"V": a, "VWV": b, "VVW": -1})
    return ReductionSystem([("WWV", sigma1), ("WVV", sigma2)])


def enumerate_basis(max_degree: int) -> list[str]:
    """All irreducible words V^i (WV)^j W^k with i + 2j + k <= max_degree,
    in graded (degree, lexicographic) order."""
    words = set()
    for i in range(max_degree + 1):
        for j in range((max_degree - i) // 2 + 1):
            for k in range(max_degree - i - 2 * j + 1):
                words.add("V" * i + "WV" * j + "W" * k)
    return sorted(words, key=lambda w: (len(w), w))


@dataclass
class GenusRelations:
    """Generator-form relations [Z,Y] = phi_X, [X,Z] = phi_Y, [Y,X] = i hbar Z
    for a genus-g constraint polynomial, with hbar = sqrt(hbar_sq).

    ``phi_x`` and ``phi_y`` are the rational polynomials phi_X/(i hbar) and
    phi_Y/(i hbar): both carry the common factor i hbar, so the consistency
    defect vanishes exactly when its rational part does.
    """

    phi_x: NCPolynomial
    phi_y: NCPolynomial
    hbar_sq: Fraction


def _p_of_x(p_coeffs: Sequence[Fraction]) -> NCPolynomial:
    return NCPolynomial({"X" * r: a for r, a in enumerate(p_coeffs)})


def build_genus_relations(p_coeffs: Sequence[Fraction], hbar_sq: Fraction) -> GenusRelations:
    """phi_X = i hbar sum_r a_r sum_{i<r} X^i (P(X)+Y^2) X^{r-1-i} and
    phi_Y = i hbar [2Y^3 + Y P(X) + P(X) Y], returned with the common factor
    i hbar stripped (see ``GenusRelations``)."""
    coeffs = [Fraction(a) for a in p_coeffs]
    if len(coeffs) < 2:
        raise DegreeZeroError("P must have positive degree (need a_r for r >= 1)")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient a_{2g} must be nonzero")
    hbar_sq = Fraction(hbar_sq)
    if hbar_sq <= 0:
        raise ValueError(f"hbar_sq must be positive, got {hbar_sq}")

    p_plus_y2 = _p_of_x(coeffs) + NCPolynomial.monomial("YY")
    phi_x = NCPolynomial.zero()
    for r in range(1, len(coeffs)):
        if coeffs[r] == 0:
            continue
        inner = NCPolynomial.zero()
        for i in range(r):
            inner = inner + (NCPolynomial.monomial("X" * i) * p_plus_y2
                             * NCPolynomial.monomial("X" * (r - 1 - i)))
        phi_x = phi_x + inner.scale(coeffs[r])

    p_poly = _p_of_x(coeffs)
    y = NCPolynomial.monomial("Y")
    phi_y = NCPolynomial.monomial("YYY", 2) + y * p_poly + p_poly * y
    return GenusRelations(phi_x, phi_y, hbar_sq)


def consistency_defect(phi_x: NCPolynomial, phi_y: NCPolynomial) -> NCPolynomial:
    """[X, phi_X] + [Y, phi_Y], expanded in the free algebra."""
    x = NCPolynomial.monomial("X")
    y = NCPolynomial.monomial("Y")
    return commutator(x, phi_x) + commutator(y, phi_y)


def check_consistency_identity(p_coeffs: Sequence[Fraction], hbar_sq: Fraction) -> bool:
    rel = build_genus_relations(p_coeffs, hbar_sq)
    return consistency_defect(rel.phi_x, rel.phi_y).is_zero()


def casimir_polynomial(params: AlgebraParams, with_hbar_factor: bool = True) -> NCPolynomial:
    """C_hat = (D + D~ - 2 mu)^2 + (D - D~)^2 / hbar^2 with D = WV, D~ = VW."""
    d = NCPolynomial.monomial("WV")
    dt = NCPolynomial.monomial("VW")
    first = d + dt - NCPolynomial.constant(2 * params.mu)
    second = d - dt
    chat = first * first
    quad = second * second
    if with_hbar_factor:
        quad = quad.scale(1 / params.hbar_sq)
    return chat + quad


def casimir_centrality(params: AlgebraParams) -> bool:
    """True iff [W, C_hat], [V, C_hat] and [D, D~] all reduce to exactly zero."""
    system = build_torus_system(params)
    chat = casimir_polynomial(params)
    w = NCPolynomial.monomial("W")
    v = NCPolynomial.monomial("V")
    d = NCPolynomial.monomial("WV")
    dt = NCPolynomial.monomial("VW")
    return all(
        reduce(commutator(a, b), system).is_zero()
        for a, b in ((w, chat), (v, chat), (d, dt))
    )


def symmetrized_rescale(hbar_prime_sq: Fraction) -> Fraction:
    """Map the fully-symmetrized ordering parameter onto the standard one:
    hbar^2 = 3 hbar'^2 / (3 - hbar'^2)."""
    hps = Fraction(hbar_prime_sq)
    if not 0 < hps < 3:
        raise ValueError(f"hbar_prime_sq must lie in (0,3), got {hps}")
    return 3 * hps / (3 - hps)
