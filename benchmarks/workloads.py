"""Workloads of the ncsurface benchmark.

A workload is a seeded sequence of passes, plus items it runs once per run.
A pass is a list of items, built for the pass's index in the run; an item is
a generator that builds the inputs of one case (untimed), yields the
operations on it one after another and receives each result; an operation is
one timed call into a layer of ncsurface plus the oracle that checks its
result.  Passes run the same operations on the same sizes, except that a pass
may leave out the costliest items, so that the cheap ones, which set the
median latency, are sampled more often in the run's time.  Each pass draws
fresh parameters (beta, phases, unitaries, rationals) from the seeded stream,
so a cache across calls sees repeats only where a user's commands repeat too:
the paper's fixed mu values and sizes.  The sizes are the same for every
seed, and so is which operations fail, so a run's operation and failure counts
depend only on its pass count.  The package is always reached through module
attributes at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ncsurface import berezin, cli, representations, spectra

import oracles

PAPER_MU = (1.1, 1.3)            # the torus values of the paper's N=30 figure
SWEEP_MU = (0.9, 1.1, 1.3)       # the figure's sweep
C = 1.0


@dataclass
class Op:
    kind: str                          # "<layer>.<operation>"
    call: Callable[[], object]
    check: Callable[[object], oracles.Failure | None]
    n: int = 0                         # dimension of the matrix worked on
    nnz: int = 0                       # its nonzeros

    @property
    def layer(self) -> str:
        return self.kind.split(".")[0]


Item = Callable[[], Iterator[Op]]


@dataclass
class Workload:
    name: str
    next_pass: Callable[[int], list[Item]]     # pass index -> items
    warmup: list[Item]                 # one call of each operation kind
    pass_seconds: float                # one pass and its share of the rest, reference host
    once: list[Item] = field(default_factory=list)    # run once per run, before the passes


# ---------------------------------------------------------------------------
# closed forms the oracles compare against
# ---------------------------------------------------------------------------

def loop_weights(n: int, k: int, beta: float, mu: float, c: float) -> np.ndarray:
    theta = math.pi * k / n
    return mu + math.sqrt(c) * np.cos(2 * np.arange(n) * theta + beta) / math.cos(theta)


def loop_matrix(weights: np.ndarray, phases=None, unitaries=None) -> np.ndarray:
    """W with blocks sqrt(e~_s) U_s at (l, s = l+1 mod n)."""
    n = len(weights)
    if unitaries is None:
        W = np.zeros((n, n), dtype=complex)
        src = (np.arange(n) + 1) % n
        W[np.arange(n), src] = np.sqrt(weights[src]) * np.exp(1j * np.asarray(phases)[src])
        return W
    m = unitaries[0].shape[0]
    W = np.zeros((n * m, n * m), dtype=complex)
    for l in range(n):
        s = (l + 1) % n
        W[l * m:(l + 1) * m, s * m:(s + 1) * m] = math.sqrt(weights[s]) * unitaries[s]
    return W


def string_matrix(n: int, theta: float, c: float, phases) -> np.ndarray:
    ls = np.arange(1, n)
    weights = 2 * math.sqrt(c) * np.sin(ls * theta) * np.sin((n - ls) * theta) / math.cos(theta)
    W = np.zeros((n, n), dtype=complex)
    W[ls - 1, ls] = np.sqrt(weights) * np.exp(1j * np.asarray(phases))
    return W


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def regime_name(mu: float, c: float, theta: float) -> str:
    ratio = mu / math.sqrt(c)
    if ratio <= 1:
        return "spherical"
    return "critical_toral" if ratio <= 1 / math.cos(theta) else "toral"


# ---------------------------------------------------------------------------
# items on representations
# ---------------------------------------------------------------------------

def loop_item(n, k, beta, mu, phases, verify=True, spectrum=False, index=True) -> Item:
    """Construct a single loop, verify it, take its spectrum, index it.

    A spectrum is taken only for k = 1 and zero total phase, where the paper's
    branch patterns hold."""
    def item():
        spec = representations.LoopSpec(n=n, k=k, beta=beta, phases=list(phases))
        weights = loop_weights(n, k, beta, mu, C)
        rep = yield Op("representations.construct",
                       lambda: representations.construct_loop_rep(spec, mu, C),
                       partial(oracles.matrix_equals, expected=loop_matrix(weights, phases)),
                       n, n)
        if verify:
            yield Op("representations.verify_relations",
                     lambda: representations.verify_relations(rep),
                     partial(oracles.verification, c=C, mu=mu), n, n)
        if spectrum:
            yield Op("spectra.position_spectrum", lambda: spectra.position_spectrum(rep),
                     partial(oracles.spectrum, n=n, pattern=oracles.expected_pattern(mu, C)),
                     n, n)
        if index:
            log_modulus, phase = oracles.log_index(weights, phases)
            yield Op("representations.rep_index", lambda: representations.rep_index(rep),
                     partial(oracles.loop_index, log_modulus=log_modulus, phase=phase), n, n)
    return item


def string_item(n, mu, phases) -> Item:
    def item():
        theta = representations.solve_string_theta(n, mu, C)
        spec = representations.StringSpec(n=n, theta=theta, mu=mu, phases=list(phases))
        rep = yield Op("representations.construct",
                       lambda: representations.construct_string_rep(spec),
                       partial(oracles.matrix_equals,
                               expected=string_matrix(n, theta, spec.c, phases)),
                       n, n - 1)
        yield Op("representations.verify_relations",
                 lambda: representations.verify_relations(rep),
                 partial(oracles.verification, c=spec.c, mu=mu), n, n - 1)
        yield Op("spectra.position_spectrum", lambda: spectra.position_spectrum(rep),
                 partial(oracles.spectrum, n=n, pattern=oracles.expected_pattern(mu, spec.c)),
                 n, n - 1)
    return item


def holonomy(unitaries) -> np.ndarray:
    """U_1 U_2 ... U_{n-1} U_0."""
    product = np.eye(unitaries[0].shape[0], dtype=complex)
    for U in list(unitaries[1:]) + [unitaries[0]]:
        product = product @ U
    return product


def block_loop_item(n, beta, mu, unitaries) -> Item:
    """A block loop of block_dim 2: construct, verify, split it into single
    loops by the holonomy, and test the first split loop against single loops
    built directly with a holonomy eigenvalue as index (one equivalent, one not)."""
    m = unitaries[0].shape[0]
    hol = holonomy(unitaries)
    angles = sorted(float(np.angle(lam)) for lam in np.linalg.eigvals(hol))

    def item():
        spec = representations.LoopSpec(n=n, k=1, beta=beta, block_dim=m,
                                        unitaries=list(unitaries))
        weights = loop_weights(n, 1, beta, mu, C)
        N = n * m
        rep = yield Op("representations.construct",
                       lambda: representations.construct_loop_rep(spec, mu, C),
                       partial(oracles.matrix_equals,
                               expected=loop_matrix(weights, unitaries=unitaries)),
                       N, N * m)
        yield Op("representations.verify_relations",
                 lambda: representations.verify_relations(rep),
                 partial(oracles.verification, c=C, mu=mu), N, N * m)
        log_modulus, _ = oracles.log_index(weights, [0.0])
        loops = yield Op("representations.canonicalize_loop",
                         lambda: representations.canonicalize_loop(rep),
                         partial(oracles.canonical_loops, log_modulus=log_modulus,
                                 holonomy=hol), N, N * m)
        refs = [representations.construct_loop_rep(
            representations.LoopSpec(n=n, k=1, beta=beta, phases=[a] + [0.0] * (n - 1)),
            mu, C) for a in angles]
        same, other = oracles.nearest_first(angles, loops[0])
        for ref, expected in ((same, True), (other, False)):
            a, b = loops[0], refs[ref]
            yield Op("representations.reps_equivalent",
                     lambda: representations.reps_equivalent(a, b),
                     partial(oracles.equivalence, expected=expected, a=a, b=b), n, n)
    return item


def sweep_item(n, beta) -> Item:
    expected = {mu: oracles.expected_pattern(mu, C) for mu in SWEEP_MU}

    def item():
        yield Op("spectra.sweep_mu", lambda: spectra.sweep_mu(list(SWEEP_MU), C, n, beta),
                 partial(oracles.sweep_patterns, expected=expected, n=n), n, n)
    return item


def bt_item(n, mu) -> Item:
    nu = 1 / math.cos(math.pi / n)
    weights = mu + nu * np.cos(2 * math.pi * np.arange(1, n + 1) / n + math.pi / n)

    def item():
        spec = berezin.BTSpec(mu, nu, n)
        xyz = yield Op("berezin.bt_matrices", lambda: berezin.bt_matrices(spec),
                       partial(oracles.bt_matrices, weights=weights), n, n)
        yield Op("berezin.verify_bt_relations", lambda: berezin.verify_bt_relations(*xyz, spec),
                 partial(oracles.bt_relations, n=n), n, 2 * n)
        yield Op("berezin.compare_with_loop_rep", lambda: berezin.compare_with_loop_rep(spec),
                 oracles.bt_equivalent, n, n)
    return item


POLY_PAIRS = ("x,z", "y,z", "x^2,y^2", "x^2,z", "x*y,z")   # {f,g} of degree <= 4


def commutator_item(ns, mu: Fraction, beta, pair: str) -> Item:
    f, g = (cli.parse_poly3(text) for text in pair.split(","))

    def item():
        reps = [representations.construct_loop_rep(
            representations.LoopSpec(n=n, k=1, beta=beta), float(mu), C) for n in ns]
        yield Op("spectra.commutator_vs_bracket",
                 lambda: spectra.commutator_vs_bracket(f, g, reps, mu, Fraction(1)),
                 partial(oracles.decreasing_errors, ns=ns), max(ns), max(ns))
    return item


# ---------------------------------------------------------------------------
# seeded parameter helpers
# ---------------------------------------------------------------------------

def coprime_k(rng, n: int) -> int:
    # 16 k <= n keeps every weight positive down to mu = 1.1: 1/cos(pi k/n) < 1.02
    choices = [k for k in (1, 3, 5, 7) if math.gcd(k, n) == 1 and 16 * k <= n]
    return int(rng.choice(choices))


def random_phases(rng, n: int, zero_total: bool) -> np.ndarray:
    phases = rng.uniform(0, 2 * math.pi, n)
    if zero_total:
        phases[-1] -= phases.sum()       # gauge-equivalent to zero phases
    return phases


def block_unitaries(rng, n: int) -> list[np.ndarray]:
    """Haar 2x2 blocks whose holonomy eigenvalues are at least 0.1 apart."""
    while True:
        blocks = [haar_unitary(rng, 2) for _ in range(n)]
        a, b = np.linalg.eigvals(holonomy(blocks))
        if abs(a - b) > 0.1:
            return blocks


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def large_n(seed: int, tmp: Path, tiny: bool = False) -> Workload:
    """Structured representations (O(N) nonzeros) at N = 256..1025."""
    rng = np.random.default_rng(seed)
    groups = (32, 64) if tiny else (256, 512)
    bt_sizes = (32, 48) if tiny else (256, 384)
    ladder = (16, 32) if tiny else (64, 128, 256)
    # one loop at each step of a fixed ladder of sizes between the groups, so
    # that operations of neighbouring cost fill the middle of the latency range
    steps = (40, 48) if tiny else tuple(range(272, 385, 16))
    big = 96 if tiny else 1024
    big_mu = ((10.0, 41), (5.0, 65), (10.0, 65)) if tiny else \
        ((10.0, 401), (5.0, 1025), (10.0, 1025))
    # At mu = 1.1 a block loop's index is about exp(-n/8): n = 128 tells the two
    # holonomy classes apart, while at n = 256 |z| is near 1e-14 and the absolute
    # tolerance of reps_equivalent calls them equivalent on every pass (ROADMAP item 4)
    block_mu = PAPER_MU[0]

    def mu():
        return float(rng.choice(PAPER_MU))

    def beta():
        return float(rng.uniform(0, 2 * math.pi))

    def build(heavy: bool = True) -> tuple[list[Item], list[Item]]:
        """One pass of fresh parameters, and its warm-up subset.  The heavy
        items (the N = 512 group and the mu = 10 loop at N = 401) cost three
        times the rest of the pass."""
        by_group = []
        for n, n_bt in zip(groups, bt_sizes):
            by_group.append([
                loop_item(n, 1, beta(), mu(), random_phases(rng, n, True), spectrum=True),
                loop_item(n, coprime_k(rng, n), beta(), mu(), random_phases(rng, n, False),
                          verify=False),
                string_item(n, float(rng.uniform(0.3, 0.95)),
                            rng.uniform(0, 2 * math.pi, n - 1)),
                block_loop_item(n // 2, beta(), block_mu, block_unitaries(rng, n // 2)),
                sweep_item(n, beta()),
                bt_item(n_bt, mu()),
            ])
        converge = commutator_item(ladder, Fraction(str(mu())), beta(),
                                   POLY_PAIRS[int(rng.integers(len(POLY_PAIRS)))])
        stepped = [loop_item(n, 1, beta(), mu(), random_phases(rng, n, True),
                             verify=False, spectrum=True) for n in steps]
        # large mu: W^n leaves the double range and rep_index raises (ROADMAP item 4)
        mu1, n1 = big_mu[0]
        tilted = loop_item(n1, 1, beta(), mu1, random_phases(rng, n1, True), spectrum=not tiny)
        items = by_group[0] + [converge] + stepped
        return items + (by_group[1] + [tilted] if heavy else []), by_group[0] + [converge]

    def once() -> list[Item]:
        """The N >= 1024 cases, each as costly as a pass of the rest.  At large
        mu the loop index leaves the double range (ROADMAP item 4)."""
        (mu2, n2), (mu3, n3) = big_mu[1:]
        return [
            loop_item(big, 1, beta(), mu(), random_phases(rng, big, True),
                      verify=False, spectrum=True, index=False),
            loop_item(n2, 1, beta(), mu2, random_phases(rng, n2, True), verify=False),
            loop_item(n3, coprime_k(rng, n3), beta(), mu3, random_phases(rng, n3, False),
                      verify=False),
        ]

    # the first draw is the warm-up; every pass after it draws afresh
    warmup = build()[1]
    return Workload("large_n", lambda i: build(heavy=i % 3 == 0)[0], warmup,
                    pass_seconds=3.75, once=once())


# ---------------------------------------------------------------------------
# the paper's CLI commands, in-process
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:        # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_item(argv: list[str], check: Callable[[str], str | None]) -> Item:
    """One CLI command; ``check`` reads its stdout and returns a failure or None."""
    kind = "cli." + ("_".join(argv[:2]) if argv[0] == "rep" else argv[0])

    def judge(outcome):
        if (f := oracles.raised(outcome)):
            return f
        code, text = outcome
        if code != 0:
            return oracles.Failure(f"exit code {code}")
        reason = check(text)
        return oracles.Failure(reason) if reason else None

    def item():
        yield Op(kind, lambda: run_cli(argv), judge)
    return item


def csv_patterns(text: str) -> dict[float, tuple]:
    rows: dict[float, list] = {}
    for line in text.splitlines()[1:]:
        mu, _, _, _, interval, branches = line.split(",")
        rows.setdefault(float(mu), []).append(
            (int(interval) if interval else None, int(branches) if branches else None))
    return {mu: oracles.pattern_from_rows(pairs) for mu, pairs in rows.items()}


def window_bound(g: int) -> int:
    """A crude bound on max |G| over [0, g^2 + 1], G(t) = prod (t - j^2); any
    alpha below 2 mu / bound lies inside the certified window."""
    return math.prod(max(j * j, g * g + 1 - j * j) for j in range(1, g + 1))


def paper_cli(seed: int, tmp: Path, tiny: bool = False) -> Workload:
    """The README reproduction commands through ncsurface.cli.main, each with
    several seeded parameter sets per pass."""
    rng = random.Random(seed)
    n = 30
    files = {name: str(tmp / name) for name in ("loop.json", "eig.csv", "eig.svg", "sweep.csv")}

    def read(name):
        return Path(files[name]).read_text()

    def genus(g):
        mu = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        alpha = 2 * mu * Fraction(rng.randint(2, 9), 10) / window_bound(g)
        return cli_item(["genus", "--g", str(g), "--mu", str(mu), "--alpha", str(alpha)],
                        lambda text: None if json.loads(text)["genus"] == g
                        else f"genus {json.loads(text)['genus']}, expected {g}")

    def confluence():
        b = rng.randint(2, 30)
        return cli_item(
            ["confluence", "--mu", str(Fraction(rng.randint(1, 30), rng.randint(1, 10))),
             "--hbar2", str(Fraction(rng.randint(1, b - 1), b))],
            lambda text: None if text == "resolvable: true, witness: 0\n" else text.strip())

    def rep():
        mu, beta = rng.choice(PAPER_MU), round(rng.uniform(0, 6.28), 3)
        regime = regime_name(mu, C, math.pi / n)

        def construct_check(text):
            payload = json.loads(read("loop.json"))
            v = payload["verification"]
            if payload["n"] != n or payload["regime"] != regime:
                return f"n={payload['n']}, regime={payload['regime']}"
            return None if max(v["residual_wwd"], v["residual_casimir"],
                               v["intertwine_residual"]) <= 1e-10 else f"residuals {v}"

        def verify_check(text):
            v = json.loads(text)
            ok = max(v["residual_wwd"], v["residual_casimir"],
                     v["intertwine_residual"]) <= 1e-10 and abs(v["c_estimate"] - C) <= 1e-9
            return None if ok else f"verification {v}"

        def item():
            yield from cli_item(["rep", "construct", "--kind", "loop", "--n", str(n), "--k", "1",
                                 "--mu", str(mu), "--c", "1", "--beta", str(beta),
                                 "--out", files["loop.json"]], construct_check)()
            yield from cli_item(["rep", "verify", "--in", files["loop.json"]], verify_check)()
        return item

    def classify():
        mu, theta = round(rng.uniform(0.2, 2.0), 3), round(rng.uniform(0.05, 0.7), 3)
        return cli_item(["rep", "classify", "--mu", str(mu), "--c", "1", "--theta", str(theta)],
                        lambda text: None if json.loads(text)["regime"] ==
                        regime_name(mu, C, theta) else text)

    def spectrum():
        mu = rng.choice(SWEEP_MU)

        def check(text):
            got = csv_patterns(read("eig.csv")).get(mu)
            if got != oracles.expected_pattern(mu, C):
                return f"branch pattern {got} at mu={mu}"
            circles = read("eig.svg").count("<circle")
            return None if circles == 2 * n - 1 else f"{circles} points in the SVG"

        return cli_item(["spectrum", "--n", str(n), "--mu", str(mu), "--c", "1",
                         "--beta", str(round(rng.uniform(0, 6.28), 3)),
                         "--out", files["eig.csv"], "--svg", files["eig.svg"]], check)

    def sweep():
        def check(text):
            got = csv_patterns(read("sweep.csv"))
            want = {mu: oracles.expected_pattern(mu, C) for mu in SWEEP_MU}
            return None if got == want else f"branch patterns {got}"

        return cli_item(["sweep", "--mu", ",".join(map(str, SWEEP_MU)), "--n", str(n),
                         "--c", "1", "--beta", str(round(rng.uniform(0, 6.28), 3)),
                         "--out", files["sweep.csv"]], check)

    def bt():
        return cli_item(["bt", "--n", str(n), "--mu", str(rng.choice((1.1, 1.3, 1.5))),
                         "--nu", "auto"],
                        lambda text: None if json.loads(text)["loop_comparison"]["equivalent"]
                        else "BT matrices not equivalent to the loop")

    def converge():
        ns = (10, 20, 40, 80)
        f, g = rng.choice(POLY_PAIRS).split(",")

        def check(text):
            errors = [(e["n"], e["error"]) for e in json.loads(text)["errors"]]
            failure = oracles.decreasing_errors(errors, ns)
            return failure.reason if failure else None

        return cli_item(["converge", "--f", f, "--g", g, "--n", ",".join(map(str, ns)),
                         "--mu", rng.choice(("11/10", "13/10")), "--c", "1"], check)

    others = (confluence, rep, classify, spectrum, sweep, bt, converge)

    def build() -> list[Item]:
        """One pass of fresh parameters."""
        items = [genus(g) for g in (1, 2, 3, 4) for _ in range(1 if tiny else 2)]
        for _ in range(1 if tiny else 4):
            items += [make() for make in others]
        return items

    # the first draw is the warm-up; every pass after it draws afresh
    first = build()
    genera = 4 * (1 if tiny else 2)
    warmup = first[:1] + first[genera:genera + len(others)]
    return Workload("paper_cli", lambda i: build(), warmup, pass_seconds=0.35)


WORKLOADS = {
    "paper_cli": paper_cli,
    "large_n": large_n,
}
