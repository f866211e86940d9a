"""Command-line front end: reproducible experiments with JSON/CSV artifacts.

Exit codes: 0 success, 1 verification failure (a residual above tolerance or
an unresolvable ambiguity), 2 usage error, 141 stdout closed early (a reader
such as ``head`` left the pipe).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import berezin, free_algebra, representations, spectra, surface

USAGE_ERROR = 2
VERIFY_ERROR = 1
BROKEN_PIPE = 141     # 128 + SIGPIPE, what a shell reports for such a writer


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _double(value: Fraction | int | float, flag: str) -> float:
    """``value`` as a finite double; ValueError naming ``flag`` for NaN or an
    infinity (JSON's NaN, Infinity and -Infinity, which json.load accepts, or
    a float literal beyond the double range), and naming the value's order
    of magnitude for an integer or rational beyond the double range."""
    try:
        result = float(value)
    except OverflowError:
        exponent = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        sign = "-" if value < 0 else ""
        raise ValueError(f"{flag} is about {sign}1e{exponent:.0f}, beyond the double "
                         f"range") from None
    if not math.isfinite(result):
        raise ValueError(f"{flag} must be a finite number, got {result}")
    return result


def _finite_double(text: str) -> float:
    """The parser of every option that takes a double: NaN, an infinity or a
    value beyond the double range is a usage error naming the option."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite double: {text!r}")


def _auto_or_finite_double(text: str) -> str | float:
    return text if text == "auto" else _finite_double(text)


def _values(text: str, parse) -> list:
    """The comma-separated values of ``text``, each read by ``parse``; empty
    parts are skipped, but a list with no value at all is a usage error."""
    values = [parse(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return values


def _float_list(text: str) -> list[float]:
    return _values(text, _finite_double)


def _int_list(text: str) -> list[int]:
    return _values(text, int)


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+|\.\d+)?)|(?P<var>[xyz])"
                    r"|(?P<op>[-+*^()])|(?P<end>$))")


def parse_poly3(text: str) -> surface.CommPolynomial3:
    """Tiny polynomial parser: terms like '2*x^2*y - z + 1/2'."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        if m.lastgroup != "end":
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", ""))

    poly = surface.CommPolynomial3()
    sign = 1
    coeff = Fraction(1)
    expo = [0, 0, 0]
    has_term = False

    def flush():
        nonlocal poly, sign, coeff, expo, has_term
        if has_term:
            poly = poly + surface.CommPolynomial3({tuple(expo): sign * coeff})
        sign, coeff, expo, has_term = 1, Fraction(1), [0, 0, 0], False

    i = 0
    while i < len(tokens):
        kind, value = tokens[i]
        if kind == "num":
            try:
                coeff *= Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
            has_term = True
        elif kind == "var":
            axis = "xyz".index(value)
            power = 1
            if tokens[i + 1] == ("op", "^"):
                pkind, pval = tokens[i + 2]
                if pkind != "num" or not pval.isdigit():
                    raise ValueError("exponent must be a nonnegative integer")
                power = int(pval)
                i += 2
            expo[axis] += power
            has_term = True
        elif kind == "op" and value in "+-":
            if has_term:
                flush()
            if value == "-":
                sign = -sign
        elif kind == "op" and value == "*":
            if not has_term or tokens[i + 1][0] not in ("num", "var"):
                raise ValueError("'*' must sit between factors")
        elif kind == "end":
            flush()
        else:
            raise ValueError(f"unsupported token {value!r}")
        i += 1
    return poly


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _rep_json(payload: dict, rep: representations.Representation) -> str:
    """json.dumps(payload | {"w": W as row-major [re, im] pairs}, indent=2, sort_keys=True)
    + "\n", written from the stored entries in the float repr json uses; every
    other position reuses one [0.0, 0.0] string."""
    n, pair = rep.n, "[\n        {!r},\n        {!r}\n      ]".format
    cells = [pair(0.0, 0.0)] * (n * n)
    for i, v in zip((rep.rows * n + rep.cols).tolist(), rep.vals.tolist()):
        cells[i] = pair(v.real, v.imag)
    rows = ["[\n      " + ",\n      ".join(cells[i:i + n]) + "\n    ]" for i in range(0, n * n, n)]
    # "w" sorts after every other key, so its text closes the object
    rows[0] = json.dumps(payload, indent=2, sort_keys=True)[:-2] + ',\n  "w": [\n    ' + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n    ".join(rows)


def _matrix_from_json(data) -> np.ndarray:
    """Matrix from row-major [re, im] pairs; ValueError on any other shape."""
    try:
        return np.array([[complex(re_, im_) for re_, im_ in row] for row in data])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("'w' must be a list of rows of [re, im] pairs of doubles") from exc


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_genus(args) -> int:
    spec = surface.build_genus_polynomial(args.g, args.mu, args.alpha)
    data = surface.euler_characteristic(spec)
    _print_json({
        "chi": data.chi,
        "genus": data.genus,
        "n_plus": data.n_plus,
        "n_minus": data.n_minus,
        "critical_x": list(data.critical_x_values),
    })
    return 0


def cmd_confluence(args) -> int:
    params = free_algebra.AlgebraParams(args.mu, args.hbar2)
    system = free_algebra.build_torus_system(params)
    check = free_algebra.check_overlap_resolvable(system, args.word)
    if args.json:
        _print_json({"word": args.word,
                     "resolvable": check.resolvable,
                     "witness": str(check.witness)})
    else:
        print(f"resolvable: {'true' if check.resolvable else 'false'}, "
              f"witness: {check.witness}")
    return 0 if check.resolvable else VERIFY_ERROR


def _build_rep(args) -> representations.Representation:
    mu = _double(args.mu, "--mu")
    if args.kind == "loop":
        spec = representations.LoopSpec(n=args.n, k=args.k, beta=args.beta,
                                        phases=args.phases)
        return representations.construct_loop_rep(spec, mu, _double(args.c, "--c"))
    if args.kind == "string":
        c = _double(args.c, "--c")
        theta = args.theta if args.theta is not None else \
            representations.solve_string_theta(args.n, mu, c)
        spec = representations.StringSpec(n=args.n, theta=theta, mu=mu,
                                          phases=args.phases, c=c)
        return representations.construct_string_rep(spec)
    if args.kind == "degenerate":
        return representations.construct_degenerate_rep(mu, np.eye(args.n))
    raise ValueError(f"unknown kind {args.kind!r}")


def cmd_rep_construct(args) -> int:
    rep = _build_rep(args)
    report = representations.verify_relations(rep)
    payload = {
        "kind": args.kind,
        "n": rep.n,
        "mu": rep.params.mu,
        "c": rep.params.c,
        "theta": rep.params.theta,
        "regime": rep.regime.value,
        "verification": dataclasses.asdict(report),
    }
    _emit(_rep_json(payload, rep), args.out)
    return 0 if report.ok(args.tol) else VERIFY_ERROR


def cmd_rep_verify(args) -> int:
    with open(getattr(args, "in")) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("representation file must hold a JSON object")
    missing = [key for key in ("w", "mu", "c", "theta") if key not in payload]
    if missing:
        raise ValueError(f"representation file lacks {', '.join(missing)}")
    numbers = [payload[key] for key in ("mu", "c", "theta")]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in numbers):
        raise ValueError("'mu', 'c' and 'theta' must be numbers")
    W = _matrix_from_json(payload["w"])
    params = representations.RepParams(*map(_double, numbers, ("'mu'", "'c'", "'theta'")))
    regime = representations.Regime(payload.get("regime", "toral"))
    rep = representations.Representation(W, params, regime)
    report = representations.verify_relations(rep)
    _print_json(dataclasses.asdict(report))
    return 0 if report.ok(args.tol) else VERIFY_ERROR


def cmd_rep_classify(args) -> int:
    regime = representations.classify_regime(args.mu, args.c, args.theta)
    _print_json({"mu": args.mu, "c": args.c, "theta": args.theta,
                 "regime": regime.value})
    return 0


def cmd_spectrum(args) -> int:
    if args.kind == "auto":
        rep = spectra.build_figure_rep(_double(args.mu, "--mu"), _double(args.c, "--c"),
                                       args.n, args.beta)
    else:
        rep = _build_rep(args)
    report = spectra.position_spectrum(rep, args.ratio)
    rows = spectra.spectrum_rows(report)
    _emit(spectra.sweep_rows_to_csv(rows), args.out)
    if args.svg:
        spectra.write_spectrum_svg(report, args.svg)
    return 0


def cmd_sweep(args) -> int:
    reports = spectra.sweep_reports(args.mu, _double(args.c, "--c"), args.n, args.beta,
                                    args.ratio)
    rows = spectra.sweep_rows(reports)
    _emit(spectra.sweep_rows_to_csv(rows), args.out)
    if args.svg:
        stem, dot, ext = args.svg.rpartition(".")
        for mu, report in reports:
            if isinstance(report, Exception):
                continue
            path = f"{stem}-mu{mu:g}{dot}{ext}" if dot else f"{args.svg}-mu{mu:g}"
            spectra.write_spectrum_svg(report, path)
    return VERIFY_ERROR if any(row.error is not None for row in rows) else 0


def cmd_bt(args) -> int:
    nu = 1 / math.cos(math.pi / args.n) if args.nu == "auto" else args.nu
    mu = _double(args.mu, "--mu")
    spec = berezin.BTSpec(mu, nu, args.n)
    X, Y, Z = berezin.bt_matrices(spec)
    report = berezin.verify_bt_relations(X, Y, Z, spec)
    comparison = berezin.compare_with_loop_rep(spec)
    surface_cmp = berezin.compare_with_loop_rep(spec, c_loop=nu * nu)
    payload = {
        "n": args.n,
        "mu": mu,
        "nu": nu,
        "hbar": spec.hbar,
        "residuals": list(report.residuals()),
        "loop_comparison": {
            "max_entry_diff": comparison.max_entry_diff,
            "c": comparison.c,
            "equivalent": comparison.equivalent,
        },
        "surface_comparison": {
            "max_entry_diff": surface_cmp.max_entry_diff,
            "c": surface_cmp.c,
            "equivalent": surface_cmp.equivalent,
        },
    }
    _print_json(payload)
    # A residual sums the roundoff of O(N) entries: exact matrices measure at
    # most 0.25 N ulp for N = 5..1000, and 1e-12 N (about 4500 N ulp) still
    # fails Z (1 + 1e-8) there for mu/nu <= 10.
    ok = report.ok(1e-12 * args.n) and comparison.equivalent
    return 0 if ok else VERIFY_ERROR


def cmd_converge(args) -> int:
    f = parse_poly3(args.f)
    g = parse_poly3(args.g)
    mu, c = args.mu, args.c
    mu_double, c_double = _double(mu, "--mu"), _double(c, "--c")
    reps = [representations.construct_loop_rep(
        representations.LoopSpec(n=n, k=1, beta=args.beta), mu_double, c_double)
        for n in args.n]
    errors = spectra.commutator_vs_bracket(f, g, reps, mu, c)
    _print_json({"f": args.f, "g": args.g,
                 "mu": str(mu), "c": str(c),
                 "errors": [{"n": n, "error": e} for n, e in errors]})
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsurface",
        description="Noncommutative C-algebras of Riemann surfaces: exact "
                    "rewriting, representations, spectra, Berezin-Toeplitz.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", help="genus-g constraint surface and Morse count")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu", type=_fraction, required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("confluence", help="diamond-lemma overlap check")
    p.add_argument("--mu", type=_fraction, required=True)
    p.add_argument("--hbar2", type=_fraction, required=True)
    p.add_argument("--word", default="WWVV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_confluence)

    p = sub.add_parser("rep", help="construct/verify/classify representations")
    rep_sub = p.add_subparsers(dest="rep_command", required=True)

    pc = rep_sub.add_parser("construct")
    pc.add_argument("--kind", choices=["loop", "string", "degenerate"], required=True)
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--k", type=int, default=1)
    pc.add_argument("--mu", type=_fraction, required=True)
    pc.add_argument("--c", type=_fraction, default=Fraction(1))
    pc.add_argument("--beta", type=_finite_double, default=0.0)
    pc.add_argument("--theta", type=_finite_double, default=None)
    pc.add_argument("--phases", type=_float_list, default=None)
    pc.add_argument("--out", default=None)
    pc.add_argument("--tol", type=_finite_double, default=1e-10)
    pc.set_defaults(func=cmd_rep_construct)

    pv = rep_sub.add_parser("verify")
    pv.add_argument("--in", required=True)
    pv.add_argument("--tol", type=_finite_double, default=1e-10)
    pv.set_defaults(func=cmd_rep_verify)

    pk = rep_sub.add_parser("classify")
    pk.add_argument("--mu", type=_finite_double, required=True)
    pk.add_argument("--c", type=_finite_double, required=True)
    pk.add_argument("--theta", type=_finite_double, required=True)
    pk.set_defaults(func=cmd_rep_classify)

    p = sub.add_parser("spectrum", help="spectrum of phi(X) with branch detection")
    p.add_argument("--kind", choices=["auto", "loop", "string", "degenerate"],
                   default="auto")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mu", type=_fraction, required=True)
    p.add_argument("--c", type=_fraction, default=Fraction(1))
    p.add_argument("--beta", type=_finite_double, default=0.0)
    p.add_argument("--theta", type=_finite_double, default=None)
    p.add_argument("--phases", type=_float_list, default=None)
    p.add_argument("--ratio", type=float, default=spectra.BRANCH_RATIO)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="mu sweep of eigenvalue spectra")
    p.add_argument("--mu", type=_float_list, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=_fraction, default=Fraction(1))
    p.add_argument("--beta", type=_finite_double, default=0.0)
    p.add_argument("--ratio", type=float, default=spectra.BRANCH_RATIO)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bt", help="Berezin-Toeplitz matrices and loop comparison")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=_fraction, required=True)
    p.add_argument("--nu", type=_auto_or_finite_double, default="auto",
                   help="'auto' for 1/cos(pi/N), else a number")
    p.set_defaults(func=cmd_bt)

    p = sub.add_parser("converge", help="commutator vs Poisson bracket errors")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--mu", type=_fraction, required=True)
    p.add_argument("--c", type=_fraction, default=Fraction(1))
    p.add_argument("--beta", type=_finite_double, default=0.0)
    p.set_defaults(func=cmd_converge)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; the exit code is returned, and argparse's usage
    errors and --help raise SystemExit.

    The parser is built once per process and reused: building it makes a
    HelpFormatter per option, which reads the terminal size, about 2.2 ms
    per build, while `rep classify` then takes 0.14 ms in-process (2-core
    x86-64 host).  argparse keeps no state between parse_args calls, and
    usage and help text format at the terminal width of the call that
    prints them, so the output is that of a fresh build_parser().
    """
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a reader gone before a short output shows here
        return code
    except BrokenPipeError:
        # the reader is gone: send what stdout still holds, which the
        # interpreter flushes at exit, to /dev/null instead of reporting it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
