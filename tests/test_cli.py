import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ncsurface
from ncsurface import cli, representations, spectra
from ncsurface.cli import main, parse_poly3
from ncsurface.surface import CommPolynomial3, genus_window_bound


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# polynomial parser
# ---------------------------------------------------------------------------

def test_parse_poly3_monomials():
    x, y, z = CommPolynomial3.x(), CommPolynomial3.y(), CommPolynomial3.z()
    assert parse_poly3("x") == x
    assert parse_poly3("x^2") == x * x
    assert parse_poly3("2*x*y") == 2 * x * y
    assert parse_poly3("x^2+y") == x * x + y
    assert parse_poly3("x^2 - y^2 + 1/2") == x * x - y * y + CommPolynomial3.constant(Fraction(1, 2))
    assert parse_poly3("-z") == -1 * z
    assert parse_poly3("0.5*x") == CommPolynomial3({(1, 0, 0): Fraction(1, 2)})


def test_parse_poly3_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly3("x**2")
    with pytest.raises(ValueError):
        parse_poly3("w + 1")


def test_zero_denominator_is_usage_error(capsys):
    code, out, err = run(capsys, "converge", "--f", "1/0", "--g", "y", "--n", "10",
                         "--mu", "13/10")
    assert code == 2 and out == ""
    assert err == "error: zero denominator in '1/0'\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_confluence_success(capsys):
    code, out, _ = run(capsys, "confluence", "--mu", "1", "--hbar2", "1/3")
    assert code == 0
    assert out.strip() == "resolvable: true, witness: 0"


def test_confluence_json(capsys):
    code, out, _ = run(capsys, "confluence", "--mu", "2/3", "--hbar2", "1/5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["resolvable"] is True and payload["witness"] == "0"


def test_genus_json(capsys):
    code, out, _ = run(capsys, "genus", "--g", "2", "--mu", "1", "--alpha", "1/100")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == -2 and payload["genus"] == 2
    assert payload["n_plus"] == 2 and payload["n_minus"] == 4
    assert len(payload["critical_x"]) == 6


def test_genus_usage_error(capsys):
    code, _, err = run(capsys, "genus", "--g", "2", "--mu", "1", "--alpha", "10")
    assert code == 2 and "alpha" in err


# sha256 of json.dumps([exit code, stdout, stderr]) of `genus --g g --mu mu
# --alpha alpha` with alpha = frac * 2*mu/M, M = genus_window_bound(g); the
# outputs are exact-derived, so the digests hold on any platform.  frac = 1
# puts alpha on the open window's edge, a usage error that prints M.
GENUS_DIGESTS = {
    (1, "1/2", "1/10"): "3d3d9980f7288fa79f1bd39ea52dfaaa9e3d66fdb7c8e7cbbc53fbb6b5da418a",
    (1, "1/2", "1/2"): "6356423a1b7df4cab388d5a281794d5b05db863b96ee0e13274af39169dc41ab",
    (1, "1/2", "9/10"): "3bc15231d3a8424d54266cfb9bde85ebc7d5c0bf387354f65c5a7a828018863f",
    (1, "1", "1/10"): "3d3d9980f7288fa79f1bd39ea52dfaaa9e3d66fdb7c8e7cbbc53fbb6b5da418a",
    (1, "1", "1/2"): "6356423a1b7df4cab388d5a281794d5b05db863b96ee0e13274af39169dc41ab",
    (1, "1", "9/10"): "3bc15231d3a8424d54266cfb9bde85ebc7d5c0bf387354f65c5a7a828018863f",
    (1, "5/2", "1/10"): "3d3d9980f7288fa79f1bd39ea52dfaaa9e3d66fdb7c8e7cbbc53fbb6b5da418a",
    (1, "5/2", "1/2"): "6356423a1b7df4cab388d5a281794d5b05db863b96ee0e13274af39169dc41ab",
    (1, "5/2", "9/10"): "3bc15231d3a8424d54266cfb9bde85ebc7d5c0bf387354f65c5a7a828018863f",
    (1, "6", "1/10"): "3d3d9980f7288fa79f1bd39ea52dfaaa9e3d66fdb7c8e7cbbc53fbb6b5da418a",
    (1, "6", "1/2"): "6356423a1b7df4cab388d5a281794d5b05db863b96ee0e13274af39169dc41ab",
    (1, "6", "9/10"): "3bc15231d3a8424d54266cfb9bde85ebc7d5c0bf387354f65c5a7a828018863f",
    (1, "1", "1"): "e605bc4df3cb41b60b9fa0e65dc663358139c2d056fb2cb0851a7aae72dadb23",
    (2, "1/2", "1/10"): "a80f341e2de70b59fae976ef15fd841a8ba90b1ff46c2316549ada45396cbbbb",
    (2, "1/2", "1/2"): "3926f5a184fcc28f578bed43080bc329601145aba12bc6fe89d538ebad8d2827",
    (2, "1/2", "9/10"): "3661a42b11176e4cb9dde78a563c0295ce02b7cead35cdfc416b268b0498e644",
    (2, "1", "1/10"): "a80f341e2de70b59fae976ef15fd841a8ba90b1ff46c2316549ada45396cbbbb",
    (2, "1", "1/2"): "3926f5a184fcc28f578bed43080bc329601145aba12bc6fe89d538ebad8d2827",
    (2, "1", "9/10"): "3661a42b11176e4cb9dde78a563c0295ce02b7cead35cdfc416b268b0498e644",
    (2, "5/2", "1/10"): "a80f341e2de70b59fae976ef15fd841a8ba90b1ff46c2316549ada45396cbbbb",
    (2, "5/2", "1/2"): "3926f5a184fcc28f578bed43080bc329601145aba12bc6fe89d538ebad8d2827",
    (2, "5/2", "9/10"): "3661a42b11176e4cb9dde78a563c0295ce02b7cead35cdfc416b268b0498e644",
    (2, "6", "1/10"): "a80f341e2de70b59fae976ef15fd841a8ba90b1ff46c2316549ada45396cbbbb",
    (2, "6", "1/2"): "3926f5a184fcc28f578bed43080bc329601145aba12bc6fe89d538ebad8d2827",
    (2, "6", "9/10"): "3661a42b11176e4cb9dde78a563c0295ce02b7cead35cdfc416b268b0498e644",
    (2, "1", "1"): "7ad374e894bdbbc802d6efc4ff9ef156e2f584ba1583125096ccfc0187ebdbbf",
    (3, "1/2", "1/10"): "59cab59b167f0872ff49f5624757796365d7ac8b608436bb7328ce1785ed7e56",
    (3, "1/2", "1/2"): "00360404453dbed13cd1bd94d911dc5659804c51a8786eb944a4cda12d5f2cb7",
    (3, "1/2", "9/10"): "94704bce3a336c753a39d9990e092f1e1dc8c6377e6474fc6694fe42ddf81724",
    (3, "1", "1/10"): "59cab59b167f0872ff49f5624757796365d7ac8b608436bb7328ce1785ed7e56",
    (3, "1", "1/2"): "00360404453dbed13cd1bd94d911dc5659804c51a8786eb944a4cda12d5f2cb7",
    (3, "1", "9/10"): "94704bce3a336c753a39d9990e092f1e1dc8c6377e6474fc6694fe42ddf81724",
    (3, "5/2", "1/10"): "59cab59b167f0872ff49f5624757796365d7ac8b608436bb7328ce1785ed7e56",
    (3, "5/2", "1/2"): "00360404453dbed13cd1bd94d911dc5659804c51a8786eb944a4cda12d5f2cb7",
    (3, "5/2", "9/10"): "94704bce3a336c753a39d9990e092f1e1dc8c6377e6474fc6694fe42ddf81724",
    (3, "6", "1/10"): "59cab59b167f0872ff49f5624757796365d7ac8b608436bb7328ce1785ed7e56",
    (3, "6", "1/2"): "00360404453dbed13cd1bd94d911dc5659804c51a8786eb944a4cda12d5f2cb7",
    (3, "6", "9/10"): "94704bce3a336c753a39d9990e092f1e1dc8c6377e6474fc6694fe42ddf81724",
    (3, "1", "1"): "21913a4f06c51fa3ee5d44b3393fbddce49b51496dfc6f44de91669f9184add9",
    (4, "1/2", "1/10"): "9ae8497a557670f682d3960d3adcdc9ef6f0cd049bcb91df281b4596d00de3d4",
    (4, "1/2", "1/2"): "1a224ab14eb77b8b95c5cdd5f8e939d25326da191b121aba643e14a720b567cf",
    (4, "1/2", "9/10"): "3183be9bb3520928f9871680479b89232d4b88cfbb44f6c1c3d456431bc9accf",
    (4, "1", "1/10"): "9ae8497a557670f682d3960d3adcdc9ef6f0cd049bcb91df281b4596d00de3d4",
    (4, "1", "1/2"): "1a224ab14eb77b8b95c5cdd5f8e939d25326da191b121aba643e14a720b567cf",
    (4, "1", "9/10"): "3183be9bb3520928f9871680479b89232d4b88cfbb44f6c1c3d456431bc9accf",
    (4, "5/2", "1/10"): "9ae8497a557670f682d3960d3adcdc9ef6f0cd049bcb91df281b4596d00de3d4",
    (4, "5/2", "1/2"): "1a224ab14eb77b8b95c5cdd5f8e939d25326da191b121aba643e14a720b567cf",
    (4, "5/2", "9/10"): "3183be9bb3520928f9871680479b89232d4b88cfbb44f6c1c3d456431bc9accf",
    (4, "6", "1/10"): "9ae8497a557670f682d3960d3adcdc9ef6f0cd049bcb91df281b4596d00de3d4",
    (4, "6", "1/2"): "1a224ab14eb77b8b95c5cdd5f8e939d25326da191b121aba643e14a720b567cf",
    (4, "6", "9/10"): "3183be9bb3520928f9871680479b89232d4b88cfbb44f6c1c3d456431bc9accf",
    (4, "1", "1"): "f671edf8a9803cee905ae09dd141aab6cd60b692f6e9a8d6cdb9e2182bd74798",
    (5, "1/2", "1/10"): "4bf23dc6a2f8beecda70440d7d95e97a913c6af9f253760a2583ac3f26a9a48f",
    (5, "1/2", "1/2"): "265897502479e6ac1be35544c91dde9ee078b9d29cfbb47224ba5f03f1fde844",
    (5, "1/2", "9/10"): "61e058ba3eeafabd0103bdfd60ea23d4a5a2d8764e82c5fa97dc4375a90050ff",
    (5, "1", "1/10"): "4bf23dc6a2f8beecda70440d7d95e97a913c6af9f253760a2583ac3f26a9a48f",
    (5, "1", "1/2"): "265897502479e6ac1be35544c91dde9ee078b9d29cfbb47224ba5f03f1fde844",
    (5, "1", "9/10"): "61e058ba3eeafabd0103bdfd60ea23d4a5a2d8764e82c5fa97dc4375a90050ff",
    (5, "5/2", "1/10"): "4bf23dc6a2f8beecda70440d7d95e97a913c6af9f253760a2583ac3f26a9a48f",
    (5, "5/2", "1/2"): "265897502479e6ac1be35544c91dde9ee078b9d29cfbb47224ba5f03f1fde844",
    (5, "5/2", "9/10"): "61e058ba3eeafabd0103bdfd60ea23d4a5a2d8764e82c5fa97dc4375a90050ff",
    (5, "6", "1/10"): "4bf23dc6a2f8beecda70440d7d95e97a913c6af9f253760a2583ac3f26a9a48f",
    (5, "6", "1/2"): "265897502479e6ac1be35544c91dde9ee078b9d29cfbb47224ba5f03f1fde844",
    (5, "6", "9/10"): "61e058ba3eeafabd0103bdfd60ea23d4a5a2d8764e82c5fa97dc4375a90050ff",
    (5, "1", "1"): "5f6d85cb446580cc7ba25cb7fdea42fc2d3caa394520a42c59b4edc21da90b3a",
    (6, "1/2", "1/10"): "766d1ed5e6ae6b9d2cc65d2b7b49a3f6e4b34b8f2c55d29ca6e6c08e8424d38f",
    (6, "1/2", "1/2"): "67e6f8a36e4778986e48912fffecc60c61db5cc8e50d315343c982cfc72a352d",
    (6, "1/2", "9/10"): "0406820da6be31703e94b8fd324bddf142287bed39ad9c9d7a4922cf4b56ce74",
    (6, "1", "1/10"): "766d1ed5e6ae6b9d2cc65d2b7b49a3f6e4b34b8f2c55d29ca6e6c08e8424d38f",
    (6, "1", "1/2"): "67e6f8a36e4778986e48912fffecc60c61db5cc8e50d315343c982cfc72a352d",
    (6, "1", "9/10"): "0406820da6be31703e94b8fd324bddf142287bed39ad9c9d7a4922cf4b56ce74",
    (6, "5/2", "1/10"): "766d1ed5e6ae6b9d2cc65d2b7b49a3f6e4b34b8f2c55d29ca6e6c08e8424d38f",
    (6, "5/2", "1/2"): "67e6f8a36e4778986e48912fffecc60c61db5cc8e50d315343c982cfc72a352d",
    (6, "5/2", "9/10"): "0406820da6be31703e94b8fd324bddf142287bed39ad9c9d7a4922cf4b56ce74",
    (6, "6", "1/10"): "766d1ed5e6ae6b9d2cc65d2b7b49a3f6e4b34b8f2c55d29ca6e6c08e8424d38f",
    (6, "6", "1/2"): "67e6f8a36e4778986e48912fffecc60c61db5cc8e50d315343c982cfc72a352d",
    (6, "6", "9/10"): "0406820da6be31703e94b8fd324bddf142287bed39ad9c9d7a4922cf4b56ce74",
    (6, "1", "1"): "bc63df3023f8627e5f77e348366458cffa5c260f2b967c85a747375142d3324e",
}


@pytest.mark.parametrize("g,mu,frac", sorted(GENUS_DIGESTS))
def test_genus_output_digests(capsys, g, mu, frac):
    alpha = Fraction(frac) * 2 * Fraction(mu) / genus_window_bound(g)
    blob = json.dumps(run(capsys, "genus", "--g", str(g), "--mu", mu, "--alpha", str(alpha)))
    assert hashlib.sha256(blob.encode()).hexdigest() == GENUS_DIGESTS[g, mu, frac]


def test_rep_construct_loop_and_verify(tmp_path, capsys):
    out_file = tmp_path / "loop.json"
    code, _, _ = run(capsys, "rep", "construct", "--kind", "loop", "--n", "30",
                     "--k", "1", "--mu", "1.3", "--c", "1", "--beta", "0",
                     "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["n"] == 30 and payload["regime"] == "toral"
    assert len(payload["w"]) == 30 and len(payload["w"][0][0]) == 2
    assert payload["verification"]["residual_wwd"] <= 1e-10

    code, out, _ = run(capsys, "rep", "verify", "--in", str(out_file))
    assert code == 0
    assert json.loads(out)["residual_casimir"] <= 1e-10


def test_rep_verify_detects_tampering(tmp_path, capsys):
    out_file = tmp_path / "loop.json"
    run(capsys, "rep", "construct", "--kind", "loop", "--n", "10", "--mu", "1.3",
        "--c", "1", "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    payload["w"][0][1][0] += 1e-3
    out_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "rep", "verify", "--in", str(out_file))
    assert code == 1


# The dense writer rep construct used before its file was written from the
# stored entries: the reference for that file's bytes.

def _matrix_to_json(W):
    return [[[float(v.real), float(v.imag)] for v in row] for row in W]


def rep_payload(kind, rep):
    return {"kind": kind, "n": rep.n, "mu": rep.params.mu, "c": rep.params.c,
            "theta": rep.params.theta, "regime": rep.regime.value,
            "verification": dataclasses.asdict(representations.verify_relations(rep))}


def reference_rep_json(payload, rep):
    return json.dumps(dict(payload, w=_matrix_to_json(rep.W)), indent=2, sort_keys=True) + "\n"


def relabelled(rep, seed):
    perm = np.random.default_rng(seed).permutation(rep.n)
    return representations.Representation.from_entries(
        rep.n, perm[rep.rows], perm[rep.cols], rep.vals, rep.params, rep.regime)


def loop(n, k, phased):
    phases = np.random.default_rng(n).uniform(0, 2 * math.pi, n).tolist() if phased else None
    spec = representations.LoopSpec(n=n, k=k, beta=0.4, phases=phases)
    return representations.construct_loop_rep(spec, 1.3, 1.0)


def string(n, mu):
    theta = representations.solve_string_theta(n, mu, 1.0)
    phases = np.random.default_rng(n).uniform(0, 2 * math.pi, n - 1).tolist()
    return representations.construct_string_rep(
        representations.StringSpec(n=n, theta=theta, mu=mu, phases=phases))


def degenerate(n):
    U = np.diag(np.exp(1j * np.arange(n)))[np.random.default_rng(n).permutation(n)]
    return representations.construct_degenerate_rep(1.3, U)


def signed_zeros(n):
    """Stored entries with a -0.0 real or imaginary part."""
    params = representations.RepParams(1.3, 1.0, 0.1)
    vals = [complex(-0.0, 1.5), complex(2.0, -0.0), complex(-0.0, -2.5e-300)][:n]
    return representations.Representation.from_entries(
        n, range(n), [(i + 1) % n for i in range(n)], vals, params, representations.Regime.TORAL)


WRITER_CASES = {
    **{f"loop-n{n}-k{k}-{'phased' if phased else 'plain'}": ("loop", loop(n, k, phased))
       for n, k in ((30, 1), (97, 1), (97, 3)) for phased in (False, True)},
    **{f"loop-n{n}-k{k}-relabelled": ("loop", relabelled(loop(n, k, True), n))
       for n, k in ((30, 1), (97, 3))},
    **{f"string-n{n}-mu{mu}": ("string", string(n, mu))
       for n, mu in ((2, -0.9), (3, 0.9), (30, 0.9), (97, -0.9))},
    "string-n30-relabelled": ("string", relabelled(string(30, 0.9), 1)),
    **{f"degenerate-n{n}": ("degenerate", degenerate(n)) for n in (1, 2, 3, 30, 97)},
    **{f"signed-zeros-n{n}": ("loop", signed_zeros(n)) for n in (1, 2, 3)},
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_rep_file_writer_matches_json_dumps(case):
    kind, rep = WRITER_CASES[case]
    payload = rep_payload(kind, rep)
    assert cli._rep_json(payload, rep) == reference_rep_json(payload, rep)


def test_rep_construct_file_matches_json_dumps(tmp_path, capsys):
    path = tmp_path / "loop.json"
    phases = np.random.default_rng(5).uniform(0, 2 * math.pi, 97).tolist()
    code, out, err = run(capsys, "rep", "construct", "--kind", "loop", "--n", "97", "--k", "3",
                         "--mu", "1.3", "--c", "1", "--beta", "0.4",
                         "--phases", ",".join(map(repr, phases)), "--out", str(path))
    assert (code, out, err) == (0, "", "")
    spec = representations.LoopSpec(n=97, k=3, beta=0.4, phases=phases)
    rep = representations.construct_loop_rep(spec, 1.3, 1.0)
    assert path.read_text() == reference_rep_json(rep_payload("loop", rep), rep)


@pytest.mark.parametrize("key", ["w", "mu", "c"])
def test_rep_verify_integer_beyond_the_double_range_is_usage_error(tmp_path, capsys, key):
    payload = {"w": [[[1.0, 0.0]]], "mu": 1.3, "c": 1.0, "theta": 0.1}
    huge = 10 ** 400
    if key == "w":
        payload["w"] = [[[huge, 0]]]
    else:
        payload[key] = huge
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "rep", "verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and f"'{key}'" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["mu", "c", "theta"])
def test_rep_verify_non_finite_parameter_is_usage_error(tmp_path, capsys, key, literal):
    """json.load reads NaN, Infinity and -Infinity as floats; as mu, c or
    theta each is a usage error naming the key, not NaN residuals."""
    path = tmp_path / "loop.json"
    run(capsys, "rep", "construct", "--kind", "loop", "--n", "10", "--mu", "1.3",
        "--c", "1", "--out", str(path))
    text = path.read_text()
    value = json.dumps(json.loads(text)[key])
    assert text.count(f'"{key}": {value}') == 1
    path.write_text(text.replace(f'"{key}": {value}', f'"{key}": {literal}'))
    code, out, err = run(capsys, "rep", "verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and f"'{key}'" in err


@pytest.mark.parametrize("payload", [
    {"w": [[1, 2]], "mu": 1.3, "c": 1.0, "theta": 0.1},
    {"w": 5, "mu": 1.3, "c": 1.0, "theta": 0.1},
    {"mu": 1.3, "c": 1.0, "theta": 0.1},
    [[[1.0, 0.0]]],
    {"w": [[[1.0, 0.0]]], "mu": "x", "c": 1.0, "theta": 0.1},
])
def test_rep_verify_malformed_payload_is_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "rep", "verify", "--in", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rep_verify_non_finite_w_is_usage_error(tmp_path, capsys, bad):
    path = tmp_path / "loop.json"
    run(capsys, "rep", "construct", "--kind", "loop", "--n", "10", "--mu", "1.3",
        "--c", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["w"][2][3][0] = bad
    path.write_text(json.dumps(payload))        # writes NaN / Infinity, which json reads
    code, out, err = run(capsys, "rep", "verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("pair", [[True, False], [0.5, True], [False, 0.0]])
def test_rep_verify_boolean_in_w_is_usage_error(tmp_path, capsys, pair):
    """A JSON true or false in "w" is no double, as in mu, c and theta."""
    path = tmp_path / "loop.json"
    run(capsys, "rep", "construct", "--kind", "loop", "--n", "5", "--mu", "1.3",
        "--c", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["w"][1][2] = pair
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "rep", "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 'w' must be a list of rows of [re, im] pairs of doubles\n"


@pytest.mark.parametrize("mu,c", [("1.3e150", "1e300"), ("1.3e-150", "1e-300")])
def test_rep_construct_verifies_at_extreme_scales(capsys, mu, c):
    code, out, err = run(capsys, "rep", "construct", "--kind", "loop", "--n", "30",
                         "--mu", mu, "--c", c)
    verification = json.loads(out)["verification"]
    assert code == 0 and err == ""
    assert verification["c_estimate"] == pytest.approx(float(c), rel=1e-12)


@pytest.mark.parametrize("argv, flag", [
    ("rep construct --kind loop --n 10 --mu 1e400 --c 1", "--mu"),
    ("spectrum --kind loop --n 10 --mu 13/10 --c 1e400", "--c"),
    ("sweep --mu 1.3 --n 10 --c 1e400", "--c"),
    ("bt --n 10 --mu=-1e400", "--mu"),
    ("converge --f x --g y --n 10 --mu 1e400 --c 1", "--mu"),
])
def test_rational_beyond_the_double_range_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} is about ") and "1e400" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "abc"])
@pytest.mark.parametrize("command, flag", [
    ("rep construct --kind loop --n 10 --mu 1.3", "--beta"),
    ("rep construct --kind string --n 10 --mu 0.9", "--theta"),
    ("rep construct --kind loop --n 10 --mu 1.3", "--tol"),
    ("rep construct --kind loop --n 10 --mu 1.3", "--phases"),
    ("rep verify --in rep.json", "--tol"),
    ("rep classify --c 1 --theta 0.1", "--mu"),
    ("rep classify --mu 1.3 --theta 0.1", "--c"),
    ("rep classify --mu 1.3 --c 1", "--theta"),
    ("spectrum --kind loop --n 10 --mu 1.3", "--beta"),
    ("spectrum --kind string --n 10 --mu 0.9", "--theta"),
    ("spectrum --kind loop --n 10 --mu 1.3", "--phases"),
    ("sweep --n 10", "--mu"),
    ("sweep --mu 1.3 --n 10", "--beta"),
    ("converge --f x --g y --n 10 --mu 1.3", "--beta"),
    ("bt --n 10 --mu 1.3", "--nu"),
])
def test_non_finite_double_is_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main([*command.split(), f"{flag}={value}"])
    out, err = capsys.readouterr()
    assert excinfo.value.code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"error: argument {flag}: not a finite double: '{value}'" in errors[0]
    assert "Warning" not in err


@pytest.mark.parametrize("command, flag", [
    ("sweep --n 30", "--mu"),
    ("converge --f x --g y --mu 13/10", "--n"),
    ("spectrum --kind loop --n 10 --mu 1.3", "--phases"),
])
@pytest.mark.parametrize("value", [",", "", ",,"])
def test_empty_list_option_is_usage_error(capsys, command, flag, value):
    """A list option with no value is a usage error: `sweep --mu ,` printed
    only the CSV header and `converge --n ,` no error, both with exit 0."""
    with pytest.raises(SystemExit) as excinfo:
        main([*command.split(), flag, value])
    out, err = capsys.readouterr()
    assert excinfo.value.code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"error: argument {flag}: no values in {value!r}" in errors[0]


def test_genus_keeps_a_rational_beyond_the_double_range(capsys):
    code, out, _ = run(capsys, "genus", "--g", "1", "--mu", "1e400", "--alpha", "1/100")
    assert code == 0 and json.loads(out)["genus"] == 1


def test_rep_construct_small_loop_is_usage_error(capsys):
    code, _, err = run(capsys, "rep", "construct", "--kind", "loop", "--n", "4",
                       "--k", "1", "--mu", "1.3", "--c", "1")
    assert code == 2
    assert "n" in err


def test_rep_construct_string_solves_theta(capsys):
    code, out, _ = run(capsys, "rep", "construct", "--kind", "string", "--n", "30",
                       "--mu", "0.9", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "spherical"
    assert math.pi / 60 < payload["theta"] < math.pi / 31


def test_rep_classify(capsys):
    code, out, _ = run(capsys, "rep", "classify", "--mu", "1.3", "--c", "1",
                       "--theta", str(math.pi / 30))
    assert code == 0
    assert json.loads(out)["regime"] == "toral"


def test_spectrum_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "eig.csv"
    svg_path = tmp_path / "eig.svg"
    code, _, _ = run(capsys, "spectrum", "--kind", "loop", "--n", "30", "--mu", "1.3",
                     "--c", "1", "--beta", "0", "--out", str(csv_path),
                     "--svg", str(svg_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "mu,i,lambda,gap,interval,branches"
    assert len(lines) == 31
    assert svg_path.read_text().startswith("<svg")


def test_sweep_deterministic(tmp_path, capsys, monkeypatch):
    build = spectra.build_figure_rep
    built = []
    monkeypatch.setattr(spectra, "build_figure_rep",
                        lambda mu, *rest: built.append(mu) or build(mu, *rest))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "sweep", "--mu", "0.9,1.1,1.3", "--n", "30",
                         "--c", "1", "--out", str(path),
                         "--svg", str(path.with_suffix(".svg")))
        assert code == 0
    assert built == [0.9, 1.1, 1.3] * 2        # one representation per mu and run
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 91
    # each SVG matches one drawn from its own fresh build and spectrum
    for mu in (0.9, 1.1, 1.3):
        ref = tmp_path / f"ref-mu{mu:g}.svg"
        spectra.write_spectrum_svg(spectra.position_spectrum(build(mu, 1.0, 30)), str(ref))
        for stem in ("a", "b"):
            assert (tmp_path / f"{stem}-mu{mu:g}.svg").read_bytes() == ref.read_bytes()


SPECTRUM = ["spectrum", "--kind", "loop", "--n", "30", "--mu", "1.3", "--beta", "0"]
ARTIFACT_WRITERS = {
    "rep-construct": ["rep", "construct", "--kind", "loop", "--n", "30", "--mu", "1.3",
                      "--out", "loop.json"],
    "spectrum": SPECTRUM + ["--out", "eig.csv", "--svg", "eig.svg"],
    "sweep": ["sweep", "--mu", "0.9,1.1,1.3", "--n", "30", "--out", "sweep.csv",
              "--svg", "sweep.svg"],
}


@pytest.mark.parametrize("old", ["longer", "shorter"])
@pytest.mark.parametrize("argv", ARTIFACT_WRITERS.values(), ids=ARTIFACT_WRITERS)
def test_artifacts_are_rewritten_in_place(tmp_path, monkeypatch, argv, old):
    """A file the command already wrote, holding longer or shorter content,
    is rewritten to the bytes of a run into an empty directory, and keeps its
    inode and mode; the longer content fails a write that is not cut."""
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    monkeypatch.chdir(fresh)
    assert main(argv) == 0
    artifacts = {path.name: path.read_bytes() for path in fresh.iterdir()}
    assert len(artifacts) == {"rep": 1, "spectrum": 2, "sweep": 4}[argv[0]]
    before = {}
    for name, data in artifacts.items():
        path = reused / name
        path.write_bytes(b"#" * (2 * len(data) if old == "longer" else len(data) // 2))
        path.chmod(0o640)
        before[name] = path.stat()
    monkeypatch.chdir(reused)
    assert main(argv) == 0
    assert sorted(path.name for path in reused.iterdir()) == sorted(artifacts)
    for name, data in artifacts.items():
        after = (reused / name).stat()
        assert (reused / name).read_bytes() == data
        assert (after.st_ino, after.st_mode) == (before[name].st_ino, before[name].st_mode)


def test_an_artifact_is_written_through_links(tmp_path, capsys):
    target, hard, soft = tmp_path / "target.csv", tmp_path / "hard.csv", tmp_path / "soft.csv"
    target.write_text("#" * 10000)
    os.link(target, hard)
    soft.symlink_to(target)
    assert main(SPECTRUM) == 0
    printed = capsys.readouterr().out
    assert main(SPECTRUM + ["--out", str(soft)]) == 0
    assert soft.is_symlink() and target.read_text() == hard.read_text() == printed


def test_spectrum_out_dev_stdout_prints_what_no_out_prints(capfd):
    """/dev/stdout gets the bytes stdout gets, as the capture's file and as a
    pipe, which is written with no cut."""
    assert main(SPECTRUM) == 0
    printed = capfd.readouterr().out
    assert main(SPECTRUM + ["--out", "/dev/stdout"]) == 0
    assert capfd.readouterr().out == printed
    piped = _run_python("-m", "ncsurface.cli", *SPECTRUM, "--out", "/dev/stdout", hash_seed=0)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, printed, "")


@pytest.mark.parametrize("out", [".", "missing/eig.csv"])
def test_an_artifact_path_that_cannot_be_written_is_usage_error(tmp_path, monkeypatch, capsys,
                                                                out):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *SPECTRUM, "--out", out)
    assert (code, stdout) == (cli.USAGE_ERROR, "")
    assert err.startswith("error: [Errno") and out in err and err.count("\n") == 1


def test_the_branch_ratio_is_no_option(capsys):
    """Branches are counted by one statistic and a fixed threshold, so
    --ratio is an unrecognized argument: exit 2, one error line."""
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--kind", "loop", "--n", "30", "--mu", "1.3", "--c", "1",
              "--ratio", "2"])
    out, err = capsys.readouterr()
    assert excinfo.value.code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "unrecognized arguments: --ratio 2" in errors[0]


def test_the_critical_toral_band_runs_by_parity(capsys):
    """spectrum and sweep in 1 < mu/sqrt(c) <= 1/cos(pi/N) at even N build
    the loop of beta = pi/N when no --beta is given; --beta 0 still meets
    the weight e~_15 <= 0 (exit 2, or an error row and exit 1 for a sweep),
    and the loop and sweep of --beta pi/N print the same rows."""
    code, out, err = run(capsys, "spectrum", "--n", "30", "--mu", "1.001", "--c", "1")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 31
    beta = repr(math.pi / 30)
    assert run(capsys, "spectrum", "--kind", "loop", "--n", "30", "--mu", "1.001",
               "--beta", beta) == (0, out, "")
    code, _, err = run(capsys, "spectrum", "--n", "30", "--mu", "1.001", "--beta", "0")
    assert code == 2 and "weight e~_15 = -0.00450828 is not positive" in err
    code, swept, _ = run(capsys, "sweep", "--mu", "1.001,1.3", "--n", "30")
    assert code == 0 and swept.splitlines()[1:31] == out.splitlines()[1:]
    assert run(capsys, "sweep", "--mu", "1.001", "--n", "30", "--beta", beta) == (0, out, "")
    code, swept, _ = run(capsys, "sweep", "--mu", "1.001", "--n", "30", "--beta", "0")
    assert code == 1 and "error: weight e~_15" in swept


def test_spectrum_svg_of_a_1x1_rep(tmp_path, capsys):
    csv_path, svg_path = tmp_path / "one.csv", tmp_path / "one.svg"
    code, out, err = run(capsys, "spectrum", "--kind", "degenerate", "--n", "1", "--mu", "1",
                         "--c", "0", "--out", str(csv_path), "--svg", str(svg_path))
    assert (code, out, err) == (0, "", "")
    assert csv_path.read_text() == "mu,i,lambda,gap,interval,branches\n1,1,1,,,\n"
    assert svg_path.read_text().count("<circle") == 1


# The README's spectrum and sweep CSVs without their lambda and gap columns
# (whose last digits depend on the eigensolver and the BLAS build): per mu,
# the interval id of rows i = 1..30 and the branch count of each interval.
README_SPECTRUM_LAYOUT = {
    "spectrum --kind loop --n 30 --mu 1.3 --c 1 --beta 0": [
        ("1.3", "000000000111111111111222222222", (1, 2, 1))],
    "sweep --mu 0.9,1.1,1.3 --n 30 --c 1": [
        ("0.90000000000000002", "0" * 30, (1,)),
        ("1.1000000000000001", "000000000001111111122222222222", (1, 2, 1)),
        ("1.3", "000000000111111111111222222222", (1, 2, 1))],
}


@pytest.mark.parametrize("command", sorted(README_SPECTRUM_LAYOUT))
def test_readme_spectrum_csvs_without_lambda_and_gap(tmp_path, capsys, command):
    path = tmp_path / "out.csv"
    code, _, _ = run(capsys, *command.split(), "--out", str(path))
    assert code == 0
    kept = [",".join(c[:2] + c[4:]) for c in (line.split(",") for line in
                                              path.read_text().splitlines())]
    expected = ["mu,i,interval,branches"] + [
        f"{mu},{i},{interval},{counts[int(interval)]}"
        for mu, intervals, counts in README_SPECTRUM_LAYOUT[command]
        for i, interval in enumerate(intervals, start=1)]
    assert kept == expected


def test_sweep_svgs_of_distinct_mu_on_one_path_is_usage_error(tmp_path, capsys, monkeypatch):
    """Two distinct mu that format alike under {mu:g} would write one SVG:
    exit 2 with one error line naming both, before any file is written.
    The same mu twice writes its one SVG, with a lone run's bytes."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "sweep", "--mu", "1.1000001,1.1000002", "--n", "30",
                         "--c", "1", "--out", "s.csv", "--svg", "x.svg")
    assert (code, out) == (2, "")
    assert err == "error: --svg: mu = 1.1000001 and 1.1000002 both write x-mu1.1.svg\n"
    assert list(tmp_path.iterdir()) == []
    svgs = {}
    for mu in ("1.3", "1.3,1.3"):
        code, _, _ = run(capsys, "sweep", "--mu", mu, "--n", "30", "--c", "1",
                         "--out", "s.csv", "--svg", "x.svg")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "x-mu1.3.svg"]
        svgs[mu] = (tmp_path / "x-mu1.3.svg").read_bytes()
    assert svgs["1.3"] == svgs["1.3,1.3"]


@pytest.mark.parametrize("svg, written", [
    ("./figs/sweep", ["figs/sweep-mu0.9", "figs/sweep-mu1.3"]),    # a dot in a directory
    ("v1.0/sweep", ["v1.0/sweep-mu0.9", "v1.0/sweep-mu1.3"]),
    ("v1.0/sweep.svg", ["v1.0/sweep-mu0.9.svg", "v1.0/sweep-mu1.3.svg"]),
    ("sweep.svg", ["sweep-mu0.9.svg", "sweep-mu1.3.svg"]),
    ("sweep", ["sweep-mu0.9", "sweep-mu1.3"])])
def test_sweep_svg_names_take_the_suffix_of_the_last_component(tmp_path, capsys, monkeypatch,
                                                               svg, written):
    """-mu<mu> goes before the suffix of the path's last component, and a dot
    in a directory name is no suffix."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "figs").mkdir()
    (tmp_path / "v1.0").mkdir()
    code, out, err = run(capsys, "sweep", "--mu", "0.9,1.3", "--n", "30", "--c", "1",
                         "--out", "s.csv", "--svg", svg)
    assert (code, out, err) == (0, "", "")
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert files == sorted(["s.csv", *written])


# sha256 of the CSV that `sweep --mu -2 --n 30 --c 1 --out FILE` writes: the
# header and one error row, no floating-point digits, so it holds on any platform
FAILED_SWEEP_DIGEST = "1af12c13deb1227346cea479491247849f28bfe0ebb7c83b7dc137230e8b9394"


def test_sweep_with_a_failing_mu(tmp_path, capsys):
    alone, mixed = tmp_path / "alone.csv", tmp_path / "mixed.csv"
    code, _, _ = run(capsys, "sweep", "--mu", "-2", "--n", "30", "--c", "1", "--out", str(alone))
    assert code == 1
    assert hashlib.sha256(alone.read_bytes()).hexdigest() == FAILED_SWEEP_DIGEST
    code, _, _ = run(capsys, "sweep", "--mu", "1.3,-2,0.9", "--n", "30", "--c", "1",
                     "--out", str(mixed))
    assert code == 1
    lines = mixed.read_text().splitlines()
    assert len(lines) == 62 and lines[31] == alone.read_text().splitlines()[1]


@pytest.mark.parametrize("flag, value, message", [
    ("--c", "0", "c must be positive"), ("--c", "-1", "c must be positive"),
    ("--n", "0", "N must be >= 2, got 0"), ("--n", "1", "N must be >= 2, got 1")])
def test_sweep_rejects_input_no_mu_can_take(tmp_path, capsys, flag, value, message):
    """c <= 0 or N < 2 fails every mu: exit 2 with one error line, before
    any mu is tried, and no file written (spectrum --c 0 exits 2 too)."""
    argv = {"--mu": "0.9,1.3", "--n": "30", "--c": "1", flag: value}
    code, out, err = run(capsys, "sweep", *(word for pair in argv.items() for word in pair),
                         "--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "s.svg"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_bt_report(capsys):
    code, out, _ = run(capsys, "bt", "--n", "30", "--mu", "1.3", "--nu", "auto")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == pytest.approx(1 / math.cos(math.pi / 30))
    assert max(payload["residuals"]) <= 1e-12 * 30
    assert payload["loop_comparison"]["equivalent"] is True
    assert payload["loop_comparison"]["c"] == pytest.approx(1.0)
    assert payload["surface_comparison"]["max_entry_diff"] > 1e-4


@pytest.mark.parametrize("exponent", ["-12", "4", "12", "100"])
def test_bt_exact_at_any_scale(capsys, exponent):
    nu = float(f"1e{exponent}") / math.cos(math.pi / 30)
    code, out, err = run(capsys, "bt", "--n", "30", "--mu", f"1.3e{exponent}", "--nu", repr(nu))
    assert code == 0 and err == ""
    assert json.loads(out)["loop_comparison"]["equivalent"] is True


@pytest.mark.parametrize("n", ["0", "2"])
def test_bt_too_small_n_is_usage_error(capsys, n):
    """N = 0 with the default nu = 1/cos(pi/N) is refused as N < 5 before
    nu is formed, not by a ZeroDivisionError."""
    code, out, err = run(capsys, "bt", "--n", n, "--mu", "1.3")
    assert code == 2 and out == ""
    assert err == f"error: need N >= 5, got {n}\n"


def test_bt_casimir_underflow_is_usage_error(capsys):
    code, out, err = run(capsys, "bt", "--n", "30", "--mu", "1.3e-300", "--nu", "1e-300")
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert err.startswith("error: nu = 1e-300 makes the Casimir scale")


def test_converge_errors_decrease(capsys):
    code, out, _ = run(capsys, "converge", "--f", "x^2", "--g", "y^2",
                       "--n", "10,20,40", "--mu", "13/10", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    errors = [row["error"] for row in payload["errors"]]
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-200, 200])
def test_converge_errors_at_extreme_scales(capsys, j):
    """(4^j mu, 16^j c) prints the errors of (mu, c), with nothing on
    stderr; a pair that is not weighted-homogeneous runs unscaled, and its
    non-finite error at 4^200 mu is a usage error."""
    ladder = ["--n", "10,20,40,80", "--beta", "0.0"]
    _, reference, _ = run(capsys, "converge", "--f", "x^2", "--g", "y^2", *ladder,
                          "--mu", "13/10", "--c", "1")
    mu, c = f"{13 * 4 ** max(j, 0)}/{10 * 4 ** max(-j, 0)}", str(Fraction(16) ** j)
    code, out, err = run(capsys, "converge", "--f", "x^2", "--g", "y^2", *ladder,
                         "--mu", mu, "--c", c)
    assert code == 0 and err == ""
    assert json.loads(out)["errors"] == json.loads(reference)["errors"]
    if j > 0:
        code, out, err = run(capsys, "converge", "--f", "x+z", "--g", "y", *ladder,
                             "--mu", mu, "--c", c)
        assert code == 2 and out == ""
        assert err.startswith("error: the commutator error at N = 10 is nan")
        assert err.count("\n") == 1


def _run_python(*argv, hash_seed, cwd=None):
    """Run a fresh interpreter with ``argv`` on this package's sources, under
    the given string-hash seed, in ``cwd``."""
    src = str(Path(ncsurface.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120, cwd=cwd)


def test_converge_is_independent_of_hash_seed():
    argv = ["-m", "ncsurface.cli", "converge", "--f", "x^2", "--g", "y^2",
            "--n", "10,20,40,80", "--mu", "13/10", "--c", "1"]
    first, second = (_run_python(*argv, hash_seed=seed) for seed in (1, 2))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_import_leaves_sympy_out():
    result = _run_python("-c", "import ncsurface, sys; assert 'sympy' not in sys.modules",
                         hash_seed=0)
    assert result.returncode == 0, result.stderr


README_COMMANDS = [shlex.split(line)[1:] for line in
                   (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
                   if line.startswith("ncsurface ")]


def test_readme_commands_load_no_scipy_module(tmp_path):
    """Neither importing ncsurface nor any of the nine README commands, the
    N = 30 spectrum and sweep included, loads any scipy module."""
    assert len(README_COMMANDS) == 9
    assert sum(argv[0] in ("spectrum", "sweep") for argv in README_COMMANDS) == 2
    code = ("import sys\n"
            "import ncsurface\n"
            "from ncsurface.cli import main\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not scipy_modules(), scipy_modules()\n"
            f"assert [main(argv) for argv in {README_COMMANDS!r}] == [0] * 9\n"
            "assert not scipy_modules(), scipy_modules()\n")
    result = _run_python("-c", code, hash_seed=0, cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def _outcomes(capsys, commands) -> list:
    """(exit code, stdout, stderr) of each command run through main, in turn;
    a usage error's SystemExit gives its code."""
    outcomes = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


def test_main_builds_one_parser_and_answers_as_fresh_parsers(tmp_path, capsys, monkeypatch):
    """Every README command, three usage errors and the commands again, in
    one process: main builds its parser once, and each output, exit code
    and file equals that of a run that builds a fresh parser per call."""
    errors = [["bt", "--n", "30", "--mu", "1.3", "--nu", "nan"],
              ["spectrum", "--mu", "1.3"],
              ["bogus"]]
    commands = README_COMMANDS + errors + README_COMMANDS
    builds, build_parser = [], cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    runs = {}
    for name in ("reused", "fresh"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        with monkeypatch.context() as patch:
            if name == "reused":
                cli._parser.cache_clear()
                patch.setattr(cli, "build_parser", counted)
            else:
                patch.setattr(cli, "_parser", cli.build_parser)
            outcomes = _outcomes(capsys, commands)
        files = {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
        runs[name] = outcomes, files
    cli._parser.cache_clear()
    assert len(builds) == 1
    assert runs["reused"] == runs["fresh"]
    outcomes, files = runs["reused"]
    assert [code for code, _, _ in outcomes] == [0] * 9 + [2] * 3 + [0] * 9
    assert sorted(files) == ["eig.csv", "eig.svg", "loop.json", "sweep.csv"]
    assert all(err.startswith("usage: ncsurface") for _, _, err in outcomes[9:12])


@pytest.mark.parametrize("argv, read_first_line", [
    # about 1 MB of JSON, more than a pipe buffer: the reader leaves after one line
    (["rep", "construct", "--kind", "loop", "--n", "200", "--k", "1", "--mu", "1.3",
      "--c", "1"], True),
    # a short output the reader never waits for
    (["rep", "classify", "--mu", "1.3", "--c", "1", "--theta", "0.104"], False),
])
def test_closed_pipe_exits_141_without_an_error_line(argv, read_first_line):
    src = str(Path(ncsurface.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src,
                                                                   os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)       # stdout block-buffered, as from a shell
    proc = subprocess.Popen([sys.executable, "-m", "ncsurface.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if read_first_line:
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["confluence", "--mu", "1", "--hbar2", "1/3", "--bogus"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["rep construct", "spectrum"])
def test_zero_dimensional_rep_is_usage_error(capsys, command):
    code, out, err = run(capsys, *command.split(), "--kind", "degenerate", "--n", "0",
                         "--mu", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
