import json
import math
from fractions import Fraction

import pytest

from ncsurface import spectra
from ncsurface.cli import main, parse_poly3
from ncsurface.surface import CommPolynomial3


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


def test_bt_report(capsys):
    code, out, _ = run(capsys, "bt", "--n", "30", "--mu", "1.3", "--nu", "auto")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == pytest.approx(1 / math.cos(math.pi / 30))
    assert max(payload["residuals"]) <= 1e-12 * 30
    assert payload["loop_comparison"]["equivalent"] is True
    assert payload["loop_comparison"]["c"] == pytest.approx(1.0)
    assert payload["surface_comparison"]["max_entry_diff"] > 1e-4


def test_converge_errors_decrease(capsys):
    code, out, _ = run(capsys, "converge", "--f", "x^2", "--g", "y^2",
                       "--n", "10,20,40", "--mu", "13/10", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    errors = [row["error"] for row in payload["errors"]]
    assert errors[0] > errors[1] > errors[2]


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["confluence", "--mu", "1", "--hbar2", "1/3", "--bogus"])
    assert excinfo.value.code == 2
