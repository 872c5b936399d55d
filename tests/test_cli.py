"""End-to-end command-line behavior: JSON reports, exit codes, files."""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

import pytest

from pgstkit import exact, spectral
from pgstkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_analyze_gd_proven_no_pgst(capsys):
    report = run_json(capsys, "analyze", "@G_D", "--u", "h1", "--v", "h4", "--potential", "Q")
    assert report["schema"] == 1
    assert report["certificate"]["verdict"] == "ProvenNoPGST"
    assert report["exact"]["decomposition"]["trace_plus"] == "Q"
    assert report["exact"]["decomposition"]["trace_minus"] == "Q"


def test_analyze_gb_proven_pgst(capsys):
    report = run_json(capsys, "analyze", "@G_B", "--u", "1", "--v", "8", "--potential", "Q")
    assert report["certificate"]["verdict"] == "ProvenPGST"
    assert report["exact"]["strongly_cospectral"] is True


def test_analyze_ga_without_potential(capsys):
    report = run_json(capsys, "analyze", "@G_A", "--u", "3", "--v", "6")
    assert report["exact"]["cospectral"] is True
    assert report["exact"]["strongly_cospectral"] is True
    assert report["certificate"]["verdict"] == "Inconclusive"


def test_analyze_reports_are_deterministic(capsys):
    args = ("analyze", "@G_C", "--u", "u", "--v", "v", "--potential", "Q")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_simulate_block(capsys):
    report = run_json(
        capsys,
        "analyze", "@G_B", "--u", "1", "--v", "8",
        "--potential", "Q", "--simulate", "--tmax", "40", "--steps", "1500",
    )
    numeric = report["numeric"]
    assert numeric["substitutions"] == {"Q": math.pi}
    assert abs(numeric["pgst_ceiling"] - 1.0) < 1e-6
    assert numeric["numeric_strongly_cospectral"] is True
    assert numeric["best_fidelity"] <= 1.0 + 1e-9


def test_analyze_rational_potential(capsys):
    report = run_json(
        capsys, "analyze", "@G_B", "--u", "1", "--v", "8", "--potential", "3/2"
    )
    # a plain rational potential leaves no symbol for the tr/deg route
    assert report["certificate"]["verdict"] in ("Inconclusive", "ProvenNoPGST")
    assert report["exact"]["cospectral"] is True


def test_analyze_exit_codes(capsys):
    code, _, err = run(capsys, "analyze", "@G_B", "--u", "99", "--v", "8")
    assert code == 2 and "99" in err
    code, _, err = run(capsys, "analyze", "@G_B", "--u", "1", "--v", "1")
    assert code == 2
    code, _, err = run(capsys, "analyze", "@missing", "--u", "0", "--v", "1")
    assert code in (1, 2) and "unknown fixture" in err


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 2\ne 0 5\n")
    code, _, err = run(capsys, "analyze", str(bad), "--u", "0", "--v", "1")
    assert code == 1
    assert "out of range" in err


def test_analyze_label_addressing(capsys):
    report = run_json(capsys, "analyze", "@G_D", "--u", "h1", "--v", "h4")
    assert report["input"]["u"]["label"] == "h1"
    assert report["input"]["u"]["index"] == 1


def test_construct_change_trace(capsys, tmp_path):
    out_file = tmp_path / "built.txt"
    report = run_json(
        capsys,
        "construct", "change-trace", "@G_A", "--u", "3", "--v", "6",
        "--k", "5", "--sym", "Qp", "--potential", "Q", "--out", str(out_file),
    )
    assert report["certificate"]["verdict"] == "ProvenPGST"
    assert report["result"]["n"] == 12
    assert out_file.read_text() == report["result"]["graph"]


def test_construct_glue_pot(capsys):
    report = run_json(
        capsys,
        "construct", "glue-pot", "@G_B", "--u", "1", "--v", "8",
        "--k", "5", "--potential", "Q",
    )
    assert report["certificate"]["verdict"] == "ProvenPGST"
    assert report["result"]["n"] == 9 + 5 - 2


def test_construct_glue_path_auto_obstructed(capsys):
    code, _, err = run(
        capsys, "construct", "glue-path", "@G_B", "--u", "1", "--v", "8", "--q", "auto"
    )
    assert code == 2
    assert "build_glue_pot" in err or "glue-pot" in err


def test_construct_glue_path_explicit_q(capsys):
    report = run_json(
        capsys,
        "construct", "glue-path", "@G_A", "--u", "3", "--v", "6",
        "--q", "4", "--potential", "Q",
    )
    assert report["result"]["n"] == 9 + 3  # q=4 adds three fresh vertices
    assert report["certificate"]["verdict"] in ("ProvenPGST", "Inconclusive")


def test_construct_equitable_adds_apex(capsys):
    report = run_json(
        capsys,
        "construct", "equitable", "@G_C", "--u", "u", "--v", "v",
    )
    assert report["construction"]["apex_added"] is True
    assert report["construction"]["w"]["label"] == "w"
    assert report["certificate"]["verdict"] == "ProvenPGST"


def test_construct_equitable_bad_w(capsys):
    code, _, err = run(
        capsys, "construct", "equitable", "@G_C", "--u", "u", "--v", "v", "--w", "o0"
    )
    assert code == 2
    assert "equitable" in err


def test_simulate_k2(capsys, tmp_path):
    graph = tmp_path / "k2.txt"
    graph.write_text("n 2\ne 0 1\n")
    csv = tmp_path / "out.csv"
    report = run_json(
        capsys,
        "simulate", str(graph), "--u", "0", "--v", "1",
        "--tmax", "6.2832", "--steps", "2000", "--csv", str(csv),
    )
    assert abs(report["numeric"]["best_fidelity"] - 1.0) < 1e-9
    # perfect transfer recurs at every odd multiple of pi/2
    ratio = report["numeric"]["best_time"] / (math.pi / 2)
    assert abs(ratio - round(ratio)) < 1e-3 and round(ratio) % 2 == 1
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,fidelity"
    assert len(lines) == 2001


def test_simulate_rejects_unbound_symbols(capsys, tmp_path):
    graph = tmp_path / "k2q.txt"
    graph.write_text("n 2\ne 0 1\np 0 Q\np 1 Q\n")
    code, _, err = run(capsys, "simulate", str(graph), "--u", "0", "--v", "1", "--tmax", "5")
    assert code == 2
    assert "--potential-value" in err
    report = run_json(
        capsys,
        "simulate", str(graph), "--u", "0", "--v", "1",
        "--tmax", "5", "--potential-value", "pi",
    )
    assert report["numeric"]["substitutions"] == {"Q": math.pi}


def test_simulate_p3_endpoint_transfer(capsys, tmp_path):
    graph = tmp_path / "p3.txt"
    graph.write_text("n 3\ne 0 1\ne 1 2\n")
    report = run_json(
        capsys,
        "simulate", str(graph), "--u", "0", "--v", "2", "--tmax", "10", "--steps", "4000",
    )
    assert abs(report["numeric"]["best_fidelity"] - 1.0) < 1e-6
    ratio = report["numeric"]["best_time"] / (math.pi / math.sqrt(2))
    assert abs(ratio - round(ratio)) < 1e-2 and round(ratio) % 2 == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_non_finite_potential_value_rejected(capsys, command, value):
    argv = [command, "@G_B", "--u", "1", "--v", "8", "--potential", "Q"]
    argv.append(f"--potential-value={value}")
    if command == "analyze":
        argv.append("--simulate")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--tmax"),
        ("analyze", "--simulate", "--tmax"),
        ("analyze", "--simulate", "--relation-precision"),
    ],
)
def test_non_finite_float_option_rejected(capsys, argv, value):
    *head, option = argv
    code, out, err = run(capsys, *head, "@G_B", "--u", "1", "--v", "8", f"{option}={value}")
    assert code == 2
    assert out == ""
    assert "finite" in err


BEYOND_FLOAT = "error: a weight or potential is beyond float range\n"
HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["analyze", "@G_B", "--potential", "1/0"], 1, None),
        (["simulate", "@G_B", "--potential", "Q", "--potential-value", "1/0"], 1, None),
        (["analyze", "{tmp}/latin1.txt"], 1, None),
        (["construct", "glue-pot", "@G_B", "--k", "3", "--out", "{tmp}/missing/g.txt"], 2, None),
        (["simulate", "@G_B", "--steps", "10", "--csv", "{tmp}/missing/s.csv"], 2, None),
        (["analyze", "@G_B", "--potential", "Q", "--simulate", "--potential-value", "1e308"], 2, None),
        (["simulate", "@G_B", "--tmax", "1e308", "--steps", "100"], 2, None),
        (["simulate", "@G_B", "--tmax", "1e17", "--steps", "100"], 2, None),
        (
            ["construct", "glue-path", "@G_B", "--u", "0", "--v", "1", "--q", "2", "--potential", "Q"],
            2,
            "error: vertices (0,1) are not cospectral once Q is set to 0\n",
        ),
        (["simulate", "@G_B", "--potential-value", ""], 1, "error: bad numeric value ''\n"),
        (
            ["simulate", "@G_B", "--potential", "Q", "--potential-value", ""],
            1,
            "error: bad numeric value ''\n",
        ),
        (["analyze", "@G_B", "--potential", ""], 1, "error: empty polynomial text\n"),
        (["simulate", "@G_B", "--potential", ""], 1, "error: empty polynomial text\n"),
        (["simulate", "{tmp}/big-weight.txt"], 2, BEYOND_FLOAT),
        (["analyze", "{tmp}/big-weight.txt", "--simulate"], 2, BEYOND_FLOAT),
        (["simulate", "{tmp}/big-potential.txt"], 2, BEYOND_FLOAT),
        (["analyze", "{tmp}/big-potential.txt", "--simulate"], 2, BEYOND_FLOAT),
        (["analyze", "@G_B", "--potential", HUGE, "--simulate"], 2, BEYOND_FLOAT),
    ],
    ids=[
        "potential-1/0",
        "potential-value-1/0",
        "not-utf8",
        "out-dir",
        "csv-dir",
        "overflow",
        "phase-overflow",
        "phase-precision",
        "base-not-cospectral",
        "empty-value",
        "empty-value-for-Q",
        "empty-potential",
        "empty-potential-simulate",
        "weight-beyond-float",
        "weight-beyond-float-analyze",
        "potential-beyond-float",
        "potential-beyond-float-analyze",
        "potential-flag-beyond-float",
    ],
)
def test_bad_input_or_output_is_one_error_line(capsys, tmp_path, argv, code, message):
    # 1e308 is finite, but symmetrizing the matrix (overflow) or the phases
    # t*lambda (phase-overflow) overflow to inf; at 1e17 the phases are
    # finite but one ulp of them exceeds 2*pi (phase-precision). The glued
    # graph at a non-cospectral pair reaches certify_tr_deg's sym = 0 base
    # check (base-not-cospectral). An empty --potential-value is a bad
    # number, with or without a symbol to bind (empty-value*), and an empty
    # --potential is an empty polynomial (empty-potential*). A weight or
    # potential of 10^400 is exact, but the numeric lane cannot hold it as a
    # float (*-beyond-float*).
    (tmp_path / "latin1.txt").write_bytes(b"n 9\ne 1 8\n# caf\xe9\n")
    (tmp_path / "big-weight.txt").write_text("n 9\ne 1 8 1e400\n")
    (tmp_path / "big-potential.txt").write_text(f"n 9\ne 1 8\np 1 {HUGE}\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if "--u" not in argv:
        argv += ["--u", "1", "--v", "8"]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    if message is not None:
        assert err == message


def test_analyze_runs_each_exact_kernel_once_per_question(monkeypatch, capsys):
    # Counts go through every pgstkit.* binding, so call sites that imported
    # a kernel by name are counted as well.
    kernels = {
        "decompose": spectral.decompose,
        "is_cospectral": spectral.is_cospectral,
        "charpoly": exact.charpoly,
        "krylov_min_poly": exact.krylov_min_poly,
        "bareiss_det": exact.bareiss_det,
        "poly_gcd_t": exact.poly_gcd_t,
    }
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for name, m in list(sys.modules.items()) if name.startswith("pgstkit")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            for name, fn in kernels.items():
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting(name, fn))
    run_json(capsys, "analyze", "@G_B", "--u", "1", "--v", "8", "--potential", "Q")
    assert {name: calls[name] for name in kernels} == {
        "decompose": 1,
        "is_cospectral": 1,
        "charpoly": 1,
        "krylov_min_poly": 2,
        "bareiss_det": 0,
        "poly_gcd_t": 1,
    }
