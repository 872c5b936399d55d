"""End-to-end command-line behavior: JSON reports, exit codes, files."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pgstkit
from pgstkit import cli, exact, graphs, spectral, walk
from pgstkit.cli import main
from pgstkit.graphs import MAX_VERTICES


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
WIDE = f"error: operation would mix more than 2 symbols: {tuple(f'S{i}' for i in range(9))!r}\n"
TOO_MANY_STEPS = "error: need 2 to 10000000 grid points, got 100000000000\n"
TOO_MANY_VERTICES = f"error: at most {MAX_VERTICES} vertices, got %d\n"
TOO_MANY_PATH_VERTICES = f"error: path needs 2 to {MAX_VERTICES} vertices, got %d\n"
G_A_PAIR = ["@G_A", "--u", "3", "--v", "6"]
G_C_PAIR = ["@G_C", "--u", "8", "--v", "9"]
G_D_PAIR = ["@G_D", "--u", "h1", "--v", "h4"]


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
        (["analyze", "{tmp}/wide.txt", "--u", "0", "--v", "2"], 2, WIDE),
        (["simulate", "@G_B", "--steps", "100000000000"], 2, TOO_MANY_STEPS),
        (["analyze", "@G_B", "--simulate", "--steps", "100000000000"], 2, TOO_MANY_STEPS),
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
        (
            ["construct", "change-trace", *G_A_PAIR, "--k", "3", "--potential", "Qp"],
            2,
            "error: pair symbol and center symbol must differ\n",
        ),
        (["construct", "glue-pot", "@G_B"], 2, "error: this construction needs --k <odd vertex count>\n"),
        (
            ["construct", "glue-pot", "@G_B", "--k", "4", "--potential", "2"],
            2,
            "error: glue-pot path needs an odd vertex count >= 3, got 4\n",
        ),
        (
            ["construct", "change-trace", *G_A_PAIR, "--k", "4", "--potential", "2"],
            2,
            "error: change-trace path needs an odd vertex count >= 3, got 4\n",
        ),
        (
            ["construct", "glue-path", *G_A_PAIR, "--potential", "2"],
            2,
            "error: glue-path needs --q <edges> or --q auto\n",
        ),
        (
            ["construct", "glue-path", *G_A_PAIR, "--q", "x", "--potential", "2"],
            1,
            "error: bad --q value 'x'\n",
        ),
        (
            ["construct", "glue-pot", "@G_B", "--k", "3", "--potential", "2*Q"],
            2,
            "error: --potential must be a bare symbol here, got '2*Q'\n",
        ),
        (["analyze", "@G_B", "--u", "1", "--v", "1"], 2, "error: u and v must differ\n"),
        (["construct", "glue-pot", "@G_B", "--u", "1", "--v", "1", "--k", "3"], 2, "error: u and v must differ\n"),
        (["simulate", "@G_B", "--u", "1", "--v", "1"], 2, "error: u and v must differ\n"),
        (
            ["construct", "equitable", *G_C_PAIR, "--sym1", "Q", "--sym2", "Q"],
            2,
            "error: the two potential symbols must differ\n",
        ),
        (
            ["construct", "equitable", *G_C_PAIR, "--w", "8"],
            2,
            "error: u, v, w must be three distinct vertices\n",
        ),
        (["analyze", "{tmp}/huge-n.txt", "--u", "0", "--v", "1"], 1, TOO_MANY_VERTICES % 10**8),
        (["construct", "glue-path", *G_A_PAIR, "--q", str(10**8)], 2, TOO_MANY_PATH_VERTICES % (10**8 + 1)),
        (
            ["construct", "glue-pot", "@G_B", "--u", "0", "--v", "1", "--k", str(MAX_VERTICES + 1)],
            2,
            TOO_MANY_PATH_VERTICES % (MAX_VERTICES + 1),
        ),
        (["construct", "glue-pot", "@G_B", "--k", "x"], 1, "error: argument --k: invalid int value: 'x'\n"),
        (["simulate", "@G_B", "--tmax", "x"], 1, "error: argument --tmax: invalid float value: 'x'\n"),
        (["analyze", "@G_B", "--u", "1"], 1, "error: the following arguments are required: --v\n"),
        (
            ["construct", "glue-x", "@G_B"],
            1,
            "error: argument kind: invalid choice: 'glue-x' "
            "(choose from 'glue-path', 'glue-pot', 'change-trace', 'equitable')\n",
        ),
        ([], 1, "error: the following arguments are required: command\n"),
        (
            ["analyze", *G_D_PAIR, "--simulate", "--relation-bound", "0"],
            2,
            "error: coefficient bound must be >= 1, got 0\n",
        ),
        (
            ["analyze", *G_D_PAIR, "--simulate", "--relation-precision", "nan"],
            2,
            "error: precision must be positive and finite, got nan\n",
        ),
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
        "wide-frame",
        "steps-beyond-max",
        "steps-beyond-max-analyze",
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
        "pair-symbol-is-center-symbol",
        "construct-without-k",
        "glue-pot-even-k-before-potential",
        "change-trace-even-k-before-potential",
        "glue-path-without-q",
        "glue-path-bad-q-before-potential",
        "potential-not-a-bare-symbol",
        "same-vertex-analyze",
        "same-vertex-construct",
        "same-vertex-simulate",
        "equitable-same-symbols",
        "equitable-w-in-pair",
        "vertex-bound-file",
        "vertex-bound-glue-path",
        "vertex-bound-before-base-check",
        "usage-non-integer-k",
        "usage-non-float-tmax",
        "usage-missing-v",
        "usage-unknown-kind",
        "usage-no-command",
        "relation-bound-without-search",
        "relation-precision-without-search",
    ],
)
def test_bad_input_or_output_is_one_error_line(capsys, tmp_path, argv, code, message):
    # 1e308 is finite, but symmetrizing the matrix (overflow) or the phases
    # t*lambda (phase-overflow) overflow to inf; at 1e17 the phases are
    # finite but one ulp of them exceeds 2*pi (phase-precision). A grid of
    # 10^11 steps would need terabytes (steps-beyond-max*). Nine isolated
    # vertices with a symbol each are refused before charpoly expands the
    # product of their nine factors (wide-frame). The glued
    # graph at a non-cospectral pair reaches certify_tr_deg's sym = 0 base
    # check (base-not-cospectral). An empty --potential-value is a bad
    # number, with or without a symbol to bind (empty-value*), and an empty
    # --potential is an empty polynomial (empty-potential*). A weight or
    # potential of 10^400 is exact, but the numeric lane cannot hold it as a
    # float (*-beyond-float*). A vertex count beyond MAX_VERTICES is refused
    # before any per-vertex allocation, from a graph file (vertex-bound-file)
    # or from a flag (vertex-bound-glue-path). The construct rows pin which
    # of two faults is reported first: glue-pot checks the path's vertex
    # bound before the base pair (vertex-bound-before-base-check). argparse's
    # own usage errors are parse errors too (usage-*). The relation-search
    # flags are checked even where the parity certificate settles the pair
    # and no search runs (relation-*-without-search).
    (tmp_path / "latin1.txt").write_bytes(b"n 9\ne 1 8\n# caf\xe9\n")
    (tmp_path / "wide.txt").write_text("n 12\ne 0 1\ne 1 2\n" + "".join(f"p {i + 3} S{i}\n" for i in range(9)))
    (tmp_path / "big-weight.txt").write_text("n 9\ne 1 8 1e400\n")
    (tmp_path / "big-potential.txt").write_text(f"n 9\ne 1 8\np 1 {HUGE}\n")
    (tmp_path / "huge-n.txt").write_text(f"n {10**8}\ne 0 1\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if argv and "--u" not in argv:
        argv += ["--u", "1", "--v", "8"]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    if message is not None:
        assert err == message


def count_calls(monkeypatch, kernels: dict) -> Counter:
    """Count calls of each named function from now on.

    Counts go through every pgstkit.* binding, so call sites that imported
    a kernel by name, and calls within the kernel's own module, are counted
    as well.
    """
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
    return calls


def test_analyze_runs_each_exact_kernel_once_per_question(monkeypatch, capsys):
    kernels = {
        "decompose": spectral.decompose,
        "is_cospectral": spectral.is_cospectral,
        "charpoly": exact.charpoly,
        "krylov_min_poly": exact.krylov_min_poly,
        "_min_poly": exact._min_poly,  # the Krylov elimination, once per side
        "bareiss_det": exact.bareiss_det,
        "poly_gcd_t": exact.poly_gcd_t,
    }
    calls = count_calls(monkeypatch, kernels)
    run_json(capsys, "analyze", "@G_B", "--u", "1", "--v", "8", "--potential", "Q")
    assert {name: calls[name] for name in kernels} == {
        "decompose": 1,
        "is_cospectral": 0,
        "charpoly": 1,
        "krylov_min_poly": 1,
        "_min_poly": 2,
        "bareiss_det": 0,
        "poly_gcd_t": 1,
    }


@pytest.mark.parametrize(
    "argv, expected",
    [
        # glue-path: with --q auto, the base check and charpoly of the deleted
        # base matrix (reusing the base check's matrix); then, for either
        # --q, one decomposition of the built graph and nothing else
        (["glue-path", "@G_D", "--u", "h1", "--v", "h4", "--q", "auto"], (2, 1, 2, 1)),
        (["glue-path", "@G_A", "--u", "3", "--v", "6", "--q", "4"], (1, 0, 1, 1)),
        # glue-pot and change-trace: the base check, then one decomposition;
        # glue-pot's choose_path_shift makes the base check and reuses its
        # matrix for the charpoly of the deleted base matrix
        (["glue-pot", "@G_B", "--u", "1", "--v", "8", "--k", "3"], (2, 1, 2, 1)),
        (["change-trace", "@G_A", "--u", "3", "--v", "6", "--k", "3"], (2, 1, 1, 1)),
        # equitable: the base check and one decomposition; the refinement
        # and the equitability check of the perturbed graph read edge lists
        (["equitable", "@G_C", "--u", "8", "--v", "9"], (2, 1, 1, 1)),
    ],
    ids=["glue-path-auto", "glue-path", "glue-pot", "change-trace", "equitable"],
)
def test_construct_analyses_each_pair_a_fixed_number_of_times(monkeypatch, capsys, argv, expected):
    kernels = {
        "to_matrix": graphs.to_matrix,
        "is_cospectral": spectral.is_cospectral,
        "charpoly": exact.charpoly,
        "decompose": spectral.decompose,
    }
    calls = count_calls(monkeypatch, kernels)
    run_json(capsys, "construct", *argv)
    assert tuple(calls[name] for name in kernels) == expected


def test_a_later_question_builds_no_parser(monkeypatch, capsys):
    run_json(capsys, "analyze", "@G_B", "--u", "1", "--v", "8", "--potential", "Q")
    built = Counter()
    init = cli._ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built["parser"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counting)
    run_json(capsys, "analyze", "@G_B", "--u", "1", "--v", "8", "--potential", "Q")
    assert built["parser"] == 0
    # --help and a usage error behave as they do on a fresh parser
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert built["parser"] == 0
    assert (out, err) == (cli._build_parser.__wrapped__().format_help(), "")
    got = run(capsys, "construct", "glue-pot", "@G_B", "--u", "1", "--v", "8", "--k", "x")
    assert got == (1, "", "error: argument --k: invalid int value: 'x'\n")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["analyze", "@G_B", "--u", "1", "--v", "8", "--potential", "Q"], 1),
        (["simulate", "@G_B", "--u", "1", "--v", "8", "--potential", "1", "--steps", "100"], 1),
        (["construct", "glue-pot", "@G_B", "--u", "1", "--v", "8", "--k", "3"], 4),
        (["construct", "change-trace", *G_A_PAIR, "--k", "3"], 4),
        (["construct", "glue-path", *G_A_PAIR, "--q", "4"], 3),
        (["construct", "equitable", *G_C_PAIR], 5),
    ],
    ids=["analyze", "simulate", "glue-pot", "change-trace", "glue-path", "equitable"],
)
def test_each_question_builds_a_fixed_number_of_graphs(monkeypatch, capsys, argv, expected):
    # A pair potential is one rebuild. analyze and simulate build only the
    # graph with --potential (fixtures are built once, at import). glue-pot
    # builds its path, the shifted path and the glued graph, change-trace its
    # path, the path with the center symbol and the glued graph, and
    # glue-path its path and the glued graph; each then adds the pair symbol.
    # equitable builds the apex graph, the perturbed graph of its
    # certificate (pair symbol, then outside symbol) and the same two again
    # for the report.
    calls = Counter()
    init = graphs.Graph.__init__

    def counting(self, *args, **kwargs):
        calls["Graph"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(graphs.Graph, "__init__", counting)
    run_json(capsys, *argv)
    assert calls["Graph"] == expected


def test_numeric_questions_project_their_pair_once(monkeypatch, capsys):
    # The ceiling, the scan, the support test and (when the exact lane is
    # inconclusive) the spectrum split all read rows u and v of every cluster
    # projector; a question projects them once.
    calls = Counter()
    rows = walk.NumericSpectrum.rows

    def counting(self, u, v):
        calls[u, v] += 1
        return rows(self, u, v)

    monkeypatch.setattr(walk.NumericSpectrum, "rows", counting)
    run_json(
        capsys, "simulate", "@G_B", "--u", "1", "--v", "8", "--potential", "Q",
        "--potential-value", "3", "--tmax", "100", "--steps", "2001",
    )
    assert calls == {(1, 8): 1}
    calls.clear()
    report = run_json(capsys, "analyze", "@G_A", "--u", "3", "--v", "6", "--simulate", "--tmax", "100")
    assert report["certificate"]["verdict"] == "HeuristicObstruction"
    assert calls == {(3, 6): 1}


STARTUP_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import pgstkit.cli

def loaded(*argv):
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert pgstkit.cli.main(list(argv)) == 0
    return {name: name in sys.modules for name in ("numpy", "pgstkit.walk", "pgstkit.certify")}

pair = ("@G_B", "--u", "1", "--v", "8", "--potential", "Q")
print(json.dumps([
    loaded(),
    loaded("analyze", *pair),
    loaded("construct", "glue-pot", *pair, "--k", "5"),
    loaded("analyze", *pair, "--simulate", "--tmax", "40", "--steps", "300"),
]))
"""


def test_exact_questions_start_without_numpy():
    # A fresh interpreter: this test session has imported numpy already.
    src = Path(pgstkit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    after_import, after_analyze, after_construct, after_simulate = json.loads(proc.stdout)
    exact_only = {"numpy": False, "pgstkit.walk": True, "pgstkit.certify": True}
    assert after_import == after_analyze == after_construct == exact_only
    assert after_simulate["numpy"] is True
