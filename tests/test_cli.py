import json
import subprocess
import sys

import numpy as np
import pytest

from cccsim.cli import main


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, (code, err)
    return json.loads(out)


def test_classify_cases(capsys):
    d = run_json(capsys, ["classify", "--u", "rz=pi*1/3 rx=pi*1/2"])
    assert d["case"] == "iii" and d["class"] == "PH_SUPREME"
    d = run_json(capsys, ["classify", "--u", "H"])
    assert d["case"] == "ii" and d["class"] == "PWEAK"
    assert d["canonical_gamma_word"] == ["S", "H", "S", "H"]
    d = run_json(capsys, ["classify", "--u", "T"])
    assert d["case"] == "i" and d["class"] == "PWEAK"
    assert d["command"] == "classify" and d["version"]


def test_classify_bad_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, ["classify", "--u", "wat"])
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, ["classify", "--u", "rz=inf"])
    assert code == 2 and "error:" in err


def test_simulate_easy_and_dense_agree(capsys):
    base = ["simulate", "--u", "H", "--random-v", "3", "--seed", "5"]
    easy = run_json(capsys, base)
    dense = run_json(capsys, base + ["--method", "dense"])
    assert easy["method"] == "easy" and dense["method"] == "dense"
    assert set(easy["probabilities"]) == set(dense["probabilities"])
    for y, p in easy["probabilities"].items():
        assert abs(p - dense["probabilities"][y]) < 1e-9
    assert abs(sum(easy["probabilities"].values()) - 1) < 1e-9


def test_simulate_needs_a_circuit(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--u", "H"])
    assert code == 2 and "circuit" in err


def test_sample_stabilizer_route_scales(capsys):
    d = run_json(
        capsys, ["sample", "--u", "T", "--random-v", "40", "--seed", "1", "--samples", "5"]
    )
    assert d["method"] == "stabilizer"
    assert len(d["samples"]) == 5 and all(len(y) == 40 for y in d["samples"])


def test_sample_dense_route_and_cap_refusal(capsys):
    d = run_json(
        capsys,
        ["sample", "--u", "rz=pi*1/5 rx=pi*1/3", "--random-v", "10", "--seed", "1", "--samples", "3"],
    )
    assert d["method"] == "dense"
    code, _, err = run_cli(
        capsys, ["sample", "--u", "rz=pi*1/5 rx=pi*1/3", "--random-v", "30", "--seed", "1"]
    )
    assert code == 3 and "refused:" in err and "cap" in err


def test_dense_cap_flag_tightens_refusal(capsys):
    code, _, err = run_cli(
        capsys,
        ["--dense-cap", "4", "sample", "--u", "rz=pi*1/5 rx=pi*1/3", "--random-v", "5", "--seed", "1"],
    )
    assert code == 3 and "cap of 4" in err


def test_byte_identical_reruns(capsys):
    argv = ["sample", "--u", "T", "--random-v", "6", "--seed", "9", "--samples", "4"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_circuit_file_input(tmp_path, capsys):
    path = tmp_path / "bell.txt"
    path.write_text("qubits 2\nH 0\nCNOT 0 1\n")
    d = run_json(capsys, ["simulate", "--u", "I", "--circuit", str(path)])
    assert abs(d["probabilities"]["00"] - 0.5) < 1e-12
    assert abs(d["probabilities"]["11"] - 0.5) < 1e-12
    code, _, err = run_cli(capsys, ["simulate", "--u", "I", "--circuit", str(tmp_path / "nope")])
    assert code == 2


def test_marginal(capsys):
    d = run_json(capsys, ["marginal", "--u", "H", "--random-v", "4", "--seed", "2", "--qubit", "1"])
    assert abs(d["p0"] + d["p1"] - 1) < 1e-12
    assert 0 <= d["p0"] <= 1


def test_gadget_analyze(capsys):
    d = run_json(capsys, ["gadget", "analyze", "--builtin", "I", "--phi", "pi*1/3", "--theta", "pi*1/2"])
    assert d["is_unitary"] and not d["is_clifford"]
    assert d["pauli_conjugation"] == "UNITARY_NON_CLIFFORD"
    d = run_json(capsys, ["gadget", "analyze", "--builtin", "J", "--theta", "pi*1/2"])
    assert d["is_clifford"]
    d = run_json(capsys, ["gadget", "analyze", "--builtin", "I", "--theta", "0.4"])
    assert not d["is_unitary"] and d["gamma"] is None


def test_gadget_analyze_from_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("gadget k=2 l=1\nancilla 0\npost wire=0 bit=0\nqubits 2\nCZ 0 1\n")
    d = run_json(
        capsys,
        ["gadget", "analyze", "--file", str(path), "--u", "rz=pi*1/3 rx=pi*1/2"],
    )
    assert d["is_unitary"] and not d["is_clifford"]
    code, _, err = run_cli(capsys, ["gadget", "analyze", "--file", str(path)])
    assert code == 2  # missing --u


def test_gadget_search(capsys):
    d = run_json(capsys, ["gadget", "search", "--u", "rz=pi*1/5 rx=pi*1/3", "--limit", "2"])
    assert d["num_classes"] > 0 and len(d["classes"]) == 2
    d = run_json(capsys, ["gadget", "search", "--u", "H"])
    assert d["num_classes"] == 0 and d["classes"] == []
    code, _, err = run_cli(capsys, ["gadget", "search", "--u", "T", "--k", "3"])
    assert code == 3


def test_anticonc_report_and_csv(tmp_path, capsys):
    csv = tmp_path / "p.csv"
    d = run_json(
        capsys, ["anticonc", "--n", "3", "--samples", "150", "--seed", "7", "--csv", str(csv)]
    )
    assert d["theory_mean"] == 0.125 and d["seed"] == 7
    assert d["num_samples"] == 150
    lines = csv.read_text().splitlines()
    assert len(lines) == 150
    values = [float(x) for x in lines]
    assert abs(np.mean(values) - d["mean_p"]) < 1e-12
    code, _, _ = run_cli(capsys, ["anticonc", "--n", "3", "--samples", "10"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["anticonc", "--n", "0", "--samples", "100"])
    assert code == 2


def test_params(capsys):
    d = run_json(capsys, ["params", "--a", "1/5", "--c", "0.2", "--eps", "0.01"])
    assert d["fraction"] == 0.12 and d["mult_error"] == 0.5 and d["valid"]
    assert d["fraction_exact"] == "3/25" and d["mult_error_exact"] == "1/2"
    code, _, _ = run_cli(capsys, ["params", "--a", "2", "--c", "0.2", "--eps", "0.01"])
    assert code == 2


def test_audit_exact_and_empirical(capsys):
    base = ["audit", "--u", "H", "--random-v", "4", "--seed", "3", "--c", "1/4"]
    d = run_json(capsys, base)
    assert d["approx_method"] == "exact_reduction"
    assert d["fraction_within"] == 1.0 and d["epsilon_realized"] < 1e-12
    d = run_json(capsys, base + ["--approx-samples", "400"])
    assert d["approx_method"] == "empirical_stabilizer"
    assert d["epsilon_realized"] > 0
    assert d["fraction_within"] >= d["markov_floor"] == 0.75


def test_mbqc_check(capsys):
    d = run_json(capsys, ["mbqc", "check", "--theta", "pi*1/6"])
    assert d["universal"] and d["exact_cosines"] is None
    assert d["residual_g0"] < 1e-12 and d["residual_cz"] < 1e-12
    assert d["residual_teleport"] < 1e-12
    d = run_json(capsys, ["mbqc", "check", "--theta", "pi*1/4"])
    assert not d["universal"] and d["exact_cosines"] == ["-1/2", "-1/2"]
    code, _, _ = run_cli(capsys, ["mbqc", "check", "--theta", "0.7"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["mbqc", "check", "--theta", "inf"])
    assert code == 2


def test_compile(capsys):
    d = run_json(
        capsys,
        ["compile", "--target", "X", "--generators", "H,S", "--max-length", "6", "--beam-width", "500"],
    )
    assert d["distance"] < 1e-9 and d["word"] == ["H", "S", "S", "H"]
    d = run_json(
        capsys,
        ["compile", "--target", "T", "--generators", "H,S,AJ(0,pi*1/3)", "--max-length", "7", "--beam-width", "800"],
    )
    assert d["distance"] < 0.5 and all(w in ("H", "S", "AJ(0,pi*1/3)") for w in d["word"])
    code, _, err = run_cli(capsys, ["compile", "--target", "T", "--generators", "H,AI(0,pi*1/3)", "--max-length", "4"])
    assert code == 2 and "unitary" in err
    code, _, _ = run_cli(capsys, ["compile", "--target", "T", "--generators", "QQ", "--max-length", "4"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["compile", "--target", "T", "--generators", "H", "--max-length", "99"])
    assert code == 3


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, [])
    assert code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cccsim.cli", "params", "--a", "1/5", "--c", "1/5", "--eps", "1/100"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True
