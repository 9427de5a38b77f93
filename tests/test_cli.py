import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cccsim.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_simulate_needs_a_circuit(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["simulate", "--u", "H"])
    assert code == 2 and "circuit" in err
    path = tmp_path / "bell.txt"
    path.write_text("qubits 2\nH 0\nCNOT 0 1\n")
    for command in ("simulate", "sample", "audit", "marginal --qubit 0"):
        argv = [*command.split(), "--u", "H", "--circuit", str(path), "--random-v", "5"]
        code, _, err = run_cli(capsys, argv)
        assert code == 2 and "not allowed with" in err, command
    code, _, err = run_cli(capsys, ["simulate", "--u", "H", "--random-v", "0"])
    assert code == 2 and "--random-v: must be at least 1" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["sample", "--u", "H", "--random-v", "3", "--samples", "-2"], "--samples"),
        (["sample", "--u", "rz=pi*1/3 rx=pi*1/3", "--random-v", "3", "--samples", "-1"], "--samples"),
        (["gadget", "search", "--u", "H", "--limit", "-1"], "--limit"),
        (["audit", "--u", "H", "--random-v", "3", "--approx-samples", "-5"], "--approx-samples"),
    ],
)
def test_negative_counts_exit_2(capsys, argv, option):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out and f"argument {option}: must be at least 0" in err


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


# Outputs of the stabilizer route as n destructive measurements per shot
# (sample_measurement) gave them: the seed -> output map must not move.
GOLDEN_SAMPLES = [
    (
        ["--u", "H", "--random-v", "64", "--samples", "16", "--seed", "3"],
        [
            "0101001111001010100101101110100010110111100100010101010101100001",
            "0011010100001100110010000011101101001001000011011001000000001111",
            "0010101010111010001110011000000000001111011111010010010101111010",
            "1010101110100010000101010111110000111011010010000100000011100001",
            "1101001001101011000010011101110011001011111101011010101000001011",
            "0111011100000111111110100101010110110100110110111111100011101010",
            "1001010101111011011011100001001001011110001111101010011101000000",
            "1110110010101101011110000100101001011100101101011001101001001101",
            "1010001111010100101010011000010011001101011111110101011010000110",
            "0011101000111100111100100110111101001110100010001001010100000111",
            "0010111110001100110110110001101011000010100000101010001000010110",
            "0001001011101011100110100000011000110111000000001001001000000001",
            "0111101001100000010010001011010000000000011010101011101010110111",
            "0100110010001111011110011101011011111001011010111001000011111101",
            "0011001111111100000100101101101001001100111100110000010001010011",
            "1110100111010100101110001101111111100011101010011001011000011011",
        ],
    ),
    (
        ["--u", "rz=pi*1/3 rx=pi", "--random-v", "64", "--samples", "4", "--seed", "5"],
        [
            "0000001111101101110000110111111100100101110000101111101011100001",
            "1001000101011010011001110011010100000001101001110001101001110100",
            "0111101100011011011000000001100100101100011000111100011101010000",
            "1011011110101100100010100000011101110111101000010100011011111001",
        ],
    ),
    (
        ["--u", "rz=pi*1/2 rx=pi*1/2", "--random-v", "20", "--samples", "8", "--seed", "9"],
        [
            "11000001001011101100",
            "00110111110000101000",
            "01001110101100110111",
            "10010000000100110100",
            "11101100010100010010",
            "01101111100110101100",
            "10101000100001101110",
            "11101011011101110001",
        ],
    ),
]


@pytest.mark.parametrize("argv, samples", GOLDEN_SAMPLES)
def test_sample_golden_outputs(capsys, argv, samples):
    d = run_json(capsys, ["sample", *argv])
    assert d["method"] == "stabilizer" and d["samples"] == samples


def test_audit_golden_output(capsys):
    d = run_json(
        capsys,
        ["audit", "--u", "H", "--random-v", "3", "--seed", "7", "--c", "1/2", "--approx-samples", "4000"],
    )
    assert d["approx_method"] == "empirical_stabilizer"
    assert d["epsilon_realized"] == 0.01850000000000001
    assert d["threshold"] == 0.009250000000000005
    assert d["fraction_within"] == 0.875


# Outputs of the parent route that replayed a synthesized V-inverse word
# (marginal) and of the dense statevector route: the seed -> output map must
# not move.
GOLDEN_MARGINALS = [
    (1, 0, 0.49999999997298034),
    (1, 31, 0.5000000000041143),
    (1, 63, 0.5000000000018266),
    (2, 0, 0.49999999999745715),
    (2, 31, 0.5000000000013861),
    (2, 63, 0.5000000000026652),
    (3, 0, 0.5000000000015726),
    (3, 31, 0.5000000000079385),
    (3, 63, 0.5000000000001228),
]


@pytest.mark.parametrize("seed, qubit, p0", GOLDEN_MARGINALS)
def test_marginal_golden_outputs(capsys, seed, qubit, p0):
    argv = ["marginal", "--u", "rz=pi*1/5 rx=pi*1/3", "--random-v", "64", "--seed", str(seed)]
    d = run_json(capsys, argv + ["--qubit", str(qubit)])
    assert d["p0"] == p0 and d["p1"] == 1.0 - p0


GOLDEN_CIRCUIT = "qubits 3\nH 0\nCNOT 0 1\nS 1\nCZ 1 2\nH 2\nY 0\nSDG 2\nCNOT 2 0\nX 1\nH 1\n"
GOLDEN_DENSE = {
    "circuit": [
        0.189166983806888,
        0.1899154770991258,
        0.008322738728977139,
        0.04665471403083688,
        0.004905984675440765,
        0.006651123439860557,
        0.197877860398122,
        0.3565051178207467,
    ],
    "random-v": [
        0.1268146403329679,
        0.005565817589093123,
        0.023998870894938074,
        0.04029757437765913,
        0.32368427625376855,
        0.07632509421284361,
        0.30770949452523677,
        0.09560423181349058,
    ],
}


def test_dense_golden_outputs(capsys, tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(GOLDEN_CIRCUIT)
    base = ["simulate", "--method", "dense", "--u", "rz=pi*1/5 rx=pi*1/3"]
    d = run_json(capsys, base + ["--circuit", str(path)])
    assert list(d["probabilities"].values()) == GOLDEN_DENSE["circuit"]
    d = run_json(capsys, base + ["--random-v", "3", "--seed", "4"])
    assert list(d["probabilities"].values()) == GOLDEN_DENSE["random-v"]
    d = run_json(capsys, ["sample", *base[3:], "--random-v", "5", "--seed", "6", "--samples", "6"])
    assert d["method"] == "dense" and d["samples"] == ["11101", "00111", "11010", "01000", "00111", "11010"]


@pytest.mark.parametrize("script", sorted(SCRIPTS.glob("run_*.py")), ids=lambda p: p.name)
def test_script_help_keeps_the_usage_line(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith(f"Usage: python3 scripts/{script.name} ") for line in lines), proc.stdout


@pytest.mark.filterwarnings("ignore::UserWarning")  # [tool.setuptools] is marked beta
def test_pyproject_reads_the_package_version():
    from setuptools.config.pyprojecttoml import read_configuration

    from cccsim import __version__

    config = read_configuration(SCRIPTS.parent / "pyproject.toml")
    assert config["project"]["version"] == __version__
