import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cccsim import __version__, ccc, cli, gadgets, linalg
from cccsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
H_16_DIGITS = "0.7071067811865476 0 0.7071067811865476 0 0.7071067811865476 0 -0.7071067811865476 0"


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


def test_classify_eight_reals_near_theta_pi(capsys):
    # unitary within 1e-10, with u00 and u11 of modulus 5e-10: too small to
    # carry alpha's phase, which once failed the recomposition with a traceback
    d = run_json(capsys, ["classify", "--u", "5e-10 0 1 0 1 0 -5e-10 5e-11"])
    assert d["case"] == "i" and d["class"] == "PWEAK"
    assert d["decomposition"]["theta"] == "pi*1/1"


def _near_pi_specs(count, seed):
    """count --u specs as eight reals: euler_matrix(alpha, phi, pi - eps,
    lambda) after a round trip C (C-dagger M) through a Haar C, eps
    log-uniform in 1e-10..1e-7, where u00 and u11 are too small to carry
    their phases through the rounding."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        alpha, phi, lam = rng.uniform(-math.pi, math.pi, size=3)
        m = ccc.euler_matrix(alpha, phi, math.pi - 10.0 ** rng.uniform(-10, -7), lam)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        c = q * (np.diag(r) / np.abs(np.diag(r)))
        u = c @ (c.conj().T @ m)
        specs.append(" ".join(repr(float(part)) for entry in u.ravel() for part in (entry.real, entry.imag)))
    return specs


NEAR_PI_ARGVS = [
    ["classify"],
    ["simulate", "--random-v", "3", "--seed", "1"],
    ["sample", "--random-v", "3", "--samples", "2", "--seed", "1"],
    ["marginal", "--random-v", "3", "--qubit", "1", "--seed", "1"],
    ["audit", "--random-v", "3", "--seed", "1"],
    ["gadget", "analyze", "--file", "g.txt"],
    ["gadget", "search", "--k", "2", "--limit", "1"],
    ["anticonc", "--n", "2", "--samples", "100", "--seed", "1"],
]


@pytest.mark.parametrize("spec", _near_pi_specs(6, 17), ids=range(6))
def test_every_u_command_takes_eight_reals_near_theta_pi(capsys, tmp_path, monkeypatch, spec):
    # every command that takes --u (compile, params and mbqc take none)
    # decomposes it; none may raise on a valid U, and what exits 0 prints one
    # JSON document
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("gadget k=2 l=1\nancilla 0\npost wire=0 bit=0\nqubits 2\nCZ 0 1\n")
    for argv in NEAR_PI_ARGVS:
        code, out, err = run_cli(capsys, [*argv, "--u", spec])
        assert code in (0, 2, 3), (argv, code, err)
        if code == 0:
            assert json.loads(out)["command"] == " ".join(argv[: 2 if argv[0] == "gadget" else 1])


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
        (["compile", "--target", "H", "--generators", "H,S", "--max-length", "-3"], "--max-length"),
        (["compile", "--target", "H", "--generators", "H,S", "--beam-width", "0"], "--beam-width"),
        (["--dense-cap", "-1", "simulate", "--u", "T", "--random-v", "1"], "--dense-cap"),
        (["--dense-cap", "-1", "classify", "--u", "T"], "--dense-cap"),
    ],
)
def test_negative_counts_exit_2(capsys, argv, option):
    least = 1 if option == "--beam-width" else 0  # a beam holds at least one word
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out and f"argument {option}: must be at least {least}" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["params", "--a", "1/0", "--c", "1/2", "--eps", "1/10"], "--a"),
        (["params", "--a", "1/5", "--c", "1/2", "--eps", "1e400"], "--eps"),
        (["anticonc", "--n", "3", "--samples", "100", "--a", "1/0"], "--a"),
        (["anticonc", "--n", "3", "--samples", "100", "--a", "1e400"], "--a"),
        (["audit", "--u", "H", "--random-v", "3", "--c", "1/0"], "--c"),
        (["audit", "--u", "H", "--random-v", "3", "--c", "1e400"], "--c"),
    ],
)
def test_bad_fractions_exit_2(capsys, argv, option):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out and f"argument {option}: not a finite fraction" in err


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
    assert code == 3 and "refused:" in err and "no stabilizer route" in err and "cap of" in err


def test_matrix_specs_share_one_unitarity_bound(capsys):
    h_8_digits = "0.70710678 0 0.70710678 0 0.70710678 0 -0.70710678 0"
    for spec, code in ((h_8_digits, 2), (H_16_DIGITS, 0)):
        for argv in (
            ["classify", "--u", spec],
            ["sample", "--u", spec, "--random-v", "3"],
            ["compile", "--target", spec, "--generators", "H,S", "--max-length", "4"],
        ):
            got, _, err = run_cli(capsys, argv)
            assert got == code, (argv, err)
            assert err == ("error: matrix is not unitary within 1e-10\n" if code else ""), argv


def test_dense_cap_flag_tightens_refusal(capsys):
    code, _, err = run_cli(
        capsys,
        ["--dense-cap", "4", "sample", "--u", "rz=pi*1/5 rx=pi*1/3", "--random-v", "5", "--seed", "1"],
    )
    assert code == 3 and "cap of 4" in err
    code, _, err = run_cli(capsys, ["--dense-cap", "1", "gadget", "analyze", "--builtin", "J", "--theta", "0.7"])
    assert code == 3 and "cap of 1" in err


@pytest.mark.parametrize("raw", ["-3", "abc"])
def test_bad_dense_cap_variable_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv(linalg.DENSE_CAP_ENV, raw)
    code, out, err = run_cli(capsys, ["simulate", "--u", "T", "--random-v", "2"])
    assert code == 2 and not out and err.startswith("error: CCCSIM_DENSE_CAP must be a non-negative integer")


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
    path.write_text("qubits 2\nH 0\nCNOT 0 2\n")
    code, out, err = run_cli(capsys, ["sample", "--u", "H", "--circuit", str(path)])
    assert code == 2 and not out and "line 3:" in err


def test_circuit_file_gate_names_in_any_case(tmp_path, monkeypatch, capsys):
    # all eight gates in lower case, with a comment and a blank line, against
    # the same circuit written plainly; both files are v.txt, as config echoes the path
    texts = {
        "lower": "qubits 3\n# all eight gates\nh 0\ns 1\n\nsdg 2\nx 0\ny 1\nz 2\ncnot 0 1\ncz 1 2\n",
        "plain": "qubits 3\nH 0\nS 1\nSDG 2\nX 0\nY 1\nZ 2\nCNOT 0 1\nCZ 1 2\n",
    }
    outputs = {}
    for form, text in texts.items():
        (tmp_path / form).mkdir()
        (tmp_path / form / "v.txt").write_text(text)
        monkeypatch.chdir(tmp_path / form)
        outputs[form] = [
            run_cli(capsys, argv)
            for argv in (
                ["sample", "--u", "H", "--circuit", "v.txt", "--seed", "3"],
                ["simulate", "--method", "dense", "--u", "T", "--circuit", "v.txt"],
            )
        ]
    assert all(code == 0 for code, _, _ in outputs["plain"])
    assert outputs["lower"] == outputs["plain"]


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
    code, out, err = run_cli(
        capsys, ["gadget", "analyze", "--builtin", "I", "--theta", "pi*1/3", "--file", str(path), "--u", "T"]
    )
    assert code == 2 and not out and "not allowed with" in err


@pytest.mark.parametrize(
    "extra, message",
    [(["--theta", "pi*1/3"], "--phi and --theta only feed --builtin"),
     (["--phi", "0.7"], "--phi and --theta only feed --builtin"),
     (["--phi", "0.7", "--theta", "pi*1/2"], "--phi and --theta only feed --builtin")],
)
def test_gadget_analyze_refuses_angles_with_a_file(tmp_path, capsys, extra, message):
    # the angles only build the builtin gadgets' U; a file's U comes from --u
    path = tmp_path / "g.txt"
    path.write_text("gadget k=2 l=1\nancilla 0\npost wire=0 bit=0\nqubits 2\nCZ 0 1\n")
    code, out, err = run_cli(capsys, ["gadget", "analyze", "--file", str(path), "--u", "T", *extra])
    assert code == 2 and not out and message in err
    # the defaults, given explicitly, are still accepted
    run_json(capsys, ["gadget", "analyze", "--file", str(path), "--u", "T", "--phi", "0", "--theta", "0"])


def test_gadget_analyze_refuses_u_with_a_builtin(capsys):
    code, out, err = run_cli(capsys, ["gadget", "analyze", "--builtin", "J", "--theta", "pi*1/3", "--u", "T"])
    assert code == 2 and not out and "--u only feeds --file" in err


@pytest.mark.parametrize(
    "text, message",
    [("gadget k=2 l=1\nancilla 0\npost wire=1 bit=0\nqubits 2\nS 1\nCZ 0 5\n", "line 6: qubit 5 out of range in CZ for n=2"),
     ("gadget k=2 l=1\nancilla 0\npost wire=1 bit=0 bit=1\nqubits 2\nCZ 0 1\n", "line 3: repeated key 'bit'"),
     ("gadget k=2 k=3 l=1\nancilla 0\npost wire=1 bit=0\nqubits 2\nCZ 0 1\n", "line 1: repeated key 'k'"),
     ("gadget k=2 l=1\nancilla 0\nancilla 1\npost wire=1 bit=0\nqubits 2\nS 1\nCZ 0 1\n", "line 3: repeated 'ancilla' line")],
)
def test_gadget_analyze_names_the_file_line(tmp_path, capsys, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["gadget", "analyze", "--file", str(path), "--u", "T"])
    assert code == 2 and not out and err == f"error: {message}\n"


def test_gadget_search(capsys):
    d = run_json(capsys, ["gadget", "search", "--u", "rz=pi*1/5 rx=pi*1/3", "--limit", "2"])
    assert d["num_classes"] > 0 and len(d["classes"]) == 2
    d = run_json(capsys, ["gadget", "search", "--u", "H"])
    assert d["num_classes"] == 0 and d["classes"] == []
    code, _, err = run_cli(capsys, ["gadget", "search", "--u", "T", "--k", "3"])
    assert code == 3


def test_gadget_search_builds_only_the_classes_it_prints(capsys, monkeypatch):
    # the search returns its classes unbuilt; the CLI reads --limit of them
    built = []
    post_init = gadgets.Gadget.__post_init__

    def counted(gadget):
        built.append(gadget)
        post_init(gadget)

    monkeypatch.setattr(gadgets.Gadget, "__post_init__", counted)
    d = run_json(capsys, ["gadget", "search", "--u", "rz=pi*1/3 rx=pi*1/2", "--k", "2", "--limit", "3"])
    assert d["num_classes"] == 1152 and len(d["classes"]) == 3
    assert len(built) <= 3


@pytest.mark.parametrize(
    "spec, classes",
    [("rz=pi*1/3 rx=pi*1/2", 1152), ("rz=pi*1/4 rx=pi*1/4", 288), ("rz=1 rx=2", 432), ("H", 0)],
)
def test_gadget_search_class_counts(capsys, spec, classes):
    d = run_json(capsys, ["gadget", "search", "--u", spec, "--k", "2", "--limit", "0"])
    assert d["num_classes"] == classes and d["classes"] == []


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


@pytest.mark.parametrize("c", ["0", "1"])
def test_audit_c_outside_the_open_unit_interval_exits_2(capsys, c):
    # the threshold divides by c, so the range check must come first
    code, out, err = run_cli(capsys, ["audit", "--u", "H", "--random-v", "2", "--c", c])
    assert code == 2 and not out and err == f"error: c must lie in (0, 1), got {c}.0\n"


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


def test_one_qubit_gate_names_are_units_and_generators(capsys):
    for name, matrix in linalg.GATES.items():
        classify = ["classify", "--u", name]
        compile_ = ["compile", "--target", "T", "--generators", f"H,{name}", "--max-length", "2"]
        if matrix.shape == (2, 2):
            assert run_json(capsys, classify)["config"]["u"] == name
            assert run_json(capsys, compile_)["generators"] == ["H", name]
        else:
            for argv in (classify, compile_):
                code, out, err = run_cli(capsys, argv)
                assert code == 2 and not out and "error:" in err, argv
                assert f"{name} is a two-qubit gate" in err, argv


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


# V and the audit's coins come from one generator, as in `sample`; the
# histogram of the 4000 draws is pinned down to the output bytes.
GOLDEN_AUDIT_STDOUT = """{
  "approx_method": "empirical_stabilizer",
  "c": 0.5,
  "command": "audit",
  "config": {
    "approx_samples": 4000,
    "c": "1/2",
    "random_v": 3,
    "u": "H"
  },
  "epsilon_realized": 0.01800000000000001,
  "fraction_within": 0.75,
  "markov_floor": 0.5,
  "n": 3,
  "seed": 7,
  "threshold": 0.009000000000000005,
  "version": "%s"
}
"""


def test_audit_golden_output(capsys):
    code, out, err = run_cli(
        capsys,
        ["audit", "--u", "H", "--random-v", "3", "--seed", "7", "--c", "1/2", "--approx-samples", "4000"],
    )
    assert code == 0, err
    assert out == GOLDEN_AUDIT_STDOUT % __version__
    d = json.loads(out)
    assert d["approx_method"] == "empirical_stabilizer"
    assert d["epsilon_realized"] == 0.01800000000000001
    assert d["threshold"] == 0.009000000000000005
    assert d["fraction_within"] == 0.75


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
# both pin V's tableau applied in canonical form F1 H_S F2: "circuit" the
# given gate word's, "random-v" the drawn one's
GOLDEN_DENSE = {
    "circuit": [
        0.18916698380688826,
        0.18991547709912604,
        0.008322738728977144,
        0.04665471403083696,
        0.004905984675440769,
        0.006651123439860563,
        0.19787786039812236,
        0.3565051178207471,
    ],
    "random-v": [
        0.12681464033296805,
        0.005565817589093123,
        0.023998870894938105,
        0.04029757437765918,
        0.32368427625376894,
        0.0763250942128438,
        0.30770949452523716,
        0.09560423181349086,
    ],
}


# "circuit" as recorded while the given gate word was applied gate by gate,
# each gate its own exact matrix
GOLDEN_DENSE_GATE_BY_GATE = [
    0.18916698380688826,
    0.1899154770991261,
    0.00832273872897715,
    0.04665471403083696,
    0.004905984675440764,
    0.00665112343986057,
    0.1978778603981223,
    0.3565051178207471,
]

# "circuit" as recorded while Y, X, S-dagger and CZ were applied as words
# over H, S and CNOT
GOLDEN_DENSE_OVER_H_S_CNOT = [
    0.189166983806888,
    0.1899154770991258,
    0.008322738728977139,
    0.04665471403083688,
    0.004905984675440765,
    0.006651123439860557,
    0.197877860398122,
    0.3565051178207467,
]


def test_dense_golden_outputs(capsys, tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(GOLDEN_CIRCUIT)
    base = ["simulate", "--method", "dense", "--u", "rz=pi*1/5 rx=pi*1/3"]
    d = run_json(capsys, base + ["--circuit", str(path)])
    assert list(d["probabilities"].values()) == GOLDEN_DENSE["circuit"]
    for older in (GOLDEN_DENSE_GATE_BY_GATE, GOLDEN_DENSE_OVER_H_S_CNOT):
        assert np.max(np.abs(np.subtract(GOLDEN_DENSE["circuit"], older))) <= 1e-15
    d = run_json(capsys, base + ["--random-v", "3", "--seed", "4"])
    assert list(d["probabilities"].values()) == GOLDEN_DENSE["random-v"]
    d = run_json(capsys, ["sample", *base[3:], "--random-v", "5", "--seed", "6", "--samples", "6"])
    assert d["method"] == "dense" and d["samples"] == ["11101", "00111", "11010", "01000", "00111", "11010"]


# Digests of the JSON without its version, keys sorted.  The sample and
# marginal outputs (n=200, 200 draws) were recorded before the linear-pass
# random_clifford, the echelon compile_measurement and the bulk coin draws;
# the compile and gadget-file outputs before every dense gate went through
# the one batched apply_gate; the classify and mbqc outputs while a REAL angle
# could still be reconstructed on the fly.  The gadget search was re-recorded
# when printed matrices stopped carrying -0.0, and the compile output when its
# distance came from the closed-form eigenphase arc in place of an
# eigensolver (same word; 0.03299058583669093 -> 0.0329905858366905, against
# 0.0329905858366903491... for the same float word at 50 digits).  The
# gadget search was re-recorded again when each slice's actions came from one
# (4, 16) @ (16, 11520) product in place of two stacked 4x4 products: the same
# 1152 classes in the same order, with entries moved by at most 2.3e-16 by
# the product's summation order.  The seed -> output map must not move.
GOLDEN_GADGET = "gadget k=3 l=2\nancilla 1\npost wire=2 bit=0\nqubits 3\nH 0\nCNOT 0 2\nS 2\nCZ 1 2\nH 1\nCNOT 1 0\n"
GOLDEN_DIGESTS = [
    (
        ["sample", "--u", "H", "--random-v", "200", "--samples", "1000", "--seed", "1"],
        "47661d7492edd5f66627da41e230b265e53a36f82b0aa3cac1cbf79051790ea2",
    ),
    (
        ["marginal", "--u", "rz=pi*1/5 rx=pi*1/3", "--random-v", "200", "--qubit", "7", "--seed", "1"],
        "1d274bac509946890a51a2bb8c5f9297b8cdd58be3d4b60aff5ed1610360f61c",
    ),
    (
        ["gadget", "search", "--u", "rz=pi*1/3 rx=pi*1/2", "--k", "2", "--limit", "2000"],
        "ea82bbf163b4e27ffe2bde5819b4e3b18b2fe58bbf3dcb240b67bec2b4833371",
    ),
    (
        ["compile", "--target", "rz=pi*1/4", "--generators", "H,S,AJ(0,pi*1/3)", "--max-length", "10"],
        "983c07540c1dcdff6dcaea6adcbe44510367f520e7b799ae228ac846a331e9d6",
    ),
    (
        ["gadget", "analyze", "--file", "gadget.txt", "--u", "rz=pi*1/3 rx=pi*1/2"],
        "d5e3e934dd5102c1ac826ce1557b8daf32fa8b296f0ac1599e2a802bcdd0ec05",
    ),
    (["classify", "--u", "rz=0.7 rx=pi*1/2"], "85a9574a4d2d0d19ab1001c72d23859fce38334b6a00d7025d50fdf23915c444"),
    (["classify", "--u", "rz=0.3 rx=pi"], "767bb45863634953dfef82ad4f94d5f148732cfccbfe9209cb8bca38832cdad1"),
    (["classify", "--u", "rx=1.5707963272948966"], "3752630f1109e9c9a38a3eebc6c7af9507dab341c89db299909a7b032e86c9fb"),
    (["classify", "--u", H_16_DIGITS], "022062fa469092a2fb66064c59919c8630d9a8bf5eaab1b52e56d7840cbeddfe"),
    (["classify", "--u", "T"], "1250883d83c8daa8d41cbf49ac145e64bb6a791c9ec3f574f5f8fb371c613bac"),
    (["mbqc", "check", "--theta", "0.7853981633974483"], "09c6dc27603acff0cde30decb981dec566351a0a397a8d34851411f1eba7fc3a"),
    (["mbqc", "check", "--theta", "pi*2/7"], "d3ea4a1c9c608ebef28433361f0f3896f1cf2368c352c3459cdc4fc47f0067a5"),
]
DIGEST_IDS = ["sample", "marginal", "gadget-search", "compile", "gadget-file"] + [
    "classify-real-phi",
    "classify-real-phi-fold",
    "classify-snapped-theta",
    "classify-matrix-h",
    "classify-t",
    "mbqc-decimal-quarter-pi",
    "mbqc-two-sevenths-pi",
]


@pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS, ids=DIGEST_IDS)
def test_golden_digests(capsys, tmp_path, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)  # the gadget file's relative path is part of the output
    (tmp_path / "gadget.txt").write_text(GOLDEN_GADGET)
    d = run_json(capsys, argv)
    d.pop("version")
    assert hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest() == digest


# Every command prints json.dumps(payload, indent=2, sort_keys=True) of the
# payload main built, whatever route the printing takes.
STDOUT_ARGVS = [argv for argv, _ in GOLDEN_DIGESTS] + [
    ["simulate", "--method", "dense", "--u", "rz=pi*1/3 rx=pi*1/2", "--random-v", "14", "--seed", "2"],
    ["simulate", "--method", "easy", "--u", "H", "--random-v", "5", "--seed", "3"],
    ["audit", "--u", "H", "--random-v", "4", "--seed", "3", "--c", "1/4"],
    ["audit", "--u", "H", "--random-v", "3", "--seed", "7", "--c", "1/2", "--approx-samples", "4000"],
    ["params", "--a", "1/5", "--c", "0.2", "--eps", "0.01"],
    ["anticonc", "--n", "3", "--samples", "150", "--seed", "7"],
    ["gadget", "search", "--u", "H"],
    ["mbqc", "check", "--theta", "pi*1/6"],
    ["mbqc", "check", "--theta", "pi*1/4"],
    ["anticonc", "--n", "16", "--samples", "100", "--seed", "1"],
    ["gadget", "analyze", "--builtin", "J", "--theta", "pi*1/3"],
    ["simulate", "--method", "dense", "--u", "T", "--circuit", "v.txt"],
]
STDOUT_IDS = DIGEST_IDS + [
    "simulate-dense-14",
    "simulate-easy",
    "audit-exact",
    "audit-empirical",
    "params",
    "anticonc",
    "gadget-search-empty",
    "mbqc-universal",
    "mbqc-exact-cosines",
    "anticonc-dense-cap",
    "gadget-analyze-builtin",
    "simulate-dense-circuit",
]


@pytest.mark.parametrize("argv", STDOUT_ARGVS, ids=STDOUT_IDS)
def test_stdout_is_json_dumps_of_the_payload(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gadget.txt").write_text(GOLDEN_GADGET)
    (tmp_path / "v.txt").write_text(GOLDEN_CIRCUIT)
    payloads = []
    dumps = cli._dumps

    def record(obj, pad=""):
        if not payloads:
            payloads.append(obj)
        return dumps(obj, pad)

    monkeypatch.setattr(cli, "_dumps", record)
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"


DUMPS_EDGE_PAYLOADS = [
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
    (1, (2.5, "x"), ()),
    {"t": (1, 2), "u": ((), [None])},
    [math.nan, math.inf, -math.inf, 0.0, -0.0],
    {"nan": math.nan, "inf": {"neg": -math.inf, "pos": math.inf}},
    ["\u00e9\u2603", 'quote " back \\ tab \t nl \n nul \x00', ",\n  ", ",\n  \"x\": ["],
    {"\u00e9": ",\n  ", ",\n  ": ["\u2603"]},
    {"0": 0, ",\n  0": [0, "0"], "k": [",\n    0", {"0": [",\n      0"]}]},
    [np.float64(0.1), np.float64(-1e300), np.float64(math.nan)],
    {"p": np.float64(2 / 3), "q": 1, "r": [np.float64(0.5), 2]},
    {"n": 3, "ok": True, "none": None, "x": [1, 2], "y": {"z": 1.5}, "s": "v", "big": 10**30},
    {1: "int key", 2.5: "float key"},
    {1: [1], 2.5: {}},
]


@pytest.mark.parametrize("payload", DUMPS_EDGE_PAYLOADS)
def test_dumps_matches_json_indent_2_sorted(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("n", range(1, 13))
def test_bitstrings_count_in_order(n):
    assert cli._bitstrings(n) == [format(i, f"0{n}b") for i in range(2**n)]


def test_anticonc_golden_output(capsys):
    # 200 Cliffords drawn by random_cliffords at n=6: every moment bit for bit
    d = run_json(capsys, ["anticonc", "--n", "6", "--samples", "200", "--u", "rz=pi*1/3 rx=pi*1/2", "--seed", "5"])
    assert {k: d[k] for k in ("mean_p", "mean_p_squared", "mean_se", "second_moment_se", "tail_fraction")} == {
        "mean_p": 0.016194442315762156,
        "mean_p_squared": 0.0005046660420223169,
        "mean_se": 0.0011036851931355142,
        "second_moment_se": 6.838304004819906e-05,
        "tail_fraction": 0.82,
    }


@pytest.mark.filterwarnings("ignore::UserWarning")  # [tool.setuptools] is marked beta
def test_pyproject_reads_the_package_version():
    from setuptools.config.pyprojecttoml import read_configuration

    from cccsim import __version__

    config = read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["version"] == __version__
