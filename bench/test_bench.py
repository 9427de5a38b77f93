"""Tests of the benchmark itself: its checks, its tracer and its metric names.

    python3 -m pytest -q bench

Each check must pass the program's real output and reject a corrupted copy.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cccsim import cli  # noqa: E402


def cli_json(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


def circuit_file(tmp_path, n, gates) -> tuple[Path, str]:
    text = checks.circuit_text(n, gates)
    path = tmp_path / "v.txt"
    path.write_text(text)
    return path, text


# -- stabilizer side -------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_z_constraints_give_the_dense_support(tmp_path, seed):
    n = 6
    path, text = circuit_file(tmp_path, n, checks.conjugated_word(n, 80, 3, np.random.default_rng(seed)))
    masks, signs = checks.z_constraints(text, hadamard_frame=True)
    dense = workloads.probabilities(cli_json(["simulate", "--method", "dense", "--u", "H", "--circuit", str(path)]))
    ys = np.array([[(y >> (n - 1 - q)) & 1 for q in range(n)] for y in range(2**n)])
    allowed = ~((ys @ masks.T + signs) % 2).any(axis=1)
    assert np.allclose(dense[allowed], 2.0 ** -(n - len(masks)))
    assert np.allclose(dense[~allowed], 0.0)


def test_shot_check_rejects_a_flipped_determined_bit(tmp_path):
    n = 8
    path, text = circuit_file(tmp_path, n, checks.conjugated_word(n, 128, 4, np.random.default_rng(5)))
    masks, signs = checks.z_constraints(text, hadamard_frame=True)
    assert len(masks), "the word should leave some bits determined"
    out = cli_json(["sample", "--u", "H", "--circuit", str(path), "--samples", "64", "--seed", "3"])
    assert checks.check_shots(out, n, masks, signs, 64) == []
    bits = checks.as_bits(out["samples"], n)
    assert checks.check_free_bits(bits, checks.free_columns(masks)) == []

    bad = copy.deepcopy(out)
    q = int(np.flatnonzero(masks[0])[0])
    s = bad["samples"][7]
    bad["samples"][7] = s[:q] + ("1" if s[q] == "0" else "0") + s[q + 1:]
    assert checks.check_shots(bad, n, masks, signs, 64) == ["shot 7 violates a stabilizer parity"]


def test_free_bit_check_rejects_stuck_bits():
    free = np.arange(5)
    assert checks.check_free_bits(np.zeros((32, 8), np.uint8), free)
    rng = np.random.default_rng(0)
    assert checks.check_free_bits(rng.integers(0, 2, (32, 8)).astype(np.uint8), free) == []


# -- dense side -------------------------------------------------------------------


def test_statevector_check(tmp_path):
    n = 5
    path, text = circuit_file(tmp_path, n, checks.random_word(n, 50, np.random.default_rng(2)))
    out = cli_json(["simulate", "--method", "dense", "--u", workloads.U_HARD, "--circuit", str(path)])
    expected = checks.statevector_probs(text, workloads.U_HARD_MATRIX)
    assert checks.check_probabilities(out, expected) == []
    key = next(iter(out["probabilities"]))
    out["probabilities"][key] += 1e-9
    assert checks.check_probabilities(out, expected)


def test_small_n_cross_checks():
    base = ["--u", workloads.U_MARGINAL, "--random-v", "5", "--seed", "9"]
    dense = workloads.probabilities(cli_json(["simulate", "--method", "dense", *base]))
    outs = {j: cli_json(["marginal", *base, "--qubit", str(j)]) for j in range(5)}
    assert checks.check_marginals_against(dense, outs) == []
    assert all(checks.check_marginal(out, 5, j) == [] for j, out in outs.items())
    outs[2]["p0"] += 1e-6
    assert checks.check_marginals_against(dense, outs)
    assert checks.check_marginal({"n": 5, "qubit": 0, "p0": 1.2, "p1": -0.2}, 5, 0)

    base = ["--u", workloads.U_NEGATED, "--random-v", "4", "--seed", "9"]
    dense = workloads.probabilities(cli_json(["simulate", "--method", "dense", *base]))
    samples = cli_json(["sample", *base, "--samples", "2000"])["samples"]
    assert checks.check_frequencies(samples, dense) == []
    impossible = format(int(np.flatnonzero(dense < 1e-12)[0]), "04b")
    assert checks.check_frequencies(samples[:-1] + [impossible], dense)


# -- anticoncentration, gadgets, compile ------------------------------------------


def test_moment_check():
    out = cli_json(["anticonc", "--n", "3", "--samples", "200", "--u", workloads.U_HARD, "--seed", "4"])
    assert checks.check_moments(out, 3, 200) == []
    shifted = dict(out, mean_p=out["mean_p"] + 10 * out["mean_se"])
    assert checks.check_moments(shifted, 3, 200)
    widened = dict(out, mean_se=out["mean_se"] * 5)
    assert checks.check_moments(widened, 3, 200)
    assert checks.check_second_moment([out] * 4, 3) == []
    inflated = dict(out, mean_p_squared=out["mean_p_squared"] * 1.5)
    assert checks.check_second_moment([inflated] * 4, 3)


def _as_json(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m]


def test_gadget_checks():
    out = cli_json(["gadget", "search", "--u", workloads.U_HARD, "--k", "2"])
    assert checks.check_gadget_search(out, expect_nonempty=True) == []
    assert checks.check_gadget_search({"num_classes": 0, "classes": []}, expect_nonempty=True)
    assert checks.check_gadget_search({"num_classes": 0, "classes": []}, expect_nonempty=False) == []
    assert checks.check_gadget_search(out, expect_nonempty=False)

    t = np.diag([1, np.exp(0.25j * math.pi)])
    for bad in (checks.H, np.array([[1, 0], [0, 2]])):
        listed = {"num_classes": 2, "classes": [{"action": _as_json(t)}, {"action": _as_json(bad)}]}
        assert checks.check_gadget_search(listed, expect_nonempty=True)

    twins = {"classes": [{"action": _as_json(t)}, {"action": _as_json(1j * t)}]}
    assert checks.duplicate_classes(twins) == ["classes 0 and 1 are equal up to phase"]
    assert checks.duplicate_classes({"classes": [{"action": _as_json(t)}, {"action": _as_json(t @ t)}]}) == []


def test_compile_check():
    argv = workloads.COMPILE_ARGS[:-1] + ["6"]
    out = cli_json(["compile", *argv])
    target = checks.rz(math.pi / 4)
    assert checks.check_compile(out, target, workloads.COMPILE_GENERATORS, 6) == []
    assert checks.check_compile(dict(out, distance=out["distance"] + 1e-8), target,
                                workloads.COMPILE_GENERATORS, 6)
    swapped = ["S" if out["word"][0] != "S" else "H"] + out["word"][1:]
    assert checks.check_compile(dict(out, word=swapped), target, workloads.COMPILE_GENERATORS, 6)


def test_j_gadget_matches_the_contraction():
    from cccsim.gadgets import build_gadget_J, gadget_action

    def unit(m):
        return m / np.sqrt(np.linalg.det(m))

    for theta in (0.3, math.pi / 3, 2.0):
        a = gadget_action(build_gadget_J(0.7, theta)).matrix
        assert checks.phase_invariant_distance(unit(a), unit(checks.j_gadget(theta))) < 1e-12


# -- tracer and metric names --------------------------------------------------------


def test_tracer_counts_and_restores(monkeypatch):
    import cccsim.ccc
    import cccsim.stabilizer

    original, main = cccsim.stabilizer.circuit_to_tableau, cli.main
    monkeypatch.setitem(tracing.METRICS, "ccc.no_such_function.calls",
                        ("calls/round", "ccc.no_such_function", "calls"))
    with tracing.Tracer() as tracer:
        assert cccsim.ccc.circuit_to_tableau is not original
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["sample", "--u", "H", "--random-v", "4", "--samples", "3", "--seed", "1"])
    assert cli.main is main
    assert cccsim.ccc.circuit_to_tableau is original and cccsim.stabilizer.circuit_to_tableau is original
    assert tracer.absent == ["ccc.no_such_function"]
    stats = tracer.stats
    assert stats["cli.main"].calls == 1
    assert stats["ccc.simulate_easy_weak"].calls == 3
    assert stats["stabilizer.CliffordTableau.measure"].calls == 12
    assert stats["stabilizer.CliffordTableau.apply"].calls > 0
    assert stats["linalg.apply_gate"].calls == 0
    assert stats["cli.main"].self < stats["cli.main"].total


def test_broken_outputs_and_failing_kinds_make_the_run_incorrect():
    import run

    problems: list[str] = []
    runner = run.Runner(cli, problems)
    kind = workloads.Kind("classify_s", "s")
    elapsed, out = runner.command(workloads.Command(kind, ["classify", "--u", "H"], lambda out: out["missing"]))
    assert out is not None and runner.failed == 0
    assert len(problems) == 1 and "KeyError" in problems[0]

    problems.clear()
    failing = workloads.Command(kind, ["classify", "--u", "bogus"], lambda out: [])
    rounds = [[(kind, *runner.command(failing), None)] for _ in range(3)]
    assert runner.failed == 3
    assert run.kind_medians(rounds, problems)[kind][1] == 3
    assert problems == ["classify_s: no command gave an output"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for trace, declared in ((0, declared_e2e), (1, declared_layer)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "fresh-v", "--seed", "1",
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
