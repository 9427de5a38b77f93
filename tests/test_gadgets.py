import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracles
from cccsim import gadgets, linalg
from cccsim.ccc import classify, decompose_unitary
from cccsim.errors import CapabilityError, ParseError
from cccsim.gadgets import (
    Gadget,
    WORD_LENGTH_CAP,
    build_gadget_I,
    build_gadget_J,
    compile_word,
    gadget_action,
    gadget_I_closed_form,
    gadget_J_closed_form,
    parse_gadget_file,
    search_gadgets,
)
from cccsim.stabilizer import CliffordCircuit, enumerate_clifford_words

THETA_GRID = [k * math.pi / 6 for k in range(-6, 7)] + [0.3, 1.234]
PHI_GRID = [k * math.pi / 4 for k in range(-4, 5)] + [0.7, 2.1]


def halfpi_odd(x):
    r = x / (math.pi / 2)
    return abs(r - round(r)) < 1e-9 and round(r) % 2 == 1


def halfpi(x):
    r = x / (math.pi / 2)
    return abs(r - round(r)) < 1e-9


# -- contraction vs closed forms ---------------------------------------------------


def test_gadget_I_contraction_matches_closed_form():
    for phi in PHI_GRID:
        for theta in THETA_GRID:
            action = gadget_action(build_gadget_I(phi, theta))
            assert np.max(np.abs(action.matrix - gadget_I_closed_form(phi, theta))) < 1e-12


def test_gadget_J_contraction_matches_closed_form():
    for phi in (0.0, 0.9):
        for theta in THETA_GRID:
            action = gadget_action(build_gadget_J(phi, theta))
            assert np.max(np.abs(action.matrix - gadget_J_closed_form(theta))) < 1e-12


def test_gadget_I_determinant():
    for theta in THETA_GRID:
        a = gadget_I_closed_form(0.7, theta)
        assert abs(np.linalg.det(a) - (-math.sin(theta) ** 2 / 2)) < 1e-12


def test_gadget_J_determinant():
    for theta in THETA_GRID:
        a = gadget_J_closed_form(theta)
        det = np.linalg.det(a)
        assert abs(det.imag) < 1e-12
        assert abs(det.real - (1 + math.cos(theta) ** 2) / 2) < 1e-12


def test_gadget_I_unitary_exactly_on_odd_half_pi():
    for theta in THETA_GRID:
        action = gadget_action(build_gadget_I(0.7, theta))
        assert action.is_unitary == halfpi_odd(theta), theta
        if action.is_unitary:
            assert math.isclose(action.gamma, 0.5)  # postselection succeeds half the time


def test_gadget_I_clifford_iff_phi_on_half_pi_lattice():
    for phi in PHI_GRID:
        action = gadget_action(build_gadget_I(phi, math.pi / 2))
        assert action.is_clifford == halfpi(phi), phi


def test_gadget_I_normalized_action_at_odd_half_pi():
    # A ~ (1/sqrt 2) [[1, i s e^{-i phi}], [-i s e^{i phi}, -1]] with s = (-1)^k
    for k in (0, 1, 2, -1):
        theta = (2 * k + 1) * math.pi / 2
        phi = 0.9
        s = (-1) ** k
        expected = np.array(
            [
                [1, 1j * s * np.exp(-1j * phi)],
                [-1j * s * np.exp(1j * phi), -1],
            ]
        ) / math.sqrt(2)
        a = gadget_action(build_gadget_I(phi, theta)).matrix
        assert linalg.proportional_up_to_phase(a, expected), k


def test_gadget_J_always_unitary_up_to_scale():
    for theta in THETA_GRID:
        action = gadget_action(build_gadget_J(0.0, theta))
        assert action.is_unitary
        assert math.isclose(action.gamma, (1 + math.cos(theta) ** 2) / 2, abs_tol=1e-12)
        assert action.is_clifford == halfpi(theta), theta


def test_gadget_J_normalized_action_is_a_z_rotation():
    for theta in (0.3, 1.0, 2.5, -0.8):
        a = linalg.normalized_action(gadget_J_closed_form(theta))
        expected = linalg.GATES["SDG"] @ linalg.rz(2 * math.atan(math.cos(theta)))
        assert linalg.proportional_up_to_phase(a, expected, tol=1e-9), theta


# The two match_pauli_string tests keep their names; the routine is gone, and their
# inputs now check linalg.is_clifford, the one Clifford-membership predicate.


def test_match_pauli_string_single_qubit():
    for name in ("X", "Y", "Z"):
        for phase in range(4):
            assert linalg.is_clifford(1j**phase * linalg.GATES[name]), (name, phase)


def test_match_pauli_string_rejects_non_paulis():
    # non-Paulis are not all non-Cliffords: H and 0.5X (Clifford up to scale) pass
    assert linalg.is_clifford(linalg.GATES["H"])
    assert linalg.is_clifford(0.5 * linalg.GATES["X"])
    assert not linalg.is_clifford(linalg.GATES["T"])
    assert not linalg.is_clifford(linalg.rz(3e-9))  # past the 1e-9 tolerance
    assert not linalg.is_clifford(np.zeros((2, 2), dtype=complex))


def test_pauli_conjugation_test_three_ways():
    def verdict(a):
        if not linalg.is_unitary_up_to_scale(a):
            return "NON_UNITARY"
        return "CLIFFORD" if linalg.is_clifford(a) else "UNITARY_NON_CLIFFORD"

    assert verdict(gadget_I_closed_form(0.7, 0.4)) == "NON_UNITARY"
    assert verdict(gadget_I_closed_form(0.7, math.pi / 2)) == "UNITARY_NON_CLIFFORD"
    assert verdict(gadget_I_closed_form(math.pi, math.pi / 2)) == "CLIFFORD"
    assert verdict(gadget_J_closed_form(math.pi / 2)) == "CLIFFORD"
    assert verdict(gadget_J_closed_form(math.pi / 3)) == "UNITARY_NON_CLIFFORD"
    assert verdict(0.5 * linalg.GATES["H"]) == "CLIFFORD"
    assert verdict(np.eye(4)) == "CLIFFORD"  # any 2^l x 2^l action, l = 2 here
    with pytest.raises(ValueError):
        linalg.is_clifford(np.eye(3))
    with pytest.raises(ValueError):
        linalg.is_clifford(np.ones((2, 3)))


# -- gadget plumbing -----------------------------------------------------------------


def test_gadget_wire_bookkeeping():
    g_i = build_gadget_I(0.1, 0.2)
    assert g_i.ancilla_wires == (1,)
    assert g_i.output_wires == (1,)
    assert not g_i.postselects_only_ancillas  # it postselects the input wire
    g_j = build_gadget_J(0.1, 0.2)
    assert g_j.output_wires == (0,)
    assert g_j.postselects_only_ancillas


def test_gadget_validation():
    u = linalg.GATES["H"]
    cz = CliffordCircuit.build(2, [("CZ", (0, 1))])
    with pytest.raises(ValueError):
        Gadget(2, 2, u, (), cz, (), ())  # l must be < k
    with pytest.raises(ValueError):
        Gadget(2, 1, u, (0, 1), cz, (0,), (0,))  # too many ancilla bits
    with pytest.raises(ValueError):
        Gadget(2, 1, u, (0,), cz, (0, 1), (0, 0))  # postselect set too big
    with pytest.raises(ValueError):
        Gadget(2, 1, u, (0,), cz, (5,), (0,))  # wire out of range
    with pytest.raises(ValueError):
        Gadget(2, 1, u, (0,), CliffordCircuit.build(3, []), (0,), (0,))  # width


def test_gadget_action_wire_cap():
    k = 13
    g = Gadget(
        k,
        1,
        linalg.GATES["H"],
        (0,) * (k - 1),
        CliffordCircuit.build(k, []),
        tuple(range(1, k)),
        (0,) * (k - 1),
    )
    with pytest.raises(CapabilityError):
        gadget_action(g)


def _kron_wires(k: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """The k-wire operator with the given one-wire factors, identity elsewhere."""
    m = np.eye(1, dtype=complex)
    for w in range(k):
        m = np.kron(m, factors.get(w, np.eye(2)))
    return m


def _kron_sandwich(g: Gadget) -> np.ndarray:
    """<b| (U-dagger on the postselected wires) Gamma (U on the ancillas) |in>,
    with Gamma multiplied out gate by gate as Kronecker products."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    gamma = np.eye(2**g.k, dtype=complex)
    for name, qubits in g.gamma.gates:
        if name == "CNOT":
            c, t = qubits
            m = _kron_wires(g.k, {c: p0}) + _kron_wires(g.k, {c: p1, t: linalg.GATES["X"]})
        else:
            m = _kron_wires(g.k, {qubits[0]: linalg.GATES[name]})
        gamma = m @ gamma
    full = (
        _kron_wires(g.k, dict.fromkeys(g.postselect_set, g.u.conj().T))
        @ gamma
        @ _kron_wires(g.k, dict.fromkeys(g.ancilla_wires, g.u))
    )
    dim = 2**g.l
    post = dict(zip(g.postselect_set, g.postselect_bits))
    a = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        bits_in = [i >> (g.l - 1 - w) & 1 for w in range(g.l)] + list(g.ancilla_bits)
        col = int("".join(map(str, bits_in)), 2)
        for o in range(dim):
            out = dict(zip(g.output_wires, (o >> (g.l - 1 - j) & 1 for j in range(g.l))))
            row = int("".join(str(post[w] if w in post else out[w]) for w in range(g.k)), 2)
            a[o, i] = full[row, col]
    return a


def test_gadget_action_matches_the_kron_sandwich():
    gamma = CliffordCircuit.build(
        3, [("H", (0,)), ("CNOT", (0, 2)), ("S", (2,)), ("CZ", (1, 2)), ("H", (1,)), ("CNOT", (2, 0))]
    )
    for u in (linalg.rz(math.pi / 3) @ linalg.rx(math.pi / 2), linalg.rz(0.4) @ linalg.rx(1.3)):
        gadgets = [
            Gadget(3, 2, u, (1,), gamma, (2,), (0,)),
            Gadget(3, 2, u, (0,), gamma, (1,), (1,)),  # postselects input wire 1
            Gadget(3, 1, u, (1, 0), gamma, (0, 2), (1, 0)),  # postselects input wire 0
        ]
        for g in gadgets:
            assert np.max(np.abs(gadget_action(g).matrix - _kron_sandwich(g))) < 1e-12


def test_gadget_action_respects_the_dense_cap(monkeypatch):
    monkeypatch.setenv(linalg.DENSE_CAP_ENV, "1")
    with pytest.raises(CapabilityError, match="cap of 1"):
        gadget_action(build_gadget_J(0.0, 0.7))


def test_postselect_bit_changes_the_action():
    a0 = gadget_action(build_gadget_I(0.3, 0.9)).matrix
    flipped = Gadget(
        2,
        1,
        linalg.rz(0.3) @ linalg.rx(0.9),
        (0,),
        CliffordCircuit.build(2, [("CZ", (0, 1))]),
        (0,),
        (1,),
    )
    a1 = gadget_action(flipped).matrix
    assert not linalg.proportional_up_to_phase(a0, a1)


# -- file format ---------------------------------------------------------------------


GADGET_I_TEXT = """\
gadget k=2 l=1
ancilla 0
post wire=0 bit=0
qubits 2
CZ 0 1
"""


def test_parse_gadget_file_round_trip():
    u = linalg.rz(0.7) @ linalg.rx(math.pi / 2)
    g = parse_gadget_file(GADGET_I_TEXT, u)
    built = build_gadget_I(0.7, math.pi / 2, u=u)
    assert g.k == 2 and g.l == 1
    assert g.ancilla_bits == built.ancilla_bits
    assert g.postselect_set == built.postselect_set
    assert np.allclose(
        gadget_action(g).matrix, gadget_action(built).matrix
    )


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("gadget k=2 l=1", "gadget k=2"),
        lambda t: t.replace("ancilla 0\n", ""),
        lambda t: t.replace("post wire=0 bit=0\n", ""),
        lambda t: t.replace("wire=0", "wire=7"),
        lambda t: t.replace("qubits 2", "qubits 3"),
        lambda t: t.replace("ancilla 0", "ancilla 2"),
        lambda t: "junk\n" + t,
    ],
)
def test_parse_gadget_file_rejects(mutation):
    with pytest.raises(ParseError):
        parse_gadget_file(mutation(GADGET_I_TEXT), linalg.GATES["H"])


# -- search --------------------------------------------------------------------------


def case_iv_u():
    return linalg.rz(math.pi / 5) @ linalg.rx(math.pi / 3)


def test_search_finds_witnesses_for_case_iv():
    u = case_iv_u()
    found = search_gadgets(u, 2)
    assert found
    for gadget, action in found:
        assert action.is_unitary and not action.is_clifford
        assert gadget.k == 2 and gadget.l == 1
    # the J-gadget action must be among the discovered classes
    target = linalg.normalized_action(gadget_action(build_gadget_J(0, math.pi / 3)).matrix)
    hits = [
        g
        for g, a in found
        if linalg.proportional_up_to_phase(linalg.normalized_action(a.matrix), target, tol=1e-6)
    ]
    assert hits
    # both postselection styles reach every class: a SWAP after Gamma turns
    # the listed gadget into one that postselects only its ancilla, with the
    # same action (the catalogue lists each class once)
    swap = [("CNOT", (0, 1)), ("CNOT", (1, 0)), ("CNOT", (0, 1))]
    for g, a in found:
        mirror = Gadget(
            2, 1, u, g.ancilla_bits, CliffordCircuit.build(2, [*g.gamma.gates, *swap]),
            (1 - g.postselect_set[0],), g.postselect_bits,
        )
        assert mirror.postselects_only_ancillas != g.postselects_only_ancillas
        assert np.allclose(gadget_action(mirror).matrix, a.matrix, atol=1e-12)


def test_search_finds_witnesses_for_case_iii():
    u = linalg.rz(math.pi / 3) @ linalg.rx(math.pi / 2)
    assert classify(decompose_unitary(u)).complexity_class == "PH_SUPREME"
    assert search_gadgets(u, 2)


def test_search_classes_are_distinct_up_to_phase():
    # keys that told -0.0 from 0.0 once split these 1152 classes into 3308
    u = linalg.rz(math.pi / 3) @ linalg.rx(math.pi / 2)
    found = search_gadgets(u, 2)
    assert len(found) == 1152
    flat = np.stack([a.matrix.reshape(-1) for _, a in found])
    flat /= np.linalg.norm(flat, axis=1)[:, None]
    overlap = np.abs(flat.conj() @ flat.T)
    np.fill_diagonal(overlap, 0.0)
    assert overlap.max() <= 1 - 1e-9


def test_search_empty_for_easy_unitaries():
    for u in (linalg.GATES["H"], linalg.GATES["T"], linalg.rz(0.9)):
        assert search_gadgets(u, 2) == []


def test_search_matches_classification_verdict():
    # non-empty exactly when the conjugating unitary is in a hard case
    for u in (case_iv_u(), linalg.GATES["S"], linalg.rz(math.pi / 4) @ linalg.rx(math.pi / 2)):
        verdict = classify(decompose_unitary(u))
        found = search_gadgets(u, 2)
        assert bool(found) == (verdict.complexity_class == "PH_SUPREME")


def test_search_is_deterministic():
    # a search with another U in between: the shared table carries nothing of U
    u = case_iv_u()
    first = search_gadgets(u, 2)
    assert search_gadgets(linalg.GATES["H"], 2) == []
    second = search_gadgets(u, 2)
    assert len(first) == len(second)
    for (g1, a1), (g2, a2) in zip(first, second):
        assert np.array_equal(a1.matrix, a2.matrix)
        assert g1.gamma.gates == g2.gamma.gates


def test_search_capability_boundaries():
    u = case_iv_u()
    with pytest.raises(ValueError):
        search_gadgets(u, 1)
    with pytest.raises(CapabilityError):
        search_gadgets(u, 3)
    with pytest.raises(ValueError):
        search_gadgets(u, 4)


@pytest.mark.parametrize(
    "u",
    [np.eye(3), np.ones((2, 3)), np.array([[1, 0], [0, 0.5]]), np.zeros((2, 2)), np.eye(4)],
)
def test_search_rejects_a_u_that_is_not_a_2x2_unitary(u):
    with pytest.raises(ValueError, match="U must be a 2x2 unitary"):
        search_gadgets(u, 2)


# -- the two-qubit Clifford table the search shares ----------------------------------


def test_clifford_table_words_are_the_enumeration_in_order():
    words, _ = gadgets._clifford_table()
    assert isinstance(words, tuple)
    assert list(words) == enumerate_clifford_words(2)


def test_clifford_table_matches_the_word_by_word_products():
    words, mats = gadgets._clifford_table()
    assert mats.shape == (11520, 4, 4)
    assert np.array_equal(mats, oracles.word_unitaries(words))


def test_clifford_table_is_read_only_and_built_once():
    words, mats = gadgets._clifford_table()
    with pytest.raises(ValueError):
        mats[0, 0, 0] = 2.0
    again = gadgets._clifford_table()
    assert again[0] is words and again[1] is mats


def test_clifford_table_is_not_built_outside_a_search():
    # in a fresh process: tests run earlier in this one may have filled the cache
    script = textwrap.dedent(
        """
        import contextlib, io
        import cccsim.cli
        from cccsim import gadgets
        with contextlib.redirect_stdout(io.StringIO()):
            cccsim.cli.main(["sample", "--u", "H", "--random-v", "8", "--samples", "2"])
        print(gadgets._clifford_table.cache_info().currsize)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# -- word compilation ----------------------------------------------------------------


def test_compile_word_exact_targets():
    h, s = linalg.GATES["H"], linalg.GATES["S"]
    word, dist = compile_word(h, [h, s], 3)
    assert dist < 1e-12 and word == (0,)
    word, dist = compile_word(linalg.GATES["X"], [h, s], 6)
    assert dist < 1e-12
    assert [(h, s)[i] for i in word]  # indices are valid
    acc = np.eye(2)
    for i in word:
        acc = (h, s)[i] @ acc
    assert linalg.phase_invariant_distance(acc, linalg.GATES["X"]) < 1e-12


def test_compile_word_improves_with_budget():
    target = linalg.rz(math.pi / 4)
    gens = [
        linalg.GATES["H"],
        linalg.GATES["S"],
        linalg.normalized_action(gadget_J_closed_form(math.pi / 3)),
    ]
    _, short = compile_word(target, gens, 4)
    _, long = compile_word(target, gens, 12)
    assert long <= short + 1e-12
    assert long < 0.01, long
    assert short > 0.05  # the short budget genuinely cannot reach it
    # deterministic search: these distances are exact reruns
    assert math.isclose(short, 0.07093364769074777, abs_tol=1e-9)
    assert math.isclose(long, 0.004964357976787501, abs_tol=1e-9)


def test_compile_word_validates():
    h = linalg.GATES["H"]
    with pytest.raises(ValueError):
        compile_word(h, [], 4)
    with pytest.raises(ValueError):
        compile_word(np.eye(3), [h], 4)
    with pytest.raises(ValueError):
        compile_word(h, [np.array([[1, 0], [0, 0.5]])], 4)
    with pytest.raises(CapabilityError):
        compile_word(h, [h], WORD_LENGTH_CAP + 1)
