import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccsim import linalg
from cccsim.errors import CapabilityError, InvariantError, ParseError
from cccsim.stabilizer import (
    CliffordCircuit,
    CliffordTableau,
    PauliString,
    circuit_to_tableau,
    compile_measurement,
    conjugate_pauli,
    enumerate_clifford_words,
    parse_circuit,
    random_clifford,
    random_clifford_circuit,
    sample_measurement,
    tableau_to_circuit,
)

LETTERS = "IXYZ"


def pauli_from_letters(word):
    n = len(word)
    p = PauliString.identity(n)
    for q, letter in enumerate(word):
        if letter != "I":
            p = p * PauliString.single(n, letter, q)
    return p


def random_circuit(n, rng, depth=20):
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 3)
        if kind == 2 and n > 1:
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(("CNOT", (int(c), int(t))))
        else:
            gates.append((("H", "S")[kind % 2], (int(rng.integers(0, n)),)))
    return CliffordCircuit.build(n, gates)


# -- Pauli algebra ---------------------------------------------------------------


def test_single_letter_matrices():
    for name in "XYZ":
        p = PauliString.single(1, name, 0)
        assert np.allclose(p.to_matrix(), linalg.GATES[name])


def test_product_phases_on_one_qubit():
    x = PauliString.single(1, "X", 0)
    z = PauliString.single(1, "Z", 0)
    y = PauliString.single(1, "Y", 0)
    assert (x * z).phase == 3  # XZ = -iY
    assert (z * x).phase == 1  # ZX = +iY
    assert np.allclose((x * z).to_matrix(), linalg.GATES["X"] @ linalg.GATES["Z"])
    assert np.allclose((y * y).to_matrix(), np.eye(2))


def test_product_matches_dense_all_pairs():
    for a, b in itertools.product(LETTERS, repeat=2):
        pa, pb = pauli_from_letters(a), pauli_from_letters(b)
        assert np.allclose((pa * pb).to_matrix(), pa.to_matrix() @ pb.to_matrix()), (a, b)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.text(LETTERS, min_size=n, max_size=n),
            st.text(LETTERS, min_size=n, max_size=n),
        )
    )
)
def test_product_matches_dense_random_words(words):
    a, b = words
    pa, pb = pauli_from_letters(a), pauli_from_letters(b)
    assert np.allclose((pa * pb).to_matrix(), pa.to_matrix() @ pb.to_matrix())


def test_commutes_matches_dense():
    for a, b in itertools.product(["XX", "XZ", "ZZ", "YI", "IY", "YZ"], repeat=2):
        pa, pb = pauli_from_letters(a), pauli_from_letters(b)
        ma, mb = pa.to_matrix(), pb.to_matrix()
        dense_commute = np.allclose(ma @ mb, mb @ ma)
        assert pa.commutes(pb) == dense_commute, (a, b)


def test_to_matrix_qubit_order():
    # qubit 0 is the leftmost tensor factor
    p = pauli_from_letters("XI")
    assert np.allclose(p.to_matrix(), np.kron(linalg.GATES["X"], np.eye(2)))


def test_letter_and_str():
    p = pauli_from_letters("IXYZ")
    assert [p.letter(q) for q in range(4)] == ["I", "X", "Y", "Z"]
    assert str(p).endswith("IXYZ")


# -- tableau vs dense ------------------------------------------------------------


def test_conjugation_matches_dense():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            c = random_circuit(n, rng)
            t = circuit_to_tableau(c)
            t.validate()
            u = c.to_unitary()
            word = "".join(rng.choice(list(LETTERS)) for _ in range(n))
            p = pauli_from_letters(word)
            got = conjugate_pauli(t, p)
            assert np.allclose(got.to_matrix(), u @ p.to_matrix() @ u.conj().T)
            back = conjugate_pauli(t, p, inverse=True)
            assert np.allclose(back.to_matrix(), u.conj().T @ p.to_matrix() @ u)


def test_conjugation_inverse_round_trip():
    rng = np.random.default_rng(12)
    c = random_circuit(3, rng)
    t = circuit_to_tableau(c)
    p = pauli_from_letters("XZY")
    back = conjugate_pauli(t, conjugate_pauli(t, p), inverse=True)
    assert back == p


def test_desugared_gates_match_dense():
    for name in ("X", "Y", "Z", "SDG"):
        c = CliffordCircuit.build(1, [(name, (0,))])
        assert linalg.proportional_up_to_phase(
            c.to_unitary(), linalg.GATES[name], unit_factor=True
        ), name
    c = CliffordCircuit.build(2, [("CZ", (0, 1))])
    assert linalg.proportional_up_to_phase(c.to_unitary(), linalg.GATES["CZ"], unit_factor=True)


def test_circuit_inverse_and_then():
    rng = np.random.default_rng(13)
    c = random_circuit(3, rng)
    u = CliffordCircuit(3, c.gates + c.inverse().gates).to_unitary()
    assert linalg.proportional_up_to_phase(u, np.eye(8), unit_factor=True)


def test_build_validates():
    with pytest.raises(ValueError):
        CliffordCircuit.build(2, [("Q", (0,))])
    with pytest.raises(ValueError):
        CliffordCircuit.build(2, [("H", (5,))])
    with pytest.raises(ValueError):
        CliffordCircuit.build(2, [("CNOT", (1, 1))])


# -- measurement -----------------------------------------------------------------


def test_measurement_deterministic_states():
    rng = np.random.default_rng(14)
    t = CliffordTableau.identity(3)
    assert sample_measurement(t, rng) == "000"
    c = CliffordCircuit.build(3, [("X", (1,))])
    t = circuit_to_tableau(c)
    assert sample_measurement(t, rng) == "010"


def test_bell_pair_correlations():
    rng = np.random.default_rng(15)
    c = CliffordCircuit.build(2, [("H", (0,)), ("CNOT", (0, 1))])
    t = circuit_to_tableau(c)
    seen = set()
    for _ in range(200):
        y = sample_measurement(t, rng)
        assert y in ("00", "11")
        seen.add(y)
    assert seen == {"00", "11"}


def test_ghz_correlations():
    rng = np.random.default_rng(16)
    c = CliffordCircuit.build(4, [("H", (0,)), ("CNOT", (0, 1)), ("CNOT", (1, 2)), ("CNOT", (2, 3))])
    t = circuit_to_tableau(c)
    for _ in range(100):
        y = sample_measurement(t, rng)
        assert y in ("0000", "1111")


def test_sampling_matches_dense_distribution():
    rng = np.random.default_rng(17)
    n, draws = 3, 6000
    c = random_circuit(n, rng, depth=25)
    t = circuit_to_tableau(c)
    counts = {}
    for _ in range(draws):
        y = sample_measurement(t, rng)
        counts[y] = counts.get(y, 0) + 1
    amps = c.to_unitary()[:, 0]
    probs = np.abs(amps) ** 2
    tv = 0.5 * sum(
        abs(counts.get(format(i, f"0{n}b"), 0) / draws - probs[i]) for i in range(2**n)
    )
    assert tv < 0.05, tv


def test_measurement_collapses_tableau_state():
    # measuring twice in a row must agree qubit by qubit
    rng = np.random.default_rng(18)
    c = random_circuit(4, rng, depth=30)
    for _ in range(20):
        t = circuit_to_tableau(c)
        first = [t.measure(q, rng) for q in range(4)]
        t.validate()
        second = [t.measure(q, rng) for q in range(4)]
        assert first == second


def _oracle_and_compiled(t, seed, shots):
    oracle_rng, draw_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sampler = compile_measurement(t)
    oracle = [sample_measurement(t, oracle_rng) for _ in range(shots)]
    compiled = [sampler.draw(draw_rng) for _ in range(shots)]
    # both generators must also stand at the same point afterwards
    return oracle + [oracle_rng.integers(2**62)], compiled + [draw_rng.integers(2**62)]


def test_compiled_sampler_matches_sample_measurement():
    rng = np.random.default_rng(40)
    for n in range(1, 13):
        for t in (random_clifford(n, rng), circuit_to_tableau(random_circuit(n, rng, depth=3 * n))):
            for seed in range(3):
                oracle, compiled = _oracle_and_compiled(t, seed, 8)
                assert oracle == compiled, (n, seed)


def test_compiled_sampler_matches_past_the_dense_cap():
    n = 200
    assert n > linalg.dense_cap()
    rng = np.random.default_rng(41)
    ghz = CliffordCircuit.build(n, [("H", (0,))] + [("CNOT", (q, q + 1)) for q in range(n - 1)])
    for t in (
        random_clifford(n, rng),
        circuit_to_tableau(CliffordCircuit(n, ghz.gates + random_circuit(n, rng, 300).gates)),
    ):
        oracle, compiled = _oracle_and_compiled(t, 42, 3)
        assert oracle == compiled


def test_compiled_sampler_terms():
    # GHZ: the first bit is a coin and every other bit repeats it
    c = CliffordCircuit.build(3, [("H", (0,)), ("CNOT", (0, 1)), ("CNOT", (1, 2)), ("X", (2,))])
    sampler = compile_measurement(circuit_to_tableau(c))
    assert sampler.terms == (None, (0, 1), (1, 1))
    rng = np.random.default_rng(43)
    assert {sampler.draw(rng) for _ in range(50)} == {"001", "110"}


# -- invariants -------------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_gate_words_keep_the_tableau_valid(n, seed):
    rng = np.random.default_rng(seed)
    t = circuit_to_tableau(random_circuit(n, rng, depth=40))
    t.validate()
    for q in range(n):
        t.measure(q, rng)
        t.validate()


def test_validate_rejects_broken_tableaux():
    # destabilizer 1 equals destabilizer 0: the pairing is broken
    broken = CliffordTableau.from_rows(2, [1, 1, 0, 0], [0, 0, 1, 2])
    with pytest.raises(InvariantError):
        broken.validate()
    # +iZ_0 as a stabilizer is not Hermitian
    t = CliffordTableau.from_rows(1, [1, 0], [0, 1], [0, 1])
    with pytest.raises(InvariantError):
        t.validate()
    CliffordTableau.from_rows(1, [1, 0], [0, 1], [2, 2]).validate()


def test_tableau_to_circuit_raises_a_typed_error():
    broken = CliffordTableau.from_rows(2, [1, 1, 0, 0], [0, 0, 1, 2])
    with pytest.raises(InvariantError):
        tableau_to_circuit(broken)


def test_from_rows_matches_rows():
    rng = np.random.default_rng(44)
    t = random_clifford(4, rng)
    rows = [t.row(i) for i in range(8)]
    again = CliffordTableau.from_rows(4, [r.x for r in rows], [r.z for r in rows], [r.phase for r in rows])
    assert again == t
    with pytest.raises(ValueError):
        CliffordTableau.from_rows(2, [1, 2], [0, 0])


# -- synthesis and inversion -----------------------------------------------------


def test_synthesis_round_trip_exact():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            t = random_clifford(n, rng)
            t.validate()
            back = circuit_to_tableau(tableau_to_circuit(t))
            back.validate()
            assert back == t, n


def test_compiled_support_is_the_dense_support():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5):
        for _ in range(6):
            c = random_circuit(n, rng, depth=6 * n)
            probs = np.abs(c.to_unitary()[:, 0]) ** 2
            support = compile_measurement(circuit_to_tableau(c)).support()
            assert sorted(support) == list(np.flatnonzero(probs > 1e-12))
            assert np.allclose(probs[support], 1.0 / len(support))


@pytest.mark.parametrize("n", [1, 2, 5, 12, 70])
def test_prepend_layer_matches_replaying_the_layer_first(n):
    rng = np.random.default_rng(20 + n)
    word = random_circuit(n, rng, depth=4 * n)
    for name in ("H", "S", "X"):
        t = circuit_to_tableau(word)
        t.prepend_layer(name)
        t.validate()
        layer = CliffordCircuit.build(n, [(name, (q,)) for q in range(n)])
        assert t == circuit_to_tableau(CliffordCircuit(n, layer.gates + word.gates)), name
    with pytest.raises(ValueError):
        t.prepend_layer("CNOT")


def test_conjugation_inverse_past_the_dense_cap():
    rng = np.random.default_rng(22)
    n = 80
    t = random_clifford(n, rng)
    inverse = circuit_to_tableau(tableau_to_circuit(t).inverse())
    for _ in range(10):
        x, z = (int(v) for v in rng.integers(0, 2**62, size=2))
        p = PauliString(n, x << 18, z, int(rng.integers(4)))
        assert conjugate_pauli(t, p, inverse=True) == conjugate_pauli(inverse, p)


def test_random_clifford_circuit_matches_tableau():
    rng1 = np.random.default_rng(21)
    rng2 = np.random.default_rng(21)
    t = random_clifford(3, rng1)
    c = random_clifford_circuit(3, rng2)
    assert circuit_to_tableau(c) == t


# -- group counting and uniformity -----------------------------------------------


def test_enumerate_clifford_words_counts():
    words1 = enumerate_clifford_words(1)
    keys1 = {circuit_to_tableau(CliffordCircuit.build(1, w)).key() for w in words1}
    assert len(words1) == len(keys1) == 24
    with pytest.raises(CapabilityError):
        enumerate_clifford_words(3)


@pytest.mark.slow
def test_enumerate_clifford_words_two_qubits():
    words2 = enumerate_clifford_words(2)
    keys2 = {circuit_to_tableau(CliffordCircuit.build(2, w)).key() for w in words2}
    assert len(words2) == len(keys2) == 11520


def test_random_clifford_hits_every_single_qubit_class():
    rng = np.random.default_rng(22)
    counts = {}
    draws = 3000
    for _ in range(draws):
        key = random_clifford(1, rng).key()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    expected = draws / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 23 dof: mean 23, sd ~6.8; anything under 60 is unremarkable
    assert chi2 < 60, chi2


@pytest.mark.slow
def test_random_clifford_uniform_single_qubit():
    rng = np.random.default_rng(23)
    counts = {}
    draws = 100_000
    for _ in range(draws):
        key = random_clifford(1, rng).key()
        counts[key] = counts.get(key, 0) + 1
    expected = draws / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 5 sigma above the 23-dof mean
    assert chi2 < 23 + 5 * math.sqrt(46), chi2


@pytest.mark.slow
def test_random_clifford_covers_two_qubit_group():
    rng = np.random.default_rng(24)
    seen = set()
    for _ in range(200_000):
        seen.add(random_clifford(2, rng).key())
    assert len(seen) == 11520


# -- text format -----------------------------------------------------------------


def test_parse_and_to_text_round_trip():
    text = "qubits 3\n# a comment\nH 0\nCNOT 0 2\nS 1\nCZ 1 2\n"
    c = parse_circuit(text)
    again = parse_circuit(c.to_text())
    assert again.gates == c.gates and again.n == 3


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "H 0\n",  # missing header
        "qubits x\nH 0\n",
        "qubits 2\nH\n",
        "qubits 2\nH 0 1\n",
        "qubits 2\nNOPE 0\n",
        "qubits 2\nCNOT 0 5\n",
    ],
)
def test_parse_circuit_rejects(bad):
    with pytest.raises(ParseError):
        parse_circuit(bad)


@pytest.mark.parametrize(
    "line, message",
    [("CNOT 0 5", "qubit 5 out of range"), ("H 0 1", "H takes one qubit"),
     ("CZ 1 1", "CZ takes two distinct qubits"), ("nope 0", "unknown gate 'NOPE'")],
)
def test_parse_errors_name_their_line(line, message):
    with pytest.raises(ParseError, match=f"^line 4: {message}"):
        parse_circuit(f"qubits 2\n# comment\nH 0\n{line}\nS 1\n")


def test_parse_matches_build():
    text = "qubits 3\nh 0\nCNOT 0 2\nX 1\ny 2\nZ 0\nSDG 1\nCZ 2 0\nS 2\n"
    gates = [tuple(line.split()) for line in text.splitlines()[1:]]
    built = CliffordCircuit.build(3, [(g[0], tuple(map(int, g[1:]))) for g in gates])
    assert parse_circuit(text) == built


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_synthesized_circuit_uses_generator_gates_only(seed):
    rng = np.random.default_rng(seed)
    c = tableau_to_circuit(random_clifford(2, rng))
    assert all(name in ("H", "S", "CNOT") for name, _ in c.gates)
