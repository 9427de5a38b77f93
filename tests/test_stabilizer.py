import copy
import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccsim import linalg, stabilizer
from cccsim.errors import CapabilityError, InvariantError, ParseError
from cccsim.stabilizer import (
    CliffordCircuit,
    CliffordTableau,
    PauliString,
    apply_canonical_forms,
    canonical_forms,
    compile_measurement,
    enumerate_clifford_words,
    parse_circuit,
    parse_tableau,
    pull_back_pauli,
    random_clifford,
    random_cliffords,
    stack,
)
import oracles
from oracles import (
    apply_word,
    circuit_to_tableau,
    commutes,
    draw,
    from_rows,
    inverse,
    measure,
    pauli_matrix,
    pauli_product,
    proportional_up_to_phase,
    random_clifford_circuit,
    sample_measurement,
    tableau_to_circuit,
    to_unitary,
)

LETTERS = "IXYZ"


def pauli_from_letters(word):
    n = len(word)
    p = PauliString(n, 0, 0)
    for q, letter in enumerate(word):
        if letter != "I":
            p = pauli_product(p, PauliString.single(n, letter, q))
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
        assert np.allclose(pauli_matrix(p), linalg.GATES[name])


def test_product_phases_on_one_qubit():
    x = PauliString.single(1, "X", 0)
    z = PauliString.single(1, "Z", 0)
    y = PauliString.single(1, "Y", 0)
    assert pauli_product(x, z).phase == 3  # XZ = -iY
    assert pauli_product(z, x).phase == 1  # ZX = +iY
    assert np.allclose(pauli_matrix(pauli_product(x, z)), linalg.GATES["X"] @ linalg.GATES["Z"])
    assert np.allclose(pauli_matrix(pauli_product(y, y)), np.eye(2))


def test_product_matches_dense_all_pairs():
    for a, b in itertools.product(LETTERS, repeat=2):
        pa, pb = pauli_from_letters(a), pauli_from_letters(b)
        assert np.allclose(pauli_matrix(pauli_product(pa, pb)), pauli_matrix(pa) @ pauli_matrix(pb)), (a, b)


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
    assert np.allclose(pauli_matrix(pauli_product(pa, pb)), pauli_matrix(pa) @ pauli_matrix(pb))


def test_commutes_matches_dense():
    for a, b in itertools.product(["XX", "XZ", "ZZ", "YI", "IY", "YZ"], repeat=2):
        pa, pb = pauli_from_letters(a), pauli_from_letters(b)
        ma, mb = pauli_matrix(pa), pauli_matrix(pb)
        dense_commute = np.allclose(ma @ mb, mb @ ma)
        assert commutes(pa, pb) == dense_commute, (a, b)


def test_to_matrix_qubit_order():
    # qubit 0 is the leftmost tensor factor
    p = pauli_from_letters("XI")
    assert np.allclose(pauli_matrix(p), np.kron(linalg.GATES["X"], np.eye(2)))


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
            u = to_unitary(c)
            word = "".join(rng.choice(list(LETTERS)) for _ in range(n))
            p = pauli_from_letters(word)
            back = pull_back_pauli(t, p)
            assert np.allclose(pauli_matrix(back), u.conj().T @ pauli_matrix(p) @ u)


def test_conjugation_inverse_round_trip():
    # pulled back through V, then through V-dagger, p comes back exactly
    rng = np.random.default_rng(12)
    c = random_circuit(3, rng)
    t, t_inv = circuit_to_tableau(c), circuit_to_tableau(inverse(c))
    p = pauli_from_letters("XZY")
    assert pull_back_pauli(t_inv, pull_back_pauli(t, p)) == p


def test_gate_table_names_the_circuit_format():
    # the table's names are exactly the Clifford names the format accepts,
    # each as wide as its matrix in linalg.GATES and conjugating Paulis as it does
    assert set(stabilizer.CLIFFORD_GATES) <= set(linalg.GATES)
    for name in [*linalg.GATES, "NOPE"]:
        if name not in stabilizer.CLIFFORD_GATES:
            with pytest.raises(ParseError, match=f"unknown gate '{name}'"):
                parse_circuit(f"qubits 2\n{name} 0\n")
            continue
        arity = len(linalg.GATES[name]).bit_length() - 1
        qubits = (1, 0)[:arity]
        c = parse_circuit(f"qubits 2\n{name.lower()} {' '.join(map(str, qubits))}\n")
        assert c.gates == ((name, qubits),)
        with pytest.raises(ParseError, match=f"{name} takes"):
            parse_circuit(f"qubits 2\n{name} {'0' if arity == 2 else '0 1'}\n")
        t = circuit_to_tableau(c)
        for x, z, phase in itertools.product(range(4), range(4), range(4)):
            p = PauliString(2, x, z, phase)
            assert pull_back_pauli(t, p) == oracles.pull_back(c.gates, p), (name, str(p))


def test_circuit_inverse_and_then():
    rng = np.random.default_rng(13)
    c = random_circuit(3, rng)
    u = to_unitary(CliffordCircuit(3, c.gates + inverse(c).gates))
    assert proportional_up_to_phase(u, np.eye(8), unit_factor=True)


def test_build_validates():
    with pytest.raises(ValueError):
        CliffordCircuit.build(2, [("Q", (0,))])
    with pytest.raises(ValueError):
        CliffordCircuit.build(2, [("H", (5,))])
    with pytest.raises(ValueError):
        CliffordCircuit.build(2, [("CNOT", (1, 1))])


@pytest.mark.parametrize(
    "name, qubits, message",
    [("Q", (0,), "unknown gate 'Q'"), ("H", (-1,), "qubit -1 out of range in H for n=3"),
     ("S", (3,), "qubit 3 out of range in S for n=3"), ("H", (0, 1), "H takes one qubit, got 2"),
     ("CZ", (1,), "CZ takes two qubits, got 1"), ("CNOT", (2, 2), "CNOT takes two distinct qubits"),
     ("CZ", (0, 0), "CZ takes two distinct qubits")],
)
def test_tableau_apply_checks_its_gate(name, qubits, message):
    t = random_clifford(3, np.random.default_rng(5))
    before = t.key()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        t.apply(name, qubits)
    assert t.key() == before


def test_tableau_is_unhashable():
    # a tableau is mutable and compares by content; key() is its hashable snapshot
    t = CliffordTableau.identity(2)
    with pytest.raises(TypeError):
        hash(t)
    assert t == CliffordTableau.identity(2) and {t.key()} == {CliffordTableau.identity(2).key()}


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
    amps = to_unitary(c)[:, 0]
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
        first = [measure(t, q, rng) for q in range(4)]
        t.validate()
        second = [measure(t, q, rng) for q in range(4)]
        assert first == second


def _oracle_and_compiled(t, seed, shots):
    oracle_rng, draw_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sampler = compile_measurement(t)
    oracle = [sample_measurement(t, oracle_rng) for _ in range(shots)]
    compiled = sampler.draw_many(draw_rng, shots)
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


def _hadamard_frame(n, rng, mixing, core):
    """The easy route's tableau for U = H on V = W M W^-1: an H layer, then
    V as a random word over all eight gates (so X, Y and Z flip signs), then
    an H layer.  A short core M leaves many bits fixed, each a product of
    many stabilizers."""
    names = list(stabilizer.CLIFFORD_GATES)

    def word(length):
        gates = []
        for _ in range(length):
            name = names[rng.integers(len(names))]
            qubits = rng.choice(n, size=len(linalg.GATES[name]).bit_length() - 1, replace=False)
            gates.append((name, tuple(map(int, qubits))))
        return gates

    w = word(mixing)
    undo = [({"S": "SDG", "SDG": "S"}.get(name, name), qubits) for name, qubits in reversed(w)]
    layer = [("H", (q,)) for q in range(n)]
    return circuit_to_tableau(CliffordCircuit.build(n, layer + w + word(core) + undo + layer))


@pytest.mark.parametrize("n", [64, 200])
def test_compiled_signs_of_long_products(n):
    # each fixed bit's sign is the sign of a product of stabilizers; the
    # oracle measures qubit by qubit and multiplies rows through _row_product
    rng = np.random.default_rng(n)
    t = _hadamard_frame(n, rng, 20 * n, n // 2)
    sampler = compile_measurement(t)
    assert {term[0] for term in sampler.terms if term} == {0, 1}
    coins = [q for q, term in enumerate(sampler.terms) if term is None]
    members = []
    for q, term in enumerate(sampler.terms):
        if term:
            # V-dagger Z^z V = +/- Z at the stabilizers whose product is Z^z
            z = 1 << q | sum(1 << c for k, c in enumerate(coins) if term[1] >> k & 1)
            members.append(pull_back_pauli(t, PauliString(n, 0, z)).z.bit_count())
    assert max(members) >= 8
    oracle, compiled = _oracle_and_compiled(t, 44, 3)
    assert oracle == compiled


def test_compiled_sampler_terms():
    # GHZ: the first bit is a coin and every other bit repeats it
    c = CliffordCircuit.build(3, [("H", (0,)), ("CNOT", (0, 1)), ("CNOT", (1, 2)), ("X", (2,))])
    sampler = compile_measurement(circuit_to_tableau(c))
    assert sampler.terms == (None, (0, 1), (1, 1))
    rng = np.random.default_rng(43)
    assert set(sampler.draw_many(rng, 50)) == {"001", "110"}


def test_compile_rejects_stabilizers_that_fix_no_state():
    # +iZ_1 as a stabilizer is not Hermitian
    with pytest.raises(InvariantError, match="Hermitian"):
        compile_measurement(from_rows(2, [1, 2, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]))
    # stabilizers Z_0, Z_0: dependent
    with pytest.raises(InvariantError, match="dependent"):
        compile_measurement(from_rows(2, [1, 2, 0, 0], [0, 0, 1, 1]))
    # stabilizers X_0, Z_0 anticommute; Z_0 then constrains the coin at qubit 0
    with pytest.raises(InvariantError, match="commute"):
        compile_measurement(from_rows(2, [0, 2, 1, 0], [1, 0, 0, 1]))
    # stabilizers X_0, X_0, Z_2: their product X_0 X_0 = I shows only once
    # the X block is reduced
    with pytest.raises(InvariantError, match="dependent"):
        compile_measurement(from_rows(3, [0, 0, 0, 1, 1, 0], [1, 2, 4, 0, 0, 4]))
    # stabilizers X_0, Z_0 Z_1 anticommute, though no constraint is left on
    # the coin alone; and X_0, Z_0 X_1, two pivots that anticommute, leave no
    # constraint at all.  canonical_forms runs the same check, and the
    # replaying oracle refuses them too
    for broken in (from_rows(2, [0, 0, 1, 0], [1, 2, 0, 3]), from_rows(2, [0, 0, 1, 2], [1, 2, 0, 1])):
        for reader in (compile_measurement, oracles.canonical_form, batch_of_one):
            with pytest.raises(InvariantError, match="the stabilizers do not commute"):
                reader(broken)


def test_one_commutation_check_for_both_readers_of_the_echelon():
    # one stabilizer of a random Clifford replaced by a product of its rows:
    # each reader raises exactly when some pair of stabilizers anticommutes,
    # a pairwise check by commutes; otherwise the forms of canonical_forms,
    # on a batch of one, are the replaying oracle's, whose F1 and F2 are
    # Hadamard-free, and compile_measurement raises only for a dependent set.
    # The product takes destabilizer j, which anticommutes only with the
    # replaced stabilizer, at odds 1/2 and the others rarely, so both kinds
    # of set are common
    rng = np.random.default_rng(50)
    seen = {True: 0, False: 0}
    for n in range(1, 8):
        for _ in range(150):
            t = random_clifford(n, rng)
            rows = [t.row(i) for i in range(2 * n)]
            j = int(rng.integers(n))
            weights = np.full(2 * n, 0.5)
            weights[:n] = 1 / (2 * n)
            weights[j] = 0.5
            picked = np.flatnonzero(rng.random(2 * n) < weights).tolist()
            p = functools.reduce(lambda a, i: pauli_product(a, rows[i]), picked, PauliString(n, 0, 0))
            rows[n + j] = PauliString(n, p.x, p.z, 2 * int(rng.integers(2)))
            broken = from_rows(n, [r.x for r in rows], [r.z for r in rows], [r.phase for r in rows])
            anticommuting = not all(commutes(a, b) for a, b in itertools.combinations(rows[n:], 2))
            seen[anticommuting] += 1
            if anticommuting:
                for reader in (compile_measurement, oracles.canonical_form, batch_of_one):
                    with pytest.raises(InvariantError, match="the stabilizers do not commute"):
                        reader(broken)
                continue
            [(f1, _, f2)] = assert_batch_forms(stack([broken]), [broken])
            assert _hadamard_free(f1) and _hadamard_free(f2)
            try:
                compile_measurement(broken)
            except InvariantError as exc:
                assert "dependent" in str(exc)
    assert min(seen.values()) > 250, seen


def _bits_of(m):
    """The rows of a 0/1 matrix as ints, column j at bit j."""
    return [sum(int(b) << j for j, b in enumerate(r)) for r in m]


def test_transpose_matches_a_bit_by_bit_reference():
    # square and non-square shapes, widths off the multiples of 8, and the
    # callers' shapes at several n: 2n x n (the reduction), 2n x 2n
    # (random_clifford) and n x n (the symmetry check)
    rng = np.random.default_rng(51)
    shapes = [(1, 1), (1, 13), (13, 1), (3, 7), (7, 3), (8, 9), (9, 8), (17, 70), (70, 17), (65, 65)]
    for n in (1, 2, 3, 5, 6, 64, 100):
        shapes += [(2 * n, n), (2 * n, 2 * n), (n, n)]
    for size, width in shapes:
        m = rng.integers(0, 2, size=(size, width))
        assert stabilizer._transpose(_bits_of(m), width) == _bits_of(m.T), (size, width)
    # a square matrix is its own transpose exactly when it is symmetric
    for size in (1, 2, 3, 7, 8, 9, 64, 65, 200):
        m = rng.integers(0, 2, size=(size, size))
        m = m | m.T
        rows = _bits_of(m)
        assert rows == stabilizer._transpose(rows, size)
        i, j = rng.integers(size, size=2)
        m[i, j] ^= 1
        rows = _bits_of(m)
        assert (rows == stabilizer._transpose(rows, size)) == (i == j)


def test_row_product_is_the_product_of_the_rows():
    # the product of a bitset of tableau rows, in increasing row order
    rng = np.random.default_rng(52)
    for n in (1, 2, 3, 5, 9):
        for _ in range(20):
            t = random_clifford(n, rng)
            rows = int(rng.integers(1, 1 << 2 * n))
            want = functools.reduce(pauli_product, (t.row(i) for i in stabilizer._bits(rows)))
            assert t._row_product(rows) == want


def _x_block_rref(t):
    """(pivot qubits, reduced rows) of the stabilizers' X block, by numpy
    Gauss-Jordan over GF(2): row j of the matrix is stabilizer j's X bits."""
    n = t.n
    m = np.array([[t.xcol[q] >> (n + j) & 1 for q in range(n)] for j in range(n)], dtype=np.uint8)
    pivots = []
    for q in range(n):
        r = len(pivots)
        hits = np.flatnonzero(m[r:, q])
        if not hits.size:
            continue
        m[[r, r + hits[0]]] = m[[r + hits[0], r]]
        others = np.flatnonzero(m[:, q])
        m[others[others != r]] ^= m[r]
        pivots.append(q)
    return pivots, m[: len(pivots)]


def test_compiled_coins_are_the_hadamard_set():
    # the coins are the Hadamard set S of the canonical form (the replaying
    # oracle's at every n, and canonical_forms' up to its 31 qubits), and
    # bit q is the parity of the coins whose reduced X row has X at q
    rng = np.random.default_rng(47)
    tableaux = []
    for n in [*range(1, 13), 200]:
        depths = (n, 4 * n * n if n < 200 else 6 * n)  # sparse and deep words
        tableaux.append(random_clifford(n, rng))
        tableaux += [circuit_to_tableau(random_circuit(n, rng, depth=d)) for d in depths]
    for t in tableaux:
        pivots, reduced = _x_block_rref(t)
        terms = compile_measurement(t).terms
        assert [q for q, term in enumerate(terms) if term is None] == pivots == list(oracles.canonical_form(t)[1])
        if t.n <= 31:
            assert int(canonical_forms(stack([t]))[1][0]) == sum(1 << q for q in pivots)
        for q, term in enumerate(terms):
            if term is not None:
                assert term[1] == sum(1 << k for k in np.flatnonzero(reduced[:, q]).tolist()), (t.n, q)


def _draws_and_end_state(sampler, seed, shots, bulk):
    rng = np.random.default_rng(seed)
    rng.integers(5)  # start the block mid-stream
    draws = sampler.draw_many(rng, shots) if bulk else [draw(sampler, rng) for _ in range(shots)]
    return draws, rng.integers(2**62), rng.random()


def test_draw_many_matches_draw():
    # draw_many relies on numpy drawing rng.integers(0, 2, size=(s, k)) in C
    # order from the same stream as s * k calls of rng.integers(2), and
    # leaving the generator where they would (checked on numpy 2.4.6)
    rng = np.random.default_rng(45)
    tableaux = [CliffordTableau.identity(3), circuit_to_tableau(CliffordCircuit.build(3, [("X", (1,))]))]
    tableaux += [random_clifford(n, rng) for n in (1, 2, 5, 12, 70, 130)]
    tableaux += [circuit_to_tableau(random_circuit(n, rng, depth=2 * n)) for n in (4, 9, 66)]
    ks = set()
    for t in tableaux:
        sampler = compile_measurement(t)
        ks.add(sum(term is None for term in sampler.terms))
        for seed, shots in ((1, 0), (2, 1), (3, 7), (4, 40)):
            bulk = _draws_and_end_state(sampler, seed, shots, bulk=True)
            assert bulk == _draws_and_end_state(sampler, seed, shots, bulk=False), (t.n, shots)
    assert 0 in ks and any(k > 64 for k in ks)  # no coins, and more than one word of them


# -- invariants -------------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_gate_words_keep_the_tableau_valid(n, seed):
    rng = np.random.default_rng(seed)
    t = circuit_to_tableau(random_circuit(n, rng, depth=40))
    t.validate()
    for q in range(n):
        measure(t, q, rng)
        t.validate()


@pytest.mark.parametrize("n", range(2, 9))
def test_cz_and_sdg_match_their_replays(n):
    # bit for bit, odd included: random rows with random phases, Hermitian or
    # not; S-dagger, X, Y and Z against their words over H and S
    replays = {
        CliffordTableau._sdg: "SSS",
        CliffordTableau._x: "HSSH",
        CliffordTableau._y: "HSSHSS",
        CliffordTableau._z: "SS",
    }
    rng = np.random.default_rng(60 + n)
    for _ in range(4):
        t = random_clifford(n, rng)
        t.odd, t.sign = (int.from_bytes(rng.bytes(n), "little") >> (6 * n) for _ in range(2))
        for a, b in itertools.permutations(range(n), 2):
            native, replay = t.copy(), t.copy()
            native._cz(a, b)
            for gate in (("H", (b,)), ("CNOT", (a, b)), ("H", (b,))):
                replay.apply(*gate)
            assert native.key() == replay.key(), (n, a, b)
        for q in range(n):
            for native_gate, word in replays.items():
                native, replay = t.copy(), t.copy()
                native_gate(native, q)
                for name in word:
                    replay.apply(name, (q,))
                assert native.key() == replay.key(), (n, q, word)


def test_validate_rejects_broken_tableaux():
    # destabilizer 1 equals destabilizer 0: the pairing is broken
    broken = from_rows(2, [1, 1, 0, 0], [0, 0, 1, 2])
    with pytest.raises(InvariantError):
        broken.validate()
    # +iZ_0 as a stabilizer is not Hermitian
    t = from_rows(1, [1, 0], [0, 1], [0, 1])
    with pytest.raises(InvariantError):
        t.validate()
    from_rows(1, [1, 0], [0, 1], [2, 2]).validate()


def test_tableau_to_circuit_raises_a_typed_error():
    broken = from_rows(2, [1, 1, 0, 0], [0, 0, 1, 2])
    with pytest.raises(InvariantError):
        tableau_to_circuit(broken)


def test_from_rows_matches_rows():
    rng = np.random.default_rng(44)
    t = random_clifford(4, rng)
    rows = [t.row(i) for i in range(8)]
    again = from_rows(4, [r.x for r in rows], [r.z for r in rows], [r.phase for r in rows])
    assert again == t
    with pytest.raises(ValueError):
        from_rows(2, [1, 2], [0, 0])


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
            probs = np.abs(to_unitary(c)[:, 0]) ** 2
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


@pytest.mark.parametrize("seed", range(4))
def test_multiply_rows_matches_the_pauli_product(seed):
    # rows with odd phases times factors with odd phases: on a valid tableau
    # odd is 0 here, so only such rows tell `odd ^= lo` from `odd |= lo`
    rng = np.random.default_rng(seed)
    n, m = 5, 10
    xs, zs = ([int(v) for v in rng.integers(0, 2**n, size=m)] for _ in range(2))
    t = from_rows(n, xs, zs, [int(v) for v in rng.integers(0, 4, size=m)])
    rows = int(rng.integers(1, 2**m))
    factors = [PauliString(n, int(x), int(z), 1 + 2 * int(s))
               for x, z, s in rng.integers(0, [2**n, 2**n, 2], size=(m, 3))]
    before = [t.row(r) for r in range(m)]

    def over_rows(bit):  # the bitset whose bit r is bit(factor r), for r in rows
        return sum(bit(f) << r for r, f in enumerate(factors)) & rows

    fx = [over_rows(lambda f: f.x >> q & 1) for q in range(n)]
    fz = [over_rows(lambda f: f.z >> q & 1) for q in range(n)]
    fodd, fsign = over_rows(lambda f: f.phase & 1), over_rows(lambda f: f.phase >> 1)
    assert t.odd & fodd
    t._multiply_rows(rows, fx, fz, fodd, fsign)
    for r in range(m):
        assert t.row(r) == (pauli_product(factors[r], before[r]) if rows >> r & 1 else before[r]), r


def test_conjugation_inverse_past_the_dense_cap():
    rng = np.random.default_rng(22)
    n = 80
    t = random_clifford(n, rng)
    t_inv = circuit_to_tableau(inverse(tableau_to_circuit(t)))
    for _ in range(10):
        x, z = (int(v) for v in rng.integers(0, 2**62, size=2))
        p = PauliString(n, x << 18, z, int(rng.integers(4)))
        assert pull_back_pauli(t_inv, pull_back_pauli(t, p)) == p


def test_pull_back_matches_the_gate_word_past_the_dense_cap():
    # pull_back_pauli against a --circuit V at n=200 read gate by gate: a
    # random Clifford's synthesized word, then gates of every name the
    # format accepts, each conjugating P as a dense matrix
    n = 200
    rng = np.random.default_rng(47)
    gates = list(tableau_to_circuit(random_clifford(n, rng)).gates)
    names = ("H", "S", "X", "Y", "Z", "SDG", "CNOT", "CZ")
    for name in rng.choice(names, size=20 * n):
        qubits = rng.choice(n, size=2 if name in ("CNOT", "CZ") else 1, replace=False)
        gates.append((str(name), tuple(int(q) for q in qubits)))
    text = f"qubits {n}\n" + "".join(f"{name} {' '.join(map(str, qs))}\n" for name, qs in gates)
    t = circuit_to_tableau(parse_circuit(text))
    for _ in range(4):
        x, z = (int.from_bytes(rng.bytes(n // 8), "little") for _ in range(2))
        p = PauliString(n, x, z, int(rng.integers(4)))
        assert pull_back_pauli(t, p) == oracles.pull_back(gates, p)


# -- the canonical form F1 . H_S . F2 --------------------------------------------


def _hadamard_free(f):
    return not any(v >> f.n for v in f.xcol)


def batch_of_one(t):
    return canonical_forms(stack([t]))


def replayed_forms(tableaux):
    """The replaying oracle's canonical forms, which canonical_forms gives
    for the stacked tableaux bit for bit (signs included), each pinned to
    replay to its tableau bit for bit."""
    forms = assert_batch_forms(stack(tableaux), tableaux)
    for t, (f1, hs, f2) in zip(tableaux, forms):
        assert _hadamard_free(f1) and _hadamard_free(f2)
        layer = tuple(("H", (s,)) for s in hs)
        word = tableau_to_circuit(f2).gates + layer + tableau_to_circuit(f1).gates
        assert circuit_to_tableau(CliffordCircuit(t.n, word)) == t
    return forms


def random_states(rng, m, n):
    states = rng.normal(size=(m, 2**n)) + 1j * rng.normal(size=(m, 2**n))
    return states / np.linalg.norm(states, axis=1)[:, None]


def assert_equal_up_to_phase(got, ref):
    """Row by row, within 1e-12 once each row's global phase is matched."""
    phases = np.einsum("ij,ij->i", got.conj(), ref)
    assert np.max(np.abs(got * (phases / np.abs(phases))[:, None] - ref)) <= 1e-12


def check_canonical_forms(tableaux, rng):
    forms = replayed_forms(tableaux)
    states = random_states(rng, len(tableaux), tableaux[0].n)
    ref = np.array([apply_word(tableau_to_circuit(t), state) for t, state in zip(tableaux, states)])
    assert_equal_up_to_phase(apply_canonical_forms(oracles.stack_forms(forms), states), ref)


@pytest.mark.parametrize("n", range(1, 11))
def test_canonical_form_of_random_tableaux(n):
    rng = np.random.default_rng(90 + n)
    check_canonical_forms([random_clifford(n, rng) for _ in range(6)], rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_form_keeps_every_sign(n):
    rng = np.random.default_rng(100 + n)
    t = random_clifford(n, rng)
    flipped = []
    for row in range(2 * n):
        f = t.copy()
        f.sign ^= 1 << row
        flipped.append(f)
    check_canonical_forms(flipped, rng)


def test_canonical_form_of_every_two_qubit_class():
    # the synthesized words multiplied out as 4x4 matrices: apply_gate per
    # gate would take seconds over 11520 words
    tableaux = [circuit_to_tableau(CliffordCircuit(2, w)) for w in enumerate_clifford_words(2)[0]]
    forms = replayed_forms(tableaux)
    states = random_states(np.random.default_rng(105), len(tableaux), 2)
    mats = oracles.word_unitaries([tableau_to_circuit(t).gates for t in tableaux])
    ref = np.einsum("kij,kj->ki", mats, states)
    assert_equal_up_to_phase(apply_canonical_forms(oracles.stack_forms(forms), states), ref)


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_form_matches_the_replaying_oracle(n):
    # masked native CZ and S-dagger against H CNOT H and S^3 on tableaux:
    # the same F1, S and F2, signs included, for 200 draws
    rng = np.random.default_rng(110 + n)
    tableaux = [random_clifford(n, rng) for _ in range(200)]
    assert_batch_forms(stack(tableaux), tableaux)


def test_echelon_is_reduced_and_spans_its_rows():
    # rows of width + 8 bits, the top 8 riding along; reduced over a random
    # subset of the low bits
    rng = np.random.default_rng(120)
    for _ in range(300):
        width = int(rng.integers(1, 13))
        rows = [int(v) for v in rng.integers(0, 1 << (width + 8), size=int(rng.integers(1, 16)))]
        columns = int(rng.integers(0, 1 << width))
        pivots, rest = stabilizer._echelon(rows, columns)
        out = [*pivots.values(), *rest]
        assert len(out) == len(rows) and list(pivots) == sorted(pivots)
        for s, row in pivots.items():
            assert columns >> s & 1 and (row & columns) & -(row & columns) == 1 << s
            assert [v >> s & 1 for v in out].count(1) == 1
        assert not any(v & columns for v in rest)
        rank = len(oracles._independent(rows))
        assert len(oracles._independent(out)) == rank == len(oracles._independent(rows + out))


def test_canonical_form_rejects_anticommuting_stabilizers():
    # stabilizers X_0 and Z_0 cannot both be images of commuting Z_j; a
    # batch with that one entry among good ones is refused too
    broken = from_rows(2, [0, 0, 1, 0], [1, 2, 0, 1])
    for reader in (oracles.canonical_form, batch_of_one):
        with pytest.raises(InvariantError):
            reader(broken)
    rng = np.random.default_rng(125)
    good = [random_clifford(2, rng) for _ in range(6)]
    with pytest.raises(InvariantError, match="the stabilizers do not commute"):
        canonical_forms(stack([*good[:4], broken, *good[4:]]))
    canonical_forms(stack(good))


def assert_batch_forms(batch, tableaux):
    """canonical_forms of the batch is the replaying oracle's canonical_form
    of each of its tableaux, one at a time; returns the oracle's forms."""
    f1, hs, f2 = canonical_forms(batch)
    forms = [oracles.canonical_form(t) for t in tableaux]
    for i, (g1, h, g2) in enumerate(forms):
        assert (_entry(f1, i), int(hs[i]), _entry(f2, i)) == (g1, sum(1 << s for s in h), g2), i
    return forms


@pytest.mark.parametrize("n", [*range(1, 17), 31])
def test_canonical_forms_are_the_scalar_forms(n):
    # random_cliffords' batch as drawn, and the identity as a batch of one
    rng = np.random.default_rng(130 + n)
    batch = random_cliffords(n, rng, 50)
    assert_batch_forms(batch, [_entry(batch, i) for i in range(50)])
    assert_batch_forms(stack([CliffordTableau.identity(n)]), [CliffordTableau.identity(n)])


def test_canonical_forms_of_every_two_qubit_class():
    # every Hadamard set and block N, each with random row signs
    rng = np.random.default_rng(131)
    tableaux = [circuit_to_tableau(CliffordCircuit(2, w)) for w in enumerate_clifford_words(2)[0]]
    for t in tableaux:
        t.sign = int(rng.integers(16))
    assert_batch_forms(stack(tableaux), tableaux)


def _same_draw(n, seed):
    fast, greedy = np.random.default_rng(seed), np.random.default_rng(seed)
    assert random_clifford(n, fast) == oracles.random_clifford(n, greedy), (n, seed)
    assert fast.integers(2**62) == greedy.integers(2**62), (n, seed)


def test_random_clifford_matches_the_greedy_elimination():
    for n in range(1, 40):
        for seed in range(20):
            _same_draw(n, seed)
    for n in (64, 100, 200):
        _same_draw(n, 50 + n)


def test_random_clifford_retries_like_the_greedy_elimination():
    # when a step's v coins are all 0 (the last step's two: one time in
    # four), the draw reads more than its planned 2n(n+2) coins; so it does
    # for 55 and 86 of the 300 seeds at n=1 and 2
    for n in (1, 2):
        retried = 0
        for seed in range(300):
            _same_draw(n, seed)
            drawn, planned = np.random.default_rng(seed), np.random.default_rng(seed)
            random_clifford(n, drawn)
            planned.integers(0, 2, size=2 * n * (n + 2))
            retried += drawn.bit_generator.state != planned.bit_generator.state
        assert retried >= 30, (n, retried)


@pytest.mark.parametrize("block", [1, 2, 5, 13])
def test_random_clifford_matches_the_greedy_elimination_in_small_blocks(block, monkeypatch):
    # a refill mid-step, past the planned coins and on a retry, as at large n
    monkeypatch.setattr(stabilizer, "_COIN_BLOCK", block)
    for n in range(1, 7):
        for seed in range(30):
            _same_draw(n, seed)


def _entry(batch, i):
    """Entry i of a batch of tableaux, as a tableau of ints."""
    ints = [[int(c[i]) for c in cols] for cols in (batch.xcol, batch.zcol)]
    return CliffordTableau(batch.n, *ints, int(batch.odd[i]), int(batch.sign[i]))


def test_random_cliffords_is_one_random_clifford_call_per_entry():
    # the same tableaux, and the same generator state after them
    retried = 0
    for n, counts in [*((n, (1, 7, 200)) for n in range(1, 17)), (31, (1, 3))]:
        for count in counts:
            batch_rng, scalar_rng = np.random.default_rng(1000 * n + count), np.random.default_rng(1000 * n + count)
            batch = random_cliffords(n, batch_rng, count)
            for i in range(count):
                probe = copy.deepcopy(scalar_rng)
                assert _entry(batch, i).key() == random_clifford(n, scalar_rng).key(), (n, count, i)
                # exactly two coins past the planned 2n(n + 2): one retry, at the last step
                probe.integers(0, 2, size=2 * n * (n + 2) + 2)
                retried += probe.bit_generator.state == scalar_rng.bit_generator.state
            assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state, (n, count)
    assert retried > 0


@pytest.mark.parametrize("block", [1, 2, 5, 13])
def test_random_cliffords_in_small_blocks(block, monkeypatch):
    # refills mid-draw, past the planned coins and on a retry
    monkeypatch.setattr(stabilizer, "_COIN_BLOCK", block)
    for n in range(1, 7):
        batch_rng, scalar_rng = np.random.default_rng(n), np.random.default_rng(n)
        batch = random_cliffords(n, batch_rng, 30)
        assert [_entry(batch, i) for i in range(30)] == [random_clifford(n, scalar_rng) for _ in range(30)]
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state, n


def test_batches_stop_at_31_qubits():
    # 2n row bits per int64 column: refused before any coin is drawn
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(CapabilityError, match="n <= 31"):
        random_cliffords(32, rng, 1)
    assert rng.bit_generator.state == state
    with pytest.raises(CapabilityError, match="n <= 31"):
        canonical_forms(CliffordTableau.identity(32))
    with pytest.raises(CapabilityError, match="n <= 31"):
        canonical_forms(stack([CliffordTableau.identity(32)]))


def stabilizer_states_by_coins(n):
    """Entry k: how many n-qubit stabilizer states have a k-dimensional Z-basis support.

    2^(n-k) affine shifts times the Gaussian binomial [n choose k]_2 of
    supports times 2^(k(k+3)/2) phase patterns on each.
    """
    counts, gaussian = [], 1
    for k in range(n + 1):
        counts.append(2 ** (n - k) * gaussian * 2 ** (k * (k + 3) // 2))
        gaussian = gaussian * (2 ** (n - k) - 1) // (2 ** (k + 1) - 1)
    return counts, 2**n * math.prod(2**j + 1 for j in range(1, n + 1))


def coin_count_law(n):
    """P(k coins) for the measurement of V|0^n>, V uniform: every stabilizer state is equally likely."""
    counts, total = stabilizer_states_by_coins(n)
    return [Fraction(c, total) for c in counts]


def test_coin_count_law_sums_to_one():
    assert coin_count_law(1) == [Fraction(1, 3), Fraction(2, 3)]
    assert coin_count_law(2) == [Fraction(1, 15), Fraction(6, 15), Fraction(8, 15)]
    for n in range(1, 201):
        counts, total = stabilizer_states_by_coins(n)
        assert Fraction(sum(counts), total) == 1, n


def test_coin_count_follows_the_law_past_the_dense_cap():
    # random_clifford and compile_measurement together, where no dense
    # oracle reaches: chi-square over k = n, n-1, n-2 and <= n-3
    n, draws = 48, 1500
    assert n > linalg.dense_cap()
    law = coin_count_law(n)
    expected = [float(p) * draws for p in (law[n], law[n - 1], law[n - 2], sum(law[: n - 2]))]
    counts = [0] * 4
    rng = np.random.default_rng(46)
    for _ in range(draws):
        k = sum(term is None for term in compile_measurement(random_clifford(n, rng)).terms)
        counts[min(n - k, 3)] += 1
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    # 3 degrees of freedom: P(chi2 > 16.27) = 0.001
    assert chi2 < 16.27, (counts, expected)


def test_random_clifford_circuit_matches_tableau():
    rng1 = np.random.default_rng(21)
    rng2 = np.random.default_rng(21)
    t = random_clifford(3, rng1)
    c = random_clifford_circuit(3, rng2)
    assert circuit_to_tableau(c) == t


# -- group counting and uniformity -----------------------------------------------


def test_enumerate_clifford_words_counts():
    words1, _ = enumerate_clifford_words(1)
    keys1 = {circuit_to_tableau(CliffordCircuit.build(1, w)).key() for w in words1}
    assert len(words1) == len(keys1) == 24
    with pytest.raises(CapabilityError):
        enumerate_clifford_words(3)


def test_enumerate_clifford_words_matches_one_tableau_per_class_bfs():
    for n, count in ((1, 24), (2, 11520)):
        words, _ = enumerate_clifford_words(n)
        assert len(words) == count
        assert words == oracles.enumerate_clifford_words(n)


def test_enumerate_clifford_words_levels_rebuild_the_words():
    words, levels = enumerate_clifford_words(2)
    gates = stabilizer.clifford_generators(2)
    rebuilt = [()]
    for parent, gate in levels:
        assert all(len(rebuilt[p]) == len(rebuilt[-1]) for p in parent)  # one level back
        rebuilt += [rebuilt[p] + (gates[g],) for p, g in zip(parent, gate)]
    assert rebuilt == words


@pytest.mark.slow
def test_enumerate_clifford_words_two_qubits():
    words2, _ = enumerate_clifford_words(2)
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
    draws = 200_000
    counts = {}
    for _ in range(draws):
        key = random_clifford(2, rng).key()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 11520
    # and uniformly: chi^2 over the class counts has 11519 dof, mean 11519
    # and sd ~152; 5 sd either way (too even is as suspect as too uneven)
    expected = draws / 11520
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert abs(chi2 - 11519) < 5 * math.sqrt(2 * 11519), chi2


# -- text format -----------------------------------------------------------------


def test_parse_and_to_text_round_trip():
    text = "qubits 3\n# a comment\nH 0\nCNOT 0 2\nS 1\nCZ 1 2\n"
    c = parse_circuit(text)
    again = parse_circuit(c.to_text())
    assert again.gates == c.gates and again.n == 3


# each malformed text and the exact message it raises
PARSE_ERRORS = {
    "": "missing 'qubits N' header",
    "# only a comment\n\n": "missing 'qubits N' header",
    "H 0\n": "line 1: expected 'qubits N' header",
    "qubits x\nH 0\n": "line 1: bad qubit count 'x'",
    "qubits 0\n": "line 1: qubit count must be positive",
    "qubits 2\nH\n": "line 2: H takes one qubit, got 0",
    "qubits 2\nH 0 1\n": "line 2: H takes one qubit, got 2",
    "qubits 3\nCNOT 1\n": "line 2: CNOT takes two qubits, got 1",
    "qubits 3\ncz 0 1 2\n": "line 2: CZ takes two qubits, got 3",
    "qubits 2\nNOPE 0\n": "line 2: unknown gate 'NOPE'",
    "qubits 3\nH 0\nfoo 1 # c\n": "line 3: unknown gate 'FOO'",
    "qubits 3\nH x\n": "line 2: bad qubit index in 'H x'",
    "qubits 3\n\nS 1.5\n": "line 3: bad qubit index in 'S 1.5'",
    "qubits 3\nNOPE x\n": "line 2: bad qubit index in 'NOPE x'",  # the index is read first
    "qubits 3\nX -1\n": "line 2: qubit -1 out of range in X for n=3",
    "qubits 3\nS 3\n": "line 2: qubit 3 out of range in S for n=3",
    "qubits 2\nCNOT 0 5\n": "line 2: qubit 5 out of range in CNOT for n=2",
    "qubits 3\nCZ -1 0\n": "line 2: qubit -1 out of range in CZ for n=3",
    "qubits 3\nCNOT 1 1\n": "line 2: CNOT takes two distinct qubits",
    "qubits 3\n# c\nCZ 2 +2\n": "line 3: CZ takes two distinct qubits",
    # shaped like a valid line, but a field misses the lookups
    "qubits 3\nCNOT 1 01": "line 2: CNOT takes two distinct qubits",
    "qubits 3\nS 3#x": "line 2: qubit 3 out of range in S for n=3",
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS))
def test_parse_circuit_rejects(bad):
    # parse_circuit and parse_tableau read through one loop: same message, same line
    for parse in (parse_circuit, parse_tableau):
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert str(info.value) == PARSE_ERRORS[bad], parse.__name__


@st.composite
def written_circuits(draw):
    """(n, gates, text): gates over all eight names, written with names in
    mixed case, indices as int reads them but str does not write them ("+1",
    "01", "0_1", Arabic-Indic digits), comments, a "#" glued to the last
    field, blank lines and stray whitespace."""
    n = draw(st.integers(1, 5))
    names = [name for name in stabilizer.CLIFFORD_GATES if len(linalg.GATES[name]) <= 2**n]
    filler = st.lists(st.sampled_from(["", "  ", "# a comment", "\t# CNOT 0 0"]), max_size=2)
    gates, lines = [], draw(filler) + [f"qubits {n}"]
    spellings = [str, str, "+{}".format, "0{}".format, "0_{}".format, lambda q: chr(0x660 + q)]
    for _ in range(draw(st.integers(0, 40))):
        name = draw(st.sampled_from(names))
        qubits = tuple(draw(st.permutations(range(n)))[: len(linalg.GATES[name]).bit_length() - 1])
        written = "".join(draw(st.sampled_from([c.lower(), c])) for c in name)
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        end = draw(st.sampled_from(["", " ", "\t", "# note", " # H 9", "#x", "#"]))
        indices = [draw(st.sampled_from(spellings))(q) for q in qubits]
        lines += draw(filler) + [sep.join([written, *indices]) + end]
        gates.append((written, qubits))
    return n, gates, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(deadline=None, max_examples=150)
@given(written_circuits())
def test_one_loop_reads_what_build_checks(circuit):
    n, gates, text = circuit
    built = CliffordCircuit.build(n, gates)
    assert parse_circuit(text) == built
    assert parse_tableau(text) == circuit_to_tableau(built)


@pytest.mark.parametrize(
    "line, message",
    [("CNOT 0 5", "qubit 5 out of range"), ("H 0 1", "H takes one qubit"),
     ("CZ 1 1", "CZ takes two distinct qubits"), ("nope 0", "unknown gate 'NOPE'")],
)
def test_parse_errors_name_their_line(line, message):
    with pytest.raises(ParseError, match=f"^line 4: {message}"):
        parse_circuit(f"qubits 2\n# comment\nH 0\n{line}\nS 1\n")


def test_parse_reads_qubits_past_the_lookup_table():
    # the str(q) lookup stops at len(text) entries, so a huge qubit count
    # costs no memory, and a qubit past the lookup still reads
    text = "qubits 1000000\nH 999999\nCNOT 0 999999\n"
    tracemalloc.start()
    try:
        circuit = parse_circuit(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert circuit.gates == (("H", (999999,)), ("CNOT", (0, 999999)))
    assert peak < 100_000
    assert parse_tableau("qubits 40\nCZ 39 0\n") == circuit_to_tableau(CliffordCircuit.build(40, [("CZ", (39, 0))]))


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
