import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cccsim import linalg
from cccsim.errors import CapabilityError
from cccsim.stabilizer import CliffordCircuit, PauliString
from oracles import (
    pauli_matrix,
    phase_invariant_distance,
    proportional_up_to_phase,
    random_clifford_circuit,
    to_unitary,
)


def random_unitary(rng, d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_gate_table_is_unitary():
    for name, g in linalg.GATES.items():
        assert linalg.is_unitary(g), name


def test_gate_returns_a_copy():
    g = linalg.gate("H")
    g[0, 0] = 99
    assert linalg.GATES["H"][0, 0] != 99


def test_rotation_gates():
    assert np.allclose(linalg.rz(0), np.eye(2))
    assert np.allclose(linalg.rx(math.pi), -1j * linalg.GATES["X"])
    # Rz(t) = diag(e^{-it/2}, e^{it/2})
    t = 0.37
    assert np.allclose(linalg.rz(t), np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)]))


def test_dense_cap_env_override():
    old = os.environ.get(linalg.DENSE_CAP_ENV)
    try:
        os.environ[linalg.DENSE_CAP_ENV] = "3"
        assert linalg.dense_cap() == 3
        with pytest.raises(CapabilityError):
            linalg.zero_state(4)
        linalg.zero_state(3)
    finally:
        if old is None:
            os.environ.pop(linalg.DENSE_CAP_ENV, None)
        else:
            os.environ[linalg.DENSE_CAP_ENV] = old


@pytest.mark.parametrize("raw", ["-3", "abc"])
def test_dense_cap_env_rejects_a_bad_value(monkeypatch, raw):
    monkeypatch.setenv(linalg.DENSE_CAP_ENV, raw)
    with pytest.raises(ValueError, match=f"CCCSIM_DENSE_CAP must be a non-negative integer, got '{raw}'"):
        linalg.dense_cap()


def test_apply_gate_matches_kron():
    rng = np.random.default_rng(3)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    h = linalg.GATES["H"]
    # qubit 0 is the most significant bit
    expect = np.kron(h, np.eye(4)) @ state
    assert np.allclose(linalg.apply_gate(state, h, (0,)), expect)
    expect = np.kron(np.eye(4), h) @ state
    assert np.allclose(linalg.apply_gate(state, h, (2,)), expect)
    cnot = linalg.GATES["CNOT"]
    expect = np.kron(cnot, np.eye(2)) @ state
    assert np.allclose(linalg.apply_gate(state, cnot, (0, 1)), expect)
    # trailing axes are a batch: the (8, 3) block is its columns side by side
    block = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    for g, targets in ((h, (0,)), (h, (2,)), (cnot, (0, 1)), (cnot, (2, 0))):
        out = linalg.apply_gate(block, g, targets)
        assert out.shape == block.shape
        columns = [linalg.apply_gate(block[:, j], g, targets) for j in range(3)]
        assert np.array_equal(out, np.stack(columns, axis=1))


def test_apply_gate_reversed_targets():
    rng = np.random.default_rng(4)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    swap = np.eye(4)[[0, 2, 1, 3]]
    cnot_rev = swap @ linalg.GATES["CNOT"] @ swap
    assert np.allclose(
        linalg.apply_gate(state, linalg.GATES["CNOT"], (1, 0)), cnot_rev @ state
    )


def test_apply_gate_validates_targets():
    state = linalg.zero_state(2)
    with pytest.raises(ValueError):
        linalg.apply_gate(state, linalg.GATES["H"], (2,))
    with pytest.raises(ValueError):
        linalg.apply_gate(state, linalg.GATES["CNOT"], (0, 0))
    with pytest.raises(ValueError):
        linalg.apply_gate(state, linalg.GATES["CNOT"], (0,))
    with pytest.raises(ValueError, match="power of two"):
        linalg.apply_gate(np.zeros((6, 2), dtype=complex), linalg.GATES["H"], (0,))


def test_normalized_action_has_unit_determinant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        if abs(np.linalg.det(a)) < 1e-6:
            continue
        na = linalg.normalized_action(a)
        assert abs(np.linalg.det(na) - 1) < 1e-10


def test_normalized_action_rejects_singular():
    with pytest.raises(ValueError):
        linalg.normalized_action(np.array([[1, 0], [0, 0]], dtype=complex))


def test_proportional_up_to_phase():
    h = linalg.GATES["H"]
    assert proportional_up_to_phase(3j * h, h)
    assert proportional_up_to_phase(np.exp(0.3j) * h, h, unit_factor=True)
    assert not proportional_up_to_phase(3j * h, h, unit_factor=True)
    assert not proportional_up_to_phase(h, linalg.GATES["S"])
    z = np.zeros((2, 2), dtype=complex)
    assert proportional_up_to_phase(z, z)
    assert not proportional_up_to_phase(h, z)


def test_unitary_up_to_scale():
    # unitary_scale returns (mask, gamma); a tuple is always truthy, so unpack
    h = linalg.GATES["H"]
    unitary, gamma = linalg.unitary_scale(0.5 * h)
    assert unitary
    assert math.isclose(gamma, 0.25)
    unitary, _ = linalg.unitary_scale(np.array([[1, 0], [0, 0.5]]))
    assert not unitary
    stack = np.stack([0.5 * h, np.array([[1, 0], [0, 0.5]]), np.zeros((2, 2))])
    unitary, gamma = linalg.unitary_scale(stack)
    assert unitary.tolist() == [True, False, False]
    assert np.allclose(gamma, [0.25, 0.625, 0.0])


@pytest.mark.parametrize(
    "m, gamma, clifford",
    [(linalg.GATES["H"], 0.9999999999999998, True),
     (linalg.GATES["T"], 1.0, False),
     (linalg.GATES["CNOT"], 1.0, True),
     (2 * linalg.GATES["S"], 4.0, True)],
    ids=["H", "T", "CNOT", "2S"],
)
def test_predicates_on_one_matrix_keep_their_bits(m, gamma, clifford):
    # a single matrix still goes through `@`: gamma keeps the bits it had before
    # the predicates went matrix first (H's is 1 - 2^-52), and the answers are
    # numpy scalars
    unitary, g = linalg.unitary_scale(m)
    assert isinstance(unitary, np.bool_) and isinstance(g, np.float64)
    assert unitary and g == gamma
    is_c = linalg.is_clifford(m)
    assert isinstance(is_c, np.bool_) and is_c == clifford
    assert linalg.is_clifford(m, gamma=g) == clifford


def test_predicates_read_strided_stacks_as_their_copies():
    rng = np.random.default_rng(11)
    cliffords = [to_unitary(random_clifford_circuit(2, rng)) for _ in range(6)]
    others = [random_unitary(rng, 4) for _ in range(6)]
    stack = np.stack(cliffords + others + [2j * c for c in cliffords] + [np.diag([1, 1, 1, 0.5])])
    views = {
        "reversed-rows": stack[:, ::-1],
        "every-other": stack[::2],
        "matrix-first": np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0),
    }
    for name, view in views.items():
        copy = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous, name
        (unitary, gamma), (unitary_copy, gamma_copy) = linalg.unitary_scale(view), linalg.unitary_scale(copy)
        # numpy's elementwise loops may round a strided pass apart from a
        # contiguous one in the last bit; the masks must not move
        assert np.array_equal(unitary, unitary_copy), name
        assert np.max(np.abs(gamma - gamma_copy)) <= 1e-15 * np.max(gamma), name
        assert np.array_equal(linalg.is_clifford(view), linalg.is_clifford(copy)), name
    assert linalg.is_clifford(stack).tolist() == [True] * 6 + [False] * 6 + [True] * 6 + [False]


def test_predicates_keep_the_bits_of_the_matrix_first_route():
    # a seeded stack of Haar unitaries, scaled unitaries, random one-qubit
    # Cliffords under random phases and scales, near-Cliffords on both sides
    # of the 1e-9 Pauli bound and near-unitaries on both sides of the 1e-8 one
    rng = np.random.default_rng(29)
    haar = [random_unitary(rng) for _ in range(200)]
    cliffords = [
        to_unitary(random_clifford_circuit(1, rng)) * complex(*rng.normal(size=2)) for _ in range(200)
    ]
    eps = 10.0 ** rng.uniform(-11, -7, size=200)
    stack = np.stack(
        haar
        + [u * rng.uniform(0.01, 100.0) for u in haar]
        + cliffords
        + [c @ linalg.rz(e) for c, e in zip(cliffords, eps)]
        + [u + e * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) for u, e in zip(haar, eps * 100)]
    )
    unitary, gamma = linalg.unitary_scale(stack)
    ref_unitary, ref_gamma = oracles.matrix_first_unitary_scale(stack)
    assert np.array_equal(unitary, ref_unitary) and np.array_equal(gamma, ref_gamma)
    clifford = linalg.is_clifford(stack)
    assert np.array_equal(clifford, oracles.matrix_first_is_clifford(stack))
    rows = np.flatnonzero(unitary)
    with_scale = linalg.is_clifford(stack[rows], gamma=gamma[rows])
    assert np.array_equal(with_scale, oracles.matrix_first_is_clifford(stack[rows], gamma=gamma[rows]))
    # one matrix at a time, both go through `@` as the matrix-first route did
    for m in stack[::5]:
        assert linalg.unitary_scale(m) == oracles.matrix_first_unitary_scale(m)
        assert linalg.is_clifford(m) == oracles.matrix_first_is_clifford(m)
    # the near-unitaries straddle the unitarity bound, the near-Cliffords the Pauli one
    assert 0 < unitary[800:].sum() < 400 and 0 < clifford[600:800].sum() < 200


def test_predicates_refuse_non_finite_and_overflowing_inputs():
    # a NaN in a^dag a or in a Pauli coefficient counts as above its bound
    h, t = linalg.GATES["H"], linalg.GATES["T"]
    stack = np.stack([h, t, h * np.nan, np.diag([np.inf, np.inf]).astype(complex), t * 1e300, np.zeros((2, 2))])
    expected_unitary, expected_clifford = [True, True] + [False] * 4, [True] + [False] * 5
    with np.errstate(all="ignore"):
        assert linalg.unitary_scale(stack)[0].tolist() == expected_unitary
        assert linalg.is_clifford(stack).tolist() == expected_clifford
        assert [bool(linalg.unitary_scale(m)[0]) for m in stack] == expected_unitary
        assert [bool(linalg.is_clifford(m)) for m in stack] == expected_clifford


# -- the Clifford-membership predicate ---------------------------------------------


def test_is_signed_pauli():
    # the name is kept from the deleted is_signed_pauli; its inputs now check
    # is_clifford, which accepts every one of them, iX and H included
    for name in ("X", "Y", "Z"):
        assert linalg.is_clifford(linalg.GATES[name])
        assert linalg.is_clifford(-linalg.GATES[name])
    assert linalg.is_clifford(1j * linalg.GATES["X"])
    for name in ("H", "S", "SDG"):
        assert linalg.is_clifford(linalg.GATES[name]), name


def test_is_clifford_pauli_strings():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        p = PauliString(
            n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)), int(rng.integers(0, 4))
        )
        assert linalg.is_clifford(pauli_matrix(p)), p


def test_is_clifford_circuit_unitaries():
    # Clifford circuits pass, scaled or not; one T inserted mid-circuit fails
    rng = np.random.default_rng(5)
    for l in (1, 2, 3):
        for _ in range(4):
            c = random_clifford_circuit(l, rng)
            u = to_unitary(c)
            half = len(c.gates) // 2
            first, second = CliffordCircuit(l, c.gates[:half]), CliffordCircuit(l, c.gates[half:])
            w = int(rng.integers(0, l))
            t_w = np.kron(np.kron(np.eye(2**w), linalg.GATES["T"]), np.eye(2 ** (l - 1 - w)))
            with_t = to_unitary(second) @ t_w @ to_unitary(first)
            non_unitary = u @ np.diag(np.linspace(1.0, 2.0, 2**l))
            stack = np.stack([u, 0.5j * u, with_t, 0.5j * with_t, non_unitary])
            expected = [True, True, False, False, False]
            assert linalg.is_clifford(stack).tolist() == expected, l
            assert [bool(linalg.is_clifford(m)) for m in stack] == expected, l


def test_phase_invariant_distance_basics():
    h = linalg.GATES["H"]
    assert phase_invariant_distance(h, h) < 1e-12
    assert phase_invariant_distance(np.exp(1.1j) * h, h) < 1e-12
    d = phase_invariant_distance(linalg.GATES["S"], np.eye(2))
    # S vs I differ by a relative pi/2 phase between eigenvalues
    assert math.isclose(d, 2 * math.sin(math.pi / 8), rel_tol=1e-9)
    # CZ vs I: eigenphases {0, 0, 0, pi}, so the arc is pi
    d = phase_invariant_distance(linalg.GATES["CZ"], np.eye(4))
    assert math.isclose(d, math.sqrt(2), rel_tol=1e-12)


def test_phase_invariant_distance_is_a_metric_on_projective_unitaries():
    rng = np.random.default_rng(6)
    mats = [random_unitary(rng) for _ in range(6)]
    for a in mats:
        for b in mats:
            dab = phase_invariant_distance(a, b)
            dba = phase_invariant_distance(b, a)
            assert math.isclose(dab, dba, abs_tol=1e-9)
            for c in mats:
                assert dab <= (
                    phase_invariant_distance(a, c)
                    + phase_invariant_distance(c, b)
                    + 1e-9
                )


def test_phase_invariant_distance_batch_agrees():
    # the closed form against the eigensolver, over Haar pairs and the arcs
    # near 0 and near pi where an acos of the trace would flatten
    rng = np.random.default_rng(7)
    targets = [random_unitary(rng) for _ in range(100)]
    cases = [(np.stack([random_unitary(rng) for _ in range(100)]), target) for target in targets]
    target = targets[0]
    near = [target, np.exp(0.3j) * target]
    for t in (0.0, 1e-15, 1e-12, 1e-9, 3e-8, 1e-4):
        for turn in (linalg.rz(t), linalg.rx(-t), linalg.rz(math.pi - t), linalg.rx(t - math.pi)):
            near.append(target @ turn)
            near.append(np.exp(-1.2j) * turn @ target)
    cases.append((np.stack(near), target))
    for stack, target in cases:
        batch = linalg.phase_invariant_distance_batch(stack, target)
        single = [phase_invariant_distance(m, target) for m in stack]
        assert np.max(np.abs(batch - single)) <= 2e-15


def haar_stack(rng, count):
    z = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def test_product_2x2_stack_keeps_the_bits_of_each_product():
    # oracles.compile_word takes the products one at a time and must match
    # the beam's stacked ones to the last bit
    rng = np.random.default_rng(41)
    gens, beam = haar_stack(rng, 3), haar_stack(rng, 301)
    one_at_a_time = np.array([[linalg.product_2x2(g, m) for g in gens] for m in beam])
    broadcast = linalg.product_2x2(gens[None], beam[:, None])
    assert broadcast.shape == (301, 3, 2, 2)
    assert broadcast.tobytes() == one_at_a_time.tobytes()
    a, b = haar_stack(rng, 301), haar_stack(rng, 301)
    flat = linalg.product_2x2(a, b)
    assert flat.tobytes() == np.array([linalg.product_2x2(x, y) for x, y in zip(a, b)]).tobytes()
    left = linalg.product_2x2(gens[0], b)  # one matrix onto a stack, as b^dag a in the distance
    assert left.tobytes() == np.array([linalg.product_2x2(gens[0], y) for y in b]).tobytes()


def test_product_2x2_is_matmul_within_rounding():
    rng = np.random.default_rng(42)
    a, b = haar_stack(rng, 200_000), haar_stack(rng, 200_000)
    assert np.max(np.abs(linalg.product_2x2(a, b) - a @ b)) <= 4.4e-16


def test_product_2x2_is_matmul_on_exact_entries():
    # the one-qubit Clifford gates and the words of up to four H and S, on
    # either side of a gate with entries in {0, +-1, +-i}: every entry product
    # is exact, so both routes round only the sum.  (H H is not such a pair:
    # `@` leaves -2.2e-17 off the diagonal, the helper 0.)
    gates = linalg.GATES
    unit = np.array([gates[name] for name in ("I", "X", "Y", "Z", "S", "SDG")])
    mats = [gates[name] for name in ("I", "X", "Y", "Z", "H", "S", "SDG")]
    frontier = [np.eye(2, dtype=complex)]
    for _ in range(4):
        frontier = [g @ m for m in frontier for g in (gates["H"], gates["S"])]
        mats += frontier
    stack = np.array(mats)
    assert np.array_equal(linalg.product_2x2(stack[:, None], unit[None]), stack[:, None] @ unit[None])
    assert np.array_equal(linalg.product_2x2(unit[:, None], stack[None]), unit[:, None] @ stack[None])


@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
def test_rz_composition(a, b):
    assert np.allclose(linalg.rz(a) @ linalg.rz(b), linalg.rz(a + b))
