import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccsim import linalg
from cccsim.angles import ExactAngle
from cccsim.ccc import (
    _easy_reduction,
    PH_SUPREME,
    PWEAK,
    OutcomeDistribution,
    classify,
    decompose_unitary,
    dense_distribution,
    easy_reduction_distribution,
    euler_matrix,
    make_instance,
    marginal_single_qubit,
    outcome_probability,
    parse_unitary_spec,
    simulate_easy_weak,
    tv_distance,
)
from cccsim.errors import CapabilityError, ParseError
from cccsim.stabilizer import (
    CliffordCircuit,
    circuit_to_tableau,
    random_clifford,
    random_clifford_circuit,
    sample_measurement,
    tableau_to_circuit,
)

angles = st.floats(-math.pi, math.pi, allow_nan=False)


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- Euler decomposition ---------------------------------------------------------


@given(angles, angles, angles, angles)
def test_euler_matrix_matches_gate_product(alpha, phi, theta, lam):
    direct = euler_matrix(alpha, phi, theta, lam)
    product = np.exp(1j * alpha) * linalg.rz(phi) @ linalg.rx(theta) @ linalg.rz(lam)
    assert np.max(np.abs(direct - product)) < 1e-12


def test_decompose_round_trip_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        u = random_unitary(rng)
        d = decompose_unitary(u)
        assert np.max(np.abs(d.recompose() - u)) < 1e-10


def test_decompose_round_trip_euler_grid():
    vals = [0.0, math.pi / 2, math.pi, -math.pi / 2, 0.3, 2.2]
    for phi in vals:
        for theta in vals:
            for lam in vals:
                u = euler_matrix(0.1, phi, theta, lam)
                d = decompose_unitary(u)
                assert np.max(np.abs(d.recompose() - u)) < 1e-10, (phi, theta, lam)


def test_decompose_named_gates_exact_angles():
    d = decompose_unitary(linalg.GATES["H"])
    assert d.phi.as_pi_fraction() == d.theta.as_pi_fraction() == d.lam.as_pi_fraction()
    assert d.phi.as_pi_fraction() is not None and d.phi.as_pi_fraction() * 2 == 1
    d = decompose_unitary(linalg.GATES["T"])
    assert d.theta.as_pi_fraction() == 0
    assert d.lam.as_pi_fraction() == 0  # folded into phi
    assert d.phi.as_pi_fraction() is not None and d.phi.as_pi_fraction() * 4 == 1


def test_decompose_degenerate_antidiagonal():
    # theta = pi leaves only off-diagonal entries
    u = linalg.rz(0.4) @ linalg.rx(math.pi)
    d = decompose_unitary(u)
    assert np.max(np.abs(d.recompose() - u)) < 1e-10
    assert d.theta.as_pi_fraction() == 1
    assert d.lam.as_pi_fraction() == 0


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError):
        decompose_unitary(np.array([[1, 0], [0, 0.5]], dtype=complex))


def test_canonical_fold_zeroes_lambda_on_pi_lattice():
    for theta in (0.0, math.pi):
        u = euler_matrix(0.2, 0.7, theta, 0.9)
        d = decompose_unitary(u)
        assert float(d.lam) == 0.0
        assert np.max(np.abs(d.recompose() - u)) < 1e-10


# -- classification --------------------------------------------------------------


def spec_verdict(text):
    s = parse_unitary_spec(text)
    dec = s.decomposition if s.decomposition is not None else decompose_unitary(s.matrix)
    return classify(dec)


def test_classification_table():
    cases = [
        ("T", "i", PWEAK),
        ("S", "i", PWEAK),
        ("rz=0.7", "i", PWEAK),
        ("rx=pi", "i", PWEAK),
        ("H", "ii", PWEAK),
        ("rz=pi*1/2 rx=pi*1/2", "ii", PWEAK),
        ("rz=pi rx=pi*3/2", "ii", PWEAK),
        ("rz=pi*1/3 rx=pi*1/2", "iii", PH_SUPREME),
        ("rz=0.7 rx=pi*1/2", "iii", PH_SUPREME),
        ("rz=pi*1/4 rx=pi*3/2", "iii", PH_SUPREME),
        ("rx=pi*1/3", "iv", PH_SUPREME),
        ("rz=pi*1/3 rx=0.5", "iv", PH_SUPREME),
        ("rz=pi*1/3 rx=pi*1/3", "iv", PH_SUPREME),
    ]
    for text, tag, cls in cases:
        v = spec_verdict(text)
        assert (v.case_tag, v.complexity_class) == (tag, cls), text


def test_easy_verdicts_carry_canonical_form():
    v = spec_verdict("H")
    assert v.gamma_word == ("S", "H", "S", "H")
    assert v.canonical_lam.as_pi_fraction() is not None
    v = spec_verdict("T")
    assert v.gamma_word == ()
    assert v.canonical_lam.as_pi_fraction() * 4 == 1
    v = spec_verdict("rx=pi")
    assert v.gamma_word == ("X",)


def test_supreme_verdicts_have_no_canonical_form():
    v = spec_verdict("rx=pi*1/3")
    assert v.gamma_word is None and v.canonical_lam is None
    assert v.canonical_matrix() is None


def test_canonical_matrix_reproduces_u_up_to_phase():
    rng = np.random.default_rng(32)
    # case i even/odd and case ii, with assorted lambda values
    for phi, theta in [(0.8, 0.0), (0.8, math.pi), (math.pi / 2, math.pi / 2),
                       (math.pi, math.pi / 2), (0.0, 3 * math.pi / 2)]:
        for lam in rng.uniform(-math.pi, math.pi, 4):
            u = euler_matrix(0.0, phi, theta, lam)
            v = classify(decompose_unitary(u))
            assert v.complexity_class == PWEAK, (phi, theta)
            assert linalg.proportional_up_to_phase(
                v.canonical_matrix(), u, tol=1e-8, unit_factor=True
            ), (phi, theta, lam)


@settings(max_examples=60, deadline=None)
@given(angles, angles, angles, angles)
def test_classification_ignores_alpha_and_is_total(alpha, phi, theta, lam):
    u = euler_matrix(alpha, phi, theta, lam)
    v1 = classify(decompose_unitary(u))
    v2 = classify(decompose_unitary(np.exp(0.6j) * u))
    assert v1.case_tag in ("i", "ii", "iii", "iv")
    assert v1.complexity_class == v2.complexity_class


def test_case_predicates_match_angle_lattices():
    # the verdict must agree with the lattice membership of (theta, phi)
    grid = [k * math.pi / 4 for k in range(-4, 5)] + [0.3, 1.1]
    for phi in grid:
        for theta in grid:
            u = euler_matrix(0.0, phi, theta, 0.2)
            d = decompose_unitary(u)
            v = classify(d)
            if d.theta.in_pi_z():
                assert v.case_tag == "i"
            elif d.theta.in_half_pi_z_odd() and d.phi.in_half_pi_z():
                assert v.case_tag == "ii"
            elif d.theta.in_half_pi_z_odd():
                assert v.case_tag == "iii"
            else:
                assert v.case_tag == "iv"


# -- instances and distributions --------------------------------------------------


def bell_circuit():
    return CliffordCircuit.build(2, [("H", (0,)), ("CNOT", (0, 1))])


def test_make_instance_rejects_non_unitary():
    with pytest.raises(ValueError):
        make_instance(np.array([[1, 1], [0, 1]], dtype=complex), bell_circuit())


def test_outcome_distribution_validates():
    with pytest.raises(ValueError):
        OutcomeDistribution(1, np.array([0.7, 0.7]))
    d = OutcomeDistribution(2, np.array([0.5, 0.5, 0.0, 0.0]))
    assert d.probability("01") == 0.5
    with pytest.raises(ValueError):
        d.probability("0")


def test_tv_distance():
    a = OutcomeDistribution(1, np.array([1.0, 0.0]))
    b = OutcomeDistribution(1, np.array([0.5, 0.5]))
    assert math.isclose(tv_distance(a, b), 0.5)
    assert tv_distance(a, a) == 0.0
    with pytest.raises(ValueError):
        tv_distance(a, OutcomeDistribution(2, np.full(4, 0.25)))


def test_dense_distribution_definition_by_hand():
    # one qubit, by direct matrix arithmetic on the defining expression
    u = linalg.rz(0.9) @ linalg.rx(0.4)
    v = CliffordCircuit.build(1, [("H", (0,))])
    inst = make_instance(u, v)
    w = u.conj().T @ linalg.GATES["H"] @ u
    expected = np.abs(w[:, 0]) ** 2
    got = dense_distribution(inst)
    assert np.max(np.abs(got.probs - expected)) < 1e-12
    assert math.isclose(outcome_probability(inst, "0"), expected[0], abs_tol=1e-12)


def test_identity_v_reproduces_computational_zero():
    u = linalg.rz(1.1) @ linalg.rx(0.8)
    v = CliffordCircuit.build(2, [])
    inst = make_instance(u, v)
    # U-dagger undoes U: the outcome is always the all-zero string
    d = dense_distribution(inst)
    assert math.isclose(d.probability("00"), 1.0, abs_tol=1e-12)


def test_conjugated_hadamard_is_uniform_not_deterministic():
    # U = H conjugating V = H on one qubit gives U^dag V U = H H H = H,
    # so the outcome is uniform on both strings.
    inst = make_instance(linalg.GATES["H"], CliffordCircuit.build(1, [("H", (0,))]))
    d = dense_distribution(inst)
    assert np.allclose(d.probs, [0.5, 0.5])
    e = easy_reduction_distribution(inst)
    assert np.allclose(e.probs, [0.5, 0.5])
    rng = np.random.default_rng(33)
    seen = set(simulate_easy_weak(inst, rng, 64))
    assert seen == {"0", "1"}


EASY_SPECS = [
    "T",
    "S",
    "rz=0.7",
    "rx=pi",
    "rz=0.4 rx=pi",
    "H",
    "rz=pi*1/2 rx=pi*1/2",
    "rz=pi rx=pi*1/2",
    "rz=pi*3/2 rx=pi*3/2",
]


def test_easy_reduction_matches_dense_everywhere():
    rng = np.random.default_rng(34)
    for text in EASY_SPECS:
        s = parse_unitary_spec(text)
        for n in (1, 3, 4):
            v = random_clifford_circuit(n, rng)
            inst = make_instance(s.matrix, v, s.decomposition)
            tv = tv_distance(dense_distribution(inst), easy_reduction_distribution(inst))
            assert tv < 1e-10, (text, n, tv)


REDUCTION_CASES = [
    ("rz=0.7", "i", False), ("rz=0.4 rx=pi", "i", True), ("H", "ii", False),
    ("rz=pi*1/2 rx=pi*1/2", "ii", False),
]


@pytest.mark.parametrize("spec, case, negated", REDUCTION_CASES)
def test_easy_reduction_tableau_matches_the_reduced_circuit(spec, case, negated):
    # the tableau-side reduction against replaying gamma^(x)n, V and
    # gamma-dagger^(x)n as one gate word, bit for bit, past the dense cap too
    s = parse_unitary_spec(spec)
    verdict = classify(s.decomposition or decompose_unitary(s.matrix))
    assert verdict.case_tag == case
    rng = np.random.default_rng(38)
    for n in (1, 5, 12, 70):
        v = random_clifford_circuit(n, rng)
        inst = make_instance(s.matrix, v, s.decomposition)
        before = inst.v.key()
        t, negate = _easy_reduction(inst)
        assert negate == negated and inst.v.key() == before
        word = verdict.gamma_word
        inverse = [] if negated else ["SDG" if g == "S" else g for g in word]
        prefix = CliffordCircuit.build(n, [(g, (q,)) for q in range(n) for g in reversed(word)])
        suffix = CliffordCircuit.build(n, [(g, (q,)) for q in range(n) for g in inverse])
        reduced = CliffordCircuit(n, prefix.gates + v.gates + suffix.gates)
        assert t == circuit_to_tableau(reduced), (spec, n)


@pytest.mark.parametrize("spec, case, negated", REDUCTION_CASES)
def test_weak_sampler_matches_measurement_oracle_after_reduction(spec, case, negated):
    # the compiled sampler against one sample_measurement per shot on the
    # reduced tableau, seed for seed, including past the dense cap
    s = parse_unitary_spec(spec)
    assert classify(s.decomposition or decompose_unitary(s.matrix)).case_tag == case
    rng = np.random.default_rng(39)
    for n in (1, 5, 12, 70):
        inst = make_instance(s.matrix, random_clifford_circuit(n, rng), s.decomposition)
        t, negate = _easy_reduction(inst)
        assert negate == negated
        oracle_rng = np.random.default_rng(n)
        oracle = [sample_measurement(t, oracle_rng) for _ in range(6)]
        if negate:
            oracle = ["".join("1" if b == "0" else "0" for b in y) for y in oracle]
        assert simulate_easy_weak(inst, np.random.default_rng(n), 6) == oracle, (spec, n)


def test_simulate_easy_weak_refuses_supreme():
    s = parse_unitary_spec("rx=pi*1/3")
    inst = make_instance(s.matrix, bell_circuit(), s.decomposition)
    with pytest.raises(ValueError):
        simulate_easy_weak(inst, np.random.default_rng(0), 1)


def test_weak_sampling_tracks_dense_distribution():
    rng = np.random.default_rng(35)
    s = parse_unitary_spec("H")
    inst = make_instance(s.matrix, random_clifford_circuit(2, rng), s.decomposition)
    dense = dense_distribution(inst)
    draws = 6000
    counts = {}
    for y in simulate_easy_weak(inst, rng, draws):
        counts[y] = counts.get(y, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(format(i, "02b"), 0) / draws - dense.probs[i]) for i in range(4)
    )
    assert tv < 0.05, tv


def test_instance_from_a_tableau_keeps_it_and_synthesizes_for_dense():
    rng = np.random.default_rng(40)
    u = parse_unitary_spec("rz=pi*1/5 rx=pi*1/3").matrix
    t = random_clifford(4, rng)
    from_tableau = make_instance(u, t)
    from_word = make_instance(u, tableau_to_circuit(t))
    assert from_tableau.v is t and from_tableau.word is None
    assert from_word.v == t and from_word.word is not None
    assert np.array_equal(dense_distribution(from_tableau).probs, dense_distribution(from_word).probs)
    assert marginal_single_qubit(from_tableau, 2) == marginal_single_qubit(from_word, 2)


def test_easy_reduction_distribution_is_dyadic_and_capped():
    rng = np.random.default_rng(41)
    h = linalg.GATES["H"]
    for n in (1, 3, 6):
        probs = easy_reduction_distribution(make_instance(h, random_clifford(n, rng))).probs
        support = probs[probs > 0]
        assert np.all(support == 1.0 / len(support)) and math.log2(len(support)).is_integer()
    with pytest.raises(CapabilityError):
        easy_reduction_distribution(make_instance(h, random_clifford(linalg.dense_cap() + 1, rng)))


def test_case_i_odd_bit_flip_route():
    # theta = pi conjugation flips every output bit relative to the even case
    rng = np.random.default_rng(36)
    s = parse_unitary_spec("rz=0.4 rx=pi")
    inst = make_instance(s.matrix, random_clifford_circuit(3, rng), s.decomposition)
    assert tv_distance(dense_distribution(inst), easy_reduction_distribution(inst)) < 1e-10


# -- marginals ---------------------------------------------------------------------


def test_marginal_matches_dense():
    rng = np.random.default_rng(37)
    for _ in range(12):
        n = int(rng.integers(1, 5))
        u = random_unitary(rng)
        inst = make_instance(u, random_clifford_circuit(n, rng))
        dense = dense_distribution(inst)
        j = int(rng.integers(0, n))
        mask = 1 << (n - 1 - j)
        p0_dense = sum(p for i, p in enumerate(dense.probs) if not i & mask)
        assert math.isclose(marginal_single_qubit(inst, j), p0_dense, abs_tol=1e-10)


def test_marginal_scales_past_the_dense_cap():
    rng = np.random.default_rng(38)
    u = parse_unitary_spec("rz=pi*1/3 rx=pi*1/3").matrix  # not easy either
    inst = make_instance(u, random_clifford_circuit(40, rng))
    p0 = marginal_single_qubit(inst, 17)
    assert 0.0 <= p0 <= 1.0


def test_marginal_validates_qubit_index():
    inst = make_instance(linalg.GATES["H"], bell_circuit())
    with pytest.raises(ValueError):
        marginal_single_qubit(inst, 2)


# -- unitary spec parsing ----------------------------------------------------------


def test_parse_named_unitaries():
    for name in ("I", "X", "Y", "Z", "H", "S", "SDG", "T", "TDG"):
        s = parse_unitary_spec(name)
        assert np.allclose(s.matrix, linalg.GATES[name])


def test_parse_rotation_tokens():
    s = parse_unitary_spec("rz=pi*1/3 rx=pi*1/2")
    assert np.allclose(s.matrix, linalg.rz(math.pi / 3) @ linalg.rx(math.pi / 2))
    assert s.decomposition is not None
    assert s.decomposition.phi.as_pi_fraction() * 3 == 1
    # rx alone, and rx-then-rz ordering
    s = parse_unitary_spec("rx=pi*1/2")
    assert np.allclose(s.matrix, linalg.rx(math.pi / 2))
    s = parse_unitary_spec("rx=pi*1/2 rz=pi*1/3")
    assert np.allclose(s.matrix, linalg.rx(math.pi / 2) @ linalg.rz(math.pi / 3))


def test_parse_raw_matrix():
    h = linalg.GATES["H"]
    flat = " ".join(f"{z.real} {z.imag}" for z in h.reshape(-1))
    s = parse_unitary_spec(flat)
    assert np.allclose(s.matrix, h)
    assert s.decomposition is None


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "Q",
        "rz=pi*1/3 rz=pi*1/4",
        "rz=nonsense",
        "1 0 0 1",  # wrong arity
        "1 0 0 0 0 0 0 0",  # not unitary
    ],
)
def test_parse_unitary_spec_rejects(bad):
    with pytest.raises(ParseError):
        parse_unitary_spec(bad)
