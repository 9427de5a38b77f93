import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cccsim import linalg
from cccsim.angles import RECONSTRUCT_TOL, ExactAngle, parse_angle
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
    parse_unitary_spec,
    simulate_easy_weak,
    tv_distance,
)
from cccsim.errors import CapabilityError, ParseError
from cccsim.stabilizer import (
    CLIFFORD_GATES,
    CliffordCircuit,
    CliffordTableau,
    random_clifford,
)
from oracles import canonical_matrix, circuit_to_tableau, dense_by_gates, outcome_probability
from oracles import proportional_up_to_phase, random_clifford_circuit, sample_measurement, tableau_to_circuit
from oracles import one_qubit_cliffords, verdict_by_bloch

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
    assert d.phi.pi_multiple == d.theta.pi_multiple == d.lam.pi_multiple
    assert d.phi.pi_multiple is not None and d.phi.pi_multiple * 2 == 1
    d = decompose_unitary(linalg.GATES["T"])
    assert d.theta.pi_multiple == 0
    assert d.lam.pi_multiple == 0  # folded into phi
    assert d.phi.pi_multiple is not None and d.phi.pi_multiple * 4 == 1


def test_decompose_degenerate_antidiagonal():
    # theta = pi leaves only off-diagonal entries
    u = linalg.rz(0.4) @ linalg.rx(math.pi)
    d = decompose_unitary(u)
    assert np.max(np.abs(d.recompose() - u)) < 1e-10
    assert d.theta.pi_multiple == 1
    assert d.lam.pi_multiple == 0


@settings(max_examples=150, deadline=None)
@given(angles, angles, angles, st.floats(-12.0, -5.0), st.booleans(), st.integers(0, 2**32 - 1))
# near theta = pi, u00 and u11 have modulus eps/2, and the rounding of the
# round trip through C moves their phases by about 1e-16/eps: this draw
# recomposed only to 1.6e-7 by the diagonal's phases
@example(1.0, 0.5, 2.0, -9.0, True, 0)
def test_decompose_survives_rounding_near_the_pi_lattice(alpha, phi, lam, log_eps, near_pi, seed):
    eps = 10.0**log_eps
    m = euler_matrix(alpha, phi, math.pi - eps if near_pi else eps, lam)
    c = random_unitary(np.random.default_rng(seed))
    u = c @ (c.conj().T @ m)
    d = decompose_unitary(u)
    assert np.max(np.abs(d.recompose() - u)) < 1e-8


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
    assert v.canonical_lam.pi_multiple is not None
    v = spec_verdict("T")
    assert v.gamma_word == ()
    assert v.canonical_lam.pi_multiple * 4 == 1
    v = spec_verdict("rx=pi")
    assert v.gamma_word == ("X",)


def test_supreme_verdicts_have_no_canonical_form():
    v = spec_verdict("rx=pi*1/3")
    assert v.gamma_word is None and v.canonical_lam is None
    assert canonical_matrix(v) is None


def test_canonical_matrix_reproduces_u_up_to_phase():
    rng = np.random.default_rng(32)
    # case i even/odd and case ii, with assorted lambda values
    for phi, theta in [(0.8, 0.0), (0.8, math.pi), (math.pi / 2, math.pi / 2),
                       (math.pi, math.pi / 2), (0.0, 3 * math.pi / 2)]:
        for lam in rng.uniform(-math.pi, math.pi, 4):
            u = euler_matrix(0.0, phi, theta, lam)
            v = classify(decompose_unitary(u))
            assert v.complexity_class == PWEAK, (phi, theta)
            assert proportional_up_to_phase(
                canonical_matrix(v), u, tol=1e-8, unit_factor=True
            ), (phi, theta, lam)


@settings(max_examples=60, deadline=None)
@given(angles, angles, angles, angles)
# theta at exactly RECONSTRUCT_TOL, where the tag once hung on the ulps that
# the global phase moves
@example(1.0, 1.0, 1e-9, 0.0)
@example(0.947, 0.0, 1e-9, 1 / 32)
@example(1.069331880610144, 0.0, 1e-9, 0.15625)
def test_classification_ignores_alpha_and_is_total(alpha, phi, theta, lam):
    u = euler_matrix(alpha, phi, theta, lam)
    v1 = classify(decompose_unitary(u))
    v2 = classify(decompose_unitary(np.exp(0.6j) * u))
    assert v1.case_tag in ("i", "ii", "iii", "iv")
    assert v1.complexity_class == v2.complexity_class


def test_angles_at_the_tolerance_keep_their_tag_under_any_phase():
    # an angle RECONSTRUCT_TOL from a tag point is tagged, however the
    # global phase rounds the extracted angle
    for phi, theta, case in [(0.3, 0.0, "i"), (0.3, math.pi, "i"),
                             (0.0, math.pi / 2, "ii"), (0.3, math.pi / 2, "iii")]:
        for d_theta, d_phi in [(RECONSTRUCT_TOL, 0.0), (-RECONSTRUCT_TOL, 0.0),
                               (0.0, RECONSTRUCT_TOL), (0.0, -RECONSTRUCT_TOL)]:
            u = euler_matrix(0.0, phi + d_phi, theta + d_theta, 0.2)
            for alpha in np.linspace(-math.pi, math.pi, 25):
                v = classify(decompose_unitary(np.exp(1j * alpha) * u))
                assert v.case_tag == case, (phi, theta, d_theta, d_phi, alpha)


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


def test_verdict_by_bloch_matches_classify():
    # symmetry (d): PWEAK iff U Z U-dagger is a signed Pauli, with no Euler
    # angle read; over the exact (pi/8)Z grid and Haar U
    for a in range(16):
        for b in range(16):
            for lam in ("0", "pi*1/8", "pi*3/8"):
                spec = parse_unitary_spec(f"rz=pi*{a}/8 rx=pi*{b}/8 rz={lam}")
                expected = classify(spec.decomposition).complexity_class
                assert verdict_by_bloch(spec.matrix) == expected, (a, b, lam)
    rng = np.random.default_rng(19)
    for _ in range(500):
        u = random_unitary(rng)
        assert verdict_by_bloch(u) == classify(decompose_unitary(u)).complexity_class


# -- instances and distributions --------------------------------------------------


def bell_tableau():
    return circuit_to_tableau(CliffordCircuit.build(2, [("H", (0,)), ("CNOT", (0, 1))]))


def test_make_instance_rejects_non_unitary():
    with pytest.raises(ValueError):
        make_instance(np.array([[1, 1], [0, 1]], dtype=complex), bell_tableau())


def test_outcome_distribution_validates():
    with pytest.raises(ValueError):
        OutcomeDistribution(1, np.array([0.7, 0.7]))
    OutcomeDistribution(2, np.array([0.5, 0.5, 0.0, 0.0]))


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
    v = circuit_to_tableau(CliffordCircuit.build(1, [("H", (0,))]))
    inst = make_instance(u, v)
    w = u.conj().T @ linalg.GATES["H"] @ u
    expected = np.abs(w[:, 0]) ** 2
    got = dense_distribution(inst)
    assert np.max(np.abs(got.probs - expected)) < 1e-12
    assert math.isclose(outcome_probability(inst, "0"), expected[0], abs_tol=1e-12)


def test_identity_v_reproduces_computational_zero():
    u = linalg.rz(1.1) @ linalg.rx(0.8)
    inst = make_instance(u, CliffordTableau.identity(2))
    # U-dagger undoes U: the outcome is always the all-zero string
    d = dense_distribution(inst)
    assert math.isclose(d.probs[int("00", 2)], 1.0, abs_tol=1e-12)


def test_conjugated_hadamard_is_uniform_not_deterministic():
    # U = H conjugating V = H on one qubit gives U^dag V U = H H H = H,
    # so the outcome is uniform on both strings.
    inst = make_instance(linalg.GATES["H"], circuit_to_tableau(CliffordCircuit.build(1, [("H", (0,))])))
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
            v = circuit_to_tableau(random_clifford_circuit(n, rng))
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
        inst = make_instance(s.matrix, circuit_to_tableau(v), s.decomposition)
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
        inst = make_instance(s.matrix, circuit_to_tableau(random_clifford_circuit(n, rng)), s.decomposition)
        t, negate = _easy_reduction(inst)
        assert negate == negated
        oracle_rng = np.random.default_rng(n)
        oracle = [sample_measurement(t, oracle_rng) for _ in range(6)]
        if negate:
            oracle = ["".join("1" if b == "0" else "0" for b in y) for y in oracle]
        assert simulate_easy_weak(inst, np.random.default_rng(n), 6) == oracle, (spec, n)


def test_simulate_easy_weak_refuses_supreme():
    s = parse_unitary_spec("rx=pi*1/3")
    inst = make_instance(s.matrix, bell_tableau(), s.decomposition)
    with pytest.raises(ValueError):
        simulate_easy_weak(inst, np.random.default_rng(0), 1)


def test_weak_sampling_tracks_dense_distribution():
    rng = np.random.default_rng(35)
    s = parse_unitary_spec("H")
    inst = make_instance(s.matrix, circuit_to_tableau(random_clifford_circuit(2, rng)), s.decomposition)
    dense = dense_distribution(inst)
    draws = 6000
    counts = {}
    for y in simulate_easy_weak(inst, rng, draws):
        counts[y] = counts.get(y, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(format(i, "02b"), 0) / draws - dense.probs[i]) for i in range(4)
    )
    assert tv < 0.05, tv


def test_instance_from_a_tableau_keeps_it_and_runs_its_canonical_form_for_dense():
    rng = np.random.default_rng(40)
    u = parse_unitary_spec("rz=pi*1/5 rx=pi*1/3").matrix
    t = random_clifford(4, rng)
    from_tableau = make_instance(u, t)
    from_word = make_instance(u, circuit_to_tableau(tableau_to_circuit(t)))
    assert from_tableau.v is t and from_word.v == t
    # equal tableaux, one canonical form: the same computation, bit for bit
    dense = dense_distribution(from_tableau).probs
    assert np.array_equal(dense, dense_distribution(from_word).probs)
    assert marginal_single_qubit(from_tableau, 2) == marginal_single_qubit(from_word, 2)


def test_dense_distribution_matches_the_word_applied_gate_by_gate():
    # the canonical form against each gate's own matrix, over every gate
    # name a circuit accepts
    rng = np.random.default_rng(48)
    names = ("H", "S", "SDG", "X", "Y", "Z", "CNOT", "CZ")
    us = [parse_unitary_spec(spec).matrix for spec in ("rz=pi*1/5 rx=pi*1/3", "rz=pi*1/3 rx=pi*1/2", "T")]
    us.append(random_unitary(rng))
    for n in range(1, 9):
        for _ in range(3):
            gates = []
            for name in rng.choice(names if n > 1 else names[:6], size=6 * n * n):
                qubits = rng.choice(n, size=2 if name in ("CNOT", "CZ") else 1, replace=False)
                gates.append((str(name), tuple(int(q) for q in qubits)))
            circuit = CliffordCircuit.build(n, gates)
            for u in us:
                dense = dense_distribution(make_instance(u, circuit_to_tableau(circuit))).probs
                assert np.max(np.abs(dense - dense_by_gates(u, circuit))) <= 1e-15, (n, u)


def test_dense_route_refuses_a_wide_v_before_any_amplitude(monkeypatch):
    # under a raised cap, n=32 passes the cap but not the batch of one that
    # holds V's canonical form: refused before 2^32 amplitudes are allocated
    def allocate(n):
        raise AssertionError(f"zero_state({n}) reached")

    u = parse_unitary_spec("T").matrix
    monkeypatch.setattr(linalg, "zero_state", allocate)
    monkeypatch.setenv(linalg.DENSE_CAP_ENV, "32")
    with pytest.raises(CapabilityError, match="n <= 31"):
        dense_distribution(make_instance(u, CliffordTableau.identity(32)))
    # under the default cap, the cap's own refusal comes first
    monkeypatch.delenv(linalg.DENSE_CAP_ENV)
    with pytest.raises(CapabilityError, match="exceeds the cap of 16"):
        dense_distribution(make_instance(u, CliffordTableau.identity(32)))


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
    inst = make_instance(s.matrix, circuit_to_tableau(random_clifford_circuit(3, rng)), s.decomposition)
    assert tv_distance(dense_distribution(inst), easy_reduction_distribution(inst)) < 1e-10


# -- marginals ---------------------------------------------------------------------


def test_marginal_matches_dense():
    rng = np.random.default_rng(37)
    for _ in range(12):
        n = int(rng.integers(1, 5))
        u = random_unitary(rng)
        inst = make_instance(u, circuit_to_tableau(random_clifford_circuit(n, rng)))
        dense = dense_distribution(inst)
        j = int(rng.integers(0, n))
        mask = 1 << (n - 1 - j)
        p0_dense = sum(p for i, p in enumerate(dense.probs) if not i & mask)
        assert math.isclose(marginal_single_qubit(inst, j), p0_dense, abs_tol=1e-10)


def test_marginal_scales_past_the_dense_cap():
    rng = np.random.default_rng(38)
    u = parse_unitary_spec("rz=pi*1/3 rx=pi*1/3").matrix  # not easy either
    inst = make_instance(u, circuit_to_tableau(random_clifford_circuit(40, rng)))
    p0 = marginal_single_qubit(inst, 17)
    assert 0.0 <= p0 <= 1.0


def shallow_tableau(n, rng, depth):
    """The tableau of depth random H, S and CNOT gates: most qubits keep a
    certain bit."""
    gates = []
    for kind in rng.integers(0, 4, size=depth):
        if kind >= 2:
            gates.append(("CNOT", tuple(int(q) for q in rng.choice(n, size=2, replace=False))))
        else:
            gates.append((("H", "S")[kind], (int(rng.integers(n)),)))
    return circuit_to_tableau(CliffordCircuit.build(n, gates))


@pytest.mark.parametrize("spec", [spec for spec, _, _ in REDUCTION_CASES])
def test_marginal_matches_the_sampler_past_the_dense_cap(spec):
    # the Pauli pull-back against the compiled sampler's frequency of ones on
    # every qubit at n=200: V drawn as `--random-v 200` draws it (every
    # marginal 1/2), and a shallow word (many bits certain).  A stabilizer
    # state's marginals are 0, 1/2 or 1, and where the pull-back calls a bit
    # certain, every shot must agree
    n, shots = 200, 3000
    s = parse_unitary_spec(spec)
    rng = np.random.default_rng(49)
    certain = 0
    for v in (random_clifford(n, rng), shallow_tableau(n, rng, n)):
        inst = make_instance(s.matrix, v, s.decomposition)
        text = "".join(simulate_easy_weak(inst, rng, shots))
        ones = (np.frombuffer(text.encode(), dtype=np.uint8).reshape(shots, n) - ord("0")).mean(axis=0)
        for j in range(n):
            p1 = 1.0 - marginal_single_qubit(inst, j)
            assert min(abs(p1 - m) for m in (0.0, 0.5, 1.0)) <= 1e-12, (spec, j, p1)
            # five binomial standard errors, and exact where the bit is certain
            se = math.sqrt(p1 * (1 - p1) / shots)
            assert abs(ones[j] - p1) <= 5 * se + 1e-12, (spec, j, ones[j], p1)
            certain += abs(p1 - 0.5) > 0.25
    assert certain >= n // 4, (spec, certain)


def conjugated_by_layers(v, word):
    """The tableau of C-dagger^(x)n V C^(x)n, for C the product of word's
    gates, first gate first: C's layers prepended, then C-dagger's native
    updates, each over the word in reverse (as _easy_reduction does)."""
    t = v.copy()
    for g in reversed(word):
        t.prepend_layer(g)
    for g in reversed(word):
        update = getattr(t, CLIFFORD_GATES["SDG" if g == "S" else g])
        for q in range(t.n):
            update(q)
    return t


HARD_U = parse_unitary_spec("rz=pi*1/3 rx=pi*1/2").matrix


def test_distribution_keeps_the_clifford_on_the_left():
    # symmetry (c): (C U)^(x)n conjugating V is U^(x)n conjugating
    # V' = C-dagger^(x)n V C^(x)n, so p_{CU,V} = p_{U,V'} for every C
    rng = np.random.default_rng(23)
    for n in range(3, 7):
        v = random_clifford(n, rng)
        for word, c in one_qubit_cliffords():
            got = dense_distribution(make_instance(c @ HARD_U, v)).probs
            expected = dense_distribution(make_instance(HARD_U, conjugated_by_layers(v, word))).probs
            assert np.max(np.abs(got - expected)) <= 1e-12, (n, word)


def test_marginals_keep_the_clifford_on_the_left_past_the_dense_cap():
    # symmetry (c) at n=64, where only the Pauli pull-back reaches.  A
    # random V puts every marginal at 1/2 here; a shallow word keeps bits
    # certain, and there C U and U on V itself disagree (by up to 0.36)
    n = 64
    assert n > linalg.dense_cap()
    rng = np.random.default_rng(29)
    for v in (random_clifford(n, rng), shallow_tableau(n, rng, n)):
        for word, c in one_qubit_cliffords():
            left, right = make_instance(c @ HARD_U, v), make_instance(HARD_U, conjugated_by_layers(v, word))
            for j in (0, 17, 63):
                assert abs(marginal_single_qubit(left, j) - marginal_single_qubit(right, j)) <= 1e-12, (word, j)


def test_marginal_validates_qubit_index():
    inst = make_instance(linalg.GATES["H"], bell_tableau())
    for j in (-1, 2):
        with pytest.raises(ValueError, match=f"qubit {j} out of range for n=2"):
            marginal_single_qubit(inst, j)


# -- unitary spec parsing ----------------------------------------------------------


def test_parse_named_unitaries():
    for name in ("I", "X", "Y", "Z", "H", "S", "SDG", "T", "TDG"):
        s = parse_unitary_spec(name)
        assert np.allclose(s.matrix, linalg.GATES[name])


def test_parse_rotation_tokens():
    s = parse_unitary_spec("rz=pi*1/3 rx=pi*1/2")
    assert np.allclose(s.matrix, linalg.rz(math.pi / 3) @ linalg.rx(math.pi / 2))
    assert s.decomposition is not None
    assert s.decomposition.phi.pi_multiple * 3 == 1
    # rx alone, and rx-then-rz ordering
    s = parse_unitary_spec("rx=pi*1/2")
    assert np.allclose(s.matrix, linalg.rx(math.pi / 2))
    s = parse_unitary_spec("rx=pi*1/2 rz=pi*1/3")
    assert np.allclose(s.matrix, linalg.rx(math.pi / 2) @ linalg.rz(math.pi / 3))


@pytest.mark.parametrize(
    "spec", ["RZ=pi*1/3 RX=pi*1/2", "Rz=1 rx=1", "rX=pi*1/5 RZ=pi*1/7", "Rz=pi*1/3 rX=0.4 RZ=pi*1/7"]
)
def test_parse_rotation_keys_in_any_case(spec):
    s, lower = parse_unitary_spec(spec), parse_unitary_spec(spec.lower())
    assert s.decomposition == lower.decomposition
    assert np.array_equal(s.matrix, lower.matrix)


# each accepted rotation word, left factor first, and the Euler angles
# (phi, theta, lambda) it fills, as multiples of pi
ROTATION_FORMS = {
    "rz=pi*1/3": (Fraction(1, 3), 0, 0),
    "rx=pi*1/5": (0, Fraction(1, 5), 0),
    "rz=pi*1/3 rx=pi*1/5": (Fraction(1, 3), Fraction(1, 5), 0),
    "rx=pi*1/5 rz=pi*1/7": (0, Fraction(1, 5), Fraction(1, 7)),
    "rz=pi*1/3 rx=pi*1/5 rz=pi*1/7": (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
}


@pytest.mark.parametrize("text", list(ROTATION_FORMS))
def test_parse_rotation_forms(text):
    s = parse_unitary_spec(text)
    dec = s.decomposition
    assert dec.alpha.pi_multiple == 0
    assert (dec.phi.pi_multiple, dec.theta.pi_multiple, dec.lam.pi_multiple) == ROTATION_FORMS[text]
    product = np.eye(2)
    for token in text.split():
        kind, _, angle = token.partition("=")
        product = product @ (linalg.rz if kind == "rz" else linalg.rx)(float(parse_angle(angle)))
    assert np.max(np.abs(s.matrix - product)) < 1e-12


def test_parse_raw_matrix():
    h = linalg.GATES["H"]
    flat = " ".join(f"{z.real} {z.imag}" for z in h.reshape(-1))
    s = parse_unitary_spec(flat)
    assert np.allclose(s.matrix, h)
    assert s.decomposition is None


# each malformed spec and its exact message; in a rotation word a bad token
# or angle is reported before the word's form
SPEC_ERRORS = {
    "": "empty unitary spec",
    "Q": "cannot parse unitary spec 'Q': expected a gate name, rz/rx rotations, or eight reals",
    "rz=pi*1/3 rz=pi*1/4": "rotation sequence rz rz is not of the form rz rx rz",
    "rx=1 rz=1 rx=1": "rotation sequence rx rz rx is not of the form rz rx rz",
    "rz=1 rx=1 rz=1 rx=1": "rotation sequence rz rx rz rx is not of the form rz rx rz",
    "rz=nonsense": "cannot parse angle 'nonsense'",
    "rz=1 rz=nonsense": "cannot parse angle 'nonsense'",
    "rz=1 ry=1": "bad rotation token 'ry=1'",
    "rz= rz=1": "bad rotation token 'rz='",
    "RZ=1 Ry=1": "bad rotation token 'Ry=1'",
    "RZ=1 rz=1": "rotation sequence rz rz is not of the form rz rx rz",
    # wrong arity
    "1 0 0 1": "cannot parse unitary spec '1 0 0 1': expected a gate name, rz/rx rotations, or eight reals",
    "1 0 0 0 0 0 0 0": "matrix is not unitary within 1e-10",
}


@pytest.mark.parametrize("bad", list(SPEC_ERRORS))
def test_parse_unitary_spec_rejects(bad):
    with pytest.raises(ParseError) as info:
        parse_unitary_spec(bad)
    assert str(info.value) == SPEC_ERRORS[bad]
