"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails loudly on its own if the criterion is not met.
"""
import math
import time

import numpy as np

from cccsim import linalg
from cccsim.angles import ExactAngle
from cccsim.ccc import (
    PH_SUPREME,
    PWEAK,
    classify,
    decompose_unitary,
    dense_distribution,
    easy_reduction_distribution,
    euler_matrix,
    make_instance,
    marginal_single_qubit,
    simulate_easy_weak,
    tv_distance,
)
from cccsim.experiments import anticoncentration_trial, supremacy_parameters
from cccsim.gadgets import (
    build_gadget_I,
    build_gadget_J,
    compile_word,
    gadget_action,
    search_gadgets,
)
from cccsim.mbqc import g_closed_form, g_gadget, rotation_angle, universality_check
from oracles import circuit_to_tableau, gadget_I_closed_form, gadget_J_closed_form
from oracles import random_clifford_circuit, sample_measurement, to_unitary

from fractions import Fraction


def verdict(number, name, ok, detail=""):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def in_half_pi(x):
    r = x / (math.pi / 2)
    return abs(r - round(r)) < 1e-9


def in_half_pi_odd(x):
    return in_half_pi(x) and round(x / (math.pi / 2)) % 2 == 1


def in_pi(x):
    r = x / math.pi
    return abs(r - round(r)) < 1e-9


def test_criterion_1_classification_table():
    # three theta columns x two phi rows, two samples per cell
    cells = [
        # theta in pi Z: easy regardless of phi
        (0.0, 0.0, PWEAK),
        (math.pi / 2, math.pi, PWEAK),
        (0.7, 0.0, PWEAK),
        (math.pi / 3, math.pi, PWEAK),
        # theta an odd multiple of pi/2: easy iff phi on the pi/2 lattice
        (math.pi / 2, math.pi / 2, PWEAK),
        (math.pi, 3 * math.pi / 2, PWEAK),
        (math.pi / 3, math.pi / 2, PH_SUPREME),
        (0.7, 3 * math.pi / 2, PH_SUPREME),
        # theta off the pi/2 lattice: hard regardless of phi
        (0.0, math.pi / 3, PH_SUPREME),
        (math.pi / 2, 0.8, PH_SUPREME),
        (math.pi / 3, math.pi / 3, PH_SUPREME),
        (0.9, 2.0, PH_SUPREME),
    ]
    start = time.time()
    mistakes = []
    for phi, theta, expected in cells:
        u = euler_matrix(0.3, phi, theta, 0.9)
        got = classify(decompose_unitary(u)).complexity_class
        if got != expected:
            mistakes.append((phi, theta, got, expected))
    elapsed = time.time() - start
    verdict(
        1,
        "classification table",
        not mistakes and elapsed < 1.0,
        f"12/12 cells exact in {elapsed:.3f}s" if not mistakes else f"mistakes={mistakes}",
    )


def test_criterion_2_gadget_closed_forms():
    start = time.time()
    phis = np.linspace(-math.pi, math.pi, 20)
    thetas = np.linspace(-math.pi, math.pi, 20)
    worst = 0.0
    for phi in phis:
        for theta in thetas:
            a_i = gadget_action(build_gadget_I(phi, theta)).matrix
            a_j = gadget_action(build_gadget_J(phi, theta)).matrix
            worst = max(
                worst,
                float(np.max(np.abs(a_i - gadget_I_closed_form(phi, theta)))),
                float(np.max(np.abs(a_j - gadget_J_closed_form(theta)))),
            )
    grid_ok = worst < 1e-12

    # iff boundaries on the exceptional lattices
    boundaries_ok = True
    lattice = [k * math.pi / 2 for k in range(-3, 4)]
    probes = lattice + [0.7, math.pi / 3, -1.1]
    for theta in probes:
        act = gadget_action(build_gadget_I(0.7, theta))
        boundaries_ok &= act.is_unitary == in_half_pi_odd(theta)
        act_j = gadget_action(build_gadget_J(0.7, theta))
        boundaries_ok &= act_j.is_unitary
        boundaries_ok &= act_j.is_clifford == in_half_pi(theta)
    for phi in probes:
        act = gadget_action(build_gadget_I(phi, math.pi / 2))
        boundaries_ok &= act.is_clifford == in_half_pi(phi)
    elapsed = time.time() - start
    verdict(
        2,
        "gadget closed forms",
        grid_ok and boundaries_ok and elapsed < 10.0,
        f"20x20 grid worst residual {worst:.2e}, boundaries exact, {elapsed:.2f}s",
    )


def test_criterion_3_anticoncentration():
    n, draws, a = 6, 2000, 0.2
    report = anticoncentration_trial(n, np.eye(2), "0" * n, draws, a=a, seed=2026)
    mean_dev = abs(report.mean_p - report.theory_mean) / report.mean_se
    m2_dev = abs(report.mean_p_squared - report.theory_second_moment) / report.second_moment_se
    floor = (1 - a) ** 2 / 2
    sigma = math.sqrt(floor * (1 - floor) / draws)
    tail = report.tail_fraction()
    ok = mean_dev <= 5 and m2_dev <= 5 and tail >= floor - 3 * sigma
    verdict(
        3,
        "anticoncentration moments",
        ok,
        f"mean off by {mean_dev:.2f} se, second moment off by {m2_dev:.2f} se "
        f"(theory {report.theory_second_moment:.5e}), tail {tail:.3f} >= {floor - 3 * sigma:.3f}",
    )


def test_criterion_4_supremacy_parameters():
    p = supremacy_parameters(Fraction(1, 5), Fraction(1, 5), Fraction(1, 100))
    ok = p.fraction == Fraction(6, 50) and p.mult_error == Fraction(1, 2) and p.valid
    verdict(
        4,
        "supremacy parameter arithmetic",
        ok,
        f"fraction={p.fraction} mult_error={p.mult_error} (exact rationals)",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(505)
    easy_us = [
        linalg.GATES["T"],
        linalg.GATES["H"],
        linalg.rz(0.8),
        linalg.rz(0.5) @ linalg.rx(math.pi),
        linalg.rz(math.pi) @ linalg.rx(math.pi / 2),
        linalg.rz(math.pi / 2) @ linalg.rx(3 * math.pi / 2),
    ]
    hard_us = [
        linalg.rz(math.pi / 3) @ linalg.rx(math.pi / 2),
        linalg.rz(math.pi / 5) @ linalg.rx(math.pi / 3),
        linalg.rx(0.9),
    ]
    instances = 0

    # easy-case weak simulation: exact reduction against the dense oracle
    worst_exact = 0.0
    for u in easy_us:
        for n in (2, 3, 4, 5):
            inst = make_instance(u, circuit_to_tableau(random_clifford_circuit(n, rng)))
            tv = tv_distance(dense_distribution(inst), easy_reduction_distribution(inst))
            worst_exact = max(worst_exact, tv)
            instances += 1

    # strong(1) marginals against dense, easy and hard conjugations alike
    worst_marginal = 0.0
    for u in easy_us + hard_us:
        for n in (2, 4, 6):
            inst = make_instance(u, circuit_to_tableau(random_clifford_circuit(n, rng)))
            dense = dense_distribution(inst)
            j = int(rng.integers(0, n))
            mask = 1 << (n - 1 - j)
            p0 = sum(p for i, p in enumerate(dense.probs) if not i & mask)
            worst_marginal = max(worst_marginal, abs(marginal_single_qubit(inst, j) - p0))
            instances += 1

    # sampled routes at 10^4 draws: plain stabilizer sampling and the weak sampler
    draws = 10_000
    worst_tv = 0.0
    for n in (4, 6):
        v = random_clifford_circuit(n, rng)
        t = circuit_to_tableau(v)
        counts = np.zeros(2**n)
        for _ in range(draws):
            counts[int(sample_measurement(t, rng), 2)] += 1
        dense = np.abs(to_unitary(v)[:, 0]) ** 2
        worst_tv = max(worst_tv, 0.5 * float(np.abs(counts / draws - dense).sum()))
        instances += 1
    for u in (linalg.GATES["H"], linalg.rz(0.8)):
        inst = make_instance(u, circuit_to_tableau(random_clifford_circuit(4, rng)))
        dense = dense_distribution(inst)
        counts = np.zeros(2**4)
        for y in simulate_easy_weak(inst, rng, draws):
            counts[int(y, 2)] += 1
        worst_tv = max(worst_tv, 0.5 * float(np.abs(counts / draws - dense.probs).sum()))
        instances += 1

    ok = instances >= 50 and worst_exact < 1e-10 and worst_marginal < 1e-10 and worst_tv < 0.05
    verdict(
        5,
        "oracle equivalence suite",
        ok,
        f"{instances} instances; exact reductions {worst_exact:.2e}, "
        f"marginals {worst_marginal:.2e}, sampled TV {worst_tv:.3f} at {draws} draws",
    )


def test_criterion_6_mbqc_appendix():
    # gadget contraction vs (X^b) H Rz(2 theta) on a 40-point grid
    worst = 0.0
    for theta in np.linspace(-math.pi, math.pi, 40):
        for bit in (0, 1):
            got = g_gadget(theta, bit)
            want = g_closed_form(theta, bit) / math.sqrt(2)
            idx = np.unravel_index(np.argmax(np.abs(want)), want.shape)
            phase = got[idx] / want[idx]
            worst = max(worst, float(np.max(np.abs(got - phase * want))))
            worst = max(worst, abs(abs(phase) - 1.0))
    grid_ok = worst < 1e-12

    # universality flips exactly on the pi/4 lattice, all denominators <= 24
    lattice_ok = True
    for q in range(1, 25):
        for p in range(0, 2 * q):
            if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
                continue
            angle = ExactAngle.rational(p, q)
            expected_universal = q not in (1, 2, 4)
            if universality_check(angle).universal != expected_universal:
                lattice_ok = False

    # the two rational rotation-angle families
    v_half = universality_check(ExactAngle.rational(1, 2))
    v_quarter = universality_check(ExactAngle.rational(1, 4))
    fam_half = sorted(rotation_angle(g_closed_form(math.pi / 2, b)) for b in (0, 1))
    fam_quarter = sorted(rotation_angle(g_closed_form(math.pi / 4, b)) for b in (0, 1))
    families_ok = (
        v_half.exact_cosines == (Fraction(0), Fraction(-1))
        and v_quarter.exact_cosines == (Fraction(-1, 2), Fraction(-1, 2))
        and np.allclose(fam_half, [math.pi / 2, math.pi], atol=1e-9)
        and np.allclose(fam_quarter, [2 * math.pi / 3, 2 * math.pi / 3], atol=1e-9)
    )
    verdict(
        6,
        "mbqc appendix",
        grid_ok and lattice_ok and families_ok,
        f"40-point grid residual {worst:.2e}; pi/4 lattice exact to q<=24; "
        f"families {{pi/2, pi}} and {{2pi/3, 2pi/3}} reproduced",
    )


def test_criterion_7_search_cross_validation():
    cases = [
        (euler_matrix(0.0, 0.4, 0.0, 0.0), False),          # case i
        (linalg.GATES["T"], False),                          # case i
        (linalg.rz(0.3) @ linalg.rx(math.pi), False),        # case i, odd
        (linalg.GATES["H"], False),                          # case ii
        (linalg.rz(math.pi) @ linalg.rx(math.pi / 2), False),  # case ii
        (linalg.rz(math.pi / 3) @ linalg.rx(math.pi / 2), True),   # case iii
        (linalg.rz(0.7) @ linalg.rx(3 * math.pi / 2), True),       # case iii
        (linalg.rx(math.pi / 3), True),                      # case iv
        (linalg.rz(math.pi / 5) @ linalg.rx(math.pi / 3), True),   # case iv
        (linalg.rz(1.1) @ linalg.rx(0.6), True),             # case iv
    ]
    tags = set()
    search_ok = True
    for u, expect_hard in cases:
        v = classify(decompose_unitary(u))
        tags.add(v.case_tag)
        assert (v.complexity_class == PH_SUPREME) == expect_hard
        found = search_gadgets(u, 2)
        search_ok &= bool(found) == expect_hard

    target = linalg.rz(math.pi / 4)
    gens = [
        linalg.GATES["H"],
        linalg.GATES["S"],
        linalg.normalized_action(gadget_J_closed_form(math.pi / 3)),
    ]
    _, d4 = compile_word(target, gens, 4)
    _, d12 = compile_word(target, gens, 12)
    compile_ok = d12 <= d4 + 1e-12
    verdict(
        7,
        "gadget search cross-validation",
        search_ok and tags == {"i", "ii", "iii", "iv"} and compile_ok,
        f"10 unitaries over all four cases, search non-empty iff hard; "
        f"compile distance {d12:.4f} (budget 12) <= {d4:.4f} (budget 4)",
    )
