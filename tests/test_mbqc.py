import math
from fractions import Fraction

import numpy as np
import pytest

from cccsim import linalg, mbqc
from cccsim.angles import ExactAngle, parse_angle
from cccsim.ccc import classify, decompose_unitary
from oracles import proportional_up_to_phase


def factor_between(a, b):
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    return a[idx] / b[idx]


# -- teleportation chain -----------------------------------------------------------


def test_single_stage_is_hadamard_with_half_amplitude():
    m = mbqc.teleport_chain("0")
    assert proportional_up_to_phase(m, linalg.GATES["H"])
    assert math.isclose(abs(factor_between(m, linalg.GATES["H"])), 1 / math.sqrt(2))
    m = mbqc.teleport_chain("1")
    assert proportional_up_to_phase(m, linalg.GATES["X"] @ linalg.GATES["H"])


def test_chain_composes_stage_matrices():
    for bits in ("00", "01", "10", "11", "010", "111"):
        expected = np.eye(2, dtype=complex)
        for b in bits:
            stage = linalg.GATES["H"]
            if b == "1":
                stage = linalg.GATES["X"] @ stage
            expected = stage @ expected
        m = mbqc.teleport_chain(bits)
        assert proportional_up_to_phase(m, expected), bits
        assert math.isclose(
            abs(factor_between(m, expected)), 2 ** (-len(bits) / 2), abs_tol=1e-12
        )


def test_teleport_chain_validates():
    with pytest.raises(ValueError):
        mbqc.teleport_chain("")
    with pytest.raises(ValueError):
        mbqc.teleport_chain("012")


# -- rotation-injecting gadget -------------------------------------------------------


def test_g_gadget_matches_closed_form():
    rng = np.random.default_rng(71)
    for theta in rng.uniform(-math.pi, math.pi, 25):
        for bit in (0, 1):
            g = mbqc.g_gadget(theta, bit)
            cf = mbqc.g_closed_form(theta, bit)
            assert proportional_up_to_phase(g, cf), (theta, bit)
            assert math.isclose(abs(factor_between(g, cf)), 1 / math.sqrt(2), abs_tol=1e-10)


def test_g_gadget_accepts_exact_angles():
    g = mbqc.g_gadget(ExactAngle.rational(1, 6), 0)
    assert proportional_up_to_phase(g, mbqc.g_closed_form(math.pi / 6, 0))


def test_cz_gadget_layers_cancel_exactly():
    rng = np.random.default_rng(72)
    for theta in rng.uniform(-math.pi, math.pi, 10):
        got = mbqc.cz_between_gadget_wires(theta)
        assert np.max(np.abs(got - linalg.GATES["CZ"])) < 1e-12


# -- rotation extraction ---------------------------------------------------------------


def test_rotation_angle_reference_gates():
    assert math.isclose(mbqc.rotation_angle(linalg.GATES["H"]), math.pi, abs_tol=1e-9)
    assert math.isclose(mbqc.rotation_angle(linalg.rz(0.7)), 0.7)
    assert math.isclose(mbqc.rotation_angle(linalg.rx(-0.4)), 0.4)
    assert mbqc.rotation_angle(1j * np.eye(2)) == 0.0


def test_rotation_angle_near_the_identity():
    # the sine is read from the traceless part, so small angles keep their
    # precision instead of flattening to 0 as an acos of the trace would
    for t in (0.0, 1e-12, 1e-9, 2e-8, 3e-8):
        assert abs(mbqc.rotation_angle(np.exp(0.3j) * linalg.rz(t)) - t) <= 1e-15, t
        assert abs(mbqc.rotation_angle(linalg.rx(-t)) - t) <= 1e-15, t


def test_rotation_angle_rejects_non_unitary():
    with pytest.raises(ValueError):
        mbqc.rotation_angle(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        mbqc.rotation_angle(np.eye(4))


def test_gadget_rotation_cosines():
    # cos(angle(G0)) = -cos^2 theta, cos(angle(G1)) = -sin^2 theta
    rng = np.random.default_rng(73)
    for theta in rng.uniform(-math.pi, math.pi, 20):
        a0 = mbqc.rotation_angle(mbqc.g_closed_form(theta, 0))
        a1 = mbqc.rotation_angle(mbqc.g_closed_form(theta, 1))
        assert abs(math.cos(a0) + math.cos(theta) ** 2) < 1e-10, theta
        assert abs(math.cos(a1) + math.sin(theta) ** 2) < 1e-10, theta


# -- universality decision --------------------------------------------------------------


def test_universal_angles():
    for text in ("pi*1/3", "pi*1/6", "pi*2/5", "-pi*1/3", "pi*5/6"):
        v = mbqc.universality_check(parse_angle(text))
        assert v.universal, text
        assert v.irrational_witnesses == ("G0", "G1")
        assert v.exact_cosines is None


def test_non_universal_quarter_pi_family():
    for text in ("pi*1/4", "pi*3/4", "-pi*1/4", "pi*5/4"):
        v = mbqc.universality_check(parse_angle(text))
        assert not v.universal, text
        assert v.exact_cosines == (Fraction(-1, 2), Fraction(-1, 2))
        assert math.isclose(v.cos_angle_g0, -0.5, abs_tol=1e-12)


def test_non_universal_half_pi_family():
    v = mbqc.universality_check(parse_angle("pi*1/2"))
    assert not v.universal and v.exact_cosines == (Fraction(0), Fraction(-1))
    v = mbqc.universality_check(parse_angle("pi*3/2"))
    assert v.exact_cosines == (Fraction(0), Fraction(-1))
    v = mbqc.universality_check(ExactAngle.rational(0, 1))
    assert not v.universal and v.exact_cosines == (Fraction(-1), Fraction(0))
    v = mbqc.universality_check(parse_angle("pi*5"))
    assert v.exact_cosines == (Fraction(-1), Fraction(0))


def test_exact_cosines_agree_with_floats():
    for text in ("pi*1/4", "pi*1/2", "pi*3/4", "pi*1"):
        v = mbqc.universality_check(parse_angle(text))
        assert math.isclose(float(v.exact_cosines[0]), v.cos_angle_g0, abs_tol=1e-12)
        assert math.isclose(float(v.exact_cosines[1]), v.cos_angle_g1, abs_tol=1e-12)


def test_universality_requires_exact_rational():
    with pytest.raises(ValueError):
        mbqc.universality_check(ExactAngle.real(0.7))


def test_non_universal_exactly_when_injected_gates_are_clifford():
    # the rational families are precisely the angles where G0 = H Rz(2 theta)
    # lands in the Clifford group, so the generated group is finite
    for num, den in [(1, 3), (1, 6), (1, 4), (1, 2), (3, 4), (2, 3), (0, 1), (5, 4)]:
        theta = ExactAngle.rational(num, den)
        g0 = mbqc.g_closed_form(float(theta), 0)
        g1 = mbqc.g_closed_form(float(theta), 1)
        universal = mbqc.universality_check(theta).universal
        assert universal == (not linalg.is_clifford(g0)), (num, den)
        assert linalg.is_clifford(g0) == linalg.is_clifford(g1)


def test_conjugation_by_injected_gate_is_always_easy():
    # H Rz(2 theta) has phi = pi/2 regardless of theta, so as a conjugating
    # unitary it always falls in the stabilizer-simulable case
    for theta in (0.3, math.pi / 4, math.pi / 3, 1.7):
        v = classify(decompose_unitary(mbqc.g_closed_form(theta, 0)))
        assert v.complexity_class == "PWEAK" and v.case_tag == "ii", theta
