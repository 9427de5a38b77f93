"""Cluster-state gadget verifier: teleportation chains, conjugated gadgets,
rotation-angle extraction, and the rational-angle universality decision.

Every gadget here is contracted numerically from its circuit, wire by wire;
the closed forms the tests compare against are computed independently.  The
universality decision, by contrast, is pure arithmetic on exact angles: for
theta in pi Q, a gate's rotation angle lies in pi Q only when theta is a
multiple of pi/4, by an algebraic-integer argument (universality_check).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .angles import ExactAngle

_EYE = np.eye(2, dtype=complex)


def _two_wire(after_top, after_bottom, before_top, before_bottom) -> np.ndarray:
    """(after_top x after_bottom) CZ (before_top x before_bottom)."""
    return (
        np.kron(after_top, after_bottom)
        @ linalg.GATES["CZ"]
        @ np.kron(before_top, before_bottom)
    )


def _postselect_top(w: np.ndarray, bit: int) -> np.ndarray:
    """1-to-1 action: top wire enters and is measured, bottom wire exits."""
    return np.array(
        [[w[2 * bit + j, 2 * i] for i in (0, 1)] for j in (0, 1)], dtype=complex
    )


def teleport_stage(bit: int) -> np.ndarray:
    """One CZ+H teleportation cell with postselection outcome `bit`.

    Top wire: input, CZ, H, <bit|.  Bottom wire: |0>, H, CZ, output.
    Contracts to (X^bit) H / sqrt(2).
    """
    w = _two_wire(linalg.GATES["H"], _EYE, _EYE, linalg.GATES["H"])
    return _postselect_top(w, bit)


def teleport_chain(postselect_bits: str) -> np.ndarray:
    """Contraction of a chain of teleportation cells, first bit first."""
    if not postselect_bits or set(postselect_bits) - {"0", "1"}:
        raise ValueError(f"bad postselection string {postselect_bits!r}")
    acc = _EYE
    for b in postselect_bits:
        acc = teleport_stage(int(b)) @ acc
    return acc


def g_gadget(theta, postselect_bit: int) -> np.ndarray:
    """The teleportation cell conjugated by Rz(theta) layers, with an X
    slipped in on the measured wire.

    Top wire: input, Rz(t), CZ, X, Rz(-t), H, <bit|.
    Bottom wire: |0>, H, Rz(t), CZ, Rz(-t), output.
    Contracts to a matrix proportional to (X^bit) H Rz(2 theta).
    """
    t = float(theta)
    rzp, rzm = linalg.rz(t), linalg.rz(-t)
    w = _two_wire(
        linalg.GATES["H"] @ rzm @ linalg.GATES["X"],
        rzm,
        rzp,
        rzp @ linalg.GATES["H"],
    )
    return _postselect_top(w, int(postselect_bit))


def g_closed_form(theta, postselect_bit: int) -> np.ndarray:
    """(X^bit) H Rz(2 theta): what g_gadget must be proportional to."""
    m = linalg.GATES["H"] @ linalg.rz(2 * float(theta))
    if postselect_bit:
        m = linalg.GATES["X"] @ m
    return m


def cz_between_gadget_wires(theta) -> np.ndarray:
    """CZ conjugated by the same Rz(theta) layers; the layers cancel."""
    t = float(theta)
    return _two_wire(linalg.rz(-t), linalg.rz(-t), linalg.rz(t), linalg.rz(t))


def rotation_angle(g: np.ndarray) -> float:
    """Bloch rotation angle in [0, pi] of a 2x2 unitary, phase-stripped: the
    arc between its two eigenphases (linalg.eigenphase_gap)."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2) or not linalg.is_unitary(g, linalg.GATE_UNITARY_TOL):
        raise ValueError("rotation extraction needs a 2x2 unitary")
    return float(linalg.eigenphase_gap(g))


@dataclass(frozen=True)
class UniversalityVerdict:
    universal: bool
    reason: str
    irrational_witnesses: tuple[str, ...]
    cos_angle_g0: float
    cos_angle_g1: float
    exact_cosines: tuple[Fraction, Fraction] | None


def universality_check(theta: ExactAngle) -> UniversalityVerdict:
    """Decide whether {H Rz(2 theta), X H Rz(2 theta)} is a universal pair.

    Requires a rational multiple of pi: the decision is arithmetic.  The
    Bloch rotation angles of the two gates satisfy cos(angle0) = -cos^2
    theta and cos(angle1) = -sin^2 theta, so 2 cos(angle0) = -(1 + cos 2
    theta) and 2 cos(angle1) = -(1 - cos 2 theta).  If either angle is in
    pi Q, its 2 cos is a root of unity plus its inverse, an algebraic
    integer, and then so is cos 2 theta.  With theta in pi Q, the conjugates
    of cos 2 theta are cosines, all in [-1, 1], so its norm, an integer, is
    0 or +-1; that forces cos 2 theta into {0, +-1}, that is theta into
    (pi/4) Z.  Off those multiples both gates rotate by irrational
    multiples of pi, which is what universality needs.  (A rational cosine
    is no part of it: at theta = pi/5, cos(angle0) = -(3 + sqrt 5)/8.)
    """
    if theta.pi_multiple is None:
        raise ValueError(
            "universality is decided arithmetically; theta must be an exact "
            "rational multiple of pi"
        )
    cos0 = -math.cos(float(theta)) ** 2
    cos1 = -math.sin(float(theta)) ** 2
    if not theta.in_quarter_pi_z():
        return UniversalityVerdict(
            universal=True,
            reason=(
                "theta is not a multiple of pi/4: both gate rotations are "
                "irrational multiples of pi (rational cosine outside "
                "{0, +-1/2, +-1})"
            ),
            irrational_witnesses=("G0", "G1"),
            cos_angle_g0=cos0,
            cos_angle_g1=cos1,
            exact_cosines=None,
        )
    if theta.in_half_pi_z():
        # cos^2 theta is 0 or 1: rotation angles are pi/2 and pi
        exact = (Fraction(-1), Fraction(0)) if theta.in_pi_z() else (
            Fraction(0),
            Fraction(-1),
        )
        family = "{pi/2, pi}"
    else:
        # odd multiple of pi/4: both cosines are -1/2, both angles 2 pi / 3
        exact = (Fraction(-1, 2), Fraction(-1, 2))
        family = "{2pi/3, 2pi/3}"
    return UniversalityVerdict(
        universal=False,
        reason=f"theta is a multiple of pi/4: rotation angles fall in the "
        f"rational family {family}",
        irrational_witnesses=(),
        cos_angle_g0=cos0,
        cos_angle_g1=cos1,
        exact_cosines=exact,
    )
