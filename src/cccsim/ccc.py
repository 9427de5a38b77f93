"""The conjugated-Clifford model: decomposition, classification, simulators.

A model instance is (U, V, n): every qubit enters through the one-qubit
unitary U, an n-qubit Clifford circuit V runs, every qubit exits through
U-dagger, then all qubits are measured.  The complexity of sampling the
outcome distribution is decided entirely by the Euler angles of U, written
U = e^{i alpha} Rz(phi) Rx(theta) Rz(lambda).

The classifier works on ExactAngle values, never on floats: the hard/easy
boundary is a union of measure-zero sets, so a numeric angle is first pushed
through rational-pi reconstruction and an angle that fails to reconstruct is
treated as generic.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .angles import ExactAngle, parse_angle
from .errors import InvariantError, ParseError
from .stabilizer import (
    CLIFFORD_GATES,
    CliffordTableau,
    PauliString,
    apply_canonical_forms,
    canonical_forms,
    compile_measurement,
    pull_back_pauli,
    stack,
)

PWEAK = "PWEAK"
PH_SUPREME = "PH_SUPREME"

_DEGENERATE_TOL = 1e-10
# the one unitarity bound for a one-qubit U, whether parsed, decomposed or
# handed to make_instance
UNITARY_TOL = 1e-10
_NOT_UNITARY = f"matrix is not unitary within {UNITARY_TOL:g}"


def euler_matrix(alpha: float, phi: float, theta: float, lam: float) -> np.ndarray:
    """e^{i alpha} Rz(phi) Rx(theta) Rz(lambda), multiplied out entrywise."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    g = cmath.exp(1j * alpha)
    return g * np.array(
        [
            [cmath.exp(-0.5j * (phi + lam)) * c, -1j * cmath.exp(-0.5j * (phi - lam)) * s],
            [-1j * cmath.exp(0.5j * (phi - lam)) * s, cmath.exp(0.5j * (phi + lam)) * c],
        ]
    )


@dataclass(frozen=True)
class UnitaryDecomposition:
    alpha: ExactAngle
    phi: ExactAngle
    theta: ExactAngle
    lam: ExactAngle

    def recompose(self) -> np.ndarray:
        return euler_matrix(
            float(self.alpha), float(self.phi), float(self.theta), float(self.lam)
        )

    def __str__(self) -> str:
        return (
            f"alpha={self.alpha} phi={self.phi} theta={self.theta} lambda={self.lam}"
        )


def _canonical_fold(
    alpha: ExactAngle, phi: ExactAngle, theta: ExactAngle, lam: ExactAngle
) -> UnitaryDecomposition:
    """Enforce lambda = 0 whenever theta is a multiple of pi.

    Rx(2k pi) is proportional to I and Rx((2k+1) pi) to X, so lambda is a
    free parameter there; folding it into phi is exact:
    Rz(phi)Rz(lam) = Rz(phi+lam) and Rz(phi) X Rz(lam) = Rz(phi-lam) X Rz(0)
    ... X absorbs the sign flip, giving phi' = phi - lam in the odd case.
    """
    if theta.in_pi_z():
        phi = phi + lam if theta.pi_multiple % 2 == 0 else phi - lam
        lam = ExactAngle.rational(0)
    return UnitaryDecomposition(alpha, phi, theta, lam)


def decompose_unitary(u: np.ndarray) -> UnitaryDecomposition:
    """Euler angles of a 2x2 unitary, with rational-pi tags where they exist.

    Angles are kept as the exact floats the extraction produces; the
    rational-pi tag rides along separately, even when it is approximate.
    Recomposition reproduces the input to within 1e-8, the bound checked
    below, and raises InvariantError past it.  Most inputs recompose to
    about 1e-15, but near theta = pi the diagonal route's phases are read
    from entries of modulus about |pi - theta| / 2 and are accepted up to
    that bound (9.97e-9 has been seen).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {u.shape}")
    if not linalg.is_unitary(u, UNITARY_TOL):
        raise ValueError(_NOT_UNITARY)

    if abs(u[1, 0]) <= _DEGENERATE_TOL:
        # diagonal: theta = 0, lambda folded away
        phi = cmath.phase(u[1, 1] / u[0, 0])
        alpha = cmath.phase(u[0, 0]) + phi / 2
        return _tagged(alpha, phi, 0.0, 0.0)
    if abs(u[0, 0]) <= _DEGENERATE_TOL:
        # antidiagonal: theta = pi, lambda folded away
        phi = cmath.phase(u[1, 0] / u[0, 1])
        alpha = cmath.phase(u[0, 1]) + phi / 2 + math.pi / 2
        return _tagged(alpha, phi, math.pi, 0.0)

    theta = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    sum_pl = cmath.phase(u[1, 1] / u[0, 0])  # phi + lambda, mod 2pi
    dif_pl = cmath.phase(u[1, 0] / u[0, 1])  # phi - lambda, mod 2pi
    phi = (sum_pl + dif_pl) / 2
    lam = (sum_pl - dif_pl) / 2
    alpha = cmath.phase(u[0, 0]) + sum_pl / 2
    # the half-sums fix phi only mod pi; probe one entry and take the branch
    # that reproduces it (the flip phi+pi, lam-pi leaves u00 and u11 alone)
    probe = euler_matrix(alpha, phi, theta, lam)[1, 0]
    if abs(probe - u[1, 0]) > abs(probe + u[1, 0]):
        phi += math.pi
        lam -= math.pi
    dec = _tagged(alpha, phi, theta, lam)
    # folding theta in the reconstruction window of 0 or pi without hitting
    # the entrywise degeneracy tolerance costs at most ~2e-9; near theta = pi
    # the phases read from the small u00 and u11 cost more (9.97e-9 seen),
    # hence the loose internal bound here
    residual = np.max(np.abs(dec.recompose() - u))
    if not residual < 1e-8:
        # near theta = pi, u00 and u11 are too small to carry alpha's phase:
        # read it from u10 instead, and probe u00 for the branch (the flip
        # phi+pi, lam+pi leaves u10 and u01 alone)
        phi, lam = (sum_pl + dif_pl) / 2, (sum_pl - dif_pl) / 2
        alpha = cmath.phase(u[1, 0]) + math.pi / 2 - dif_pl / 2
        probe = euler_matrix(alpha, phi, theta, lam)[0, 0]
        if abs(probe - u[0, 0]) > abs(probe + u[0, 0]):
            phi += math.pi
            lam += math.pi
        dec = _tagged(alpha, phi, theta, lam)
        residual = np.max(np.abs(dec.recompose() - u))
    if not residual < 1e-8:
        raise InvariantError(f"Euler angles recompose the input only to {residual:.2e}")
    return dec


def _tagged(alpha: float, phi: float, theta: float, lam: float) -> UnitaryDecomposition:
    return _canonical_fold(
        ExactAngle.from_radians(alpha),
        ExactAngle.from_radians(phi),
        ExactAngle.from_radians(theta),
        ExactAngle.from_radians(lam),
    )


@dataclass(frozen=True)
class ClassificationVerdict:
    case_tag: str
    complexity_class: str
    gamma_word: tuple[str, ...] | None = None
    canonical_lam: ExactAngle | None = None


def classify(dec: UnitaryDecomposition) -> ClassificationVerdict:
    """Decide the sampling complexity of the model from (phi, theta).

    alpha never matters; lambda never affects the class (it only shifts the
    canonical form).  The four cases are checked in order and partition the
    parameter space:
      i   theta in pi Z              -> easy, U ~ (I or X) Rz(.)
      ii  theta in (pi/2) Z_odd and
          phi   in (pi/2) Z          -> easy, U ~ S^j H S^m H Rz(lambda)
      iii theta in (pi/2) Z_odd      -> hard
      iv  theta not in (pi/2) Z      -> hard
    """
    phi, theta, lam = dec.phi, dec.theta, dec.lam
    if theta.in_pi_z():
        if theta.pi_multiple % 2 == 0:
            return ClassificationVerdict("i", PWEAK, (), phi + lam)
        return ClassificationVerdict("i", PWEAK, ("X",), lam - phi)
    if theta.in_half_pi_z_odd():
        if phi.in_half_pi_z():
            j = int(2 * phi.pi_multiple) % 4
            m = int(2 * theta.pi_multiple) % 4
            word = ("S",) * j + ("H",) + ("S",) * m + ("H",)
            return ClassificationVerdict("ii", PWEAK, word, lam)
        return ClassificationVerdict("iii", PH_SUPREME)
    return ClassificationVerdict("iv", PH_SUPREME)


# -- instances and reference simulation ---------------------------------------


@dataclass(frozen=True, eq=False)
class CccInstance:
    """U, and V as its tableau."""

    u: np.ndarray
    decomposition: UnitaryDecomposition
    v: CliffordTableau
    n: int


def make_instance(
    u: np.ndarray, v: CliffordTableau, decomposition: UnitaryDecomposition | None = None
) -> CccInstance:
    u = np.asarray(u, dtype=complex)
    if decomposition is None:
        decomposition = decompose_unitary(u)
    elif not linalg.is_unitary(u, UNITARY_TOL):
        raise ValueError(_NOT_UNITARY)
    return CccInstance(u, decomposition, v, v.n)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    n: int
    probs: np.ndarray

    def __post_init__(self):
        total = float(self.probs.sum())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"probabilities sum to {total}, not 1")


def tv_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    if p.n != q.n:
        raise ValueError("qubit count mismatch")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def _conjugated_state(instance: CccInstance) -> np.ndarray:
    """U-dagger^(x)n V U^(x)n |0^n>, with V applied as its canonical form."""
    # the cap's refusal, then the batch's (n <= 31), before any amplitude
    linalg.check_dense_cap(instance.n)
    forms = canonical_forms(stack([instance.v]))
    state = linalg.zero_state(instance.n)
    for q in range(instance.n):
        state = linalg.apply_gate(state, instance.u, (q,))
    state = apply_canonical_forms(forms, state[None])[0]
    ud = instance.u.conj().T
    for q in range(instance.n):
        state = linalg.apply_gate(state, ud, (q,))
    return state


def dense_distribution(instance: CccInstance) -> OutcomeDistribution:
    """Exact outcome distribution by statevector simulation (n-capped)."""
    amps = _conjugated_state(instance)
    return OutcomeDistribution(instance.n, np.abs(amps) ** 2)


# -- easy-case weak simulation -------------------------------------------------


def _easy_reduction(instance: CccInstance) -> tuple[CliffordTableau, bool]:
    """Reduce a PWEAK instance to (Clifford tableau, negate outputs?).

    The returned tableau C, a copy, satisfies: the model's distribution is
    |<y|C|0^n>|^2, up to bitwise negation of y when the flag is set.
    """
    verdict = classify(instance.decomposition)
    if verdict.complexity_class != PWEAK:
        raise ValueError("instance is not weakly simulable by the easy path")
    t = instance.v.copy()
    word = verdict.gamma_word
    if word == ("X",):
        # U ~ X Rz(.): inputs become |1..1>, outputs are read negated
        t.prepend_layer("X")
        return t, True
    # case ii: C = gamma-dagger^(x)n V gamma^(x)n (case i plain: C = V)
    for g in word:
        t.prepend_layer(g)
    for g in word:
        update = getattr(t, CLIFFORD_GATES["SDG" if g == "S" else g])
        for q in range(instance.n):
            update(q)
    return t, False


_NEGATE = str.maketrans("01", "10")


def simulate_easy_weak(
    instance: CccInstance, rng: np.random.Generator, shots: int
) -> list[str]:
    """Exact samples from the model distribution via the stabilizer path.

    Reduces and compiles the measurement once, then draws every shot from
    one block of coins; rng is consumed as measuring qubit by qubit would
    (`sample_measurement` in tests/oracles.py).
    """
    tableau, negate = _easy_reduction(instance)
    samples = compile_measurement(tableau).draw_many(rng, shots)
    if negate:
        samples = [y.translate(_NEGATE) for y in samples]
    return samples


def easy_reduction_distribution(instance: CccInstance) -> OutcomeDistribution:
    """The exact distribution of the reduced tableau (n-capped, for oracles).

    A stabilizer state is uniform on its affine support, so every outcome
    there has probability exactly 2^-k.
    """
    n = instance.n
    linalg.check_dense_cap(n, what="distribution")
    tableau, negate = _easy_reduction(instance)
    support = compile_measurement(tableau).support()
    if negate:
        support ^= (1 << n) - 1
    probs = np.zeros(2**n)
    probs[support] = 1.0 / len(support)
    return OutcomeDistribution(n, probs)


# -- strong(1): exact single-qubit marginals without dense simulation ----------


def marginal_single_qubit(instance: CccInstance, j: int) -> float:
    """p(y_j = 0), in time polynomial in n (no dense statevector).

    U Z U^dag expands over the Pauli basis with real coefficients; each term
    is pulled back through V's tableau (pull_back_pauli) and evaluated on the
    product state U|0>^n as a product of one-qubit expectations.  A j
    outside 0..n-1 raises ValueError, from PauliString.single.
    """
    n = instance.n
    u = instance.u
    uzu = u @ linalg.GATES["Z"] @ u.conj().T
    coeff = {
        name: float(np.trace(linalg.GATES[name] @ uzu).real) / 2.0
        for name in ("X", "Y", "Z")
    }
    col = u[:, 0]
    w = complex(np.conj(col[0]) * col[1])
    single = {
        "X": 2.0 * w.real,
        "Y": 2.0 * w.imag,
        "Z": abs(col[0]) ** 2 - abs(col[1]) ** 2,
        "I": 1.0,
    }
    expectation = 0.0
    for name in ("X", "Y", "Z"):
        if abs(coeff[name]) < 1e-15:
            continue
        back = pull_back_pauli(instance.v, PauliString.single(n, name, j))
        # the pullback of a Hermitian Pauli is Hermitian: phase is 0 or 2
        sign = 1.0 if back.phase == 0 else -1.0
        value = sign
        for q in range(n):
            value *= single[back.letter(q)]
        expectation += coeff[name] * value
    return (1.0 + expectation) / 2.0


# -- input parsing --------------------------------------------------------------

# each accepted rotation word, left factor first, and the Euler slot of
# each of its angles in U = Rz(phi) Rx(theta) Rz(lam)
_ROTATION_SLOTS = {
    ("rz",): ("phi",),
    ("rx",): ("theta",),
    ("rz", "rx"): ("phi", "theta"),
    ("rx", "rz"): ("theta", "lam"),
    ("rz", "rx", "rz"): ("phi", "theta", "lam"),
}


@dataclass(frozen=True, eq=False)
class UnitarySpec:
    matrix: np.ndarray
    decomposition: UnitaryDecomposition | None


def parse_unitary_spec(text: str) -> UnitarySpec:
    """Parse a one-qubit unitary description.

    Three forms: a gate name (H, T, ...), a rotation word like
    'rz=pi*1/3 rx=pi*1/2' (keys in any case; at most Rz Rx Rz, left factor
    first), or eight reals giving the matrix row-major as re,im pairs.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty unitary spec")
    upper = text.upper()
    if upper in linalg.ONE_QUBIT_GATES:
        return UnitarySpec(linalg.gate(upper), None)
    if upper in linalg.GATES:
        raise ParseError(f"cannot parse unitary spec {text!r}: {upper} is a two-qubit gate")
    fields = text.split()
    if "=" in fields[0]:
        kinds: list[str] = []
        angles: list[ExactAngle] = []
        for tok in fields:
            key, _, val = tok.partition("=")
            key = key.lower()
            if key not in ("rz", "rx") or not val:
                raise ParseError(f"bad rotation token {tok!r}")
            kinds.append(key)
            angles.append(parse_angle(val))
        names = _ROTATION_SLOTS.get(tuple(kinds))
        if names is None:
            raise ParseError(
                f"rotation sequence {' '.join(kinds)} is not of the form rz rx rz"
            )
        zero = ExactAngle.rational(0)
        slots = {"phi": zero, "theta": zero, "lam": zero, **dict(zip(names, angles))}
        dec = _canonical_fold(zero, slots["phi"], slots["theta"], slots["lam"])
        return UnitarySpec(dec.recompose(), dec)
    if len(fields) == 8:
        try:
            vals = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"bad matrix entry in {text!r}") from None
        m = np.array(
            [
                [complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                [complex(vals[4], vals[5]), complex(vals[6], vals[7])],
            ]
        )
        if not linalg.is_unitary(m, UNITARY_TOL):
            raise ParseError(_NOT_UNITARY)
        return UnitarySpec(m, None)
    raise ParseError(
        f"cannot parse unitary spec {text!r}: expected a gate name, "
        "rz/rx rotations, or eight reals"
    )
