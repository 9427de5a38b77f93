"""Small dense complex linear algebra: gates, statevectors, gadget actions.

Conventions used throughout the package:
  * a statevector on n qubits is a flat complex array of length 2**n, and
    apply_gate, the one dense gate kernel, also takes (2**n, *batch) blocks,
  * qubit 0 is the most significant bit of the index, so the amplitude of
    the bitstring y is state[int(y, 2)],
  * all comparisons between operators are phase-insensitive unless stated.
"""
from __future__ import annotations

import cmath
import math
import os
from functools import reduce

import numpy as np

from .errors import CapabilityError

DEFAULT_DENSE_CAP = 16
DENSE_CAP_ENV = "CCCSIM_DENSE_CAP"
# unitarity bound for gate-like inputs, and is_clifford's bound on a Pauli
# coefficient; unitary_scale lists every bound
GATE_UNITARY_TOL = 1e-8
PAULI_COEFF_TOL = 1e-9

_SQ2 = 1.0 / math.sqrt(2.0)

GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}

#: the gate names a one-qubit unitary or generator may be given as
ONE_QUBIT_GATES = frozenset(name for name, m in GATES.items() if m.shape == (2, 2))


def gate(name: str) -> np.ndarray:
    """Look up a named gate matrix (a copy, safe to mutate)."""
    try:
        return GATES[name].copy()
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None


def rz(theta: float) -> np.ndarray:
    """exp(-i*theta*Z/2)."""
    t = float(theta)
    return np.array([[cmath.exp(-0.5j * t), 0], [0, cmath.exp(0.5j * t)]])


def rx(theta: float) -> np.ndarray:
    """exp(-i*theta*X/2)."""
    t = float(theta)
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def dense_cap() -> int:
    """Largest qubit count dense simulation will accept (env-overridable)."""
    raw = os.environ.get(DENSE_CAP_ENV)
    return int(raw) if raw else DEFAULT_DENSE_CAP


def check_dense_cap(n: int, what: str = "dense statevector") -> None:
    """Refuse dense work on more than dense_cap() qubits; `what` names it."""
    cap = dense_cap()
    if n > cap:
        raise CapabilityError(
            f"{what} on {n} qubits exceeds the cap of {cap} (override with {DENSE_CAP_ENV})"
        )


def zero_state(n: int) -> np.ndarray:
    check_dense_cap(n)
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    return state


def apply_gate(state: np.ndarray, g: np.ndarray, targets: tuple[int, ...] | list[int]) -> np.ndarray:
    """Apply a 2**t x 2**t gate to the target qubits of a (2**n, *batch) block.

    The leading axis indexes the n-qubit basis; any trailing axes are batch
    axes carried along, so a flat vector is one state and a 2**n x m block is
    m states side by side.  The result has the input's shape.
    """
    n = state.shape[0].bit_length() - 1
    if state.shape[0] != 2**n:
        raise ValueError(f"leading axis {state.shape[0]} is not a power of two")
    targets = tuple(targets)
    t = len(targets)
    if g.shape != (2**t, 2**t):
        raise ValueError(f"gate shape {g.shape} does not match {t} targets")
    if len(set(targets)) != t or any(q < 0 or q >= n for q in targets):
        raise ValueError(f"bad targets {targets} for {n} qubits")
    psi = np.moveaxis(state.reshape((2,) * n + state.shape[1:]), targets, range(t))
    out = np.tensordot(
        g.reshape((2,) * (2 * t)),
        psi,
        axes=(tuple(range(t, 2 * t)), tuple(range(t))),
    )
    out = np.moveaxis(out, range(t), targets)
    return np.ascontiguousarray(out).reshape(state.shape)


def normalized_action(a: np.ndarray) -> np.ndarray:
    """Rescale a square matrix to unit determinant via the principal root.

    The result is canonical only up to a (dim)-th root of unity; every
    predicate downstream of this is phase-insensitive.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    det = complex(np.linalg.det(a))
    if abs(det) < 1e-12:
        raise ValueError("normalized action does not exist: matrix is singular")
    return a / det ** (1.0 / d)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for matrix-first (d, e, ...) and (e, f, ...) stacks: one
    elementwise pass over the batch per inner index.  One matrix takes `@`."""
    if a.ndim == 2:
        return a @ b
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def unitary_scale(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix of a (..., d, d) stack: is a^dag a = gamma*I, and gamma.

    Returns (mask, gamma), both of the stack's leading shape (numpy scalars
    for a 2-D input).  gamma = tr(a^dag a) / d for every matrix; the mask
    holds where gamma > tol and a^dag a is within tol*max(1, gamma) of
    gamma*I, entrywise.  a^dag a is formed once, for both answers, matrix
    first: gamma and the residual reduce over its two leading axes.

    The unitarity bounds in the package, by input:
      * ccc.UNITARY_TOL (1e-10), is_unitary on a `--u` / `--target` matrix;
      * GATE_UNITARY_TOL (1e-8), is_unitary on U in the gadget search, on
        compile_word's target and generators and on the gate
        mbqc.rotation_angle reads;
      * tol*max(1, gamma) with tol = GATE_UNITARY_TOL, unitarity up to
        scale here (a gadget action);
      * PAULI_COEFF_TOL (1e-9) on each Pauli coefficient in is_clifford.
    """
    a = np.moveaxis(np.asarray(a, dtype=complex), (-2, -1), (0, 1))
    m = _product(a.conj().swapaxes(0, 1), a)
    gamma = np.trace(m).real / len(m)
    m[np.diag_indices(len(m))] -= gamma
    resid = np.abs(m).max(axis=(0, 1))
    return (gamma > GATE_UNITARY_TOL) & (resid <= GATE_UNITARY_TOL * np.maximum(1.0, gamma)), gamma


def is_unitary(a: np.ndarray, tol: float = GATE_UNITARY_TOL) -> bool:
    a = np.asarray(a, dtype=complex)
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= tol)


def is_clifford(a: np.ndarray, gamma: np.ndarray | None = None) -> np.ndarray:
    """For each matrix of a (..., d, d) stack, d = 2**l: Clifford up to scale?

    True iff the matrix is unitary up to scale (see unitary_scale) and
    conjugation by it maps every single-qubit X_w and Z_w to a Pauli string
    up to phase.  A caller that already ran unitary_scale passes the gamma of
    rows it found unitary; those rows are then taken as unitary, and only the
    Pauli images are tested.  The image a P a^dag / gamma has Pauli
    coefficients c_Q = tr(Q image) / d with sum |c_Q|^2 = 1; it is a Pauli
    iff every coefficient but the largest is at most PAULI_COEFF_TOL in
    modulus.  The coefficients are read in one pass: tr(X^x Z^z M) =
    sum_c (-1)^(z.c) M[c, c^x], a Walsh-Hadamard transform of the x-th
    diagonal of M, run matrix first as in unitary_scale.
    """
    if gamma is None:
        clifford, gamma = unitary_scale(a)
        gamma = np.where(clifford, gamma, 1.0)
    else:
        clifford = np.ones(np.shape(a)[:-2], dtype=bool)
    a = np.moveaxis(np.asarray(a, dtype=complex), (-2, -1), (0, 1))
    d, l, batch = len(a), len(a).bit_length() - 1, (1,) * (a.ndim - 2)
    if a.shape[1] != d or d != 2**l:
        raise ValueError(f"expected 2**l x 2**l matrices, got {a.shape[0]} x {a.shape[1]}")
    ad = a.conj().swapaxes(0, 1)
    idx = np.arange(d)
    diagonals = (idx[None, :], idx[None, :] ^ idx[:, None])  # [x, c] -> (c, c^x)
    walsh = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * l, np.ones((1, 1))).reshape((d, d) + batch)
    for w in range(l):
        bit = 1 << (l - 1 - w)
        x_w = a[:, idx ^ bit]  # a @ X_w permutes columns
        z_w = a * np.where(idx & bit, -1.0, 1.0).reshape((d,) + batch)  # a @ Z_w flips column signs
        for image in (_product(x_w, ad) / gamma, _product(z_w, ad) / gamma):
            coeffs = np.abs(_product(image[diagonals], walsh)) / d
            # at most one coefficient above the bound; a NaN counts as above
            clifford = clifford & (np.count_nonzero(~(coeffs <= PAULI_COEFF_TOL), axis=(0, 1)) <= 1)
    return clifford


def eigenphase_gap(m: np.ndarray) -> np.ndarray:
    """The arc in [0, pi] between the two eigenphases a, b of each 2x2
    unitary of a (..., 2, 2) stack: 2 atan2(|sin((a-b)/2)|, |cos((a-b)/2)|),
    read as the Frobenius norm of m's traceless part over sqrt(2) and
    |tr m|/2, which keeps full precision near 0 and near pi."""
    h = (m[..., 0, 0] + m[..., 1, 1]) / 2
    s = np.sqrt(np.abs(m[..., 0, 0] - h) ** 2 + (np.abs(m[..., 0, 1]) ** 2 + np.abs(m[..., 1, 0]) ** 2) / 2)
    return 2.0 * np.arctan2(s, np.abs(h))


def phase_invariant_distance_batch(stack: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min over unit phases of the operator norm ||a - exp(i*g)*b||, for each
    2x2 unitary a of an (N, 2, 2) stack against one 2x2 unitary b.

    The optimal phase sits midway between the two eigenphases of b^dag a,
    so the distance is 2 sin(arc/4) of the arc between them
    (eigenphase_gap).  Inputs are not checked for unitarity.
    """
    return 2.0 * np.sin(eigenphase_gap(b.conj().T @ stack) / 4.0)
