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
import itertools
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
    if not raw:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{DENSE_CAP_ENV} must be a non-negative integer, got {raw!r}")
    return cap


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


def _signed_sum(terms):
    """t_0 +- t_1 +- ..., added in order, for (negate, t) pairs whose first
    negate is False.  Subtracting t rounds as adding (-1.0) * t does, so each
    sum keeps the bits of the product with a +-1 matrix it stands for."""
    terms = iter(terms)
    _, out = next(terms)
    for negate, t in terms:
        out = out - t if negate else out + t
    return out


def unitary_scale(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix of a (..., d, d) stack: is a^dag a = gamma*I, and gamma.

    Returns (mask, gamma), both of the stack's leading shape (numpy scalars
    for a 2-D input).  gamma = tr(a^dag a) / d for every matrix; the mask
    holds where gamma > tol and a^dag a is within tol*max(1, gamma) of
    gamma*I, entrywise.  a^dag a is formed once, for both answers.  On a
    stack, each of its entries is one (...)-shaped array, summed over the
    inner index in order, and so is its trace; the entries are formed one
    at a time, never as a (d, d, ...) block.  Both triangles are read:
    numpy's complex multiply may fuse a multiply-add, so |m_ji| can differ
    from |m_ij| in the last bit.  A single matrix goes through `@` and
    np.trace; BLAS and the in-order sums round differently, so a matrix's
    gamma alone may differ from its gamma in a stack in the last bits.

    The unitarity bounds in the package, by input:
      * ccc.UNITARY_TOL (1e-10), is_unitary on a `--u` / `--target` matrix;
      * GATE_UNITARY_TOL (1e-8), is_unitary on U in the gadget search, on
        compile_word's target and generators and on the gate
        mbqc.rotation_angle reads;
      * tol*max(1, gamma) with tol = GATE_UNITARY_TOL, unitarity up to
        scale here (a gadget action);
      * PAULI_COEFF_TOL (1e-9) on each Pauli coefficient in is_clifford.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[-1]
    if a.ndim == 2:
        m = a.conj().T @ a
        gamma = np.trace(m).real / d
        m[np.diag_indices(d)] -= gamma
        resid = np.abs(m).max()
    else:
        def gram(i: int, j: int) -> np.ndarray:  # (a^dag a)[i, j], summed over k in order
            return reduce(np.add, (a[..., k, i].conj() * a[..., k, j] for k in range(a.shape[-2])))

        diagonal = [gram(i, i) for i in range(d)]
        gamma = reduce(np.add, diagonal).real / d
        off = (gram(i, j) for i in range(d) for j in range(d) if i != j)
        resid = reduce(np.maximum, itertools.chain((np.abs(g - gamma) for g in diagonal), map(np.abs, off)))
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
    diagonal of M.  A single matrix forms each image and each transform with
    `@`.  On a stack only those d entries of each image are formed, one
    (...)-shaped array each, summed over the inner index in order as in
    unitary_scale, and the transform is a +-sum over c in order.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[-1]
    l = d.bit_length() - 1
    if a.ndim < 2 or a.shape[-2] != d or d != 2**l:
        raise ValueError(f"expected 2**l x 2**l matrices, got {' x '.join(map(str, a.shape[-2:]))}")
    if gamma is None:
        clifford, gamma = unitary_scale(a)
        gamma = np.where(clifford, gamma, 1.0)
    else:
        clifford = np.ones(a.shape[:-2], dtype=bool)
    if a.ndim == 2:  # one matrix: each image and each Walsh transform is one `@`
        idx = np.arange(d)
        diagonals = (idx[None, :], idx[None, :] ^ idx[:, None])  # [x, c] -> (c, c^x)
        walsh = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * l, np.ones((1, 1)))  # (-1)^(z.c)

        def above(swap: int, flip: int) -> int:
            image = (a[:, idx ^ swap] * np.where(idx & flip, -1.0, 1.0)) @ a.conj().T / gamma
            return np.count_nonzero(~(np.abs(image[diagonals] @ walsh) / d <= PAULI_COEFF_TOL))

    else:  # a stack: only the d entries (c, c^x) of each image, one (...)-shaped array each
        entries = [[a[..., r, c] for c in range(d)] for r in range(d)]
        conj = [[x.conj() for x in row] for row in entries]
        odd = [[bin(c & z).count("1") % 2 for z in range(d)] for c in range(d)]  # Walsh sign of (c, z)

        def above(swap: int, flip: int) -> np.ndarray:
            def image(r: int, c: int) -> np.ndarray:  # (a P a^dag)[r, c] / gamma, summed over k in order
                return _signed_sum((k & flip, entries[r][k ^ swap] * conj[c][k]) for k in range(d)) / gamma

            diagonals = [[image(c, c ^ x) for c in range(d)] for x in range(d)]
            return sum(
                ~(np.abs(_signed_sum((odd[c][z], diagonals[x][c]) for c in range(d))) / d <= PAULI_COEFF_TOL)
                for x in range(d)
                for z in range(d)
            )

    for w in range(l):
        bit = 1 << (l - 1 - w)
        # a @ X_w permutes a's columns by ^bit, a @ Z_w negates those with the bit set
        for swap, flip in ((bit, 0), (0, bit)):
            # at most one coefficient above the bound; a NaN counts as above
            clifford = clifford & (above(swap, flip) <= 1)
    return clifford


def product_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for broadcastable (..., 2, 2) stacks, formed entry by entry as
    a[:, 0] b[0, :] + a[:, 1] b[1, :], two whole-array multiplies and one
    add, not a small GEMM per matrix.  Each entry's arithmetic does not
    depend on the stack's shape, so a stack's products equal the same
    products taken one at a time bit for bit.  They may differ from `@` in
    the last bit: BLAS rounds its sums its own way (H H leaves -2.2e-17 off
    the diagonal under `@`, 0 here)."""
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


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
    (eigenphase_gap).  b^dag a is formed by product_2x2.  Inputs are not
    checked for unitarity.
    """
    return 2.0 * np.sin(eigenphase_gap(product_2x2(b.conj().T, stack)) / 4.0)
