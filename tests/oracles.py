"""Reference routes the fast kernels are tested against.

Each routine here is the direct, unoptimized form of something
`cccsim.stabilizer` or `cccsim.experiments` now does faster: qubit-by-qubit
Aaronson–Gottesman measurement (`measure`, `sample_measurement`), one scalar
draw per coin of a compiled measurement (`draw`), the greedy-elimination
random Clifford draw (`random_clifford`), synthesis of a random Clifford as
a gate word (`random_clifford_circuit`), building a tableau from row
masks (`from_rows`), the anticoncentration trial's p values, one draw
and one statevector pass at a time (`anticoncentration_p_values`), and the
4x4 unitaries of the gadget search's two-qubit Clifford words, each
multiplied out gate by gate (`word_unitaries`).  The random routes consume
a generator exactly as the fast routes do, so tests compare the two seed
for seed.
"""
from __future__ import annotations

from functools import reduce

import numpy as np

from cccsim import linalg, stabilizer
from cccsim.errors import InvariantError
from cccsim.stabilizer import (
    CliffordCircuit,
    CliffordTableau,
    CompiledMeasurement,
    PauliString,
    _lowest,
    tableau_to_circuit,
)


def from_rows(n: int, xs: list[int], zs: list[int], ph: list[int] | None = None) -> CliffordTableau:
    """The tableau whose row i is i^ph[i] times the Pauli with masks xs[i], zs[i]."""
    ph = [0] * (2 * n) if ph is None else ph
    if not len(xs) == len(zs) == len(ph) == 2 * n:
        raise ValueError(f"need {2 * n} rows for n={n}")
    if any(m >> n for m in (*xs, *zs)):
        raise ValueError(f"row mask wider than n={n} qubits")
    xcol, zcol = [0] * n, [0] * n
    odd = sign = 0
    for i in range(2 * n):
        bit = 1 << i
        for q in range(n):
            if xs[i] >> q & 1:
                xcol[q] |= bit
            if zs[i] >> q & 1:
                zcol[q] |= bit
        odd |= (ph[i] & 1) << i
        sign |= (ph[i] >> 1 & 1) << i
    return CliffordTableau(n, xcol, zcol, odd, sign)


# -- measurement, one qubit at a time (the tableau of V doubles as V|0^n>) --------


def _pivot(t: CliffordTableau, q: int) -> int:
    """The first stabilizer row with X support at q, or -1 if Z_q is determined."""
    stabs = t.xcol[q] >> t.n
    return t.n + _lowest(stabs) if stabs else -1


def _move_bit(v: int, src: int, dst: int) -> int:
    """v with bit dst set to bit src, and bit src cleared."""
    return (v & ~(1 << dst) & ~(1 << src)) | ((v >> src & 1) << dst)


def _collapse(t: CliffordTableau, q: int, pivot: int) -> None:
    """The random-outcome step of measuring Z_q, leaving the pivot row +Z_q.

    Every other row with X support at q is multiplied by the pivot row,
    then the pivot row moves to its destabilizer slot.
    """
    n = t.n
    rows = t.xcol[q] & ~(1 << pivot)
    fx, fz = ([rows if v >> pivot & 1 else 0 for v in cols] for cols in (t.xcol, t.zcol))
    t._multiply_rows(rows, fx, fz, rows * (t.odd >> pivot & 1), rows * (t.sign >> pivot & 1))
    for cols in (t.xcol, t.zcol):
        for j in range(n):
            cols[j] = _move_bit(cols[j], pivot, pivot - n)
    t.odd = _move_bit(t.odd, pivot, pivot - n)
    t.sign = _move_bit(t.sign, pivot, pivot - n)
    t.zcol[q] |= 1 << pivot


def _z_rows(t: CliffordTableau, q: int) -> int:
    """With no pivot at q: the stabilizer rows whose product is +/- Z_q.

    They are the ones picked out by the destabilizers' X-support at q.
    """
    return (t.xcol[q] & ((1 << t.n) - 1)) << t.n


def _z_outcome(product: PauliString, q: int) -> int:
    """The bit read off a product of stabilizers that must equal +/- Z_q."""
    if product.x or product.z != 1 << q or product.phase & 1:
        raise InvariantError(f"stabilizer product {product} is not +/- Z_{q}")
    return product.phase >> 1


def measure(t: CliffordTableau, q: int, rng: np.random.Generator) -> int:
    """Measure qubit q in Z basis, collapsing t in place; returns the bit."""
    t._check(q)
    pivot = _pivot(t, q)
    if pivot >= 0:
        _collapse(t, q, pivot)
        outcome = int(rng.integers(2))
        t.sign |= outcome << pivot
        return outcome
    return _z_outcome(t._row_product(_z_rows(t, q)), q)


def sample_measurement(t: CliffordTableau, rng: np.random.Generator) -> str:
    """One string drawn exactly from |<y|V|0^n>|^2 for the tableau's V."""
    work = t.copy()
    return "".join(str(measure(work, q, rng)) for q in range(t.n))


def draw(sampler: CompiledMeasurement, rng: np.random.Generator) -> str:
    """One outcome of a compiled measurement, one scalar draw per coin."""
    coins = k = 0
    bits = []
    for term in sampler.terms:
        if term is None:
            bit = int(rng.integers(2))
            coins |= bit << k
            k += 1
        else:
            bit = term[0] ^ ((coins & term[1]).bit_count() & 1)
        bits.append(bit)
    return "".join(map(str, bits))


# -- uniform random Cliffords by greedy elimination --------------------------------


def _sp(a: int, b: int, n: int) -> int:
    """Symplectic inner product of two packed (x | z << n) vectors."""
    mask = (1 << n) - 1
    return (((a & mask) & (b >> n)).bit_count() + ((a >> n) & (b & mask)).bit_count()) & 1


def _combine(basis: list[int], coeffs) -> int:
    v = 0
    for b, c in zip(basis, coeffs):
        if c:
            v ^= b
    return v


def _independent(vectors: list[int]) -> list[int]:
    """Greedy F2 elimination; keeps a maximal independent subset."""
    pivots: dict[int, int] = {}
    out = []
    for v in vectors:
        r = v
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                out.append(v)
                break
            r ^= pivots[top]
    return out


def random_clifford(n: int, rng: np.random.Generator) -> CliffordTableau:
    """Uniform over the Clifford group modulo global phase, one pair per qubit.

    The basis of the symplectic complement is a list of packed (x | z << n)
    vectors, re-reduced by a greedy elimination at every step: O(n^3).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    basis = [1 << i for i in range(2 * n)]
    xs: list[int] = [0] * (2 * n)
    zs: list[int] = [0] * (2 * n)
    mask = (1 << n) - 1
    for j in range(n):
        m2 = len(basis)
        while True:
            coeffs = rng.integers(0, 2, size=m2)
            if coeffs.any():
                break
        v = _combine(basis, coeffs)
        w0 = next(b for b in basis if _sp(v, b, n))
        u = _combine(basis, rng.integers(0, 2, size=m2))
        w = u if _sp(v, u, n) else u ^ w0
        xs[j], zs[j] = v & mask, v >> n
        xs[n + j], zs[n + j] = w & mask, w >> n
        updated = []
        for b in basis:
            nb = b
            if _sp(b, w, n):
                nb ^= v
            if _sp(b, v, n):
                nb ^= w
            if nb:
                updated.append(nb)
        basis = _independent(updated)
    ph = [int(2 * b) for b in rng.integers(0, 2, size=2 * n)]
    return from_rows(n, xs, zs, ph)


def random_clifford_circuit(n: int, rng: np.random.Generator) -> CliffordCircuit:
    """A uniformly random Clifford as a gate word, drawn by the fast route."""
    return tableau_to_circuit(stabilizer.random_clifford(n, rng))


# -- anticoncentration, one draw at a time -----------------------------------------


def anticoncentration_p_values(n: int, u: np.ndarray, y: str, num_samples: int, seed: int) -> np.ndarray:
    """|<y| U*^n Gamma U^n |0^n>|^2 for each of num_samples Cliffords Gamma,
    each drawn, synthesized and applied to its own statevector in turn."""
    u = np.asarray(u, dtype=complex)
    psi = reduce(np.kron, [u[:, 0]] * n)
    phi = reduce(np.kron, [u[:, int(bit)] for bit in y])
    rng = np.random.default_rng(seed)
    p_values = np.empty(num_samples)
    for i in range(num_samples):
        p_values[i] = abs(np.vdot(phi, random_clifford_circuit(n, rng).apply(psi))) ** 2
    return p_values


# -- the gadget search's Clifford table, one word at a time --------------------------


def word_unitaries(words) -> np.ndarray:
    """The (len(words), 4, 4) stack of two-qubit word unitaries, each word
    multiplied out gate by gate from the identity."""
    eye = np.eye(4, dtype=complex)
    full = {
        (name, qs): linalg.apply_gate(eye, linalg.GATES[name], qs)
        for name, qs in {gate for word in words for gate in word}
    }
    mats = np.empty((len(words), 4, 4), dtype=complex)
    for idx, word in enumerate(words):
        m = eye
        for gate in word:
            m = full[gate] @ m
        mats[idx] = m
    return mats
