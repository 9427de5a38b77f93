"""Reference routes the fast kernels are tested against.

Each routine here is the direct, unoptimized form of something
`cccsim.stabilizer` or `cccsim.experiments` now does faster: qubit-by-qubit
Aaronson–Gottesman measurement (`measure`, `sample_measurement`), one scalar
draw per coin of a compiled measurement (`draw`), the greedy-elimination
random Clifford draw (`random_clifford`), synthesis of a tableau as a gate
word (`tableau_to_circuit`, with `inverse`; the reference for the
canonical forms and their dense action) and of a random Clifford
(`random_clifford_circuit`), the canonical form of one tableau by its own
elimination, with every gate replayed through `CliffordTableau.apply`, each
CZ as H CNOT H and each S-dagger as S^3 (`canonical_form`;
`stabilizer.canonical_forms` is pinned to it bit for bit), such forms
stacked into the batch `canonical_forms` returns (`stack_forms`), building
a tableau from row masks (`from_rows`), the anticoncentration trial's p
values, one draw, one synthesized word and one statevector pass at a time
(`anticoncentration_p_values`), and the 4x4 unitaries of the gadget
search's two-qubit Clifford words, each multiplied out gate by gate
(`word_unitaries`), the BFS that finds those words with one tableau
copied and extended per (class, gate) pair (`enumerate_clifford_words`),
and the model's dense distribution with V applied gate by gate, one
matrix per gate of its word (`dense_by_gates`; `ccc.dense_distribution`
applies V's canonical form).
The random routes consume a generator exactly as the fast routes do, so
tests compare the two seed for seed.

The gadget search's first form is here too: each slice classified by
three stacked predicates that each form a^dag a with matmul
(`is_unitary_up_to_scale`, `scale`, `is_clifford`), in `search_gadgets`;
`linalg.unitary_scale` and `gadgets.search_gadgets` are pinned to it.
So are the two predicates as they were before they read a stack entry by
entry: a^dag a, each image a P a^dag and each Walsh transform formed whole,
one broadcast `(d, d, N)` product per inner index
(`matrix_first_unitary_scale`, `matrix_first_is_clifford`); the entry-wise
predicates must give their masks and gammas bit for bit.
So is the beam compiler's first form, one `(matrix, word)` tuple per
candidate, each product formed on its own by `linalg.product_2x2` (which
keeps a product's bits whether it is taken alone or in a stack) and the
beam sorted with a key (`compile_word`); `gadgets.compile_word`, which
carries only its beam's matrices and each level's child indices, must
return its word and distance exactly.

The rest are helpers only tests call: a gate word replayed gate by gate
into a tableau (`circuit_to_tableau`; `stabilizer.parse_tableau` is pinned
to it) or onto a block of states (`apply_word`), dense Pauli and circuit
matrices (`pauli_matrix`, `to_unitary`), the product of two Paulis
(`pauli_product`), the Pauli commutation test (`commutes`), a
Pauli pulled back through a gate word one gate at a time (`pull_back`),
the finite-n Paley-Zygmund bound from a mean and second moment
(`paley_zygmund_bound`; the trial reports its large-n limit), equality up to
a factor (`proportional_up_to_phase`), the checked distance up to phase
between two unitaries by an eigensolver (`phase_invariant_distance`; the
reference for the 2x2 closed form), a gadget's output wires
(`output_wires`), a PWEAK verdict's matrix (`canonical_matrix`), the
verdict class read from U Z U-dagger alone, with no Euler angle
(`verdict_by_bloch`), the 24 one-qubit Cliffords as words and matrices
(`one_qubit_cliffords`), one dense outcome probability
(`outcome_probability`) and the I and J gadgets multiplied out by hand
(`gadget_I_closed_form`, `gadget_J_closed_form`).
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from cccsim import gadgets, linalg, stabilizer
from cccsim.ccc import PH_SUPREME, PWEAK, CccInstance, ClassificationVerdict, dense_distribution
from cccsim.errors import CapabilityError, InvariantError
from cccsim.gadgets import Gadget, GadgetAction
from cccsim.stabilizer import (
    CliffordCircuit,
    CliffordTableau,
    CompiledMeasurement,
    PauliString,
    _bits,
    _lowest,
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


# -- Pauli and circuit helpers, dense where they say so ---------------------------


def pauli_matrix(p: PauliString) -> np.ndarray:
    """The dense matrix of p, phase included (subject to the dense cap)."""
    linalg.check_dense_cap(p.n, what="dense Pauli")
    m = np.array([[1]], dtype=complex)
    for q in range(p.n):
        m = np.kron(m, linalg.GATES[p.letter(q)])
    return (1j**p.phase) * m


def pauli_product(a: PauliString, b: PauliString) -> PauliString:
    """The product a.b, phase included: each factor is i^(phase + |Y|) X^x Z^z,
    and moving b's X past a's Z picks up a -1 per qubit where both are set."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    x, z = a.x ^ b.x, a.z ^ b.z
    phase = (
        a.phase
        + b.phase
        + (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z & b.x).bit_count()
    ) % 4
    return PauliString(a.n, x, z, phase)


def commutes(a: PauliString, b: PauliString) -> bool:
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def circuit_to_tableau(c: CliffordCircuit) -> CliffordTableau:
    """The tableau of the word, each gate replayed by its native update."""
    t = CliffordTableau.identity(c.n)
    for name, qubits in c.gates:
        getattr(t, stabilizer.CLIFFORD_GATES[name])(*qubits)
    return t


def apply_word(c: CliffordCircuit, state: np.ndarray) -> np.ndarray:
    """The gates in order, applied to a (2**n, *batch) block of states."""
    for name, qubits in c.gates:
        state = linalg.apply_gate(state, linalg.GATES[name], qubits)
    return state


def to_unitary(c: CliffordCircuit) -> np.ndarray:
    """Dense matrix of the circuit (subject to the dense cap)."""
    linalg.check_dense_cap(c.n, what="dense circuit unitary")
    return apply_word(c, np.eye(2**c.n, dtype=complex))


def inverse(c: CliffordCircuit) -> CliffordCircuit:
    """The gate word of c-dagger: c reversed, each S as S^3 and each S-dagger
    as S (the other gates are their own inverses)."""
    inv: list[tuple[str, tuple[int, ...]]] = []
    for name, qubits in reversed(c.gates):
        if name == "S":
            inv += [("S", qubits)] * 3
        else:
            inv.append(("S" if name == "SDG" else name, qubits))
    return CliffordCircuit(c.n, tuple(inv))


def pull_back(gates, p: PauliString) -> PauliString:
    """V-dagger p V for the word V = gates (the first gate acts first), phase
    included: p is pushed through the gates last to first, and each gate G
    turns the letters on its qubits into those of G-dagger P G, found by
    matching dense 2x2 or 4x4 matrices (so any name in linalg.GATES works)."""
    images: dict[tuple, tuple[int, int, int]] = {}
    for name, qubits in reversed(list(gates)):
        key = (
            name,
            sum((p.x >> q & 1) << i for i, q in enumerate(qubits)),
            sum((p.z >> q & 1) << i for i, q in enumerate(qubits)),
        )
        if key not in images:
            images[key] = _local_image(name, PauliString(len(qubits), *key[1:]))
        x, z, power = images[key]
        xs, zs = p.x, p.z
        for i, q in enumerate(qubits):
            xs = xs & ~(1 << q) | (x >> i & 1) << q
            zs = zs & ~(1 << q) | (z >> i & 1) << q
        p = PauliString(p.n, xs, zs, (p.phase + power) % 4)
    return p


def _local_image(name: str, before: PauliString) -> tuple[int, int, int]:
    """(x, z, power) with G-dagger P G = i^power times the Pauli of masks x, z,
    for P = before on the gate's qubits."""
    g = linalg.GATES[name]
    image = g.conj().T @ pauli_matrix(before) @ g
    for x in range(2**before.n):
        for z in range(2**before.n):
            for power in range(4):
                if np.allclose(image, pauli_matrix(PauliString(before.n, x, z, power)), atol=1e-12):
                    return x, z, power
    raise InvariantError(f"{name} does not map {before} to a Pauli")


# -- synthesis of a tableau as a gate word (the reference for canonical_forms) -------


def tableau_to_circuit(t: CliffordTableau) -> CliffordCircuit:
    """Synthesize an exact generator-gate circuit for the tableau.

    Reduces a working copy to the identity tableau column by column, then
    returns the inverse of the applied gate word.  Signs included: the result
    satisfies circuit_to_tableau(tableau_to_circuit(t)) == t bit for bit.
    """
    work = t.copy()
    n = work.n
    applied: list[tuple[str, tuple[int, ...]]] = []

    def do(name: str, *qs: int) -> None:
        work.apply(name, qs)
        applied.append((name, qs))

    def xbit(i: int, q: int) -> int:
        return (work.xcol[q] >> i) & 1

    def zbit(i: int, q: int) -> int:
        return (work.zcol[q] >> i) & 1

    for j in range(n):
        srow = n + j
        # stabilizer row j -> +/- Z_j
        for q in range(j, n):
            if xbit(srow, q):
                if zbit(srow, q):
                    do("S", q)
                do("H", q)
        if not zbit(srow, j):
            q = next((q for q in range(j + 1, n) if zbit(srow, q)), None)
            if q is None:
                raise InvariantError(f"stabilizer {j} is not independent of the ones before")
            do("CNOT", j, q)
        for q in range(j + 1, n):
            if zbit(srow, q):
                do("CNOT", q, j)
        # destabilizer row j -> +/- X_j, using only gates that fix Z_j
        for q in range(j + 1, n):
            if xbit(j, q):
                do("CNOT", j, q)
        for q in range(j + 1, n):
            if zbit(j, q):
                do("H", q)
                do("CNOT", j, q)
        if zbit(j, j):
            do("S", j)
    for j in range(n):
        if work.sign >> (n + j) & 1:  # -Z_j: conjugate by X_j
            do("H", j)
            do("S", j)
            do("S", j)
            do("H", j)
        if work.sign >> j & 1:  # -X_j: conjugate by Z_j
            do("S", j)
            do("S", j)
    if work != CliffordTableau.identity(n):
        raise InvariantError("tableau does not reduce to the identity: not a Clifford tableau")
    return inverse(CliffordCircuit(n, tuple(applied)))


def canonical_form(t: CliffordTableau) -> tuple[CliffordTableau, tuple[int, ...], CliffordTableau]:
    """(F1, S, F2) as `stabilizer.canonical_forms` gives it for one entry,
    with S a sorted tuple: its own elimination of the stabilizers' X block,
    and every gate replayed through `CliffordTableau.apply`, each CZ as
    H CNOT H and each S-dagger as S^3."""
    n, low = t.n, (1 << t.n) - 1
    rows = [0] * n  # stabilizer j as x | z << n
    for q in range(n):
        for j in _bits(t.xcol[q] >> n):
            rows[j] |= 1 << q
        for j in _bits(t.zcol[q] >> n):
            rows[j] |= 1 << (n + q)
    pivots: dict[int, int] = {}  # pivot qubit -> the reduced row with X there
    for v in rows:
        for s, row in pivots.items():
            if v >> s & 1:
                v ^= row
        if v & low:
            s = _lowest(v)
            for s2, row in pivots.items():
                if row >> s & 1:
                    pivots[s2] = row ^ v
            pivots[s] = v
    smask = sum(1 << s for s in pivots)
    targets = {s: row & low & ~smask for s, row in pivots.items()}
    w = [("CNOT", (s, u)) for s, us in targets.items() for u in _bits(us)]
    for s, row in sorted(pivots.items()):
        z = row >> n
        for s2 in _bits(smask & ~((2 << s) - 1)):  # s2 > s, in S
            if (z >> s2 ^ (z & targets[s2]).bit_count()) & 1:
                w += [("H", (s2,)), ("CNOT", (s, s2)), ("H", (s2,))]
        if (z >> s ^ (z & targets[s]).bit_count()) & 1:
            w.append(("S", (s,)))
    f2, f1 = t.copy(), CliffordTableau.identity(n)
    for gate in w:
        f2.apply(*gate)
    for s in pivots:
        f2.apply("H", (s,))
    for name, qubits in reversed(w):
        for _ in range(3 if name == "S" else 1):  # S^-1 = S^3
            f1.apply(name, qubits)
    if any(v >> n for v in f2.xcol):
        raise InvariantError("the stabilizers do not commute: not a Clifford tableau")
    return f1, tuple(sorted(pivots)), f2


def stack_forms(forms) -> tuple[CliffordTableau, np.ndarray, CliffordTableau]:
    """canonical_form results as one batch of forms, as canonical_forms gives them."""
    f1s, hs, f2s = zip(*forms)
    hadamards = np.array([sum(1 << s for s in h) for h in hs], dtype=np.int64)
    return stabilizer.stack(f1s), hadamards, stabilizer.stack(f2s)


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
    if not 0 <= q < t.n:
        raise ValueError(f"qubit {q} out of range for n={t.n}")
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
        p_values[i] = abs(np.vdot(phi, apply_word(random_clifford_circuit(n, rng), psi))) ** 2
    return p_values


def paley_zygmund_bound(a, mean: float, second_moment: float) -> float:
    """(1-a)^2 mean^2 / second_moment, the tail lower bound at level a*mean."""
    a = float(a)
    if not 0 <= a < 1:
        raise ValueError(f"a must lie in [0, 1), got {a}")
    if second_moment <= 0:
        raise ValueError("second moment must be positive")
    return (1 - a) ** 2 * mean**2 / second_moment


# -- the gadget search's Clifford table, one word at a time --------------------------


def enumerate_clifford_words(n: int) -> list[tuple[tuple[str, tuple[int, ...]], ...]]:
    """Shortest gate words for every Clifford class modulo phase (n <= 2), by
    a BFS that copies and extends one tableau per (class, gate) pair and
    dedups by tableau key."""
    if n > 2:
        raise CapabilityError(f"Clifford class enumeration at n={n} is out of reach")
    gates: list[tuple[str, tuple[int, ...]]] = []
    for q in range(n):
        gates += [("H", (q,)), ("S", (q,))]
    for c in range(n):
        for t in range(n):
            if c != t:
                gates.append(("CNOT", (c, t)))
    start = CliffordTableau.identity(n)
    seen = {start.key()}
    frontier = [(start, ())]
    words = [()]
    while frontier:
        nxt = []
        for tab, word in frontier:
            for g in gates:
                t2 = tab.copy()
                t2.apply(*g)
                k = t2.key()
                if k not in seen:
                    seen.add(k)
                    w2 = word + (g,)
                    words.append(w2)
                    nxt.append((t2, w2))
        frontier = nxt
    return words


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


# -- the gadget search, three predicates per slice -----------------------------------


def is_unitary_up_to_scale(a: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """For each matrix of a (..., d, d) stack: a^dag a = gamma*I, gamma > tol?"""
    a = np.asarray(a, dtype=complex)
    m = a.conj().swapaxes(-1, -2) @ a
    gamma = np.trace(m, axis1=-2, axis2=-1).real / a.shape[-1]
    resid = np.abs(m - gamma[..., None, None] * np.eye(a.shape[-1])).max(axis=(-2, -1))
    return (gamma > tol) & (resid <= tol * np.maximum(1.0, gamma))


def scale(a: np.ndarray) -> np.ndarray:
    """tr(a^dag a) / d for each matrix of a (..., d, d) stack."""
    a = np.asarray(a, dtype=complex)
    return np.trace(a.conj().swapaxes(-1, -2) @ a, axis1=-2, axis2=-1).real / a.shape[-1]


def is_clifford(a: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Unitary up to scale, and every X_w, Z_w image a Pauli up to phase: the
    coefficients of a P a^dag / gamma sorted, all but the largest <= tol."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[-1]
    l = d.bit_length() - 1
    unitary = is_unitary_up_to_scale(a)
    gamma = np.where(unitary, scale(a), 1.0)[..., None, None]
    ad = a.conj().swapaxes(-1, -2)
    idx = np.arange(d)
    diagonals = (idx[None, :], idx[None, :] ^ idx[:, None])
    walsh = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * l, np.ones((1, 1)))
    clifford = unitary
    for w in range(l):
        bit = 1 << (l - 1 - w)
        x_w = a[..., idx ^ bit]
        z_w = a * np.where(idx & bit, -1.0, 1.0)
        for image in (x_w @ ad / gamma, z_w @ ad / gamma):
            coeffs = np.abs(image[..., diagonals[0], diagonals[1]] @ walsh) / d
            flat = np.sort(coeffs.reshape(*coeffs.shape[:-2], d * d), axis=-1)
            clifford = clifford & (flat[..., -2] <= tol)
    return clifford


def search_actions(u: np.ndarray):
    """Yield (post_wire, a_bit, b_bit, actions) for the 8 slices of 11520
    two-qubit gadget actions over U, in the search's order."""
    _, mats = gadgets._clifford_table()
    eye = np.eye(4, dtype=complex)
    right = linalg.apply_gate(eye, u, (1,))
    for post_wire in (0, 1):
        w = linalg.apply_gate(eye, u.conj().T, (post_wire,)) @ mats @ right
        for a_bit in (0, 1):
            cols = [a_bit, 2 + a_bit]
            for b_bit in (0, 1):
                rows = [2 * b_bit, 2 * b_bit + 1] if post_wire == 0 else [b_bit, 2 + b_bit]
                yield post_wire, a_bit, b_bit, w[:, rows][:, :, cols]


def search_gadgets(u: np.ndarray) -> list[tuple[Gadget, GadgetAction]]:
    """The k=2 search, each slice classified by three separate predicates:
    unitarity, then the Clifford test (which decides unitarity and scale
    again), then the scale of the survivors."""
    u = np.asarray(u, dtype=complex)
    words, _ = gadgets._clifford_table()
    results: dict[bytes, tuple[Gadget, GadgetAction]] = {}
    for post_wire, a_bit, b_bit, actions in search_actions(u):
        unitary = np.flatnonzero(is_unitary_up_to_scale(actions))
        keep = unitary[~is_clifford(actions[unitary])]
        gammas = scale(actions[keep])
        keys = gadgets._phase_canonical_keys(actions[keep] / np.sqrt(gammas)[:, None, None])
        for idx, gamma, key in zip(keep, gammas, keys):
            if key not in results:
                gadget = Gadget(
                    2, 1, u, (a_bit,), CliffordCircuit(2, words[idx]), (post_wire,), (b_bit,)
                )
                results[key] = (gadget, GadgetAction(actions[idx], float(gamma), True, False))
    return [results[key] for key in sorted(results)]


# -- the two predicates matrix first, one broadcast product per inner index ---------


def matrix_first_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for matrix-first (d, e, ...) and (e, f, ...) stacks: one
    elementwise pass over the batch per inner index.  One matrix takes `@`."""
    if a.ndim == 2:
        return a @ b
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def matrix_first_unitary_scale(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """linalg.unitary_scale with a^dag a formed whole, as a (d, d, ...) stack."""
    a = np.moveaxis(np.asarray(a, dtype=complex), (-2, -1), (0, 1))
    m = matrix_first_product(a.conj().swapaxes(0, 1), a)
    gamma = np.trace(m).real / len(m)
    m[np.diag_indices(len(m))] -= gamma
    resid = np.abs(m).max(axis=(0, 1))
    tol = linalg.GATE_UNITARY_TOL
    return (gamma > tol) & (resid <= tol * np.maximum(1.0, gamma)), gamma


def matrix_first_is_clifford(a: np.ndarray, gamma: np.ndarray | None = None) -> np.ndarray:
    """linalg.is_clifford with each image a P a^dag formed whole and each
    Walsh transform one product with the +-1 matrix, matrix first."""
    if gamma is None:
        clifford, gamma = matrix_first_unitary_scale(a)
        gamma = np.where(clifford, gamma, 1.0)
    else:
        clifford = np.ones(np.shape(a)[:-2], dtype=bool)
    a = np.moveaxis(np.asarray(a, dtype=complex), (-2, -1), (0, 1))
    d, l, batch = len(a), len(a).bit_length() - 1, (1,) * (a.ndim - 2)
    ad = a.conj().swapaxes(0, 1)
    idx = np.arange(d)
    diagonals = (idx[None, :], idx[None, :] ^ idx[:, None])  # [x, c] -> (c, c^x)
    walsh = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * l, np.ones((1, 1))).reshape((d, d) + batch)
    for w in range(l):
        bit = 1 << (l - 1 - w)
        x_w = a[:, idx ^ bit]
        z_w = a * np.where(idx & bit, -1.0, 1.0).reshape((d,) + batch)
        for image in (matrix_first_product(x_w, ad) / gamma, matrix_first_product(z_w, ad) / gamma):
            coeffs = np.abs(matrix_first_product(image[diagonals], walsh)) / d
            above = np.count_nonzero(~(coeffs <= linalg.PAULI_COEFF_TOL), axis=(0, 1))
            clifford = clifford & (above <= 1)
    return clifford


# -- the beam compiler, one (matrix, word) tuple per candidate -----------------------


def compile_word(
    target: np.ndarray,
    generators: list[np.ndarray],
    max_length: int,
    beam_width: int = gadgets.DEFAULT_BEAM_WIDTH,
) -> tuple[tuple[int, ...], float]:
    """Best inverse-free word over the generators within the length budget.

    Breadth-first with beam pruning by distance to the target; deduplication
    is up to global phase.  Because expansion is deterministic and pruning
    depends only on the level, a longer budget explores a superset of a
    shorter one, so the returned distance is monotone in max_length.
    """
    if not generators:
        raise ValueError("need at least one generator")
    target = np.asarray(target, dtype=complex)
    gens = [np.asarray(g, dtype=complex) for g in generators]
    for g in [target, *gens]:
        if g.shape != (2, 2) or not linalg.is_unitary(g, linalg.GATE_UNITARY_TOL):
            raise ValueError("target and generators must be 2x2 unitaries")
    if max_length > gadgets.WORD_LENGTH_CAP:
        raise CapabilityError(
            f"word budget {max_length} exceeds the cap of {gadgets.WORD_LENGTH_CAP}"
        )

    best_word: tuple[int, ...] = ()
    best_dist = float(linalg.phase_invariant_distance_batch(np.eye(2)[None], target)[0])
    beam: list[tuple[np.ndarray, tuple[int, ...]]] = [(np.eye(2, dtype=complex), ())]
    seen = set(gadgets._phase_canonical_keys(np.eye(2, dtype=complex)[None]))
    for _ in range(max_length):
        expanded = [(linalg.product_2x2(g, m), word + (gi,)) for m, word in beam for gi, g in enumerate(gens)]
        candidates: list[tuple[np.ndarray, tuple[int, ...]]] = []
        for cand, key in zip(expanded, gadgets._phase_canonical_keys(np.stack([m for m, _ in expanded]))):
            if key in seen:
                continue
            seen.add(key)
            candidates.append(cand)
        if not candidates:
            break
        stack = np.stack([m for m, _ in candidates])
        dists = linalg.phase_invariant_distance_batch(stack, target)
        for (m2, word), d in zip(candidates, dists):
            if d < best_dist - 1e-12:
                best_dist, best_word = float(d), word
        order = sorted(range(len(candidates)), key=lambda i: (dists[i], i))
        beam = [candidates[i] for i in order[:beam_width]]
    return best_word, best_dist


# -- helpers only tests call ---------------------------------------------------------


def phase_invariant_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over unit phases of the operator norm ||a - exp(i*g)*b||, for two
    d x d unitaries.

    Found from the eigenphases of b^dag a, by an eigensolver: the optimal
    phase sits at the center of the shortest arc containing all of them,
    which is the circle less its largest gap, and the distance is 2 sin of a
    quarter of that arc.  The reference for linalg.phase_invariant_distance_batch,
    which reads the 2x2 arc in closed form.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("inputs must be square matrices of equal dimension")
    if not (linalg.is_unitary(a) and linalg.is_unitary(b)):
        raise ValueError("phase_invariant_distance requires unitary inputs")
    phases = np.sort(np.angle(np.linalg.eigvals(b.conj().T @ a)))
    largest_gap = max(np.max(np.diff(phases), initial=0.0), 2 * math.pi + phases[0] - phases[-1])
    return float(2.0 * math.sin((2 * math.pi - largest_gap) / 4.0))


def proportional_up_to_phase(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-8, unit_factor: bool = False
) -> bool:
    """True iff a = alpha*b entrywise within tol for some nonzero alpha.

    With unit_factor=True the factor must additionally satisfy |alpha| = 1,
    i.e. this becomes equality up to a global phase.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) <= tol:
        return bool(np.max(np.abs(a)) <= tol)
    alpha = a[idx] / b[idx]
    if abs(alpha) <= tol:
        return False
    if unit_factor and abs(abs(alpha) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - alpha * b)) <= tol)


def output_wires(g: Gadget) -> tuple[int, ...]:
    """The wires that survive postselection, in ascending order."""
    return tuple(w for w in range(g.k) if w not in g.postselect_set)


def canonical_matrix(verdict: ClassificationVerdict) -> np.ndarray | None:
    """Gamma * Rz(lambda) for PWEAK verdicts, None otherwise."""
    if verdict.gamma_word is None:
        return None
    gamma = reduce(
        np.matmul, [linalg.GATES[g] for g in verdict.gamma_word], np.eye(2, dtype=complex)
    )
    return gamma @ linalg.rz(float(verdict.canonical_lam))


def verdict_by_bloch(u: np.ndarray) -> str:
    """The verdict class by the model's symmetries, reading no Euler angle.

    A diagonal on U's right and a one-qubit Clifford on its left keep the
    class, so U is PWEAK iff U|0> is a one-qubit stabilizer state: iff
    U Z U-dagger is within 1e-9 of +-X, +-Y or +-Z.
    """
    u = np.asarray(u, dtype=complex)
    image = u @ linalg.GATES["Z"] @ u.conj().T
    paulis = [sign * linalg.GATES[name] for name in "XYZ" for sign in (1, -1)]
    return PWEAK if any(np.max(np.abs(image - p)) <= 1e-9 for p in paulis) else PH_SUPREME


def one_qubit_cliffords() -> list[tuple[tuple[str, ...], np.ndarray]]:
    """The 24 one-qubit Cliffords modulo phase, from the BFS over H and S:
    each as its gate names, first gate first, and its matrix."""
    out = []
    for word in enumerate_clifford_words(1):
        names = tuple(name for name, _ in word)
        c = reduce(lambda acc, name: linalg.GATES[name] @ acc, names, np.eye(2, dtype=complex))
        out.append((names, c))
    return out


def dense_by_gates(u: np.ndarray, circuit: CliffordCircuit) -> np.ndarray:
    """The model's outcome probabilities with V applied gate by gate:
    U^(x)n, then each gate's matrix by linalg.apply_gate, then U-dagger^(x)n."""
    state = linalg.zero_state(circuit.n)
    for q in range(circuit.n):
        state = linalg.apply_gate(state, u, (q,))
    state = apply_word(circuit, state)
    ud = u.conj().T
    for q in range(circuit.n):
        state = linalg.apply_gate(state, ud, (q,))
    return np.abs(state) ** 2


def outcome_probability(instance: CccInstance, y: str) -> float:
    if len(y) != instance.n or set(y) - {"0", "1"}:
        raise ValueError(f"bad outcome string {y!r} for n={instance.n}")
    return float(dense_distribution(instance).probs[int(y, 2)])


def gadget_I_closed_form(phi: float, theta: float) -> np.ndarray:
    """The contraction of the I gadget, multiplied out by hand."""
    c2 = math.cos(theta / 2) ** 2
    s2 = math.sin(theta / 2) ** 2
    half_sin = 0.5 * math.sin(theta)
    e = np.exp(1j * phi)
    return np.array(
        [[c2, 1j * half_sin / e], [-1j * half_sin * e, -s2]], dtype=complex
    )


def gadget_J_closed_form(theta: float) -> np.ndarray:
    """The contraction of the J gadget, multiplied out by hand; phi drops out."""
    c = math.cos(theta)
    return (
        np.exp(-0.25j * math.pi)
        / math.sqrt(2)
        * np.array([[1j + c, 0], [0, 1 + 1j * c]], dtype=complex)
    )
