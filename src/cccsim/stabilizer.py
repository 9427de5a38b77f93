"""Pauli and Clifford machinery: tableau simulation, sampling, conjugation.

Representation notes.  A Pauli operator on n qubits is stored as two n-bit
masks plus a power of i: value = i^phase * (P_0 x P_1 x ... x P_{n-1}) where
qubit j has letter X if only bit j of x is set, Z if only bit j of z, Y if
both.  A Clifford operation is stored as a tableau of 2n rows: row i < n is
the image of X_i under conjugation (destabilizer), row n+i the image of Z_i
(stabilizer).  Global phases are never tracked; every consumer here is
phase-insensitive.  Row bit masks are plain Python ints, so row operations
are word-wise XOR/AND at any n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapabilityError, ParseError

#: gates the tableau engine applies natively
GENERATOR_GATES = ("H", "S", "CNOT")

#: sugar accepted by circuits, rewritten onto the generator set at build time
SUGAR = {
    "X": ("H", "S", "S", "H"),
    "Z": ("S", "S"),
    "Y": ("H", "S", "S", "H", "S", "S"),
    "SDG": ("S", "S", "S"),
}

_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PauliString:
    n: int
    x: int
    z: int
    phase: int = 0

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString(n, 0, 0, 0)

    @staticmethod
    def single(n: int, letter: str, q: int) -> "PauliString":
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
        bit = 1 << q
        masks = {"I": (0, 0), "X": (bit, 0), "Y": (bit, bit), "Z": (0, bit)}
        try:
            xm, zm = masks[letter]
        except KeyError:
            raise ValueError(f"not a Pauli letter: {letter!r}") from None
        return PauliString(n, xm, zm, 0)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        x = self.x ^ other.x
        z = self.z ^ other.z
        phase = (
            self.phase
            + other.phase
            + (self.x & self.z).bit_count()
            + (other.x & other.z).bit_count()
            - (x & z).bit_count()
            + 2 * (self.z & other.x).bit_count()
        ) % 4
        return PauliString(self.n, x, z, phase)

    def commutes(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def letter(self, q: int) -> str:
        xb, zb = (self.x >> q) & 1, (self.z >> q) & 1
        return "IXZY"[xb + 2 * zb] if xb + 2 * zb != 3 else "Y"

    def to_matrix(self) -> np.ndarray:
        if self.n > linalg.dense_cap():
            raise CapabilityError(f"dense Pauli on {self.n} qubits exceeds the cap")
        m = np.array([[1]], dtype=complex)
        for q in range(self.n):
            m = np.kron(m, linalg.GATES[self.letter(q)])
        return (1j**self.phase) * m

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.phase % 4] + "".join(
            self.letter(q) for q in range(self.n)
        )


class CliffordTableau:
    """Mutable tableau; clone with copy() before destructive use."""

    __slots__ = ("n", "xs", "zs", "ph")

    def __init__(self, n: int, xs: list[int], zs: list[int], ph: list[int]):
        self.n = n
        self.xs = xs
        self.zs = zs
        self.ph = ph

    @staticmethod
    def identity(n: int) -> "CliffordTableau":
        xs = [1 << i for i in range(n)] + [0] * n
        zs = [0] * n + [1 << i for i in range(n)]
        return CliffordTableau(n, xs, zs, [0] * 2 * n)

    def copy(self) -> "CliffordTableau":
        return CliffordTableau(self.n, list(self.xs), list(self.zs), list(self.ph))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        return (self.n, tuple(self.xs), tuple(self.zs), tuple(self.ph))

    def row(self, i: int) -> PauliString:
        return PauliString(self.n, self.xs[i], self.zs[i], self.ph[i])

    def destabilizer(self, i: int) -> PauliString:
        return self.row(i)

    def stabilizer(self, i: int) -> PauliString:
        return self.row(self.n + i)

    # -- gate application (conjugates every row by the gate) --

    def apply(self, name: str, qubits: tuple[int, ...]) -> None:
        if name == "H":
            self._h(*qubits)
        elif name == "S":
            self._s(*qubits)
        elif name == "CNOT":
            self._cnot(*qubits)
        else:
            raise ValueError(f"tableau cannot apply gate {name!r}")

    def _check(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise ValueError(f"qubit {q} out of range for n={self.n}")

    def _h(self, q: int) -> None:
        self._check(q)
        bit = 1 << q
        xs, zs, ph = self.xs, self.zs, self.ph
        for i in range(2 * self.n):
            xb, zb = xs[i] & bit, zs[i] & bit
            if xb and zb:
                ph[i] = (ph[i] + 2) % 4
            if bool(xb) != bool(zb):
                xs[i] ^= bit
                zs[i] ^= bit

    def _s(self, q: int) -> None:
        self._check(q)
        bit = 1 << q
        xs, zs, ph = self.xs, self.zs, self.ph
        for i in range(2 * self.n):
            xb = xs[i] & bit
            if xb and zs[i] & bit:
                ph[i] = (ph[i] + 2) % 4
            if xb:
                zs[i] ^= bit

    def _cnot(self, c: int, t: int) -> None:
        self._check(c)
        self._check(t)
        if c == t:
            raise ValueError("CNOT control and target coincide")
        cb, tb = 1 << c, 1 << t
        xs, zs, ph = self.xs, self.zs, self.ph
        for i in range(2 * self.n):
            xc = (xs[i] >> c) & 1
            zt = (zs[i] >> t) & 1
            if xc and zt and ((xs[i] >> t) ^ (zs[i] >> c) ^ 1) & 1:
                ph[i] = (ph[i] + 2) % 4
            if xc:
                xs[i] ^= tb
            if zt:
                zs[i] ^= cb

    # -- measurement of the state (tableau of V doubles as the state V|0^n>) --

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit q in Z basis, collapsing in place; returns the bit."""
        self._check(q)
        n = self.n
        bit = 1 << q
        pivot = -1
        for i in range(n, 2 * n):
            if self.xs[i] & bit:
                pivot = i
                break
        if pivot >= 0:
            # outcome is a fair coin; all other rows with X support at q are
            # multiplied by the pivot row, then the pivot is replaced
            prow = self.row(pivot)
            for i in range(2 * n):
                if i != pivot and self.xs[i] & bit:
                    new = prow * self.row(i)
                    self.xs[i], self.zs[i], self.ph[i] = new.x, new.z, new.phase
            outcome = int(rng.integers(2))
            self.xs[pivot - n] = prow.x
            self.zs[pivot - n] = prow.z
            self.ph[pivot - n] = prow.phase
            self.xs[pivot] = 0
            self.zs[pivot] = bit
            self.ph[pivot] = 2 * outcome
            return outcome
        # deterministic outcome: the product of stabilizers selected by the
        # destabilizer X-support at q equals +/- Z_q
        acc = PauliString.identity(n)
        for i in range(n):
            if self.xs[i] & bit:
                acc = acc * self.stabilizer(i)
        assert acc.x == 0 and acc.z == bit and acc.phase in (0, 2)
        return 1 if acc.phase == 2 else 0


@dataclass(frozen=True)
class CliffordCircuit:
    """Gate list over {H, S, CNOT}; sugar is rewritten at construction."""

    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]

    @staticmethod
    def build(n: int, gates) -> "CliffordCircuit":
        """Normalize a gate sequence, expanding X/Y/Z/SDG/CZ sugar."""
        out: list[tuple[str, tuple[int, ...]]] = []
        for name, *qubits in (
            (g[0], *g[1]) if isinstance(g[1], (tuple, list)) else g for g in gates
        ):
            name = name.upper()
            qubits = tuple(int(q) for q in qubits)
            if any(q < 0 or q >= n for q in qubits):
                raise ValueError(f"qubit out of range in {name} {qubits}")
            if name in ("H", "S"):
                if len(qubits) != 1:
                    raise ValueError(f"{name} takes one qubit")
                out.append((name, qubits))
            elif name == "CNOT":
                if len(qubits) != 2 or qubits[0] == qubits[1]:
                    raise ValueError("CNOT takes two distinct qubits")
                out.append((name, qubits))
            elif name == "CZ":
                if len(qubits) != 2 or qubits[0] == qubits[1]:
                    raise ValueError("CZ takes two distinct qubits")
                c, t = qubits
                out += [("H", (t,)), ("CNOT", (c, t)), ("H", (t,))]
            elif name in SUGAR:
                if len(qubits) != 1:
                    raise ValueError(f"{name} takes one qubit")
                out += [(g, qubits) for g in SUGAR[name]]
            else:
                raise ValueError(f"unknown gate {name!r}")
        return CliffordCircuit(n, tuple(out))

    def __len__(self) -> int:
        return len(self.gates)

    def then(self, other: "CliffordCircuit") -> "CliffordCircuit":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return CliffordCircuit(self.n, self.gates + other.gates)

    def inverse(self) -> "CliffordCircuit":
        inv: list[tuple[str, tuple[int, ...]]] = []
        for name, qubits in reversed(self.gates):
            if name == "S":
                inv += [("S", qubits)] * 3
            else:
                inv.append((name, qubits))
        return CliffordCircuit(self.n, tuple(inv))

    def to_unitary(self) -> np.ndarray:
        """Dense matrix of the circuit (subject to the dense cap)."""
        n = self.n
        dim = 2**n
        if n > linalg.dense_cap():
            raise CapabilityError(
                f"dense circuit unitary on {n} qubits exceeds the cap"
            )
        # columns tracked together: first n axes index rows, last axis columns
        t = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
        for name, qubits in self.gates:
            g = linalg.GATES[name].reshape((2,) * (2 * len(qubits)))
            k = len(qubits)
            t = np.moveaxis(t, qubits, range(k))
            t = np.tensordot(g, t, axes=(tuple(range(k, 2 * k)), tuple(range(k))))
            t = np.moveaxis(t, range(k), qubits)
        return np.ascontiguousarray(t).reshape(dim, dim)

    def to_text(self) -> str:
        lines = [f"qubits {self.n}"]
        lines += [f"{name} {' '.join(map(str, qs))}" for name, qs in self.gates]
        return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> CliffordCircuit:
    """Parse the line-oriented circuit format (see to_text for the inverse)."""
    n = None
    gates: list[tuple[str, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if fields[0] != "qubits" or len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'qubits N' header")
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad qubit count {fields[1]!r}") from None
            if n < 1:
                raise ParseError(f"line {lineno}: qubit count must be positive")
            continue
        name = fields[0].upper()
        if name not in ("H", "S", "CNOT", "CZ", *SUGAR):
            raise ParseError(f"line {lineno}: unknown gate {fields[0]!r}")
        try:
            qubits = tuple(int(f) for f in fields[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: bad qubit index in {line!r}") from None
        gates.append((name, qubits))
    if n is None:
        raise ParseError("missing 'qubits N' header")
    try:
        return CliffordCircuit.build(n, gates)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def circuit_to_tableau(c: CliffordCircuit) -> CliffordTableau:
    t = CliffordTableau.identity(c.n)
    for name, qubits in c.gates:
        t.apply(name, qubits)
    return t


def sample_measurement(t: CliffordTableau, rng: np.random.Generator) -> str:
    """One string drawn exactly from |<y|V|0^n>|^2 for the tableau's V."""
    work = t.copy()
    return "".join(str(work.measure(q, rng)) for q in range(t.n))


def conjugate_pauli(
    t: CliffordTableau, p: PauliString, inverse: bool = False
) -> PauliString:
    """V p V-dagger (or the reverse direction) with the exact sign.

    Writes p as i^(phase+|Y positions|) * prod X_j^{x_j} * prod Z_j^{z_j} and
    multiplies out the tableau rows, which are exactly the images of X_j, Z_j.
    """
    if t.n != p.n:
        raise ValueError("qubit count mismatch")
    if inverse:
        t = tableau_inverse(t)
    acc = PauliString(p.n, 0, 0, (p.phase + (p.x & p.z).bit_count()) % 4)
    for j in range(p.n):
        if (p.x >> j) & 1:
            acc = acc * t.destabilizer(j)
    for j in range(p.n):
        if (p.z >> j) & 1:
            acc = acc * t.stabilizer(j)
    return acc


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
        return (work.xs[i] >> q) & 1

    def zbit(i: int, q: int) -> int:
        return (work.zs[i] >> q) & 1

    for j in range(n):
        srow = n + j
        # stabilizer row j -> +/- Z_j
        for q in range(j, n):
            if xbit(srow, q):
                if zbit(srow, q):
                    do("S", q)
                do("H", q)
        if not zbit(srow, j):
            q = next(q for q in range(j + 1, n) if zbit(srow, q))
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
        if work.ph[n + j]:  # -Z_j: conjugate by X_j
            do("H", j)
            do("S", j)
            do("S", j)
            do("H", j)
        if work.ph[j]:  # -X_j: conjugate by Z_j
            do("S", j)
            do("S", j)
    assert work == CliffordTableau.identity(n)
    return CliffordCircuit(n, tuple(applied)).inverse()


def tableau_inverse(t: CliffordTableau) -> CliffordTableau:
    return circuit_to_tableau(tableau_to_circuit(t).inverse())


# -- uniform random Cliffords ------------------------------------------------


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
    """Uniform over the Clifford group modulo global phase.

    Peels off one uniformly random hyperbolic pair (image of X_j, image of
    Z_j) per qubit, restricting to the symplectic complement each time, then
    assigns uniform signs.  Each step is uniform over the pairs the remaining
    space admits, which by the orbit-stabilizer argument makes the symplectic
    matrix uniform.
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
    return CliffordTableau(n, xs, zs, ph)


def random_clifford_circuit(n: int, rng: np.random.Generator) -> CliffordCircuit:
    return tableau_to_circuit(random_clifford(n, rng))


def enumerate_clifford_words(n: int) -> list[tuple[tuple[str, tuple[int, ...]], ...]]:
    """Shortest gate words for every Clifford class modulo phase (n <= 2).

    BFS closure over {H, S on each wire, CNOT both orientations}, dedup by
    tableau.  24 classes at n=1, 11520 at n=2; larger n is refused because
    the class count grows past 9e7 already at n=3.
    """
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
