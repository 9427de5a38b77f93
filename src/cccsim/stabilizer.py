"""Pauli and Clifford machinery: tableau simulation, sampling, conjugation.

Representation notes.  A Pauli operator on n qubits is stored as two n-bit
masks plus a power of i: value = i^phase * (P_0 x P_1 x ... x P_{n-1}) where
qubit j has letter X if only bit j of x is set, Z if only bit j of z, Y if
both.  A Clifford operation is stored as a tableau of 2n rows: row i < n is
the image of X_i under conjugation (destabilizer), row n+i the image of Z_i
(stabilizer).  Global phases are never tracked; every consumer here is
phase-insensitive.  The tableau is held by columns: per qubit, its X bits and
its Z bits over all 2n rows are one Python int each, so a gate is a few
word-wise XOR/AND operations at any n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapabilityError, InvariantError, ParseError

#: gates the tableau engine applies natively
GENERATOR_GATES = ("H", "S", "CNOT")

#: sugar accepted by circuits, rewritten onto the generator set at build time
SUGAR = {
    "X": ("H", "S", "S", "H"),
    "Z": ("S", "S"),
    "Y": ("H", "S", "S", "H", "S", "S"),
    "SDG": ("S", "S", "S"),
}

#: qubit count of every gate name a circuit accepts
_ARITY = {"H": 1, "S": 1, "CNOT": 2, "CZ": 2} | dict.fromkeys(SUGAR, 1)

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
    """Mutable tableau in column layout; clone with copy() before destructive use.

    xcol[q] and zcol[q] are bitsets over the 2n rows: bit i of xcol[q] is the
    X bit of row i at qubit q.  The row phases are two more bitsets, odd
    (bit 0 of the phase) and sign (bit 1), so row i carries
    i^(odd_i + 2 sign_i).  A gate is then a few big-int operations on one or
    two columns and the sign, at any n (the CHP/Stim layout).
    """

    __slots__ = ("n", "xcol", "zcol", "odd", "sign")

    def __init__(self, n: int, xcol: list[int], zcol: list[int], odd: int = 0, sign: int = 0):
        self.n = n
        self.xcol = xcol
        self.zcol = zcol
        self.odd = odd
        self.sign = sign

    @staticmethod
    def identity(n: int) -> "CliffordTableau":
        return CliffordTableau(n, [1 << q for q in range(n)], [1 << (n + q) for q in range(n)])

    @staticmethod
    def from_rows(
        n: int, xs: list[int], zs: list[int], ph: list[int] | None = None
    ) -> "CliffordTableau":
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

    def copy(self) -> "CliffordTableau":
        return CliffordTableau(self.n, list(self.xcol), list(self.zcol), self.odd, self.sign)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        return (self.n, tuple(self.xcol), tuple(self.zcol), self.odd, self.sign)

    def row(self, i: int) -> PauliString:
        if not 0 <= i < 2 * self.n:
            raise IndexError(f"row {i} out of range for n={self.n}")
        return self._row_product(1 << i)

    def validate(self) -> None:
        """Raise InvariantError unless the rows are a symplectic basis of Hermitian Paulis.

        Destabilizer i (row i) must anticommute with stabilizer i (row n+i)
        and commute with every other row, and every row's phase must be real.
        """
        n, xcol, zcol = self.n, self.xcol, self.zcol
        bitsets = (*xcol, *zcol, self.odd, self.sign)
        if len(xcol) != n or len(zcol) != n or any(v >> 2 * n for v in bitsets):
            raise InvariantError(f"bitsets do not fit {2 * n} rows over {n} qubits")
        if self.odd:
            raise InvariantError(f"row {_lowest(self.odd)} is not Hermitian")
        for a in range(2 * n):
            r = self.row(a)
            if self._anticommuting(r.x, r.z) != 1 << (a + n if a < n else a - n):
                raise InvariantError(f"row {a} breaks the symplectic pairing")

    def _anticommuting(self, x: int, z: int) -> int:
        """The bitset of rows that anticommute with the Pauli of masks x, z."""
        anti = 0
        for q in range(self.n):
            if x >> q & 1:
                anti ^= self.zcol[q]
            if z >> q & 1:
                anti ^= self.xcol[q]
        return anti

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

    def prepend_layer(self, name: str) -> None:
        """Turn the tableau of V into that of V G^(x)n, for G in {H, S, X}.

        The layer acts before V, so each row V P V-dagger becomes
        V (G P G-dagger) V-dagger, for all rows at once: H swaps the
        destabilizer and stabilizer halves, S turns destabilizer i into
        i * row i * row n+i (S X S-dagger = Y = iXZ), and X negates every
        stabilizer (X Z X = -Z).
        """
        n, low = self.n, (1 << self.n) - 1
        if name == "H":
            def swap(v: int) -> int:
                return v >> n | (v & low) << n

            self.xcol = [swap(v) for v in self.xcol]
            self.zcol = [swap(v) for v in self.zcol]
            self.odd, self.sign = swap(self.odd), swap(self.sign)
        elif name == "S":
            # i * row i * row n+i = (-i row n+i) * row i: the factor is the
            # stabilizer half moved down, its phase plus 3
            odd, sign = self.odd >> n, self.sign >> n
            down = [[v >> n for v in cols] for cols in (self.xcol, self.zcol)]
            self._multiply_rows(low, *down, ~odd & low, (sign ^ ~odd) & low)
        elif name == "X":
            self.sign ^= low << n
        else:
            raise ValueError(f"cannot prepend a layer of {name!r}")

    def _check(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise ValueError(f"qubit {q} out of range for n={self.n}")

    def _h(self, q: int) -> None:
        self._check(q)
        x, z = self.xcol[q], self.zcol[q]
        self.sign ^= x & z
        self.xcol[q], self.zcol[q] = z, x

    def _s(self, q: int) -> None:
        self._check(q)
        x = self.xcol[q]
        self.sign ^= x & self.zcol[q]
        self.zcol[q] ^= x

    def _cnot(self, c: int, t: int) -> None:
        self._check(c)
        self._check(t)
        if c == t:
            raise ValueError("CNOT control and target coincide")
        xcol, zcol = self.xcol, self.zcol
        self.sign ^= xcol[c] & zcol[t] & ~(xcol[t] ^ zcol[c])
        xcol[t] ^= xcol[c]
        zcol[c] ^= zcol[t]

    # -- row algebra over bitsets of rows --

    def _row_product(self, rows: int) -> PauliString:
        """The product of the rows in the bitset, in increasing row order.

        Writing each row as i^(phase + |Y|) X^x Z^z and moving every X to the
        left picks up a -1 for each pair a < b with Z at a and X at b on the
        same qubit; per qubit that count's parity is a prefix-parity scan.
        """
        n = self.n
        x = z = 0
        phase = (self.odd & rows).bit_count() + 2 * (self.sign & rows).bit_count()
        for q in range(n):
            rx, rz = self.xcol[q] & rows, self.zcol[q] & rows
            if not (rx or rz):
                continue
            xb, zb = rx.bit_count() & 1, rz.bit_count() & 1
            phase += (rx & rz).bit_count() - (xb & zb) + 2 * (rx & _parity_below(rz, 2 * n)).bit_count()
            x |= xb << q
            z |= zb << q
        return PauliString(n, x, z, phase % 4)

    def _multiply_rows(self, rows: int, fx: list[int], fz: list[int], fodd: int, fsign: int) -> None:
        """Replace every row r in the bitset by F_r * row_r.

        The factor F_r has X and Z bits at qubit q equal to bit r of fx[q]
        and fz[q], and phase i^(bit r of fodd + 2 * bit r of fsign).  On one
        qubit, letters a.b = i^(|Y_a| + |Y_b| - |Y_ab|) (-1)^(z_a x_b) times the
        letter of the XOR; the per-row phase is counted mod 4 in two
        bitsets, lo and hi.
        """
        xcol, zcol = self.xcol, self.zcol
        lo = hi = 0
        for q in range(self.n):
            ax, az = fx[q], fz[q]
            if not (ax or az):
                continue
            bx, bz = xcol[q] & rows, zcol[q] & rows
            for y in (ax & az, bx & bz):
                hi ^= lo & y
                lo ^= y
            y = (ax ^ bx) & (az ^ bz)
            hi ^= ~lo & y ^ az & bx
            lo ^= y
            xcol[q] ^= ax
            zcol[q] ^= az
        hi ^= lo & fodd ^ fsign
        lo ^= fodd
        self.sign ^= hi ^ (lo & self.odd)
        self.odd ^= lo

    # -- measurement of the state (tableau of V doubles as the state V|0^n>) --

    def _pivot(self, q: int) -> int:
        """The first stabilizer row with X support at q, or -1 if Z_q is determined."""
        stabs = self.xcol[q] >> self.n
        return self.n + _lowest(stabs) if stabs else -1

    def _collapse(self, q: int, pivot: int) -> None:
        """The random-outcome step of measuring Z_q, leaving the pivot row +Z_q.

        Every other row with X support at q is multiplied by the pivot row,
        then the pivot row moves to its destabilizer slot.
        """
        n = self.n
        rows = self.xcol[q] & ~(1 << pivot)
        fx, fz = ([rows if v >> pivot & 1 else 0 for v in cols] for cols in (self.xcol, self.zcol))
        self._multiply_rows(rows, fx, fz, rows * (self.odd >> pivot & 1), rows * (self.sign >> pivot & 1))
        for cols in (self.xcol, self.zcol):
            for j in range(n):
                cols[j] = _move_bit(cols[j], pivot, pivot - n)
        self.odd = _move_bit(self.odd, pivot, pivot - n)
        self.sign = _move_bit(self.sign, pivot, pivot - n)
        self.zcol[q] |= 1 << pivot

    def _z_rows(self, q: int) -> int:
        """With no pivot at q: the stabilizer rows whose product is +/- Z_q.

        They are the ones picked out by the destabilizers' X-support at q.
        """
        return (self.xcol[q] & ((1 << self.n) - 1)) << self.n

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit q in Z basis, collapsing in place; returns the bit."""
        self._check(q)
        pivot = self._pivot(q)
        if pivot >= 0:
            self._collapse(q, pivot)
            outcome = int(rng.integers(2))
            self.sign |= outcome << pivot
            return outcome
        return _z_outcome(self._row_product(self._z_rows(q)), q)


def _lowest(v: int) -> int:
    """Index of the lowest set bit of v > 0."""
    return (v & -v).bit_length() - 1


def _move_bit(v: int, src: int, dst: int) -> int:
    """v with bit dst set to bit src, and bit src cleared."""
    return (v & ~(1 << dst) & ~(1 << src)) | ((v >> src & 1) << dst)


def _parity_below(v: int, width: int) -> int:
    """Bit b is the parity of the bits of v below b, for b < width."""
    p, shift = v << 1, 1
    while shift < width:
        p ^= p << shift
        shift <<= 1
    return p


def _z_outcome(product: PauliString, q: int) -> int:
    """The bit read off a product of stabilizers that must equal +/- Z_q."""
    if product.x or product.z != 1 << q or product.phase & 1:
        raise InvariantError(f"stabilizer product {product} is not +/- Z_{q}")
    return product.phase >> 1


@dataclass(frozen=True)
class CompiledMeasurement:
    """The Z-basis outcome of a stabilizer state as an affine map of coins.

    terms[q] is None when bit q is a fresh coin, else (c, mask): bit q is c
    XOR the parity of the earlier coins in mask (coin k is bit k).  The
    outcomes form the affine subspace of Dehaene and De Moor, with its basis
    in measurement order.
    """

    terms: tuple[tuple[int, int] | None, ...]

    def draw(self, rng: np.random.Generator) -> str:
        """One outcome; consumes rng exactly as sample_measurement does."""
        coins = k = 0
        bits = []
        for term in self.terms:
            if term is None:
                bit = int(rng.integers(2))
                coins |= bit << k
                k += 1
            else:
                bit = term[0] ^ ((coins & term[1]).bit_count() & 1)
            bits.append(bit)
        return "".join(map(str, bits))

    def support(self) -> np.ndarray:
        """All 2^k outcomes, as the integers int(y, 2), one per coin pattern.

        The state is uniform on them, so each has probability exactly 2^-k.
        """
        n = len(self.terms)
        coins = np.arange(2 ** sum(term is None for term in self.terms))
        index = np.zeros_like(coins)
        k = 0
        for q, term in enumerate(self.terms):
            if term is None:
                bit = coins >> k & 1
                k += 1
            else:
                bit = term[0] ^ np.bitwise_count(coins & term[1]).astype(coins.dtype) & 1
            index |= bit << (n - 1 - q)
        return index


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
            _normalize_gate(n, name.upper(), tuple(int(q) for q in qubits), out)
        return CliffordCircuit(n, tuple(out))

    def __len__(self) -> int:
        return len(self.gates)

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


def _normalize_gate(
    n: int, name: str, qubits: tuple[int, ...], out: list[tuple[str, tuple[int, ...]]]
) -> None:
    """Append one gate to out over {H, S, CNOT}, expanding X/Y/Z/SDG/CZ sugar.

    Raises ValueError for an unknown name, the wrong number of qubits, a
    qubit outside 0..n-1 or a two-qubit gate on one qubit.
    """
    arity = _ARITY.get(name)
    if arity is None:
        raise ValueError(f"unknown gate {name!r}")
    if len(qubits) != arity:
        raise ValueError(f"{name} takes {'one qubit' if arity == 1 else 'two qubits'}, got {len(qubits)}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range in {name} for n={n}")
    if arity == 2 and qubits[0] == qubits[1]:
        raise ValueError(f"{name} takes two distinct qubits")
    if name in GENERATOR_GATES:
        out.append((name, qubits))
    elif name == "CZ":
        c, t = qubits
        out += [("H", (t,)), ("CNOT", (c, t)), ("H", (t,))]
    else:
        out += [(g, qubits) for g in SUGAR[name]]


def parse_circuit(text: str) -> CliffordCircuit:
    """Parse the line-oriented circuit format (see to_text for the inverse)."""
    n = None
    gates: list[tuple[str, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
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
        name, *indices = fields
        try:
            qubits = tuple(map(int, indices))
        except ValueError:
            raise ParseError(f"line {lineno}: bad qubit index in {' '.join(fields)!r}") from None
        try:
            _normalize_gate(n, name.upper(), qubits, gates)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ParseError("missing 'qubits N' header")
    return CliffordCircuit(n, tuple(gates))


def circuit_to_tableau(c: CliffordCircuit) -> CliffordTableau:
    t = CliffordTableau.identity(c.n)
    for name, qubits in c.gates:
        t.apply(name, qubits)
    return t


def sample_measurement(t: CliffordTableau, rng: np.random.Generator) -> str:
    """One string drawn exactly from |<y|V|0^n>|^2 for the tableau's V."""
    work = t.copy()
    return "".join(str(work.measure(q, rng)) for q in range(t.n))


def compile_measurement(t: CliffordTableau) -> CompiledMeasurement:
    """Measure qubits 0..n-1 once, symbolically, for any number of draws.

    Runs the same collapse as sample_measurement with each random outcome
    left as a coin, and carries each row's sign as its constant part plus
    the set of coins it depends on: forms[k] is the bitset of rows whose sign
    carries coin k.  The rows' Pauli letters never depend on an outcome, so
    one pass fixes which bits are coins and which are parities of coins.
    """
    n = t.n
    work = t.copy()
    forms: list[int] = []
    terms: list[tuple[int, int] | None] = []
    for q in range(n):
        pivot = work._pivot(q)
        if pivot >= 0:
            rows = work.xcol[q] & ~(1 << pivot)
            forms = [f ^ rows if f >> pivot & 1 else f for f in forms]
            work._collapse(q, pivot)
            forms = [_move_bit(f, pivot, pivot - n) for f in forms]
            forms.append(1 << pivot)
            terms.append(None)
        else:
            rows = work._z_rows(q)
            mask = sum(1 << k for k, f in enumerate(forms) if (f & rows).bit_count() & 1)
            terms.append((_z_outcome(work._row_product(rows), q), mask))
    return CompiledMeasurement(tuple(terms))


def conjugate_pauli(
    t: CliffordTableau, p: PauliString, inverse: bool = False
) -> PauliString:
    """V p V-dagger, or V-dagger p V with inverse=True, with the exact sign.

    Writes p as i^(phase+|Y positions|) * prod X_j^{x_j} * prod Z_j^{z_j} and
    multiplies out the tableau rows, which are exactly the images of X_j, Z_j.
    The inverse direction needs no inverse tableau: q = V-dagger p V has X at
    j exactly when p anticommutes with stabilizer j (the image of Z_j), and Z
    at j when p anticommutes with destabilizer j; one forward conjugation of q
    then gives its sign.
    """
    n = p.n
    if t.n != n:
        raise ValueError("qubit count mismatch")
    x, z = p.x, p.z
    if inverse:
        anti = t._anticommuting(x, z)
        x, z = anti >> n, anti & ((1 << n) - 1)
    acc = t._row_product(x | z << n)
    phase = acc.phase + (x & z).bit_count()  # of the image of the Pauli x, z
    if not inverse:
        return PauliString(n, acc.x, acc.z, (phase + p.phase) % 4)
    if (acc.x, acc.z) != (p.x, p.z):
        raise InvariantError("tableau rows are not a symplectic basis")
    return PauliString(n, x, z, (p.phase - phase) % 4)


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
    return CliffordCircuit(n, tuple(applied)).inverse()


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
    return CliffordTableau.from_rows(n, xs, zs, ph)


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
