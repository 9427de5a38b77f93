"""Pauli and Clifford machinery: tableau simulation, sampling, pull-back.

Representation notes.  A Pauli operator on n qubits is stored as two n-bit
masks plus a power of i: value = i^phase * (P_0 x P_1 x ... x P_{n-1}) where
qubit j has letter X if only bit j of x is set, Z if only bit j of z, Y if
both.  A Clifford operation is stored as a tableau of 2n rows: row i < n is
the image of X_i under conjugation (destabilizer), row n+i the image of Z_i
(stabilizer).  Global phases are never tracked; every consumer here is
phase-insensitive.  The tableau is held by columns: per qubit, its X bits and
its Z bits over all 2n rows are one Python int each, so a gate is a few
word-wise XOR/AND operations at any n.  The same columns as numpy int64
arrays make a batch, one tableau per entry (n <= 31; stack builds one):
the BFS frontiers of enumerate_clifford_words, and the anticoncentration
trial's draws, which random_cliffords makes a whole chunk at a time.

On a dense state a tableau acts in its canonical form F1 . H_S . F2: two
basis permutations with phases and |S| Hadamard passes, over a whole block
of states at once.  canonical_forms computes the forms of a batch, the
dense model's one V as a batch of one, and apply_canonical_forms runs
them; the replaying reference is canonical_form in tests/oracles.py.  The
pivots of the stabilizers' reduced echelon X block are both the Hadamard
set S and the coins of a Z-basis measurement (compile_measurement, which
reduces with _echelon and checks commutation with _symplectic_block).  One
bit-matrix transpose, masked block swaps on one int (_transpose), serves
that reduction, its symmetry check and random_clifford.

A gate is checked once, where it enters: circuit text in one loop
(_read_circuit, under parse_circuit and parse_tableau; the CLI reads a
--circuit file into a tableau with no CliffordCircuit), CliffordCircuit.build
and CliffordTableau.apply.  The loop applies a line whose fields all hit its
lookups of names and qubit indices and leaves any other to _checked_gate,
the one source of the gate messages.  The
native updates (_h, _cnot, ...) trust their qubits, so parse_tableau and
the easy reduction apply them unchecked.

A Clifford is a CliffordTableau, which everything here computes with; a
CliffordCircuit is only a gadget's Gamma, a checked, printable gate word.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from itertools import compress

import numpy as np

from . import linalg
from .errors import CapabilityError, InvariantError, ParseError

#: the Clifford gates, each name mapped to the CliffordTableau method that
#: applies it natively (the CHP rules of Aaronson and Gottesman); a circuit
#: accepts exactly these names, each as wide as its matrix in linalg.GATES
CLIFFORD_GATES = {name: "_" + name.lower() for name in ("H", "S", "SDG", "X", "Y", "Z", "CNOT", "CZ")}
#: the number of qubits each gate takes, read from its matrix in linalg.GATES
_ARITY = {name: len(linalg.GATES[name]).bit_length() - 1 for name in CLIFFORD_GATES}

_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PauliString:
    n: int
    x: int
    z: int
    phase: int = 0

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

    def letter(self, q: int) -> str:
        xb, zb = (self.x >> q) & 1, (self.z >> q) & 1
        return "IXZY"[xb + 2 * zb]

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
    two columns and the sign, at any n (the CHP/Stim layout).  The gates
    work unchanged on numpy int64 arrays in place of the ints, one entry per
    tableau (a batch), which is how enumerate_clifford_words applies a gate
    to a whole BFS frontier at once; row algebra and copy() need ints.
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

    def copy(self) -> "CliffordTableau":
        return CliffordTableau(self.n, list(self.xcol), list(self.zcol), self.odd, self.sign)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self.key() == other.key()

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
        """Apply one gate by name, checked by _checked_gate (ValueError)."""
        _checked_gate(self.n, name, qubits)
        getattr(self, CLIFFORD_GATES[name])(*qubits)

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

    # the native updates trust their qubits; apply checks a gate by name

    def _h(self, q: int) -> None:
        x, z = self.xcol[q], self.zcol[q]
        self.sign ^= x & z
        self.xcol[q], self.zcol[q] = z, x

    def _s(self, q: int) -> None:
        x = self.xcol[q]
        self.sign ^= x & self.zcol[q]
        self.zcol[q] ^= x

    def _cnot(self, c: int, t: int) -> None:
        xcol, zcol = self.xcol, self.zcol
        self.sign ^= xcol[c] & zcol[t] & ~(xcol[t] ^ zcol[c])
        xcol[t] ^= xcol[c]
        zcol[c] ^= zcol[t]

    def _cz(self, a: int, b: int) -> None:
        """CZ(a, b), the same tableau as H(b) CNOT(a, b) H(b): X_a picks up Z_b
        and X_b picks up Z_a, with a sign where the row has X at both and Z at one."""
        xcol, zcol = self.xcol, self.zcol
        self.sign ^= xcol[a] & xcol[b] & (zcol[a] ^ zcol[b])
        zcol[a] ^= xcol[b]
        zcol[b] ^= xcol[a]

    def _sdg(self, q: int) -> None:
        """S-dagger, the same tableau as S applied three times (X -> -Y, Y -> X)."""
        x = self.xcol[q]
        self.sign ^= x & ~self.zcol[q]
        self.zcol[q] ^= x

    # X, Y and Z only negate the rows that anticommute with them at q

    def _x(self, q: int) -> None:
        self.sign ^= self.zcol[q]

    def _y(self, q: int) -> None:
        self.sign ^= self.xcol[q] ^ self.zcol[q]

    def _z(self, q: int) -> None:
        self.sign ^= self.xcol[q]

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

def _lowest(v: int) -> int:
    """Index of the lowest set bit of v > 0."""
    return (v & -v).bit_length() - 1


def _bits(v: int):
    """The indices of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _parity_below(v: int, width: int) -> int:
    """Bit b is the parity of the bits of v below b, for b < width."""
    p, shift = v << 1, 1
    while shift < width:
        p ^= p << shift
        shift <<= 1
    return p


def _echelon(rows: Iterable[int], columns: int) -> tuple[dict[int, int], list[int]]:
    """The reduced echelon form of the bit rows over the bits set in columns.

    pivots maps each pivot bit, lowest first, to the one row that holds it;
    that bit is the row's lowest in columns.  rest holds the rows left with
    no bit in columns.  Bits outside columns ride along, so a row can carry
    what it is a product of.  Each pivot row holds no other pivot bit, so
    reducing a row by the pivots is one XOR per pivot bit it holds.
    """
    pivots: dict[int, int] = {}
    held = 0  # the pivot bits
    rest = []
    for v in rows:
        w = v & held
        while w:  # _bits(w), inlined: this is the hot loop
            low = w & -w
            v ^= pivots[low.bit_length() - 1]
            w ^= low
        if not v & columns:
            rest.append(v)
            continue
        bit = v & columns & -(v & columns)
        for s, row in pivots.items():
            if row & bit:
                pivots[s] = row ^ v
        pivots[bit.bit_length() - 1] = v
        held |= bit
    return dict(sorted(pivots.items())), rest


def _symplectic_block(pivots: dict[int, int], rest: list[int], n: int) -> None:
    """Raise InvariantError unless the echelon rows of the stabilizers commute.

    The rows are x | z << n (bits past 2n ride along), reduced by _echelon
    over the X bits.  Pivot s has X at s and at qubits outside S only, so
    the pivots whose X part meets a Z part z an odd number of times are z on
    S, XOR the pivots with X at q for each qubit q of z outside S.  A row
    with no X anticommutes with exactly those pivots, and pivots s and s2
    anticommute when bit s2 of N[s], the set for z_s, differs from bit s of
    N[s2].  The rows span the stabilizers, so these commute iff every row
    with no X gives the empty set and N, the block canonical_forms builds
    its diagonal layer from, is symmetric.
    """
    smask = sum(1 << s for s in pivots)
    free = (1 << n) - 1 & ~smask  # the qubits outside S
    xcols = [0] * n  # xcols[q]: the pivots with X at q, q outside S
    for s, row in pivots.items():
        if row & free:
            for q in _bits(row & free):
                xcols[q] |= 1 << s

    def odd_pivots(row: int) -> int:
        z = row >> n
        v = z & smask
        if z & free:
            for q in _bits(z & free):
                v ^= xcols[q]
        return v

    square = [odd_pivots(pivots[s]) if s in pivots else 0 for s in range(n)]
    if any(odd_pivots(row) for row in rest) or square != _transpose(square, n):
        raise InvariantError("the stabilizers do not commute")


def _transpose(rows: list[int], width: int) -> list[int]:
    """The columns of the bit matrix whose row i is rows[i], width bits wide.

    The rows go into one int, w bits apart, with w a power of two that holds
    both sides, and the transpose is log2(w) masked swaps of blocks across
    the diagonal on it (Hacker's Delight, 7-3): row j of the result, the
    bits at j*w and up, is column j.
    """
    w = max(8, 1 << (max(len(rows), width) - 1).bit_length())
    step = w // 8
    x = int.from_bytes(b"".join(r.to_bytes(step, "little") for r in rows), "little")
    for shift, mask in _block_swaps(w):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    data = x.to_bytes(step * width, "little")
    return [int.from_bytes(data[j * step : (j + 1) * step], "little") for j in range(width)]


@cache
def _block_swaps(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per k = w/2, ..., 1: the mask holds bit j of row i when
    bit k of j is set and bit k of i is not, and shift moves it to (i+k, j-k).

    Cached per w, a power of two.  A tableau on n qubits asks for one or two:
    the w that holds 2n (random_clifford and the reduction) and the one that
    holds n (the symmetry check), the same w for n <= 4.  The log2(w) masks of
    w^2 bits or fewer hold 0.27 MiB at w=512 and 5.3 MiB at w=2048 (n=1000),
    by tracemalloc.
    """
    swaps = []
    k = w >> 1
    while k:
        row = sum(((1 << k) - 1) << j for j in range(k, w, 2 * k)).to_bytes(w // 8, "little")
        mask = int.from_bytes(b"".join(bytes(w // 8) if i & k else row for i in range(w)), "little")
        swaps.append((k * (w - 1), mask))
        k >>= 1
    return tuple(swaps)


@dataclass(frozen=True)
class CompiledMeasurement:
    """The Z-basis outcome of a stabilizer state as an affine map of coins.

    terms[q] is None when bit q is a fresh coin, else (c, mask): bit q is c
    XOR the parity of the earlier coins in mask (coin k is bit k).  The
    outcomes form the affine subspace of Dehaene and De Moor, with its basis
    in measurement order.  Draws consume the generator exactly as measuring
    qubit by qubit does (`sample_measurement` in tests/oracles.py): one
    rng.integers(2) per coin, in qubit order.
    """

    terms: tuple[tuple[int, int] | None, ...]

    def _outcomes(self, coins: np.ndarray) -> np.ndarray:
        """The (m, n) outcome bits of an (m, k) block of coins, a draw per row.

        Every determined bit is its constant XOR the parity of the coins,
        packed into 64-bit words, under its mask.
        """
        coin_qubits = [q for q, term in enumerate(self.terms) if term is None]
        fixed = [(q, term) for q, term in enumerate(self.terms) if term is not None]
        m, k = len(coins), len(coin_qubits)
        bits = np.empty((m, len(self.terms)), dtype=np.uint8)
        bits[:, coin_qubits] = coins
        if fixed:
            words = -(-k // 64)
            packed = np.zeros((m, 8 * words), dtype=np.uint8)
            packed[:, : -(-k // 8)] = np.packbits(coins, axis=1, bitorder="little")
            packed = packed.view("<u8")
            masks = np.frombuffer(
                b"".join(mask.to_bytes(8 * words, "little") for _, (_, mask) in fixed), dtype="<u8"
            ).reshape(len(fixed), words)
            parity = np.zeros((m, len(fixed)), dtype=np.uint8)
            for i in range(words):
                parity ^= np.bitwise_count(packed[:, i, None] & masks[None, :, i])
            constants = np.array([c for _, (c, _) in fixed], dtype=np.uint8)
            bits[:, [q for q, _ in fixed]] = (parity & 1) ^ constants
        return bits

    def draw_many(self, rng: np.random.Generator, shots: int) -> list[str]:
        """shots outcomes, all their coins drawn as one block.

        numpy fills rng.integers(0, 2, size=(shots, k)) in C order from the
        same stream as shots * k scalar rng.integers(2) calls (so on numpy
        2.4.6; the tests pin it), so the outcomes and the generator's end
        state are those of one scalar draw per coin, shot after shot.
        """
        n, k = len(self.terms), self.terms.count(None)
        bits = self._outcomes(rng.integers(0, 2, size=(shots, k)))
        text = (bits + ord("0")).tobytes().decode("ascii")
        return [text[i * n : (i + 1) * n] for i in range(shots)]

    def support(self) -> np.ndarray:
        """All 2^k outcomes, as the integers int(y, 2), one per coin pattern.

        Coin j of pattern p is bit j of p.  The state is uniform on the
        outcomes, so each has probability exactly 2^-k.
        """
        n, k = len(self.terms), self.terms.count(None)
        bits = self._outcomes(np.arange(2**k)[:, None] >> np.arange(k) & 1)
        return bits @ (1 << np.arange(n - 1, -1, -1))


@dataclass(frozen=True)
class CliffordCircuit:
    """A gadget's Gamma: gates over the names of CLIFFORD_GATES, as written.

    parse_circuit and build check every gate; the raw constructor takes
    gates that are already checked, such as the BFS words search_gadgets wraps.
    """

    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]

    @staticmethod
    def build(n: int, gates) -> "CliffordCircuit":
        """Check a sequence of (name, qubits); names are upper-cased, nothing is rewritten."""
        checked = (_checked_gate(n, name.upper(), tuple(map(int, qubits))) for name, qubits in gates)
        return CliffordCircuit(n, tuple(checked))

    def to_text(self) -> str:
        lines = [f"qubits {self.n}"]
        lines += [f"{name} {' '.join(map(str, qs))}" for name, qs in self.gates]
        return "\n".join(lines) + "\n"


def _checked_gate(n: int, name: str, qubits: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """The gate (name, qubits), as written, once it is checked.

    Raises ValueError for a name outside CLIFFORD_GATES, the wrong number
    of qubits, a qubit outside 0..n-1 or a two-qubit gate on one qubit.
    """
    if name not in CLIFFORD_GATES:
        raise ValueError(f"unknown gate {name!r}")
    arity = _ARITY[name]
    if len(qubits) != arity:
        raise ValueError(f"{name} takes {'one qubit' if arity == 1 else 'two qubits'}, got {len(qubits)}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range in {name} for n={n}")
    if arity == 2 and qubits[0] == qubits[1]:
        raise ValueError(f"{name} takes two distinct qubits")
    return name, qubits


def _read_circuit(text: str, start):
    """Feed each gate of the circuit text to ops[name](*qubits); start(n) gives
    (result, ops) once the header gives n.

    The header also gives three lookups: the one- and two-qubit names, as
    CLIFFORD_GATES writes them, to their ops, and str(q) to q for each qubit
    q (up to len(text), so the table costs no more than the text).  A line
    of two or three fields that all hit, with distinct qubits, is a valid
    gate and is applied at once.  Any other line (the header, a comment, a
    lower-case name, "01", a glued "#", anything invalid) goes through
    upper, int and _checked_gate, whose ValueError becomes a ParseError
    naming the line.
    """
    n = None
    one = two = index = {}  # empty before the header: every line takes the long way
    for lineno, raw in enumerate(text.splitlines(), start=1):
        f = raw.split()
        if len(f) == 2:
            op, q = one.get(f[0]), index.get(f[1])
            if op and q is not None:
                op(q)
                continue
        elif len(f) == 3:
            op, a, b = two.get(f[0]), index.get(f[1]), index.get(f[2])
            if op and a is not None and b is not None and a != b:
                op(a, b)
                continue
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
            result, ops = start(n)
            one = {name: ops[name] for name, k in _ARITY.items() if k == 1}
            two = {name: ops[name] for name, k in _ARITY.items() if k == 2}
            index = {str(q): q for q in range(min(n, len(text)))}
            continue
        name = fields[0].upper()
        try:
            qubits = tuple(map(int, fields[1:]))
        except ValueError:
            raise ParseError(f"line {lineno}: bad qubit index in {' '.join(fields)!r}") from None
        try:
            _checked_gate(n, name, qubits)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        ops[name](*qubits)
    if n is None:
        raise ParseError("missing 'qubits N' header")
    return result


def parse_circuit(text: str) -> CliffordCircuit:
    """Parse the line-oriented circuit format (see to_text for the inverse)."""
    gates: list[tuple[str, tuple[int, ...]]] = []
    record = {name: lambda *qubits, name=name: gates.append((name, qubits)) for name in CLIFFORD_GATES}
    n = _read_circuit(text, lambda n: (n, record))
    return CliffordCircuit(n, tuple(gates))


def parse_tableau(text: str) -> CliffordTableau:
    """The tableau of a circuit text, each gate applied as it is read."""

    def start(n: int):
        t = CliffordTableau.identity(n)
        return t, {name: getattr(t, method) for name, method in CLIFFORD_GATES.items()}

    return _read_circuit(text, start)


def compile_measurement(t: CliffordTableau) -> CompiledMeasurement:
    """Measure qubits 0..n-1 once, symbolically, for any number of draws.

    Only the stabilizers (rows n..2n-1) are read, as rows x | z << n, each
    carrying the bitset of stabilizers it is a product of (bit 2n + j for
    stabilizer j).  Their reduced echelon X block (_echelon, then the
    commutation check _symplectic_block) has the coins as its pivots: the
    Hadamard set S of canonical_forms.  The rows left without X are products
    of stabilizers equal to +/- Z^z, each a parity constraint y.z = sign on
    the outcome.  Reduced over the qubits outside S, the constraint that holds
    qubit q fixes bit q as its sign XOR the coins in its z.  The sign is
    that of the product of its stabilizers, multiplied in row order from the
    rows already transposed: row j is i^(2 sign_j + |Y_j|) X^x_j Z^z_j, and
    moving X^x_j left past the product's Z^z so far costs
    (-1)^|z & x_j|.  Those affine forms are unique, so the coins in it are
    earlier ones and the terms are those measuring qubit by qubit
    (Aaronson-Gottesman) would give.
    """
    n, low = t.n, (1 << t.n) - 1
    if t.odd >> n:
        raise InvariantError(f"stabilizer {_lowest(t.odd >> n)} is not Hermitian")
    rows = _transpose([col >> n for col in (*t.xcol, *t.zcol)], n)
    coins, constraints = _echelon((row | 1 << 2 * n + j for j, row in enumerate(rows)), low)
    _symplectic_block(coins, constraints, n)
    coin_mask = sum(1 << q for q in coins)
    # commuting, a constraint is Z on coins only if it is the identity
    fixed, left = _echelon((v >> n for v in constraints), low & ~coin_mask)
    if left:
        raise InvariantError("the stabilizers are dependent")
    index = {q: k for k, q in enumerate(coins)}  # coin qubit -> coin index
    terms: list[tuple[int, int] | None] = [None] * n
    signs = t.sign >> n
    for q, v in fixed.items():  # v = z | (its stabilizers) << n; q: every qubit not a coin
        # a product of commuting Hermitian stabilizers, in row order: its phase is +/-1
        phase = x = z = 0
        for j in _bits(v >> n):
            xj, zj = rows[j] & low, rows[j] >> n
            phase += 2 * (signs >> j & 1) + (xj & zj).bit_count() + 2 * (z & xj).bit_count()
            x ^= xj
            z ^= zj
        sign = (phase - (x & z).bit_count()) % 4 >> 1
        terms[q] = (sign, sum(1 << index[c] for c in _bits(v & coin_mask)))
    return CompiledMeasurement(tuple(terms))


def pull_back_pauli(t: CliffordTableau, p: PauliString) -> PauliString:
    """V-dagger p V, with the exact sign, and no inverse tableau.

    q = V-dagger p V has X at j exactly when p anticommutes with stabilizer
    j (the image of Z_j), and Z at j when p anticommutes with destabilizer j.
    Written as i^(phase+|Y positions|) * prod X_j^{x_j} * prod Z_j^{z_j}, q
    maps to the product of the tableau rows, which are exactly the images of
    X_j, Z_j; that product must be p, and its phase gives q's sign.
    """
    n = p.n
    if t.n != n:
        raise ValueError("qubit count mismatch")
    anti = t._anticommuting(p.x, p.z)
    x, z = anti >> n, anti & ((1 << n) - 1)
    acc = t._row_product(x | z << n)
    if (acc.x, acc.z) != (p.x, p.z):
        raise InvariantError("tableau rows are not a symplectic basis")
    return PauliString(n, x, z, (p.phase - acc.phase - (x & z).bit_count()) % 4)


# -- the canonical form F1 . H_S . F2 and its dense action --------------------


#: a batch holds each column of 2n row bits in one int64 per entry
_BATCH_MAX_QUBITS = 31


def _check_batch_width(n: int) -> None:
    if n > _BATCH_MAX_QUBITS:
        raise CapabilityError(
            f"a batch of tableaux holds 2n row bits in int64 columns, so n <= {_BATCH_MAX_QUBITS}; got n={n}"
        )


def stack(tableaux) -> CliffordTableau:
    """The tableaux as one batch: columns of int64 arrays, an entry per tableau."""
    n = tableaux[0].n
    _check_batch_width(n)
    cols = np.array([[*t.xcol, *t.zcol, t.odd, t.sign] for t in tableaux], dtype=np.int64).T.copy()
    return CliffordTableau(n, list(cols[:n]), list(cols[n : 2 * n]), cols[2 * n], cols[2 * n + 1])


def canonical_forms(t: CliffordTableau) -> tuple[CliffordTableau, np.ndarray, CliffordTableau]:
    """(F1, S, F2) per entry of the batch t, its Clifford equal to
    F1 . H_S . F2 up to phase: F1 and F2 batches and S the (count,)
    bitsets of the Hadamard sets.

    F1 and F2 are Hadamard-free: each maps every Z_j to +/- a string of Zs
    (Bravyi and Maslov, arXiv:2003.09412).  S is the pivots of the reduced
    echelon X block of the stabilizers (the images of Z_j): the coins of
    compile_measurement.  The block goes to that form by Gauss-Jordan, one
    column at a time for the whole batch, each entry with its own pivot row
    (the first free row holding the column).  On the output side, CNOTs from
    each pivot s to the other X bits of its row leave X_s Z^(M_s); the rows
    without X span the Z_t, t not in S, so only M on S matters.  CNOT(s, u)
    maps Z_u to Z_s Z_u, so bit s of a Z part flips with the parity of its
    bits at the targets of s: M on S is the block N.  Commutation is checked
    as in _symplectic_block: a row with no X must commute with every pivot,
    and N must be symmetric.  CZ(s, s') where M[s][s'] = 1 and S on s where
    M[s][s] = 1 make the group <+/-X_s, +/-Z_t>.  With W those gates (the
    CNOTs, then the diagonal CZ and S layer), F2 = H_S W t is Hadamard-free
    and F1 = W^-1: S-dagger, CZ, then the CNOTs reversed.  Every gate is a
    native update, masked to the entries that need it, so the signs are
    exact; a layer is one update per qubit or pair some entry needs (the
    CNOTs commute: controls in S, targets outside).  F1's diagonal layer is
    written at once: on the identity, it leaves row s X at s and Z at the
    bits of M_s, so Y at s where M[s][s] = 1, with the sign -1 there
    (S-dagger X S = -Y).  The forms are those of canonical_form in
    tests/oracles.py, which replays each gate through CliffordTableau.apply,
    bit for bit.
    """
    n = t.n
    _check_batch_width(n)
    count, low = len(t.sign), (1 << n) - 1
    entries = np.arange(count)
    # rows[:, j]: stabilizer j as x | z << n
    bits = np.stack([*t.xcol, *t.zcol])[:, :, None] >> np.arange(n, 2 * n) & 1
    rows = (bits << np.arange(2 * n)[:, None, None]).sum(axis=0)
    free = np.ones((count, n), dtype=bool)  # the rows no column has taken as pivot
    at = np.zeros((count, n), dtype=np.intp)  # at[:, q]: the pivot row of column q
    found = np.zeros((count, n), dtype=bool)  # found[:, q]: q is in S
    for q in range(n):
        has = (rows >> q & 1).astype(bool)
        p = (has & free).argmax(axis=1)
        found[:, q] = ok = has[entries, p] & free[entries, p]
        at[:, q] = p
        free[entries, p] &= ~ok
        has[entries, p] = False
        rows ^= np.where(has & ok[:, None], rows[entries, p][:, None], 0)
    pivots = np.where(found, np.take_along_axis(rows, at, axis=1), 0)
    # odd[:, r, s]: whether row r's Z part meets pivot s's X part an odd number of times
    odd = (np.bitwise_count((rows >> n)[:, :, None] & (pivots & low)[:, None, :]) & 1).astype(bool)
    block = np.take_along_axis(odd, at[:, :, None], axis=1) & found[:, :, None]
    if (odd & free[:, :, None]).any() or (block != block.transpose(0, 2, 1)).any():
        raise InvariantError("the stabilizers do not commute")
    cnots = _needed((pivots[:, :, None] >> np.arange(n) & 1).astype(bool) & ~found[:, None, :])
    f2 = CliffordTableau(n, [c.copy() for c in t.xcol], [c.copy() for c in t.zcol], t.odd.copy(), t.sign.copy())
    for (c, u), k in cnots:
        _cnot_where(f2, c, u, k)
    for (a, b), k in _needed(np.triu(block, 1)):
        _cz_where(f2, a, b, k)
    phases = np.diagonal(block, axis1=1, axis2=2)
    for (s,), k in _needed(phases):
        _s_where(f2, s, k)
    for (s,), k in _needed(found):
        _h_where(f2, s, k)
    # F1's diagonal layer: bit s of zcol[q] is M[q][s], and S-dagger's sign
    weights = 1 << np.arange(n, dtype=np.int64)
    zcol = list((1 << n + np.arange(n))[:, None] + (block * weights).sum(axis=2).T)
    xcol = [np.full(count, 1 << q, dtype=np.int64) for q in range(n)]
    f1 = CliffordTableau(n, xcol, zcol, np.zeros(count, dtype=np.int64), (phases * weights).sum(axis=1))
    for (c, u), k in cnots:
        _cnot_where(f1, c, u, k)
    return f1, (found * weights).sum(axis=1), f2


def _needed(need: np.ndarray) -> list:
    """(qubits, k) per gate some entry needs: need is (count, n) or (count,
    n, n) bool, and k is -1 at the entries that need the gate, 0 elsewhere."""
    k = -need.astype(np.int64)
    return [(idx, k[(slice(None), *idx)]) for idx in np.argwhere(need.any(axis=0)).tolist()]


# the native updates on the entries of a batch where k is -1, each XOR masked by k


def _cnot_where(t: CliffordTableau, c: int, u: int, k: np.ndarray) -> None:
    xcol, zcol = t.xcol, t.zcol
    t.sign ^= xcol[c] & zcol[u] & ~(xcol[u] ^ zcol[c]) & k
    xcol[u] ^= xcol[c] & k
    zcol[c] ^= zcol[u] & k


def _cz_where(t: CliffordTableau, a: int, b: int, k: np.ndarray) -> None:
    xcol, zcol = t.xcol, t.zcol
    t.sign ^= xcol[a] & xcol[b] & (zcol[a] ^ zcol[b]) & k
    zcol[a] ^= xcol[b] & k
    zcol[b] ^= xcol[a] & k


def _s_where(t: CliffordTableau, q: int, k: np.ndarray) -> None:
    x = t.xcol[q] & k
    t.sign ^= x & t.zcol[q]
    t.zcol[q] ^= x


def _h_where(t: CliffordTableau, q: int, k: np.ndarray) -> None:
    x, z = t.xcol[q], t.zcol[q]
    t.sign ^= x & z & k
    swap = (x ^ z) & k
    x ^= swap
    z ^= swap


_I_POWERS = np.array([1, 1j, -1, -1j])
_H_ENTRY = linalg.GATES["H"][0, 0].real


def apply_canonical_forms(forms, block: np.ndarray) -> np.ndarray:
    """Row r of the result is entry r of forms = (F1, S, F2) applied to row
    r of the block, up to a phase per row.

    forms is a batch of canonical forms: F1 and F2 batch tableaux and S the
    bitsets of the Hadamard sets, one entry per row, as canonical_forms
    gives them.  The Hadamard-free F2 and F1 are one scatter with phases
    each over the whole block (_apply_hadamard_free), and H_S one masked
    pass per qubit.
    """
    f1, hs, f2 = forms
    block = _apply_hadamard_free(f2, block)
    m, dim = block.shape
    n = dim.bit_length() - 1
    for q in range(n):
        rows = np.flatnonzero(hs >> q & 1)
        if not rows.size:
            continue
        v = block.reshape(m, 2**q, 2, dim >> (q + 1))
        sub = v if rows.size == m else v[rows]
        a, b = sub[:, :, 0], sub[:, :, 1]
        v[rows] = np.stack((a + b, a - b), axis=2) * _H_ENTRY
    return _apply_hadamard_free(f1, block)


def _apply_hadamard_free(f: CliffordTableau, block: np.ndarray) -> np.ndarray:
    """Row r of the result is entry r of the batch f applied to row r of the block, up to phase.

    A Hadamard-free F sends |x> to i^q(x) |Ax + b> (Dehaene and De Moor).
    Destabilizer j, F X_j F-dagger = i^ph_j X^a_j Z^d_j, gives column a_j of
    A; F|0> is the basis state b stabilized by the images of Z_j, and as
    A^T is the inverse of those images' Z block, b is the sum of the a_j of
    the stabilizers with a minus sign.  F|x + e_j> = (F X_j F-dagger) F|x>,
    so the table of (Ax + b, q(x)) over all x doubles once per qubit.
    Indices follow linalg: qubit q is bit n-1-q.
    """
    m, dim = block.shape
    n = dim.bit_length() - 1
    xcols = np.stack(f.xcol, axis=1)  # (m, n) over 2n rows
    zcols = np.stack(f.zcol, axis=1)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)  # qubit q -> index bit
    row_bits = np.arange(n, dtype=np.int64)
    a = ((xcols[:, :, None] >> row_bits & 1) * weights[:, None]).sum(axis=1)  # (m, j)
    d = ((zcols[:, :, None] >> row_bits & 1) * weights[:, None]).sum(axis=1)
    odd, sign = f.odd[:, None], f.sign[:, None]
    # i^ph_j X^a Z^d: the row's phase, plus one i per Y (Y = iXZ)
    ph = (odd >> row_bits & 1) + 2 * (sign >> row_bits & 1) + np.bitwise_count(a & d)
    target = np.bitwise_xor.reduce(a * (sign >> (n + row_bits) & 1), axis=1)[:, None]
    phase = np.zeros((m, 1), dtype=np.int64)
    for j in range(n - 1, -1, -1):  # qubit n-1 is index bit 0
        flips = 2 * (np.bitwise_count(target & d[:, j, None]) & 1)
        phase = np.concatenate((phase, phase + ph[:, j, None] + flips), axis=1)
        target = np.concatenate((target, target ^ a[:, j, None]), axis=1)
    out = np.empty((m, dim), dtype=complex)
    out.reshape(-1)[target + dim * np.arange(m)[:, None]] = block * _I_POWERS[phase & 3]
    return out


# -- uniform random Cliffords ------------------------------------------------


#: the most coins _coin_windows asks of the generator in one call while a
#: draw's planned coins last, so the int64 coins of a draw at large n (about
#: 2n^2 of them) become bytes one bounded block at a time
_COIN_BLOCK = 1 << 14


def random_clifford(n: int, rng: np.random.Generator) -> CliffordTableau:
    """Uniform over the Clifford group modulo global phase.

    Peels off one uniformly random hyperbolic pair (image of X_j, image of
    Z_j) per qubit, restricting to the symplectic complement each time, then
    assigns uniform signs.  Each step is uniform over the pairs the remaining
    space admits, which by the orbit-stabilizer argument makes the symplectic
    matrix uniform.

    Vectors are packed as x | z << n.  With v's halves swapped once, the
    pairing of a basis vector with v is one AND and a popcount, so a step
    costs O(n) big-int operations.  The projected basis spans two dimensions
    fewer; the two vectors dropped are those a greedy elimination in basis
    order would drop: the echelon tops of span(c, d), where c and d are the
    coefficient vectors of v and w.

    Coins.  Step j's v and w windows and the 2n signs are read from
    _coin_windows(n, rng, 1), whose docstring states the order, the retries
    and the blocking; random_cliffords reads the same scan.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    coins, starts = _coin_windows(n, rng, 1)
    coins, starts = memoryview(coins), starts[0].tolist()

    def picked(k: int, m: int):  # the indices of the 1s in window k, of m coins
        return compress(range(m), coins[starts[k] : starts[k] + m])

    low = (1 << n) - 1
    basis = [1 << i for i in range(2 * n)]
    rows = [0] * (2 * n)
    for j in range(n):
        m2 = len(basis)
        c, v = _combine(basis, picked(2 * j, m2))
        v_swapped = v >> n | (v & low) << n
        pairs_v = [(b & v_swapped).bit_count() & 1 for b in basis]
        d, w = _combine(basis, picked(2 * j + 1, m2))
        if not (w & v_swapped).bit_count() & 1:
            i0 = pairs_v.index(1)  # w = u + w0, w0 the first basis vector pairing with v
            d, w = d ^ 1 << i0, w ^ basis[i0]
        w_swapped = w >> n | (w & low) << n
        basis = [
            b ^ (v if (b & w_swapped).bit_count() & 1 else 0) ^ (w if pair else 0)
            for b, pair in zip(basis, pairs_v)
        ]
        hi, lo = c.bit_length() - 1, d.bit_length() - 1
        if hi == lo:
            lo = (c ^ d).bit_length() - 1
        del basis[max(hi, lo)], basis[min(hi, lo)]
        rows[j], rows[n + j] = v, w
    cols = _transpose(rows, 2 * n)
    sign = sum(1 << i for i in picked(2 * n, 2 * n))
    return CliffordTableau(n, cols[:n], cols[n:], 0, sign)


def random_cliffords(n: int, rng: np.random.Generator, count: int) -> CliffordTableau:
    """count random_clifford draws as one batch: a tableau of (count,) int64 columns.

    The draws, and the generator state after them, are those of count
    random_clifford(n, rng) calls in turn.  Which coins a draw reads
    depends on the coins alone, so one scan finds every window of every
    draw (_coin_windows), and each step of the elimination is then one pass
    over the whole batch, each entry with its own coins.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_batch_width(n)
    coins, starts = _coin_windows(n, rng, count)
    entries = np.arange(count)
    basis = np.tile(1 << np.arange(2 * n, dtype=np.int64), (count, 1))
    rows = np.empty((count, 2 * n), dtype=np.int64)

    def swapped(v):
        return v >> n | (v & (1 << n) - 1) << n

    def pairing(v):  # basis vector i against the vector v of each entry
        return (np.bitwise_count(basis & swapped(v)[:, None]) & 1).astype(bool)

    for j in range(n):
        m2 = 2 * (n - j)
        c = coins[starts[:, 2 * j, None] + np.arange(m2)].astype(bool)
        d = coins[starts[:, 2 * j + 1, None] + np.arange(m2)].astype(bool)
        v = np.bitwise_xor.reduce(np.where(c, basis, 0), axis=1)
        w = np.bitwise_xor.reduce(np.where(d, basis, 0), axis=1)
        pairs_v = pairing(v)
        fix = np.flatnonzero(~(np.bitwise_count(w & swapped(v)) & 1).astype(bool))
        i0 = pairs_v[fix].argmax(axis=1)  # w = u + w0, w0 the first basis vector pairing with v
        d[fix, i0] ^= True
        w[fix] ^= basis[fix, i0]
        basis ^= np.where(pairing(w), v[:, None], 0) ^ np.where(pairs_v, w[:, None], 0)
        # the highest picked index of c and d, or of c ^ d where they agree
        hi = m2 - 1 - c[:, ::-1].argmax(axis=1)
        lo = m2 - 1 - d[:, ::-1].argmax(axis=1)
        same = np.flatnonzero(hi == lo)
        lo[same] = m2 - 1 - (c[same] ^ d[same])[:, ::-1].argmax(axis=1)
        keep = np.ones((count, m2), dtype=bool)
        keep[entries, hi] = keep[entries, lo] = False
        basis = basis[keep].reshape(count, m2 - 2)
        rows[:, j], rows[:, n + j] = v, w
    # column q holds bit q of every row
    weights = 1 << np.arange(2 * n, dtype=np.int64)
    cols = ((rows[:, :, None] >> np.arange(2 * n) & 1) * weights[:, None]).sum(axis=1).T.copy()
    sign = (coins[starts[:, 2 * n, None] + np.arange(2 * n)] * weights).sum(axis=1)
    return CliffordTableau(n, list(cols[:n]), list(cols[n:]), np.zeros(count, dtype=np.int64), sign)


def _coin_windows(n: int, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(coins, starts): the coins of count random_clifford draws, as uint8,
    and where each draw's windows start, one row per draw: per step its v
    and w windows, then its 2n signs.  random_clifford (count 1) and
    random_cliffords read the generator only through this scan.

    Step j of a draw reads 2n - 2j coins for v, again while they are all 0,
    then as many for w; the 2n sign coins come last.  They are the coins of
    rng.integers(0, 2, size=m) calls, one per read, in that order (the
    greedy `random_clifford` in tests/oracles.py); the coins are
    default-dtype integers(0, 2), and a uint8 dtype draws another stream.
    Such calls join end to end, so the scan draws one stream: the planned
    2n(n + 2) coins per draw in blocks of at most _COIN_BLOCK, past them
    only the coins a window lacks.  A window needs at most 2m coins past its
    start (its own m and the next m, which a retry or the w window reads),
    so no coin is drawn that no window reads, and the draws and the
    generator state after them are those of the per-read calls.  A draw
    takes 2n(n + 2) coins, plus 2n - 2j for each retry at step j.
    """
    coins = bytearray()
    planned = 2 * n * (n + 2) * count
    starts = []
    pos = 0

    def fill(end: int) -> None:  # hold the coins before end
        nonlocal planned
        if end > len(coins):
            size = max(end - len(coins), min(planned, _COIN_BLOCK))
            planned -= size
            coins.extend(rng.integers(0, 2, size=size).astype(np.uint8).tobytes())

    for _ in range(count):
        for m in range(2 * n, 0, -2):
            fill(pos + 2 * m)
            while coins.find(1, pos, pos + m) < 0:  # all 0: read the v window again
                pos += m
                fill(pos + 2 * m)
            starts += (pos, pos + m)
            pos += 2 * m
        fill(pos + 2 * n)
        starts.append(pos)
        pos += 2 * n
    return np.frombuffer(coins, dtype=np.uint8), np.array(starts, dtype=np.intp).reshape(count, 2 * n + 1)


def _combine(basis: list[int], picked: Iterable[int]) -> tuple[int, int]:
    """The picked indices as a bitset, and the XOR of the basis vectors there."""
    c = v = 0
    for i in picked:
        c |= 1 << i
        v ^= basis[i]
    return c, v


def clifford_generators(n: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The gates enumerate_clifford_words closes over, in its order: H and S
    on each wire, then CNOT in both orientations."""
    gates = [(name, (q,)) for q in range(n) for name in ("H", "S")]
    return tuple(gates + [("CNOT", (c, t)) for c in range(n) for t in range(n) if c != t])


def enumerate_clifford_words(n: int):
    """Shortest gate words for every Clifford class modulo phase (n <= 2),
    and how each BFS level extends the one before it.

    BFS closure over clifford_generators(n), dedup by tableau.  24 classes at
    n=1, 11520 at n=2; larger n is refused because the class count grows past
    9e7 already at n=3.

    The BFS runs one level at a time.  The frontier is one array of packed
    tableau keys (_pack), and each gate is one CliffordTableau.apply to all
    of it, on numpy columns.  The children are keyed in frontier-major,
    gate-minor order and only the first occurrence of an unseen key is kept,
    so the words are those of a search that extends one tableau by one gate
    at a time, in the same order.

    Returns (words, levels): levels holds one (parent, gate) pair of int
    arrays per level past the empty word, and the level's words, in order,
    are words[parent[i]] extended by clifford_generators(n)[gate[i]].
    """
    if n > 2:
        raise CapabilityError(f"Clifford class enumeration at n={n} is out of reach")
    gates = clifford_generators(n)
    suffixes = [(gate,) for gate in gates]
    frontier = np.array([_pack(CliffordTableau.identity(n))])
    seen = frontier  # every key found so far, sorted
    words: list[tuple[tuple[str, tuple[int, ...]], ...]] = [()]
    by_level = []
    base = 0  # the index of the frontier's first word
    while len(frontier):
        children = []
        for generator in gates:
            child = _unpack(frontier, n)  # fresh columns: apply updates them in place
            child.apply(*generator)
            children.append(_pack(child))
        keys = np.stack(children, axis=1).ravel()
        # one sort finds the first occurrence of each unseen key: every key
        # carries its position + 1 in the low bits and every seen key a 0,
        # so a run of equal keys starts at the seen one, if any, else at the
        # key's first occurrence
        shift = len(keys).bit_length()
        tagged = np.sort(np.concatenate([seen << shift, keys << shift | np.arange(1, len(keys) + 1)]))
        value = tagged >> shift
        lead = np.ones(len(tagged), dtype=bool)
        np.not_equal(value[1:], value[:-1], out=lead[1:])
        seen = value[lead]
        first = tagged[lead] & ((1 << shift) - 1)
        first = np.sort(first[first > 0]) - 1
        frontier = keys[first]
        parent, gate = np.divmod(first, len(gates))
        parent += base
        base = len(words)
        words += [words[p] + suffixes[g] for p, g in zip(parent.tolist(), gate.tolist())]
        by_level.append((parent, gate))
    return words, by_level


def _pack(t: CliffordTableau):
    """The sign and the 2n columns of a tableau with no odd rows, 2n bits
    each, as one integer: at n=2 a 20-bit key.  Works on int and on numpy
    int columns alike."""
    rows = 2 * t.n
    key = t.sign
    for i, col in enumerate((*t.xcol, *t.zcol), start=1):
        key = key | col << rows * i
    return key


def _unpack(keys: np.ndarray, n: int) -> CliffordTableau:
    """The tableaux of an array of _pack keys, as one tableau of numpy columns."""
    rows = 2 * n
    low = (1 << rows) - 1
    cols = [keys >> rows * i & low for i in range(1, 2 * n + 1)]
    return CliffordTableau(n, cols[:n], cols[n:], 0, keys & low)
