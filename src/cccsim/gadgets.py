"""Postselection gadgets: contraction, classification, search, word compiler.

A k-to-l gadget runs on k wires.  Wires 0..l-1 carry the input; wires
l..k-1 are ancillas that enter as |a_i> and pass through U (fresh inputs are
conjugated in this model).  After the Clifford circuit, each wire in the
postselect set gets U-dagger and is projected onto <b_i|; the surviving
wires, in ascending order, carry the output.  The postselect set may include
input wires (gadget I does exactly that), so ancilla and postselect roles
are independent.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapabilityError, ParseError
from .stabilizer import CliffordCircuit, enumerate_clifford_words, parse_circuit

GADGET_WIRE_CAP = 12
WORD_LENGTH_CAP = 14
DEFAULT_BEAM_WIDTH = 5000


@dataclass(frozen=True, eq=False)
class Gadget:
    k: int
    l: int
    u: np.ndarray
    ancilla_bits: tuple[int, ...]
    gamma: CliffordCircuit
    postselect_set: tuple[int, ...]
    postselect_bits: tuple[int, ...]

    def __post_init__(self):
        if not 0 < self.l < self.k:
            raise ValueError("need 0 < l < k")
        if self.gamma.n != self.k:
            raise ValueError("Clifford circuit width must equal k")
        if len(self.ancilla_bits) != self.k - self.l:
            raise ValueError("need one ancilla bit per ancilla wire")
        s = self.postselect_set
        if len(s) != self.k - self.l or len(set(s)) != len(s):
            raise ValueError("postselect set must be k-l distinct wires")
        if any(w < 0 or w >= self.k for w in s):
            raise ValueError("postselect wire out of range")
        if len(self.postselect_bits) != self.k - self.l:
            raise ValueError("need one bit per postselected wire")

    @property
    def ancilla_wires(self) -> tuple[int, ...]:
        return tuple(range(self.l, self.k))

    @property
    def output_wires(self) -> tuple[int, ...]:
        return tuple(w for w in range(self.k) if w not in self.postselect_set)

    @property
    def postselects_only_ancillas(self) -> bool:
        return set(self.postselect_set) <= set(self.ancilla_wires)


@dataclass(frozen=True, eq=False)
class GadgetAction:
    matrix: np.ndarray
    gamma: float | None
    is_unitary: bool
    is_clifford: bool


def gadget_action(g: Gadget) -> GadgetAction:
    """Contract the gadget fragment exactly and classify the result.

    All 2**l inputs are contracted at once, as the columns of one
    (2**k, 2**l) block.
    """
    if g.k > GADGET_WIRE_CAP:
        raise CapabilityError(
            f"gadget contraction on {g.k} wires exceeds the cap of {GADGET_WIRE_CAP}"
        )
    linalg.check_dense_cap(g.k)
    # input i and the ancilla bits make basis state i << (k-l) | anc: column i
    dim = 2**g.l
    anc = sum(b << (g.k - 1 - w) for w, b in zip(g.ancilla_wires, g.ancilla_bits))
    state = np.zeros((2**g.k, dim), dtype=complex)
    state[np.arange(dim) << (g.k - g.l) | anc, np.arange(dim)] = 1.0
    for w in g.ancilla_wires:
        state = linalg.apply_gate(state, g.u, (w,))
    state = g.gamma.apply(state)
    ud = g.u.conj().T
    for w in g.postselect_set:
        state = linalg.apply_gate(state, ud, (w,))
    tensor = state.reshape((2,) * g.k + (dim,))
    for w, b in sorted(zip(g.postselect_set, g.postselect_bits), reverse=True):
        tensor = np.take(tensor, b, axis=w)
    a = tensor.reshape(dim, dim)
    unitary = bool(linalg.is_unitary_up_to_scale(a))
    gamma = float(linalg.unitary_scale(a)) if unitary else None
    return GadgetAction(a, gamma, unitary, bool(linalg.is_clifford(a)))


def build_gadget_I(phi: float, theta: float, u: np.ndarray | None = None) -> Gadget:
    """Two-wire gadget: CZ, with the input wire postselected after U-dagger.

    The ancilla wire survives as the output.  Angles fix U = Rz(phi)Rx(theta)
    unless an explicit U (with those Euler angles) is supplied.
    """
    if u is None:
        u = linalg.rz(phi) @ linalg.rx(theta)
    gamma = CliffordCircuit.build(2, [("CZ", (0, 1))])
    return Gadget(2, 1, np.asarray(u, dtype=complex), (0,), gamma, (0,), (0,))


def build_gadget_J(phi: float, theta: float, u: np.ndarray | None = None) -> Gadget:
    """Two-wire gadget: S then CZ on the ancilla, postselected on the ancilla.

    The input wire passes straight through as the output.
    """
    if u is None:
        u = linalg.rz(phi) @ linalg.rx(theta)
    gamma = CliffordCircuit.build(2, [("S", (1,)), ("CZ", (0, 1))])
    return Gadget(2, 1, np.asarray(u, dtype=complex), (0,), gamma, (1,), (0,))


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
    """The contraction of the J gadget; phi drops out entirely."""
    c = math.cos(theta)
    return (
        np.exp(-0.25j * math.pi)
        / math.sqrt(2)
        * np.array([[1j + c, 0], [0, 1 + 1j * c]], dtype=complex)
    )


# -- brute-force search over two-wire gadgets ---------------------------------

_SEARCH_KEY_DECIMALS = 8


def _phase_canonical_keys(stack: np.ndarray) -> list[bytes]:
    """One hashable key per matrix of an (N, d, d) stack, equal up to phase.

    Each matrix is rotated so its first entry above 1e-6 in modulus is real
    positive, then rounded.  Rounding a tiny negative part gives -0.0, whose
    bytes differ from those of 0.0; `+ 0.0` turns it into 0.0.
    """
    flat = stack.reshape(len(stack), stack.shape[-2] * stack.shape[-1])
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-6, axis=1)]
    canon = np.round(flat * (lead.conj() / np.abs(lead))[:, None], _SEARCH_KEY_DECIMALS) + 0.0
    return [row.tobytes() for row in canon]


@functools.cache
def _clifford_table() -> tuple[tuple, np.ndarray]:
    """The words of `enumerate_clifford_words(2)`, in order, and their 4x4
    unitaries as one read-only (11520, 4, 4) stack.

    Every word past the first extends an earlier one by one gate (the
    enumeration is breadth-first), so each product is that gate times its
    prefix's product: the same products, in the same order, as multiplying
    each word out gate by gate.  Built on the first search, then shared.
    """
    words = tuple(enumerate_clifford_words(2))
    eye = np.eye(4, dtype=complex)
    full = {
        gate: linalg.apply_gate(eye, linalg.GATES[gate[0]], gate[1])
        for gate in {gate for word in words for gate in word}
    }
    index = {word: idx for idx, word in enumerate(words)}
    mats = np.empty((len(words), 4, 4), dtype=complex)
    mats[0] = eye
    for idx, word in enumerate(words[1:], start=1):
        mats[idx] = full[word[-1]] @ mats[index[word[:-1]]]
    mats.setflags(write=False)
    return words, mats


def search_gadgets(u: np.ndarray, k: int) -> list[tuple[Gadget, GadgetAction]]:
    """All 2-to-1 gadget classes over U whose action is unitary non-Clifford.

    Enumerates every Clifford class modulo phase (11520 at k=2), every
    ancilla bit, postselect wire and postselect bit.  The classes' words and
    4x4 unitaries do not depend on U: they are built once per process, on
    the first search, and every search after that only sandwiches them
    between U and U-dagger.  Each of the 8 slices of 11520 actions is
    classified in one batched pass: the Clifford test runs on the unitary
    actions only.  The survivors are deduplicated by their action up to
    scale and global phase before any Gadget is built; the first one found
    represents its class.  Results are sorted by canonical key, so the
    order is stable across runs.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not linalg.is_unitary(u, 1e-8):
        raise ValueError("U must be a 2x2 unitary")
    if k < 2:
        raise ValueError("a gadget needs at least two wires")
    if k == 3:
        raise CapabilityError(
            "k=3 search needs all 92,897,280 three-wire Clifford classes; "
            "that enumeration is out of desk-scale reach"
        )
    if k > 3:
        raise ValueError("search is specified for k of 2 or 3 only")

    words, mats = _clifford_table()
    eye = np.eye(4, dtype=complex)
    ud = u.conj().T
    results: dict[bytes, tuple[Gadget, GadgetAction]] = {}
    right = linalg.apply_gate(eye, u, (1,))  # U feeds the ancilla wire (wire 1)
    for post_wire in (0, 1):
        left = linalg.apply_gate(eye, ud, (post_wire,))
        w = left @ mats @ right
        for a_bit in (0, 1):
            cols = [a_bit, 2 + a_bit]  # input wire 0 = i, wire 1 = a
            for b_bit in (0, 1):
                if post_wire == 0:
                    rows = [2 * b_bit, 2 * b_bit + 1]
                else:
                    rows = [b_bit, 2 + b_bit]
                actions = w[:, rows][:, :, cols]
                unitary = np.flatnonzero(linalg.is_unitary_up_to_scale(actions))
                keep = unitary[~linalg.is_clifford(actions[unitary])]
                gammas = linalg.unitary_scale(actions[keep])
                keys = _phase_canonical_keys(actions[keep] / np.sqrt(gammas)[:, None, None])
                for idx, gamma, key in zip(keep, gammas, keys):
                    if key in results:
                        continue
                    gadget = Gadget(
                        2,
                        1,
                        u,
                        (a_bit,),
                        CliffordCircuit(2, words[idx]),
                        (post_wire,),
                        (b_bit,),
                    )
                    results[key] = (gadget, GadgetAction(actions[idx], float(gamma), True, False))
    return [results[key] for key in sorted(results)]


# -- bounded-budget word search (stand-in for a real compiler) -----------------


def compile_word(
    target: np.ndarray,
    generators: list[np.ndarray],
    max_length: int,
    beam_width: int = DEFAULT_BEAM_WIDTH,
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
        if g.shape != (2, 2) or not linalg.is_unitary(g, 1e-8):
            raise ValueError("target and generators must be 2x2 unitaries")
    if max_length > WORD_LENGTH_CAP:
        raise CapabilityError(
            f"word budget {max_length} exceeds the cap of {WORD_LENGTH_CAP}"
        )

    best_word: tuple[int, ...] = ()
    best_dist = float(linalg.phase_invariant_distance(np.eye(2), target))
    beam: list[tuple[np.ndarray, tuple[int, ...]]] = [(np.eye(2, dtype=complex), ())]
    seen = set(_phase_canonical_keys(np.eye(2, dtype=complex)[None]))
    for _ in range(max_length):
        expanded = [(g @ m, word + (gi,)) for m, word in beam for gi, g in enumerate(gens)]
        candidates: list[tuple[np.ndarray, tuple[int, ...]]] = []
        for cand, key in zip(expanded, _phase_canonical_keys(np.stack([m for m, _ in expanded]))):
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


# -- gadget description files ---------------------------------------------------


def parse_gadget_file(text: str, u: np.ndarray) -> Gadget:
    """Parse the gadget description format.

    Header `gadget k=K l=L`, one `ancilla B...` line giving the ancilla bits
    in wire order, one `post wire=W bit=B` line per postselected wire, then
    the Clifford circuit in the shared text format.
    """
    lines = text.splitlines()
    header = None
    ancilla: tuple[int, ...] | None = None
    posts: list[tuple[int, int]] = []
    consumed = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        consumed = lineno
        if not line:
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "gadget":
                raise ParseError(f"line {lineno}: expected 'gadget k=K l=L' header")
            header = _parse_kv(fields[1:], ("k", "l"), lineno)
            continue
        if fields[0] == "ancilla":
            try:
                ancilla = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad ancilla bits") from None
            if set(ancilla) - {0, 1}:
                raise ParseError(f"line {lineno}: ancilla bits must be 0/1")
            continue
        if fields[0] == "post":
            kv = _parse_kv(fields[1:], ("wire", "bit"), lineno)
            posts.append((kv["wire"], kv["bit"]))
            continue
        if fields[0] == "qubits":
            consumed = lineno - 1
            break
        raise ParseError(f"line {lineno}: unexpected {fields[0]!r} in gadget file")
    if header is None:
        raise ParseError("missing 'gadget' header")
    if ancilla is None:
        raise ParseError("missing 'ancilla' line")
    if not posts:
        raise ParseError("missing 'post' lines")
    circuit = parse_circuit("\n".join(lines[consumed:]))
    if circuit.n != header["k"]:
        raise ParseError(
            f"circuit is on {circuit.n} qubits but the gadget declares k={header['k']}"
        )
    try:
        return Gadget(
            header["k"],
            header["l"],
            np.asarray(u, dtype=complex),
            ancilla,
            circuit,
            tuple(w for w, _ in posts),
            tuple(b for _, b in posts),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_kv(fields: list[str], keys: tuple[str, ...], lineno: int) -> dict[str, int]:
    out: dict[str, int] = {}
    for f in fields:
        key, _, val = f.partition("=")
        if key not in keys or not val:
            raise ParseError(f"line {lineno}: expected {'/'.join(keys)} assignments")
        try:
            out[key] = int(val)
        except ValueError:
            raise ParseError(f"line {lineno}: bad integer in {f!r}") from None
    if set(out) != set(keys):
        raise ParseError(f"line {lineno}: need all of {', '.join(keys)}")
    return out
