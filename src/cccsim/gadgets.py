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
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapabilityError, ParseError
from .stabilizer import CliffordCircuit, clifford_generators, enumerate_clifford_words, parse_circuit

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
    (2**k, 2**l) block.  Gamma is applied gate by gate, keeping the global
    phase its gates give it: its canonical form (apply_canonical_forms) would
    shift 5,220 of the 11,520 two-qubit classes by e^{ik pi/4}, k != 0.
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
    for name, qubits in g.gamma.gates:
        state = linalg.apply_gate(state, linalg.GATES[name], qubits)
    ud = g.u.conj().T
    for w in g.postselect_set:
        state = linalg.apply_gate(state, ud, (w,))
    tensor = state.reshape((2,) * g.k + (dim,))
    for w, b in sorted(zip(g.postselect_set, g.postselect_bits), reverse=True):
        tensor = np.take(tensor, b, axis=w)
    a = tensor.reshape(dim, dim)
    unitary, gamma = linalg.unitary_scale(a)
    if not unitary:
        return GadgetAction(a, None, False, False)
    return GadgetAction(a, float(gamma), True, bool(linalg.is_clifford(a, gamma=gamma)))


def build_gadget_I(phi: float, theta: float) -> Gadget:
    """Two-wire gadget over U = Rz(phi)Rx(theta): CZ, with the input wire
    postselected after U-dagger.  The ancilla wire survives as the output.
    """
    gamma = CliffordCircuit.build(2, [("CZ", (0, 1))])
    return Gadget(2, 1, linalg.rz(phi) @ linalg.rx(theta), (0,), gamma, (0,), (0,))


def build_gadget_J(phi: float, theta: float) -> Gadget:
    """Two-wire gadget over U = Rz(phi)Rx(theta): S then CZ on the ancilla,
    postselected on the ancilla.  The input wire passes straight through as
    the output.
    """
    gamma = CliffordCircuit.build(2, [("S", (1,)), ("CZ", (0, 1))])
    return Gadget(2, 1, linalg.rz(phi) @ linalg.rx(theta), (0,), gamma, (1,), (0,))


# -- brute-force search over two-wire gadgets ---------------------------------

_SEARCH_KEY_DECIMALS = 8


def _phase_canonical_keys(stack: np.ndarray) -> list[bytes]:
    """One hashable key per matrix of an (N, d, d) stack, equal up to phase.

    Each matrix is rotated so its first entry above 1e-6 in modulus is real
    positive, then rounded.  Rounding a tiny negative part gives -0.0, whose
    bytes differ from those of 0.0; `+ 0.0` turns it into 0.0.  Each key is
    its matrix's row of bytes, read as one void scalar.
    """
    flat = stack.reshape(len(stack), stack.shape[-2] * stack.shape[-1])
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-6, axis=1)]
    canon = np.round(flat * (lead.conj() / np.abs(lead))[:, None], _SEARCH_KEY_DECIMALS) + 0.0
    return canon.view(np.dtype((np.void, canon.itemsize * canon.shape[1]))).ravel().tolist()


@functools.cache
def _clifford_table() -> tuple[tuple, np.ndarray]:
    """The words of `enumerate_clifford_words(2)`, in order, and their 4x4
    unitaries as one read-only (11520, 4, 4) stack.

    Every word past the first extends a word of the BFS level before it by
    one gate, so each level's products are one stacked matmul of those
    gates with their prefixes' products: the same products, in the same
    order, as multiplying each word out gate by gate.  Built on the first
    search, then shared.
    """
    words, levels = enumerate_clifford_words(2)
    eye = np.eye(4, dtype=complex)
    full = np.array([linalg.apply_gate(eye, linalg.GATES[name], qs) for name, qs in clifford_generators(2)])
    mats = np.empty((len(words), 4, 4), dtype=complex)
    mats[0] = eye
    start = 1
    for parent, gate in levels:
        stop = start + len(parent)
        np.matmul(full[gate], mats[parent], out=mats[start:stop])
        start = stop
    mats.setflags(write=False)
    return tuple(words), mats


class GadgetClasses(Sequence):
    """The classes of one search, in key order.  Each (Gadget, GadgetAction)
    pair is built when it is read, so a caller that reads three of 1152
    classes builds three."""

    def __init__(self, u, words, rows, matrices, gammas):
        self._u, self._words = u, words
        self._rows = rows.tolist()  # (word index, ancilla bit, postselect bit) per class
        self._matrices, self._gammas = matrices, gammas.tolist()
        matrices.setflags(write=False)  # every read of a class shares its matrix

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        picked = range(len(self._rows))[i]
        if isinstance(picked, range):
            return [self[j] for j in picked]
        idx, a_bit, b_bit = self._rows[picked]
        gadget = Gadget(2, 1, self._u, (a_bit,), CliffordCircuit(2, self._words[idx]), (0,), (b_bit,))
        return gadget, GadgetAction(self._matrices[picked], self._gammas[picked], True, False)


def search_gadgets(u: np.ndarray, k: int) -> GadgetClasses:
    """All 2-to-1 gadget classes over U whose action is unitary non-Clifford.

    Enumerates every Clifford class modulo phase (11520 at k=2), every
    ancilla bit and postselect bit, postselecting wire 0.  Postselecting
    wire 1 after Gamma gives the action of postselecting wire 0 after
    SWAP Gamma, another class of the table, so wire 1 adds no class.  The
    classes' words and 4x4 unitaries do not depend on U: they are built
    once per process, on the first search, and every search after that
    only sandwiches them between U and U-dagger.  Each of the 4 slices
    (ancilla bit, postselect bit) is bilinear in the table,
    A = L[rows] M R[:, cols], so one (4, 16) @ (16, 11520) product gives
    its 11520 actions as a (2, 2, 11520) block, whose four entries are
    contiguous (11520,) rows.  The predicates read them entry by entry:
    unitarity and scale once, then the Pauli-image test on the unitary
    actions with their scale, whose square root also normalizes the keys.
    The first (slice, index) found for each key, up to scale and global
    phase, represents its class.  Classes are sorted by canonical key, so
    the order is stable across runs, and returned as a GadgetClasses whose
    length is the class count.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not linalg.is_unitary(u, linalg.GATE_UNITARY_TOL):
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
    table = mats.reshape(len(mats), 16).T  # column i is word i's unitary, row-major
    eye = np.eye(4, dtype=complex)
    left = linalg.apply_gate(eye, u.conj().T, (0,))  # U-dagger on the postselected wire 0
    right = linalg.apply_gate(eye, u, (1,))  # U feeds the ancilla wire (wire 1)
    rows, picked, gammas, first, start = [], [], [], {}, 0
    for a_bit, b_bit in itertools.product((0, 1), repeat=2):
        out_rows = [2 * b_bit, 2 * b_bit + 1]  # wire 0 = b, wire 1 = output
        cols = [a_bit, 2 + a_bit]  # input wire 0 = i, wire 1 = a
        actions = (np.kron(left[out_rows], right[:, cols].T) @ table).reshape(2, 2, len(mats))
        unitary, gamma = linalg.unitary_scale(np.moveaxis(actions, -1, 0))
        unitary = np.flatnonzero(unitary)
        clifford = linalg.is_clifford(np.moveaxis(actions[:, :, unitary], -1, 0), gamma=gamma[unitary])
        keep = unitary[~clifford]
        rows.append(np.column_stack([keep, np.full((len(keep), 2), (a_bit, b_bit))]))
        picked.append(np.moveaxis(actions[:, :, keep], -1, 0))
        gammas.append(gamma[keep])
        keys = _phase_canonical_keys(picked[-1] / np.sqrt(gammas[-1])[:, None, None])
        # each key's first position: the slice's dict is filled last to
        # first, and in the union the earlier slices' entries win
        first = dict(zip(reversed(keys), range(start + len(keys) - 1, start - 1, -1))) | first
        start += len(keys)
    rows, picked, gammas = np.concatenate(rows), np.concatenate(picked), np.concatenate(gammas)
    order = [first[key] for key in sorted(first)]
    return GadgetClasses(u, words, rows[order], picked[order], gammas[order])


# -- bounded-budget word search (stand-in for a real compiler) -----------------


def compile_word(
    target: np.ndarray,
    generators: list[np.ndarray],
    max_length: int,
    beam_width: int = DEFAULT_BEAM_WIDTH,
) -> tuple[tuple[int, ...], float]:
    """Best inverse-free word over the generators within the length budget.

    Breadth-first with beam pruning by distance to the target; deduplication
    is up to global phase.  The beam is one (B, 2, 2) stack, expanded by one
    linalg.product_2x2 per level (child i is generator i % G after beam entry
    i // G) and kept in stable distance order.  Words are not carried: each
    level keeps its survivors' child indices, and the best word is read back
    through them once, at the end.  Because expansion is deterministic and
    pruning depends only on the level, a longer budget explores a superset
    of a shorter one, so the returned distance is monotone in max_length.
    """
    if not generators:
        raise ValueError("need at least one generator")
    target = np.asarray(target, dtype=complex)
    gens = [np.asarray(g, dtype=complex) for g in generators]
    for g in [target, *gens]:
        if g.shape != (2, 2) or not linalg.is_unitary(g, linalg.GATE_UNITARY_TOL):
            raise ValueError("target and generators must be 2x2 unitaries")
    if max_length > WORD_LENGTH_CAP:
        raise CapabilityError(
            f"word budget {max_length} exceeds the cap of {WORD_LENGTH_CAP}"
        )

    stack, count = np.stack(gens), len(gens)
    beam = np.eye(2, dtype=complex)[None]
    best_dist = float(linalg.phase_invariant_distance_batch(beam, target)[0])
    best = None  # (level, child index) of the best word, if it is not the empty one
    links = []  # per level, the child index of each beam entry
    seen = set(_phase_canonical_keys(beam))
    for level in range(max_length):
        expanded = linalg.product_2x2(stack, beam[:, None]).reshape(-1, 2, 2)
        # the first child of each key not seen before (set.add returns None)
        keys = _phase_canonical_keys(expanded)
        keep = np.array([i for i, key in enumerate(keys) if key not in seen and not seen.add(key)], np.intp)
        if not keep.size:
            break
        children = expanded[keep]
        dists = linalg.phase_invariant_distance_batch(children, target)
        # in child order, each child that beats the best so far by 1e-12 replaces it
        hits = np.flatnonzero(dists < best_dist - 1e-12)
        while hits.size:
            i = hits[0]
            best_dist, best = float(dists[i]), (level, int(keep[i]))
            hits = i + 1 + np.flatnonzero(dists[i + 1 :] < best_dist - 1e-12)
        order = np.argsort(dists, kind="stable")[:beam_width]
        beam = children[order]
        links.append(keep[order])
    if best is None:
        return (), best_dist
    level, child = best
    word = [child % count]
    for link in reversed(links[:level]):
        child = int(link[child // count])
        word.append(child % count)
    return tuple(reversed(word)), best_dist


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
            if ancilla is not None:
                raise ParseError(f"line {lineno}: repeated 'ancilla' line")
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
    # the consumed lines stay as blank ones, so a circuit error names the file's line
    circuit = parse_circuit("\n" * consumed + "\n".join(lines[consumed:]))
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
        if key in out:
            raise ParseError(f"line {lineno}: repeated key {key!r}")
        try:
            out[key] = int(val)
        except ValueError:
            raise ParseError(f"line {lineno}: bad integer in {f!r}") from None
    if set(out) != set(keys):
        raise ParseError(f"line {lineno}: need all of {', '.join(keys)}")
    return out
