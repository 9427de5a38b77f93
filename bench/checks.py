"""Reference computations the benchmark checks cccsim's outputs against.

Nothing here imports cccsim.  Each check takes a command's parsed JSON
output (plus what the benchmark itself knows about the input) and returns a
list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

SQ2 = 1.0 / math.sqrt(2.0)
H = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)
S = np.diag([1.0, 1j])
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0 + 0j, -1.0])
PAULIS = (np.eye(2, dtype=complex), X, Y, Z)


def rz(t: float) -> np.ndarray:
    return np.diag([cmath.exp(-0.5j * t), cmath.exp(0.5j * t)])


def rx(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def j_gadget(theta: float) -> np.ndarray:
    """Action of the J gadget, derived by hand.

    Input |b> on wire 0, ancilla U|0> on wire 1, then S on the ancilla, CZ,
    U-dagger and <0| on the ancilla: the action is diag(<0|U+ S U|0>,
    <0|U+ Z S U|0>).  Rz(phi) commutes with S and Z, so with
    c, s = cos(theta/2), sin(theta/2) it is diag(c^2 + i s^2, c^2 - i s^2).
    """
    c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    return np.diag([c2 + 1j * s2, c2 - 1j * s2])


# -- circuits as text ------------------------------------------------------------


def random_word(n: int, length: int, rng: np.random.Generator) -> list[tuple]:
    """A uniformly mixed H/S/CNOT word on n qubits."""
    gates = []
    for kind, a, b in zip(
        rng.integers(0, 3, size=length),
        rng.integers(0, n, size=length),
        rng.integers(1, n, size=length),
    ):
        a = int(a)
        if kind == 0:
            gates.append(("H", a))
        elif kind == 1:
            gates.append(("S", a))
        else:
            gates.append(("CNOT", a, (a + int(b)) % n))
    return gates


def conjugated_word(n: int, length: int, core: int, rng: np.random.Generator) -> list[tuple]:
    """W, then a `core`-gate word M, then W^-1 (S^-1 written as S S S).

    A uniformly mixed word alone leaves almost no bit of the model's output
    determined; conjugating a short core keeps about half of them fixed
    parities, so checks on single shots have teeth.  W is sized so that the
    whole word has about `length` gates.
    """
    w = random_word(n, 3 * (length - core) // 8, rng)
    inverse = []
    for g in reversed(w):
        inverse += [g] * 3 if g[0] == "S" else [g]
    return w + random_word(n, core, rng) + inverse


def circuit_text(n: int, gates: list[tuple]) -> str:
    return f"qubits {n}\n" + "".join(" ".join(map(str, g)) + "\n" for g in gates)


def parse_text(text: str) -> tuple[int, list[tuple]]:
    """Read back the subset of the circuit format that circuit_text writes."""
    lines = text.split("\n")
    n = int(lines[0].split()[1])
    gates = []
    for line in lines[1:]:
        if line:
            name, *qs = line.split()
            gates.append((name, *map(int, qs)))
    return n, gates


# -- stabilizer side: Z-type stabilizers of U^n+ V U^n |0^n> for Clifford U ----


def _rowsum_phase(xi, zi, xh, zh):
    """Exponent of i picked up by multiplying Pauli rows (Aaronson-Gottesman g)."""
    xi, zi, xh, zh = (a.astype(np.int64) for a in (xi, zi, xh, zh))
    g = (
        xi * zi * (zh - xh)
        + xi * (1 - zi) * zh * (2 * xh - 1)
        + (1 - xi) * zi * xh * (1 - 2 * zh)
    )
    return g.sum(axis=-1)


def z_constraints(text: str, hadamard_frame: bool) -> tuple[np.ndarray, np.ndarray]:
    """Parity constraints every outcome of the state must satisfy.

    Runs the circuit (wrapped in H on every wire when hadamard_frame) on a
    stabilizer-only GF(2) tableau of |0^n>, then eliminates the X part.
    Returns (masks, signs): outcome y is possible iff masks @ y = signs mod 2,
    and the outcomes are uniform over that affine subspace.
    """
    n, gates = parse_text(text)
    x = np.zeros((n, n), dtype=np.uint8)
    z = np.eye(n, dtype=np.uint8)
    r = np.zeros(n, dtype=np.uint8)

    def all_h():
        nonlocal x, z, r
        r ^= (np.bitwise_and(x, z).sum(axis=1) & 1).astype(np.uint8)
        x, z = z, x

    if hadamard_frame:
        all_h()
    for g in gates:
        a = g[1]
        if g[0] == "H":
            r ^= x[:, a] & z[:, a]
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
        elif g[0] == "S":
            r ^= x[:, a] & z[:, a]
            z[:, a] ^= x[:, a]
        else:
            b = g[2]
            r ^= x[:, a] & z[:, b] & (x[:, b] ^ z[:, a] ^ 1)
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
    if hadamard_frame:
        all_h()

    # Gaussian elimination on the X block, carrying signs through rowsum
    row = 0
    for col in range(n):
        hits = np.flatnonzero(x[row:, col]) + row
        if hits.size == 0:
            continue
        p = hits[0]
        x[[row, p]], z[[row, p]], r[[row, p]] = x[[p, row]], z[[p, row]], r[[p, row]]
        targets = np.flatnonzero(x[:, col])
        targets = targets[targets != row]
        if targets.size:
            total = 2 * r[targets].astype(np.int64) + 2 * int(r[row]) + _rowsum_phase(
                x[row][None, :], z[row][None, :], x[targets], z[targets]
            )
            r[targets] = ((total % 4) // 2).astype(np.uint8)
            x[targets] ^= x[row]
            z[targets] ^= z[row]
        row += 1
    return z[row:].copy(), r[row:].copy()


def free_columns(masks: np.ndarray) -> np.ndarray:
    """Columns outside the pivots of the masks' reduced row echelon form.

    Under the uniform distribution on the constraint subspace these bits are
    independent fair coins; the pivot bits are functions of them.
    """
    m = masks.copy() % 2
    n = m.shape[1]
    pivots, row = [], 0
    for col in range(n):
        hits = np.flatnonzero(m[row:, col]) + row
        if hits.size == 0:
            continue
        m[[row, hits[0]]] = m[[hits[0], row]]
        others = np.flatnonzero(m[:, col])
        m[others[others != row]] ^= m[row]
        pivots.append(col)
        row += 1
        if row == m.shape[0]:
            break
    return np.setdiff1d(np.arange(n), pivots)


def as_bits(samples: list[str], n: int) -> np.ndarray:
    if any(len(s) != n or set(s) - {"0", "1"} for s in samples):
        raise ValueError("not a list of n-bit strings")
    return np.array([[c == "1" for c in s] for s in samples], dtype=np.uint8).reshape(-1, n)


def check_shots(out: dict, n: int, masks: np.ndarray, signs: np.ndarray, want: int) -> list[str]:
    """Every shot satisfies every Z-type stabilizer parity."""
    samples = out.get("samples")
    if out.get("n") != n or not isinstance(samples, list) or len(samples) != want:
        return [f"expected {want} samples on n={n}, got n={out.get('n')}"]
    try:
        bits = as_bits(samples, n)
    except ValueError as exc:
        return [str(exc)]
    bad = ((bits.astype(np.int64) @ masks.T.astype(np.int64) + signs) % 2).any(axis=1)
    return [f"shot {i} violates a stabilizer parity" for i in np.flatnonzero(bad)]


def check_free_bits(bits: np.ndarray, free: np.ndarray) -> list[str]:
    """The pooled fraction of ones over the free bits is 1/2 within 6 sigma."""
    trials = bits.shape[0] * free.size
    if trials == 0:
        return []
    frac = float(bits[:, free].mean())
    tol = 6 * 0.5 / math.sqrt(trials)
    if abs(frac - 0.5) > tol:
        return [f"free bits come out 1 with frequency {frac:.4f}, not 1/2 +- {tol:.4f}"]
    return []


# -- dense side ------------------------------------------------------------------


def statevector_probs(text: str, u: np.ndarray) -> np.ndarray:
    """|<y| U+^n V U^n |0^n>|^2 by direct slicing of a 2^n statevector."""
    n, gates = parse_text(text)
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0

    def one(psi, g, q):
        view = psi.reshape(2**q, 2, -1)
        return np.einsum("ij,ajb->aib", g, view).reshape(-1)

    for q in range(n):
        psi = one(psi, u, q)
    for g in gates:
        if g[0] == "CNOT":
            c, t = g[1], g[2]
            view = psi.reshape((2,) * n)
            sel = [slice(None)] * n
            sel[c] = 1
            axis = t if t < c else t - 1
            view[tuple(sel)] = np.flip(view[tuple(sel)], axis=axis).copy()
        else:
            psi = one(psi, H if g[0] == "H" else S, g[1])
    ud = u.conj().T
    for q in range(n):
        psi = one(psi, ud, q)
    return np.abs(psi) ** 2


def check_probabilities(out: dict, expected: np.ndarray, tol: float = 1e-10) -> list[str]:
    probs = out.get("probabilities")
    n = int(round(math.log2(expected.size)))
    if not isinstance(probs, dict) or len(probs) != expected.size:
        return [f"expected {expected.size} probabilities"]
    got = np.zeros(expected.size)
    for key, p in probs.items():
        if len(key) != n or set(key) - {"0", "1"}:
            return [f"bad outcome key {key!r}"]
        got[int(key, 2)] = p
    err = float(np.max(np.abs(got - expected)))
    return [f"probabilities differ from the statevector by {err:.3g}"] if err > tol else []


def check_marginals_against(dense: np.ndarray, marginals: dict[int, dict], tol: float = 1e-9) -> list[str]:
    """p(y_j = 0) from marginal outputs equals the dense distribution's sum."""
    n = int(round(math.log2(dense.size)))
    cube = dense.reshape((2,) * n)
    problems = []
    for j, out in marginals.items():
        p0 = float(cube.take(0, axis=j).sum())
        if abs(out["p0"] - p0) > tol:
            problems.append(f"marginal of qubit {j} is {out['p0']}, dense says {p0}")
    return problems


def check_frequencies(samples: list[str], dense: np.ndarray) -> list[str]:
    """Sample counts agree with the dense distribution cell by cell (6 sigma)."""
    n = int(round(math.log2(dense.size)))
    counts = np.bincount(as_bits(samples, n) @ (1 << np.arange(n)[::-1]), minlength=dense.size)
    total = counts.sum()
    problems = []
    for y, (c, p) in enumerate(zip(counts, dense)):
        if p < 1e-12 and c:
            problems.append(f"outcome {y:0{n}b} has probability 0 but was drawn {c} times")
        elif abs(c - total * p) > 6 * math.sqrt(total * p * (1 - p)) + 1:
            problems.append(f"outcome {y:0{n}b} drawn {c} times, expected {total * p:.1f}")
    return problems


def check_marginal(out: dict, n: int, qubit: int) -> list[str]:
    p0, p1 = out.get("p0"), out.get("p1")
    if out.get("n") != n or out.get("qubit") != qubit:
        return [f"marginal answered n={out.get('n')} qubit={out.get('qubit')}"]
    if not (isinstance(p0, float) and 0.0 <= p0 <= 1.0 and abs(p0 + p1 - 1.0) <= 1e-12):
        return [f"marginal p0={p0} p1={p1} is not a probability pair"]
    return []


# -- anticoncentration -------------------------------------------------------------


def two_design_moments(n: int) -> tuple[float, float]:
    """E p and E p^2 for p = |<phi|C|psi>|^2 over a unitary 2-design."""
    d = 2**n
    return 1.0 / d, 2.0 / (d * (d + 1))


def check_moments(out: dict, n: int, draws: int) -> list[str]:
    """The mean of p within 5 SE of the 2-design value, and sane reported SEs.

    Var p is fixed by the 2-design moments, so the SE of the mean is known
    exactly; the reported one must be close to it.
    """
    if out.get("n") != n or out.get("num_samples") != draws:
        return [f"anticonc ran n={out.get('n')} with {out.get('num_samples')} draws"]
    mean, second = two_design_moments(n)
    se_mean = math.sqrt((second - mean**2) / draws)
    problems = []
    if not 0.5 * se_mean <= out["mean_se"] <= 2.0 * se_mean:
        problems.append(f"mean_se {out['mean_se']:.3g} is far from the 2-design {se_mean:.3g}")
    if not 0.0 < out["second_moment_se"] < second:
        problems.append(f"second_moment_se {out['second_moment_se']:.3g} out of range")
    if abs(out["mean_p"] - mean) > 5 * se_mean:
        problems.append(f"mean {out['mean_p']:.6g} is not within 5 SE of {mean:.6g}")
    return problems


def check_second_moment(outs: list[dict], n: int) -> list[str]:
    """The pooled second moment of several trials within 5 SE of the 2-design value.

    p^2 is skewed: one 200-draw trial that misses the rare large values
    underestimates both the moment and its SE, and lands beyond 5 SE about
    once in a thousand trials.  Pooling the run's trials makes that rare.
    """
    if not outs:
        return []
    _, second = two_design_moments(n)
    pooled = sum(o["mean_p_squared"] for o in outs) / len(outs)
    se = math.sqrt(sum(o["second_moment_se"] ** 2 for o in outs)) / len(outs)
    if abs(pooled - second) > 5 * se:
        return [f"second moment {pooled:.6g} over {len(outs)} trials is not within 5 SE of {second:.6g}"]
    return []


# -- gadgets -------------------------------------------------------------------------


def matrix_from_json(m: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in m])


def pauli_coefficients(m: np.ndarray) -> np.ndarray:
    return np.array([np.trace(p @ m) / 2 for p in PAULIS])


def is_clifford_1q(a: np.ndarray, tol: float = 1e-6) -> bool:
    """Conjugation maps X and Z to signed Paulis: one unit Pauli coefficient each."""
    at = a / np.sqrt(np.linalg.det(a))
    for p in (X, Z):
        mags = np.sort(np.abs(pauli_coefficients(at @ p @ at.conj().T)))
        if abs(mags[-1] - 1.0) > tol or mags[:-1].max() > tol:
            return False
    return True


def is_unitary_up_to_scale(a: np.ndarray, tol: float = 1e-8) -> bool:
    m = a.conj().T @ a
    gamma = m[0, 0].real
    return gamma > tol and bool(np.abs(m - gamma * np.eye(len(a))).max() <= tol * max(1, gamma))


def check_gadget_search(out: dict, expect_nonempty: bool) -> list[str]:
    """Non-empty exactly for hard U; each listed action unitary non-Clifford."""
    count, shown = out.get("num_classes"), out.get("classes")
    if not isinstance(count, int) or not isinstance(shown, list):
        return ["gadget search output lacks num_classes/classes"]
    if not expect_nonempty:
        return [] if count == 0 and not shown else [f"found {count} classes for a Clifford U"]
    if count == 0 or not shown:
        return ["found no gadget class for a hard U"]
    problems = []
    mats = [matrix_from_json(c["action"]) for c in shown]
    for i, a in enumerate(mats):
        if not is_unitary_up_to_scale(a):
            problems.append(f"class {i} action is not unitary up to scale")
        elif is_clifford_1q(a):
            problems.append(f"class {i} action is Clifford")
    return problems


def duplicate_classes(out: dict) -> list[str]:
    """Listed gadget classes must be pairwise distinct up to phase."""
    mats = [matrix_from_json(c["action"]) for c in out.get("classes", [])]
    problems = []
    for i in range(len(mats)):
        for k in range(i):
            a, b = mats[i], mats[k]
            overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
            if overlap > 1 - 1e-9:
                problems.append(f"classes {k} and {i} are equal up to phase")
    return problems


# -- compile -------------------------------------------------------------------------


def phase_invariant_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over g of ||a - e^{ig} b|| for 2x2 unitaries: 2 sin(arc/4)."""
    ev = np.linalg.eigvals(b.conj().T @ a)
    arc = abs(cmath.phase(ev[0] / ev[1]))
    return 2.0 * math.sin(arc / 4.0)


def check_compile(out: dict, target: np.ndarray, generators: dict[str, np.ndarray], max_length: int) -> list[str]:
    word = out.get("word")
    if not isinstance(word, list) or len(word) > max_length or out.get("word_length") != len(word):
        return [f"compile returned a bad word {word!r}"]
    if any(tok not in generators for tok in word):
        return [f"compile word uses an unknown generator: {word!r}"]
    m = np.eye(2, dtype=complex)
    for tok in word:  # the first letter acts first
        m = generators[tok] @ m
    dist = phase_invariant_distance(m, target)
    if abs(dist - out["distance"]) > 1e-9:
        return [f"word is at distance {dist:.12f}, compile reported {out['distance']:.12f}"]
    return []
