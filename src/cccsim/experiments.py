"""Monte Carlo anticoncentration trials, 2-design moment checks, and the
exact parameter arithmetic behind the hardness argument.

The anticoncentration bound holds for any fixed conjugating unitary and
outcome string, so a trial prepares the conjugated reference states once and
only redraws the random Clifford.  A chunk of Cliffords is drawn as one
batch of tableaux and put in canonical form F1 H_S F2 as one batch, with
numpy passes over the whole chunk, and the forms run over one block of
copies of the reference state: two scatters with phases and a masked
Hadamard pass per qubit.  Parameter arithmetic stays in Fractions
end to end; floats are converted through their decimal string so that 1/5
arrives as 1/5 and not as its binary neighbour.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from . import linalg
from .ccc import OutcomeDistribution, tv_distance
from .errors import InvariantError
from .stabilizer import apply_canonical_forms, canonical_forms, random_cliffords

MIN_TRIAL_SAMPLES = 100
#: a trial runs its draws in chunks of at most this many amplitudes (4 MiB),
#: which bounds the block and its index and phase tables
MAX_BLOCK_AMPLITUDES = 2**18


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class SupremacyParams:
    a: Fraction
    c: Fraction
    epsilon: Fraction

    @property
    def fraction(self) -> Fraction:
        return (1 - self.a) ** 2 / 2 - self.c

    @property
    def mult_error(self) -> Fraction:
        return 2 * self.epsilon / (self.a * self.c)

    @property
    def valid(self) -> bool:
        return self.fraction > 0 and self.mult_error < 1


def supremacy_parameters(a, c, epsilon) -> SupremacyParams:
    """Exact rational check of the two hardness-argument constraints."""
    values = {"a": _as_fraction(a), "c": _as_fraction(c), "epsilon": _as_fraction(epsilon)}
    for name, v in values.items():
        if not 0 < v < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {v}")
    return SupremacyParams(**values)


@dataclass(frozen=True, eq=False)
class AnticoncentrationReport:
    n: int
    u_description: str
    y: str
    num_samples: int
    seed: int
    a: float
    mean_p: float
    mean_p_squared: float
    mean_se: float
    second_moment_se: float
    p_values: np.ndarray = field(repr=False)

    @property
    def theory_mean(self) -> float:
        return 2.0**-self.n

    @property
    def theory_second_moment(self) -> float:
        return 2 * (1 - 2.0**-self.n) / (2 ** (2 * self.n) - 1)

    def tail_fraction(self) -> float:
        """Fraction of draws with p >= a / 2^n."""
        return float(np.mean(self.p_values >= self.a / 2**self.n))

    def pz_bound(self) -> float:
        """Large-n limit of the Paley-Zygmund tail bound, (1-a)^2 / 2."""
        return (1 - self.a) ** 2 / 2

    def as_dict(self) -> dict:
        """JSON-ready summary; raw p values are exported separately as CSV."""
        return {
            "n": self.n,
            "u_description": self.u_description,
            "y": self.y,
            "num_samples": self.num_samples,
            "seed": self.seed,
            "a": self.a,
            "mean_p": self.mean_p,
            "mean_se": self.mean_se,
            "mean_p_squared": self.mean_p_squared,
            "second_moment_se": self.second_moment_se,
            "theory_mean": self.theory_mean,
            "theory_second_moment": self.theory_second_moment,
            "tail_fraction": self.tail_fraction(),
            "pz_bound": self.pz_bound(),
        }


def anticoncentration_trial(
    n: int,
    u: np.ndarray,
    y: str,
    num_samples: int,
    a=0.2,
    seed: int = 0,
    u_description: str = "unitary",
) -> AnticoncentrationReport:
    """Estimate the moments and tail of p = |<y| U*^n Gamma U^n |0^n>|^2
    over uniformly random Cliffords Gamma.

    The conjugation by U only relabels the fixed bra and ket, so the states
    U^n|0^n> and U^n|y> are built once.  The Cliffords come a chunk of at
    most MAX_BLOCK_AMPLITUDES amplitudes at a time: random_cliffords draws
    the chunk as one batch, the same tableaux and generator state as one
    random_clifford call per draw in order, canonical_forms puts the batch
    in canonical form, and the forms run over one block of copies of
    U^n|0^n> (see stabilizer.apply_canonical_forms).
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    linalg.check_dense_cap(n, what="anticoncentration trial")
    if num_samples < MIN_TRIAL_SAMPLES:
        raise ValueError(f"need at least {MIN_TRIAL_SAMPLES} samples, got {num_samples}")
    if len(y) != n or set(y) - {"0", "1"}:
        raise ValueError(f"bad outcome string {y!r} for n={n}")
    a = float(a)
    if not 0 <= a < 1:
        raise ValueError(f"a must lie in [0, 1), got {a}")

    rng = np.random.default_rng(seed)
    chunk = max(1, MAX_BLOCK_AMPLITUDES // 2**n)
    # the first chunk is drawn before any 2^n array exists, so a width the
    # batch cannot hold is refused before the states are built
    forms = canonical_forms(random_cliffords(n, rng, min(chunk, num_samples)))
    u = np.asarray(u, dtype=complex)
    psi = reduce(np.kron, [u[:, 0]] * n)
    phi = reduce(np.kron, [u[:, int(bit)] for bit in y])

    p_values = np.empty(num_samples)
    for start in range(0, num_samples, chunk):
        stop = min(start + chunk, num_samples)
        if start:
            forms = canonical_forms(random_cliffords(n, rng, stop - start))
        block = apply_canonical_forms(forms, np.tile(psi, (stop - start, 1)))
        p_values[start:stop] = np.abs(block @ phi.conj()) ** 2

    squares = p_values**2
    return AnticoncentrationReport(
        n=n,
        u_description=u_description,
        y=y,
        num_samples=num_samples,
        seed=seed,
        a=a,
        mean_p=float(p_values.mean()),
        mean_p_squared=float(squares.mean()),
        mean_se=float(p_values.std(ddof=1) / math.sqrt(num_samples)),
        second_moment_se=float(squares.std(ddof=1) / math.sqrt(num_samples)),
        p_values=p_values,
    )


def markov_set_audit(
    exact: OutcomeDistribution, approx: OutcomeDistribution, c
) -> tuple[float, float, float]:
    """(epsilon, threshold, fraction): the realized total-variation error,
    the per-outcome Markov budget 2 epsilon/(c 2^n), and the fraction of
    outcomes whose error fits it, which always lands at or above 1 - c.
    """
    c = float(c)
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    if exact.n != approx.n:
        raise ValueError("qubit count mismatch")
    epsilon = tv_distance(exact, approx)
    threshold = 2 * epsilon / (c * 2**exact.n)
    fraction = float(np.mean(np.abs(approx.probs - exact.probs) <= threshold))
    if fraction < 1 - c:
        raise InvariantError(f"Markov bound broken: {fraction} of outcomes within, below 1 - c")
    return epsilon, threshold, fraction
