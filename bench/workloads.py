"""The benchmark's three workloads: their inputs, commands and checks.

Each workload is a closed loop of rounds.  A round is a fixed list of CLI
commands, of the workload's KINDS; the inputs of every round come from the
workload's own generator, seeded by --seed.  Every command carries the check that its
output must pass.  `finish` makes the checks that need the whole run or
extra commands (small-n cross-checks, the empty search for a Clifford U).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

U_HARD = "rz=pi*1/3 rx=pi*1/2"
U_HARD_MATRIX = checks.rz(math.pi / 3) @ checks.rx(math.pi / 2)
U_MARGINAL = "rz=pi*1/5 rx=pi*1/3"  # hard, and asked at n=64, beyond the dense cap
U_NEGATED = "rz=pi*1/3 rx=pi"  # case i with the negated-output branch

EASY_N = 64
EASY_SHOTS = 16
EASY_FILES = 3
FRESH_N = 64
SMALL_N = 14
ANTICONC_N = 6
ANTICONC_DRAWS = 200
COMPILE_ARGS = ["--target", "rz=pi*1/4", "--generators", "H,S,AJ(0,pi*1/3)", "--max-length", "10"]
COMPILE_GENERATORS = {"H": checks.H, "S": checks.S, "AJ(0,pi*1/3)": checks.j_gadget(math.pi / 3)}


@dataclass(frozen=True)
class Kind:
    """One kind of command; `metric` is what its median reports as.

    With `work` > 0 the metric is a rate, work units per second of median
    command time; otherwise it is the median command time itself.
    """

    metric: str
    unit: str
    work: int = 0


@dataclass
class Command:
    """A CLI call and the check its output must pass.

    `fault` tests for a known fault of the program; an output that shows it
    counts as a failed command rather than as an incorrect result.
    """

    kind: Kind
    argv: list[str]
    check: Callable[[dict], list[str]]
    fault: Callable[[dict], list[str]] | None = None


# runs a verification command; raises VerificationFailed if it fails
Run = Callable[[list[str]], dict]


def probabilities(out: dict) -> np.ndarray:
    probs = out["probabilities"]
    dense = np.zeros(len(probs))
    for key, p in probs.items():
        dense[int(key, 2)] = p
    return dense


class Workload:
    name = ""
    why = ""
    KINDS: tuple[Kind, ...] = ()  # reported in this order as command1_s, command2_s, ...

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.workdir = workdir
        self.rounds = 0
        workdir.mkdir(parents=True, exist_ok=True)

    def seed(self) -> str:
        return str(int(self.rng.integers(2**31)))

    def next_round(self) -> list[Command]:
        self.rounds += 1
        return self.make_round(self.rounds - 1)

    def make_round(self, index: int) -> list[Command]:
        raise NotImplementedError

    def finish(self, run: Run) -> list[str]:
        return []


class EasyShots(Workload):
    name = "easy-shots"
    why = "many shots of one V at n=64 through the stabilizer route; replay and measurement carry it"
    SHOTS = Kind("shots_per_s", "shots/s", EASY_SHOTS)
    KINDS = (SHOTS,)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.files = []
        for i in range(EASY_FILES):
            word = checks.conjugated_word(EASY_N, 2 * EASY_N**2, EASY_N // 2, self.rng)
            text = checks.circuit_text(EASY_N, word)
            path = workdir / f"v{EASY_N}-{i}.txt"
            path.write_text(text)
            masks, signs = checks.z_constraints(text, hadamard_frame=True)
            self.files.append((path, masks, signs, checks.free_columns(masks), []))

    def make_round(self, index):
        path, masks, signs, _, shots = self.files[index % EASY_FILES]

        def check(out):
            problems = checks.check_shots(out, EASY_N, masks, signs, EASY_SHOTS)
            if not problems:
                shots.append(checks.as_bits(out["samples"], EASY_N))
            return problems

        argv = ["sample", "--u", "H", "--circuit", str(path), "--samples", str(EASY_SHOTS)]
        return [Command(self.SHOTS, argv + ["--seed", self.seed()], check)]

    def finish(self, run):
        problems = []
        for _, _, _, free, shots in self.files:
            if shots:
                problems += checks.check_free_bits(np.concatenate(shots), free)
        return problems


class FreshV(Workload):
    name = "fresh-v"
    why = "one question per fresh random V at n=64; drawing, synthesizing and replaying V dominate"
    MARGINAL = Kind("marginal_s", "s")
    SAMPLE = Kind("sample_s", "s")
    KINDS = (MARGINAL, SAMPLE)

    def make_round(self, index):
        qubit = int(self.rng.integers(FRESH_N))
        marginal = ["marginal", "--u", U_MARGINAL, "--random-v", str(FRESH_N)]
        marginal += ["--qubit", str(qubit), "--seed", self.seed()]
        sample = ["sample", "--u", U_NEGATED, "--random-v", str(FRESH_N), "--samples", "1"]
        sample += ["--seed", self.seed()]
        return [
            Command(self.MARGINAL, marginal, lambda out: checks.check_marginal(out, FRESH_N, qubit)),
            Command(self.SAMPLE, sample, lambda out: checks.check_shots(
                out, FRESH_N, np.zeros((0, FRESH_N), np.uint8), np.zeros(0, np.uint8), 1)),
        ]

    def finish(self, run):
        """At small n the same seeds must agree with `simulate --method dense`."""
        problems = []
        for u, n, seed in ((U_MARGINAL, 6, self.seed()), (U_NEGATED, 4, self.seed())):
            base = ["--u", u, "--random-v", str(n), "--seed", seed]
            dense = probabilities(run(["simulate", "--method", "dense", *base]))
            if u == U_MARGINAL:
                outs = {j: run(["marginal", *base, "--qubit", str(j)]) for j in range(n)}
                problems += checks.check_marginals_against(dense, outs)
            else:
                out = run(["sample", *base, "--samples", "2000"])
                problems += checks.check_frequencies(out["samples"], dense)
        return problems


class HardSmall(Workload):
    name = "hard-small"
    why = "hard U at small n: dense simulation, anticoncentration, gadget search and compile; no tableau measurement"
    SIMULATE = Kind("simulate_s", "s")
    ANTICONC = Kind("anticonc_draws_per_s", "draws/s", ANTICONC_DRAWS)
    SEARCH = Kind("gadget_search_s", "s")
    COMPILE = Kind("compile_s", "s")
    KINDS = (SIMULATE, ANTICONC, SEARCH, COMPILE)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.trials = []

    def check_trial(self, out):
        problems = checks.check_moments(out, ANTICONC_N, ANTICONC_DRAWS)
        if not problems:
            self.trials.append(out)
        return problems

    def simulate(self, name: str) -> Command:
        text = checks.circuit_text(SMALL_N, checks.random_word(SMALL_N, 2 * SMALL_N**2, self.rng))
        path = self.workdir / name
        path.write_text(text)
        return Command(
            self.SIMULATE,
            ["simulate", "--method", "dense", "--u", U_HARD, "--circuit", str(path)],
            lambda out: checks.check_probabilities(out, checks.statevector_probs(text, U_HARD_MATRIX)),
        )

    def make_round(self, index):
        """Six simulates and four compiles spread over the round, around one
        anticonc and one search: the short commands vary most from call to
        call, so a run takes many of them across its whole length."""
        sims = iter([self.simulate(f"v{SMALL_N}-{index}-{i}.txt") for i in range(6)])
        compile_ = Command(
            self.COMPILE,
            ["compile", *COMPILE_ARGS],
            lambda out: checks.check_compile(out, checks.rz(math.pi / 4), COMPILE_GENERATORS, 10),
        )
        anticonc = Command(
            self.ANTICONC,
            ["anticonc", "--n", str(ANTICONC_N), "--samples", str(ANTICONC_DRAWS), "--u", U_HARD,
             "--seed", self.seed()],
            self.check_trial,
        )
        search = Command(
            self.SEARCH,
            ["gadget", "search", "--u", U_HARD, "--k", "2"],
            lambda out: checks.check_gadget_search(out, expect_nonempty=True),
            # the search keys classes on bytes that tell -0.0 from 0.0,
            # so it lists one class several times (see CHANGES.md)
            fault=checks.duplicate_classes,
        )
        return [next(sims), compile_, next(sims), compile_, anticonc, next(sims), compile_,
                next(sims), compile_, next(sims), search, next(sims)]

    def finish(self, run):
        """Pooled moments, and the paper's boundary: a Clifford U has no gadget."""
        out = run(["gadget", "search", "--u", "H", "--k", "2"])
        return checks.check_second_moment(self.trials, ANTICONC_N) + checks.check_gadget_search(
            out, expect_nonempty=False)


WORKLOADS = {w.name: w for w in (EasyShots, FreshV, HardSmall)}
