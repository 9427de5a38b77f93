"""Benchmark of the cccsim CLI: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload easy-shots --seed 1 --seconds 20 --trace 0

Every command goes in-process through `cccsim.cli.main(argv)`; its stdout
is captured and the JSON parsed and checked outside the timed region.  The
next command starts only after the previous one returned.  Times are CPU
seconds of the (single-threaded, CPU-bound) process: on an idle machine
they equal wall time, and on a shared one they leave out the time other
tenants take, which would otherwise swamp the spread.  With --trace 0
the run reports the end-to-end metrics, with --trace 1 the per-layer ones
(rounds alternate untraced and traced, to measure the tracing overhead).
The last line of stdout is the result as one JSON object.
"""
from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import FIELDS, METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMANDS = 4  # command1_s..command4_s, one per command kind of the workload

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"} | {f"command{i}_s": "s" for i in range(1, COMMANDS + 1)}

# ratios of useful outcomes to work, over the commands of one kind
RATIOS = {
    "stabilizer.tableau_gates_per_shot": "gates/shot",
    "stabilizer.tableau_gates_per_marginal": "gates/marginal",
    "gadgets.search_yield": "classes/check",
}
OVERHEAD = {"trace.overhead_s": "s/round"}


def import_cli():
    """cccsim.cli from this checkout's src/, and from nowhere else."""
    if not (SRC / "cccsim" / "cli.py").is_file():
        raise SystemExit(f"bench: no cccsim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from cccsim import cli

    if Path(cli.__file__).resolve().parent != SRC / "cccsim":
        raise SystemExit(f"bench: imported cccsim from {cli.__file__}, not {SRC}")
    return cli


def setup_pass(path: str) -> int:
    """Child process: import cccsim and run the first round's commands once."""
    cli = import_cli()
    for argv in json.loads(Path(path).read_text()):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            return code
    return 0


class VerificationFailed(Exception):
    """A command run only to check other outputs did not succeed."""


class Runner:
    """Calls the CLI in-process.

    `attempted` and `failed` count the workload's own commands; a command
    fails when it exits non-zero, prints no JSON, or shows a known fault.
    """

    def __init__(self, cli, problems: list[str]):
        self.cli = cli
        self.problems = problems
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str]) -> tuple[float, dict | None]:
        """(CPU seconds, parsed output or None if the command failed)."""
        buf = io.StringIO()
        start = time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = "exception"
        elapsed = time.process_time() - start
        if code == 0:
            try:
                return elapsed, json.loads(buf.getvalue())
            except ValueError:
                code = "unparsable output"
        print(f"bench: {' '.join(argv)} failed ({code})", file=sys.stderr)
        return elapsed, None

    def command(self, cmd) -> tuple[float, dict | None]:
        """One of the workload's commands, timed, counted and checked."""
        self.attempted += 1
        elapsed, out = self.call(cmd.argv)
        if out is None:
            self.failed += 1
            return elapsed, out
        try:
            self.problems.extend(f"{cmd.kind.metric}: {p}" for p in cmd.check(out))
            faults = cmd.fault(out) if cmd.fault else []
        except Exception as exc:  # an output of another shape than the checks expect
            self.problems.append(f"{cmd.kind.metric}: checking {' '.join(cmd.argv)} raised {exc!r}")
            faults = []
        if faults:
            self.failed += 1
            print(f"bench: {cmd.kind.metric} shows a known fault: {faults[0]}", file=sys.stderr)
        return elapsed, out

    def verify(self, argv: list[str]) -> dict:
        """A command whose output only serves to check the others."""
        out = self.call(argv)[1]
        if out is None:
            raise VerificationFailed(" ".join(argv))
        return out


def outcomes(out: dict) -> int:
    """Useful outcomes of one output: the shots drawn, the gadget classes found, or 1."""
    if isinstance(out.get("samples"), list):
        return len(out["samples"])
    if isinstance(out.get("num_classes"), int):
        return out["num_classes"]
    return 1


class Loop:
    """Whole rounds of a workload, repeated until the time is up."""

    def __init__(self, workload, runner: Runner):
        self.workload = workload
        self.runner = runner

    def run_round(self, tracer=None, commands=None) -> list[tuple]:
        """(kind, CPU seconds, outcomes or None if it failed, traced deltas) per command.

        Outputs are not kept, so that they do not swell the peak RSS.
        """
        records = []
        for cmd in commands or self.workload.next_round():
            before = tracer.snapshot() if tracer else None
            elapsed, out = self.runner.command(cmd)
            after = tracer.snapshot() if tracer else None
            delta = {k: tuple(a - b for a, b in zip(after[k], before[k])) for k in after} if tracer else None
            records.append((cmd.kind, elapsed, None if out is None else outcomes(out), delta))
        return records

    def run(self, seconds: float, tracer=None) -> list[list[tuple]]:
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(self.run_round(tracer))
        return rounds


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload_dir: Path, commands) -> float:
    """CPU time of a fresh interpreter that imports cccsim and runs `commands` once."""
    spec = workload_dir / "setup.json"
    spec.write_text(json.dumps([cmd.argv for cmd in commands]))
    start = children_cpu()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-pass", str(spec)],
        stdout=subprocess.DEVNULL,
        timeout=170,
    )
    if proc.returncode:
        raise SystemExit(f"bench: set-up pass exited {proc.returncode}")
    return children_cpu() - start


def kind_medians(rounds, problems: list[str] | None = None) -> dict:
    """Median command time per kind, over the commands that gave an output.

    A kind none of whose commands gave one falls back to all its commands,
    and makes the run incorrect: a failing kind must not look fast.
    """
    ok: dict = {}
    every: dict = {}
    for rnd in rounds:
        for kind, elapsed, count, _ in rnd:
            every.setdefault(kind, []).append(elapsed)
            if count is not None:
                ok.setdefault(kind, []).append(elapsed)
    medians = {}
    for kind, times in every.items():
        if kind not in ok and problems is not None:
            problems.append(f"{kind.metric}: no command gave an output")
        times = ok.get(kind, times)
        medians[kind] = (statistics.median(times), len(times))
    return medians


def report_value(kind, median: float) -> float:
    return kind.work / median if kind.work else median


def round_time(rnd) -> float:
    return sum(elapsed for _, elapsed, _, _ in rnd)


def end_to_end(kinds, rounds, setup_times: list[float], problems: list[str]) -> dict:
    """command<i>_s is the median time of the workload's kind i, cycling over its kinds."""
    medians = kind_medians(rounds, problems)
    values = {
        "setup_s": statistics.fmean(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for i in range(COMMANDS):
        values[f"command{i + 1}_s"] = medians[kinds[i % len(kinds)]][0]
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def per_layer(plain, traced, absent: list[str]) -> dict:
    """Per traced round: calls and CPU seconds per traced name, plus waste ratios."""
    by_kind: dict = {}  # kind metric -> traced name -> [calls, total, self]
    units = {"shots": 0, "marginals": 0, "classes": 0}  # outcomes of the commands that gave one
    for rnd in traced:
        for kind, _, count, delta in rnd:
            acc = by_kind.setdefault(kind.metric, {})
            for name, triple in delta.items():
                acc[name] = [a + b for a, b in zip(acc.get(name, (0, 0.0, 0.0)), triple)]
            if kind.metric in ("shots_per_s", "sample_s"):
                units["shots"] += count or 0
            elif kind.metric == "marginal_s":
                units["marginals"] += count or 0
            elif kind.metric == "gadget_search_s":
                units["classes"] += count or 0

    def total(name, field="calls", kinds=None):
        return sum(acc.get(name, (0, 0.0, 0.0))[FIELDS[field]]
                   for k, acc in by_kind.items() if kinds is None or k in kinds)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {name: total(source, field) / len(traced) for name, (_, source, field) in METRICS.items()}
    gates = "stabilizer.CliffordTableau.apply"
    values["stabilizer.tableau_gates_per_shot"] = ratio(
        total(gates, kinds=("shots_per_s", "sample_s")), units["shots"])
    values["stabilizer.tableau_gates_per_marginal"] = ratio(
        total(gates, kinds=("marginal_s",)), units["marginals"])
    values["gadgets.search_yield"] = ratio(
        units["classes"], total("linalg.is_unitary_up_to_scale", kinds=("gadget_search_s",)))
    values["trace.overhead_s"] = statistics.median(map(round_time, traced)) - statistics.median(
        map(round_time, plain))
    units_of = {k: u for k, (u, _, _) in METRICS.items()} | RATIOS | OVERHEAD
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    return {k: {"value": values[k], "unit": units_of[k]} for k in layer_metric_names()}


def layer_metric_names() -> list[str]:
    return [*METRICS, *RATIOS, *OVERHEAD]


def print_report(workload, rounds, wall: float, metrics: dict) -> None:
    cpu = sum(map(round_time, rounds))
    print(f"workload {workload.name}: {len(rounds)} measured rounds, "
          f"{cpu:.1f} s CPU in their commands, {wall:.1f} s wall for all measured rounds")
    medians = kind_medians(rounds)
    for kind in workload.KINDS:
        median, count = medians[kind]
        value = report_value(kind, median)
        print(f"  {kind.metric:<22} {value:12.6g} {kind.unit:<8} (median of {count} commands)")
    for name, m in metrics.items():
        print(f"  {name:<22} {m['value']:12.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-pass", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_pass:
        return setup_pass(args.setup_pass)

    cli = import_cli()
    startup_cpu = time.process_time()  # interpreter start and import of cccsim
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    problems: list[str] = []
    runner = Runner(cli, problems)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(workload, runner)
        # the first command of each kind warms this process up and is its
        # own set-up pass; it is checked, but not counted with the rounds
        by_kind: dict = {}
        for cmd in workload.next_round():
            by_kind.setdefault(cmd.kind, cmd)
        first = list(by_kind.values())
        warm_up = loop.run_round(commands=first)
        runner.attempted = runner.failed = 0
        if args.trace == 0:
            setup_times = [startup_cpu + round_time(warm_up), measure_setup(workdir, first)]
            start = time.perf_counter()
            rounds = loop.run(args.seconds)
            metrics = end_to_end(workload.KINDS, rounds, setup_times, problems)
        else:
            plain, rounds, tracer = [], [], Tracer()
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                plain.append(loop.run_round())
                with tracer:
                    rounds.append(loop.run_round(tracer))
            metrics = per_layer(plain, rounds, tracer.absent)
        wall = time.perf_counter() - start
        try:
            problems.extend(workload.finish(runner.verify))
        except VerificationFailed as exc:
            problems.append(f"verification command failed: {exc}")
        except Exception as exc:  # an output of another shape than the checks expect
            problems.append(f"end-of-run checks raised {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print_report(workload, rounds, wall, metrics)
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
