"""Call counts and self times for cccsim's public functions, from outside.

The tracer swaps each traced function for a wrapper in every cccsim module
that binds it, so names copied by `from .stabilizer import ...` are caught
too, and patches the two tableau methods on the class.  Nothing is recorded
per call: each name keeps a call count, its inclusive CPU time and its self
time (inclusive minus the traced calls made directly under it).
`CliffordTableau.apply` only counts, because timing every gate would cost
more than the gate; its time stays in the caller's self time.
"""
from __future__ import annotations

import sys
import time

# per-layer metric -> (unit, traced function, field); every traced function
# is named here, and fields are summed per traced round
METRICS = {
    "stabilizer.circuit_to_tableau.calls": ("calls/round", "stabilizer.circuit_to_tableau", "calls"),
    "stabilizer.circuit_to_tableau.self_s": ("s/round", "stabilizer.circuit_to_tableau", "self"),
    "stabilizer.tableau_gates": ("gates/round", "stabilizer.CliffordTableau.apply", "calls"),
    "stabilizer.measure.calls": ("calls/round", "stabilizer.CliffordTableau.measure", "calls"),
    "stabilizer.measure.self_s": ("s/round", "stabilizer.CliffordTableau.measure", "self"),
    "stabilizer.random_clifford.calls": ("calls/round", "stabilizer.random_clifford", "calls"),
    "stabilizer.random_clifford.self_s": ("s/round", "stabilizer.random_clifford", "self"),
    "stabilizer.tableau_to_circuit.calls": ("calls/round", "stabilizer.tableau_to_circuit", "calls"),
    "stabilizer.tableau_to_circuit.self_s": ("s/round", "stabilizer.tableau_to_circuit", "self"),
    "stabilizer.conjugate_pauli.calls": ("calls/round", "stabilizer.conjugate_pauli", "calls"),
    "stabilizer.conjugate_pauli.self_s": ("s/round", "stabilizer.conjugate_pauli", "self"),
    "stabilizer.enumerate_clifford_words.self_s": ("s/round", "stabilizer.enumerate_clifford_words", "self"),
    "ccc.simulate_easy_weak.self_s": ("s/round", "ccc.simulate_easy_weak", "self"),
    "ccc.marginal_single_qubit.self_s": ("s/round", "ccc.marginal_single_qubit", "self"),
    "ccc.dense_distribution.self_s": ("s/round", "ccc.dense_distribution", "self"),
    "linalg.apply_gate.calls": ("calls/round", "linalg.apply_gate", "calls"),
    "linalg.apply_gate.s": ("s/round", "linalg.apply_gate", "total"),
    "linalg.is_unitary_up_to_scale.calls": ("calls/round", "linalg.is_unitary_up_to_scale", "calls"),
    "linalg.phase_invariant_distance_batch.calls": ("calls/round", "linalg.phase_invariant_distance_batch", "calls"),
    "linalg.phase_invariant_distance_batch.s": ("s/round", "linalg.phase_invariant_distance_batch", "total"),
    "gadgets.search_gadgets.self_s": ("s/round", "gadgets.search_gadgets", "self"),
    "gadgets.compile_word.self_s": ("s/round", "gadgets.compile_word", "self"),
    "experiments.anticoncentration_trial.self_s": ("s/round", "experiments.anticoncentration_trial", "self"),
    "cli.self_s": ("s/round", "cli.main", "self"),
}
# traced functions that are only counted, not timed
COUNT_ONLY = {"stabilizer.CliffordTableau.apply"}
FIELDS = {"calls": 0, "total": 1, "self": 2}


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Install with `with tracer:`, as often as needed; `stats` accumulate."""

    def __init__(self):
        self.stats = {name: Stat() for _, name, _ in METRICS.values()}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {k: (s.calls, s.total, s.self) for k, s in self.stats.items()}

    def _span(self, fn, stat: Stat):
        stack, clock = self._stack, time.process_time

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    @staticmethod
    def _count(fn, stat: Stat):
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.absent = []
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("cccsim") and m]
        for key in self.stats:
            layer, _, name = key.partition(".")
            module = sys.modules.get(f"cccsim.{layer}")
            cls_name, _, method = name.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = getattr(owner, method, None)
            if original is None:
                self.absent.append(key)
                continue
            kind = self._count if key in COUNT_ONLY else self._span
            wrapped = kind(original, self.stats[key])
            if cls_name:
                self._patch(owner, method, wrapped)
                continue
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
