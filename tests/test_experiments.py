import dataclasses
import hashlib
import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from cccsim import experiments, linalg
from cccsim.ccc import (
    OutcomeDistribution,
    dense_distribution,
    easy_reduction_distribution,
    make_instance,
    parse_unitary_spec,
)
from cccsim.errors import CapabilityError
from cccsim.experiments import anticoncentration_trial, markov_set_audit, supremacy_parameters
from cccsim.gadgets import _clifford_table
from cccsim.stabilizer import CliffordCircuit, enumerate_clifford_words
from oracles import anticoncentration_p_values, circuit_to_tableau, paley_zygmund_bound
from oracles import random_clifford_circuit, to_unitary

HARD_U = parse_unitary_spec("rz=pi*1/3 rx=pi*1/2").matrix


# -- parameter arithmetic ----------------------------------------------------------


def test_supremacy_parameters_reference_point():
    p = supremacy_parameters(Fraction(1, 5), Fraction(1, 5), Fraction(1, 100))
    assert p.fraction == Fraction(6, 50)
    assert p.mult_error == Fraction(1, 2)
    assert p.valid
    # the floats are exactly representable reproductions, not approximations
    assert float(p.fraction) == 0.12
    assert float(p.mult_error) == 0.5


def test_supremacy_parameters_accepts_decimal_floats():
    p = supremacy_parameters(0.2, 0.2, 0.01)
    assert p.fraction == Fraction(6, 50) and p.mult_error == Fraction(1, 2)


def test_supremacy_parameters_invalid_combinations():
    p = supremacy_parameters(0.5, 0.5, 0.01)
    assert p.fraction < 0 and not p.valid
    p = supremacy_parameters(Fraction(1, 5), Fraction(1, 5), Fraction(1, 50))
    assert p.mult_error == 1 and not p.valid  # boundary: must be strictly < 1


@pytest.mark.parametrize("bad", [(0, 0.2, 0.01), (0.2, 1, 0.01), (0.2, 0.2, 1.5), (-0.1, 0.2, 0.01)])
def test_supremacy_parameters_range_check(bad):
    with pytest.raises(ValueError):
        supremacy_parameters(*bad)


def test_paley_zygmund_values():
    # deterministic variable at a = 0 gives probability one
    assert paley_zygmund_bound(0, 0.3, 0.09) == 1.0
    got = paley_zygmund_bound(0.2, 0.5, 0.5)
    assert math.isclose(got, (0.8**2) * 0.25 / 0.5)
    # exact Clifford moments approach (1-a)^2/2 from above as n grows
    for n in (3, 6, 10):
        mean = 2.0**-n
        m2 = 2 * (1 - 2.0**-n) / (2 ** (2 * n) - 1)
        bound = paley_zygmund_bound(0.2, mean, m2)
        assert bound >= (0.8**2) / 2 - 1e-12, n
    assert math.isclose(
        paley_zygmund_bound(0.2, 2.0**-10, 2 * (1 - 2.0**-10) / (2**20 - 1)),
        (0.8**2) / 2,
        rel_tol=1e-2,
    )


def test_paley_zygmund_validation():
    with pytest.raises(ValueError):
        paley_zygmund_bound(0.2, 0.5, 0)
    with pytest.raises(ValueError):
        paley_zygmund_bound(1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        paley_zygmund_bound(-0.2, 0.5, 0.5)


# -- Markov audit ------------------------------------------------------------------


def test_markov_identical_distributions():
    u4 = OutcomeDistribution(2, np.full(4, 0.25))
    assert markov_set_audit(u4, u4, 0.3)[2] == 1.0


def test_markov_uniform_vs_point_mass():
    # n=2: tv = 3/4, threshold = 2*(3/4)/(c*4); enumerate by hand for c=1/2
    u4 = OutcomeDistribution(2, np.full(4, 0.25))
    point = OutcomeDistribution(2, np.array([1.0, 0, 0, 0]))
    epsilon, threshold, frac = markov_set_audit(u4, point, 0.5)
    assert epsilon == threshold == 0.75
    # threshold 0.75 excludes only the point-mass outcome (error 0.75 <= 0.75 is in)
    assert frac >= 0.5
    assert frac == 1.0  # |1 - 1/4| = 0.75 <= 0.75 exactly


def test_markov_guarantee_over_random_pairs():
    rng = np.random.default_rng(51)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(2**n))
        q = rng.dirichlet(np.ones(2**n))
        for c in (0.1, 0.2, 0.5):
            frac = markov_set_audit(
                OutcomeDistribution(n, p), OutcomeDistribution(n, q), c
            )[2]
            assert frac >= 1 - c


def test_markov_on_simulator_routes():
    rng = np.random.default_rng(52)
    inst = make_instance(linalg.GATES["H"], circuit_to_tableau(random_clifford_circuit(3, rng)))
    exact = dense_distribution(inst)
    approx = easy_reduction_distribution(inst)
    assert markov_set_audit(exact, approx, 0.25)[2] == 1.0


def test_markov_validation():
    u4 = OutcomeDistribution(2, np.full(4, 0.25))
    u8 = OutcomeDistribution(3, np.full(8, 0.125))
    with pytest.raises(ValueError):
        markov_set_audit(u4, u8, 0.5)
    with pytest.raises(ValueError):
        markov_set_audit(u4, u4, 0.0)
    with pytest.raises(ValueError):
        markov_set_audit(u4, u4, 1.0)


# -- anticoncentration trials -------------------------------------------------------


def test_report_theory_fields():
    rep = anticoncentration_trial(3, np.eye(2), "000", 150, a=0.2, seed=1)
    assert rep.theory_mean == 0.125
    assert math.isclose(rep.theory_second_moment, 1 / 36)
    assert math.isclose(rep.pz_bound(), 0.32)
    assert rep.num_samples == 150 and rep.seed == 1
    assert len(rep.p_values) == 150
    assert np.all(rep.p_values >= 0) and np.all(rep.p_values <= 1)
    assert 0 <= rep.tail_fraction() <= 1
    d = rep.as_dict()
    assert d["tail_fraction"] == rep.tail_fraction()
    assert d["y"] == "000"


def test_moments_match_theory_small_n():
    rep = anticoncentration_trial(3, np.eye(2), "000", 600, a=0.2, seed=2)
    assert abs(rep.mean_p - rep.theory_mean) <= 5 * rep.mean_se
    assert abs(rep.mean_p_squared - rep.theory_second_moment) <= 5 * rep.second_moment_se


def test_bound_is_u_independent():
    # same moments for wildly different conjugating unitaries
    u = linalg.rz(1.234) @ linalg.rx(0.567)
    rep_u = anticoncentration_trial(2, u, "10", 600, a=0.2, seed=3)
    rep_i = anticoncentration_trial(2, np.eye(2), "00", 600, a=0.2, seed=3)
    assert abs(rep_u.mean_p - rep_u.theory_mean) <= 5 * rep_u.mean_se
    assert abs(rep_i.mean_p - rep_i.theory_mean) <= 5 * rep_i.mean_se


def test_trial_is_reproducible():
    rep1 = anticoncentration_trial(2, np.eye(2), "00", 120, seed=9)
    rep2 = anticoncentration_trial(2, np.eye(2), "00", 120, seed=9)
    assert np.array_equal(rep1.p_values, rep2.p_values)


@pytest.mark.parametrize(
    "n, u, y, draws, seed",
    [
        (1, HARD_U, "1", 120, 4),
        (2, linalg.rz(1.234) @ linalg.rx(0.567), "10", 200, 3),
        (6, HARD_U, "011010", 200, 5),
        (8, linalg.GATES["H"], "10000001", 100, 8),
    ],
    ids=["n1", "n2-y10", "n6-hard", "n8"],
)
def test_batched_trial_matches_per_draw_route(n, u, y, draws, seed):
    # the words run side by side over one block; each row must still see its own word
    rep = anticoncentration_trial(n, u, y, draws, a=0.2, seed=seed)
    ref = anticoncentration_p_values(n, u, y, draws, seed)
    assert np.max(np.abs(rep.p_values - ref)) <= 1e-14
    assert rep.tail_fraction() == float(np.mean(ref >= 0.2 / 2**n))


def test_trial_chunks_keep_the_draw_order(monkeypatch):
    whole = anticoncentration_trial(3, HARD_U, "010", 130, seed=12)
    chunks = []
    apply_forms = experiments.apply_canonical_forms

    def recording(forms, block):
        f1, hs, f2 = forms
        assert len(f1.sign) == len(hs) == len(f2.sign) == len(block)
        chunks.append(len(block))
        return apply_forms(forms, block)

    monkeypatch.setattr(experiments, "MAX_BLOCK_AMPLITUDES", 40 * 2**3)
    monkeypatch.setattr(experiments, "apply_canonical_forms", recording)
    chunked = anticoncentration_trial(3, HARD_U, "010", 130, seed=12)
    assert chunks == [40, 40, 40, 10]
    assert np.max(np.abs(chunked.p_values - whole.p_values)) <= 1e-14


# sha256 of p_values.tobytes(), recorded before the draws were batched: one
# chunk of 3000 one-qubit draws, and 25 chunks of 4 at n = 16, the dense cap
P_VALUE_DIGESTS = {
    (1, "1", 3000, 31): "bbc48eac00a3cc2a2cfa82fc9dd03b17a6784eb74cd8e5f52d88f7c331acaed1",
    (16, "0110100110010110", 100, 32): "c8a796e89c757bafb09a52dbcca351dc44791665d358480c3a17e46d9caf341b",
}


@pytest.mark.parametrize("n, y, draws, seed", list(P_VALUE_DIGESTS), ids=["n1-3000", "n16-100"])
def test_trial_p_values_at_the_chunk_edges(n, y, draws, seed):
    rep = anticoncentration_trial(n, HARD_U, y, draws, seed=seed)
    assert hashlib.sha256(rep.p_values.tobytes()).hexdigest() == P_VALUE_DIGESTS[n, y, draws, seed]


def test_trial_validation():
    with pytest.raises(ValueError):
        anticoncentration_trial(3, np.eye(2), "000", 50)
    with pytest.raises(ValueError):
        anticoncentration_trial(0, np.eye(2), "", 200)
    with pytest.raises(CapabilityError):
        anticoncentration_trial(99, np.eye(2), "0" * 99, 200)
    with pytest.raises(ValueError):
        anticoncentration_trial(3, np.eye(2), "00", 200)
    with pytest.raises(ValueError):
        anticoncentration_trial(3, np.eye(2), "000", 200, a=1.5)


def test_trial_past_the_batch_width_is_refused_before_any_state(monkeypatch):
    # a raised cap lets n = 32 through check_dense_cap; the batch draw must
    # refuse it before the 2^32-amplitude reference states are built
    def no_states(*_):
        raise AssertionError("a 2^n state was built")

    monkeypatch.setenv(linalg.DENSE_CAP_ENV, "32")
    monkeypatch.setattr(experiments, "reduce", no_states)
    with pytest.raises(CapabilityError, match="n <= 31; got n=32"):
        anticoncentration_trial(32, np.eye(2), "0" * 32, 200)


# -- anticoncentration at n <= 2, exactly, over the whole Clifford group ----------

# P(p >= 0.2 / 2^n) over every Clifford class mod phase, for the hard U; at
# n=2 it is 9750 of the 11520 classes for each y
EXACT_TAILS = {1: Fraction(22, 24), 2: Fraction(9750, 11520)}
# E[p^4] over every class.  The Clifford group is a 3-design but not a
# 4-design, so the fourth moment depends on U.  With U = H both states are
# stabilizer states; at n=1 the orbit of |+> is the 6 stabilizer states, 1
# at overlap 1 and 4 at overlap 1/2, so E[p^4] = (1 + 4/16)/6 = 5/24.  The
# hard U's values are pinned as computed (within 4e-16 of 1229/6144 and
# 300797/10485760); they agree for every y to 1e-16.
STABILIZER_FOURTH_MOMENTS = {1: 5 / 24, 2: 1 / 32}
HARD_FOURTH_MOMENTS = {1: 0.20003255208333304, 2: 0.028686237335204975}


def class_unitaries(n):
    if n == 2:
        return _clifford_table()[1]
    return np.array([to_unitary(CliffordCircuit(n, w)) for w in enumerate_clifford_words(n)[0]])


def exact_p_values(u, y):
    """<y| U^(x)n-dagger C U^(x)n |0^n>, squared, for every class C."""
    n = len(y)
    psi = reduce(np.kron, [u[:, 0]] * n)
    phi = reduce(np.kron, [u[:, int(bit)] for bit in y])
    return np.abs(np.einsum("i,kij,j->k", phi.conj(), class_unitaries(n), psi)) ** 2


@pytest.mark.parametrize("y, seed", [("0", 71), ("1", 72), ("00", 73), ("01", 74), ("11", 75)])
def test_anticoncentration_exact_by_enumeration(y, seed):
    n = len(y)
    d = 2**n
    p = exact_p_values(HARD_U, y)
    assert len(p) == (24 if n == 1 else 11520)
    # the 2-design values the report prints as theory are the exact moments
    rep = anticoncentration_trial(n, HARD_U, y, 3000, a=0.2, seed=seed)
    assert abs(p.mean() - rep.theory_mean) <= 1e-15
    assert abs(np.mean(p**2) - rep.theory_second_moment) <= 1e-15
    # the group is a 3-design too: E[p^3] = 3!/(d(d+1)(d+2)) for any U
    assert abs(np.mean(p**3) - 6 / (d * (d + 1) * (d + 2))) <= 1e-15
    # ...but not a 4-design: the fourth moment tells U = H from the hard U
    assert abs(np.mean(p**4) - HARD_FOURTH_MOMENTS[n]) <= 1e-15
    assert abs(np.mean(exact_p_values(linalg.GATES["H"], y) ** 4) - STABILIZER_FOURTH_MOMENTS[n]) <= 1e-15
    threshold = 0.2 / 2**n
    assert np.min(np.abs(p - threshold)) > 1e-12  # no class on the edge
    tail = EXACT_TAILS[n]
    assert Fraction(int(np.sum(p >= threshold)), len(p)) == tail
    # a fixed-seed trial lands within 4 standard errors of each exact value
    assert abs(rep.mean_p - rep.theory_mean) <= 4 * rep.mean_se
    assert abs(rep.mean_p_squared - rep.theory_second_moment) <= 4 * rep.second_moment_se
    assert abs(rep.tail_fraction() - tail) <= 4 * math.sqrt(tail * (1 - tail) / rep.num_samples)


@pytest.mark.slow
def test_moment_sweep_and_tails():
    # doubles as the uniformity test for random_clifford at larger n
    for n in range(3, 9):
        rep = anticoncentration_trial(n, np.eye(2), "0" * n, 2000, a=0.2, seed=60 + n)
        assert abs(rep.mean_p - rep.theory_mean) <= 5 * rep.mean_se, n
        assert (
            abs(rep.mean_p_squared - rep.theory_second_moment) <= 5 * rep.second_moment_se
        ), n
        # the Clifford group is a unitary 3-design, so E[p^3] is the Haar value too
        d = 2**n
        cubes = rep.p_values**3
        third_se = cubes.std(ddof=1) / math.sqrt(rep.num_samples)
        assert abs(cubes.mean() - 6 / (d * (d + 1) * (d + 2))) <= 5 * third_se, n
        for a in (0.1, 0.2, 0.5):
            floor = (1 - a) ** 2 / 2
            sigma = math.sqrt(floor * (1 - floor) / rep.num_samples)
            assert dataclasses.replace(rep, a=a).tail_fraction() >= floor - 3 * sigma, (n, a)
