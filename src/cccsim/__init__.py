"""Conjugated Clifford circuits: classification, simulation, gadgets."""

from .angles import ExactAngle, parse_angle
from .ccc import (
    PH_SUPREME,
    PWEAK,
    classify,
    decompose_unitary,
    dense_distribution,
    make_instance,
    marginal_single_qubit,
    outcome_probability,
    parse_unitary_spec,
    simulate_easy_weak,
    tv_distance,
)
from .errors import CapabilityError, InvariantError, ParseError
from .gadgets import build_gadget_I, build_gadget_J, gadget_action, search_gadgets
from .stabilizer import CliffordCircuit, CliffordTableau, PauliString, random_clifford

__version__ = "0.3.0"

__all__ = [
    "CapabilityError",
    "CliffordCircuit",
    "CliffordTableau",
    "ExactAngle",
    "InvariantError",
    "ParseError",
    "PauliString",
    "PH_SUPREME",
    "PWEAK",
    "build_gadget_I",
    "build_gadget_J",
    "classify",
    "decompose_unitary",
    "dense_distribution",
    "gadget_action",
    "make_instance",
    "marginal_single_qubit",
    "outcome_probability",
    "parse_angle",
    "parse_unitary_spec",
    "random_clifford",
    "search_gadgets",
    "simulate_easy_weak",
    "tv_distance",
]
