"""Command-line front end.

Every command prints one JSON document: the result fields plus a fixed
envelope (command, version, seed, config) so a run can be reproduced from
its own output.  Exit codes: 0 success, 2 bad input, 3 capability refusal.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, experiments, linalg, mbqc
from .angles import parse_angle
from .ccc import (
    PWEAK,
    OutcomeDistribution,
    classify,
    decompose_unitary,
    dense_distribution,
    easy_reduction_distribution,
    make_instance,
    marginal_single_qubit,
    parse_unitary_spec,
    simulate_easy_weak,
)
from .errors import CapabilityError, ParseError
from .gadgets import (
    DEFAULT_BEAM_WIDTH,
    WORD_LENGTH_CAP,
    build_gadget_I,
    build_gadget_J,
    compile_word,
    gadget_action,
    parse_gadget_file,
    search_gadgets,
)
from .stabilizer import parse_tableau, random_clifford


def _load_instance(args, rng: np.random.Generator):
    """The (U, V) instance of --u and --circuit/--random-v; rng draws a random V."""
    spec = parse_unitary_spec(args.u)
    if args.circuit:
        v = parse_tableau(Path(args.circuit).read_text())
    elif args.random_v:
        v = random_clifford(args.random_v, rng)
    else:
        raise ValueError("provide a circuit with --circuit FILE or --random-v N")
    return make_instance(spec.matrix, v, spec.decomposition)


def _count(least: int):
    """An argparse type: an integer that is at least `least`."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return integer


def _fraction(text: str) -> Fraction:
    """An argparse type: an exact rational, such as 1/5 or 0.2, that a float can hold."""
    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a finite fraction: {text!r}") from None
    return value


def _matrix_json(m: np.ndarray) -> list:
    # + 0.0 turns the -0.0 that rounding noise of either sign leaves into 0.0;
    # np.round rounds as round() does on a numpy float, and tolist() gives floats
    return (np.stack([m.real, m.imag], axis=-1).round(10) + 0.0).tolist()


def _bits(width: int) -> list[str]:
    """The 2**width width-bit strings in counting order; a leading 1 keeps
    the zeros, and width 0 gives the one empty string."""
    return [format(i, "b")[1:] for i in range(2**width, 2 ** (width + 1))]


def _bitstrings(n: int) -> list[str]:
    """The 2**n n-bit strings in counting order, each joined from two halves
    formatted once apiece."""
    low = _bits(n // 2)
    return [high + rest for high in _bits(n - n // 2) for rest in low]


# values of exactly these types go to json's C encoder as they are; any other
# value, a subclass such as np.float64 too, is written by _dumps itself
_SCALARS = {str, int, float, bool, type(None)}


def _is_array(v) -> bool:
    """v is a non-empty list or tuple of such scalars or, again, such lists."""
    return type(v) in (list, tuple) and bool(v) and all(type(x) in _SCALARS or _is_array(x) for x in v)


def _array(v, tokens, pad: str) -> str:
    """An _is_array value indented pad deep, from the iterator of its
    scalars' tokens; a token carries the brackets its scalar opens and
    closes, and no encoded scalar starts with [ or ends with ]."""
    inner = pad + "  "
    items = [_array(x, tokens, inner) if type(x) in (list, tuple) else next(tokens).strip("[]") for x in v]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _dumps(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for obj
    nested pad deep.  `indent` switches json to its pure-Python encoder, so
    each non-empty container goes to the C encoder in one call, and only
    its layout is done here: a container of scalars in one call that puts
    its items one per line, and any other container in one call with a
    newline between tokens (no encoded key or scalar holds one), which is
    then indented.  Lists of scalars, nested to any depth, are written
    from that call; each other value goes in as 0 and is written by its
    own call."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    is_dict = isinstance(obj, dict)
    if set(map(type, obj.values() if is_dict else obj)) <= _SCALARS:
        text = json.dumps(obj, sort_keys=True, separators=(sep, ": "))
        return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
    keys = sorted(obj) if is_dict else range(len(obj))
    values = [obj[k] for k in keys]
    flat = [v if type(v) in _SCALARS or _is_array(v) else 0 for v in values]
    text = json.dumps(dict(zip(keys, flat)) if is_dict else flat, separators=("\n", "\n"))
    tokens = iter(text[1:-1].split("\n"))
    lines = []
    for v, f in zip(values, flat):
        key = next(tokens) + ": " if is_dict else ""
        if f is not v:
            next(tokens)
            lines.append(key + _dumps(v, inner))
        elif type(v) in _SCALARS:
            lines.append(key + next(tokens))
        else:
            lines.append(key + _array(v, tokens, inner))
    return f"{text[0]}\n{inner}{sep.join(lines)}\n{pad}{text[-1]}"


def cmd_classify(args) -> dict:
    spec = parse_unitary_spec(args.u)
    dec = spec.decomposition if spec.decomposition is not None else decompose_unitary(spec.matrix)
    verdict = classify(dec)
    result = {
        "case": verdict.case_tag,
        "class": verdict.complexity_class,
        "decomposition": {
            "alpha": str(dec.alpha),
            "phi": str(dec.phi),
            "theta": str(dec.theta),
            "lambda": str(dec.lam),
        },
    }
    if verdict.gamma_word is not None:
        result["canonical_gamma_word"] = list(verdict.gamma_word)
        result["canonical_lambda"] = str(verdict.canonical_lam)
    return result


def cmd_simulate(args) -> dict:
    instance = _load_instance(args, np.random.default_rng(args.seed))
    verdict = classify(instance.decomposition)
    method = args.method
    if method == "auto":
        method = "easy" if verdict.complexity_class == PWEAK else "dense"
    if method == "easy":
        dist = easy_reduction_distribution(instance)
    else:
        dist = dense_distribution(instance)
    return {
        "n": instance.n,
        "class": verdict.complexity_class,
        "method": method,
        "probabilities": dict(zip(_bitstrings(instance.n), dist.probs.tolist())),
    }


def cmd_sample(args) -> dict:
    rng = np.random.default_rng(args.seed)
    instance = _load_instance(args, rng)
    verdict = classify(instance.decomposition)
    if verdict.complexity_class == PWEAK:
        method = "stabilizer"
        samples = simulate_easy_weak(instance, rng, args.samples)
    else:
        linalg.check_dense_cap(
            instance.n, what=f"{verdict.complexity_class} U has no stabilizer route; dense sampling"
        )
        method = "dense"
        dist = dense_distribution(instance)
        draws = rng.choice(2**instance.n, size=args.samples, p=dist.probs)
        samples = [format(int(i), f"0{instance.n}b") for i in draws]
    return {"n": instance.n, "class": verdict.complexity_class, "method": method, "samples": samples}


def cmd_marginal(args) -> dict:
    instance = _load_instance(args, np.random.default_rng(args.seed))
    p0 = float(marginal_single_qubit(instance, args.qubit))
    return {"n": instance.n, "qubit": args.qubit, "p0": p0, "p1": 1.0 - p0}


def _builtin_gadget(args):
    phi = float(parse_angle(args.phi))
    theta = float(parse_angle(args.theta))
    build = build_gadget_I if args.builtin == "I" else build_gadget_J
    return build(phi, theta)


def cmd_gadget_analyze(args) -> dict:
    if args.file:
        if not args.u:
            raise ValueError("--file needs --u for the conjugating unitary")
        if args.phi != "0" or args.theta != "0":
            raise ValueError("--phi and --theta only feed --builtin; with --file, U comes from --u")
        gadget = parse_gadget_file(Path(args.file).read_text(), parse_unitary_spec(args.u).matrix)
    elif args.builtin:
        if args.u:
            raise ValueError("--u only feeds --file; --builtin builds U from --phi and --theta")
        gadget = _builtin_gadget(args)
    else:
        raise ValueError("provide --builtin I|J or --file PATH")
    action = gadget_action(gadget)
    return {
        "k": gadget.k,
        "l": gadget.l,
        "postselects_only_ancillas": bool(gadget.postselects_only_ancillas),
        "is_unitary": bool(action.is_unitary),
        "is_clifford": bool(action.is_clifford),
        "gamma": None if action.gamma is None else float(action.gamma),
        "pauli_conjugation": (
            ("CLIFFORD" if action.is_clifford else "UNITARY_NON_CLIFFORD")
            if action.is_unitary
            else "NON_UNITARY"
        )
        if gadget.l == 1
        else None,
        "action": _matrix_json(action.matrix),
    }


def cmd_gadget_search(args) -> dict:
    u = parse_unitary_spec(args.u).matrix
    found = search_gadgets(u, args.k)
    shown = [
        {
            "action": _matrix_json(linalg.normalized_action(act.matrix)),
            "postselect_set": list(g.postselect_set),
            "postselect_bits": list(g.postselect_bits),
            "ancilla_bits": list(g.ancilla_bits),
            "gamma_circuit": g.gamma.to_text(),
        }
        for g, act in found[: args.limit]
    ]
    return {"k": args.k, "num_classes": len(found), "classes": shown}


_GEN_TOKEN = re.compile(r"^([A-Za-z]+)(?:\(([^()]*)\))?$")


def _split_generator_tokens(text: str) -> list[str]:
    tokens, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            tokens.append(text[start:i].strip())
            start = i + 1
    tokens.append(text[start:].strip())
    return [t for t in tokens if t]


def _generator_matrix(token: str) -> np.ndarray:
    m = _GEN_TOKEN.match(token)
    if not m:
        raise ParseError(f"bad generator token {token!r}")
    name, argtext = m.group(1).upper(), m.group(2)
    angles = [float(parse_angle(a.strip())) for a in argtext.split(",")] if argtext else []
    if name in linalg.ONE_QUBIT_GATES:
        if angles:
            raise ParseError(f"gate {name} takes no angles")
        return linalg.gate(name)
    if name in ("RZ", "RX"):
        if len(angles) != 1:
            raise ParseError(f"{name} takes one angle, got {token!r}")
        return (linalg.rz if name == "RZ" else linalg.rx)(angles[0])
    if name in ("AI", "AJ"):
        if len(angles) == 1:
            angles = [0.0, angles[0]]
        if len(angles) != 2:
            raise ParseError(f"{name} takes (phi, theta) or (theta), got {token!r}")
        build = build_gadget_I if name == "AI" else build_gadget_J
        action = gadget_action(build(*angles))
        if not action.is_unitary:
            raise ValueError(
                f"{token} is not proportional to a unitary; pick angles where "
                f"the gadget action is unitary"
            )
        return linalg.normalized_action(action.matrix)
    if name in linalg.GATES:
        raise ParseError(f"generator {name} is a two-qubit gate")
    raise ParseError(f"unknown generator {name!r} in {token!r}")


def cmd_compile(args) -> dict:
    target = parse_unitary_spec(args.target).matrix
    tokens = _split_generator_tokens(args.generators)
    if not tokens:
        raise ValueError("empty generator list")
    generators = [_generator_matrix(t) for t in tokens]
    word, distance = compile_word(target, generators, args.max_length, args.beam_width)
    return {
        "generators": tokens,
        "max_length": args.max_length,
        "word": [tokens[i] for i in word],
        "word_length": len(word),
        "distance": distance,
    }


def cmd_anticonc(args) -> dict:
    u_spec = parse_unitary_spec(args.u)
    y = args.y if args.y is not None else "0" * args.n
    report = experiments.anticoncentration_trial(
        args.n,
        u_spec.matrix,
        y,
        args.samples,
        a=float(args.a),
        seed=args.seed,
        u_description=args.u,
    )
    result = report.as_dict()
    if args.csv:
        Path(args.csv).write_text("".join(f"{float(p)!r}\n" for p in report.p_values))
        result["csv_path"] = args.csv
    return result


def cmd_params(args) -> dict:
    params = experiments.supremacy_parameters(args.a, args.c, args.eps)
    return {
        "a": float(params.a),
        "c": float(params.c),
        "epsilon": float(params.epsilon),
        "fraction": float(params.fraction),
        "fraction_exact": str(params.fraction),
        "mult_error": float(params.mult_error),
        "mult_error_exact": str(params.mult_error),
        "valid": params.valid,
    }


def cmd_audit(args) -> dict:
    rng = np.random.default_rng(args.seed)
    instance = _load_instance(args, rng)
    exact = dense_distribution(instance)
    if args.approx_samples:
        samples = simulate_easy_weak(instance, rng, args.approx_samples)
        counts = np.bincount([int(y, 2) for y in samples], minlength=2**instance.n)
        approx = OutcomeDistribution(instance.n, counts / args.approx_samples)
        approx_method = "empirical_stabilizer"
    else:
        approx = easy_reduction_distribution(instance)
        approx_method = "exact_reduction"
    c = float(args.c)
    epsilon, threshold, fraction = experiments.markov_set_audit(exact, approx, c)  # checks 0 < c < 1
    return {
        "n": instance.n,
        "c": c,
        "approx_method": approx_method,
        "epsilon_realized": epsilon,
        "threshold": threshold,
        "fraction_within": fraction,
        "markov_floor": 1 - c,
    }


def _residual(actual: np.ndarray, reference: np.ndarray) -> float:
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    factor = actual[idx] / reference[idx]
    return float(np.max(np.abs(actual - factor * reference)))


def cmd_mbqc_check(args) -> dict:
    theta = parse_angle(args.theta)
    verdict = mbqc.universality_check(theta)
    t = float(theta)
    g0, g1 = mbqc.g_gadget(t, 0), mbqc.g_gadget(t, 1)
    return {
        "theta": str(theta),
        "universal": verdict.universal,
        "reason": verdict.reason,
        "irrational_witnesses": list(verdict.irrational_witnesses),
        "cos_angle_g0": verdict.cos_angle_g0,
        "cos_angle_g1": verdict.cos_angle_g1,
        "exact_cosines": [str(f) for f in verdict.exact_cosines]
        if verdict.exact_cosines is not None
        else None,
        "rotation_angle_g0": mbqc.rotation_angle(mbqc.g_closed_form(t, 0)),
        "rotation_angle_g1": mbqc.rotation_angle(mbqc.g_closed_form(t, 1)),
        "residual_g0": _residual(g0, mbqc.g_closed_form(t, 0)),
        "residual_g1": _residual(g1, mbqc.g_closed_form(t, 1)),
        "residual_cz": float(np.max(np.abs(mbqc.cz_between_gadget_wires(t) - linalg.GATES["CZ"]))),
        "residual_teleport": _residual(mbqc.teleport_chain("0"), linalg.GATES["H"]),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse_args
    call still returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="cccsim", description="conjugated Clifford circuit toolkit"
    )
    parser.add_argument(
        "--dense-cap",
        type=_count(0),
        help=f"override the dense statevector qubit cap ({linalg.DENSE_CAP_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn, command=name)
        return p

    p = add("classify", cmd_classify, help="classify a conjugating unitary")
    p.add_argument("--u", required=True, help="unitary spec (name, rz=/rx= tokens, or 8 reals)")

    for name, fn, text in (
        ("simulate", cmd_simulate, "exact outcome distribution"),
        ("sample", cmd_sample, "draw measurement outcomes"),
        ("marginal", cmd_marginal, "exact single-qubit marginal"),
        ("audit", cmd_audit, "Markov-set audit of the easy route"),
    ):
        p = add(name, fn, help=text)
        p.add_argument("--u", required=True)
        v = p.add_mutually_exclusive_group()
        v.add_argument("--circuit", help="circuit file")
        v.add_argument("--random-v", type=_count(1), help="draw a random n-qubit Clifford as V")
        p.add_argument("--seed", type=int, default=0)
        if name == "simulate":
            p.add_argument("--method", choices=("auto", "dense", "easy"), default="auto")
        elif name == "sample":
            p.add_argument("--samples", type=_count(0), default=10)
        elif name == "marginal":
            p.add_argument("--qubit", type=int, required=True)
        else:
            p.add_argument("--c", type=_fraction, default="1/5", help="Markov set parameter in (0,1)")
            p.add_argument(
                "--approx-samples",
                type=_count(0),
                default=0,
                help="audit an empirical histogram of this many weak samples "
                "instead of the exact reduction",
            )

    gadget = sub.add_parser("gadget", help="postselection gadget tools")
    gsub = gadget.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("analyze")
    p.set_defaults(func=cmd_gadget_analyze, command="gadget analyze")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--builtin", choices=("I", "J"))
    source.add_argument("--file", help="gadget description file")
    p.add_argument("--u", help="unitary spec (required with --file)")
    p.add_argument("--phi", default="0")
    p.add_argument("--theta", default="0")
    p = gsub.add_parser("search")
    p.set_defaults(func=cmd_gadget_search, command="gadget search")
    p.add_argument("--u", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--limit", type=_count(0), default=3, help="how many classes to print in full")

    p = add("anticonc", cmd_anticonc, help="anticoncentration Monte Carlo")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--u", default="I")
    p.add_argument("--y", help="outcome bitstring, default all zeros")
    p.add_argument("--a", type=_fraction, default="1/5", help="tail level in [0,1)")
    p.add_argument("--csv", help="write raw p values here, one per line")

    p = add("params", cmd_params, help="hardness-argument parameter arithmetic")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--c", type=_fraction, required=True)
    p.add_argument("--eps", type=_fraction, required=True)

    mb = sub.add_parser("mbqc", help="cluster-state gadget checks")
    msub = mb.add_subparsers(dest="subcommand", required=True)
    p = msub.add_parser("check")
    p.set_defaults(func=cmd_mbqc_check, command="mbqc check")
    p.add_argument("--theta", required=True, help="exact angle, e.g. pi*1/6")

    p = add("compile", cmd_compile, help="beam-search a gate word over generators")
    p.add_argument("--target", required=True, help="unitary spec for the target")
    p.add_argument(
        "--generators",
        required=True,
        help='comma list, e.g. "H,S,AJ(0,pi*1/3)" (AI/AJ are gadget actions)',
    )
    p.add_argument("--max-length", type=_count(0), default=WORD_LENGTH_CAP)
    p.add_argument("--beam-width", type=_count(1), default=DEFAULT_BEAM_WIDTH)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    saved_cap = os.environ.get(linalg.DENSE_CAP_ENV)
    if args.dense_cap is not None:
        os.environ[linalg.DENSE_CAP_ENV] = str(args.dense_cap)
    try:
        result = args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    finally:
        if args.dense_cap is not None:
            if saved_cap is None:
                os.environ.pop(linalg.DENSE_CAP_ENV, None)
            else:
                os.environ[linalg.DENSE_CAP_ENV] = saved_cap
    payload = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": {
            k: str(v) if isinstance(v, Fraction) else v
            for k, v in vars(args).items()
            if k not in ("func", "command", "seed") and v is not None
        },
        **result,
    }
    print(_dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
