"""Compile a target single-qubit unitary from a Clifford-plus-gadget generator
set and print the best phase-invariant distance at each word-length budget.
The curve should be monotone non-increasing; how fast it falls tells you how
useful the injected non-Clifford gate is.

Usage: python3 scripts/run_compile_curve.py --target "rz=pi*1/4" --max-length 12
"""

import argparse
import math
import time

from cccsim.ccc import parse_unitary_spec
from cccsim.gadgets import build_gadget_J, compile_word, gadget_action
from cccsim.linalg import GATES, normalized_action


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--target", default="rz=pi*1/4")
    parser.add_argument("--theta", type=float, default=math.pi / 3,
                        help="injection angle for the always-unitary gadget")
    parser.add_argument("--max-length", type=int, default=12)
    parser.add_argument("--beam-width", type=int, default=5000)
    args = parser.parse_args()

    target = parse_unitary_spec(args.target).matrix
    generators = [
        GATES["H"],
        GATES["S"],
        normalized_action(gadget_action(build_gadget_J(0.0, args.theta)).matrix),
    ]
    print(f"target {args.target}, generators H, S, AJ(theta={args.theta:.4f})")
    print(f"{'budget':>7} {'distance':>12} {'word':<40} {'secs':>6}")
    for budget in range(1, args.max_length + 1):
        start = time.perf_counter()
        word, dist = compile_word(target, generators, budget,
                                  beam_width=args.beam_width)
        elapsed = time.perf_counter() - start
        label = " ".join(("H", "S", "AJ")[i] for i in word) or "(empty)"
        print(f"{budget:>7} {dist:>12.6f} {label:<40} {elapsed:>6.2f}")


if __name__ == "__main__":
    main()
