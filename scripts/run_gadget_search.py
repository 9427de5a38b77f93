"""Classify a conjugating unitary, then brute-force the two-wire postselection
gadgets built from it and report what non-Clifford actions fall out.

Usage: python3 scripts/run_gadget_search.py --u "rz=pi*1/3 rx=pi*1/2" --limit 5
"""

import argparse
import time

import numpy as np

from cccsim.ccc import classify, decompose_unitary, parse_unitary_spec
from cccsim.gadgets import search_gadgets


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--u", default="rz=pi*1/3 rx=pi*1/2",
                        help="unitary spec, e.g. 'T', 'rz=0.7 rx=pi*1/2', or 8 reals")
    parser.add_argument("--k", type=int, default=2, help="gadget wire count")
    parser.add_argument("--limit", type=int, default=5,
                        help="how many witnesses to print")
    args = parser.parse_args()

    spec = parse_unitary_spec(args.u)
    u = spec.matrix
    verdict = classify(spec.decomposition or decompose_unitary(u))
    print(f"U = {args.u}")
    print(f"classification: case {verdict.case_tag}, {verdict.complexity_class}")

    start = time.perf_counter()
    witnesses = search_gadgets(u, args.k)
    elapsed = time.perf_counter() - start
    print(f"search over k={args.k} wires: {len(witnesses)} non-Clifford gadget "
          f"classes in {elapsed:.2f}s")
    if not witnesses:
        print("no witnesses, consistent with a weak-class conjugation")
        return

    for gadget, act in witnesses[: args.limit]:
        top = np.round(act.matrix, 4)
        print(f"  ancillas={gadget.ancilla_bits} postselect wires="
              f"{gadget.postselect_set} bits={gadget.postselect_bits}  "
              f"action row0 = {top[0]}")


if __name__ == "__main__":
    main()
