"""Sweep qubit counts and compare empirical Clifford-conjugation moments against
the 2-design predictions (mean 2^-n, second moment 2(1 - 2^-n)/(4^n - 1)),
plus the heavy-outcome tail fraction against the (1-a)^2/2 floor.

Usage: python3 scripts/run_anticoncentration.py --n-max 6 --samples 2000
"""

import argparse

import numpy as np

from cccsim.experiments import MIN_TRIAL_SAMPLES, anticoncentration_trial
from cccsim.linalg import GATES


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--a", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", help="optional path for raw p values, one row per n")
    args = parser.parse_args()
    if args.samples < MIN_TRIAL_SAMPLES:
        parser.error(f"--samples must be at least {MIN_TRIAL_SAMPLES}, got {args.samples}")
    if args.n_min > args.n_max:
        parser.error(f"--n-min {args.n_min} is above --n-max {args.n_max}")

    floor = (1 - args.a) ** 2 / 2
    print(f"{'n':>3} {'mean':>12} {'theory':>12} {'2nd moment':>12} {'theory':>12} "
          f"{'tail':>7} {'floor':>7}")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        report = anticoncentration_trial(
            n, GATES["H"], "0" * n, args.samples, a=args.a, seed=args.seed,
            u_description="H",
        )
        print(f"{n:>3} {report.mean_p:>12.5e} {report.theory_mean:>12.5e} "
              f"{report.mean_p_squared:>12.5e} {report.theory_second_moment:>12.5e} "
              f"{report.tail_fraction():>7.3f} {floor:>7.3f}")
        rows.append((n, report.p_values))

    if args.csv:
        with open(args.csv, "w") as fh:
            for n, ps in rows:
                fh.write(",".join([str(n)] + [repr(float(p)) for p in ps]) + "\n")
        print(f"wrote raw samples to {args.csv}")


if __name__ == "__main__":
    main()
