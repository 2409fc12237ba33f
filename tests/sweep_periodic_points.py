"""Sweep ``periodic_points`` against the branch-word enumeration.

Draws admissible (alpha, lam, beta) at random from a fixed seed, and for each
compares ``periodic_points(p, n)`` with ``oracles.enumerated_periodic_points``
for n = 1..12.  Prints three counts: answers that are bit-identical, answers of
the same length whose values agree within 1e-12, and the rest, followed by up
to five of the rest.  Not a pytest module; run it from the repository root:

    PYTHONPATH=src python tests/sweep_periodic_points.py --count 10000 --seed 0

alpha is drawn from [0.005, 0.5], lam from (0, bound(alpha)) where the bound is
the admissibility condition's, and beta from [0, alpha].
"""

from __future__ import annotations

import argparse
import math
import random
import time

from oracles import enumerated_periodic_points

from steiner_ladder.dynamics import condition_holds, derive_params, periodic_points


def draw(rng: random.Random) -> tuple[float, float, float]:
    while True:
        alpha = rng.uniform(0.005, 0.5)
        bound = (math.cos(math.pi / 3 + alpha) / math.cos(math.pi / 3 - alpha)) ** 2
        lam = rng.uniform(0.0, bound)
        if lam > 0.0 and condition_holds(alpha, lam):
            return alpha, lam, rng.uniform(0.0, alpha)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10_000, help="parameter triples to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    identical = close = 0
    other = []
    start = time.perf_counter()
    for _ in range(args.count):
        alpha, lam, beta = draw(rng)
        p = derive_params(alpha, lam, beta)
        for period in range(1, 13):
            got = periodic_points(p, period)
            want = enumerated_periodic_points(p, period)
            if got == want:
                identical += 1
            elif len(got) == len(want) and all(abs(a - b) <= 1e-12 for a, b in zip(got, want)):
                close += 1
            else:
                other.append((alpha, lam, beta, period, got, want))
    print(f"{args.count} triples x periods 1..12, seed {args.seed}, "
          f"{time.perf_counter() - start:.1f} s")
    print(f"bit-identical: {identical}")
    print(f"within 1e-12: {close}")
    print(f"other: {len(other)}")
    for alpha, lam, beta, period, got, want in other[:5]:
        print(f"  alpha={alpha!r} lam={lam!r} beta={beta!r} period={period}: "
              f"{got} vs enumeration {want}")


if __name__ == "__main__":
    main()
