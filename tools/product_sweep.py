"""Time the two numerator routes of `specialized_gf` against each other.

    python3 tools/product_sweep.py               # seeds 3, 4 and 5
    python3 tools/product_sweep.py --seeds 7 8

For each seed it draws random connected graphs of 3 to 12 vertices, takes
one Laplacian minor and one specialization mode of each, and keeps the
cones with d > 1, positive ray exponents s and gcd(d, s) = 1, up to 9 in
each half-decade of slots (d - 1)*sum(s) + 1 from 100 to 200,000.  On each
it times, in process, the product route (`_product_numerator`, with its
check of d by `determinant`) and the DP route (`adjugate_pair` for R,
then `_numerator`), best of 7 runs, or of 3 above 30,000 slots, after
checking that both give the same numerator.  It prints one line per cone,
then per bin the product's time over the DP's and how many cones the
product won, and the cones on each side of `_PRODUCT_SLOTS`.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lapcomp import Graph, SimplicialCone, laplacian_minor  # noqa: E402
from lapcomp import cone_engine  # noqa: E402
from lapcomp.exact_linalg import adjugate_pair  # noqa: E402

PER_BIN = 9
BINS = [(100, 300), (300, 1_000), (1_000, 3_000), (3_000, 6_000), (6_000, 10_000),
        (10_000, 30_000), (30_000, 100_000), (100_000, 200_001)]


def best(f, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        f()
        times.append(time.perf_counter() - start)
    return min(times)


def sample(seed: int) -> list[tuple]:
    """(slots, n, d, product ms, R + DP ms) of the cones drawn at `seed`."""
    rng = random.Random(seed)
    per_bin, rows = {}, []
    for _ in range(6000):
        v = rng.randint(3, 12)
        edges = {(rng.randrange(b), b) for b in range(1, v)}
        free = [(a, b) for a in range(v) for b in range(a + 1, v) if (a, b) not in edges]
        edges |= set(rng.sample(free, rng.randint(1, min(len(free), 2 * v))))
        cone = SimplicialCone(laplacian_minor(Graph(v, sorted(edges)), rng.randrange(v)))
        A, d = cone.A, cone.d
        s = cone_engine._ray_exponents(cone)[rng.randrange(2)]
        if d == 1 or d > 3000 or min(s) <= 0 or math.gcd(d, *s) != 1:
            continue
        slots = (d - 1) * sum(s) + 1
        # Half-decade bins, so that every size is sampled alike.
        key = int(2 * math.log10(slots))
        if not 100 <= slots <= 200_000 or per_bin.get(key, 0) >= PER_BIN:
            continue
        per_bin[key] = per_bin.get(key, 0) + 1
        product = cone_engine._product_numerator(A, d, s)
        if product != cone_engine._numerator(A, adjugate_pair(A)[1], d, s):
            raise AssertionError(f"routes disagree on seed {seed}, slots {slots}")
        reps = 7 if slots <= 30_000 else 3
        tp = best(lambda: cone_engine._product_numerator(A, d, s), reps)
        tr = best(lambda: cone_engine._numerator(A, adjugate_pair(A)[1], d, s), reps)
        rows.append((slots, A.rows, d, 1e3 * tp, 1e3 * tr))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 4, 5])
    args = parser.parse_args(argv)
    rows = sorted(row for seed in args.seeds for row in sample(seed))
    print(f"{'slots':>8} {'n':>3} {'d':>5} {'product_ms':>11} {'R+DP_ms':>9} {'ratio':>6}")
    for slots, n, d, tp, tr in rows:
        print(f"{slots:>8} {n:>3} {d:>5} {tp:>11.3f} {tr:>9.3f} {tp / tr:>6.2f}")
    print(f"\n{'slots':>17} {'cones':>5} {'ratio':>11} {'won':>4}")
    for lo, hi in BINS:
        ratios = [tp / tr for slots, _, _, tp, tr in rows if lo <= slots < hi]
        if ratios:
            won = sum(r < 1 for r in ratios)
            print(f"{lo:>8}-{hi - 1:<8} {len(ratios):>5} "
                  f"{min(ratios):>5.2f}-{max(ratios):<5.2f} {won:>4}")
    cap = cone_engine._PRODUCT_SLOTS
    under = [tp / tr for slots, _, _, tp, tr in rows if slots <= cap]
    over = [tp / tr for slots, _, _, tp, tr in rows if slots > cap]
    lost = [slots for slots, _, _, tp, tr in rows if tp >= tr]
    print(f"\nat most _PRODUCT_SLOTS = {cap}: the product won {sum(r < 1 for r in under)} "
          f"of {len(under)}, worst ratio {max(under, default=0):.2f}")
    print(f"over it: the product won {sum(r < 1 for r in over)} of {len(over)}")
    print(f"smallest cone the product lost: {min(lost, default=None)} slots")
    return 0


if __name__ == "__main__":
    sys.exit(main())
