"""Tabulate every Chern number of a homogeneous space: one row per
partition of the dimension, computed exactly by fixed-point localization
in one pass for the whole table, with an optional float-mode cross-check
(one more pass).

Usage: python scripts/grassmann_numbers.py [--space A4[3]] [--seed N] [--float]
"""

import argparse
import random
import time
from dataclasses import dataclass

from ellgenus.ci import chern_numbers
from ellgenus.cli import parse_space
from ellgenus.homog import homogeneous_space


@dataclass(frozen=True)
class TableConfig:
    space: str = "A4[3]"
    check_float: bool = False
    seed: int = 0


def partitions(n, largest=None):
    """Partitions of n as descending tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def monomial_label(degrees):
    parts = []
    for d in sorted(set(degrees), reverse=True):
        e = degrees.count(d)
        parts.append(f"c{d}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--space", default=TableConfig.space,
                        help="space label, e.g. A4[3] for Gr(3,5)")
    parser.add_argument("--float", dest="check_float", action="store_true",
                        help="also integrate in float mode and compare")
    parser.add_argument("--seed", type=int, default=TableConfig.seed,
                        help="seed for the float-mode evaluation points")
    args = parser.parse_args(argv)
    config = TableConfig(args.space, args.check_float, args.seed)

    letter, rank, crossed = parse_space(config.space)
    space = homogeneous_space(f"{letter}{rank}", list(crossed))
    dim = space.dimension()
    print(f"{config.space}: dimension {dim}, "
          f"{space.fixed_point_count()} fixed points")

    start = time.perf_counter()
    parts = [list(p) for p in partitions(dim)]
    values = chern_numbers(space, parts)
    elapsed = time.perf_counter() - start
    approx = (chern_numbers(space, parts, mode="float",
                            rng=random.Random(config.seed))
              if config.check_float else [None] * len(parts))
    labels = [monomial_label(p) for p in parts]
    width = max(len(label) for label in labels)
    for label, value, close in zip(labels, values, approx):
        line = f"  {label:<{width}}  {value}"
        if config.check_float:
            status = "ok" if close == value else "MISMATCH"
            line += f"   float: {close}  ({status})"
        print(line)
    print(f"exact table in {elapsed:.2f}s")


if __name__ == "__main__":
    main()
