"""Tabulate every Chern number of a homogeneous space: one row per
partition of the dimension, computed exactly by fixed-point localization
in one pass for the whole table.

Usage: python scripts/grassmann_numbers.py [--space A4[3]]
"""

import argparse
import time

from ellgenus.ci import chern_numbers
from ellgenus.cli import parse_space
from ellgenus.homog import homogeneous_space


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
    parser.add_argument("--space", default="A4[3]",
                        help="space label, e.g. A4[3] for Gr(3,5)")
    args = parser.parse_args(argv)

    letter, rank, crossed = parse_space(args.space)
    space = homogeneous_space(f"{letter}{rank}", list(crossed))
    dim = space.dimension()
    print(f"{args.space}: dimension {dim}, "
          f"{space.fixed_point_count()} fixed points")

    start = time.perf_counter()
    parts = [list(p) for p in partitions(dim)]
    values = chern_numbers(space, parts)
    elapsed = time.perf_counter() - start
    labels = [monomial_label(p) for p in parts]
    width = max(len(label) for label in labels)
    for label, value in zip(labels, values):
        print(f"  {label:<{width}}  {value}")
    print(f"exact table in {elapsed:.2f}s")


if __name__ == "__main__":
    main()
