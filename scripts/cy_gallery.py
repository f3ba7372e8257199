"""Print a gallery of Calabi-Yau complete intersections: for each manifold
its Euler number, chi_y genus, elliptic genus, and the coordinates of the
genus in the weight-0 weak Jacobi basis of index dim/2.

Usage: python scripts/cy_gallery.py [--order N]
"""

import argparse

from ellgenus.bundles import completely_reducible_bundle
from ellgenus.ci import CompleteIntersection, chern_number
from ellgenus.genus import chi_y, elliptic_genus
from ellgenus.homog import homogeneous_space
from ellgenus.jacobi import basis_half_integral, linear_fit, shifted_basis
from ellgenus.render import format_laurent

# (name, space type, crossed nodes, section weights)
GALLERY = (
    ("quartic K3", "A3", (1,), ((4, 0, 0),)),
    ("quintic threefold", "A4", (1,), ((5, 0, 0, 0),)),
    ("G2-flag CY threefold", "G2", (1, 2), ((2, 0), (0, 1), (0, 1))),
)


def build(space_type, crossed, section_weights):
    """The zero locus of a general section of the bundle with the given
    highest weights on G/P."""
    space = homogeneous_space(space_type, list(crossed))
    bundle = completely_reducible_bundle(space, list(section_weights))
    return CompleteIntersection(bundle)


def jacobi_coordinates(manifold, genus):
    """Exact coordinates of the genus in the weight-0 basis of index dim/2."""
    d = manifold.dimension()
    labels = [e.label() for e in basis_half_integral(0, d, prec=0)]
    coords = linear_fit(genus, shifted_basis(d, genus.q_order))
    return labels, coords


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=2,
                        help="number of q powers of the elliptic genus")
    args = parser.parse_args(argv)

    for name, space_type, crossed, section_weights in GALLERY:
        manifold = build(space_type, crossed, section_weights)
        d = manifold.dimension()
        genus = elliptic_genus(manifold, args.order)
        labels, coords = jacobi_coordinates(manifold, genus)
        print(f"== {name}  ({space_type}"
              f"{list(crossed)}, sections {list(section_weights)})")
        print(f"   dimension     {d}")
        print(f"   Euler number  {chern_number(manifold, [d])}")
        print(f"   chi_y         {format_laurent(sorted(chi_y(manifold).c.items()))}")
        print(f"   genus         {genus}")
        fit = " + ".join(f"{c} * y^{d // 2} * {l}"
                         for c, l in zip(coords, labels) if c)
        print(f"   Jacobi form   {fit}")
        print()


if __name__ == "__main__":
    main()
