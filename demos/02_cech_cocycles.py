"""Sheet localizations and transported structure cocycles.

The rank-one sign cocycle on the two-element group transports through the
double-cover equivalence to a "carry" cocycle on the translation
groupoid: the value is -1 exactly when moving a section point along an
arrow wraps past the seam of the cyclic carrier.  Different section
choices change the representative only by an explicit coboundary.
"""

import numpy as np

from orbikit import double_cover_bitorsor, localize_cech
from orbikit.cocycles import (
    cohomologous,
    default_sections,
    induce_cocycle,
    induced_bundle,
    reconstruct_bundle,
    sections_from_offsets,
    sign_cocycle,
    validate_cocycle,
)
from orbikit.groupoids import trivial_cover

N = 3
theta, xi, b = double_cover_bitorsor(N)
loc, cech_x, cech_y = localize_cech(b, trivial_cover(theta), trivial_cover(xi))
sign = sign_cocycle(cech_x, lambda arrow: -1 if arrow[0] == 1 else 1)

beta = default_sections(loc)
induced = induce_cocycle(loc, sign, beta)
print("induced cocycle valid:", validate_cocycle(induced).ok)

print("\narrow (a, y): y -> y + a mod N        value   wraps past the seam")
for arrow in cech_y.arrows:
    (a, y), _, _ = arrow
    value = int(induced.entries[arrow][0, 0])
    wraps = (y + a) // N
    print(f"  ({a}, {y}) -> {(y + a) % N:14d} {value:12d}   {wraps}")

other = induce_cocycle(loc, sign, sections_from_offsets(loc, 1))
lam = cohomologous(induced, other)
print("\nsecond section family gives a cohomologous cocycle; coboundary:")
for obj in sorted(lam, key=repr):
    print(f"  lambda{obj} = {int(lam[obj][0, 0])}")

bundle = reconstruct_bundle(sign_cocycle(theta, lambda arr: -1 if arr == 1 else 1))
moved = induced_bundle(b, bundle)
agree = all(
    np.array_equal(moved.entries[arrow[0]], induced.entries[arrow])
    for arrow in cech_y.arrows
)
print("\nbundle transport matches the cocycle transport entrywise:", agree)
