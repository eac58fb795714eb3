"""Lattice specs shared by several test modules."""

import itertools
import math

from oscgeo.exact import PI
from oscgeo.lattices import Dim4Family, Dim6Family

# the criterion-7 families: 9 dim-4 and 51 dim-6 specs
CRITERION_7_SPECS = [
    Dim4Family(k, angle) for k in (1, 2, 3) for angle in (2 * PI, PI, PI / 2)
] + [
    Dim6Family(k, p, q, m)
    for k, p, q in itertools.product((1, 2, 3), repeat=3) if math.gcd(p, q) == 1
    for m in ((1, 2, 4) if q % 2 else (1,))
]
