"""Lattice specs shared by several test modules."""

import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from oscgeo.algebra import FrequencyList
from oscgeo.exact import PI
from oscgeo.lattices import Dim4Family, Dim6Family, ProductForm

# the criterion-7 families: 9 dim-4 and 51 dim-6 specs
CRITERION_7_SPECS = [
    Dim4Family(k, angle) for k in (1, 2, 3) for angle in (2 * PI, PI, PI / 2)
] + [
    Dim6Family(k, p, q, m)
    for k, p, q in itertools.product((1, 2, 3), repeat=3) if math.gcd(p, q) == 1
    for m in ((1, 2, 4) if q % 2 else (1,))
]


@st.composite
def product_forms(draw):
    """(1/2k)Z x Z^{2n} x t0 Z with n in 1..4, positive rational frequencies,
    k in 1..3 and t0 = 1..4 quarter-turn units m (pi/2) L / G of the
    frequencies (`FrequencyList.quarter_turns`)."""
    n = draw(st.integers(1, 4))
    lambdas = draw(st.lists(st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)),
                            min_size=n, max_size=n))
    freqs = FrequencyList(lambdas)
    lcm, two_gcd, _ = freqs.quarter_turns
    t0 = PI * Fraction(draw(st.integers(1, 4)) * lcm, two_gcd)
    return ProductForm(freqs, draw(st.integers(1, 3)), t0)
