from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgeo import normalizers
from oscgeo.exact import ExactScalar, PI, pi_coefficient
from oscgeo.group import GroupElement, invert, multiply
from oscgeo.lattices import Dim4Family, Dim6Family, ProductWithLine, UnsupportedSpec
from oscgeo.normalizers import (
    NormalizerTable,
    in_normalizer,
    normalizer_oracle,
    normalizer_table_report,
    verification_grid,
)

from lattice_specs import CRITERION_7_SPECS

TWO_PI = 2 * PI
HALF_PI = PI / 2


def _in_table(spec, v, t=0) -> bool:
    return NormalizerTable.for_spec(spec).contains(GroupElement(0, v, t))


class TestTableFactors:
    """Each factor kind decided at the table level, on rows that use it."""

    def test_i2_rows_take_each_pair_whole(self):
        spec = Dim6Family(2, 1, 1, 4)  # R x I2 x I2
        h = Fraction(1, 2)
        # a half-odd pair (with a negative entry) beside an integer pair
        assert _in_table(spec, (h, Fraction(-3, 2), 1, -2))
        assert _in_table(spec, (1, -2, Fraction(3, 2), h))
        # an integer mixed with a half-odd entry inside one pair
        assert not _in_table(spec, (1, h, 0, 0))
        assert not _in_table(spec, (0, 0, h, 2))
        # quarters are neither integers nor half-odd
        assert not _in_table(spec, (Fraction(1, 4), Fraction(1, 4), 0, 0))
        # v = num / den with den = 4: the first pair still reads as half-odd
        assert not _in_table(spec, (h, h, Fraction(1, 4), Fraction(3, 4)))
        assert _in_table(spec, (h, h, Fraction(2, 4), Fraction(6, 4)))

    def test_i4_row_takes_all_four_entries_whole(self):
        spec = Dim6Family(3, 1, 1, 4)  # R x I4
        h = Fraction(1, 2)
        assert _in_table(spec, (h,) * 4)
        assert _in_table(spec, (2,) * 4)
        assert _in_table(spec, (Fraction(-3, 2), h, h, Fraction(5, 2)))
        assert not _in_table(spec, (h, h, 1, 1))
        assert not _in_table(spec, (Fraction(1, 4),) * 4)

    def test_scaled_integer_rows(self):
        spec = Dim4Family(2, TWO_PI)  # R x Z^2/4
        assert _in_table(spec, (Fraction(1, 4), Fraction(-3, 4)))
        assert _in_table(spec, (Fraction(1, 2), 1))
        assert not _in_table(spec, (Fraction(1, 8), 0))
        spec = Dim6Family(2, 2, 1, 2)  # R x Z^2/2 x Z^2/4
        assert _in_table(spec, (Fraction(1, 2), 1, Fraction(1, 4), Fraction(3, 4)))
        assert _in_table(spec, (0, 0, Fraction(1, 4), 0))
        assert not _in_table(spec, (Fraction(1, 4), 0, 0, 0))
        spec = Dim6Family(1, 2, 1, 4)  # R x Z^2 x Z^2/2
        assert _in_table(spec, (1, -1, Fraction(1, 2), 0))
        assert not _in_table(spec, (Fraction(1, 2), 0, 0, 0))

    @pytest.mark.parametrize("spec, v", [
        (Dim6Family(2, 1, 1, 4), (1, 1)),      # a dim-4 element on a dim-6 row
        (Dim4Family(1, TWO_PI), (0, 0, 0, 0)),  # a dim-6 element on a dim-4 row
    ])
    def test_element_of_the_wrong_dimension_is_refused(self, spec, v):
        # equal slices per factor fit any length of v, so the length is checked first
        g = GroupElement(0, v, 0)
        with pytest.raises(ValueError, match="dimension"):
            in_normalizer(g, spec)
        with pytest.raises(ValueError, match="dimension"):
            NormalizerTable.for_spec(spec).contains(g)

    def test_t_factor_scales_with_q(self):
        spec = Dim6Family(1, 1, 3, 4)  # R x I4 x (3 pi/2) Z
        assert _in_table(spec, (0,) * 4, 3 * HALF_PI)
        assert _in_table(spec, (0,) * 4, -3 * PI)
        assert not _in_table(spec, (0,) * 4, HALF_PI)
        assert not _in_table(spec, (0,) * 4, ExactScalar(1))


class TestInNormalizer:
    def test_dim4_known_members(self):
        spec = Dim4Family(2, TWO_PI)
        # any z works: the center slot is a free factor
        for z in (ExactScalar(0), ExactScalar(Fraction(7, 5)), PI):
            assert in_normalizer(GroupElement(z, (Fraction(1, 4), 0), HALF_PI), spec)

    def test_dim4_quarter_turn_needs_integer_v_for_odd_k(self):
        spec = Dim4Family(1, HALF_PI)
        assert not in_normalizer(
            GroupElement(0, (Fraction(1, 2), 0), HALF_PI), spec
        )
        assert in_normalizer(GroupElement(0, (1, 0), HALF_PI), spec)

    def test_dim4_half_turn_family(self):
        spec = Dim4Family(2, PI)
        assert in_normalizer(GroupElement(0, (Fraction(1, 2), 0), 0), spec)
        assert not in_normalizer(GroupElement(0, (Fraction(1, 4), 0), 0), spec)

    def test_t_must_be_quarter_turn(self):
        spec = Dim4Family(1, TWO_PI)
        assert not in_normalizer(GroupElement(0, (0, 0), PI / 4), spec)
        assert not in_normalizer(GroupElement(0, (0, 0), ExactScalar(1)), spec)
        assert in_normalizer(GroupElement(0, (0, 0), -HALF_PI), spec)

    def test_dim6_t_condition_scales_with_q(self):
        spec = Dim6Family(1, 1, 3, 1)
        assert in_normalizer(GroupElement(0, (0,) * 4, 3 * HALF_PI), spec)
        assert not in_normalizer(GroupElement(0, (0,) * 4, HALF_PI), spec)

    def test_dim6_m4_i4_row(self):
        # p odd, k odd admits the all-half-odd vector
        spec = Dim6Family(1, 1, 1, 4)
        v = (Fraction(1, 2),) * 4
        assert in_normalizer(GroupElement(0, v, 0), spec)
        # mixed half-odd/integer pairs fail
        v_bad = (Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(1, 2))
        assert not in_normalizer(GroupElement(0, v_bad, 0), spec)

    def test_unsupported_families(self):
        with pytest.raises(UnsupportedSpec):
            in_normalizer(
                GroupElement.identity(1),
                ProductWithLine(Dim4Family(1, TWO_PI), w=1),
            )

    def test_rejects_float_elements(self):
        with pytest.raises(TypeError):
            in_normalizer(GroupElement(0.0, (0.0, 0.0), 0.0), Dim4Family(1, TWO_PI))


class TestOracle:
    def test_identity_and_central(self):
        spec = Dim4Family(1, TWO_PI)
        assert normalizer_oracle(GroupElement.identity(1), spec)
        assert normalizer_oracle(GroupElement(Fraction(9, 7), (0, 0), 0), spec)

    def test_non_quarter_pi_rational_angle_is_refused_membership(self):
        spec = Dim4Family(1, TWO_PI)
        assert not normalizer_oracle(GroupElement(0, (0, 0), PI / 3), spec)

    def test_rational_angle_part_with_quarter_pi_component(self):
        spec = Dim4Family(1, TWO_PI)
        assert not normalizer_oracle(
            GroupElement(0, (0, 0), ExactScalar(1, Fraction(1, 2))), spec
        )

    def test_compound_angle_is_refused_like_in_normalizer(self):
        # t = 1 + pi/3: the rational part leaves cos and sin of a block angle
        # not both rational, so the oracle answers without conjugating
        spec = Dim6Family(1, 1, 3, 1)
        g = GroupElement(0, (0,) * 4, ExactScalar(1, Fraction(1, 3)))
        assert normalizer_oracle(g, spec) is False
        assert in_normalizer(g, spec) is False

    def test_normalizer_is_a_subgroup_on_samples(self):
        spec = Dim4Family(2, HALF_PI)
        members = [
            GroupElement(Fraction(1, 3), (Fraction(1, 2), Fraction(1, 2)), HALF_PI),
            GroupElement(0, (1, 0), PI),
            GroupElement(Fraction(2), (0, 0), -HALF_PI),
        ]
        for g in members:
            assert in_normalizer(g, spec)
        for g in members:
            for h in members:
                prod = multiply(g, invert(h, spec.freqs), spec.freqs)
                assert in_normalizer(prod, spec)


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "spec",
        [
            Dim4Family(1, TWO_PI),
            Dim4Family(2, PI),
            Dim4Family(2, HALF_PI),
            Dim6Family(1, 1, 1, 1),
            Dim6Family(2, 3, 2, 1),
            Dim6Family(1, 2, 3, 2),
            Dim6Family(2, 1, 1, 4),
            Dim6Family(3, 2, 1, 4),
        ],
    )
    def test_full_grid_agreement(self, spec):
        for g in verification_grid(spec, min_points=200, max_points=220):
            assert in_normalizer(g, spec) == normalizer_oracle(g, spec), g.to_json()

    @pytest.mark.parametrize(
        "spec",
        [
            Dim4Family(4, HALF_PI),
            Dim6Family(4, 1, 1, 4),
            Dim6Family(4, 4, 1, 2),
            Dim6Family(1, 4, 3, 4),
            Dim6Family(4, 3, 4, 1),
        ],
    )
    def test_parameter_four_families_agree(self, spec):
        for g in verification_grid(spec, min_points=120, max_points=140):
            assert in_normalizer(g, spec) == normalizer_oracle(g, spec), g.to_json()


class TestPrintedTable:
    def test_serialization(self):
        table = NormalizerTable.for_spec(Dim4Family(2, TWO_PI))
        assert table.to_json()["normalizer"] == "R x Z^2/4 x (pi/2) Z"
        table6 = NormalizerTable.for_spec(Dim6Family(1, 1, 3, 4))
        assert table6.to_json()["normalizer"] == "R x I4 x (3 pi/2) Z"

    def test_m2_rows(self):
        even = NormalizerTable.for_spec(Dim6Family(2, 2, 1, 2))
        assert even.factors == ("R", "Z^2/2", "Z^2/4", "(pi/2) Z")
        odd = NormalizerTable.for_spec(Dim6Family(2, 1, 1, 2))
        assert odd.factors == ("R", "Z^4/2", "(pi/2) Z")

    def test_m4_rows(self):
        assert NormalizerTable.for_spec(Dim6Family(2, 2, 1, 4)).factors == (
            "R", "I2", "Z^2/4", "(pi/2) Z",
        )
        assert NormalizerTable.for_spec(Dim6Family(1, 2, 1, 4)).factors == (
            "R", "Z^2", "Z^2/2", "(pi/2) Z",
        )
        assert NormalizerTable.for_spec(Dim6Family(2, 1, 1, 4)).factors == (
            "R", "I2", "I2", "(pi/2) Z",
        )
        assert NormalizerTable.for_spec(Dim6Family(3, 1, 1, 4)).factors == (
            "R", "I4", "(pi/2) Z",
        )

    def test_agrees_with_conditions_where_it_is_correct(self):
        spec = Dim4Family(1, TWO_PI)
        assert normalizer_table_report(spec) == []
        spec = Dim6Family(1, 1, 1, 1)
        assert normalizer_table_report(spec, verification_grid(spec, 200, 220)) == []

    def test_quarter_turn_even_k_discrepancy_is_surfaced(self):
        # even k admits the half-odd square; the tabulated answer omits it
        spec = Dim4Family(2, HALF_PI)
        report = normalizer_table_report(spec)
        assert report, "expected a non-empty discrepancy report"
        g = GroupElement(0, (Fraction(1, 2), Fraction(1, 2)), 0)
        assert in_normalizer(g, spec) and normalizer_oracle(g, spec)
        assert not NormalizerTable.for_spec(spec).contains(g)
        for entry in report:
            assert entry["conditions"] != entry["table"]

    def test_p_two_mod_four_discrepancy_is_surfaced(self):
        # for p = 2 mod 4 the second pair must sit in (1/2)Z^2; the
        # tabulated row only asks for (1/2k)Z^2
        spec = Dim6Family(3, 2, 1, 4)
        g = GroupElement(0, (0, 0, Fraction(1, 6), 0), 0)
        assert NormalizerTable.for_spec(spec).contains(g)
        assert not in_normalizer(g, spec)
        assert not normalizer_oracle(g, spec)

    def test_table_membership_requires_exact(self):
        with pytest.raises(TypeError):
            NormalizerTable.for_spec(Dim4Family(1, TWO_PI)).contains(
                GroupElement(0.0, (0.0, 0.0), 0.0)
            )


class TestGrid:
    def test_grid_size_and_exactness(self):
        grid = verification_grid(Dim4Family(1, TWO_PI), min_points=500)
        assert len(grid) >= 500
        assert all(g.is_exact() for g in grid)

    def test_grid_subsampling(self):
        grid = verification_grid(Dim6Family(1, 1, 1, 1), min_points=500, max_points=600)
        assert 500 <= len(grid) <= 600

    def test_grid_hits_half_odd_and_thirds(self):
        grid = verification_grid(Dim4Family(2, HALF_PI))
        values = {c for g in grid for c in g.v}
        assert Fraction(1, 2) in values
        assert Fraction(1, 3) in values
        assert Fraction(3, 2) in values

    def test_grid_is_built_once_per_n_k_q(self):
        # the criterion-7 families: 60 specs, 12 distinct (n, k, q)
        specs = CRITERION_7_SPECS
        assert len(specs) == 60
        normalizers._grid.cache_clear()
        grids = {}
        for spec in specs:
            key = (spec.freqs.n, spec.k, getattr(spec, "q", 1))
            grid = verification_grid(spec, 500, 640)
            first = grids.setdefault(key, grid)
            assert first == grid, spec.to_json()
            # one build per class: the same element objects, not equal copies
            assert all(a is b for a, b in zip(first, grid)), spec.to_json()
        assert len(grids) == 12
        assert normalizers._grid.cache_info().misses == 12

    def test_returned_grid_is_a_fresh_list(self):
        spec = Dim6Family(2, 1, 3, 4)
        grid = verification_grid(spec, 500, 640)
        before = list(grid)
        grid.append(GroupElement.identity(2))
        grid[0] = GroupElement.identity(2)
        assert verification_grid(spec, 500, 640) == before
        assert verification_grid(Dim6Family(2, 3, 1, 1), 500, 640) != before  # another q


small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)
small_specs = st.one_of(
    st.builds(Dim4Family, st.integers(1, 3), st.sampled_from((TWO_PI, PI, HALF_PI))),
    st.builds(
        lambda k, pq, m: Dim6Family(k, *pq, m),
        st.integers(1, 3),
        st.sampled_from(((1, 1), (2, 1), (1, 3), (2, 3))),
        st.sampled_from((1, 2, 4)),
    ),
)
# t mixes quarter turns, other pi-rational angles and nonzero rational parts
angles = st.builds(
    ExactScalar,
    st.just(0) | small_fractions,
    st.integers(-8, 8).map(lambda m: Fraction(m, 4)) | small_fractions,
)


@settings(deadline=None)
@given(data=st.data())
def test_conditions_match_oracle_on_random_elements(data):
    spec = data.draw(small_specs)
    n2 = 2 * spec.freqs.n
    v = data.draw(st.lists(small_fractions, min_size=n2, max_size=n2))
    g = GroupElement(data.draw(small_fractions), v, data.draw(angles))
    assert in_normalizer(g, spec) == normalizer_oracle(g, spec)


def _table_by_fractions(table: NormalizerTable, g: GroupElement) -> bool:
    """The factor strings read on the Fraction view of v."""
    pc = pi_coefficient(g.t)
    if pc is None or Fraction(*pc) / Fraction(table.params.get("q", 1), 2) % 1:
        return False
    sets = table.factors[1:-1]
    size = len(g.v) // len(sets)
    for i, factor in enumerate(sets):
        part = g.v[i * size:(i + 1) * size]
        if factor in ("I2", "I4"):
            ok = {x.denominator for x in part} in ({1}, {2})
        else:
            ok = all((x * int(factor.partition("/")[2] or 1)).denominator == 1 for x in part)
        if not ok:
            return False
    return True


# integers and half-odd entries are frequent, so the I2 and I4 rows admit points
table_entries = (
    st.integers(-3, 3).map(Fraction)
    | st.integers(-3, 3).map(lambda m: Fraction(2 * m + 1, 2))
    | st.fractions(min_value=-2, max_value=2, max_denominator=12)
)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_table_membership_matches_the_fraction_reading(data):
    spec = data.draw(small_specs)
    n2 = 2 * spec.freqs.n
    v = data.draw(st.lists(table_entries, min_size=n2, max_size=n2))
    g = GroupElement(data.draw(small_fractions), v, data.draw(angles))
    table = NormalizerTable.for_spec(spec)
    assert table.contains(g) == _table_by_fractions(table, g)


def test_report_lists_all_three_answers():
    spec = Dim4Family(2, HALF_PI)
    grid = verification_grid(spec, 200, 220)
    report = normalizer_table_report(spec, grid)
    assert report
    table = NormalizerTable.for_spec(spec)
    by_element = {str(e["element"]): e for e in report}
    for g in grid:
        answers = (in_normalizer(g, spec), normalizer_oracle(g, spec), table.contains(g))
        entry = by_element.get(str(g.to_json()))
        if len(set(answers)) == 1:
            assert entry is None
        else:
            assert (entry["conditions"], entry["oracle"], entry["table"]) == answers
