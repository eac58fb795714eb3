import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgeo.algebra import (
    AlgebraVector,
    CausalClass,
    FrequencyList,
    bracket,
    causal_class,
    gram_matrix,
    inner,
)
from oscgeo.exact import PI


def freqs(*lams):
    return FrequencyList(lams)


class TestFrequencyList:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            freqs(1, 0)
        with pytest.raises(ValueError):
            freqs(Fraction(-1, 2))

    def test_runs_consecutive(self):
        fl = freqs(2, 2, 5, 5, 5, 1)
        assert fl.runs() == [
            (Fraction(2), 2),
            (Fraction(5), 3),
            (Fraction(1), 1),
        ]
        assert fl.is_run_consecutive()

    def test_unsorted_input_grouped(self):
        fl = freqs(2, 1, 2)
        assert not fl.is_run_consecutive()
        assert fl.grouped().runs() == [(Fraction(1), 1), (Fraction(2), 2)]

    def test_json(self):
        fl = FrequencyList.from_json('["3/2", 1]')
        assert fl.lambdas == (Fraction(3, 2), Fraction(1))
        assert FrequencyList.from_json(fl.to_json()) == fl


class TestBracket:
    def test_x_y_gives_z(self):
        fl = freqs(1)
        out = bracket(AlgebraVector.X(1, 1), AlgebraVector.Y(1, 1), fl)
        assert out.coords() == AlgebraVector.Z(1).coords()

    def test_antisymmetry_on_self(self):
        fl = freqs(2, 3)
        x = AlgebraVector(1, [(2, 3), (4, 5)], 6)
        assert all(c == 0 for c in bracket(x, x, fl).coords())

    def test_t_against_mixed_vector(self):
        # [T, X1 + Y2] with lambda = (1, 3) is Y1 - 3 X2
        fl = freqs(1, 3)
        x = AlgebraVector.X(1, 2) + AlgebraVector.Y(2, 2)
        out = bracket(AlgebraVector.T(2), x, fl)
        expected = AlgebraVector.Y(1, 2) + (-3) * AlgebraVector.X(2, 2)
        assert out.coords() == expected.coords()

    def test_matches_structure_constant_table(self):
        # brute-force structure constants from the defining relations
        fl = freqs(Fraction(1, 2), 3)
        n, dim = fl.n, fl.dim
        basis = AlgebraVector.basis(n)
        table = np.zeros((dim, dim, dim))
        for i in range(n):
            xi, yi = 1 + 2 * i, 2 + 2 * i
            table[xi][yi][0] = 1
            table[yi][xi][0] = -1
            table[dim - 1][xi][yi] = float(fl.lambdas[i])
            table[xi][dim - 1][yi] = -float(fl.lambdas[i])
            table[dim - 1][yi][xi] = -float(fl.lambdas[i])
            table[yi][dim - 1][xi] = float(fl.lambdas[i])
        rng = random.Random(7)
        for _ in range(20):
            u = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
            w = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
            direct = bracket(
                AlgebraVector.from_coords(u), AlgebraVector.from_coords(w), fl
            ).coords()
            via_table = np.einsum(
                "ijk,i,j->k",
                table,
                np.array([float(c) for c in u]),
                np.array([float(c) for c in w]),
            )
            assert np.allclose([float(c) for c in direct], via_table, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bracket(AlgebraVector.Z(1), AlgebraVector.Z(2), freqs(1, 2))


class TestInner:
    def test_z_t_pairing(self):
        fl = freqs(1)
        assert inner(AlgebraVector.Z(1), AlgebraVector.T(1), fl) == 1

    def test_z_is_null(self):
        fl = freqs(1)
        assert inner(AlgebraVector.Z(1), AlgebraVector.Z(1), fl) == 0

    def test_x_norm_scales_with_frequency(self):
        fl = freqs(2)
        assert inner(AlgebraVector.X(1, 1), AlgebraVector.X(1, 1), fl) == Fraction(1, 2)

    def test_signature(self):
        for lams in [(1,), (2, 3), (Fraction(1, 2), Fraction(1, 2), 5)]:
            g = np.array([[float(x) for x in row] for row in gram_matrix(freqs(*lams))])
            eigs = np.linalg.eigvalsh(g)
            assert (eigs < 0).sum() == 1
            assert (eigs > 0).sum() == 2 * len(lams) + 1


rational_lams = st.lists(
    st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=10),
    min_size=1,
    max_size=3,
)
small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def rand_vec(rng, n):
    return AlgebraVector(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        [
            (Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
             Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(n)
        ],
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


@settings(max_examples=40, deadline=None)
@given(lams=rational_lams, seed=st.integers(0, 10**6))
def test_ad_invariance_exact(lams, seed):
    fl = FrequencyList(lams)
    rng = random.Random(seed)
    x, y, w = (rand_vec(rng, fl.n) for _ in range(3))
    lhs = inner(bracket(x, y, fl), w, fl) + inner(y, bracket(x, w, fl), fl)
    assert lhs == 0


@settings(max_examples=40, deadline=None)
@given(lams=rational_lams, seed=st.integers(0, 10**6))
def test_jacobi_exact(lams, seed):
    fl = FrequencyList(lams)
    rng = random.Random(seed)
    x, y, w = (rand_vec(rng, fl.n) for _ in range(3))
    total = (
        bracket(x, bracket(y, w, fl), fl)
        + bracket(y, bracket(w, x, fl), fl)
        + bracket(w, bracket(x, y, fl), fl)
    )
    assert all(c == 0 for c in total.coords())


class TestCausalClass:
    def test_z_is_lightlike(self):
        assert causal_class(AlgebraVector.Z(1), freqs(1)) == CausalClass.LIGHTLIKE

    def test_z_minus_t_is_timelike(self):
        x = AlgebraVector(1, [(0, 0)], -1)
        assert causal_class(x, freqs(1)) == CausalClass.TIMELIKE

    def test_x_is_spacelike(self):
        assert causal_class(AlgebraVector.X(1, 1), freqs(1)) == CausalClass.SPACELIKE

    @given(s=st.fractions(max_denominator=20).filter(lambda q: q != 0))
    def test_scale_invariance(self, s):
        fl = freqs(1, 2)
        for x in (
            AlgebraVector(1, [(0, 0), (0, 0)], -1),
            AlgebraVector.X(1, 2),
            AlgebraVector.Z(2),
            AlgebraVector(Fraction(-1, 2), [(1, 0), (0, 0)], 1),  # lightlike
        ):
            assert causal_class(s * x, fl) == causal_class(x, fl)

    def test_pi_valued_d(self):
        x = AlgebraVector(PI, [(0, 0)], 1)  # 2ad = 2 pi
        assert causal_class(x, freqs(1)) == CausalClass.SPACELIKE

    def test_pi_valued_d_and_a(self):
        x = AlgebraVector(PI, [(0, 0)], PI)  # 2ad = 2 pi^2
        assert causal_class(x, freqs(1)) == CausalClass.SPACELIKE

    def test_pi_valued_b(self):
        x = AlgebraVector(0, [(PI, 0)], 0)  # b^2 / lambda = pi^2 / 2
        assert causal_class(x, freqs(2)) == CausalClass.SPACELIKE

    def test_pi_valued_entries_timelike(self):
        x = AlgebraVector(-PI, [(PI, 0)], PI)  # -2 pi^2 + pi^2
        assert causal_class(x, freqs(1)) == CausalClass.TIMELIKE

    def test_float_mode_tolerance(self):
        x = AlgebraVector(1.0, [(1e-8, 0.0)], -1e-17)
        assert causal_class(x, freqs(1)) == CausalClass.LIGHTLIKE


class TestAlgebraVectorValue:
    """AlgebraVector is a frozen value: fields fixed, equality and hash by value."""

    @pytest.mark.parametrize("field", ["d", "bc", "a"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        x = AlgebraVector(1, [(2, 3)], 4)
        with pytest.raises(FrozenInstanceError):
            setattr(x, field, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(x, field)
        assert x.coords() == [1, 2, 3, 4]

    def test_equality_and_hash_agree_across_int_and_fraction(self):
        ints = AlgebraVector(1, [(2, 0)], -3)
        fracs = AlgebraVector(Fraction(1), [(Fraction(4, 2), Fraction(0))], Fraction(-3))
        assert ints == fracs and hash(ints) == hash(fracs)
        assert AlgebraVector.from_coords([1, 2, 0, -3]) == ints
        assert ints != AlgebraVector(1, [(2, 0)], 3)
        assert len({ints, fracs, AlgebraVector(1, [(2, 0)], 3)}) == 2

    def test_repr(self):
        x = AlgebraVector(Fraction(1, 2), [(0, 1.5)], PI)
        assert repr(x) == f"AlgebraVector(d=Fraction(1, 2), bc=((0, 1.5),), a={PI!r})"
        assert repr(AlgebraVector.T(1)) == "AlgebraVector(d=0, bc=((0, 0),), a=1)"

    @pytest.mark.parametrize("coords", [[], [1, 2], [1, 2, 3], [1, 2, 3, 4, 5]])
    def test_from_coords_refuses_a_bad_length(self, coords):
        with pytest.raises(ValueError, match="is not 2n\\+2"):
            AlgebraVector.from_coords(coords)

    def test_to_floats_reads_every_entry(self):
        x = AlgebraVector(Fraction(1, 4), [(2, Fraction(-1, 2))], PI).to_floats()
        assert x == AlgebraVector(0.25, [(2.0, -0.5)], math.pi)
        assert all(type(c) is float for c in x.coords())
