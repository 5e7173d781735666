import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import comb

from xx0chain.combinat import (
    BoxDims,
    Partition,
    PlanePartition,
    StrictPartition,
    conjugate,
    count_lattice_path_families,
    enumerate_column_strict_pp,
    enumerate_partitions_in_box,
    enumerate_plane_partitions,
    staircase_matrix,
    strict_from,
)
from xx0chain.errors import EnumerationBudgetError
from xx0chain.qexact import IndexTuples, binomial_determinant


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_trailing_zeros_stripped(self):
        assert Partition((3, 1, 0, 0)) == (3, 1)

    def test_weight_length(self):
        p = Partition((5, 3, 2, 2))
        assert p.weight == 12
        assert p.length == 4


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()
        assert conjugate((5, 3, 2, 2)) == (4, 4, 2, 1, 1)

    def test_involution_over_8x8_box(self):
        for lam in enumerate_partitions_in_box(8, 8):
            assert conjugate(conjugate(lam)) == lam

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 9), max_size=8))
    def test_involution_property(self, parts):
        lam = Partition(sorted(parts, reverse=True))
        assert conjugate(conjugate(lam)) == lam


class TestStrictFrom:
    def test_paper_figure_coordinates(self):
        assert strict_from((5, 3, 2, 2), 4) == (8, 5, 3, 2)

    def test_empty_gives_staircase(self):
        assert strict_from((), 4) == (3, 2, 1, 0)

    def test_single(self):
        assert strict_from((2,), 1) == (2,)

    def test_overflow(self):
        with pytest.raises(ValueError):
            strict_from((1, 1, 1), 2)

    def test_strictness_enforced_by_type(self):
        with pytest.raises(ValueError):
            StrictPartition((2, 2))


class TestPartitionBoxEnumeration:
    def test_2x2_listing_and_order(self):
        got = [tuple(p) for p in enumerate_partitions_in_box(2, 2)]
        assert got == [(2, 2), (2, 1), (2,), (1, 1), (1,), ()]

    def test_zero_box(self):
        assert [tuple(p) for p in enumerate_partitions_in_box(0, 3)] == [()]

    def test_1x3_count(self):
        assert sum(1 for _ in enumerate_partitions_in_box(1, 3)) == 4

    def test_counts_are_binomials(self):
        for m in range(9):
            for n in range(9):
                count = sum(1 for _ in enumerate_partitions_in_box(m, n))
                assert count == comb(m + n, n)

    def test_no_duplicates(self):
        seen = list(enumerate_partitions_in_box(3, 4))
        assert len(seen) == len(set(seen))

    def test_negative_sides_raise_at_the_call(self):
        # not at the first next(): the call itself checks the box
        for sides in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError):
                enumerate_partitions_in_box(*sides)


class TestPlanePartitions:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlanePartition(((1, 2),))
        with pytest.raises(ValueError):
            PlanePartition(((1,), (2,)))

    def test_volume(self):
        assert PlanePartition(((2, 1), (1, 0))).volume == 4

    def test_trivial_boxes(self):
        assert sum(1 for _ in enumerate_plane_partitions(BoxDims(1, 1, 1))) == 2
        assert sum(1 for _ in enumerate_plane_partitions(BoxDims(3, 2, 0))) == 1

    def test_2x2x2_count(self):
        assert sum(1 for _ in enumerate_plane_partitions(BoxDims(2, 2, 2))) == 20

    def test_no_duplicates(self):
        seen = list(enumerate_plane_partitions(BoxDims(2, 2, 2)))
        assert len(set(seen)) == 20

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            list(enumerate_plane_partitions(BoxDims(3, 3, 3), max_items=5))


class TestColumnStrict:
    def test_single_cell(self):
        for P in range(5):
            assert sum(1 for _ in enumerate_column_strict_pp(BoxDims(1, 1, P))) == P + 1

    def test_2x2x2_count_is_six(self):
        got = {pp.entries for pp in enumerate_column_strict_pp(BoxDims(2, 2, 2))}
        want = {
            ((1, 1), (0, 0)),
            ((2, 1), (0, 0)),
            ((2, 2), (0, 0)),
            ((2, 1), (1, 0)),
            ((2, 2), (1, 0)),
            ((2, 2), (1, 1)),
        }
        assert got == want

    def test_square_counts_match_shifted_plain_boxes(self):
        from xx0chain.boxcount import a_cspp, macmahon

        for N in range(1, 4):
            for P in range(N - 1, N + 3):
                count = sum(1 for _ in enumerate_column_strict_pp(BoxDims(N, N, P)))
                assert count == a_cspp(N, P) == macmahon(N, N, P - N + 1)

    def test_staircase_bijection_with_volume_shift(self):
        # adding the staircase maps plain stacks in (N,N,P) onto
        # column-strict stacks in (N,N,P+N-1), shifting volume by N^2(N-1)/2
        for N in (2, 3):
            for P in (1, 2, 3):
                stair = staircase_matrix(N)
                image = set()
                for pp in enumerate_plane_partitions(BoxDims(N, N, P)):
                    shifted = tuple(
                        tuple(pp.entries[i][j] + stair[i][j] for j in range(N))
                        for i in range(N)
                    )
                    cs = PlanePartition(shifted)
                    assert cs.volume == pp.volume + N * N * (N - 1) // 2
                    image.add(cs)
                target = set(enumerate_column_strict_pp(BoxDims(N, N, P + N - 1)))
                assert image == target


class TestLatticePaths:
    def test_single_path_binomial(self):
        assert count_lattice_path_families((2,), (1,)) == 2
        assert count_lattice_path_families((4,), (4,)) == 1
        assert count_lattice_path_families((1,), (3,)) == 0

    def test_forced_family(self):
        # N = 0 box pattern: start and end staircases force unique paths
        P = 3
        a = tuple(range(0, P))
        b = tuple(range(0, P))
        assert count_lattice_path_families(a, b) == 1

    def test_frozen_pair(self):
        assert count_lattice_path_families((2, 3), (1, 2)) == 3
        for a, b in [((3, 2), (1, 2)), ((2, 3), (2, 2)), ((-1, 3), (0, 2))]:  # not increasing, negative
            with pytest.raises(ValueError):
                count_lattice_path_families(a, b)

    def test_gessel_viennot_agreement(self):
        # determinant == exhaustive disjoint-path count, all tuples with
        # entries <= 6 and S <= 3
        from itertools import combinations

        for S in (1, 2, 3):
            for a in combinations(range(7), S):
                for b in combinations(range(7), S):
                    got = count_lattice_path_families(a, b)
                    want = binomial_determinant(IndexTuples(a, b))
                    assert got == want, (a, b)
