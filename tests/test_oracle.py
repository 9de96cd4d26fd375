import random
from math import factorial

import pytest

from fistab.combinatorics import (
    class_representative,
    compose,
    cycle_type,
    hook_length_count,
    horizontal_strip_extensions,
    inverse,
    partitions,
    symmetric_group,
)
from fistab.oracle import (
    ResourceCapError,
    ambient_trace,
    cokernel_trace,
    decompose_at,
    dimension_at,
    evaluate_degree,
    relation_matrix_at,
    verify,
)
from fistab.multiplicity import onset_bound
from fistab.presentation import FormalSum, PresentationMatrix

from conftest import (
    free_module,
    random_low_relation_presentation,
    random_presentation,
    torsion_presentation,
)
from test_ratmat import gauss_rank


E_DIMENSIONS = [0, 0, 0, 6, 18, 30, 44, 56, 76, 99, 125]

E_DECOMPOSITIONS = {
    3: {(3,): 1, (2, 1): 2, (1, 1, 1): 1},
    4: {(3, 1): 3, (2, 2): 1, (2, 1, 1): 2, (1, 1, 1, 1): 1},
    5: {(4, 1): 2, (3, 2): 2, (3, 1, 1): 2},
    6: {(5, 1): 2, (4, 2): 1, (4, 1, 1): 2, (3, 3): 1},
    7: {(6, 1): 2, (5, 2): 1, (5, 1, 1): 2},
    8: {(7, 1): 2, (6, 2): 1, (6, 1, 1): 2},
}


class TestRelationMatrix:
    def test_degenerate_degree(self, e_presentation):
        m = relation_matrix_at(e_presentation, 3)
        assert (m.nrows, m.ncols) == (6, 0)
        assert dimension_at(e_presentation, 3) == 6

    def test_degree_four(self, e_presentation):
        m = relation_matrix_at(e_presentation, 4)
        assert (m.nrows, m.ncols) == (24, 24)
        assert m.nrows - m.rank() == 18

    def test_below_all_degrees(self, e_presentation):
        m = relation_matrix_at(e_presentation, 1)
        assert (m.nrows, m.ncols) == (0, 0)

    def test_dense_rank_matches_sparse_engine(self, e_presentation):
        # the oracle's echelon of the relation rows must agree on every
        # rank with the test-only Gauss-Jordan reference, run on the
        # dense relation matrix
        rng = random.Random(13)
        candidates = [e_presentation, torsion_presentation()] + [
            random_presentation(rng) for _ in range(10)
        ]
        for z in candidates:
            for n in range(6):
                dense = relation_matrix_at(z, n)
                ev = evaluate_degree(z, n)
                assert gauss_rank(dense.rows, dense.ncols) == ev.rank
                assert dense.rank() == ev.rank
                assert ev.cokernel_dim == dense.nrows - ev.rank

    def test_column_contents(self):
        # one generator of degree 1, relation [1] - [2] in degree 2
        z = PresentationMatrix(
            (1,), (2,), {(0, 0): FormalSum(1, 2, {(1,): 1, (2,): -1})}
        )
        m = relation_matrix_at(z, 2)
        # rows: injections (1,), (2,); columns: (1,2) and (2,1)
        assert m.rows == ((1, -1), (-1, 1))


class TestDimension:
    def test_running_example(self, e_presentation):
        dims = [dimension_at(e_presentation, n) for n in range(11)]
        assert dims == E_DIMENSIONS

    def test_free_module(self):
        for n in range(7):
            assert dimension_at(free_module(1), n) == n

    def test_torsion_vanishes(self):
        z = torsion_presentation()
        assert dimension_at(z, 0) == 1
        for n in range(1, 5):
            assert dimension_at(z, n) == 0

    def test_resource_cap(self, e_presentation, monkeypatch):
        monkeypatch.setenv("FISTAB_ORACLE_CAP", "100")
        evaluate_degree.cache_clear()
        with pytest.raises(ResourceCapError):
            dimension_at(e_presentation, 6)
        monkeypatch.delenv("FISTAB_ORACLE_CAP")
        evaluate_degree.cache_clear()

    def test_relation_column_budget(self):
        # low-degree generators keep the row count tiny, but the relation
        # side still explodes with the degree and must be refused
        z = PresentationMatrix(
            (1,), (3,), {(0, 0): FormalSum(1, 3, {(1,): 1})}
        )
        with pytest.raises(ResourceCapError, match="relation columns"):
            dimension_at(z, 40)

    def test_worked_example_within_budget(self, e_presentation):
        # the 720 x 5040 system at degree 10 must stay allowed
        assert dimension_at(e_presentation, 10) == 125


class TestTraces:
    def test_ambient_identity_class(self, e_presentation):
        for n in range(3, 7):
            ones = tuple([1] * n)
            expected = factorial(n) // factorial(n - 3)
            assert ambient_trace(e_presentation, n, ones) == expected

    def test_ambient_no_fixed_points(self, e_presentation):
        assert ambient_trace(e_presentation, 4, (2, 2)) == 0
        assert ambient_trace(e_presentation, 6, (3, 3)) == 0

    def test_ambient_pinned(self, e_presentation):
        assert ambient_trace(e_presentation, 4, (1, 1, 1, 1)) == 24

    def test_cokernel_equals_ambient_without_relations(self):
        z = free_module(2)
        for n in range(2, 6):
            for mu in partitions(n):
                assert cokernel_trace(z, n, mu) == ambient_trace(z, n, mu)

    def test_identity_class_gives_dimension(self, e_presentation):
        rng = random.Random(31)
        candidates = [e_presentation] + [random_presentation(rng) for _ in range(6)]
        for z in candidates:
            for n in range(2, 6):
                ones = tuple([1] * n)
                assert cokernel_trace(z, n, ones) == dimension_at(z, n)

    def test_pinned_cokernel_trace(self, e_presentation):
        assert cokernel_trace(e_presentation, 4, (1, 1, 1, 1)) == 18

    def test_constant_on_conjugacy_classes(self, e_presentation):
        # two representatives per class: the canonical one and a random
        # conjugate, evaluated through the same reduced basis
        rng = random.Random(37)
        candidates = [e_presentation, random_presentation(rng)]
        for z in candidates:
            for n in range(2, 7):
                ev = evaluate_degree(z, n)
                group = symmetric_group(n)
                for mu in partitions(n):
                    rep = class_representative(mu)
                    g = rng.choice(group)
                    conj = compose(compose(g, rep), inverse(g))
                    assert cycle_type(conj) == mu
                    assert ev.permutation_trace(conj) == ev.permutation_trace(rep)


class TestDecompose:
    @pytest.mark.parametrize("n", sorted(E_DECOMPOSITIONS))
    def test_running_example(self, e_presentation, n):
        decomposition = decompose_at(e_presentation, n)
        nonzero = {lam: c for lam, c in decomposition.items() if c}
        assert nonzero == E_DECOMPOSITIONS[n]

    def test_counts_rebuild_dimension(self, e_presentation):
        rng = random.Random(43)
        candidates = [e_presentation, free_module(2)] + [
            random_presentation(rng) for _ in range(8)
        ]
        for z in candidates:
            for n in range(2, 7):
                decomposition = decompose_at(z, n)
                assert all(c >= 0 for c in decomposition.values())
                total = sum(
                    c * hook_length_count(lam)
                    for lam, c in decomposition.items()
                )
                assert total == dimension_at(z, n)

    def test_free_modules_match_strip_counts(self):
        # multiplicity of each shape in the free module counts tableaux of
        # the shapes it extends by a horizontal strip
        for k in range(4):
            z = free_module(k)
            for n in range(k, 7):
                decomposition = decompose_at(z, n)
                for mu in partitions(n):
                    expected = sum(
                        hook_length_count(lam)
                        for lam in partitions(k)
                        if mu in horizontal_strip_extensions(lam, n)
                    )
                    assert decomposition[mu] == expected


class TestVerify:
    def test_running_example_passes_from_onset(self, e_presentation):
        for n in (7, 8, 9):
            report = verify(e_presentation, n)
            assert not report.pre_stable
            assert report.passed
            assert report.dimensions_match

    def test_default_degree_is_onset(self, e_presentation):
        report = verify(e_presentation)
        assert report.n == report.onset == 7

    def test_pre_stable_mismatch(self, e_presentation):
        report = verify(e_presentation, 5)
        assert report.pre_stable
        mismatches = [c for c in report.checks if not c.ok]
        assert [(c.shape, c.predicted, c.observed) for c in mismatches] == [
            ((3, 2), 1, 2)
        ]

    def test_check_tails(self, e_presentation):
        report = verify(e_presentation, 7)
        by_shape = {c.shape: c for c in report.checks}
        assert by_shape[(6, 1)].tail == (1,)
        assert by_shape[(6, 1)].predicted == 2
        assert by_shape[(5, 2)].predicted == 1
        assert by_shape[(5, 1, 1)].predicted == 2
        assert by_shape[(4, 3)].predicted == 0

    def test_randomized_presentations(self):
        rng = random.Random(47)
        for _ in range(8):
            z = random_presentation(rng)
            report = verify(z)
            assert report.passed, report

    def test_free_modules_pass_from_onset(self):
        # relation degree 0 < generator degree k: the onset is 2k, the
        # first degree at which every table shape is visible
        for k in (1, 2, 3):
            report = verify(free_module(k))
            assert report.n == report.onset == 2 * k
            assert report.passed, report
            assert report.invisible == ()

    def test_free_module_onset_is_sharp(self):
        # one degree earlier the shape (3) of M(3) needs a top row of 3
        # but only 2 boxes are left for it
        report = verify(free_module(3), 5)
        assert report.pre_stable
        assert report.invisible == (((3,), 1),)

    def test_randomized_low_relation_presentations(self):
        rng = random.Random(53)
        for _ in range(25):
            z = random_low_relation_presentation(rng)
            for n in (None, onset_bound(z) + 1):
                report = verify(z, n)
                assert not report.pre_stable
                assert report.passed, report
                assert report.invisible == ()
