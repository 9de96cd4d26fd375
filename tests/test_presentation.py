import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fistab.combinatorics import (
    all_injections,
    class_representative,
    compose,
    horizontal_strip_extensions,
    hook_length_count,
    identity,
    monotone_injections,
    partitions,
)
from fistab.presentation import (
    FormalSum,
    PresentationMatrix,
    augmentation_matrix,
    induced_action,
    induced_block_action,
    induced_raw_presentation,
)
from fistab.specht import specht_action, specht_raw

from conftest import (
    beta_set_character,
    combine,
    dense,
    dense_rows,
    free_module,
    identity_matrix,
    induced_raw,
    induced_raw_sum,
    random_presentation,
    rational_inverse,
    reference_transport,
    symmetric_group,
    zeros,
)
from test_ratmat import gauss_rank


class TestFormalSum:
    def test_drops_zero_coefficients(self):
        s = FormalSum(1, 2, {(1,): 1, (2,): 0})
        assert s.terms == {(1,): 1}
        assert not s.is_zero
        assert FormalSum(1, 2).is_zero

    def test_merges_duplicate_terms(self):
        s = FormalSum(1, 2, [((1,), 1), ((1,), -1), ((2,), Fraction(1, 2))])
        assert s.terms == {(2,): Fraction(1, 2)}

    def test_validates_arities(self):
        with pytest.raises(ValueError):
            FormalSum(2, 3, {(1,): 1})
        with pytest.raises(ValueError):
            FormalSum(2, 3, {(1, 4): 1})
        with pytest.raises(ValueError):
            FormalSum(2, 3, {(2, 2): 1})

    def test_merges_repeats_and_drops_zeros(self):
        s = FormalSum(1, 2, [((1,), 1), ((2,), 2), ((1,), Fraction(-1))])
        assert s.terms == {(2,): 2}
        assert s == FormalSum(1, 2, {(2,): 2})
        half = Fraction(1, 2)
        cancelled = FormalSum(2, 3, [((1, 3), half), ((1, 3), -half)])
        assert cancelled.is_zero
        assert cancelled == FormalSum(2, 3)

    def test_equality(self):
        assert FormalSum(1, 2, {(1,): 1}) == FormalSum(1, 2, [((1,), 1)])
        assert FormalSum(1, 2) != FormalSum(1, 3)

    def test_rejects_float_coefficients(self):
        # a float would be stored as its binary expansion
        with pytest.raises(TypeError, match=r"0\.1 of injection \(1,\)"):
            FormalSum(1, 2, {(1,): 0.1})
        with pytest.raises(TypeError, match="float"):
            FormalSum(1, 2, [((2,), 1), ((1,), 2.0)])
        s = FormalSum(1, 2, {(1,): "1/3", (2,): Fraction(1, 2)})
        assert s.terms == {(1,): Fraction(1, 3), (2,): Fraction(1, 2)}

    def test_rejects_non_int_arities(self):
        with pytest.raises(TypeError, match=r"arity 2\.0 is not an int"):
            FormalSum(1, 2.0)

    def test_rejects_non_int_images(self):
        # (1.0,) would equal (1,) and reach the oracle's slices
        with pytest.raises(
            TypeError, match=r"image 1\.0 of injection \(1\.0,\) is not an int"
        ):
            FormalSum(1, 2, {(1.0,): 1})
        assert FormalSum(1, 2, {(True,): 1}) == FormalSum(1, 2, {(1,): 1})

    def test_integral_coefficients_are_ints(self):
        s = FormalSum(1, 2, {(1,): Fraction(4, 2), (2,): Fraction(1, 2)})
        assert type(s.terms[(1,)]) is int and s.terms[(1,)] == 2
        assert type(s.terms[(2,)]) is Fraction
        as_fractions = {(1,): Fraction(2), (2,): Fraction(1, 2)}
        assert s.terms == as_fractions
        assert s == FormalSum(1, 2, {(1,): 2, (2,): Fraction(1, 2)})
        assert hash(s) == hash((1, 2, tuple(sorted(as_fractions.items()))))
        # an integral sum of Fractions is stored as an int too
        summed = FormalSum(1, 2, [((1,), Fraction(1, 2)), ((1,), Fraction(3, 2))])
        assert type(summed.terms[(1,)]) is int


class TestPresentationMatrix:
    def test_validates_entry_arities(self):
        with pytest.raises(ValueError):
            PresentationMatrix((2,), (3,), {(0, 0): FormalSum(1, 3, {(1,): 1})})
        with pytest.raises(ValueError):
            PresentationMatrix((2,), (3,), {(0, 1): FormalSum(2, 3, {(1, 2): 1})})

    def test_rejects_non_int_degrees(self):
        with pytest.raises(TypeError, match=r"degree 2\.0 is not an int"):
            PresentationMatrix((2.0,), ())
        with pytest.raises(TypeError, match="degree '3' is not an int"):
            PresentationMatrix((1,), ("3",))

    def test_degree_bounds(self, e_presentation):
        assert e_presentation.max_generator_degree == 3
        assert e_presentation.max_relation_degree == 4
        empty = PresentationMatrix((), ())
        assert empty.max_generator_degree == 0
        assert empty.max_relation_degree == 0

    def test_zero_entries_dropped(self):
        z = PresentationMatrix((1,), (2,), {(0, 0): FormalSum(1, 2)})
        assert z.entries == {}


class TestTransportOfInjections:
    def test_single_row_shape_golden(self):
        # three monotone injections into [3], six into [4], one tableau:
        # transporting 1->1, 2->2, 3->3 matches images of pairs
        expected = dense([
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
        ])
        assert induced_raw((2,), (1, 2, 3), 4) == expected

    def test_remaining_cyclic_injections_golden(self):
        assert induced_raw((2,), (2, 3, 4), 4) == dense([
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ])
        assert induced_raw((2,), (3, 4, 1), 4) == dense([
            [0, 0, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
        ])
        assert induced_raw((2,), (4, 1, 2), 4) == dense([
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [1, 0, 0, 0, 0, 0],
        ])

    def test_hook_shape_golden(self):
        # shape (2, 1) and the inclusion of [3] in [4]; canonical tableau
        # order puts rows (1 2 / 3) before (1 3 / 2), so the nonzero block
        # is diag(+1, -1) (the reverse tableau order shows diag(-1, +1))
        expected = dense([
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 0, 0, 0],
        ])
        assert induced_raw((2, 1), (1, 2, 3), 4) == expected

    def test_empty_shape_is_augmentation(self):
        for f in all_injections(2, 4):
            assert induced_raw((), f, 4) == dense([[1]])

    def test_shape_larger_than_source(self):
        m = induced_raw((3,), (1, 2), 4)
        assert m.nrows == 0
        assert m.ncols == comb(4, 3)

    def test_matches_generic_block_construction(self):
        # the per-injection transport, and the block functor applied to
        # the raw tableau pairing, both equal the independent reference
        rng = random.Random(3)
        for _ in range(40):
            k = rng.randint(0, 3)
            lam = rng.choice(partitions(k))
            x = rng.randint(k, 4)
            y = rng.randint(x, 5)
            f = rng.choice(all_injections(x, y))
            single = PresentationMatrix((x,), (y,), {(0, 0): FormalSum(x, y, {f: 1})})
            expected = reference_transport(lam, single)
            rep = lambda s, lam=lam: specht_raw(lam, s)
            assert induced_raw(lam, f, y) == expected
            assert induced_block_action(rep, k, f, y) == expected


class TestTransportOfSums:
    def test_cyclic_sum_golden(self, e_presentation):
        expected = dense([
            [1, 0, 1, 1, 0, 1],
            [0, 2, 0, 0, 2, 0],
            [1, 0, 1, 1, 0, 1],
        ])
        assert induced_raw_sum((2,), e_presentation.entries[(0, 0)]) == expected
        assert expected.corank() == 1

    def test_zero_sum(self):
        m = induced_raw_sum((1,), FormalSum(2, 3))
        assert m == zeros(2 * 1, 3 * 1)

    def test_single_box_corank(self, e_presentation):
        assert induced_raw_sum((1,), e_presentation.entries[(0, 0)]).corank() == 2

    def test_linearity(self):
        rng = random.Random(41)
        for _ in range(25):
            x = rng.randint(0, 3)
            y = rng.randint(x, 4)
            pool = all_injections(x, y)
            k = rng.randint(0, x)
            lam = rng.choice(partitions(k))

            def rand_sum():
                return FormalSum(x, y, [
                    (rng.choice(pool), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 3))
                ])

            s, t = rand_sum(), rand_sum()
            a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2), 2)
            combined = induced_raw_sum(lam, combine((a, s), (b, t)))
            ms, mt = induced_raw_sum(lam, s), induced_raw_sum(lam, t)
            split = dense(
                [[a * u + b * v for u, v in zip(rs, rt)]
                 for rs, rt in zip(dense_rows(ms), dense_rows(mt))],
                ms.ncols,
            )
            assert combined == split


class TestTransportOfPresentations:
    def test_running_example(self, e_presentation):
        m = induced_raw_presentation((2,), e_presentation)
        assert (m.nrows, m.ncols) == (3, 6)
        assert m.corank() == 1

    def test_no_rows_above_generator_degree(self, e_presentation):
        m = induced_raw_presentation((3, 1), e_presentation)
        assert m.nrows == 0
        assert m.corank() == 0

    def test_no_relations(self):
        m = induced_raw_presentation((2,), free_module(3))
        assert (m.nrows, m.ncols) == (3 * 1, 0)
        assert m.corank() == 3

    def test_multi_block_dimensions(self):
        z = PresentationMatrix(
            (1, 2), (2, 3),
            {(0, 0): FormalSum(1, 2, {(1,): 1}),
             (1, 1): FormalSum(2, 3, {(1, 2): 1, (1, 3): -1})},
        )
        m = induced_raw_presentation((1,), z)
        # row blocks 1 and 2 wide; column blocks 2 and 3 wide
        assert (m.nrows, m.ncols) == (3, 5)

    def test_augmentation_examples(self, e_presentation):
        assert augmentation_matrix(e_presentation) == dense([[4]])
        empty = PresentationMatrix((), ())
        assert augmentation_matrix(empty).nrows == 0
        assert augmentation_matrix(empty).ncols == 0

    def test_augmentation_is_empty_shape_transport(self, e_presentation):
        rng = random.Random(59)
        candidates = [e_presentation, free_module(2)] + [
            random_presentation(rng) for _ in range(10)
        ]
        for z in candidates:
            # every injection replaced by 1: each entry's coefficient sum
            columns = len(z.relation_degrees)
            sums = [
                [sum(z.entries[(i, j)].terms.values()) if (i, j) in z.entries else 0
                 for j in range(columns)]
                for i in range(z.num_generators)
            ]
            assert induced_raw_presentation((), z) == dense(sums, columns)
            assert augmentation_matrix(z) == dense(sums, columns)


# Coefficients, degrees and entry counts that the seeded corpus of
# random_presentation never draws: rationals, up to three generators, no
# relations, and relation degrees below generator degrees.
_COEFFICIENTS = st.sampled_from(
    [Fraction(c) for c in ("-2", "-3/2", "-1", "-1/2", "1/3", "1", "2")]
)


@st.composite
def presentations(draw):
    gens = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    rels = draw(st.lists(st.integers(0, 4), max_size=2))
    entries = {}
    for i, x in enumerate(gens):
        for j, y in enumerate(rels):
            pool = all_injections(x, y)
            if not pool:
                continue
            terms = draw(st.lists(
                st.tuples(st.sampled_from(pool), _COEFFICIENTS), max_size=3
            ))
            s = FormalSum(x, y, terms)
            if not s.is_zero:
                entries[(i, j)] = s
    return PresentationMatrix(gens, rels, entries)


def _table_shapes(z):
    return [
        lam
        for size in range(z.max_generator_degree + 1)
        for lam in partitions(size)
    ]


class TestTransportEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(presentations())
    def test_matches_term_by_term_reference(self, z):
        for lam in _table_shapes(z):
            assert induced_raw_presentation(lam, z) == reference_transport(lam, z)

    @settings(max_examples=60, deadline=None)
    @given(presentations())
    def test_rank_matches_gauss_jordan(self, z):
        for lam in _table_shapes(z):
            m = induced_raw_presentation(lam, z)
            assert m.rank() == gauss_rank(dense_rows(m), m.ncols)


def regular_representation(k: int):
    """Left multiplication on the group algebra: composes contravariantly."""
    group = symmetric_group(k)
    index = {g: i for i, g in enumerate(group)}

    def rep(sigma):
        out = [[0] * len(group) for _ in range(len(group))]
        for a, g in enumerate(group):
            out[a][index[compose(sigma, g)]] = 1
        return dense(out)

    return rep


class TestBlockFunctor:
    def test_monotone_injection_from_full_source(self):
        # a single source block: one nonzero block, sitting at the column
        # of the injection itself, holding the identity
        rep = lambda s: specht_action((2,), s)
        m = induced_block_action(rep, 2, (1, 3), 3)
        cols = monotone_injections(2, 3)
        expected = {(0, cols.index((1, 3))): identity_matrix(1)}
        for j in range(len(cols)):
            block = dense([[m[0, j]]])
            assert block == expected.get((0, j), zeros(1, 1))

    def test_trivial_representation_gives_zero_one_matrix(self):
        rep = lambda s: dense([[1]])
        for x in range(4):
            for y in range(x, 5):
                for f in all_injections(x, y):
                    m = induced_block_action(rep, min(2, x), f, y)
                    for i in range(m.nrows):
                        row = [m[i, j] for j in range(m.ncols)]
                        assert sorted(set(row)) in ([0, 1], [1])
                        assert sum(row) == 1

    def test_identity_maps_to_identity(self):
        rep = lambda s: specht_action((2, 1), s)
        m = induced_block_action(rep, 3, identity(4), 4)
        assert m == identity_matrix(m.nrows)

    def test_wrong_size_rep_raises(self):
        # rep must give every block the size it has at the identity
        def rep(sigma):
            return identity_matrix(1 if sigma == (1, 2) else 2)

        with pytest.raises(ValueError, match="expected 1x1"):
            induced_block_action(rep, 2, (2, 1, 3), 3)
        with pytest.raises(ValueError, match="expected 1x1"):
            induced_block_action(lambda s: dense([[1, 0]]), 1, (1,), 2)

    def test_non_injection_raises(self):
        rep = lambda s: specht_action((1,), s)
        with pytest.raises(ValueError, match=r"\(1, 1\) repeats a value"):
            induced_block_action(rep, 1, (1, 1), 3)
        with pytest.raises(ValueError, match=r"\(4, 1\) leaves the target range 1..3"):
            induced_block_action(rep, 1, (4, 1), 3)

    @pytest.mark.parametrize("k", range(4))
    def test_functor_law_small(self, k):
        # both for irreducibles and for the regular representation; the
        # irreducible side runs at full range in the acceptance suite
        reps = [regular_representation(k)]
        for lam in partitions(k):
            reps.append(lambda s, lam=lam: specht_action(lam, s))
        for rep in reps:
            cache = {}

            def v(f, target, rep=rep):
                key = (f, target)
                if key not in cache:
                    cache[key] = induced_block_action(rep, k, f, target)
                return cache[key]

            for x in range(k, 5):
                for y in range(x, 5):
                    for z in range(y, 5):
                        for f in all_injections(x, y):
                            vf = v(f, y)
                            for g in all_injections(y, z):
                                assert vf * v(g, z) == v(compose(g, f), z)


class TestInducedAction:
    def test_unit_transport_invertible(self):
        # required for the basis correction to exist at every source arity
        for x in range(6):
            for k in range(x + 1):
                for lam in partitions(k):
                    unit = induced_raw(lam, identity(x), x)
                    assert unit * rational_inverse(unit) == identity_matrix(unit.nrows)

    def test_matches_unit_corrected_raw_transport(self):
        # induced_action as it was built before it went through
        # induced_block_action: the raw transport of f, corrected by the
        # inverse of the raw transport of the identity of its source
        rng = random.Random(83)
        for k in range(5):
            for lam in partitions(k):
                for x in range(k, 6):
                    unit_inverse = rational_inverse(induced_raw(lam, identity(x), x))
                    for y in range(x, 7):
                        pool = all_injections(x, y)
                        for f in rng.sample(pool, min(len(pool), 3)):
                            expected = unit_inverse * induced_raw(lam, f, y)
                            assert induced_action(lam, f, y) == expected

    def test_identity_action(self):
        for x in range(5):
            for k in range(x + 1):
                for lam in partitions(k):
                    m = induced_action(lam, identity(x), x)
                    assert m == identity_matrix(m.nrows)

    def test_swap_on_one_box_shape(self):
        # brute-forced from the block formula: the two monotone injections
        # [1] -> [2] exchange places
        assert induced_action((1,), (2, 1), 2) == dense([[0, 1], [1, 0]])

    def test_non_injection_raises(self):
        with pytest.raises(ValueError, match=r"\(1, 1\) repeats a value"):
            induced_action((1,), (1, 1), 3)
        with pytest.raises(ValueError, match=r"\(4, 1\) leaves the target range 1..3"):
            induced_action((1,), (4, 1), 3)

    def test_row_count_is_binomial(self):
        for k in range(4):
            lam = (k,) if k else ()
            for n in range(k, 6):
                m = induced_action(lam, identity(n), n)
                assert m.nrows == comb(n, k)

    def test_contravariant_composition(self):
        rng = random.Random(71)
        for _ in range(30):
            k = rng.randint(0, 3)
            lam = rng.choice(partitions(k))
            x = rng.randint(k, 4)
            y = rng.randint(x, 5)
            z = rng.randint(y, 5)
            f = rng.choice(all_injections(x, y))
            g = rng.choice(all_injections(y, z))
            assert (
                induced_action(lam, f, y) * induced_action(lam, g, z)
                == induced_action(lam, compose(g, f), z)
            )

    def test_restriction_to_permutations_is_specht(self):
        for k in range(5):
            for lam in partitions(k):
                for sigma in symmetric_group(k):
                    assert induced_action(lam, sigma, k) == specht_action(lam, sigma)

    def test_degreewise_dimension_matches_strip_sum(self):
        # dimension of the induced module at degree k+n counts tableaux of
        # horizontal-strip extensions
        for k in range(4):
            for lam in partitions(k):
                d = hook_length_count(lam)
                for n in range(5):
                    lhs = d * comb(k + n, k)
                    rhs = sum(
                        hook_length_count(mu)
                        for mu in horizontal_strip_extensions(lam, k + n)
                    )
                    assert lhs == rhs

    def test_character_matches_strip_sum(self):
        # trace of the induced action on a permutation of [n] equals the
        # character sum over horizontal-strip extensions
        for k in range(4):
            for lam in partitions(k):
                for n in range(k, 7):
                    for mu in partitions(n):
                        sigma = class_representative(mu)
                        action = induced_action(lam, sigma, n)
                        trace = sum(action[i, i] for i in range(action.nrows))
                        expected = sum(
                            beta_set_character(nu, mu)
                            for nu in horizontal_strip_extensions(lam, n)
                        )
                        assert trace == expected
