from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw.params import generic_specialization
from cycbmw.tableaux import (
    CosetRep,
    Node,
    UpDownTableau,
    addable_removable,
    content,
    content_product_identity,
    count_updown,
    dominates,
    enumerate_cosets,
    enumerate_kappa,
    enumerate_updown,
    neighbors_k,
    perm_inverse,
    perm_of_word,
    reduced_word,
    rp_add,
    rp_empty,
    rp_remove,
    rp_size,
    rpartitions,
    shapes_with_f,
    sk_action,
    std_count,
    std_tableaux,
    superstandard,
    tableau_permutation,
)


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@st.composite
def random_rpartition(draw, r=3, max_size=6):
    m = draw(st.integers(0, max_size))
    pool = rpartitions(m, r)
    return pool[draw(st.integers(0, len(pool) - 1))]


class TestNodes:
    def test_empty_shape(self):
        a, b = addable_removable(rp_empty(3))
        assert a == [Node(s, 1, 1) for s in (1, 2, 3)]
        assert b == []

    def test_row_shape(self):
        a, b = addable_removable(((2,), (), ()))
        assert a == [Node(1, 1, 3), Node(1, 2, 1), Node(2, 1, 1), Node(3, 1, 1)]
        assert b == [Node(1, 1, 2)]

    @given(random_rpartition())
    @settings(max_examples=50, deadline=None)
    def test_count_relation(self, lam):
        a, b = addable_removable(lam)
        assert len(a) == len(b) + len(lam)

    @given(random_rpartition())
    @settings(max_examples=50, deadline=None)
    def test_add_remove_roundtrip(self, lam):
        a, b = addable_removable(lam)
        for node in a:
            bigger = rp_add(lam, node)
            assert bigger is not None and rp_remove(bigger, node) == lam
        for node in b:
            smaller = rp_remove(lam, node)
            assert smaller is not None and rp_add(smaller, node) == lam


class TestContent:
    def test_examples(self):
        p = generic_specialization(3, 2)
        assert content(Node(2, 1, 3), "add", p) == p.u[1] * p.q ** 4
        assert content(Node(1, 1, 1), "add", p) == p.u[0]
        assert content(Node(1, 2, 1), "remove", p) == 1 / p.u[0] * p.q ** 2

    def test_content_seq(self):
        p = generic_specialization(1, 2)
        t = enumerate_updown(2, ((),))[0]
        assert [t.content(k, p) for k in (1, 2)] == [p.u[0], 1 / p.u[0]]
        t2 = enumerate_updown(2, ((2,),))[0]
        assert [t2.content(k, p) for k in (1, 2)] == [p.u[0], p.u[0] * p.q ** 2]

    @given(random_rpartition())
    @settings(max_examples=30, deadline=None)
    def test_content_product_identity(self, lam):
        p = generic_specialization(3, 2)
        assert content_product_identity(lam, p)

    def test_injectivity_generic(self):
        p = generic_specialization(3, 3)
        seen = {}
        for lam in {fl[1] for fl in shapes_with_f(3, 3)}:
            for t in enumerate_updown(3, lam):
                key = tuple(t.content(k, p) for k in range(1, t.n + 1))
                assert key not in seen, (t, seen[key])
                seen[key] = t


class TestEnumerateUpdown:
    def test_examples(self):
        assert len(enumerate_updown(2, rp_empty(3))) == 3
        assert len(enumerate_updown(2, ((2,), (), ()))) == 1

    def test_parity_error(self):
        with pytest.raises(ValueError, match="parity"):
            enumerate_updown(2, ((1,),))
        with pytest.raises(ValueError, match="parity"):
            enumerate_updown(1, ((2, 1),))

    def test_duplicate_free_and_sorted(self):
        ts = enumerate_updown(5, ((1, 1), (1,), ()))
        assert len(set(ts)) == len(ts)
        assert ts == sorted(ts)

    @pytest.mark.parametrize("r,n", [(1, 4), (3, 3)])
    def test_matches_branching_recursion(self, r, n):
        counts = count_updown(n, r)
        for lam, c in counts.items():
            assert len(enumerate_updown(n, lam)) == c

    @pytest.mark.parametrize("r,nmax", [(1, 6), (3, 4), (5, 3)])
    def test_square_sum(self, r, nmax):
        for n in range(2, nmax + 1):
            counts = count_updown(n, r)
            assert sum(c * c for c in counts.values()) == r ** n * double_factorial(2 * n - 1)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_unpruned_walks(self, r):
        # every walk of length n, extended with no look-ahead, kept by its
        # end shape: the pruned enumeration must give the same sorted list
        for n in range(1, 6):
            walks: list = []

            def walk(cur, steps):
                if len(steps) == n:
                    walks.append((cur, UpDownTableau(r, tuple(steps))))
                    return
                addable, removable = addable_removable(cur)
                for node in addable:
                    walk(rp_add(cur, node), steps + [(1, node)])
                for node in removable:
                    walk(rp_remove(cur, node), steps + [(-1, node)])

            walk(rp_empty(r), [])
            total = 0
            for f, lam in shapes_with_f(n, r):
                found = enumerate_updown(n, lam)
                assert found == sorted(t for end, t in walks if end == lam)
                total += len(found)
            assert total == len(walks)

    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_sorted_by_construction_with_their_shapes(self, r):
        # the walks come out strictly increasing with no sort, and the shapes
        # each walk carries are the ones its steps rebuild
        for n in range(1, 6):
            for f, lam in shapes_with_f(n, r):
                walks = enumerate_updown(n, lam)
                assert all(a < b for a, b in zip(walks, walks[1:]))
                for t in walks:
                    assert t.partitions() == UpDownTableau(r, t.steps).partitions()

    def test_no_state_between_calls(self):
        lam = ((1,), (1,), ())
        first = enumerate_updown(4, lam)
        expected = [(t.steps, list(t.partitions())) for t in first]
        for t in first:
            t.partitions()[1:] = []
        first.clear()
        second = enumerate_updown(4, lam)
        assert [(t.steps, t.partitions()) for t in second] == expected

    def test_branching_recursion_explicit(self):
        r, n = 3, 4
        prev = count_updown(n - 1, r)
        for lam, c in count_updown(n, r).items():
            a, b = addable_removable(lam)
            neigh = [rp_remove(lam, nd) for nd in b] + [rp_add(lam, nd) for nd in a]
            assert c == sum(prev.get(mu, 0) for mu in neigh)


class TestNeighbors:
    def test_single_when_shapes_differ(self):
        t = enumerate_updown(2, ((2,), (), ()))[0]
        assert neighbors_k(t, 1) == [t]

    def test_count_matches_nodes(self):
        t = enumerate_updown(2, rp_empty(3))[0]
        ns = neighbors_k(t, 1)
        a, b = addable_removable(rp_empty(3))
        assert len(ns) == len(a) + len(b) == 3
        assert t in ns

    def test_oracle_filter_of_enumeration(self):
        # oracle: in the equal-flank case the class is exactly the set of
        # walks agreeing with t away from position k
        lam = ((1,), (), ())
        for t in enumerate_updown(3, lam):
            for k in (1, 2):
                if t.shape(k - 1) != t.shape(k + 1):
                    assert neighbors_k(t, k) == [t]
                    continue
                expected = sorted(
                    s for s in enumerate_updown(3, lam)
                    if all(s.shape(j) == t.shape(j) for j in range(4) if j != k)
                )
                assert neighbors_k(t, k) == expected

    def test_derived_shapes_match_rebuilt(self):
        for f, lam in shapes_with_f(3, 3):
            for t in enumerate_updown(3, lam):
                for k in (1, 2):
                    for s in neighbors_k(t, k):
                        assert s.partitions() == UpDownTableau(3, s.steps).partitions()


class TestSkAction:
    def test_same_row_undefined(self):
        t = enumerate_updown(2, ((2,), (), ()))[0]
        assert sk_action(t, 1) is None

    def test_cross_component_swap(self):
        t = UpDownTableau(3, ((1, Node(1, 1, 1)), (1, Node(2, 1, 1))))
        s = sk_action(t, 1)
        assert s.steps == ((1, Node(2, 1, 1)), (1, Node(1, 1, 1)))

    def test_error_on_equal_flanks(self):
        t = enumerate_updown(2, rp_empty(3))[0]
        with pytest.raises(ValueError):
            sk_action(t, 1)

    def test_involutive(self):
        for lam in [((1, 1), (1,), ()), ((2, 1), (), ()), ((1,), (1,), (1,))]:
            for t in enumerate_updown(rp_size(lam), lam):
                for k in range(1, t.n):
                    if t.shape(k - 1) == t.shape(k + 1):
                        continue
                    s = sk_action(t, k)
                    if s is not None:
                        assert sk_action(s, k) == t

    def test_derived_shapes_match_rebuilt(self):
        # every swap takes its parent's shapes but shape k; those must be the
        # shapes its own steps rebuild
        swaps = 0
        for f, lam in shapes_with_f(3, 3):
            for t in enumerate_updown(3, lam):
                for k in (1, 2):
                    if t.shape(k - 1) == t.shape(k + 1):
                        continue
                    s = sk_action(t, k)
                    if s is not None:
                        swaps += 1
                        assert s.partitions() == UpDownTableau(3, s.steps).partitions()
        assert swaps > 0


class TestCosets:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_counts(self, n):
        for f in range(0, n // 2 + 1):
            reps = enumerate_cosets(f, n)
            expected = factorial(n) // (factorial(n - 2 * f) * factorial(f) * 2 ** f)
            assert len(reps) == len(set(reps)) == expected

    def test_examples(self):
        assert len(enumerate_cosets(1, 4)) == 6
        assert len(enumerate_cosets(2, 4)) == 3
        assert enumerate_cosets(0, 5) == [CosetRep((), ())]

    def test_distinct_permutations(self):
        for n, f in [(4, 1), (4, 2), (6, 2), (8, 3)]:
            reps = enumerate_cosets(f, n)
            perms = {perm_of_word(rep.word, n) for rep in reps}
            assert len(perms) == len(reps)

    def test_index_inequalities(self):
        for rep in enumerate_cosets(2, 6):
            (i2, j2), (i1, j1) = rep.pairs
            assert 1 <= i2 < i1
            assert i2 < j2 <= 4 and i1 < j1 <= 6


class TestKappa:
    def test_examples(self):
        assert enumerate_kappa(1, 2, 3) == [(-1, 0), (0, 0), (1, 0)]
        assert enumerate_kappa(2, 5, 1) == [(0, 0, 0, 0, 0)]
        assert len(enumerate_kappa(2, 5, 3)) == 9

    def test_positions(self):
        for kappa in enumerate_kappa(2, 6, 5):
            assert all(kappa[i] == 0 for i in range(6) if i + 1 not in (5, 3))

    def test_even_r_rejected(self):
        with pytest.raises(ValueError):
            enumerate_kappa(1, 2, 2)


class TestStdTableaux:
    def test_examples(self):
        assert len(std_tableaux(((1,), (1,), ()))) == 2
        assert len(std_tableaux(((2,), (), ()))) == 1
        assert std_tableaux(((), (), ())) == [((), (), ())]

    def test_standardness(self):
        for t in std_tableaux(((2, 1), (1,), ())):
            for comp in t:
                for row in comp:
                    assert all(row[i] < row[i + 1] for i in range(len(row) - 1))
                for i in range(len(comp) - 1):
                    for j in range(len(comp[i + 1])):
                        assert comp[i][j] < comp[i + 1][j]

    def test_hook_count_oracle(self):
        # |T^std| for a single-component (2,1) shape is 2; with entries
        # spread across components the count is a multinomial sum
        assert len(std_tableaux(((2, 1), (), ()))) == 2
        assert len(std_tableaux(((1,), (1,), (1,)))) == 6

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_hook_count_matches_fillings(self, r):
        for m in range(7):
            for lam in rpartitions(m, r):
                assert std_count(lam) == len(std_tableaux(lam)), lam

    def test_superstandard_is_standard(self):
        lam = ((2, 1), (1,), ())
        assert superstandard(lam) in std_tableaux(lam)
        assert tableau_permutation(superstandard(lam)) == (1, 2, 3, 4)


    @pytest.mark.parametrize("lam", [((2, 1), (1,), ()), ((2,), (1, 1), (1,)),
                                     ((3, 1), (1,)), ((1,), (2, 1), (1,))])
    def test_matches_brute_force(self, lam):
        # every placement of 1..m into the boxes, kept when rows and columns
        # increase in each component, as one sorted list
        boxes = [(c, i, j) for c, comp in enumerate(lam)
                 for i, part in enumerate(comp) for j in range(part)]
        expected = []
        for perm in permutations(range(1, len(boxes) + 1)):
            at = dict(zip(boxes, perm))
            if all(at[(c, i, j)] < at.get((c, i, j + 1), 99)
                   and at[(c, i, j)] < at.get((c, i + 1, j), 99) for c, i, j in boxes):
                expected.append(tuple(
                    tuple(tuple(at[(c, i, j)] for j in range(part))
                          for i, part in enumerate(comp))
                    for c, comp in enumerate(lam)))
        assert std_tableaux(lam) == sorted(expected)

    def test_no_state_between_calls(self):
        lam = ((2, 1), (1,), ())
        first = std_tableaux(lam)
        first.clear()
        assert len(std_tableaux(lam)) == 8


class TestPermutationWords:
    @given(st.permutations(list(range(1, 7))))
    @settings(max_examples=60, deadline=None)
    def test_reduced_word_roundtrip(self, perm):
        perm = tuple(perm)
        w = reduced_word(perm)
        assert perm_of_word(w, 6) == perm
        inversions = sum(
            1 for i in range(6) for j in range(i + 1, 6) if perm[i] > perm[j]
        )
        assert len(w) == inversions

    @given(st.permutations(list(range(1, 6))))
    @settings(max_examples=30, deadline=None)
    def test_inverse(self, perm):
        perm = tuple(perm)
        inv = perm_inverse(perm)
        assert perm_of_word(list(reversed(reduced_word(perm))), 5) == inv


class TestCellCounts:
    @pytest.mark.parametrize("r,n", [(1, 3), (3, 2), (3, 3)])
    def test_total_cell_indices(self, r, n):
        total = 0
        for f, lam in shapes_with_f(n, r):
            d = len(std_tableaux(lam)) * r ** f * len(enumerate_cosets(f, n))
            total += d * d
        assert total == r ** n * double_factorial(2 * n - 1)

    @pytest.mark.parametrize("r,n", [(1, 3), (3, 2), (3, 3)])
    def test_updown_factorization(self, r, n):
        counts = count_updown(n, r)
        for f, lam in shapes_with_f(n, r):
            d = len(std_tableaux(lam)) * r ** f * len(enumerate_cosets(f, n))
            assert counts.get(lam, 0) == d


class TestDominance:
    def test_f_filtration(self):
        assert dominates((2, ((), (), ())), (1, ((1,), (1,), ())))
        assert not dominates((0, ((2,), (), ())), (1, ((), (), ())))

    def test_equal_f(self):
        assert dominates((0, ((2,), (), ())), (0, ((1, 1), (), ())))
        assert dominates((0, ((1,), (1,), ())), (0, ((), (1,), (1,))))
        assert not dominates((0, ((1, 1), (), ())), (0, ((2,), (), ())))

    def test_reflexive(self):
        fl = (1, ((2, 1), (), ()))
        assert dominates(fl, fl)
