"""The step graph (tableaux.StepGraph) and the identity suite and omega
tables read on it.

identity_suite and omega_k_table read each window of a label on the graph of
shapes and count walks instead of enumerating them; the walk loops
(seminormal._identity_suite_walks, seminormal._omega_k_table_walks) are the
reference.  Every report and table must equal the walk loop's, and every
check and both omega errors must be able to fail through the graph path,
with the walk loop's report or error.
"""

from collections import Counter

import pytest

from cycbmw import seminormal
from cycbmw.params import GroundParams, generic_specialization
from cycbmw.seminormal import identity_suite, omega_k_table
from cycbmw.tableaux import (
    Node,
    StepGraph,
    content,
    count_updown,
    enumerate_updown,
    rp_empty,
    shapes_with_f,
    sk_action,
)


def fresh(r, n, seed=0):
    """The CLI's parameters for (r, n, seed), with nothing cached yet."""
    base = generic_specialization(r, max(n, 2), seed=seed)
    return GroundParams(r, base.q, base.u)


def outcome(fn, *args):
    """fn(*args), or the type and message of the check error it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


class TestStepGraph:
    @pytest.mark.parametrize("r, n", [(1, 5), (3, 4), (5, 3)])
    def test_levels_count_walk_prefixes(self, r, n):
        graph = StepGraph(n, r)
        walks = [s for _, lam in shapes_with_f(n, r) for s in enumerate_updown(n, lam)]
        for k in range(n + 1):
            prefixes = {s.steps[:k]: s.shape(k) for s in walks}
            assert graph.levels[k] == Counter(prefixes.values())
        assert graph.levels[n] == count_updown(n, r)

    @pytest.mark.parametrize("r, n", [(1, 5), (3, 4), (5, 3)])
    def test_backward_counts_the_walks_through_each_shape(self, r, n):
        # fwd·back at (k, mu) is the number of the label's walks with
        # shape mu at step k, and back holds exactly the shapes they pass
        graph = StepGraph(n, r)
        for _, lam in shapes_with_f(n, r):
            back = graph.backward(lam)
            walks = enumerate_updown(n, lam)
            for k in range(n + 1):
                through = Counter(s.shape(k) for s in walks)
                assert {mu: graph.levels[k][mu] * c for mu, c in back[k].items()} == through

    @pytest.mark.parametrize("r, n", [(1, 6), (3, 4), (5, 3)])
    def test_windows_count_the_walks_through_them(self, r, n):
        # the windows each check reads, found walk by walk as the walk loop
        # finds them, with the number of walks through each; at (1, 6) a
        # window of three steps can start at a shape with several walks to it
        graph = StepGraph(n, r)
        for _, lam in shapes_with_f(n, r):
            swaps, repeats, returns, crossings = Counter(), Counter(), set(), set()
            for s in enumerate_updown(n, lam):
                shapes = s.partitions()
                for k in range(1, n):
                    window = (k, shapes[k - 1], s.steps[k - 1:k + 1])
                    if shapes[k - 1] != shapes[k + 1]:
                        swaps[window] += 1
                        continue
                    returns.add((k, shapes[k - 1]))
                    if k < n - 1 and shapes[k] == shapes[k + 2]:
                        repeats[(k, shapes[k - 1], s.steps[k - 1:k + 2])] += 1
                    elif k < n - 1:
                        crossings.add((shapes[k - 1], s.steps[k - 1]))
            back = graph.backward(lam)
            for found, expected in ((list(graph.swaps(back)), swaps),
                                    (list(graph.repeats(back)), repeats)):
                assert {w[:3]: w[3] for w in found} == expected
                assert len(found) == len(expected)
            assert {(k, shape) for k, level in enumerate(graph.returns(back), 1)
                    for shape in level} == returns
            assert set(graph.crossings(back)) == crossings

    @pytest.mark.parametrize("r, n", [(1, 4), (3, 3)])
    def test_first_walk_is_first_in_sort_order(self, r, n):
        graph = StepGraph(n, r)
        walks = sorted(s for _, lam in shapes_with_f(n, r) for s in enumerate_updown(n, lam))
        for k in range(n + 1):
            first = {}
            for s in walks:
                first.setdefault(s.shape(k), s.steps[:k])
            assert graph.first[k] == first
            for mu in first:
                walk = graph.walk(k, mu)
                assert walk.n == k and walk.shape(k) == mu

    def test_moves_in_walk_order(self):
        graph = StepGraph(2, 3)
        shape = ((1,), (), ())
        steps = [step for step, _ in graph.moves(shape)]
        assert steps == sorted(steps, key=lambda st: (st[0], *st[1]))
        assert steps == [st for st, _ in seminormal._flank_steps(shape, fresh(3, 2))]

    def test_backward_rejects_unreachable_shape(self):
        with pytest.raises(ValueError, match="no length-2 walks"):
            StepGraph(2, 1).backward(((1,),))


GRID = [(1, n) for n in range(7)] + [(3, n) for n in range(5)] + [(5, n) for n in range(4)]


class TestGraphMatchesWalks:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("r, n", GRID)
    def test_reports_and_tables_equal_the_walk_loop(self, monkeypatch, r, n, seed):
        # the walk loops are disabled while the graph path runs, so every
        # label here is read on the graph
        graph_params, walk_params = fresh(r, n, seed), fresh(r, n, seed)
        suite_walks = seminormal._identity_suite_walks
        table_walks = seminormal._omega_k_table_walks

        def fail(*args):
            raise AssertionError("fell back to the walk loop")

        for f, lam in shapes_with_f(n, r):
            with monkeypatch.context() as m:
                m.setattr(seminormal, "_identity_suite_walks", fail)
                m.setattr(seminormal, "_omega_k_table_walks", fail)
                report = identity_suite(lam, f, graph_params)
                table = omega_k_table(lam, f, graph_params, 4 * r)
            assert report == suite_walks(lam, f, walk_params), (f, lam)
            assert table == table_walks(lam, f, walk_params, 4 * r), (f, lam)

    def test_no_steps(self):
        # n = 0: the empty walk has one shape and no step
        p = fresh(3, 0)
        assert identity_suite(rp_empty(3), 0, p) == {
            "ok": True, "checks": {"content-product": {"instances": 1, "failures": 0}},
            "failures": []}
        assert omega_k_table(rp_empty(3), 0, p, 12).values == {}

    @pytest.mark.parametrize("comp", [1, 2, 3])
    def test_one_step(self, comp):
        # n = 1: the empty shape before step 1 is read by partial fractions
        # with its r flank contents; no step pair, no window
        p = fresh(3, 1)
        lam = tuple((1,) if i == comp else () for i in (1, 2, 3))
        report = identity_suite(lam, 0, p)
        assert report == seminormal._identity_suite_walks(lam, 0, fresh(3, 1))
        assert report["checks"] == {
            "content-product": {"instances": 2, "failures": 0},
            "e-nonzero": {"instances": 3, "failures": 0},
            "partial-fractions": {"instances": 1, "failures": 0}}
        table = omega_k_table(lam, 0, p, 12)
        assert list(table.values) == [(1, rp_empty(3))]
        assert table.values[(1, rp_empty(3))] == [p.omega(a) for a in range(13)]


# -- census: every check can fail through the graph path ----------------------


def _scale_residue(shape, scale, index):
    """_e_diag_value times scale at one flank content of shape."""
    e_value = seminormal._e_diag_value

    def perturbed(sh, c, params):
        e = e_value(sh, c, params)
        hit = sh == shape and c == seminormal._flank_steps(shape, params)[index][1]
        return scale * e if hit else e

    return "_e_diag_value", perturbed


def _double_e_diag(shape, comp):
    """E_diag doubled at the steps that add box (comp, 1, 1) out of shape."""
    e_diag = seminormal.E_diag

    def perturbed(s, k, params):
        e = e_diag(s, k, params)
        return 2 * e if (s.shape(k - 1), s.content(k, params)) == (shape, params.u[comp - 1]) else e

    return "E_diag", perturbed


def _bump_bsq(where):
    """b^2 + 1 at the step pairs (s, k) where where(s, k, params) holds."""
    ab = seminormal.ab_coeffs

    def perturbed(s, k, params):
        a, bsq = ab(s, k, params)
        return (a, bsq + 1) if where(s, k, params) else (a, bsq)

    return "ab_coeffs", perturbed


def _wrong_content(params):
    """The content of adding box (2, 1, 1) tripled in the family's memo."""
    params._content_cache[(2, 0, "add")] = 3 * params.u[1]


# name -> ((r, n), seminormal global replaced or None, its replacement, a
# change to the parameters or None)
PERTURBATIONS = {
    "content of adding box (2,1,1) tripled": ((3, 3), None, None, _wrong_content),
    "residue zero at the first flank content of (1)":
        ((1, 2), *_scale_residue(((1,),), 0, 0), None),
    "residue doubled at the first flank content of the empty shape":
        ((3, 3), *_scale_residue(rp_empty(3), 2, 0), None),
    "E_diag doubled at the step adding box (1,1,1) to the empty shape":
        ((3, 3), *_double_e_diag(rp_empty(3), 1), None),
    "b^2 + 1 after adding box (2,1,1) then box (3,1,1)":
        ((3, 3), *_bump_bsq(lambda s, k, p: (s.content(k, p), s.content(k + 1, p))
                            == (p.u[1], p.u[2])), None),
    "b^2 + 1 on steps in one row or column":
        ((3, 3), *_bump_bsq(lambda s, k, p: sk_action(s, k) is None), None),
}

# check -> the perturbation that makes it fail
CENSUS = {
    "content-product": "content of adding box (2,1,1) tripled",
    "e-nonzero": "residue zero at the first flank content of (1)",
    "partial-fractions": "residue doubled at the first flank content of the empty shape",
    "neighbor-sum-linear": "residue doubled at the first flank content of the empty shape",
    "neighbor-sum-quadratic": "residue doubled at the first flank content of the empty shape",
    "neighbor-sum-cross": "residue doubled at the first flank content of the empty shape",
    "e-reciprocal": "E_diag doubled at the step adding box (1,1,1) to the empty shape",
    "b-e-transport": "E_diag doubled at the step adding box (1,1,1) to the empty shape",
    "b-squared-form": "b^2 + 1 after adding box (2,1,1) then box (3,1,1)",
    "swap-symmetry": "b^2 + 1 after adding box (2,1,1) then box (3,1,1)",
    "degenerate-step": "b^2 + 1 on steps in one row or column",
}
# checks that no perturbation can fail, with the reason: none so far
CANNOT_FAIL: dict = {}


def test_census_names_every_check():
    names = set()
    for r, n in [(1, 2), (3, 3)]:
        p = fresh(r, n)
        for f, lam in shapes_with_f(n, r):
            names |= set(identity_suite(lam, f, p)["checks"])
    assert names == set(CENSUS) | set(CANNOT_FAIL)
    assert not set(CENSUS) & set(CANNOT_FAIL)


@pytest.mark.parametrize("check", sorted(CENSUS))
def test_census_check_fails_through_the_graph(monkeypatch, check):
    (r, n), target, replacement, change = PERTURBATIONS[CENSUS[check]]
    if target is not None:
        monkeypatch.setattr(seminormal, target, replacement)
    graph_params, walk_params = fresh(r, n), fresh(r, n)
    if change is not None:
        change(graph_params)
        change(walk_params)
    failures = 0
    for f, lam in shapes_with_f(n, r):
        walks = outcome(seminormal._identity_suite_walks, lam, f, walk_params)
        assert outcome(identity_suite, lam, f, graph_params) == walks, (f, lam)
        assert isinstance(walks, dict), walks
        if not walks["ok"]:
            # the graph path itself saw the failure
            assert seminormal._graph_checks(lam, n, graph_params) is None
        failures += walks["checks"].get(check, {"failures": 0})["failures"]
    assert failures > 0


def _double_factor(params):
    """The content factor doubled at the step that removes box (1, 2, 1)."""
    factor = seminormal._content_factor
    wrong = content(Node(1, 2, 1), "remove", params)
    return lambda p, c: factor(p, c) * (2 if c == wrong else 1)


def _double_w(params):
    """W doubled over the shape (1)."""
    w_shape = seminormal._w_shape
    return lambda shape, p: w_shape(shape, p) * (2 if shape == ((1,),) else 1)


@pytest.mark.parametrize("error, target, make", [
    ("omega table depends on the walk", "_content_factor", _double_factor),
    ("omega table mismatch", "_w_shape", _double_w),
])
def test_census_omega_error_through_the_graph(monkeypatch, error, target, make):
    r, n, a_max = 1, 4, 4
    graph_params, walk_params = fresh(r, n), fresh(r, n)
    monkeypatch.setattr(seminormal, target, make(graph_params))
    graph = StepGraph(n, r)
    raised = 0
    for f, lam in shapes_with_f(n, r):
        walks = outcome(seminormal._omega_k_table_walks, lam, f, walk_params, a_max)
        assert outcome(omega_k_table, lam, f, graph_params, a_max) == walks, (f, lam)
        # the graph's entries of the label disagree exactly where the walk
        # loop raises
        entries = seminormal._omega_entries(graph, graph_params, a_max)
        disagree = any(entries[(k, shape)] is None
                       for k, level in enumerate(graph.backward(lam)[:n], 1) for shape in level)
        assert disagree == isinstance(walks, tuple), (f, lam)
        raised += isinstance(walks, tuple) and walks[1].startswith(error)
    assert raised > 0
