"""Relation census: every relation family that verify_relations runs can fail.

For each family of relation_table(3, p) at r = 3, and for braid-far, which
first appears on four strands, a +1 on one entry of T_k, E_k or an X_i
diagonal of one module of dimension at most 12 makes verify_relations fail
that family.  x-commute and x-inverse are the two families no such change
can fail; they are listed with the reason.
"""

import pytest

from cycbmw.params import generic_specialization
from cycbmw.seminormal import build_module, relation_table, verify_relations

# name -> ((r, n), (f, lam), generator kind, its 1-based index, entry (i, j));
# the module is the CLI's for (r, n) at seed 0, and an X entry is (i, i)
PERTURBATIONS = {
    "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))":
        ((3, 3), (0, ((), (), (1, 1, 1))), "T", 1, (0, 0)),
    "X_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))":
        ((3, 3), (0, ((), (), (1, 1, 1))), "X", 1, (0, 0)),
    "X_1 (0,0) on the f=0 module of ((),(),(2,1))":
        ((3, 3), (0, ((), (), (2, 1))), "X", 1, (0, 0)),
    "T_1 (0,0) on the f=1 module of ((),(),(1,))":
        ((3, 3), (1, ((), (), (1,))), "T", 1, (0, 0)),
    "E_1 (0,0) on the f=1 module of ((),(),(1,))":
        ((3, 3), (1, ((), (), (1,))), "E", 1, (0, 0)),
    "X_1 (0,0) on the f=1 module of ((),(),(1,))":
        ((3, 3), (1, ((), (), (1,))), "X", 1, (0, 0)),
    "T_1 (1,1) on the f=0 module of ((2,1,1),)":
        ((1, 4), (0, ((2, 1, 1),)), "T", 1, (1, 1)),
}

# relation family -> the perturbation that makes it fail
CENSUS = {
    "braid": "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "kauffman": "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "skein-left": "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "skein-right": "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "t-inverse": "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "x-shift-1": "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "x-shift-2": "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "x-shift-4": "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "x-shift-5": "T_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "cyclotomic": "X_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "x-braid-step": "X_1 (0,0) on the one-dim f=0 module of ((),(),(1,1,1))",
    "t-x-far": "X_1 (0,0) on the f=0 module of ((),(),(2,1))",
    "e-e-braid": "T_1 (0,0) on the f=1 module of ((),(),(1,))",
    "e-t-absorb": "T_1 (0,0) on the f=1 module of ((),(),(1,))",
    "x-shift-3": "T_1 (0,0) on the f=1 module of ((),(),(1,))",
    "x-shift-6": "T_1 (0,0) on the f=1 module of ((),(),(1,))",
    "e-idempotent": "E_1 (0,0) on the f=1 module of ((),(),(1,))",
    "e-sandwich": "E_1 (0,0) on the f=1 module of ((),(),(1,))",
    "e-x-e": "E_1 (0,0) on the f=1 module of ((),(),(1,))",
    "e-x-unit": "X_1 (0,0) on the f=1 module of ((),(),(1,))",
    "braid-far": "T_1 (1,1) on the f=0 module of ((2,1,1),)",
}

# families that hold by construction, with the reason
BY_CONSTRUCTION = {
    "x-commute": "every X_i is stored as one diagonal, and diagonal matrices commute",
    "x-inverse": "X_i and X_i^{-1} come from one stored diagonal, entry by entry, "
                 "and every content is nonzero",
}


def module_and_table(name):
    (r, n), (f, lam), kind, index, entry = PERTURBATIONS[name]
    params = generic_specialization(r, n)
    return build_module(lam, f, params), relation_table(n, params)


def perturb(m, kind, index, entry):
    """Add 1 to one entry of T_index, E_index or the X_index diagonal."""
    i, j = entry
    if kind == "X":
        assert i == j
        m.matX[index - 1][i] += 1
        return
    row = (m.matT if kind == "T" else m.matE)[index - 1][i]
    value = row.get(j, 0) + 1
    assert value != 0  # the sparse rows store no zero
    row[j] = value


def failing(m, table):
    return {x["name"] for x in verify_relations(m, table)["relations"] if not x["pass"]}


def test_census_names_every_family():
    families = {name for name, _, _ in relation_table(3, generic_specialization(3, 3))}
    four = {name for name, _, _ in relation_table(4, generic_specialization(1, 4))}
    assert "braid-far" not in families and "braid-far" in four
    assert families | {"braid-far"} == set(CENSUS) | set(BY_CONSTRUCTION)
    assert not set(CENSUS) & set(BY_CONSTRUCTION)
    assert set(CENSUS.values()) == set(PERTURBATIONS)


@pytest.mark.parametrize("family", sorted(CENSUS))
def test_census_family_fails(family):
    name = CENSUS[family]
    m, table = module_and_table(name)
    assert m.dim <= 12
    assert not failing(m, table)
    _, _, kind, index, entry = PERTURBATIONS[name]
    m, table = module_and_table(name)
    perturb(m, kind, index, entry)
    assert family in failing(m, table)


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_by_construction_families_hold_under_every_perturbation(name):
    _, _, kind, index, entry = PERTURBATIONS[name]
    m, table = module_and_table(name)
    perturb(m, kind, index, entry)
    broken = failing(m, table)
    assert broken
    assert not broken & set(BY_CONSTRUCTION)
