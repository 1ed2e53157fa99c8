"""Multipartition and walk combinatorics.

r-multipartitions, addable/removable nodes and their contents, up-down
tableaux (add/remove walks), standard tableaux, permutation words, coset
representatives, and the exponent vectors indexing the cellular basis.
All enumeration orders are deterministic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .params import GroundParams, scalar_inv


class Node(NamedTuple):
    comp: int  # component index, 1-based
    row: int   # row index, 1-based
    col: int   # column index, 1-based


RPartition = tuple  # tuple of r tuples of weakly decreasing positive ints


def rp_empty(r: int) -> RPartition:
    return tuple(() for _ in range(r))


def rp_size(lam: RPartition) -> int:
    return sum(sum(c) for c in lam)


def rp_add(lam: RPartition, node: Node) -> RPartition | None:
    """Add one box; None when the result is not a partition."""
    comp = list(lam[node.comp - 1])
    i = node.row - 1
    if i == len(comp):
        comp.append(0)
    elif i > len(comp):
        return None
    if comp[i] + 1 != node.col:
        return None
    comp[i] += 1
    if i > 0 and comp[i - 1] < comp[i]:
        return None
    return lam[: node.comp - 1] + (tuple(comp),) + lam[node.comp:]


def rp_remove(lam: RPartition, node: Node) -> RPartition | None:
    """Remove one box; None when the result is not a partition."""
    comp = list(lam[node.comp - 1])
    i = node.row - 1
    if i >= len(comp) or comp[i] != node.col:
        return None
    comp[i] -= 1
    if i + 1 < len(comp) and comp[i] < comp[i + 1]:
        return None
    if comp[i] == 0:
        if i != len(comp) - 1:
            return None
        comp.pop()
    return lam[: node.comp - 1] + (tuple(comp),) + lam[node.comp:]


def addable_removable(lam: RPartition) -> tuple[list[Node], list[Node]]:
    """All addable and removable nodes, each sorted by (component, row)."""
    addable: list[Node] = []
    removable: list[Node] = []
    for s, comp in enumerate(lam, start=1):
        for i, part in enumerate(comp, start=1):
            if i == 1 or comp[i - 2] > part:
                addable.append(Node(s, i, part + 1))
            if i == len(comp) or comp[i] < part:
                removable.append(Node(s, i, part))
        addable.append(Node(s, len(comp) + 1, 1))
    return addable, removable


def content(node: Node, mode: str, params: GroundParams):
    """Content scalar of a node: u_s q^{2(col-row)} when added, its inverse
    when removed.
    """
    u_s = params.u[node.comp - 1]
    value = u_s * params.q ** (2 * (node.col - node.row))
    if mode == "add":
        return value
    if mode == "remove":
        return scalar_inv(value)
    raise ValueError("mode must be 'add' or 'remove'")


def content_product_identity(lam: RPartition, params: GroundParams) -> bool:
    """Exact check: the product of contents over all addable (as added) and
    removable (as removed) nodes equals u_1 ... u_r.
    """
    addable, removable = addable_removable(lam)
    prod = None
    for a in addable:
        c = content(a, "add", params)
        prod = c if prod is None else prod * c
    for b in removable:
        prod = prod * content(b, "remove", params)
    return prod == params.u_prod


class UpDownTableau:
    """Walk of r-multipartitions from the empty shape, one box per step.

    Stored as the signed-step sequence ((sign, node), ...) with sign +1 for
    an added box and -1 for a removed one; intermediate shapes are
    reconstructed lazily.
    """

    __slots__ = ("r", "steps", "_parts")

    def __init__(self, r: int, steps: tuple[tuple[int, Node], ...]):
        self.r = r
        self.steps = tuple(steps)
        self._parts: list[RPartition] | None = None

    @property
    def n(self) -> int:
        return len(self.steps)

    def partitions(self) -> list[RPartition]:
        if self._parts is None:
            parts = [rp_empty(self.r)]
            for sign, node in self.steps:
                nxt = rp_add(parts[-1], node) if sign > 0 else rp_remove(parts[-1], node)
                if nxt is None:
                    raise ValueError(f"invalid walk step {(sign, node)}")
                parts.append(nxt)
            self._parts = parts
        return self._parts

    def shape(self, k: int) -> RPartition:
        return self.partitions()[k]

    def sort_key(self):
        return tuple((sign, *node) for sign, node in self.steps)

    def content(self, k: int, params: GroundParams):
        """Content c(k) of the box changed at step k (1-based)."""
        sign, node = self.steps[k - 1]
        return content(node, "add" if sign > 0 else "remove", params)

    def replace_step_shape(self, k: int, mid: RPartition) -> "UpDownTableau":
        """New walk equal to this one except the shape after step k is mid."""
        prev = self.shape(k - 1)
        nxt = self.shape(k + 1)
        steps = list(self.steps)
        steps[k - 1] = _step_between(prev, mid)
        steps[k] = _step_between(mid, nxt)
        return UpDownTableau(self.r, tuple(steps))

    def __eq__(self, other):
        return isinstance(other, UpDownTableau) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        body = ", ".join(f"{'+' if s > 0 else '-'}{tuple(nd)}" for s, nd in self.steps)
        return f"UpDownTableau[{body}]"


def _step_between(a: RPartition, b: RPartition) -> tuple[int, Node]:
    """The signed node taking shape a to shape b (must differ by one box)."""
    sa, sb = rp_size(a), rp_size(b)
    if sb == sa + 1:
        small, big, sign = a, b, 1
    elif sb == sa - 1:
        small, big, sign = b, a, -1
    else:
        raise ValueError("shapes do not differ by one box")
    for s in range(1, len(a) + 1):
        ca, cb = small[s - 1], big[s - 1]
        if ca == cb:
            continue
        for i in range(len(cb)):
            va = ca[i] if i < len(ca) else 0
            if cb[i] != va:
                return (sign, Node(s, i + 1, cb[i]))
    raise ValueError("shapes are equal")


def enumerate_updown(n: int, lam: RPartition) -> list[UpDownTableau]:
    """All walks of length n from the empty shape to lam, sorted."""
    r = len(lam)
    if (n - rp_size(lam)) % 2 != 0 or n < rp_size(lam):
        raise ValueError(f"parity mismatch: no length-{n} walks end at a shape of size {rp_size(lam)}")
    out: list[UpDownTableau] = []

    def walk(cur: RPartition, steps: list):
        k = len(steps)
        if k == n:
            if cur == lam:
                out.append(UpDownTableau(r, tuple(steps)))
            return
        if abs(rp_size(cur) - rp_size(lam)) > n - k:
            return
        addable, removable = addable_removable(cur)
        for node in addable:
            steps.append((1, node))
            walk(rp_add(cur, node), steps)
            steps.pop()
        for node in removable:
            steps.append((-1, node))
            walk(rp_remove(cur, node), steps)
            steps.pop()

    walk(rp_empty(r), [])
    out.sort()
    return out


def count_updown(n: int, r: int) -> dict[RPartition, int]:
    """Branching-recursion counts |T^ud_n(lam)| for every reachable lam."""
    counts: dict[RPartition, int] = {rp_empty(r): 1}
    for _ in range(n):
        nxt: dict[RPartition, int] = {}
        for shape, c in counts.items():
            addable, removable = addable_removable(shape)
            for node in addable:
                mu = rp_add(shape, node)
                nxt[mu] = nxt.get(mu, 0) + c
            for node in removable:
                mu = rp_remove(shape, node)
                nxt[mu] = nxt.get(mu, 0) + c
        counts = nxt
    return counts


def rpartitions(m: int, r: int) -> list[RPartition]:
    """All r-multipartitions of total size m, sorted."""
    return sorted(_rpartitions(m, r))


@lru_cache(maxsize=None)
def _partitions(m: int) -> tuple[tuple[int, ...], ...]:
    if m == 0:
        return ((),)
    out = []
    for first in range(m, 0, -1):
        for rest in _partitions(m - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return tuple(out)


def _rpartitions(m: int, r: int) -> Iterator[RPartition]:
    if r == 1:
        for p in _partitions(m):
            yield (p,)
        return
    for head in range(m + 1):
        for p in _partitions(head):
            for rest in _rpartitions(m - head, r - 1):
                yield (p,) + rest


def shapes_with_f(n: int, r: int) -> list[tuple[int, RPartition]]:
    """The label poset members (f, lam) with |lam| = n - 2f, sorted by f
    then shape.
    """
    out = []
    for f in range(n // 2 + 1):
        for lam in rpartitions(n - 2 * f, r):
            out.append((f, lam))
    return out


def dominates(fl1: tuple[int, RPartition], fl2: tuple[int, RPartition]) -> bool:
    """Cell-poset order: (f1,lam) >= (f2,mu) when f1 > f2, or f1 = f2 and
    lam dominates mu by concatenated partial sums.
    """
    f1, lam = fl1
    f2, mu = fl2
    if f1 != f2:
        return f1 > f2
    if rp_size(lam) != rp_size(mu):
        raise ValueError("dominance compares equal total sizes only")
    acc_l = acc_m = 0
    rows = max(max((len(c) for c in lam), default=0), max((len(c) for c in mu), default=0))
    seq_l, seq_m = [], []
    for comp_l, comp_m in zip(lam, mu):
        for i in range(rows):
            acc_l += comp_l[i] if i < len(comp_l) else 0
            acc_m += comp_m[i] if i < len(comp_m) else 0
            seq_l.append(acc_l)
            seq_m.append(acc_m)
    return all(a >= b for a, b in zip(seq_l, seq_m))


# -- neighbor structure --------------------------------------------------------


def neighbors_k(t: UpDownTableau, k: int) -> list[UpDownTableau]:
    """Walks agreeing with t away from position k, sorted (t included).

    When the flanking shapes differ only t itself is returned; the neighbor
    sums in the generator matrices are needed only in the equal-flank case,
    where the class is in bijection with the addable/removable nodes of the
    flanking shape.
    """
    if not 1 <= k <= t.n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got {k}")
    prev, nxt = t.shape(k - 1), t.shape(k + 1)
    if prev != nxt:
        return [t]
    addable, removable = addable_removable(prev)
    out = []
    for node in addable:
        out.append(t.replace_step_shape(k, rp_add(prev, node)))
    for node in removable:
        out.append(t.replace_step_shape(k, rp_remove(prev, node)))
    out.sort()
    return out


def sk_action(t: UpDownTableau, k: int) -> UpDownTableau | None:
    """Swap the boxes changed at steps k and k+1.

    Defined exactly when the two boxes lie in different rows and different
    columns (always true across components); None otherwise.
    """
    if not 1 <= k <= t.n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got {k}")
    if t.shape(k - 1) == t.shape(k + 1):
        raise ValueError("swap undefined when the flanking shapes coincide")
    (s1, n1), (s2, n2) = t.steps[k - 1], t.steps[k]
    if n1.comp == n2.comp and (n1.row == n2.row or n1.col == n2.col):
        return None
    steps = list(t.steps)
    steps[k - 1], steps[k] = (s2, n2), (s1, n1)
    swapped = UpDownTableau(t.r, tuple(steps))
    swapped.partitions()  # validates; different rows+columns always commute
    return swapped


# -- standard tableaux ---------------------------------------------------------

StdTableau = tuple  # tuple of components; each a tuple of rows of entries


def std_tableaux(lam: RPartition) -> list[StdTableau]:
    """All standard fillings of lam with entries 1..|lam| (globally),
    increasing along rows and columns within each component.
    """
    m = rp_size(lam)

    def build(shape: RPartition, entry: int) -> list[StdTableau]:
        if entry == 0:
            return [tuple(() for _ in shape)]
        out = []
        _, removable = addable_removable(shape)
        for node in removable:
            smaller = rp_remove(shape, node)
            for t in build(smaller, entry - 1):
                out.append(_tab_add(t, smaller, node, entry))
        return out

    if m == 0:
        return [tuple(() for _ in lam)]
    result = build(lam, m)
    result.sort()
    return result


def _tab_add(tab: StdTableau, shape: RPartition, node: Node, entry: int) -> StdTableau:
    comp = list(tab[node.comp - 1])
    if node.row - 1 == len(comp):
        comp.append((entry,))
    else:
        comp[node.row - 1] = comp[node.row - 1] + (entry,)
    return tab[: node.comp - 1] + (tuple(comp),) + tab[node.comp:]


def superstandard(lam: RPartition) -> StdTableau:
    """Row-reading filling: 1,2,... along rows, component by component."""
    entry = 0
    out = []
    for comp in lam:
        rows = []
        for part in comp:
            rows.append(tuple(range(entry + 1, entry + part + 1)))
            entry += part
        out.append(tuple(rows))
    return tuple(out)


def tableau_permutation(t: StdTableau) -> tuple[int, ...]:
    """One-line permutation d with d(i) = entry of t in the box where the
    row-reading filling has entry i.
    """
    flat = []
    for comp in t:
        for row in comp:
            flat.extend(row)
    return tuple(flat)


def row_stabilizer_entries(lam: RPartition) -> list[tuple[int, ...]]:
    """Entry sets of the rows of the row-reading filling of lam."""
    return [row for comp in superstandard(lam) for row in comp if len(row) > 1]


# -- permutation words ---------------------------------------------------------


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def perm_of_generator(a: int, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    p[a - 1], p[a] = p[a], p[a - 1]
    return tuple(p)


def perm_of_word(word: Sequence[int], n: int) -> tuple[int, ...]:
    p = tuple(range(1, n + 1))
    for a in word:
        p = perm_compose(p, perm_of_generator(a, n))
    return p


def reduced_word(perm: tuple[int, ...]) -> list[int]:
    """A reduced expression for perm as adjacent transpositions; the length
    equals the inversion number.
    """
    p = list(perm)
    word: list[int] = []
    moved = True
    while moved:
        moved = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i + 1)
                moved = True
    word.reverse()
    return word


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


# -- cosets and exponent vectors ------------------------------------------------


class CosetRep(NamedTuple):
    pairs: tuple[tuple[int, int], ...]  # ((i_f, j_f), ..., (i_1, j_1))
    word: tuple[int, ...]               # generator indices


def _s_span_word(i: int, j: int) -> list[int]:
    """Word for the cycle moving strand i to position j (or back)."""
    if i > j:
        return list(range(i - 1, j - 1, -1))
    return list(range(i, j))


def enumerate_cosets(f: int, n: int) -> list[CosetRep]:
    """Distinguished representatives for the horizontal-arc configurations:
    pairs (i_k, j_k) with 1 <= i_k < j_k <= n-2k+2 and i_f < ... < i_1.
    """
    if not 0 <= 2 * f <= n:
        raise ValueError("need 0 <= 2f <= n")
    reps: list[CosetRep] = []

    # pairs are listed (i_f, j_f) first; the chain i_f < i_{f-1} < ... < i_1
    def rec(k: int, min_i: int, chosen: list[tuple[int, int]]):
        if k == 0:
            pairs = tuple(chosen)
            word: list[int] = []
            for idx, (i, j) in enumerate(pairs):
                kk = f - idx
                word += _s_span_word(n - 2 * kk + 1, i)
                word += _s_span_word(n - 2 * kk + 2, j)
            reps.append(CosetRep(pairs, tuple(word)))
            return
        top = n - 2 * k + 2
        for i in range(min_i, top):
            for j in range(i + 1, top + 1):
                rec(k - 1, i + 1, chosen + [(i, j)])

    rec(f, 1, [])
    reps.sort()
    return reps


def enumerate_kappa(f: int, n: int, r: int) -> list[tuple[int, ...]]:
    """Exponent vectors: entries in -p..p (p = (r-1)/2), nonzero only at
    positions n-1, n-3, ..., n-2f+1.
    """
    if r % 2 == 0:
        raise ValueError("r must be odd")
    p = (r - 1) // 2
    positions = [n - 2 * j + 1 for j in range(1, f + 1)]
    out = []
    for values in itertools.product(range(-p, p + 1), repeat=f):
        kappa = [0] * n
        for pos, v in zip(positions, values):
            kappa[pos - 1] = v
        out.append(tuple(kappa))
    out.sort()
    return out
