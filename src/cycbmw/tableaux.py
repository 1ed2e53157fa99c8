"""Multipartition and walk combinatorics.

r-multipartitions, addable/removable nodes and their contents, up-down
tableaux (add/remove walks) and the step graph of their shapes, standard
tableaux, permutation words, coset representatives, and the exponent vectors
indexing the cellular basis.
All enumeration orders are deterministic.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Sequence

from .params import GroundParams


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
    when removed; memoized per parameter family on (component, col - row,
    mode).
    """
    diag = node.col - node.row
    key = (node.comp, diag, mode)
    value = params._content_cache.get(key)
    if value is None:
        value = params.u[node.comp - 1] * params.q ** (2 * diag)
        if mode == "remove":
            value = 1 / value
        elif mode != "add":
            raise ValueError("mode must be 'add' or 'remove'")
        params._content_cache[key] = value
    return value


def content_product_identity(lam: RPartition, params: GroundParams) -> bool:
    """Exact check: the product of contents over all addable (as added) and
    removable (as removed) nodes equals u_1 ... u_r, compared on integers as
    prod numerators * P.den == prod denominators * P.num.
    """
    addable, removable = addable_removable(lam)
    cs = [content(a, "add", params) for a in addable]
    cs += [content(b, "remove", params) for b in removable]
    p = params.u_prod
    return (math.prod(c.numerator for c in cs) * p.denominator
            == math.prod(c.denominator for c in cs) * p.numerator)


class UpDownTableau:
    """Walk of r-multipartitions from the empty shape, one box per step.

    Stored as the signed-step sequence ((sign, node), ...) with sign +1 for
    an added box and -1 for a removed one; intermediate shapes are given
    by the function that built the walk, else reconstructed lazily.
    """

    __slots__ = ("r", "steps", "_parts")

    def __init__(self, r: int, steps: tuple[tuple[int, Node], ...],
                 parts: list[RPartition] | None = None):
        self.r = r
        self.steps = tuple(steps)
        self._parts = parts

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

    def __eq__(self, other):
        return isinstance(other, UpDownTableau) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        body = ", ".join(f"{'+' if s > 0 else '-'}{tuple(nd)}" for s, nd in self.steps)
        return f"UpDownTableau[{body}]"


def enumerate_updown(n: int, lam: RPartition) -> list[UpDownTableau]:
    """All walks of length n from the empty shape to lam, sorted.

    Depth first, removals before additions, each in (component, row) order:
    that is sort_key's order, so the walks come out sorted.  Each walk
    carries the shapes built on the way; the steps out of a shape are listed
    once per call.

    A prefix ending at cur after k steps is extended only while the box
    distance from cur to lam (the number of boxes in exactly one of them)
    is at most n - k.  That bound is exact reachability: cur reaches lam by
    removing the boxes of cur outside lam, adding those of lam outside cur,
    and padding with add-remove pairs (the parity of the distance and of
    n - k agree at every step), so every prefix kept ends in at least one
    walk.  The distance starts at |lam| and moves by one per step: down when
    the step adds a box of lam or removes a box outside lam, up otherwise.
    """
    r = len(lam)
    if (n - rp_size(lam)) % 2 != 0 or n < rp_size(lam):
        raise ValueError(f"parity mismatch: no length-{n} walks end at a shape of size {rp_size(lam)}")
    boxes = {Node(s, i, j) for s, comp in enumerate(lam, start=1)
             for i, part in enumerate(comp, start=1) for j in range(1, part + 1)}
    # shape -> [step, shape after it (set when first taken), distance change]
    branches: dict = {}
    out: list[UpDownTableau] = []
    steps: list = []
    shapes = [rp_empty(r)]

    def walk(cur: RPartition, dist: int):
        if len(steps) == n:
            out.append(UpDownTableau(r, tuple(steps), shapes[:]))
            return
        left = n - len(steps) - 1  # steps left after the next one
        branch = branches.get(cur)
        if branch is None:
            addable, removable = addable_removable(cur)
            branch = branches[cur] = (
                [[(-1, nd), None, 1 if nd in boxes else -1] for nd in removable]
                + [[(1, nd), None, -1 if nd in boxes else 1] for nd in addable])
        for move in branch:
            step, nxt, change = move
            if dist + change <= left:
                if nxt is None:
                    nxt = move[1] = (rp_add if step[0] > 0 else rp_remove)(cur, step[1])
                steps.append(step)
                shapes.append(nxt)
                walk(nxt, dist + change)
                steps.pop()
                shapes.pop()

    walk(shapes[0], rp_size(lam))
    return out


class StepGraph:
    """The walks of n steps from the empty r-multipartition as one graph of
    shapes by level, built by the branching recursion.

    levels[k] maps each shape reachable in k steps to the number of k-step
    walks from the empty shape that end there; first[k] maps it to the
    steps of the first of those walks in sort order.  moves(shape) lists the
    steps out of a shape with the shape each reaches, removals before
    additions, each by (component, row): neighbors_k's and sort_key's order.
    A step is undone by the step of opposite sign on the same node, so the
    walks from a shape at step k to lam at step n are counted by the same
    recursion run back from lam (backward).
    """

    __slots__ = ("n", "r", "levels", "first", "_moves")

    def __init__(self, n: int, r: int):
        self.n, self.r = n, r
        self._moves: dict = {}
        empty = rp_empty(r)
        self.levels = [{empty: 1}]
        self.first = [{empty: ()}]
        for _ in range(n):
            counts, first = {}, {}
            for shape, c in self.levels[-1].items():
                for step, mu in self.moves(shape):
                    if mu in counts:
                        counts[mu] += c
                    else:
                        counts[mu] = c
                        first[mu] = self.first[-1][shape] + (step,)
            self.levels.append(counts)
            self.first.append(first)

    def moves(self, shape: RPartition) -> list:
        """[(step, shape after it)] for every step out of shape, listed once
        per graph.
        """
        out = self._moves.get(shape)
        if out is None:
            addable, removable = addable_removable(shape)
            out = self._moves[shape] = (
                [((-1, nd), rp_remove(shape, nd)) for nd in removable]
                + [((1, nd), rp_add(shape, nd)) for nd in addable])
        return out

    def backward(self, lam: RPartition) -> list[dict]:
        """back[k]: each shape at step k on a walk to lam at step n, mapped
        to the number of walks from it to lam.  A walk of the label passes
        through the window of steps k+1..m from mu at step k to nu at step m
        fwd·back times, fwd = levels[k][mu] and back = back[m][nu].
        """
        if lam not in self.levels[self.n]:
            raise ValueError(f"no length-{self.n} walks end at {lam}")
        back = [None] * self.n + [{lam: 1}]
        for k in range(self.n, 0, -1):
            level, prev = self.levels[k - 1], {}
            for shape, c in back[k].items():
                for _, mu in self.moves(shape):
                    if mu in level:
                        prev[mu] = prev.get(mu, 0) + c
            back[k - 1] = prev
        return back

    def walk(self, k: int, shape: RPartition, tail: tuple = ()) -> UpDownTableau:
        """The first walk to shape at step k, followed by the steps of tail."""
        return UpDownTableau(self.r, self.first[k][shape] + tail)

    # The windows of the walks to one label, from back = backward(lam).  A
    # window starts at a shape at step k-1; times counts the walks through it.

    def returns(self, back: list) -> list:
        """For k = 1..n-1, the shapes at step k-1 that step k+1 returns to."""
        return [back[k - 1].keys() & back[k + 1].keys() for k in range(1, self.n)]

    def crossings(self, back: list):
        """(shape, step) for every step k out of a shape that step k+1
        returns to, where step k+2 can leave the shape another way.
        """
        for k, shapes in enumerate(self.returns(back)[:self.n - 2], start=1):
            for shape in shapes:
                onward = [step for step, mu in self.moves(shape) if mu in back[k + 2]]
                for step, _ in self.moves(shape):
                    if onward != [step]:
                        yield shape, step

    def repeats(self, back: list):
        """(k, shape, steps k..k+2, times) for every window whose steps k+1
        and k+2 undo step k and take it again.
        """
        for k in range(1, self.n - 1):
            for shape in back[k - 1]:
                fwd = self.levels[k - 1][shape]
                for (sign, nd), mu in self.moves(shape):
                    if mu in back[k + 2]:
                        yield k, shape, ((sign, nd), (-sign, nd), (sign, nd)), fwd * back[k + 2][mu]

    def swaps(self, back: list):
        """(k, shape, steps k and k+1, times) for every window whose step k+1
        does not undo step k.
        """
        for k in range(1, self.n):
            for shape in back[k - 1]:
                fwd = self.levels[k - 1][shape]
                for step, mu in self.moves(shape):
                    if mu in back[k]:
                        for step1, nu in self.moves(mu):
                            if nu != shape and nu in back[k + 1]:
                                yield k, shape, (step, step1), fwd * back[k + 1][nu]


def count_updown(n: int, r: int) -> dict[RPartition, int]:
    """Branching-recursion counts |T^ud_n(lam)| for every reachable lam."""
    return StepGraph(n, r).levels[n]


def rpartitions(m: int, r: int) -> list[RPartition]:
    """All r-multipartitions of total size m, sorted."""
    return sorted(_rpartitions(m, r))


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
    flanking shape: steps k and k+1 remove and re-add a removable node, or
    add and remove an addable one: in that order, each by (component, row),
    the class is sorted.  Each neighbour takes t's shapes but shape k.
    """
    if not 1 <= k <= t.n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got {k}")
    parts = t.partitions()
    prev = parts[k - 1]
    if prev != parts[k + 1]:
        return [t]
    addable, removable = addable_removable(prev)
    head, tail = t.steps[:k - 1], t.steps[k + 1:]
    return ([UpDownTableau(t.r, head + ((-1, nd), (1, nd)) + tail,
                           parts[:k] + [rp_remove(prev, nd)] + parts[k + 1:]) for nd in removable]
            + [UpDownTableau(t.r, head + ((1, nd), (-1, nd)) + tail,
                             parts[:k] + [rp_add(prev, nd)] + parts[k + 1:]) for nd in addable])


def sk_action(t: UpDownTableau, k: int) -> UpDownTableau | None:
    """Swap the boxes changed at steps k and k+1.

    Defined exactly when the two boxes lie in different rows and different
    columns (always true across components); None otherwise.  Only shape k
    is rebuilt and validated: the next step then always lands on shape k+1.
    """
    if not 1 <= k <= t.n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got {k}")
    parts = t.partitions()
    if parts[k - 1] == parts[k + 1]:
        raise ValueError("swap undefined when the flanking shapes coincide")
    (s1, n1), (s2, n2) = t.steps[k - 1], t.steps[k]
    if n1.comp == n2.comp and (n1.row == n2.row or n1.col == n2.col):
        return None
    mid = rp_add(parts[k - 1], n2) if s2 > 0 else rp_remove(parts[k - 1], n2)
    if mid is None:
        raise ValueError(f"invalid walk step {(s2, n2)}")
    steps = t.steps[:k - 1] + ((s2, n2), (s1, n1)) + t.steps[k + 1:]
    return UpDownTableau(t.r, steps, parts[:k] + [mid] + parts[k + 1:])


# -- standard tableaux ---------------------------------------------------------

StdTableau = tuple  # tuple of components; each a tuple of rows of entries


def std_tableaux(lam: RPartition) -> list[StdTableau]:
    """All standard fillings of lam with entries 1..|lam| (globally),
    increasing along rows and columns within each component.
    """
    m = rp_size(lam)
    # the fillings of each sub-shape, built once per call
    seen: dict = {}

    def build(shape: RPartition, entry: int) -> list[StdTableau]:
        if entry == 0:
            return [tuple(() for _ in shape)]
        if shape in seen:
            return seen[shape]
        out = []
        _, removable = addable_removable(shape)
        for node in removable:
            smaller = rp_remove(shape, node)
            for t in build(smaller, entry - 1):
                out.append(_tab_add(t, smaller, node, entry))
        seen[shape] = out
        return out

    if m == 0:
        return [tuple(() for _ in lam)]
    result = build(lam, m)
    result.sort()
    return result


def std_count(lam: RPartition) -> int:
    """len(std_tableaux(lam)) without building them: |lam|! over the hook
    lengths of every box of every component (hook formula times multinomial).
    """
    hooks = 1
    for comp in lam:
        for i, part in enumerate(comp):
            for j in range(part):
                hooks *= part - j + sum(1 for below in comp[i + 1:] if below > j)
    return math.factorial(rp_size(lam)) // hooks


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
