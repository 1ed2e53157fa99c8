"""Cellular basis machinery on top of the seminormal modules.

Provides the index sets for the cellular basis, generator words for its
elements, evaluation of words over Q in the faithful direct sum of
seminormal modules, a modular full-rank certificate for the evaluated basis,
closed Gram values on the top annihilator layer, and the irreducible-label
census.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial

from .matrices import mat_add, mat_diag, mat_scale
# bound only because bench/tracer.py patches them here (ROADMAP item 1)
from .matrices import mat_identity, mat_mul, mat_sub  # noqa: F401
from .params import GroundParams
from .seminormal import SeminormalModule, build_module, generator_matrix, word_product
from .tableaux import (
    CosetRep,
    RPartition,
    StdTableau,
    enumerate_cosets,
    enumerate_kappa,
    perm_inverse,
    reduced_word,
    row_stabilizer_entries,
    rp_empty,
    rp_size,
    shapes_with_f,
    std_tableaux,
    tableau_permutation,
)

GenWord = tuple

Token = tuple


def target_dimension(n: int, r: int) -> int:
    """r^n (2n-1)!!, the generic dimension on n strands."""
    return r ** n * factorial(2 * n) // (2 ** n * factorial(n))


# -- index sets -----------------------------------------------------------------


@dataclass(frozen=True)
class CellDatum:
    """Per-label index counts for the cellular basis on n strands."""

    n: int
    r: int
    blocks: tuple  # entries (f, lam, n_std, n_kappa, n_cosets, size)

    @property
    def total_sq(self) -> int:
        return sum(b[5] ** 2 for b in self.blocks)


def delta_index(f: int, lam: RPartition, n: int, r: int) -> list:
    """All triples (t, kappa, d) indexing one side of the basis at (f, lam)."""
    if rp_size(lam) + 2 * f != n:
        raise ValueError("shape size and arc count do not fill n strands")
    return [
        (t, kappa, d)
        for t in std_tableaux(lam)
        for kappa in enumerate_kappa(f, n, r)
        for d in enumerate_cosets(f, n)
    ]


def cell_datum(n: int, r: int) -> CellDatum:
    blocks = []
    for f, lam in shapes_with_f(n, r):
        n_std = len(std_tableaux(lam))
        n_kappa = len(enumerate_kappa(f, n, r))
        n_cosets = len(enumerate_cosets(f, n))
        blocks.append((f, lam, n_std, n_kappa, n_cosets, n_std * n_kappa * n_cosets))
    return CellDatum(n, r, tuple(blocks))


# -- generator words ------------------------------------------------------------


def word_star(w: GenWord) -> GenWord:
    """Anti-involution fixing every generator token and reversing products."""
    return tuple(reversed(w))


def _t_word(perm: tuple[int, ...]) -> GenWord:
    return tuple(("T", i, 1) for i in reduced_word(perm))


def m_word(s: StdTableau, t: StdTableau, r: int) -> GenWord:
    """Word for the Hecke-level seed element attached to a pair of standard
    fillings of the same shape: a descending-permutation prefix, the
    eigenvalue-shift product, the row-stabilizer sum, and an ascending
    permutation suffix.
    """
    lam = tuple(tuple(len(row) for row in comp) for comp in s)
    mu = tuple(tuple(len(row) for row in comp) for comp in t)
    if lam != mu:
        raise ValueError("fillings have different shapes")
    word: list[Token] = list(_t_word(tableau_permutation(s)))
    a = 0
    for comp_idx in range(1, r):
        a += sum(lam[comp_idx - 1])
        for i in range(1, a + 1):
            word.append(("Xshift", i, comp_idx + 1))
    if row_stabilizer_entries(lam):
        word.append(("rowsum", lam))
    word.extend(_t_word(perm_inverse(tableau_permutation(t))))
    return tuple(word)


def _x_power_word(kappa: tuple[int, ...], f: int, n: int) -> GenWord:
    out = []
    for j in range(1, f + 1):
        i = n - 2 * j + 1
        if kappa[i - 1] != 0:
            out.append(("X", i, kappa[i - 1]))
    return tuple(out)


def e_arcs_word(f: int, n: int) -> GenWord:
    """Horizontal-arc idempotent product on the last 2f strands."""
    return tuple(("E", n - 2 * j + 1, 1) for j in range(1, f + 1))


def cell_word(f: int, lam: RPartition, left, right, n: int, r: int) -> GenWord:
    """Token word for one cellular basis element: starred coset prefix,
    eigenvector-exponent factors, the arc idempotent, the seed element, then
    the right exponents and coset suffix.
    """
    s, rho, e = left
    t, kappa, d = right
    word: list[Token] = []
    word.extend(word_star(_t_word_of_coset(e, n)))
    word.extend(_x_power_word(rho, f, n))
    word.extend(e_arcs_word(f, n))
    word.extend(m_word(s, t, r))
    word.extend(_x_power_word(kappa, f, n))
    word.extend(_t_word_of_coset(d, n))
    return tuple(word)


def _t_word_of_coset(d: CosetRep, n: int) -> GenWord:
    for i in d.word:
        if not 1 <= i <= n - 1:
            raise ValueError("coset word index out of range")
    return tuple(("T", i, 1) for i in d.word)


# -- evaluation in the faithful representation -----------------------------------


@dataclass
class FaithfulRep:
    """Direct sum of all seminormal modules on n strands."""

    n: int
    r: int
    params: GroundParams
    blocks: list  # entries (f, lam, SeminormalModule)

    @property
    def total_dim(self) -> int:
        return sum(m.dim ** 2 for _, _, m in self.blocks)


def build_rep(n: int, r: int, params: GroundParams) -> FaithfulRep:
    if params.r != r:
        raise ValueError("parameter family has a different number of eigenvalues")
    blocks = [(f, lam, build_module(lam, f, params)) for f, lam in shapes_with_f(n, r)]
    return FaithfulRep(n, r, params, blocks)


def _module_word(w: GenWord, m: SeminormalModule):
    return word_product(w, lambda tok: token_matrix(tok, m), m.dim)


def _rowsum_matrix(m: SeminormalModule, lam: RPartition):
    rows = row_stabilizer_entries(lam)
    n = m.n
    total = None
    pools = [list(permutations(row)) for row in rows]
    for choice in product(*pools) if pools else [()]:
        p = list(range(1, n + 1))
        for row, img in zip(rows, choice):
            for pos, val in zip(row, img):
                p[pos - 1] = val
        mat = _module_word(_t_word(tuple(p)), m)
        total = mat if total is None else mat_add(total, mat)
    return total


def token_matrix(tok: Token, m: SeminormalModule):
    """Matrix of one token on a single seminormal module: a relation-table
    generator, ("Xshift", i, comp) for X_i - u_comp, or ("rowsum", lam) for
    the row-stabilizer sum of lam.
    """
    cache = m._word_cache
    if tok in cache:
        return cache[tok]
    p = m.params
    if tok[0] == "Xshift":
        _, i, comp = tok
        if not (1 <= i <= m.n and 1 <= comp <= p.r):
            raise ValueError("shift token out of range")
        us = p.u[comp - 1]
        out = mat_diag([s.content(i, p) - us for s in m.basis])
    elif tok[0] == "rowsum":
        out = _rowsum_matrix(m, tok[1])
    else:
        out = generator_matrix(tok, m.matX, m.matT, m.matE, p.delta)
    cache[tok] = out
    return out


def eval_word_blocks(w: GenWord, rep: FaithfulRep) -> list:
    """Per-block matrices of a token word, in the fixed block order.

    A one-token word yields the cached token matrix itself, so callers must
    not mutate the result.
    """
    return [_module_word(w, m) for _, _, m in rep.blocks]


def eval_word(w: GenWord, rep: FaithfulRep) -> list:
    """Flattened block-diagonal image; length is the sum of squared block
    dimensions.
    """
    flat = []
    for mat in eval_word_blocks(w, rep):
        for row in mat:
            flat.extend(row)
    return flat


# -- certified rank -------------------------------------------------------------

# Primes for the modular rank certificate.  None is a Mersenne prime: every
# ground parameter is a power of 2, and 2 has order 61 modulo 2^61 - 1, so that
# prime divides many differences of contents.
RANK_PRIMES = (2**64 - 59, 2**63 - 25, 2**62 - 57)


def full_rank_mod_p(rows: list) -> bool:
    """True when the square matrix of rational rows has full rank modulo one
    of RANK_PRIMES, which implies full rank over Q.

    A prime that divides a denominator is skipped; a prime at which a pivot
    column vanishes is followed by the next one.
    """
    d = len(rows)
    dens = {x.denominator for row in rows for x in row}
    for p in RANK_PRIMES:
        if any(den % p == 0 for den in dens):
            continue
        inv = {den: pow(den, -1, p) for den in dens}
        a = [[x.numerator * inv[x.denominator] % p for x in row] for row in rows]
        for col in range(d):
            pivot = next((i for i in range(col, d) if a[i][col]), None)
            if pivot is None:
                break
            a[col], a[pivot] = a[pivot], a[col]
            top = a[col]
            scale = pow(top[col], -1, p)
            for i in range(col + 1, d):
                if a[i][col]:
                    c = a[i][col] * scale % p
                    a[i] = [(x - c * y) % p for x, y in zip(a[i], top)]
        else:
            return True
    return False


def rank_certify(n: int, r: int, params: GroundParams) -> dict:
    """Evaluate every cellular basis element in the faithful representation
    and certify that the images are linearly independent.
    """
    t0 = time.perf_counter()
    d_target = target_dimension(n, r)
    rep = build_rep(n, r, params)
    if rep.total_dim != d_target:
        raise ArithmeticError("block dimensions do not add up")
    rows = []
    for f, lam in shapes_with_f(n, r):
        idx = delta_index(f, lam, n, r)
        for left in idx:
            for right in idx:
                rows.append(eval_word(cell_word(f, lam, left, right, n, r), rep))
    if len(rows) != d_target:
        raise ArithmeticError("index census does not match the dimension")
    return {
        "D": d_target,
        "certified": full_rank_mod_p(rows),
        "elapsed": time.perf_counter() - t0,
    }


# -- Gram values and label census -------------------------------------------------


def gram_half(
    n: int,
    ell: int,
    params: GroundParams,
    omega=None,
    cross_check: bool = True,
) -> dict:
    """Gram pairing of the arc idempotent against its eigenvector-power twist
    on the top annihilator layer: the closed value is a power of one moment.
    """
    if n % 2 != 0:
        raise ValueError("the top layer needs an even strand count")
    if abs(ell) > params.r - 1:
        raise ValueError("exponent outside the moment window")
    omega_fn = omega if omega is not None else params.omega
    f = n // 2
    value = omega_fn(ell) ** f
    form_zero = all(omega_fn(i) == 0 for i in range(params.r))
    if cross_check and omega is None and n <= 4:
        _gram_matrix_check(n, ell, params, value)
    return {"value": value, "form_zero": form_zero}


def _gram_matrix_check(n, ell, params, value):
    f = n // 2
    m = build_module(rp_empty(params.r), f, params)
    rep = FaithfulRep(n, params.r, params, [(f, rp_empty(params.r), m)])
    arcs = e_arcs_word(f, n)
    kappa = tuple(ell if (n - i) % 2 == 1 else 0 for i in range(1, n + 1))
    sandwich = arcs + _x_power_word(kappa, f, n) + arcs
    lhs = eval_word_blocks(sandwich, rep)[0]
    rhs = mat_scale(value, eval_word_blocks(arcs, rep)[0])
    if lhs != rhs:
        raise ArithmeticError("gram value mismatch in the block image")


def classify(n: int, r: int, params: GroundParams, omega=None) -> dict:
    """Irreducible-label census in the semisimple regime: every (f, lam)
    labels a module, except the top empty-shape layer when n is even and all
    window moments vanish.
    """
    omega_fn = omega if omega is not None else params.omega
    labels = list(shapes_with_f(n, r))
    excluded = []
    if n % 2 == 0 and all(omega_fn(i) == 0 for i in range(r)):
        top = (n // 2, rp_empty(r))
        labels = [fl for fl in labels if fl != top]
        excluded.append(top)
    return {"n": n, "r": r, "labels": labels, "excluded": excluded}
