"""Cellular basis machinery on top of the seminormal modules.

Provides the index sets for the cellular basis, generator words for its
elements (each a left factor word followed by a right factor word), the
faithful direct sum of seminormal modules, a modular full-rank certificate
for the evaluated basis, closed Gram values on the top annihilator layer,
and the irreducible-label census.

The cell words use the relation table's token vocabulary (seminormal's
token helpers): T_k, E_k, X_i^a, the shifts X_i - u_s and the row-stabilizer
sums.  Every token is read from the module's one token table
(seminormal.token_rows, bound here as token_matrix), which
seminormal.generator_matrix fills; this module keeps no cache of its own.
The Gram cross-check sums arcs·X^kappa·arcs - value·arcs on the top
empty-shape module as one residual (seminormal.module_sum) and passes when
no entry is left.

The certificate works over F_p from the tokens up and forms no exact image.
For each prime and block it reduces every token's integer rows mod p once
(a prime that divides a token's reduced denominator is skipped), multiplies
every left and every right factor out mod p once per label and block,
stopping a factor at its first zero prefix and leaving out the right
factors of a block on which every left factor vanishes, and writes each
image L·R straight into a dense integer row.  The elimination reduces each
pivot row once and each pivot-column entry when it reads it, and leaves the
row updates unreduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial, gcd

from .matrices import dense, frac_rows
from .params import GroundParams
from .seminormal import _product, _t_word, build_module, module_sum
# bound only because bench/tracer.py patches them here (ROADMAP item 1);
# residue_matrix reads its tokens through token_matrix, so the tracer counts them
from .matrices import mat_add, mat_diag, mat_identity, mat_mul, mat_scale, mat_sub  # noqa: F401
from .seminormal import token_rows as token_matrix
from .tableaux import (
    CosetRep,
    RPartition,
    StdTableau,
    enumerate_cosets,
    enumerate_kappa,
    perm_inverse,
    row_stabilizer_entries,
    rp_empty,
    rp_size,
    shapes_with_f,
    std_count,
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
        n_std = std_count(lam)
        n_kappa = len(enumerate_kappa(f, n, r))
        n_cosets = len(enumerate_cosets(f, n))
        blocks.append((f, lam, n_std, n_kappa, n_cosets, n_std * n_kappa * n_cosets))
    return CellDatum(n, r, tuple(blocks))


# -- generator words ------------------------------------------------------------


def word_star(w: GenWord) -> GenWord:
    """Anti-involution fixing every generator token and reversing products."""
    return tuple(reversed(w))


def _shape(s: StdTableau) -> RPartition:
    return tuple(tuple(len(row) for row in comp) for comp in s)


def _seed_left(s: StdTableau, r: int) -> GenWord:
    """Left half of the seed element: the descending-permutation prefix of
    s, the eigenvalue-shift product and the row-stabilizer sum of its shape.
    """
    lam = _shape(s)
    word: list[Token] = list(_t_word(tableau_permutation(s)))
    a = 0
    for comp_idx in range(1, r):
        a += sum(lam[comp_idx - 1])
        for i in range(1, a + 1):
            word.append(("Xshift", i, comp_idx + 1))
    if row_stabilizer_entries(lam):
        word.append(("rowsum", lam))
    return tuple(word)


def _seed_right(t: StdTableau) -> GenWord:
    """Right half of the seed element: the ascending-permutation suffix of t."""
    return _t_word(perm_inverse(tableau_permutation(t)))


def _check_same_shape(s: StdTableau, t: StdTableau) -> None:
    if _shape(s) != _shape(t):
        raise ValueError("fillings have different shapes")


def m_word(s: StdTableau, t: StdTableau, r: int) -> GenWord:
    """Word for the Hecke-level seed element attached to a pair of standard
    fillings of the same shape: a descending-permutation prefix, the
    eigenvalue-shift product, the row-stabilizer sum, and an ascending
    permutation suffix.
    """
    _check_same_shape(s, t)
    return _seed_left(s, r) + _seed_right(t)


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


def left_word(f: int, left, n: int, r: int) -> GenWord:
    """Left factor of a cellular basis element, fixed by the left index
    (s, rho, e): starred coset prefix, eigenvector-exponent factors, the arc
    idempotent, then the left half of the seed element.
    """
    s, rho, e = left
    return (word_star(_t_word_of_coset(e, n)) + _x_power_word(rho, f, n)
            + e_arcs_word(f, n) + _seed_left(s, r))


def right_word(f: int, right, n: int) -> GenWord:
    """Right factor of a cellular basis element, fixed by the right index
    (t, kappa, d): the right half of the seed element, the right exponents
    and the coset suffix.
    """
    t, kappa, d = right
    return _seed_right(t) + _x_power_word(kappa, f, n) + _t_word_of_coset(d, n)


def cell_word(f: int, lam: RPartition, left, right, n: int, r: int) -> GenWord:
    """Token word for one cellular basis element: left_word of the left index
    followed by right_word of the right index.
    """
    _check_same_shape(left[0], right[0])
    return left_word(f, left, n, r) + right_word(f, right, n)


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


def eval_word_blocks(w: GenWord, rep: FaithfulRep) -> list:
    """Per-block dense Fraction matrices of a token word, in the fixed block
    order: the one-term module_sum on each block.  Word by word, for tests.
    """
    return [dense(frac_rows(*module_sum([(1, w)], m)), m.dim) for _, _, m in rep.blocks]


# -- certified rank -------------------------------------------------------------

# Primes for the modular rank certificate.  None is a Mersenne prime: every
# ground parameter is a power of 2, and 2 has order 61 modulo 2^61 - 1, so that
# prime divides many differences of contents.
RANK_PRIMES = (2**64 - 59, 2**63 - 25, 2**62 - 57)


def token_residues(rows: list, den: int, p: int) -> list | None:
    """Sparse rows mod p of the matrix rows/den, or None when p divides its
    reduced denominator.

    When p divides den, den and every numerator are first divided by their
    gcd g, and p must not divide den/g.
    """
    g = 1
    if den % p == 0:
        g = gcd(den, *(x for row in rows for x in row.values()))
        if den // g % p == 0:
            return None
    inv = pow(den // g, -1, p)
    return _reduce([{j: x // g * inv for j, x in row.items()} for row in rows], p)


def _reduce(rows: list, p: int) -> list:
    return [{j: v for j, x in row.items() if (v := x % p)} for row in rows]


def _word_residues(word: GenWord, tokens: dict, p: int, dim: int) -> list:
    """Sparse rows mod p of a word's product, given its tokens' residues; the
    product stops at its first zero prefix, since the rest stays zero.
    """
    out = None
    for tok in word:
        out = tokens[tok] if out is None else _reduce(_product([out, tokens[tok]]), p)
        if not any(out):
            break
    return [{i: 1} for i in range(dim)] if out is None else out


def residue_matrix(rep: FaithfulRep, p: int) -> list | None:
    """Dense integer rows congruent mod p to the images of the cellular basis
    elements, in basis order, or None when p divides the reduced denominator
    of some token (see token_residues).

    A row holds the blocks' entries in rep's block order, each block read row
    by row.  Each element is left_word(left)·right_word(right).  Every token
    of every word is reduced mod p on every block before any product is
    formed, so every token is p-integral and reduction mod p is a ring map:
    a factor multiplied out mod p that stops at a zero prefix stands for a
    zero residue, and so does every image L·R whose left factor vanishes.
    Each left and right factor is multiplied out once per label and block; a
    block on which every left factor vanishes evaluates no right factor.  An
    image entry is the unreduced sum of its products of residues.
    """
    words = []
    for f, lam in shapes_with_f(rep.n, rep.r):
        idx = delta_index(f, lam, rep.n, rep.r)
        words.append(([left_word(f, x, rep.n, rep.r) for x in idx],
                      [right_word(f, x, rep.n) for x in idx]))
    if sum(len(lefts) * len(rights) for lefts, rights in words) != rep.total_dim:
        raise ArithmeticError("index census does not match the dimension")
    used = dict.fromkeys(tok for pair in words for side in pair for w in side for tok in w)
    blocks = []
    for _, _, m in rep.blocks:
        tokens = {}
        for tok in used:
            tokens[tok] = token_residues(*token_matrix(tok, m), p)
            if tokens[tok] is None:
                return None
        blocks.append((m.dim, tokens))
    out = []
    for lefts, rights in words:
        rows = [[0] * rep.total_dim for _ in range(len(lefts) * len(rights))]
        offset = 0
        for dim, tokens in blocks:
            ls = [_word_residues(w, tokens, p, dim) for w in lefts]
            if any(map(any, ls)):
                rs = [_word_residues(w, tokens, p, dim) for w in rights]
                for i, left in enumerate(ls):
                    for flat, right in zip(rows[i * len(rights):(i + 1) * len(rights)], rs):
                        for a, row in enumerate(left):
                            base = offset + a * dim
                            for k, x in row.items():
                                for b, y in right[k].items():
                                    flat[base + b] += x * y
            offset += dim * dim
        out += rows
    return out


def full_rank_mod_p(a: list, p: int) -> bool:
    """True when the square matrix a of integers has full rank modulo p.

    Elimination is lazily reduced: each pivot row is reduced mod p once, a
    pivot-column entry when it is read, and the row update x - c·y is left
    unreduced and touches only the pivot row's nonzero columns.  The rows
    are rewritten.
    """
    d = len(a)
    for col in range(d):
        pivot = next((i for i in range(col, d) if a[i][col] % p), None)
        if pivot is None:
            return False
        a[col], a[pivot] = a[pivot], a[col]
        # columns before col are zero mod p in every row from here on
        top = [(j, y) for j, x in enumerate(a[col][col:], col) if (y := x % p)]
        scale = pow(top[0][1], -1, p)
        for i in range(col + 1, d):
            c = a[i][col] % p
            if c:
                c = c * scale % p
                row = a[i]
                for j, y in top:
                    row[j] -= c * y
    return True


def certify_full_rank(rep: FaithfulRep) -> bool:
    """True when the images of the cellular basis elements (see
    residue_matrix) have full rank modulo one of RANK_PRIMES, which implies
    full rank over Q.  A prime that divides a token's reduced denominator is
    skipped; a prime at which a pivot column vanishes is followed by the
    next one.
    """
    for p in RANK_PRIMES:
        a = residue_matrix(rep, p)
        if a is not None and full_rank_mod_p(a, p):
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
    return {
        "D": d_target,
        "certified": certify_full_rank(rep),
        "elapsed": time.perf_counter() - t0,
    }


# -- Gram values and label census -------------------------------------------------


def gram_half(n: int, ell: int, params: GroundParams, omega=None) -> dict:
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
    if omega is None and n <= 4:
        _gram_matrix_check(n, ell, params, value)
    return {"value": value, "form_zero": form_zero}


def _gram_matrix_check(n, ell, params, value):
    """Raise unless arcs·X^kappa·arcs - value·arcs vanishes on the empty-shape
    module of the top layer, summed as one residual over its token table.
    """
    f = n // 2
    m = build_module(rp_empty(params.r), f, params)
    arcs = e_arcs_word(f, n)
    kappa = tuple(ell if (n - i) % 2 == 1 else 0 for i in range(1, n + 1))
    residual, _ = module_sum([(1, arcs + _x_power_word(kappa, f, n) + arcs), (-value, arcs)], m)
    if any(residual):
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
