"""Exponential sums S_f(0) of f(x) = Tr(a x^d + b x^2) over GF(p^n), n = 4k.

The central identity: with U the cyclic subgroup of order p^2k + 1 of
GF(p^n)* (generated by xi^(p^2k - 1)) and the linearized polynomial

    L(X) = b^(p^2k) X + a X^(p^k) + b X^(p^2k) + a^(p^2k) X^(p^3k),

the sum S_f(0) equals p^2k (2 N(a,b) - 1), where 2 N(a,b) is the number
of zeros of L in U (always even, since -U = U and L is odd).

Coefficient pairs split into three cases:

* SQUARE_MATCH   a^2 = b^d with b != 0,
* NORM_DIFFER    a^(p^k (p^k+1)) != b^(p^k+1) (and not SQUARE_MATCH),
* JACOBSTHAL     the norms agree but a^2 != b^d.

In the first two cases N(a,b) <= 2, so S_f(0) is one of -p^2k, p^2k,
3 p^2k (and zeros of L coincide with those of a companion polynomial
F when the norms differ).  L and F are p^k-linearized, so their zeros
are the kernels of m x m matrices over GF(p): prop1_kernel_check builds
them from dlogs and traces for a batch of pairs (form_matrices) and
compares the kernels by one batched row reduction mod p (rref_mod_p).

In the JACOBSTHAL case N(a,b) is computed three independent ways: the
direct zero count, a nonsquare count over GF(p^k) through an auxiliary
g with g^(p^k-1) = -b^(p^3k)/a, and a Jacobsthal sum of order p^k + 1:

    2 N(a,b) = p^k - H_{p^k+1}(-b^(p^2k+1)/g^2) / (p^k + 1) + 1.

Each route runs on an array of pairs at once.  N_count_bulk is the
direct count: one FieldCtx.sum_enc_bulk evaluation of L at every u in U
with per-pair coefficient dlogs, with the parity check per pair.
N_via_nonsquares_bulk and N_via_jacobsthal_bulk solve for g in dlogs
and evaluate their sums as (pairs, p^k) and (pairs, p^2k - 1) arrays of
eta.  corollary1_bulk and corollary_properties make one direct count
over all the pairs they compare.  The per-pair references (the zero
sets over the whole field, find_g) are in charsum.reference, which no
command imports; corollary_suite, the pair-by-pair reference of
corollary_properties, and L_eval stay here, as perfbench names them.

The defining sum for every a at once comes from one exact transform,
character_counts: Tr(a z) = sum_i a_i Tr(e_i z) over the base-p digits
a_i of a, so a per-digit butterfly over the joint counts of the vector
(Tr(e_i x^d))_i and of Tr(b x^2) yields the value counts of
Tr(a x^d + b x^2) for every a, in integers.

N(a, b) for every a at once comes from N_table: on U, L(u) = 0 is a
linear condition on a, met by p^2k values of a per u, so one count over
the (p^2k + 1) p^2k incidences gives every 2N(a, b).  case_tags gives
every case from dlogs.  The direct zero count and case_detail
cross-check both tables inside every sweep.

distribution_sweep fixes b and covers every a in array work: it checks
each closed form against the transform's defining sum, streams each
pair's record (case, N and witnesses) to its caller if asked, and
tallies how often S_f(0) hits each of the three values (r, s, t),
verifying

    r + s + t  = p^n - p^k + chi(b),
    -r + s + 3t = chi(b) p^k,
    sum_a S_f(0) = p^n,

with chi(b) = b^((p^n - 1)/2) read as +-1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import jacobsthal
from .cycint import CycInt
from .errors import (
    BothCoefficientsZero,
    CaseViolation,
    DivisibilityViolation,
    KernelMismatch,
    NoSolution,
    NotInSubfield,
    OracleMismatch,
    ParityViolation,
    RangeViolation,
    WrongCase,
    ZeroB,
)
from .field_core import Elem, FieldCtx


@dataclass(frozen=True)
class CoeffPair:
    """The (a, b) of f(x) = Tr(a x^d + b x^2)."""

    a: Elem
    b: Elem

    def require_admissible(self):
        if self.a.is_zero and self.b.is_zero:
            raise BothCoefficientsZero("(a, b) = (0, 0) is not admissible")


class CaseTag(enum.Enum):
    NORM_DIFFER = "NORM_DIFFER"
    SQUARE_MATCH = "SQUARE_MATCH"
    JACOBSTHAL = "JACOBSTHAL"


@dataclass(frozen=True)
class CaseDetail:
    tag: CaseTag
    norms_match: bool   # a^(p^k(p^k+1)) == b^(p^k+1)
    b_square: bool      # b != 0 and b^((p^n-1)/2) == 1


def case_detail(ctx: FieldCtx, pair: CoeffPair) -> CaseDetail:
    """The case of (a, b) and the conditions behind it, by exact powers."""
    pair.require_admissible()
    p, k, d = ctx.p, ctx.params.k, ctx.params.d
    a, b = pair.a, pair.b
    pk = p ** k
    norms_match = a ** (pk * (pk + 1)) == b ** (pk + 1)
    square_match = (not b.is_zero) and a * a == b ** d
    b_square = (not b.is_zero) and b ** (ctx.order // 2) == ctx.one
    if square_match:
        tag = CaseTag.SQUARE_MATCH
    elif not norms_match:
        tag = CaseTag.NORM_DIFFER
    else:
        tag = CaseTag.JACOBSTHAL
    return CaseDetail(tag=tag, norms_match=norms_match, b_square=b_square)


# the values of case_tags, in this order
CASE_TAGS = (CaseTag.NORM_DIFFER, CaseTag.SQUARE_MATCH, CaseTag.JACOBSTHAL)


def _norms_match(ctx: FieldCtx, la, lb: int):
    # a^(p^k(p^k+1)) = b^(p^k+1) at a = xi^la (la = -1 for a = 0), b = xi^lb:
    # iff (p^k + 1)(p^k la - lb) = 0 modulo q - 1; a = 0 does not match
    pk, order = ctx.p ** ctx.params.k, ctx.order
    return (la >= 0) & ((pk + 1) * ((pk * la - lb) % order) % order == 0)


def _tags(ctx: FieldCtx, la, lb: int):
    # the CASE_TAGS index of (a, b) at every a = xi^la (la = -1 for a = 0),
    # b = xi^lb: a^2 = b^d iff 2 la = d lb modulo q - 1
    order = ctx.order
    square_match = (la >= 0) & ((2 * la - ctx.params.d * lb % order) % order == 0)
    return np.where(square_match, 1, np.where(_norms_match(ctx, la, lb), 2, 0)).astype(np.int8)


def _sweep_logs(ctx: FieldCtx):
    # the dlogs of the sweep order a = 0, xi^0, xi^1, ..., -1 for a = 0
    return np.arange(-1, ctx.order, dtype=np.int64)


def norms_match(ctx: FieldCtx, b: Elem):
    """Whether a^(p^k(p^k+1)) = b^(p^k+1), for every a at once, from dlogs:
    a bool array over the sweep order a = 0, xi^0, xi^1, ...  With la =
    log a and lb = log b, the norms match iff (p^k + 1)(p^k la - lb) = 0
    modulo q - 1.  a = 0 does not match, since b != 0."""
    if b.is_zero:
        raise ZeroB("the bulk case split needs b != 0")
    return _norms_match(ctx, _sweep_logs(ctx), ctx.dlog(b))


def case_tags(ctx: FieldCtx, b: Elem):
    """The case of (a, b) for every a at once, from dlogs.

    Returns an int8 array over the sweep order a = 0, xi^0, xi^1, ...,
    holding indexes into CASE_TAGS: the norms as in norms_match, and
    a^2 = b^d iff 2 log a = d log b modulo q - 1.  a = 0 is NORM_DIFFER,
    since b != 0."""
    if b.is_zero:
        raise ZeroB("the bulk case split needs b != 0")
    return _tags(ctx, _sweep_logs(ctx), ctx.dlog(b))


def _require_jacobsthal_bulk(ctx: FieldCtx, b: Elem, la):
    # WrongCase unless every (xi^la, b) is a JACOBSTHAL pair
    if b.is_zero:
        raise ZeroB("b must be nonzero")
    if (_tags(ctx, la, ctx.dlog(b)) != CASE_TAGS.index(CaseTag.JACOBSTHAL)).any():
        raise WrongCase("operation defined only in the JACOBSTHAL case")


def chi(ctx: FieldCtx, b: Elem) -> int:
    """b^((p^n-1)/2) as +-1 (the quadratic-character sign of b != 0)."""
    if b.is_zero:
        raise ZeroB("chi needs b != 0")
    return 1 if b ** (ctx.order // 2) == ctx.one else -1


# --------------------------------------------------------------------------
# monomial sums sum_i c_i x^(m_i), terms given as (Elem c_i, integer m_i >= 1)
# --------------------------------------------------------------------------

def _coefficient_logs(ctx: FieldCtx, terms):
    # (Elem c, mult) terms as FieldCtx.sum_enc_bulk takes them
    return tuple((-1 if c.is_zero else ctx.dlog(c), mult) for c, mult in terms)


def sweep_order(ctx: FieldCtx):
    """The encodings of 0, xi^0, xi^1, ..., xi^(q-2), as an int64 array:
    the order of every sweep over the field."""
    return np.concatenate(([0], ctx.exp_enc_bulk(np.arange(ctx.order, dtype=np.int64))))


def trace_values(ctx: FieldCtx, terms):
    """Tr(sum_i c_i x^(m_i)) at x = 0, xi^0, xi^1, ..., xi^(q-2), as an
    int64 array (the value at x = 0 is 0)."""
    return np.concatenate(([0], _traces(ctx, _coefficient_logs(ctx, terms))))


def _traces(ctx: FieldCtx, terms):
    # the traces at x = xi^0, xi^1, ... for terms as FieldCtx.sum_enc_bulk
    # takes them, one row per row of coefficients
    return ctx.trace_enc_bulk(ctx.sum_enc_bulk(terms, np.arange(ctx.order, dtype=np.int64)))


def f_values(ctx: FieldCtx, pair: CoeffPair):
    """f(x) = Tr(a x^d + b x^2) at x = 0, xi^0, xi^1, ..., as trace_values."""
    return trace_values(ctx, ((pair.a, ctx.params.d), (pair.b, 2)))


def character_counts(ctx: FieldCtx, z_terms, v_terms):
    """The value counts of Tr(a z(x) + v(x)) over x in GF(p^n), for every a
    at once; z and v are monomial sums given as terms.

    Returns the int64 array of shape (q, p) with

        counts[a.enc, j] = #{x : Tr(a z(x) + v(x)) = j mod p},

    so that sum_x w^Tr(a z(x) + v(x)) is CycInt.from_counts(p, counts[a.enc]).

    With e_i the element encoded as p^i and a = sum_i a_i e_i, the trace
    is linear: Tr(a z) = sum_i a_i w_i, w_i = Tr(e_i z), all m of them
    from one evaluation of z with one row of coefficients per e_i.  The
    pairs (w, Tr v) over all x are counted into a (p,)*m + (p,) array; one
    butterfly per digit axis, rolling the value axis by a_i w_i, turns
    counts over w into counts over a.  That is about m p^2 q integer
    additions, with temporaries of O(q p) entries and no floats.
    """
    p, m, q, order = ctx.p, ctx.m, ctx.q, ctx.order
    basis = ctx.log_enc_bulk(p ** np.arange(m, dtype=np.int64))
    rows = tuple((np.where(c < 0, -1, (basis + c) % order), mult)
                 for c, mult in _coefficient_logs(ctx, z_terms))
    w = np.concatenate(([0], p ** np.arange(m, dtype=np.int64) @ _traces(ctx, rows)))
    counts = np.bincount(w * p + trace_values(ctx, v_terms), minlength=q * p)
    # axis i of the (outer, p, inner, p) view is digit m-1-i of the encoding;
    # the butterfly is the same for every digit
    for i in range(m):
        src = counts.reshape(p ** i, p, p ** (m - 1 - i), p)
        out = np.zeros_like(src)
        for ai in range(p):
            for wi in range(p):
                out[:, ai] += np.roll(src[:, wi], ai * wi, axis=-1)
        counts = out
    return counts.reshape(q, p)


# --------------------------------------------------------------------------
# the subgroup U and the linearized polynomial
# --------------------------------------------------------------------------

def U_logs(ctx: FieldCtx):
    """The dlogs (p^2k - 1) j, j = 0..p^2k, of the p^2k + 1 elements of U,
    as an increasing int64 array (all below q - 1)."""
    step = ctx.p ** (2 * ctx.params.k) - 1
    return step * np.arange(step + 2, dtype=np.int64)


def L_eval(ctx: FieldCtx, x: Elem, pair: CoeffPair) -> Elem:
    """L at one element x, in plain field arithmetic."""
    return sum((c * x ** m for c, m in _L_terms(ctx, pair)), ctx.zero)


def _L_monomials(ctx: FieldCtx):
    # L as (sign, s, r, e) terms, each the monomial sign a^s b^r X^e
    pk = ctx.p ** ctx.params.k
    return ((1, 0, pk ** 2, 1), (1, 1, 0, pk), (1, 0, 1, pk ** 2), (1, pk ** 2, 0, pk ** 3))


def _monomial_terms(ctx: FieldCtx, monomials, la, lb):
    # the terms of a monomial list at every pair (a, b) = (xi^la, xi^lb) at
    # once, as FieldCtx.sum_enc_bulk takes them: (dlogs of sign a^s b^r, e),
    # -1 where a coefficient is zero (la or lb is -1 for a zero a or b)
    order = ctx.order
    out = []
    for sign, s, r, e in monomials:
        live = ((s == 0) | (la >= 0)) & ((r == 0) | (lb >= 0))
        logs = ((s % order) * la + (r % order) * lb + (sign < 0) * (order // 2)) % order
        out.append((np.where(live, logs, -1), e))
    return out


def _L_terms(ctx: FieldCtx, pair: CoeffPair):
    # the (coefficient, exponent) terms of L at one pair
    return tuple((sign * pair.a ** s * pair.b ** r, e) for sign, s, r, e in _L_monomials(ctx))


def N_count_bulk(ctx: FieldCtx, a_encs, b_encs):
    """The direct count of the zeros of L on U at every pair (a_encs[i],
    b_encs[i]) of encodings at once.

    One FieldCtx.sum_enc_bulk call per block of pairs (see _in_blocks)
    evaluates L, with each pair's own coefficients, at every u in U.  Returns
    (n, zeros): the int64 array n[i] = N(a_i, b_i), and the bool array
    (pairs, p^2k + 1) that marks the zeros of L among the elements of U in
    U_logs order, that is by dlog.  The raw zero count of a pair is always
    even: ParityViolation at the first pair where it is odd."""
    a_encs, b_encs = np.asarray(a_encs, dtype=np.int64), np.asarray(b_encs, dtype=np.int64)
    if ((a_encs == 0) & (b_encs == 0)).any():
        raise BothCoefficientsZero("(a, b) = (0, 0) is not admissible")
    u_logs, monomials = U_logs(ctx), _L_monomials(ctx)
    zeros = _in_blocks(lambda a, b: ctx.sum_enc_bulk(
        _monomial_terms(ctx, monomials, _dlogs(ctx, a), _dlogs(ctx, b)), u_logs) == 0,
        u_logs.size, a_encs, b_encs)
    twice = zeros.sum(axis=1)
    odd = np.flatnonzero(twice % 2)
    if odd.size:
        i = odd[0]
        raise ParityViolation(f"{twice[i]} zeros of L on U at "
                              f"{_where(ctx, a_encs[i], b_encs[i])}")
    return twice // 2, zeros


def N_count(ctx: FieldCtx, pair: CoeffPair):
    """Zeros of L on U at one pair, the one-pair call of N_count_bulk:
    returns (N, witnesses), witnesses sorted by dlog."""
    n, zeros = N_count_bulk(ctx, [pair.a.enc], [pair.b.enc])
    return int(n[0]), [ctx.from_enc(int(e)) for e in ctx.exp_enc_bulk(U_logs(ctx)[zeros[0]])]


def N_table(ctx: FieldCtx, b: Elem):
    """N(a, b) for every a at once, from the zeros of L on U.

    On U, u^(p^2k) = u^(-1), so L(u) = T(a u^(p^k)) + T(b^(p^2k) u) with T
    the trace GF(p^n) -> GF(p^2k).  T is zero on theta GF(p^2k), where
    theta = xi^((p^2k+1)/2) has theta^(p^2k) = -theta, and T(c/2) = c for
    c in GF(p^2k).  So L(u) = 0 exactly when

        a = u^(-p^k) (c_u/2 + theta t),  c_u = -(b^(p^2k) u + b u^(-1)),

    for one of the p^2k elements t of GF(p^2k).  When c_u != 0 that set
    is u^(-p^k) (c_u/2) W with W = 1 + theta GF(p^2k), the same for every
    u, so it costs one addition per t and then dlog arithmetic only.

    Returns (n, incidence).  incidence is the flat int64 array of these a
    (encodings): p^2k entries per u, the u in increasing dlog (U_logs
    order).  n[a.enc] = N(a, b) is half the number of times a occurs.
    ParityViolation unless the incidences total (p^2k + 1) p^2k and
    every count is even."""
    if b.is_zero:
        raise ZeroB("the N table needs b != 0")
    p, k = ctx.p, ctx.params.k
    pk, Q = p ** k, p ** (2 * k)
    u_logs = U_logs(ctx)
    lb = ctx.dlog(b)
    minus_c = ctx.sum_enc_bulk(((Q * lb, 1), (lb, -1)), u_logs)
    shift = -pk * u_logs
    # theta t for t = nu^s, nu = xi^(p^2k+1) the generator of GF(p^2k)*
    theta_logs = (Q + 1) // 2 + (Q + 1) * np.arange(Q - 1, dtype=np.int64)
    incidence = np.empty((Q + 1, Q), dtype=np.int64)
    zero = minus_c == 0
    for j in np.flatnonzero(zero):
        incidence[j] = np.concatenate(([0], ctx.exp_enc_bulk(theta_logs + shift[j])))
    w_logs = ctx.log_enc_bulk(ctx.add_enc_bulk(
        np.concatenate(([0], ctx.exp_enc_bulk(theta_logs))), 1))
    row_logs = ctx.log_enc_bulk(minus_c[~zero]) + ctx.dlog(-(ctx.one / 2)) + shift[~zero]
    incidence[~zero] = ctx.exp_enc_bulk((row_logs[:, None] + w_logs).ravel()).reshape(-1, Q)
    incidence = incidence.ravel()
    twice = np.bincount(incidence, minlength=ctx.q)
    n_odd = int(np.count_nonzero(twice % 2))
    if twice.sum() != (Q + 1) * Q or n_odd:
        raise ParityViolation(f"{twice.sum()} zeros of L on U over all a, expected {(Q + 1) * Q}, "
                              f"odd at {n_odd} a, b={ctx.format_element(b)}")
    return twice // 2, incidence


def _witnesses(ctx: FieldCtx, incidence, a_encs):
    """For each encoding in a_encs, in turn, the encodings of the zeros of L
    on U at that a, in dlog order, read from N_table's incidence array."""
    Q = ctx.p ** (2 * ctx.params.k)
    pos = np.flatnonzero(np.isin(incidence, a_encs))
    # the incidence runs over u in dlog order, and a stable sort keeps that order within each a
    pos = pos[np.argsort(incidence[pos], kind="stable")]
    found = incidence[pos]
    u_encs = ctx.exp_enc_bulk(U_logs(ctx)[pos // Q])
    lo = np.searchsorted(found, a_encs, "left")
    hi = np.searchsorted(found, a_encs, "right")
    for i, j in zip(lo, hi):
        yield u_encs[i:j]


# --------------------------------------------------------------------------
# S_f(0) by brute force
# --------------------------------------------------------------------------

def S0_bruteforce(ctx: FieldCtx, pair: CoeffPair) -> CycInt:
    """The defining sum over all of GF(p^n), exact in Z[w]."""
    pair.require_admissible()
    return CycInt.from_counts(ctx.p, np.bincount(f_values(ctx, pair), minlength=ctx.p))


# --------------------------------------------------------------------------
# the companion polynomial F (norms-differ case)
# --------------------------------------------------------------------------

def _F_monomials(ctx: FieldCtx):
    # F as (sign, s, r, e) terms like _L_monomials: A and B expanded, and
    # A^(p^k) = a^(p^2k (p^k+1)) - b^(p^k (p^k+1)), as Frobenius is additive
    pk = ctx.p ** ctx.params.k
    return ((1, pk * (pk + 1), 0, pk ** 2), (-1, 0, pk + 1, pk ** 2),
            (1, pk ** 2, pk ** 3, pk), (-1, 1, pk, pk),
            (1, pk ** 2 * (pk + 1), 0, 1), (-1, 0, pk * (pk + 1), 1))


def form_matrices(ctx: FieldCtx, monomials):
    """The matrices over GF(p) of a linearized polynomial P, as a function
    of the pairs (a, b).

    P is the sum of sign a^s b^r X^e over monomials, (sign, s, r, e) terms
    as in _L_monomials.  Returns matrices(la, lb): for pairs with dlogs la
    and lb (-1 for a zero coefficient), the float32 array (n, m, m) of
    Tr(e_i P(e_j)) mod p, e_j the element encoded as p^j.

    With c the coefficient of a monomial and y = e_i e_j^e,
    Tr(c y) = sum_d Tr(c e_d) y_d over the digits y_d of y.  So each pair
    costs m traces Tr(c e_d) per monomial, and one float32 product with
    the digits gives every entry: exact, as each is a sum of fewer than
    2^24 / p^2 integers below p^2.  The product is an einsum: numpy's own
    loop, which unlike a threaded BLAS is fast at these sizes.  No field
    addition is needed."""
    p, m, order = ctx.p, ctx.m, ctx.order
    basis = ctx.log_enc_bulk(p ** np.arange(m, dtype=np.int64))
    # row (t, d), column i m + j: digit d of e_i e_j^e for monomial t
    digits = np.concatenate([
        np.array([ctx.decode(int(y)) for y in ctx.exp_enc_bulk(
            (basis[:, None] + (e % order) * basis % order).ravel())]).T
        for _, _, _, e in monomials]).astype(np.float32)

    def matrices(la, lb):
        coords = []
        for c, _ in _monomial_terms(ctx, monomials, la, lb):
            traces = ctx.trace_enc_bulk(ctx.exp_enc_bulk(c[:, None] + basis))
            coords.append((c >= 0)[:, None] * traces)
        out = np.einsum("nk,km->nm", np.concatenate(coords, axis=1).astype(np.float32), digits)
        return _mod_p(out, p).reshape(-1, m, m)
    return matrices


def _mod_p(x, p: int):
    # x mod p in place, for a float32 array of integers below 2^24 / p in
    # magnitude: exact, as x / p is correctly rounded and, unless it is an
    # integer, at least 1/p away from one; about five times faster than %
    # on integer arrays
    x -= p * np.floor(x / p)
    return x


def rref_mod_p(mats, p: int):
    """Reduced row echelon forms mod p of a stack of matrices (n, r, c)
    with entries in 0..p-1, as float32, and their ranks (int64, n).

    The float32 arithmetic is exact: every value stays within (p - 1)^2
    of 0..p-1, and _mod_p reduces it exactly."""
    mats = mats.astype(np.float32)
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.float32)
    rank = np.zeros(len(mats), dtype=np.int64)
    rows = np.arange(mats.shape[1])
    for col in range(mats.shape[2]):
        candidates = (mats[:, :, col] != 0) & (rows >= rank[:, None])
        found = np.flatnonzero(candidates.any(axis=1))
        # the columns before col are zero in every row from rank on; when
        # every matrix has a pivot, work on a view and skip the copy back
        every = found.size == len(mats)
        sub = mats[:, :, col:] if every else mats[found, :, col:]
        at = np.arange(found.size)
        top, pivot = rank[found], candidates[found].argmax(axis=1)
        pivot_row = sub[at, pivot]
        pivot_row = _mod_p(pivot_row * inverse[pivot_row[:, 0].astype(np.intp)][:, None], p)
        sub[at, pivot] = sub[at, top]
        sub -= sub[:, :, :1] * pivot_row[:, None, :]
        _mod_p(sub, p)
        sub[at, top] = pivot_row
        if not every:
            mats[found, :, col:] = sub
        rank[found] += 1
    return mats, rank


def kernel_mismatches(L_mats, F_mats, p: int, max_dim: int):
    """Indexes of the pairs whose matrices have different kernels, or an F
    kernel of dimension above max_dim, with the kernel dimensions of both
    stacks: kernels agree iff the reduced row echelon forms do."""
    n, m = len(L_mats), L_mats.shape[2]
    reduced, rank = rref_mod_p(np.concatenate((L_mats, F_mats)), p)
    dim_L, dim_F = m - rank[:n], m - rank[n:]
    bad = np.flatnonzero((reduced[:n] != reduced[n:]).any(axis=(1, 2)) | (dim_F > max_dim))
    return bad, dim_L, dim_F


def _where(ctx: FieldCtx, a_enc, b_enc) -> str:
    # the pair of encodings a_enc, b_enc, as error messages name it
    return (f"a={ctx.format_element(ctx.from_enc(int(a_enc)))}, "
            f"b={ctx.format_element(ctx.from_enc(int(b_enc)))}")


def _dlogs(ctx: FieldCtx, encs):
    # the dlogs of an int64 encoding array, -1 at zero: form_matrices' la and lb
    return np.where(encs == 0, -1, ctx.log_enc_bulk(np.where(encs == 0, 1, encs)))


PROP1_BLOCK = 512  # pairs per batch of prop1_kernel_check: temporaries of a few 100 KiB

# entries per block of the (pairs, points) arrays of N_count_bulk and the
# prop2 routes: int64 temporaries of 128 KiB, whatever the field size
BLOCK_ENTRIES = 1 << 14


def _in_blocks(fn, width: int, *arrays):
    # fn on consecutive slices of the arrays, of BLOCK_ENTRIES // width
    # entries (at least one) each, for a fn that makes arrays of width
    # points per entry; the results joined
    n, size = len(arrays[0]), max(1, BLOCK_ENTRIES // width)
    return np.concatenate([fn(*(x[i:i + size] for x in arrays))
                           for i in range(0, max(n, 1), size)])


def prop1_kernel_check(ctx: FieldCtx, a_encs, b_encs) -> int:
    """Proposition 1 by linear algebra at every pair (a_encs[i], b_encs[i])
    of encodings, whose norms must differ: L and F have the same zeros in
    GF(p^n), at most p^2k of them.

    L and F are p^k-linearized, so their zeros are the kernels of their
    form_matrices (the trace form is nondegenerate), and F has degree
    p^2k, so its kernel has dimension at most 2k; see kernel_mismatches.
    Runs in blocks of PROP1_BLOCK pairs; KernelMismatch at the first pair
    that fails.  Returns the number of pairs compared."""
    a_encs, b_encs = np.asarray(a_encs, dtype=np.int64), np.asarray(b_encs, dtype=np.int64)
    if ((a_encs == 0) & (b_encs == 0)).any():
        raise BothCoefficientsZero("(a, b) = (0, 0) is not admissible")
    L_form, F_form = form_matrices(ctx, _L_monomials(ctx)), form_matrices(ctx, _F_monomials(ctx))
    compared = 0
    for start in range(0, a_encs.size, PROP1_BLOCK):
        a, b = a_encs[start:start + PROP1_BLOCK], b_encs[start:start + PROP1_BLOCK]
        la, lb = _dlogs(ctx, a), _dlogs(ctx, b)
        bad, dim_L, dim_F = kernel_mismatches(L_form(la, lb), F_form(la, lb),
                                              ctx.p, 2 * ctx.params.k)
        if bad.size:
            i = bad[0]
            raise KernelMismatch(
                f"zeros of L and F span dimensions {dim_L[i]} and {dim_F[i]} over GF({ctx.p}), "
                f"not one common space of dimension <= {2 * ctx.params.k}, "
                f"at {_where(ctx, a[i], b[i])}")
        compared += a.size
    return compared


# --------------------------------------------------------------------------
# the Jacobsthal case: g, the nonsquare count, and the H-sum route
# --------------------------------------------------------------------------

def _require_jacobsthal(ctx: FieldCtx, pair: CoeffPair):
    if case_detail(ctx, pair).tag is not CaseTag.JACOBSTHAL:
        raise WrongCase("operation defined only in the JACOBSTHAL case")


def _g_logs(ctx: FieldCtx, b: Elem, a_encs):
    """The dlogs of the canonical g in GF(p^2k)* with g^(p^k-1) =
    -b^(p^3k)/a at every pair (a, b), a in a_encs: t (p^k - 1) =
    log_nu(-b^(p^3k)/a) modulo p^2k - 1, solved in dlog arithmetic, with
    the smallest nonnegative t, and g = nu^t."""
    k, order = ctx.params.k, ctx.order
    pk, step = ctx.p ** k, ctx.subfield(2 * k).step
    a_encs = np.asarray(a_encs, dtype=np.int64)
    la = _dlogs(ctx, a_encs)
    _require_jacobsthal_bulk(ctx, b, la)
    # -1 = xi^((q-1)/2)
    target = (order // 2 + ctx.p ** (3 * k) % order * ctx.dlog(b) - la) % order
    if (target % step).any():
        raise NotInSubfield("-b^(p^3k)/a is not in GF(p^2k)")
    e = target // step
    if (e % (pk - 1)).any():
        raise NoSolution("target is not a (p^k-1)-th power")
    g = step * (e // (pk - 1) % (pk + 1))
    bad = np.flatnonzero(g * (pk - 1) % order != target)
    if bad.size:
        raise CaseViolation(f"g^(p^k-1) != -b^(p^3k)/a at {_where(ctx, a_encs[bad[0]], b.enc)}")
    return g


def _nonsquare_counts(ctx: FieldCtx, b: Elem, a_encs, g_logs):
    # the nonsquare count at every pair (a, b) with its g = xi^g_logs, from
    # one (pairs, p^k) array of eta((c g)^2 - b^(p^2k+1)), c in GF(p^k)
    k = ctx.params.k
    view = ctx.subfield(2 * k)
    c_logs = ctx.subfield(k).step * np.arange(ctx.p ** k - 1, dtype=np.int64)
    g_logs = np.asarray(g_logs, dtype=np.int64)
    squares = np.zeros((g_logs.size, c_logs.size + 1), dtype=np.int64)  # c = 0 first
    squares[:, 1:] = ctx.exp_enc_bulk(2 * (c_logs + g_logs[:, None]))
    eta = view.eta_bulk(ctx.add_enc_bulk(squares, (-(b ** (ctx.p ** (2 * k) + 1))).enc))
    vanished = np.flatnonzero((eta == 0).any(axis=1))
    if vanished.size:
        raise CaseViolation("(cg)^2 - b^(p^2k+1) vanished at "
                            f"{_where(ctx, a_encs[vanished[0]], b.enc)}")
    return (eta == -1).sum(axis=1)


def N_via_nonsquares_bulk(ctx: FieldCtx, b: Elem, a_encs):
    """#{c in GF(p^k) : (cg)^2 - b^(p^2k+1) is a nonsquare in GF(p^2k)} at
    every pair (a, b), a in a_encs, at once: one array pass per block of
    pairs.  Returns int64."""
    return _in_blocks(lambda a: _nonsquare_counts(ctx, b, a, _g_logs(ctx, b, a)),
                      ctx.p ** ctx.params.k, np.asarray(a_encs, dtype=np.int64))


def _jacobsthal_args(ctx: FieldCtx, b: Elem, g_logs):
    # the encodings of -b^(p^2k+1)/g^2, where the N route evaluates H
    Q = ctx.p ** (2 * ctx.params.k)
    lb = ctx.dlog(b)
    return ctx.exp_enc_bulk(ctx.order // 2 + (Q + 1) * lb - 2 * np.asarray(g_logs, dtype=np.int64))


def _N_from_H(ctx: FieldCtx, b: Elem, a_encs, H):
    # 2N = p^k - H/(p^k+1) + 1 at every pair (a, b), checking that H is
    # divisible by p^k + 1 and that 2N is even
    pk = ctx.p ** ctx.params.k
    bad = np.flatnonzero(H % (pk + 1))
    if bad.size:
        i = bad[0]
        raise DivisibilityViolation(f"H = {H[i]} is not divisible by {pk + 1} at "
                                    f"{_where(ctx, a_encs[i], b.enc)}")
    num = pk - H // (pk + 1) + 1
    odd = np.flatnonzero(num % 2)
    if odd.size:
        i = odd[0]
        raise ParityViolation(f"2N = {num[i]} is odd at {_where(ctx, a_encs[i], b.enc)}")
    return num // 2


def N_via_jacobsthal_bulk(ctx: FieldCtx, b: Elem, a_encs):
    """N from 2N = p^k - H_{p^k+1}(-b^(p^2k+1)/g^2)/(p^k+1) + 1 at every
    pair (a, b), a in a_encs, at once: each block of pairs takes one
    jacobsthal.H_sums call, an array of eta over GF(p^2k)* per pair.
    Returns int64."""
    view, pk = ctx.subfield(2 * ctx.params.k), ctx.p ** ctx.params.k

    def block(a):
        H = jacobsthal.H_sums(view, pk + 1, _jacobsthal_args(ctx, b, _g_logs(ctx, b, a)))
        return _N_from_H(ctx, b, a, H)
    return _in_blocks(block, view.order, np.asarray(a_encs, dtype=np.int64))


# --------------------------------------------------------------------------
# scaling invariance and the Jacobsthal-case corollaries
# --------------------------------------------------------------------------

def corollary1_bulk(ctx: FieldCtx, a_encs, b_encs, h_logs):
    """N(a, b) == N(a h^d, b h^2) at every triple (a_encs[i], b_encs[i],
    h = xi^h_logs[i]) at once, from one N_count_bulk call over the pairs
    and their scalings: a bool array."""
    a, b, h = (np.asarray(x, dtype=np.int64) for x in (a_encs, b_encs, h_logs))

    def scaled(encs, e):
        # encs times h^e, in dlogs; zero stays zero
        return np.where(encs == 0, 0, ctx.exp_enc_bulk(_dlogs(ctx, encs) + e % ctx.order * h))
    n, _ = N_count_bulk(ctx, np.concatenate((a, scaled(a, ctx.params.d))),
                        np.concatenate((b, scaled(b, 2))))
    return n[:a.size] == n[a.size:]


def jacobsthal_pairs(ctx: FieldCtx, b: Elem):
    """All a with matching norms and a^2 != b^d, i.e. the JACOBSTHAL slice."""
    if b.is_zero:
        raise ZeroB("b must be nonzero")
    out = []
    for a in ctx.powers():
        pair = CoeffPair(a, b)
        if case_detail(ctx, pair).tag is CaseTag.JACOBSTHAL:
            out.append(a)
    return out


def corollary_eq9_check(ctx: FieldCtx, report):
    """sum of N over the JACOBSTHAL slice of b vs (p^k+1)(p^k - chi(b))/2,
    from the N table of report, the distribution_sweep at b."""
    pk = ctx.p ** ctx.params.k
    return sum(report.jacobsthal.values()), (pk + 1) * (pk - report.chi_b) // 2


def _properties(pk: int, b_square: bool, N, N_inv, N_nega, N_negb) -> dict:
    # properties (i)-(v) from N at (a, b), (1/a, 1/b), (-a, b) and (a, -b):
    # ints, or arrays over a
    out = {}
    if b_square:
        out["i"] = N == N_inv
        out["iii"] = N_nega == pk + 1 - N_inv
    else:
        out["i"] = N == pk + 1 - N_inv
        out["iii"] = N_nega == N_inv
    out["ii"] = (N + N_nega == pk + 1) & (N + N_negb == pk + 1)
    out["iv"] = (N % 2 == 0) == b_square
    out["v"] = ((2 * N - (pk + 1)) ** 2 <= 4 * pk) & (N >= 1)
    return out


def _special_a(ctx: FieldCtx, b: Elem) -> tuple:
    # the a of the two special pairs (a, b) of property (vi),
    # +-nu^((p^2k-1)/4) b^(d/2), or () where its hypotheses (p = 3 mod 4,
    # k odd, b square) do not apply
    p, k = ctx.p, ctx.params.k
    if p % 4 != 3 or k % 2 == 0 or chi(ctx, b) != 1:
        return ()
    root = ctx.subfield(2 * k).generator ** ((p ** (2 * k) - 1) // 4)
    return tuple(sign * root * b ** (ctx.params.d // 2) for sign in (1, -1))


def _special_pair_violation(ctx: FieldCtx, a: Elem, b: Elem):
    return CaseViolation(f"special pair a={ctx.format_element(a)}, "
                         f"b={ctx.format_element(b)} is not JACOBSTHAL")


def corollary_suite(ctx: FieldCtx, pair: CoeffPair) -> dict:
    """The seven verified properties of N at one JACOBSTHAL pair, pair by
    pair with N_count: the reference for corollary_properties and, as
    (vii), corollary_eq9_check of the sweep at its b.

    Returns {"i": bool, ..., "vii": bool}; "vi" is None when its
    hypotheses (p = 3 mod 4, k odd, b square) do not apply."""
    _require_jacobsthal(ctx, pair)
    pk = ctx.p ** ctx.params.k
    a, b = pair.a, pair.b
    N = [N_count(ctx, other)[0] for other in
         (pair, CoeffPair(a.inverse(), b.inverse()), CoeffPair(-a, b), CoeffPair(a, -b))]
    out = _properties(pk, case_detail(ctx, pair).b_square, *N)
    specials = [CoeffPair(s, b) for s in _special_a(ctx, b)]
    for special in specials:
        if case_detail(ctx, special).tag is not CaseTag.JACOBSTHAL:
            raise _special_pair_violation(ctx, special.a, b)
    out["vi"] = all(N_count(ctx, s)[0] == (pk + 1) // 2 for s in specials) if specials else None
    total, expected = corollary_eq9_check(ctx, distribution_sweep(ctx, b))
    out["vii"] = total == expected
    return out


def corollary_properties(ctx: FieldCtx, b: Elem, a_encs) -> dict:
    """Properties (i)-(vi) of N at every JACOBSTHAL pair (a, b), a in a_encs.

    Returns {"i": bool array, ..., "vi": bool array} over a_encs; "vi" is
    None when its hypotheses (p = 3 mod 4, k odd, b square) do not apply.
    One N_count_bulk call covers (a, b), (a, -b), (1/a, 1/b) and (-a, b)
    at every a, and the two special pairs of (vi), which depend on b
    alone.  WrongCase unless every pair is JACOBSTHAL; CaseViolation
    unless the special pairs are."""
    a_encs = np.asarray(a_encs, dtype=np.int64)
    la = _dlogs(ctx, a_encs)
    _require_jacobsthal_bulk(ctx, b, la)
    pk, n, minus = ctx.p ** ctx.params.k, a_encs.size, ctx.order // 2  # xi^minus = -1
    specials = _special_a(ctx, b)
    special_encs = np.array([s.enc for s in specials], dtype=np.int64)
    for s, tag in zip(specials, _tags(ctx, _dlogs(ctx, special_encs), ctx.dlog(b))):
        if CASE_TAGS[tag] is not CaseTag.JACOBSTHAL:
            raise _special_pair_violation(ctx, s, b)
    pair_a = np.concatenate((a_encs, a_encs, ctx.exp_enc_bulk(-la), ctx.exp_enc_bulk(la + minus),
                             special_encs))
    pair_b = np.repeat([b.enc, (-b).enc, b.inverse().enc, b.enc, b.enc],
                       [n, n, n, n, special_encs.size])
    N, N_negb, N_inv, N_nega, N_special = np.split(N_count_bulk(ctx, pair_a, pair_b)[0],
                                                   [n, 2 * n, 3 * n, 4 * n])
    out = _properties(pk, chi(ctx, b) == 1, N, N_inv, N_nega, N_negb)
    out["vi"] = np.full(n, (N_special == (pk + 1) // 2).all()) if specials else None
    return out


# --------------------------------------------------------------------------
# per-pair records and the full distribution sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSumRecord:
    pair: CoeffPair
    tag: CaseTag
    N: int
    S0: int
    witnesses: tuple

    def to_json_dict(self, ctx: FieldCtx) -> dict:
        return {
            "a": ctx.format_element(self.pair.a),
            "b": ctx.format_element(self.pair.b),
            "tag": self.tag.value,
            "N": self.N,
            "S0": self.S0,
            "witnesses": [ctx.format_element(w) for w in self.witnesses],
        }


def expsum_record(ctx: FieldCtx, pair: CoeffPair) -> ExpSumRecord:
    """Classify, count zeros, and confirm the closed form against the
    brute-force sum (OracleMismatch on any defect)."""
    defining = S0_bruteforce(ctx, pair)
    tag = case_detail(ctx, pair).tag
    n, witnesses = N_count(ctx, pair)
    s0 = ctx.p ** (2 * ctx.params.k) * (2 * n - 1)
    if defining != s0:
        raise _oracle_mismatch(ctx, pair, s0, defining)
    return ExpSumRecord(pair=pair, tag=tag, N=n, S0=s0, witnesses=tuple(witnesses))


def _oracle_mismatch(ctx: FieldCtx, pair: CoeffPair, s0: int, defining: CycInt):
    return OracleMismatch(f"closed {s0} != defining sum {defining} at "
                          f"a={ctx.format_element(pair.a)}, b={ctx.format_element(pair.b)}")


@dataclass(frozen=True)
class DistributionReport:
    """Tallies of S_f(0) over all a for a fixed b.

    r, s, t count S_f(0) = -p^2k, p^2k, 3 p^2k over the NORM_DIFFER and
    SQUARE_MATCH cases; jac_histogram maps N to its frequency over the
    JACOBSTHAL case and jacobsthal maps each a of that slice, in sweep
    order, to its N (not part of the JSON record).  residuals are the
    three identity defects and must all be zero."""

    b: Elem
    chi_b: int
    r: int
    s: int
    t: int
    jac_histogram: dict
    s0_total: int
    residuals: tuple
    jacobsthal: dict

    def to_json_dict(self, ctx: FieldCtx) -> dict:
        return {
            "b": ctx.format_element(self.b),
            "chi_b": self.chi_b,
            "r": self.r,
            "s": self.s,
            "t": self.t,
            "jac_histogram": {str(k): v for k, v in sorted(self.jac_histogram.items())},
            "s0_total": self.s0_total,
            "residuals": list(self.residuals),
        }


def distribution_sweep(ctx: FieldCtx, b: Elem, on_record=None) -> DistributionReport:
    """Every a in GF(p^n), in sweep_order, for the fixed b != 0.

    N comes from N_table and the case from case_tags, for all a at once.
    Each closed form is checked against the defining sum from one
    character_counts transform, N > 2 outside the JACOBSTHAL case raises
    RangeViolation, and the direct zero count (N_count_bulk) and
    case_detail cross-check both tables on the JACOBSTHAL slice and on at
    most 32 evenly strided a (a = 0 among them).  Only then, if on_record is given, is each pair's
    record, as expsum_record gives it but read from the tables, passed
    to it in sweep order; records are not kept."""
    if b.is_zero:
        raise ZeroB("distribution sweep needs b != 0")
    p, pk, Q = ctx.p, ctx.p ** ctx.params.k, ctx.p ** (2 * ctx.params.k)
    sign = chi(ctx, b)
    a_encs = sweep_order(ctx)
    n_by_enc, incidence = N_table(ctx, b)
    n = n_by_enc[a_encs]
    s0 = Q * (2 * n - 1)
    tags = case_tags(ctx, b)

    # sum_j c_j w^j is the integer s exactly when c_1 = ... = c_(p-1) and c_0 - c_1 = s
    counts = character_counts(ctx, ((ctx.one, ctx.params.d),), ((b, 2),))[a_encs]
    off = np.flatnonzero(~((counts[:, 1:] == counts[:, 1:2]).all(axis=1)
                           & (counts[:, 0] - counts[:, 1] == s0)))
    if off.size:
        i = off[0]
        raise _oracle_mismatch(ctx, CoeffPair(ctx.from_enc(int(a_encs[i])), b), int(s0[i]),
                               CycInt.from_counts(p, counts[i]))
    jac = tags == CASE_TAGS.index(CaseTag.JACOBSTHAL)
    over = np.flatnonzero(~jac & (n > 2))
    if over.size:
        i = over[0]
        raise RangeViolation(f"{CASE_TAGS[tags[i]].value} pair has N = {n[i]} > 2 "
                             f"at a={ctx.format_element(ctx.from_enc(int(a_encs[i])))}")
    # at most 32 evenly strided sweep positions, a = 0 first
    strided = np.arange(ctx.q) % -(-ctx.q // 32) == 0
    _cross_check(ctx, b, a_encs, n, tags, incidence, np.flatnonzero(jac | strided))

    r, s, t = (int(c) for c in np.bincount(n[~jac], minlength=3))
    jac_hist = {v: int(c) for v, c in enumerate(np.bincount(n[jac])) if c}
    s0_total = int(s0.sum())
    residuals = (
        (r + s + t) - (ctx.q - pk + sign),
        (-r + s + 3 * t) - sign * pk,
        s0_total - ctx.q,
    )
    if any(residuals):
        raise OracleMismatch(f"distribution identities violated: {residuals}")
    if on_record is not None:
        witnesses = _witnesses(ctx, incidence, a_encs)
        for i, (a_enc, w) in enumerate(zip(a_encs, witnesses)):
            on_record(ExpSumRecord(pair=CoeffPair(ctx.from_enc(int(a_enc)), b),
                                   tag=CASE_TAGS[tags[i]], N=int(n[i]), S0=int(s0[i]),
                                   witnesses=tuple(ctx.from_enc(int(e)) for e in w)))
    return DistributionReport(b=b, chi_b=sign, r=r, s=s, t=t,
                              jac_histogram=jac_hist, s0_total=s0_total, residuals=residuals,
                              jacobsthal={ctx.from_enc(int(e)): int(v)
                                          for e, v in zip(a_encs[jac], n[jac])})


def _cross_check(ctx: FieldCtx, b: Elem, a_encs, n, tags, incidence, sample):
    # the direct zero count (one N_count_bulk call) and case_detail at the
    # sweep positions in sample against the N table, its witnesses and the
    # bulk case split
    n_direct, zeros = N_count_bulk(ctx, a_encs[sample], np.full(sample.size, b.enc))
    u_encs = ctx.exp_enc_bulk(U_logs(ctx))
    table_witnesses = _witnesses(ctx, incidence, a_encs[sample])
    for i, n_i, zeros_i, witnesses in zip(sample, n_direct, zeros, table_witnesses):
        where = _where(ctx, a_encs[i], b.enc)
        if n_i != n[i] or u_encs[zeros_i].tolist() != witnesses.tolist():
            raise OracleMismatch(f"direct zero count N = {n_i} != N table {n[i]}, "
                                 f"or other witnesses, at {where}")
        tag = case_detail(ctx, CoeffPair(ctx.from_enc(int(a_encs[i])), b)).tag
        if tag is not CASE_TAGS[tags[i]]:
            raise CaseViolation(f"case_detail gives {tag.value}, the bulk case split "
                                f"{CASE_TAGS[tags[i]].value} at {where}")
