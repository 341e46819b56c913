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
F when the norms differ).  L and F are p^k-linearized, so they are skew
polynomials in x -> x^(p^k), and prop1_kernel_check decides ker L =
ker F by symbolic division of L by F (kernel_conditions), about 35
field operations per pair on the dlogs of their coefficients
(prop1_coefficients).

In the JACOBSTHAL case N(a,b) is computed three independent ways: the
direct zero count, a nonsquare count over GF(p^k) through an auxiliary
g with g^(p^k-1) = -b^(p^3k)/a, and a Jacobsthal sum of order p^k + 1:

    2 N(a,b) = p^k - H_{p^k+1}(-b^(p^2k+1)/g^2) / (p^k + 1) + 1.

Each route runs on an array of pairs at once.  Below the per-pair layer
(CoeffPair and the functions that take one) every function names an
element by its int dlog (FieldCtx.log): la and lb with a = xi^la and
b = xi^lb, -1 for zero, as ints or int64 arrays, a fixed b as one int.
The case split, chi(b) = (-1)^lb, Corollary 1's scaling (a h^d, b h^2)
and Corollary 2's pairs (1/a, 1/b), (-a, b) and (a, -b) are then sums
of dlogs.  N_count_bulk is the direct count: one FieldCtx.vanishes
test of L at every u in U with per-pair coefficient dlogs, with the
parity check per pair.
N_via_nonsquares_bulk and N_via_jacobsthal_bulk share one dlog solve
for g (g_logs); the first evaluates its sums as a (pairs, p^k) array
of eta, the second reads H from the Jacobsthal bound scan.
corollary1_bulk makes one direct count over all its pairs;
corollary_properties reads N from the sweep's table and counts only
(a, -b) and (1/a, 1/b) directly.  The per-pair references (the zero
sets over the whole field, prop1's 4 x 4 matrices over GF(p^k) and
their row reduction, find_g) are in charsum.reference, which no
command imports; corollary_suite, the pair-by-pair reference of
corollary_properties, and L_eval stay here, as perfbench names them.
Every case is one CaseTag, an IntEnum whose values are the int8 codes
of case_tags; case_detail is the per-pair cross-check by exact powers.

The defining sum for every a at once comes from one exact transform,
character_counts: Tr(a z) = sum_i a_i Tr(e_i z) over the base-p digits
a_i of a, e_i = xi^i, so a per-digit butterfly over the joint counts of
the vector (Tr(e_i x^d))_i and of Tr(b x^2) yields the value counts of
Tr(a x^d + b x^2) for every a, in integers, its rows in sweep order,
which every caller reads by dlog arithmetic.

N(a, b) for every a at once comes from N_table: on U, L(u) = 0 is a
linear condition on a, met by p^2k values of a per u, all from one
formula, so one count over the (p^2k + 1) p^2k incidences, each a Zech
sum, gives every 2N(a, b) in sweep order, and one stable sort of those
at the positions a caller reads the zero sets grouped by a.
case_tags gives every case from dlogs.  The direct zero count and
case_detail cross-check both tables inside every sweep.

distribution_sweep fixes b and covers every a in array work: it checks
each closed form against the transform's defining sum, streams each
pair's JSON record (case, N and witnesses, built from its arrays and
dlog labels) to its caller if asked, keeps the N table in sweep order
and the dlogs of the JACOBSTHAL slice as arrays, and tallies how often
S_f(0) hits each of the three values (r, s, t), verifying

    r + s + t  = p^n - p^k + chi(b),
    -r + s + 3t = chi(b) p^k,
    sum_a S_f(0) = p^n,

with chi(b) = b^((p^n - 1)/2) read as +-1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

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
from .field_core import Elem, FieldCtx, label


@dataclass(frozen=True)
class CoeffPair:
    """The (a, b) of f(x) = Tr(a x^d + b x^2)."""

    a: Elem
    b: Elem

    def require_admissible(self):
        if self.a.is_zero and self.b.is_zero:
            raise BothCoefficientsZero("(a, b) = (0, 0) is not admissible")


class CaseTag(enum.IntEnum):
    """The case of a pair; the values are the int8 codes of case_tags, and
    the JSON records name a case by its member name."""

    NORM_DIFFER = 0
    SQUARE_MATCH = 1
    JACOBSTHAL = 2


def case_detail(ctx: FieldCtx, pair: CoeffPair) -> CaseTag:
    """The case of (a, b) by exact powers of the encodings: the per-pair
    cross-check of case_tags."""
    pair.require_admissible()
    pk, a, b = ctx.p ** ctx.params.k, pair.a.enc, pair.b.enc
    if b != 0 and ctx.mul_enc(a, a) == ctx.pow_enc(b, ctx.params.d):
        return CaseTag.SQUARE_MATCH
    if ctx.pow_enc(a, pk * (pk + 1)) != ctx.pow_enc(b, pk + 1):
        return CaseTag.NORM_DIFFER
    return CaseTag.JACOBSTHAL


def _where(la, lb) -> str:
    # the pair (xi^la, xi^lb), as error messages name it
    return f"a={label(la)}, b={label(lb)}"


def _require_admissible(la, lb):
    if np.any((np.asarray(la) < 0) & (np.asarray(lb) < 0)):
        raise BothCoefficientsZero("(a, b) = (0, 0) is not admissible")


def norms_match(ctx: FieldCtx, la, lb):
    """Whether a^(p^k(p^k+1)) = b^(p^k+1) at a = xi^la, b = xi^lb (dlogs,
    -1 for zero; ints or arrays): iff (p^k + 1)(p^k la - lb) = 0 modulo
    q - 1.  A zero a or b does not match, as the other is nonzero
    (BothCoefficientsZero at (0, 0))."""
    _require_admissible(la, lb)
    pk, order = ctx.p ** ctx.params.k, ctx.order
    return (la >= 0) & (lb >= 0) & ((pk + 1) * ((pk * la - lb) % order) % order == 0)


def case_tags(ctx: FieldCtx, la, lb):
    """The case of (a, b) at a = xi^la, b = xi^lb (dlogs as in
    norms_match), as int8 CaseTag codes: the norms as in norms_match, and
    a^2 = b^d with b != 0 iff 2 la = d lb modulo q - 1."""
    order = ctx.order
    square_match = (la >= 0) & (lb >= 0) & ((2 * la - ctx.params.d % order * lb) % order == 0)
    return np.where(square_match, CaseTag.SQUARE_MATCH, np.where(
        norms_match(ctx, la, lb), CaseTag.JACOBSTHAL, CaseTag.NORM_DIFFER)).astype(np.int8)


def _require_jacobsthal_bulk(ctx: FieldCtx, la, lb: int):
    # WrongCase unless every (xi^la, xi^lb) is a JACOBSTHAL pair
    if lb < 0:
        raise ZeroB("b must be nonzero")
    if (case_tags(ctx, la, lb) != CaseTag.JACOBSTHAL).any():
        raise WrongCase("operation defined only in the JACOBSTHAL case")


def chi(lb: int) -> int:
    """b^((p^n-1)/2) as +-1 at b = xi^lb != 0, that is (-1)^lb, since
    xi^((p^n-1)/2) = -1."""
    if lb < 0:
        raise ZeroB("chi needs b != 0")
    return -1 if lb % 2 else 1


# --------------------------------------------------------------------------
# monomial sums sum_i c_i x^(m_i), terms given as FieldCtx.monomials
# takes them: (dlog of c_i, integer m_i >= 1)
# --------------------------------------------------------------------------

def trace_values(ctx: FieldCtx, terms):
    """Tr(sum_i c_i x^(m_i)) at x = 0, xi^0, xi^1, ..., xi^(q-2), as an
    int64 array (the value at x = 0 is 0)."""
    logs = np.arange(ctx.order, dtype=np.int64)
    return np.concatenate(([0], ctx.trace_logs(ctx.sum_logs(*ctx.monomials(terms, logs)))))


def f_values(ctx: FieldCtx, pair: CoeffPair):
    """f(x) = Tr(a x^d + b x^2) at x = 0, xi^0, xi^1, ..., as trace_values."""
    return trace_values(ctx, ((ctx.log(pair.a), ctx.params.d), (ctx.log(pair.b), 2)))


def character_counts(ctx: FieldCtx, e: int, v_terms):
    """The value counts of Tr(a x^e + v(x)) over x in GF(p^n), for every a
    at once; v is a monomial sum given as terms.

    Returns the int64 array of shape (q, p) in sweep order, row 0 for
    a = 0 and row l + 1 for a = xi^l:

        counts[l + 1, j] = #{x : Tr(xi^l x^e + v(x)) = j mod p},

    so that sum_x w^Tr(a x^e + v(x)) is CycInt.from_counts(p, counts[l + 1]).

    With e_i the element encoded as p^i and a = sum_i a_i e_i, the trace
    is linear: Tr(a z) = sum_i a_i w_i, w_i = Tr(e_i z) with z = x^e, all
    m of them from one evaluation of x^e with one row per e_i.  e_i is
    X^i, that is xi^i, as xi = X (and e_0 = 1 = xi^0 at m = 1), so the
    basis dlogs are 0..m-1.  The pairs (w, Tr v) over all x are counted
    into a (p,)*m + (p,) array; one butterfly per digit axis, rolling the
    value axis by a_i w_i, turns counts over w into counts over a, indexed
    by the encoding of a, and one exp gather puts the rows in sweep order.
    That is about m p^2 q integer additions, with temporaries of O(q p)
    entries and no floats.
    """
    p, m, q = ctx.p, ctx.m, ctx.q
    x_logs = np.arange(ctx.order, dtype=np.int64)
    # w = 0 at x = 0; the (m, q - 1) traces are not kept through the butterfly
    w = np.concatenate(([0], p ** np.arange(m, dtype=np.int64) @ ctx.trace_logs(
        ctx.monomials(((np.arange(m), e),), x_logs)[0])))
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
    del src, out  # the last input goes before the gather allocates its output
    return counts.reshape(q, p)[np.concatenate(([0], ctx.exp_enc_bulk(x_logs)))]


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
    # L as (s, r, e) terms, each the monomial a^s b^r X^e
    pk = ctx.p ** ctx.params.k
    return ((0, pk ** 2, 1), (1, 0, pk), (0, 1, pk ** 2), (pk ** 2, 0, pk ** 3))


def _monomial_logs(ctx: FieldCtx, monomials, la, lb):
    # the dlogs (pairs, monomials) of the coefficients a^s b^r of a monomial
    # list at every pair (xi^la, xi^lb) at once, -1 where one is zero
    order = ctx.order
    s, r = (np.array([t[i] for t in monomials], dtype=np.int64) for i in range(2))
    la, lb = la[:, None], lb[:, None]
    live = ((s == 0) | (la >= 0)) & ((r == 0) | (lb >= 0))
    logs = ((s % order) * la + (r % order) * lb) % order
    return np.where(live, logs, -1)


def _L_terms(ctx: FieldCtx, pair: CoeffPair):
    # the (coefficient, exponent) terms of L at one pair
    return tuple((pair.a ** s * pair.b ** r, e) for s, r, e in _L_monomials(ctx))


def N_count_bulk(ctx: FieldCtx, la, lb):
    """The direct count of the zeros of L on U at every pair (xi^la[i],
    xi^lb[i]) at once, la and lb dlogs in 0..q-2, -1 for a zero
    coefficient.

    One FieldCtx.vanishes call per block of pairs (see _in_blocks) tests L,
    with each pair's own coefficients, for zero at every u in U.  Returns
    (n, zeros): the int64 array n[i] = N(a_i, b_i), and the bool array
    (pairs, p^2k + 1) that marks the zeros of L among the elements of U in
    U_logs order, that is by dlog.  The raw zero count of a pair is always
    even: ParityViolation at the first pair where it is odd."""
    la, lb = np.asarray(la, dtype=np.int64), np.asarray(lb, dtype=np.int64)
    _require_admissible(la, lb)
    u_logs, monomials = U_logs(ctx), _L_monomials(ctx)
    exponents = [e for *_, e in monomials]
    zeros = _in_blocks(lambda a, b: ctx.vanishes(*ctx.monomials(list(zip(
        _monomial_logs(ctx, monomials, a, b).T, exponents)), u_logs)), u_logs.size, la, lb)
    twice = zeros.sum(axis=1)
    odd = np.flatnonzero(twice % 2)
    if odd.size:
        i = odd[0]
        raise ParityViolation(f"{twice[i]} zeros of L on U at {_where(la[i], lb[i])}")
    return twice // 2, zeros


def N_count(ctx: FieldCtx, pair: CoeffPair):
    """Zeros of L on U at one pair, the one-pair call of N_count_bulk:
    returns (N, witnesses), witnesses sorted by dlog."""
    n, zeros = N_count_bulk(ctx, [ctx.log(pair.a)], [ctx.log(pair.b)])
    return int(n[0]), [ctx.from_exp(int(l)) for l in U_logs(ctx)[zeros[0]]]


def N_table(ctx: FieldCtx, lb: int, at):
    """N(a, b) for every a at once at b = xi^lb, with the zeros of L on U
    at the a of the sweep positions at.

    On U, u^(p^2k) = u^(-1), so L(u) = T(a u^(p^k)) + T(b^(p^2k) u) with T
    the trace GF(p^n) -> GF(p^2k).  T is zero on theta GF(p^2k), where
    theta = xi^((p^2k+1)/2) has theta^(p^2k) = -theta, and T(c/2) = c for
    c in GF(p^2k).  So L(u) = 0 exactly when

        a = u^(-p^k) (c_u/2 + theta t),  c_u = -(b^(p^2k) u + b u^(-1)),

    for one of the p^2k elements t of GF(p^2k).  Every u takes this one
    formula: one Zech sum gives the offsets u^(-p^k) c_u/2 =
    (-b^(p^2k)/2) u^(1-p^k) + (-b/2) u^(-1-p^k), and one per (u, t) the
    dlog of a at each of the (p^2k + 1) p^2k incidences (u, a).

    Returns (n, logs, bounds): n[l + 1] = N(xi^l, b) and n[0] = N(0, b),
    in sweep order, and int64 arrays with logs[bounds[j]:bounds[j + 1]]
    the dlogs of the zeros of L on U, increasing, at the a of sweep
    position at[j] (at increasing).  ParityViolation unless every count
    is even."""
    if lb < 0:
        raise ZeroB("the N table needs b != 0")
    pk, Q, order = ctx.p ** ctx.params.k, ctx.p ** (2 * ctx.params.k), ctx.order
    u_logs = U_logs(ctx)
    half = int(ctx.neg_logs(ctx.inv_logs(ctx.sum_logs(0, 0))))  # -1/2, from 2 = 1 + 1
    offsets = ctx.sum_logs(*ctx.monomials(((half + Q * lb, 1 - pk), (half + lb, -1 - pk)),
                                          u_logs))
    # theta t u^(-p^k) at t = 0, then at t = nu^s, nu = xi^(p^2k+1) the generator of GF(p^2k)*
    theta_logs = (Q + 1) // 2 + (Q + 1) * np.arange(Q - 1, dtype=np.int64)
    thetas = np.full((Q + 1, Q), -1, dtype=np.int64)
    thetas[:, 1:] = (theta_logs - pk * u_logs[:, None]) % order
    positions = ctx.sum_logs(thetas, offsets[:, None]).ravel() + 1
    twice = np.bincount(positions, minlength=ctx.q)
    n_odd = int(np.count_nonzero(twice % 2))
    if n_odd:
        raise ParityViolation(f"odd number of zeros of L on U at {n_odd} a, b={label(lb)}")
    # the incidences run over u in dlog order, and a stable sort keeps that
    # order within each a; only the incidences of the a at are sorted
    wanted = np.zeros(ctx.q, dtype=bool)
    wanted[at] = True
    kept = np.flatnonzero(wanted[positions])
    kept = kept[np.argsort(positions[kept], kind="stable")]
    return twice // 2, u_logs[kept // Q], np.concatenate(([0], np.cumsum(twice[at])))


# --------------------------------------------------------------------------
# S_f(0) by brute force
# --------------------------------------------------------------------------

def S0_bruteforce(ctx: FieldCtx, pair: CoeffPair) -> CycInt:
    """The defining sum over all of GF(p^n), exact in Z[w]."""
    pair.require_admissible()
    return CycInt.from_counts(ctx.p, np.bincount(f_values(ctx, pair), minlength=ctx.p))


# --------------------------------------------------------------------------
# Proposition 1: ker L = ker F by symbolic division
# --------------------------------------------------------------------------

# entries per block of the (pairs, points) arrays of N_count_bulk and the
# nonsquare route, and pairs per block of prop1: int64 temporaries of
# 128 KiB, whatever the field size
BLOCK_ENTRIES = 1 << 14


def _in_blocks(fn, width: int, *arrays):
    # fn on consecutive slices of the arrays, of BLOCK_ENTRIES // width
    # entries (at least one) each, for a fn that makes arrays of width
    # points per entry; the results joined
    n, size = len(arrays[0]), max(1, BLOCK_ENTRIES // width)
    return np.concatenate([fn(*(x[i:i + size] for x in arrays))
                           for i in range(0, max(n, 1), size)])


def prop1_coefficients(ctx: FieldCtx, la, lb):
    """The coefficients of L and F at every pair (xi^la[i], xi^lb[i]) (dlogs
    as in N_count_bulk), as dlogs in int64 arrays (4, n) and (3, n), -1 for
    zero: l0..l3 = b^(Q^2), a, b, a^(Q^2) with L = sum_i l_i X^(Q^i), and
    f0, f1, f2 = A^Q, B, A with F = sum_i f_i X^(Q^i), where Q = p^k,
    A = a^(Q(Q+1)) - b^(Q+1), B = w^(Q^2) - w and w = a b^Q."""
    Q, pw, neg = ctx.p ** ctx.params.k, ctx.pow_logs, ctx.neg_logs
    L = _monomial_logs(ctx, _L_monomials(ctx), la, lb).T
    A = ctx.sum_logs(pw(la, Q * (Q + 1)), neg(pw(lb, Q + 1)))
    w = ctx.mul_logs(la, pw(lb, Q))
    B = ctx.sum_logs(pw(w, Q * Q), neg(w))
    return L, np.stack((pw(A, Q), B, A))


KERNEL_CONDITIONS = ("F does not split: its zeros span no space of dimension 2 over GF({})",
                     "P = F/A does not right-divide L: a zero of F is no zero of L",
                     "the zeros of L span a space of dimension above 2 over GF({})")


def kernel_conditions(ctx: FieldCtx, L, F):
    """Which of the three conditions of Proposition 1 fails first at each
    pair, for the p^k-linearized L = sum_i l_i X^(Q^i), i < 4, and
    F = sum_i f_i X^(Q^i), i < 3, given by coefficient dlogs (arrays (4, n)
    and (3, n), -1 for zero; see prop1_coefficients): int8 codes, 0 where
    all hold, else the 1-based index into KERNEL_CONDITIONS.

    Write s for x -> x^Q.  The Q-linearized polynomials are the skew
    polynomials in s, composition is their product with s c = c^Q s, and P
    divides M on the right (M = G o P) exactly when ker P is inside ker M,
    for a separable P (Lidl and Niederreiter, Finite Fields, sec. 3.4).
    With P = F/f2 = s^2 + beta s + gamma and s^3 = s1 s + s0 modulo P,
    s1 = beta^(Q+1) - gamma^Q and s0 = beta^Q gamma, the conditions are:

    1. F splits: f2 != 0 and s^4 - 1 = 0 modulo P, i.e. both coefficients
       of (s0^Q - s1^Q beta) s - s1^Q gamma - 1 vanish.  Then P divides
       X^(Q^4) - X, so its Q^2 zeros (distinct, as gamma != 0) lie in
       GF(Q^4) and ker F has dimension 2 over GF(Q); conversely, a kernel
       of dimension 2 in GF(Q^4) holds all Q^2 zeros of F, whose degree is
       Q^2 (f2 != 0: otherwise F has degree Q at most, or is 0).
    2. ker F is inside ker L: L = 0 modulo P, i.e. both coefficients of
       l0 + l1 s + l2 (-beta s - gamma) + l3 (s1 s + s0) vanish.
    3. dim ker L = 2: with L = G o P, G = l3 s + g0, g0 = l2 - l3 beta^Q,
       ker L = P^(-1)(ker G meets im P) in GF(Q^4), so this holds exactly
       when G != 0 and ker G meets im P only in 0.  A nonzero G is
       injective unless l3 and g0 are both nonzero and c = -g0/l3 is a
       (Q-1)-th power in GF(Q^4) (its dlog a multiple of Q - 1); then
       ker G = y0 GF(Q) with y0^(Q-1) = c.  From
       s^4 - 1 = H o P, H = s^2 - beta^(Q^2) s + beta^(Q^2+Q) - gamma^(Q^2),
       im P (of dimension 2) is ker H, so y0 must not be a zero of H:
       H(y0)/y0 = c^(Q+1) - beta^(Q^2) c + beta^(Q^2+Q) - gamma^(Q^2) != 0.

    So all three hold exactly when ker F has dimension 2 and equals ker L.
    For the L of the paper, L(x)^(Q^2) = L(x) on GF(Q^4): L maps into
    GF(Q^2), so dim ker L >= 2, and "ker L = ker F, of dimension at most 2"
    holds exactly when all three do.  A difference of two terms vanishes
    exactly when their dlogs agree, so condition 1 compares dlogs; the
    longer sums are FieldCtx.vanishes tests, and s1 and g0 (and A and B in
    prop1_coefficients) are Zech sums."""
    Q = ctx.p ** ctx.params.k
    mul, pw, neg = ctx.mul_logs, ctx.pow_logs, ctx.neg_logs
    l0, l1, l2, l3 = L
    f0, f1, f2 = F
    over_f2 = ctx.inv_logs(f2)
    beta, gamma = mul(f1, over_f2), mul(f0, over_f2)
    beta_Q = pw(beta, Q)
    s1, s0 = ctx.sum_logs(mul(beta_Q, beta), neg(pw(gamma, Q))), mul(beta_Q, gamma)
    s1_Q = pw(s1, Q)
    splits = (f2 >= 0) & (pw(s0, Q) == mul(s1_Q, beta)) & (mul(s1_Q, gamma) == ctx.order // 2)
    divides = (ctx.vanishes(l0, neg(mul(l2, gamma)), mul(l3, s0))
               & ctx.vanishes(l1, neg(mul(l2, beta)), mul(l3, s1)))
    g0 = ctx.sum_logs(l2, neg(mul(l3, beta_Q)))
    c = mul(neg(g0), ctx.inv_logs(l3))
    # H(y0) only where G has a kernel, at about one pair in Q - 1
    at = np.flatnonzero((c >= 0) & (c % (Q - 1) == 0))
    c, beta_Q2, gamma = c[at], pw(beta_Q[at], Q), gamma[at]
    meets = np.zeros(l3.shape, dtype=bool)
    meets[at] = ctx.vanishes(pw(c, Q + 1), neg(mul(beta_Q2, c)), mul(beta_Q2, beta_Q[at]),
                             neg(pw(gamma, Q * Q)))
    small = ((l3 >= 0) | (g0 >= 0)) & ~meets
    return np.select([~splits, ~divides, ~small], [1, 2, 3], 0).astype(np.int8)


def prop1_kernel_check(ctx: FieldCtx, la, lb) -> int:
    """Proposition 1 at every pair (xi^la[i], xi^lb[i]) (dlogs as in
    N_count_bulk), whose norms must differ: L and F have the same zeros in
    GF(p^n), at most p^2k of them.  The three conditions of
    kernel_conditions on prop1_coefficients, in blocks of BLOCK_ENTRIES
    pairs; KernelMismatch, naming the condition, at the first pair that
    fails.  Returns the number of pairs compared."""
    la, lb = np.asarray(la, dtype=np.int64), np.asarray(lb, dtype=np.int64)
    _require_admissible(la, lb)
    Q = ctx.p ** ctx.params.k

    def block(a, b):
        failed = kernel_conditions(ctx, *prop1_coefficients(ctx, a, b))
        bad = np.flatnonzero(failed)
        if bad.size:
            i = bad[0]
            raise KernelMismatch(f"{KERNEL_CONDITIONS[failed[i] - 1].format(Q)} at "
                                 f"{_where(a[i], b[i])}")
        return a
    return _in_blocks(block, 1, la, lb).size


# --------------------------------------------------------------------------
# the Jacobsthal case: g, the nonsquare count, and the H-sum route
# --------------------------------------------------------------------------

def _require_jacobsthal(ctx: FieldCtx, pair: CoeffPair):
    if case_detail(ctx, pair) is not CaseTag.JACOBSTHAL:
        raise WrongCase("operation defined only in the JACOBSTHAL case")


def g_logs(ctx: FieldCtx, la, lb: int):
    """The dlogs of the canonical g in GF(p^2k)* with g^(p^k-1) =
    -b^(p^3k)/a at every pair (a, b) = (xi^la, xi^lb): t (p^k - 1) =
    log_nu(-b^(p^3k)/a) modulo p^2k - 1, solved in dlog arithmetic, with
    the smallest nonnegative t, and g = nu^t."""
    k, order = ctx.params.k, ctx.order
    pk, step = ctx.p ** k, ctx.subfield(2 * k).step
    la = np.asarray(la, dtype=np.int64)
    _require_jacobsthal_bulk(ctx, la, lb)
    # -1 = xi^((q-1)/2)
    target = (order // 2 + ctx.p ** (3 * k) % order * lb - la) % order
    if (target % step).any():
        raise NotInSubfield("-b^(p^3k)/a is not in GF(p^2k)")
    e = target // step
    if (e % (pk - 1)).any():
        raise NoSolution("target is not a (p^k-1)-th power")
    g = step * (e // (pk - 1) % (pk + 1))
    bad = np.flatnonzero(g * (pk - 1) % order != target)
    if bad.size:
        raise CaseViolation(f"g^(p^k-1) != -b^(p^3k)/a at {_where(la[bad[0]], lb)}")
    return g


def N_via_nonsquares_bulk(ctx: FieldCtx, la, lb: int, g_logs):
    """#{c in GF(p^k) : (cg)^2 - b^(p^2k+1) is a nonsquare in GF(p^2k)} at
    every pair (a, b) = (xi^la, xi^lb), with its g = xi^g_logs (see
    g_logs): one (pairs, p^k) array of eta((cg)^2 - b^(p^2k+1)) per block
    of pairs, from one Zech sum of dlogs, with -b^(p^2k+1) =
    xi^((q-1)/2 + (p^2k+1) lb).  Returns int64."""
    k, order = ctx.params.k, ctx.order
    view = ctx.subfield(2 * k)
    minus_norm = (order // 2 + (ctx.p ** (2 * k) + 1) * lb) % order
    c_logs = ctx.subfield(k).step * np.arange(ctx.p ** k - 1, dtype=np.int64)

    def block(a, g):
        squares = np.full((g.size, c_logs.size + 1), -1, dtype=np.int64)  # c = 0 first
        squares[:, 1:] = 2 * (c_logs + g[:, None]) % order
        eta = view.eta_logs(ctx.sum_logs(squares, minus_norm))
        vanished = np.flatnonzero((eta == 0).any(axis=1))
        if vanished.size:
            raise CaseViolation("(cg)^2 - b^(p^2k+1) vanished at "
                                f"{_where(a[vanished[0]], lb)}")
        return (eta == -1).sum(axis=1)
    return _in_blocks(block, ctx.p ** k, np.asarray(la, dtype=np.int64),
                      np.asarray(g_logs, dtype=np.int64))


def _N_from_H(ctx: FieldCtx, la, lb: int, H):
    # 2N = p^k - H/(p^k+1) + 1 at every pair (xi^la, xi^lb), checking that
    # H is divisible by p^k + 1 and that 2N is even
    pk = ctx.p ** ctx.params.k
    bad = np.flatnonzero(H % (pk + 1))
    if bad.size:
        i = bad[0]
        raise DivisibilityViolation(f"H = {H[i]} is not divisible by {pk + 1} at "
                                    f"{_where(la[i], lb)}")
    num = pk - H // (pk + 1) + 1
    odd = np.flatnonzero(num % 2)
    if odd.size:
        i = odd[0]
        raise ParityViolation(f"2N = {num[i]} is odd at {_where(la[i], lb)}")
    return num // 2


def N_via_jacobsthal_bulk(ctx: FieldCtx, la, lb: int, g_logs, scan):
    """N from 2N = p^k - H_{p^k+1}(-b^(p^2k+1)/g^2)/(p^k+1) + 1 at every
    pair (a, b) = (xi^la, xi^lb), with its g = xi^g_logs (see g_logs), and H
    read from scan, the jacobsthal.theorem2_scan of the 2k-view of ctx (else
    NotInSubfield: its dlogs are multiples of the view's step), at the
    position of the argument's dlog among scan.logs.  The scan holds the a
    off GF(p^k), and the argument's (p^k-1)-th power is a^2/b^d, so it is
    absent only in the SQUARE_MATCH case (CaseViolation).  Returns int64."""
    la, g_logs = (np.asarray(x, dtype=np.int64) for x in (la, g_logs))
    step = ctx.subfield(2 * ctx.params.k).step
    if (scan.logs % step).any():
        raise NotInSubfield(f"scan dlogs not all multiples of {step}: a scan of another GF(p^2k)")
    l = (ctx.order // 2 + step * lb - 2 * g_logs) % ctx.order
    i = np.searchsorted(scan.logs, l)
    absent = np.flatnonzero(scan.logs.take(i, mode="clip") != l)
    if absent.size:
        raise CaseViolation(f"-b^(p^2k+1)/g^2 lies in GF(p^k) at {_where(la[absent[0]], lb)}")
    return _N_from_H(ctx, la, lb, scan.H[i])


# --------------------------------------------------------------------------
# scaling invariance and the Jacobsthal-case corollaries
# --------------------------------------------------------------------------

def corollary1_bulk(ctx: FieldCtx, la, lb, h_logs):
    """N(a, b) == N(a h^d, b h^2) at every triple (a, b, h) = (xi^la[i],
    xi^lb[i], xi^h_logs[i]) at once (dlogs as in N_count_bulk), from one
    N_count_bulk call over the pairs and their scalings, whose dlogs are
    la + d h and lb + 2 h: a bool array."""
    la, lb, h = (np.asarray(x, dtype=np.int64) for x in (la, lb, h_logs))
    order = ctx.order
    n, _ = N_count_bulk(
        ctx, np.concatenate((la, np.where(la < 0, -1, (la + ctx.params.d % order * h) % order))),
        np.concatenate((lb, np.where(lb < 0, -1, (lb + 2 * h) % order))))
    return n[:la.size] == n[la.size:]


def jacobsthal_pairs(ctx: FieldCtx, b: Elem):
    """All a with matching norms and a^2 != b^d, i.e. the JACOBSTHAL slice."""
    if b.is_zero:
        raise ZeroB("b must be nonzero")
    out = []
    for a in ctx.powers():
        pair = CoeffPair(a, b)
        if case_detail(ctx, pair) is CaseTag.JACOBSTHAL:
            out.append(a)
    return out


def corollary_eq9_check(ctx: FieldCtx, lb: int, n):
    """sum of N over the JACOBSTHAL slice of b = xi^lb vs
    (p^k+1)(p^k - chi(b))/2, with n the N of every a of the slice."""
    pk = ctx.p ** ctx.params.k
    return int(np.sum(n)), (pk + 1) * (pk - chi(lb)) // 2


def _properties(pk: int, chi_b: int, N, N_inv, N_nega, N_negb) -> dict:
    # properties (i)-(v) from chi(b) and N at (a, b), (1/a, 1/b), (-a, b)
    # and (a, -b): ints, or arrays over a
    out = {}
    if chi_b == 1:
        out["i"] = N == N_inv
        out["iii"] = N_nega == pk + 1 - N_inv
    else:
        out["i"] = N == pk + 1 - N_inv
        out["iii"] = N_nega == N_inv
    out["ii"] = (N + N_nega == pk + 1) & (N + N_negb == pk + 1)
    out["iv"] = (N % 2 == 0) == (chi_b == 1)
    out["v"] = ((2 * N - (pk + 1)) ** 2 <= 4 * pk) & (N >= 1)
    return out


def _special_a(ctx: FieldCtx, lb: int, chi_b: int) -> tuple:
    # the dlogs of the a of the two special pairs (a, b) of property (vi),
    # +-nu^((p^2k-1)/4) b^(d/2) with nu^((p^2k-1)/4) = xi^((q-1)/4) and
    # -1 = xi^((q-1)/2), or () where its hypotheses (p = 3 mod 4, k odd,
    # b square) do not apply
    p, k, order = ctx.p, ctx.params.k, ctx.order
    if p % 4 != 3 or k % 2 == 0 or chi_b != 1:
        return ()
    return tuple((quarter * (order // 4) + ctx.params.d // 2 * lb) % order for quarter in (1, 3))


def _special_pair_violation(la, lb):
    return CaseViolation(f"special pair {_where(la, lb)} is not JACOBSTHAL")


def corollary_suite(ctx: FieldCtx, pair: CoeffPair) -> dict:
    """The seven verified properties of N at one JACOBSTHAL pair, pair by
    pair with N_count: the reference for corollary_properties and, as
    (vii), corollary_eq9_check over the slice of b that case_tags gives,
    with its N from one direct count.

    Returns {"i": bool, ..., "vii": bool}; "vi" is None when its
    hypotheses (p = 3 mod 4, k odd, b square) do not apply."""
    _require_jacobsthal(ctx, pair)
    pk = ctx.p ** ctx.params.k
    a, b, lb = pair.a, pair.b, ctx.dlog(pair.b)
    chi_b = chi(lb)
    N = [N_count(ctx, other)[0] for other in
         (pair, CoeffPair(a.inverse(), b.inverse()), CoeffPair(-a, b), CoeffPair(a, -b))]
    out = _properties(pk, chi_b, *N)
    specials = [CoeffPair(ctx.from_exp(ls), b) for ls in _special_a(ctx, lb, chi_b)]
    for special in specials:
        if case_detail(ctx, special) is not CaseTag.JACOBSTHAL:
            raise _special_pair_violation(ctx.dlog(special.a), lb)
    out["vi"] = all(N_count(ctx, s)[0] == (pk + 1) // 2 for s in specials) if specials else None
    la = np.arange(-1, ctx.order, dtype=np.int64)
    la = la[case_tags(ctx, la, lb) == CaseTag.JACOBSTHAL]
    total, expected = corollary_eq9_check(ctx, lb, N_count_bulk(ctx, la, np.full(la.size, lb))[0])
    out["vii"] = total == expected
    return out


def corollary_properties(ctx: FieldCtx, report) -> dict:
    """Properties (i)-(vi) of N at every pair (a, b) of the JACOBSTHAL
    slice of report, the distribution_sweep at b.

    Returns {"i": bool array, ..., "vi": bool array} over the slice; "vi"
    is None when its hypotheses (p = 3 mod 4, k odd, b square) do not
    apply.  N at (a, b) and (-a, b), at the two special pairs of (vi) and
    chi(b) come from the report's N table; one N_count_bulk call counts
    (a, -b) and (1/a, 1/b) at every a.  All of them are dlog sums:
    -1 = xi^((q-1)/2) and 1/a = xi^(-log a).  WrongCase unless every pair
    is JACOBSTHAL; CaseViolation unless the special pairs are."""
    lb, la = report.lb, report.jacobsthal
    _require_jacobsthal_bulk(ctx, la, lb)
    pk, n, order = ctx.p ** ctx.params.k, la.size, ctx.order
    minus = order // 2
    specials = np.array(_special_a(ctx, lb, report.chi_b), dtype=np.int64)
    for ls, tag in zip(specials, case_tags(ctx, specials, lb)):
        if tag != CaseTag.JACOBSTHAL:
            raise _special_pair_violation(ls, lb)
    N_negb, N_inv = np.split(N_count_bulk(
        ctx, np.concatenate((la, -la % order)),
        np.repeat([(lb + minus) % order, -lb % order], n))[0], [n])
    N = report.N  # N[l + 1] at a = xi^l
    out = _properties(pk, report.chi_b, N[la + 1], N_inv, N[(la + minus) % order + 1], N_negb)
    out["vi"] = np.full(n, (N[specials + 1] == (pk + 1) // 2).all()) if specials.size else None
    return out


# --------------------------------------------------------------------------
# per-pair records and the full distribution sweep
# --------------------------------------------------------------------------

def _record(a: str, b: str, tag: int, n: int, s0: int, witness_logs) -> dict:
    """The JSON record of one pair (a, b), both given as labels "0" or
    "g^e": its case (a CaseTag code), N, S_f(0) and the zeros of L on U,
    as "g^e" from their dlogs."""
    return {"a": a, "b": b, "tag": CaseTag(tag).name, "N": n, "S0": s0,
            "witnesses": [label(e) for e in witness_logs]}


def expsum_record(ctx: FieldCtx, pair: CoeffPair) -> dict:
    """The record of one pair: classify, count zeros, and confirm the
    closed form against the brute-force sum (OracleMismatch on any
    defect)."""
    defining = S0_bruteforce(ctx, pair)
    tag = case_detail(ctx, pair)
    la, lb = ctx.log(pair.a), ctx.log(pair.b)
    n, zeros = N_count_bulk(ctx, [la], [lb])
    s0 = ctx.p ** (2 * ctx.params.k) * (2 * int(n[0]) - 1)
    if defining != s0:
        raise _oracle_mismatch(la, lb, s0, defining)
    return _record(label(la), label(lb), tag, int(n[0]), s0, U_logs(ctx)[zeros[0]].tolist())


def _oracle_mismatch(la, lb, s0: int, defining: CycInt):
    return OracleMismatch(f"closed {s0} != defining sum {defining} at {_where(la, lb)}")


@dataclass(frozen=True)
class DistributionReport:
    """Tallies of S_f(0) over all a for a fixed b.

    r, s, t count S_f(0) = -p^2k, p^2k, 3 p^2k over the NORM_DIFFER and
    SQUARE_MATCH cases; jac_histogram maps N to its frequency over the
    JACOBSTHAL case and jacobsthal is that slice, the int64 dlogs of its a
    in sweep order; N is the whole table in sweep order, N[l + 1] at
    a = xi^l, so the slice's N is N[jacobsthal + 1] (neither is part of
    the JSON record).  residuals are the three identity defects and must
    all be zero."""

    lb: int                   # b = xi^lb
    chi_b: int
    r: int
    s: int
    t: int
    jac_histogram: dict
    s0_total: int
    residuals: tuple
    jacobsthal: np.ndarray    # dlogs of the a of the JACOBSTHAL slice
    N: np.ndarray             # N(a, b) in sweep order, from N_table

    def to_json_dict(self) -> dict:
        return {
            "b": label(self.lb),
            "chi_b": self.chi_b,
            "r": self.r,
            "s": self.s,
            "t": self.t,
            "jac_histogram": {str(k): v for k, v in sorted(self.jac_histogram.items())},
            "s0_total": self.s0_total,
            "residuals": list(self.residuals),
        }


def distribution_sweep(ctx: FieldCtx, lb: int, on_record=None) -> DistributionReport:
    """Every a in GF(p^n), in sweep order (a = 0, xi^0, xi^1, ...), for the
    fixed b = xi^lb != 0.

    N comes from N_table, the case from case_tags and the defining sum
    from the rows of the transform, for all a at once, all in sweep order.
    Each closed form is checked against the defining sum from one
    character_counts transform, N > 2 outside the JACOBSTHAL case raises
    RangeViolation, and the direct zero count (N_count_bulk) and
    case_detail cross-check both tables on the JACOBSTHAL slice and on at
    most 32 evenly strided a (a = 0 among them), the only zero sets the
    N table groups unless on_record is given.  Only then, if it is, is
    each pair's record, as expsum_record gives it but read from the
    arrays, passed to it in sweep order; records are not kept."""
    if lb < 0:
        raise ZeroB("distribution sweep needs b != 0")
    p, pk, Q = ctx.p, ctx.p ** ctx.params.k, ctx.p ** (2 * ctx.params.k)
    sign = chi(lb)
    # sweep position i is a = xi^(i - 1), a = 0 at i = 0
    la = np.arange(-1, ctx.order, dtype=np.int64)
    tags = case_tags(ctx, la, lb)
    jac = tags == CaseTag.JACOBSTHAL
    # at most 32 evenly strided sweep positions, a = 0 first
    sample = np.flatnonzero(jac | (np.arange(ctx.q) % -(-ctx.q // 32) == 0))
    at = sample if on_record is None else np.arange(ctx.q)
    n, logs, bounds = N_table(ctx, lb, at)

    # sum_j c_j w^j is the integer s exactly when c_1 = ... = c_(p-1) and c_0 - c_1 = s
    counts = character_counts(ctx, ctx.params.d, ((lb, 2),))
    s0 = Q * (2 * n - 1)
    off = np.flatnonzero(~(counts[:, 1:] == counts[:, 1:2]).all(axis=1)
                         | (counts[:, 0] - counts[:, 1] != s0))
    if off.size:
        i = off[0]
        raise _oracle_mismatch(la[i], lb, int(s0[i]), CycInt.from_counts(p, counts[i]))
    over = np.flatnonzero(~jac & (n > 2))
    if over.size:
        i = over[0]
        raise RangeViolation(f"{CaseTag(tags[i]).name} pair has N = {n[i]} > 2 "
                             f"at {_where(la[i], lb)}")
    _cross_check(ctx, lb, n, tags, logs, bounds[np.searchsorted(at, sample)[:, None] + [0, 1]],
                 sample)

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
        logs, bounds = logs.tolist(), bounds.tolist()
        b_label = label(lb)
        for i, (l, tag, n_i, s0_i) in enumerate(zip(*(x.tolist() for x in (la, tags, n, s0)))):
            on_record(_record(label(l), b_label, tag, n_i, s0_i, logs[bounds[i]:bounds[i + 1]]))
    return DistributionReport(lb=lb, chi_b=sign, r=r, s=s, t=t,
                              jac_histogram=jac_hist, s0_total=s0_total, residuals=residuals,
                              jacobsthal=la[jac], N=n)


def _cross_check(ctx: FieldCtx, lb: int, n, tags, logs, spans, sample):
    # the direct zero count (one N_count_bulk call) and case_detail at the
    # sweep positions in sample against the N table, its zero sets
    # (logs[start:end] for each (start, end) row of spans) and the bulk
    # case split
    b = ctx.from_exp(lb)
    n_direct, zeros = N_count_bulk(ctx, sample - 1, np.full(sample.size, lb))
    u_logs = U_logs(ctx)
    for i, (start, end), n_i, zeros_i in zip(sample.tolist(), spans, n_direct, zeros):
        if n_i != n[i] or u_logs[zeros_i].tolist() != logs[start:end].tolist():
            raise OracleMismatch(f"direct zero count N = {n_i} != N table {n[i]}, "
                                 f"or other witnesses, at {_where(i - 1, lb)}")
        tag = case_detail(ctx, CoeffPair(ctx.from_exp(i - 1) if i else ctx.zero, b))
        if tag != tags[i]:
            raise CaseViolation(f"case_detail gives {tag.name}, the bulk case split "
                                f"{CaseTag(tags[i]).name} at {_where(i - 1, lb)}")
