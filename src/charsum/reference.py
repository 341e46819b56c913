"""References: each quantity by its definition, one element at a time.
No command imports this module; each public function cross-checks a
batched route in the tests: a subfield's elements, logs, eta and trace
(a SubfieldView's Elem-level side) against eta_logs and the dlog
arithmetic, the zero sets of L and F and their 4 x 4 matrices over
GF(p^k), row reduced on the subfield's keys (form_matrices, rref_keyed,
kernel_mismatches), against expsum.kernel_conditions, find_g against
expsum.g_logs, H_sums (H by definition at an array of a) against
jacobsthal.scan_table, where prop2 reads H too, the per-a
Jacobsthal sums and curve counts (a JacobsthalRecord) against scan_table
and the rows of jacobsthal-scan, the Walsh coefficient and the (1, 1)
closed form at one y against walsh.full_spectrum and theorem1_root_scan,
the decimated m-sequence pair against sequences.correlation_table, and
the cyclotomic numbers against cyclotomy.full_table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .cyclotomy import _pk, class_count
from .errors import (CaseViolation, DegreeUnsupported, IndexOutOfRange, InvariantViolation,
                     NoSolution, NotInSubfield, PeriodMismatch, RootCountViolation, WrongCase,
                     ZeroArgument, ZeroC)
from .expsum import (CoeffPair, S0_bruteforce, _L_terms, _require_jacobsthal, f_values,
                     trace_values)
from .field_core import Elem, FieldCtx, SubfieldView, _prime_field_value


# --------------------------------------------------------------------------
# field_core: a subfield's elements, logs, character and trace
# --------------------------------------------------------------------------

def generator(view: SubfieldView) -> Elem:
    """nu = xi^step, the induced generator of the subfield."""
    return view.ctx.from_exp(view.step)


def contains(view: SubfieldView, x: Elem) -> bool:
    """Membership by the Frobenius predicate x^(p^degree) = x."""
    return x.is_zero or x ** view.q == x


def elements(view: SubfieldView) -> list:
    """Zero, then the powers of the induced generator."""
    return [view.ctx.zero, *nonzero_elements(view)]


def nonzero_elements(view: SubfieldView):
    """nu^0, nu^1, ..., nu^(p^degree - 2)."""
    return (view.ctx.from_exp(view.step * e) for e in range(view.order))


def discrete_log(view: SubfieldView, x: Elem) -> int:
    """e with nu^e = x, 0 <= e < p^degree - 1."""
    e = view.ctx.dlog(x)  # ZeroArgument at zero
    if e % view.step:
        raise NotInSubfield(f"{x!r} not in GF({view.ctx.p}^{view.degree})")
    return e // view.step


def eta(view: SubfieldView, x: Elem) -> int:
    """Quadratic character of the subfield: 0 at zero, else +-1 by
    whether x is a square, evaluated as x^((Q-1)/2)."""
    if x.is_zero:
        return 0
    if not contains(view, x):
        raise NotInSubfield(f"{x!r} not in GF({view.ctx.p}^{view.degree})")
    s = x ** (view.order // 2)
    if s != 1 and s != -1:
        raise InvariantViolation(f"{x!r}^((q-1)/2) is not +-1 in GF({view.ctx.p}^{view.degree})")
    return 1 if s == 1 else -1


def abs_trace(view: SubfieldView, x: Elem) -> int:
    """Absolute trace of the subfield GF(p^degree) -> GF(p), as the
    integer 0..p-1 (NotInSubfield if x lies outside it)."""
    return _prime_field_value(view.ctx.rel_trace(x, 1, view.degree))


# --------------------------------------------------------------------------
# expsum: zero sets over the field, and g
# --------------------------------------------------------------------------

def _zero_set(ctx: FieldCtx, terms) -> list:
    """Zeros of the sum in GF(p^n): 0 first, then the rest by dlog."""
    logs = np.arange(ctx.order, dtype=np.int64)
    zero_logs = logs[ctx.vanishes(*ctx.monomials([(ctx.log(c), e) for c, e in terms], logs))]
    return [ctx.zero] + [ctx.from_exp(int(l)) for l in zero_logs]


def _F_terms(ctx: FieldCtx, pair: CoeffPair):
    p, k = ctx.p, ctx.params.k
    a, b = pair.a, pair.b
    pk = p ** k
    A = a ** (pk * (pk + 1)) - b ** (pk + 1)
    B = a ** (p ** (2 * k)) * b ** (p ** (3 * k)) - a * b ** pk
    return A, B


def prop1_F_zeros(ctx: FieldCtx, pair: CoeffPair) -> list:
    """Zero set in GF(p^n) of
    F(X) = A X^(p^2k) + B X^(p^k) + A^(p^k) X,  A = a^(p^k(p^k+1)) - b^(p^k+1),
    B = a^(p^2k) b^(p^3k) - a b^(p^k); requires A != 0.

    Checked elsewhere to coincide with the zero set of L."""
    pair.require_admissible()
    A, B = _F_terms(ctx, pair)
    if A.is_zero:
        raise WrongCase("F degenerates when the norms agree")
    p, k = ctx.p, ctx.params.k
    return _zero_set(ctx, ((A ** (p ** k), 1), (B, p ** k), (A, p ** (2 * k))))


def L_zeros_field(ctx: FieldCtx, pair: CoeffPair) -> list:
    """Zero set of L in all of GF(p^n), same ordering as prop1_F_zeros."""
    pair.require_admissible()
    return _zero_set(ctx, _L_terms(ctx, pair))


def find_g(ctx: FieldCtx, pair: CoeffPair) -> Elem:
    """Canonical g in GF(p^2k)* with g^(p^k-1) = -b^(p^3k)/a.

    Solves t (p^k-1) = log_nu(target) mod (p^2k-1); returns nu^t with the
    smallest nonnegative t.  Solvable whenever the case conditions hold."""
    _require_jacobsthal(ctx, pair)
    p, k = ctx.p, ctx.params.k
    pk = p ** k
    view = ctx.subfield(2 * k)
    target = -(pair.b ** (p ** (3 * k))) / pair.a
    e = discrete_log(view, target)  # raises NotInSubfield if out of case
    if e % (pk - 1):
        raise NoSolution("target is not a (p^k-1)-th power")
    t = (e // (pk - 1)) % (pk + 1)
    g = generator(view) ** t
    if g ** (pk - 1) != target:
        raise CaseViolation(f"g^(p^k-1) != -b^(p^3k)/a at a={ctx.format_element(pair.a)}, "
                            f"b={ctx.format_element(pair.b)}")
    return g


# --------------------------------------------------------------------------
# expsum: Proposition 1 by linear algebra over GF(p^k)
# --------------------------------------------------------------------------

def _base_p_digits(p: int, h: int):
    """The (p^h, h) int64 array of the base-p digits of 0..p^h - 1, least
    significant first."""
    return np.arange(p ** h, dtype=np.int64)[:, None] // p ** np.arange(h) % p


def _negations(digits, p: int):
    """The encodings of -x, from the (s, h) digits of every x below s = p^h."""
    return (p - digits) % p @ p ** np.arange(digits.shape[1], dtype=np.int64)


def _digitwise_sums(digits, p: int):
    """The addition table over encodings below s = p^h, flat: entry x s + y
    is the encoding of the digitwise sum mod p of x and y, from the (s, h)
    digits of every x."""
    s, h = digits.shape
    table = np.zeros((s, s), dtype=np.int64)
    for i in range(h):
        table += (digits[:, i, None] + digits[None, :, i]) % p * p ** i
    return table.ravel()


@dataclass(frozen=True)
class KeyArithmetic:
    """GF(Q), Q = p^degree, on keys: the key of z is the integer

        K(z) = sum_{s < degree} Tr(eta^s z) p^s   in 0..Q-1,

    with Tr the absolute trace of GF(Q) and eta its generator.  K is
    GF(p)-linear and one to one (the trace form is nondegenerate), so keys
    add digitwise mod p, and three flat tables give the rest by gathers
    from arrays of keys x, f, v:

        mul[x Q + v]          = K(x v)
        inv[x]                = K(1 / x)    (0 at x = 0)
        axpy[(x Q + f) Q + v] = K(x - f v)"""

    q: int
    mul: np.ndarray
    inv: np.ndarray
    axpy: np.ndarray


def key_arithmetic(view: SubfieldView) -> KeyArithmetic:
    """The arithmetic of the subfield view on keys (see KeyArithmetic).

    Digit s of the key of eta^j (eta the induced generator) is
    Tr(eta^(j+s)) of the subfield, that is r^(-1) Tr(eta^(j+s)) of the
    ambient field of degree r degree (DegreeUnsupported when p divides r),
    from trace_logs; products and inverses follow
    from the dlogs j.  Self-checked: InvariantViolation unless the keys
    of the nonzero elements are 1..Q-1, each once, and the key of x + y
    (sum_logs) is the digitwise sum of the keys at every pair."""
    ctx, p, q, order = view.ctx, view.ctx.p, view.q, view.order
    ratio = ctx.m // view.degree
    if ratio % p == 0:
        raise DegreeUnsupported(f"no keys for GF({p}^{view.degree}) in GF({p}^{ctx.m})")
    dlogs = np.arange(order, dtype=np.int64)
    digits = ctx.trace_logs(view.step * (dlogs[:, None] + np.arange(view.degree)) % ctx.order
                            ) * pow(ratio, -1, p) % p
    keys = digits @ p ** np.arange(view.degree, dtype=np.int64)
    if (np.bincount(keys, minlength=q) != (np.arange(q) > 0)).any():
        raise InvariantViolation(f"the keys of GF({p}^{view.degree}) are not one to one")
    # by key: the dlog in the ambient field (-1 for zero) and to eta
    named, key_log = np.full(q, -1, dtype=np.int64), np.zeros(q, dtype=np.int64)
    named[keys], key_log[keys] = view.step * dlogs, dlogs
    key_digits = _base_p_digits(p, view.degree)
    add = _digitwise_sums(key_digits, p)
    if (ctx.sum_logs(named[:, None], named[None, :]).ravel() != named[add]).any():
        raise InvariantViolation(f"the keys of GF({p}^{view.degree}) are not additive")
    x, v = np.divmod(np.arange(q * q, dtype=np.int64), q)
    mul = np.where((x == 0) | (v == 0), 0, keys[(key_log[x] + key_log[v]) % order])
    neg = _negations(key_digits, p)
    inv = keys[-key_log % order]
    inv[0] = 0
    return KeyArithmetic(q, mul, inv, add.reshape(q, q)[:, neg[mul]].ravel())


def _key_terms(ctx: FieldCtx):
    # L (polynomial 0) and F (1) as (polynomial, u, t, sign, e): sign u^(p^(t k)) X^e, u indexing
    # a, b, c, v, w of form_matrices; A = c - v, B = w^(p^2k) - w, A^(p^k) = c^(p^k) - v^(p^k)
    pk = ctx.p ** ctx.params.k
    return ((0, 1, 2, 1, 1), (0, 0, 0, 1, pk), (0, 1, 0, 1, pk ** 2), (0, 0, 2, 1, pk ** 3),
            (1, 2, 0, 1, pk ** 2), (1, 3, 0, -1, pk ** 2), (1, 4, 2, 1, pk),
            (1, 4, 0, -1, pk), (1, 2, 1, 1, 1), (1, 3, 1, -1, 1))


def form_matrices(ctx: FieldCtx):
    """The 4 x 4 matrices over GF(p^k) of L and F, as a function of the
    pairs (a, b).

    With T = Tr_{4k/k}, the matrix of P = L or F at a pair is
    z_ij = T(X^i P(X^j)), i, j < 4: {X^i} is a basis of GF(p^n) over
    GF(p^k), as xi = X has degree 4 over it, P is GF(p^k)-linear and T is
    nondegenerate, so ker P is the kernel of z.  Each entry is given by its
    key (KeyArithmetic), whose digit s is
    Tr_{k/1}(eta^s z_ij) = Tr(eta^s X^i P(X^j)), eta = xi^step the
    generator of GF(p^k).  Returns matrices(la, lb): for n pairs with dlogs
    la and lb (-1 for a zero coefficient), the int64 keys (2, n, 4, 4) of
    L's matrices, then F's.

    Each coefficient is u^(p^t) for u one of a, b, c = a^(p^k(p^k+1)),
    v = b^(p^k+1) and w = a b^(p^k) (_key_terms), and Tr(u^(p^t) y) =
    sum_d u_d Tr(e_d y^(p^(n-t))) over the base-p digits u_d of u, e_d
    encoded as p^d, that is xi^d.  So one constant (5m, 32k) matrix M maps
    the digits of the five elements to the 32k key digits at every pair:
    five exp gathers and one float32 einsum per block, exact as each digit
    is a sum of fewer than 2^24 / p^2 integers below p^2 (numpy's own
    loop, which unlike a threaded BLAS is fast at these sizes)."""
    p, m, k, pk, order = ctx.p, ctx.m, ctx.params.k, ctx.p ** ctx.params.k, ctx.order
    basis = np.arange(m)  # the dlogs of e_d = xi^d
    left = (ctx.subfield(k).step * np.arange(k)[:, None] + np.arange(4)).ravel()
    # M[(u, d), (P, s, i, j)]: Tr(e_d y^(p^(n-t))) over P's terms in u, y = eta^s X^(i+je)
    M = np.zeros((5, m, 2, left.size, 4), dtype=np.int64)
    for poly, u, t, sign, e in _key_terms(ctx):
        y = (left[:, None] + (e % order) * np.arange(4)) % order * (p ** (m - t * k) % order)
        M[u, :, poly] += sign * ctx.trace_logs((basis[:, None, None] + y) % order)
    M = (M.reshape(5 * m, -1) % p).astype(np.float32)

    def matrices(la, lb):
        # the five elements: zero where a (for a, c, w) or b (for b, v, w) is
        logs = np.stack((la, lb, pk * (pk + 1) * la, (pk + 1) * lb, la + pk * lb))
        live = np.stack((la >= 0, lb >= 0, la >= 0, lb >= 0, (la >= 0) & (lb >= 0)))
        encs = np.where(live, ctx.exp_enc_bulk(logs), 0).T
        digits = (encs[..., None] // p ** np.arange(m) % p).reshape(len(la), 5 * m)
        key_digits = _mod_p(np.einsum("nd,dc->nc", digits.astype(np.float32), M), p)
        keys = np.einsum("nPsc,s->Pnc", key_digits.reshape(len(la), 2, k, 16),
                         p ** np.arange(k, dtype=np.float32))
        return keys.astype(np.int64).reshape(2, -1, 4, 4)
    return matrices


def _mod_p(x, p: int):
    # x mod p in place, for a float32 array of integers below 2^24 / p in
    # magnitude: exact, as x / p is correctly rounded and, unless it is an
    # integer, at least 1/p away from one; about five times faster than %
    # on integer arrays
    x -= p * np.floor(x / p)
    return x


def rref_keyed(mats, arith: KeyArithmetic):
    """Reduced row echelon forms over GF(Q) of a stack of matrices (n, r, c)
    of keys (0..Q-1, see KeyArithmetic), and their ranks, all
    int64: every field operation is one gather from arith's tables."""
    q, mul, axpy = arith.q, arith.mul, arith.axpy
    mats = np.array(mats, dtype=np.int64)
    rank = np.zeros(len(mats), dtype=np.int64)
    rows = np.arange(mats.shape[1])
    for col in range(mats.shape[2]):
        candidates = (mats[:, :, col] != 0) & (rows >= rank[:, None])
        found = np.flatnonzero(candidates.any(axis=1))
        if not found.size:
            continue
        # the columns before col are zero in every row from rank on
        sub = mats[found, :, col:]
        at = np.arange(found.size)
        top, pivot = rank[found], candidates[found].argmax(axis=1)
        pivot_row = sub[at, pivot]
        pivot_row = mul.take(arith.inv.take(pivot_row[:, :1]) * q + pivot_row)
        sub[at, pivot] = sub[at, top]
        index = sub * q
        index += sub[:, :, :1]
        index *= q
        index += pivot_row[:, None, :]
        axpy.take(index, out=sub)
        sub[at, top] = pivot_row
        mats[found, :, col:] = sub
        rank[found] += 1
    return mats, rank


def kernel_mismatches(L_mats, F_mats, arith: KeyArithmetic):
    """Indexes of the pairs whose matrices have different kernels, or an F
    kernel of dimension above 2 (F has degree p^2k), with the kernel
    dimensions of both stacks: kernels agree iff the reduced row echelon
    forms do."""
    n, m = len(L_mats), L_mats.shape[2]
    reduced, rank = rref_keyed(np.concatenate((L_mats, F_mats)), arith)
    dim_L, dim_F = m - rank[:n], m - rank[n:]
    bad = np.flatnonzero((reduced[:n] != reduced[n:]).any(axis=(1, 2)) | (dim_F > 2))
    return bad, dim_L, dim_F


# --------------------------------------------------------------------------
# jacobsthal: the companion sum, the half basis and the curve, per a
# --------------------------------------------------------------------------

def _check_arg(view: SubfieldView, a: Elem) -> None:
    if a.is_zero:
        raise ZeroArgument("a must be nonzero")
    if not contains(view, a):
        raise NotInSubfield(f"{a!r} is not in the scan field")


def H_sums(view: SubfieldView, n: int, la):
    """Jacobsthal sums of order n at an array of nonzero a = xi^la of the
    scan field, la their dlogs, by definition: one (len(la), p^2k - 1)
    array of eta(x^(n+1) + a x) over x in GF(p^2k)* (the x = 0 term is
    eta(0) = 0), summed per row.  Returns int64."""
    ctx = view.ctx
    la = np.asarray(la, dtype=np.int64)
    if (la < 0).any():
        raise ZeroArgument("a must be nonzero")
    if (la % view.step).any():
        raise NotInSubfield("an a is not in the scan field")
    x_logs = view.step * np.arange(view.order, dtype=np.int64)
    return view.eta_logs(ctx.sum_logs(*ctx.monomials(((0, n + 1), (la, 1)), x_logs))).sum(axis=1)


def I_sum(view: SubfieldView, n: int, a: Elem) -> int:
    """Companion sum of order n at a (exact integer)."""
    _check_arg(view, a)
    total = 0
    for x in nonzero_elements(view):
        total += eta(view, x ** n + a)
    return total


def mu_sqrt(view: SubfieldView) -> Elem:
    """A fixed square root of mu, the induced generator of GF(p^k)*.

    mu = xi^e with e = (q_ambient - 1)/(p^k - 1); e is always even here,
    so mu^(1/2) = xi^(e/2).  It lies in GF(p^2k) but not in GF(p^k)."""
    kview = view.ctx.subfield(view.degree // 2)
    if kview.step % 2:
        raise InvariantViolation(f"the dlog {kview.step} of mu is odd")
    return view.ctx.from_exp(kview.step // 2)


def decompose_half_basis(view: SubfieldView, a: Elem) -> tuple:
    """Write a = a0 + 2 mu^(1/2) a1 with a0, a1 in GF(p^k).

    The conjugate over GF(p^k) flips the sign of mu^(1/2), so
    a0 = (a + a^(p^k))/2 and a1 = (a - a^(p^k))/(4 mu^(1/2))."""
    if not contains(view, a):
        raise NotInSubfield(f"{a!r} is not in the decomposition field")
    ctx = view.ctx
    pk = ctx.p ** (view.degree // 2)
    conj = a ** pk
    inv2 = ctx.one * pow(2, -1, ctx.p)
    root = mu_sqrt(view)
    a0 = (a + conj) * inv2
    a1 = (a - conj) * inv2 * inv2 / root
    return a0, a1


def curve_point_count(kview: SubfieldView, A: Elem, C: Elem) -> int:
    """Affine points of f^2 = z^3 - A z^2 + C z over GF(p^k).

    Counted as sum_z (1 + zeta(z^3 - A z^2 + C z)) with zeta(0) = 0, so
    a z with vanishing cubic contributes exactly the one point (z, 0)."""
    if C.is_zero:
        raise ZeroC("curve reduction needs C != 0")
    count = 0
    for z in elements(kview):
        w = z * z * z - A * z * z + C * z
        count += 1 + eta(kview, w)
    return count


@dataclass(frozen=True)
class JacobsthalRecord:
    a: Elem
    order_n: int          # p^k + 1
    H: int
    I: int
    I2: int               # I at order 2(p^k+1); equals I + H
    curve_N: int | None   # affine point count, when a is outside GF(p^k)
    bound_ratio: float | None


def jacobsthal_record(view: SubfieldView, a: Elem) -> JacobsthalRecord:
    """H, I, I_{2n} and (off GF(p^k)) the curve count, at order n = p^k+1."""
    _check_arg(view, a)
    pk = view.ctx.p ** (view.degree // 2)
    n = pk + 1
    H = int(H_sums(view, n, [view.ctx.dlog(a)])[0])
    I = I_sum(view, n, a)
    I2 = I_sum(view, 2 * n, a)
    kview = view.ctx.subfield(view.degree // 2)
    curve_N = None
    ratio = None
    if not contains(kview, a):
        a0, a1 = decompose_half_basis(view, a)
        mu = generator(kview)
        curve_N = curve_point_count(kview, a0, mu * a1 * a1)
        ratio = abs(H) / (2 * math.sqrt(pk) * n)
    return JacobsthalRecord(a=a, order_n=n, H=H, I=I, I2=I2,
                            curve_N=curve_N, bound_ratio=ratio)


# --------------------------------------------------------------------------
# walsh: f, one coefficient, and the closed form at one point
# --------------------------------------------------------------------------

def f_value(ctx: FieldCtx, pair: CoeffPair, x: Elem) -> int:
    """f(x) = Tr(a x^d + b x^2), in plain field arithmetic."""
    return ctx.abs_trace(pair.a * x ** ctx.params.d + pair.b * x * x)


def walsh_coeff(ctx: FieldCtx, pair: CoeffPair, y: Elem) -> CycInt:
    """S_f(y), exact in Z[w], from its definition at this one point."""
    shifted = (f_values(ctx, pair) - trace_values(ctx, ((ctx.log(y), 1),))) % ctx.p
    return CycInt.from_counts(ctx.p, np.bincount(shifted, minlength=ctx.p))


@dataclass(frozen=True)
class RootReport:
    y: Elem
    x0: Elem
    coeff: CycInt
    formula_ok: bool
    special_ok: bool | None   # the y^2-in-GF(p^2k) shortcut, when it applies


def theorem1_verify(ctx: FieldCtx, y: Elem, actual: CycInt | None = None) -> RootReport:
    """Root-scan verification of the closed form at one point y, the
    per-point reference of walsh.theorem1_root_scan.

    Scans GF(p^k) for roots of the quartic-trace polynomial, demands
    exactly one (RootCountViolation otherwise), and compares
    -p^2k w^(Tr_k(x0) 4^(-1)) against the brute-force coefficient of the
    pair (1, 1) at y: actual if given, else computed here."""
    p, k = ctx.p, ctx.params.k
    p2k1 = p ** (2 * k) + 1
    kview = ctx.subfield(k)
    y2 = y * y
    ypow = y ** p2k1
    ypow_k = y ** (p ** k * p2k1)
    roots = []
    for x in elements(kview):
        s = y2 + x
        val = (ypow + s ** (p2k1 // 2)
               + ypow_k + s ** (p ** k * p2k1 // 2))
        if val.is_zero:
            roots.append(x)
    if len(roots) != 1:
        raise RootCountViolation(
            f"{len(roots)} roots at y={ctx.format_element(y)}; expected 1")
    x0 = roots[0]
    inv4 = pow(4, -1, p)
    predicted = (-(p ** (2 * k))) * CycInt.omega_power(p, abs_trace(kview, x0) * inv4)
    if actual is None:
        actual = walsh_coeff(ctx, CoeffPair(ctx.one, ctx.one), y)
    special = None
    view2k = ctx.subfield(2 * k)
    if contains(view2k, y2):
        special = x0 == -ctx.rel_trace(y2, k, 2 * k)
    return RootReport(y=y, x0=x0, coeff=actual,
                      formula_ok=predicted == actual, special_ok=special)


# --------------------------------------------------------------------------
# sequences: the m-sequence, decimation and one cross-correlation
# --------------------------------------------------------------------------

def m_sequence(ctx: FieldCtx):
    """s(t) = Tr(xi^t) for t = 0 .. p^n - 2, as an int64 array."""
    return ctx.trace_logs(np.arange(ctx.order, dtype=np.int64))


def decimate(seq, e: int):
    """u(t) = seq(e t); the period drops to period/gcd(e, period)."""
    if e < 1:
        raise ValueError("decimation index must be >= 1")
    period = seq.size
    return seq[e * np.arange(period // math.gcd(e, period)) % period]


def cross_correlation(u, v, tau: int, p: int) -> CycInt:
    """sum_t w^(u(t + tau) - v(t)) over one period of two sequences of
    residues mod p, exact in Z[w]."""
    if u.size != v.size:
        raise PeriodMismatch(f"periods {u.size} != {v.size}")
    return CycInt.from_counts(p, np.bincount((np.roll(u, -tau) - v) % p, minlength=p))


def s0_relation_report(ctx: FieldCtx) -> tuple:
    """Check sequences' pinned relation S_f(0) = 2 C(tau) + 1 at
    (a, b) = (xi^(d tau), -1), at every shift of the decimated pair.

    Returns (shifts, ok): shifts holds one (tau, C(tau) as a CycInt,
    S_f(0) as an int) triple per shift, and ok whether S_f(0) is the
    rational integer 2 C(tau) + 1 at every one."""
    p, d = ctx.p, ctx.params.d
    s = m_sequence(ctx)
    u, v = decimate(s, d), decimate(s, 2)
    minus_one = -ctx.one
    shifts = []
    ok = True
    for tau in range(u.size):
        c = cross_correlation(u, v, tau, p)
        s0 = S0_bruteforce(ctx, CoeffPair(ctx.from_exp(d * tau), minus_one))
        ok = ok and (2 * c + 1) == s0 and s0.is_rational_integer
        shifts.append((tau, c, s0.as_int()))
    return tuple(shifts), ok


# --------------------------------------------------------------------------
# cyclotomy: one class index, one cyclotomic number
# --------------------------------------------------------------------------

def class_index(view: SubfieldView, x: Elem) -> int:
    """t with x in C_t, i.e. log_nu(x) mod (p^k + 1)."""
    if x.is_zero:
        raise ZeroArgument("zero belongs to no cyclotomic class")
    return discrete_log(view, x) % class_count(view)


def cyclotomic_number(view: SubfieldView, i: int, j: int) -> int:
    """Brute-force (i, j): walk C_i and classify x + 1."""
    order = class_count(view)
    if not (0 <= i <= order - 1 and 0 <= j <= order - 1):
        raise IndexOutOfRange(f"indices must lie in 0..{order - 1}")
    one = view.ctx.one
    nu = generator(view)
    base = nu ** i
    step = nu ** order
    count = 0
    x = base
    for _ in range(_pk(view) - 1):
        y = x + one
        if not y.is_zero and class_index(view, y) == j:
            count += 1
        x = x * step
    return count
