"""Per-pair and per-point references: each quantity by its definition,
one element at a time.  No command imports this module; each public
function cross-checks a batched route in the tests: the zero sets of L
and F against expsum.prop1_kernel_check, find_g against expsum.g_logs,
H_sums (H by definition at an array of a) against jacobsthal.scan_table,
where prop2 reads H too, the per-a Jacobsthal sums and curve counts (a
JacobsthalRecord) against scan_table and the rows of jacobsthal-scan,
the Walsh coefficient and the (1, 1) closed form at one y against
walsh.full_spectrum and theorem1_root_scan, and the cyclotomic numbers
against cyclotomy.full_table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .cyclotomy import _pk, class_count
from .errors import (CaseViolation, IndexOutOfRange, InvariantViolation, NoSolution,
                     NotInSubfield, RootCountViolation, WrongCase, ZeroArgument, ZeroC)
from .expsum import CoeffPair, _L_terms, _require_jacobsthal, f_values, trace_values
from .field_core import Elem, FieldCtx, SubfieldView


# --------------------------------------------------------------------------
# expsum: zero sets over the field, and g
# --------------------------------------------------------------------------

def _zero_set(ctx: FieldCtx, terms) -> list:
    """Zeros of the sum in GF(p^n): 0 first, then the rest by dlog."""
    logs = np.arange(ctx.order, dtype=np.int64)
    zero_logs = logs[ctx.sum_enc_bulk([(ctx.log(c), e) for c, e in terms], logs) == 0]
    return [ctx.zero] + [ctx.from_enc(int(e)) for e in ctx.exp_enc_bulk(zero_logs)]


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
    e = view.discrete_log(target)  # raises NotInSubfield if out of case
    if e % (pk - 1):
        raise NoSolution("target is not a (p^k-1)-th power")
    t = (e // (pk - 1)) % (pk + 1)
    g = view.generator ** t
    if g ** (pk - 1) != target:
        raise CaseViolation(f"g^(p^k-1) != -b^(p^3k)/a at a={ctx.format_element(pair.a)}, "
                            f"b={ctx.format_element(pair.b)}")
    return g


# --------------------------------------------------------------------------
# jacobsthal: the companion sum, the half basis and the curve, per a
# --------------------------------------------------------------------------

def _check_arg(view: SubfieldView, a: Elem) -> None:
    if a.is_zero:
        raise ZeroArgument("a must be nonzero")
    if not view.contains(a):
        raise NotInSubfield(f"{a!r} is not in the scan field")


def H_sums(view: SubfieldView, n: int, a_encs):
    """Jacobsthal sums of order n at an array of nonzero encodings of the
    scan field, by definition: one (len(a_encs), p^2k - 1) array of
    eta(x^(n+1) + a x) over x in GF(p^2k)* (the x = 0 term is eta(0) = 0),
    summed per row.  Returns int64."""
    ctx = view.ctx
    a_encs = np.asarray(a_encs, dtype=np.int64)
    if (a_encs == 0).any():
        raise ZeroArgument("a must be nonzero")
    la = ctx.log_enc_bulk(a_encs)
    if (la % view.step).any():
        raise NotInSubfield("an a is not in the scan field")
    x_logs = view.step * np.arange(view.order, dtype=np.int64)
    return view.eta_bulk(ctx.sum_enc_bulk(((0, n + 1), (la, 1)), x_logs)).sum(axis=1)


def I_sum(view: SubfieldView, n: int, a: Elem) -> int:
    """Companion sum of order n at a (exact integer)."""
    _check_arg(view, a)
    total = 0
    for x in view.nonzero_elements():
        total += view.eta(x ** n + a)
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
    if not view.contains(a):
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
    for z in kview.elements():
        w = z * z * z - A * z * z + C * z
        count += 1 + kview.eta(w)
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
    H = int(H_sums(view, n, [a.enc])[0])
    I = I_sum(view, n, a)
    I2 = I_sum(view, 2 * n, a)
    kview = view.ctx.subfield(view.degree // 2)
    curve_N = None
    ratio = None
    if not kview.contains(a):
        a0, a1 = decompose_half_basis(view, a)
        mu = kview.generator
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
    for x in kview.elements():
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
    predicted = (-(p ** (2 * k))) * CycInt.omega_power(p, kview.abs_trace(x0) * inv4)
    if actual is None:
        actual = walsh_coeff(ctx, CoeffPair(ctx.one, ctx.one), y)
    special = None
    view2k = ctx.subfield(2 * k)
    if view2k.contains(y2):
        special = x0 == -ctx.rel_trace(y2, k, 2 * k)
    return RootReport(y=y, x0=x0, coeff=actual,
                      formula_ok=predicted == actual, special_ok=special)


# --------------------------------------------------------------------------
# cyclotomy: one class index, one cyclotomic number
# --------------------------------------------------------------------------

def class_index(view: SubfieldView, x: Elem) -> int:
    """t with x in C_t, i.e. log_nu(x) mod (p^k + 1)."""
    if x.is_zero:
        raise ZeroArgument("zero belongs to no cyclotomic class")
    return view.discrete_log(x) % class_count(view)


def cyclotomic_number(view: SubfieldView, i: int, j: int) -> int:
    """Brute-force (i, j): walk C_i and classify x + 1."""
    order = class_count(view)
    if not (0 <= i <= order - 1 and 0 <= j <= order - 1):
        raise IndexOutOfRange(f"indices must lie in 0..{order - 1}")
    one = view.ctx.one
    base = view.generator ** i
    step = view.generator ** order
    count = 0
    x = base
    for _ in range(_pk(view) - 1):
        y = x + one
        if not y.is_zero and class_index(view, y) == j:
            count += 1
        x = x * step
    return count
