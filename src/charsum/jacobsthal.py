"""Jacobsthal sums over GF(p^2k) and their elliptic-curve reduction.

For the quadratic character eta of GF(p^2k) (eta(0) = 0):

    H_n(a) = sum_{x in GF(p^2k)}  eta(x^(n+1) + a x)
    I_n(a) = sum_{x != 0}         eta(x^n + a)

linked by I_2n(a) = I_n(a) + H_n(a).  At order n = p^k + 1 and
a outside GF(p^k) the companion sum collapses to the closed form

    I_{p^k+1}(a) = -(p^k + 1)(eta(a) + 1)

and H factors through an elliptic curve: writing a = a0 + 2 mu^(1/2) a1
over the half basis (mu the induced generator of GF(p^k)*),

    H_{p^k+1}(a) / (p^k + 1) = N - p^k,

with N the number of affine points of f^2 = z^3 - A z^2 + C z over
GF(p^k), A = a0, C = mu a1^2.  The Hasse bound on N yields

    |H_{p^k+1}(a)| <= 2 p^(k/2) (p^k + 1),

which theorem2_scan checks exhaustively (in exact integer arithmetic,
comparing H^2 against 4 p^k (p^k+1)^2).

H_sums evaluates H by definition at an array of a, one row of eta
values per a.  The scan reads every a from scan_table instead:
x^(p^k+1) is the norm of x, so each sum is a weighted sum over GF(p^k)*
of one table of eta(t + a), and each curve count is one bulk pass over
GF(p^k).  Every polynomial in those arrays (x^(n+1) + a x, t + a and the
curve's cubic) is one FieldCtx.sum_enc_bulk call.  The per-a references
(I_sum, the half-basis decomposition, curve_point_count and
jacobsthal_record) are in charsum.reference, which no command imports.

All functions take a SubfieldView of even degree 2k, so they run both
on the 2k-view of the big context and on a standalone GF(p^2k) context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, NotInSubfield, ZeroArgument
from .field_core import Elem, SubfieldView


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


def eq1_value(pk: int, eta_a: int) -> int:
    """Closed form of I_{p^k+1}(a) for a outside GF(p^k)."""
    return -(pk + 1) * (eta_a + 1)


# --------------------------------------------------------------------------
# records and the exhaustive bound scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobsthalRecord:
    a: Elem
    order_n: int          # p^k + 1
    H: int
    I: int
    I2: int               # I at order 2(p^k+1); equals I + H
    curve_N: int | None   # affine point count, when a is outside GF(p^k)
    bound_ratio: float | None

    def to_json_dict(self, view: SubfieldView) -> dict:
        return {
            "a": f"g^{view.discrete_log(self.a)}",
            "H": self.H,
            "I": self.I,
            "I2": self.I2,
            "curve_N": self.curve_N,
            "bound_ratio": self.bound_ratio,
        }


@dataclass(frozen=True)
class BoundScanReport:
    pk: int
    records: tuple            # JacobsthalRecord per a outside GF(p^k), dlog order
    max_abs_H: int
    argmax_log: int           # discrete log of a maximizing |H|
    bound_sq: int             # 4 p^k (p^k+1)^2
    attained: bool            # H^2 == bound_sq for some a (k even only)

    @property
    def max_ratio(self) -> float:
        return math.sqrt(self.max_abs_H ** 2 / self.bound_sq)


def scan_table(view: SubfieldView):
    """H, I and I_2n at order n = p^k + 1, and the curve count, at every a
    off GF(p^k) at once.

    x^n = Norm(x) lies in GF(p^k)*.  With nu the generator of GF(p^2k)*
    and t_u = nu^(n u), u < p^k - 1, the x = nu^s with x^n = t_u are the
    n values s = u mod p^k - 1, all of the parity of u.  As
    eta(x^(n+1) + a x) = eta(x) eta(x^n + a), with T(u, a) = eta(t_u + a):

        H(a) = n sum_u (-1)^u T(u, a),   I(a) = n sum_u T(u, a),
        I_2n(a) = n sum_u T(2u mod p^k - 1, a),

    so one (p^k - 1) x (p^2k - p^k) table of eta gives all three.  The
    curve of a has A = a0 = (a + a^(p^k))/2 and C = mu a1^2 =
    (a - a^(p^k))^2 / 16 (see reference.decompose_half_basis), and its affine count
    is p^k + sum_z zeta(z^3 - A z^2 + C z) over z = t_u in GF(p^k)*, with
    zeta the quadratic character of GF(p^k).

    Returns the int64 arrays (logs, H, I, I2, curve_N) over the a off
    GF(p^k), in increasing logs, their dlogs to the generator of view."""
    ctx = view.ctx
    pk = ctx.p ** (view.degree // 2)
    n = pk + 1
    kstep = n * view.step  # the dlog step of GF(p^k)* in the ambient field
    logs = np.arange(view.order, dtype=np.int64)
    logs = logs[logs % n != 0]
    la = view.step * logs
    u = np.arange(pk - 1, dtype=np.int64)
    # row u: t_u x^0 + x at x = a
    table = view.eta_bulk(ctx.sum_enc_bulk(((kstep * u, 0), (0, 1)), la))
    H = n * ((1 - 2 * (u % 2)) @ table)
    I = n * table.sum(axis=0)
    I2 = n * table[2 * u % (pk - 1)].sum(axis=0)

    # the curve of each a (rows) at each z = t_u (columns): z^3 - A z^2 + C z
    # as a sum of terms c a^s z^e, with A and C expanded
    half, sixteenth = ctx.one / 2, ctx.one / 16
    w = ctx.sum_enc_bulk(tuple((ctx.dlog(c) + s * la, e) for c, s, e in (
        (ctx.one, 0, 3), (-half, 1, 2), (-half, pk, 2), (sixteenth, 2, 1),
        (-2 * sixteenth, pk + 1, 1), (sixteenth, 2 * pk, 1))), kstep * u)
    curve_N = pk + ctx.subfield(view.degree // 2).eta_bulk(w).sum(axis=1)
    return logs, H, I, I2, curve_N


def theorem2_scan(view: SubfieldView) -> BoundScanReport:
    """Check |H_{p^k+1}(a)| <= 2 p^(k/2) (p^k+1) for every a off GF(p^k),
    from scan_table.

    The comparison is exact: H^2 <= 4 p^k (p^k+1)^2.  A violation would
    falsify the bound and raises BoundViolation at the first such a."""
    ctx = view.ctx
    pk = ctx.p ** (view.degree // 2)
    n = pk + 1
    bound_sq = 4 * pk * n ** 2
    logs, H, I, I2, curve_N = scan_table(view)
    a = [ctx.from_enc(e) for e in ctx.exp_enc_bulk(view.step * logs).tolist()]
    over = np.flatnonzero(H * H > bound_sq)
    if over.size:
        i = over[0]
        raise BoundViolation(f"|H({a[i]!r})| = {abs(H[i])} exceeds the bound")
    records = tuple(
        JacobsthalRecord(a=x, order_n=n, H=h, I=i, I2=i2, curve_N=c,
                         bound_ratio=abs(h) / (2 * math.sqrt(pk) * n))
        for x, h, i, i2, c in zip(a, H.tolist(), I.tolist(), I2.tolist(), curve_N.tolist()))
    best = int(np.argmax(np.abs(H)))
    return BoundScanReport(
        pk=pk,
        records=records,
        max_abs_H=abs(int(H[best])),
        argmax_log=int(logs[best]),
        bound_sq=bound_sq,
        attained=bool((H * H == bound_sq).any()),
    )
