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

The scan reads every a from scan_table: x^(p^k+1) is the norm of x, so
each sum is a weighted sum over GF(p^k)* of one table of eta(t + a)
(I_2n = I_n + H_n too), and each curve count is one bulk pass over
GF(p^k).  Both polynomials in those arrays (t + a and the curve's cubic)
are one FieldCtx.sum_enc_bulk call each.  theorem2_scan keeps scan_table's results as arrays in its
report, with no object per a, and names each a by its dlog in the field
the scan runs in, as every "g^e" label does; prop2 reads H at its
arguments from the same report (expsum.N_via_jacobsthal_bulk), so H has
one route.  The per-a references (H_sums, H by definition at an array of
a, I_sum, the half-basis decomposition, curve_point_count and
jacobsthal_record) are in charsum.reference, which no command imports.

All functions take a SubfieldView of even degree 2k, so they run both
on the 2k-view of the big context and on a standalone GF(p^2k) context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation
from .field_core import SubfieldView, label


def eq1_value(pk: int, eta_a):
    """Closed form of I_{p^k+1}(a) for a outside GF(p^k), from eta(a): an
    int, or an int64 array over many a."""
    return -(pk + 1) * (eta_a + 1)


# --------------------------------------------------------------------------
# the exhaustive bound scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundScanReport:
    """The int64 arrays of scan_table over the a off GF(p^k) (I2 = I + H,
    curve_N the affine point count), and the bound."""

    pk: int
    logs: np.ndarray          # a = xi^log, xi the generator of the scan's field; increasing
    H: np.ndarray
    I: np.ndarray
    I2: np.ndarray
    curve_N: np.ndarray
    max_abs_H: int
    argmax_log: int           # the log of an a maximizing |H|
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

    so one (p^k - 1) x (p^2k - p^k) table of eta gives both, and I_2n(a) =
    n sum_u T(2u mod p^k - 1, a) = I(a) + H(a), as 2u meets each even u
    twice mod p^k - 1.  The curve of a has A = a0 = (a + a^(p^k))/2 and
    C = mu a1^2 = (a - a^(p^k))^2 / 16 (see reference.decompose_half_basis),
    and its affine count is p^k + sum_z zeta(z^3 - A z^2 + C z) over
    z = t_u in GF(p^k)*, with zeta the quadratic character of GF(p^k).

    Returns the int64 arrays (logs, H, I, I2, curve_N) over the a off
    GF(p^k), in increasing logs, the dlogs of the a in the scan's field:
    a = xi^log, with xi the generator of view.ctx."""
    ctx = view.ctx
    pk = ctx.p ** (view.degree // 2)
    n = pk + 1
    kstep = n * view.step  # the dlog step of GF(p^k)* in the ambient field
    logs = np.arange(view.order, dtype=np.int64)
    la = view.step * logs[logs % n != 0]
    u = np.arange(pk - 1, dtype=np.int64)
    # row u: t_u x^0 + x at x = a
    table = view.eta_bulk(ctx.sum_enc_bulk(((kstep * u, 0), (0, 1)), la))
    H = n * ((1 - 2 * (u % 2)) @ table)
    I = n * table.sum(axis=0)

    # the curve of each a (rows) at each z = t_u (columns): z^3 - A z^2 + C z
    # as terms c a^s z^e, A and C expanded, each c in GF(p) encoded by its residue
    half, sixteenth = pow(2, -1, ctx.p), pow(16, -1, ctx.p)
    terms = ((1, 0, 3), (-half, 1, 2), (-half, pk, 2), (sixteenth, 2, 1),
             (-2 * sixteenth, pk + 1, 1), (sixteenth, 2 * pk, 1))
    c_logs = ctx.log_enc_bulk(np.array([c for c, _, _ in terms]) % ctx.p)
    w = ctx.sum_enc_bulk(tuple((lc + s * la, e) for lc, (_, s, e) in zip(c_logs, terms)),
                         kstep * u)
    curve_N = pk + ctx.subfield(view.degree // 2).eta_bulk(w).sum(axis=1)
    return la, H, I, I + H, curve_N


def theorem2_scan(view: SubfieldView) -> BoundScanReport:
    """Check |H_{p^k+1}(a)| <= 2 p^(k/2) (p^k+1) for every a off GF(p^k),
    from scan_table, whose arrays the report keeps.

    The comparison is exact: H^2 <= 4 p^k (p^k+1)^2.  A violation would
    falsify the bound and raises BoundViolation at the first such a."""
    pk = view.ctx.p ** (view.degree // 2)
    bound_sq = 4 * pk * (pk + 1) ** 2
    logs, H, I, I2, curve_N = scan_table(view)
    over = np.flatnonzero(H * H > bound_sq)
    if over.size:
        i = over[0]
        raise BoundViolation(f"|H({label(logs[i])})| = {abs(H[i])} exceeds the bound")
    best = int(np.argmax(np.abs(H)))
    return BoundScanReport(
        pk=pk, logs=logs, H=H, I=I, I2=I2, curve_N=curve_N,
        max_abs_H=abs(int(H[best])),
        argmax_log=int(logs[best]),
        bound_sq=bound_sq,
        attained=bool((H * H == bound_sq).any()),
    )
