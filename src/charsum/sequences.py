"""p-ary m-sequences, decimation, and the cross-correlation view of S_f(0).

The m-sequence of the ambient field is s(t) = Tr(xi^t), period p^n - 1.
Decimating by e keeps every e-th symbol; the exponents d and 2 both
share gcd 2 with the period, so those two decimations have period
(p^n - 1)/2 and the pair (u, v) = (s by d, s by 2) is the sequence pair
behind the exponential sums of this package.

Pinned relation (established empirically against the brute-force
exponential sum at p=3, k=1, then asserted at other sizes): with
u = decimate(s, d), v = decimate(s, 2), P = (p^n - 1)/2 and the
cross-correlation

    C(tau) = sum_{t=0}^{P-1} w^(u(t + tau) - v(t)),

the exponential sum of the pair (a, b) = (xi^(d tau), -1) satisfies

    S_f(0) = 2 C(tau) + 1      for every shift tau = 0 .. P-1.

Sketch of why this exact form: the f-sum splits over x = xi^t into two
half-period runs of w^(s(d t + d tau) + s(2 t + (p^n-1)/2)), the second
trace term being -v(t) because -1 = xi^((p^n-1)/2) and (p^n-1)/2 is
even; the x = 0 term contributes the +1.

The two runs have the same value counts, not just the same sum, so the
counts of Tr(a x^d - x^2) over the field are e_0 + 2 (counts of C(tau)).
correlation_table reads every C(tau), as distinct values and an index,
from one expsum.character_counts transform that way; cross_correlation,
one bincount over one period, is the sequence-side reference of
s0_relation_report.  A sequence is its int64 array of symbols over one
period, the form the transform's traces already take.
"""

from __future__ import annotations

import math

import numpy as np

from .cycint import CycInt
from .errors import ParityViolation, PeriodMismatch
from .expsum import CoeffPair, S0_bruteforce, character_counts
from .field_core import FieldCtx


def m_sequence(ctx: FieldCtx):
    """s(t) = Tr(xi^t) for t = 0 .. p^n - 2, as an int64 array."""
    return ctx.trace_enc_bulk(ctx.exp_enc_bulk(np.arange(ctx.order, dtype=np.int64)))


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


def correlation_table(ctx: FieldCtx) -> tuple:
    """C(tau) = values[index[tau]] of the decimated pair (decimate(s, d),
    decimate(s, 2)) for tau = 0 .. P-1, values in order of first occurrence,
    from the value counts of Tr(a x^d - x^2) at every a = xi^(d tau) in one
    transform.  ParityViolation if a count of the half-period runs is odd."""
    p, d = ctx.p, ctx.params.d
    counts = character_counts(ctx, d, ((ctx.order // 2, 2),))  # v(x) = -x^2, -1 = xi^((q-1)/2)
    taus = np.arange(ctx.order // 2, dtype=np.int64)
    rows, index = CycInt.group_rows(counts, ctx.exp_enc_bulk(d * taus))
    # x = 0 gives the value 0
    runs = rows - np.eye(p, dtype=np.int64)[0]
    odd = np.flatnonzero((runs % 2).any(axis=1))
    if odd.size:
        # the first odd row in order of first occurrence holds the first odd tau
        tau = int(np.argmax(index == odd[0]))
        raise ParityViolation(f"odd value counts {runs[odd[0]].tolist()} at tau = {tau}")
    return tuple(CycInt.from_counts(p, r // 2) for r in runs), index


def s0_relation_report(ctx: FieldCtx) -> tuple:
    """Check the pinned relation at every shift of the decimated pair.

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
