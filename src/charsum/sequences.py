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
a loop over one period, is the sequence-side reference of s0_relation_report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .errors import ParityViolation, PeriodMismatch
from .expsum import CoeffPair, S0_bruteforce, character_counts
from .field_core import FieldCtx


@dataclass(frozen=True)
class PSequence:
    """A periodic sequence of residues mod p."""

    p: int
    symbols: tuple
    origin: str

    @property
    def period(self) -> int:
        return len(self.symbols)

    def __getitem__(self, t: int) -> int:
        return self.symbols[t % len(self.symbols)]

    def dump(self) -> str:
        return ",".join(str(v) for v in self.symbols)


def m_sequence(ctx: FieldCtx) -> PSequence:
    """s(t) = Tr(xi^t) for t = 0 .. p^n - 2."""
    logs = np.arange(ctx.order, dtype=np.int64)
    symbols = tuple(int(v) for v in ctx.trace_enc_bulk(ctx.exp_enc_bulk(logs)))
    return PSequence(p=ctx.p, symbols=symbols, origin="trace m-sequence")


def decimate(seq: PSequence, e: int) -> PSequence:
    """u(t) = s(e t); the period drops to period/gcd(e, period)."""
    if e < 1:
        raise ValueError("decimation index must be >= 1")
    new_period = seq.period // math.gcd(e, seq.period)
    symbols = tuple(seq[(e * t) % seq.period] for t in range(new_period))
    return PSequence(p=seq.p, symbols=symbols,
                     origin=f"{seq.origin} / decimation {e}")


def cross_correlation(u: PSequence, v: PSequence, tau: int) -> CycInt:
    """sum_t w^(u(t + tau) - v(t)) over one period, exact in Z[w]."""
    if u.period != v.period:
        raise PeriodMismatch(f"periods {u.period} != {v.period}")
    p = u.p
    counts = [0] * p
    for t in range(u.period):
        counts[(u[t + tau] - v[t]) % p] += 1
    return CycInt.from_counts(p, counts)


def correlation_table(ctx: FieldCtx) -> tuple:
    """C(tau) = values[index[tau]] of the decimated pair (decimate(s, d),
    decimate(s, 2)) for tau = 0 .. P-1, values in order of first occurrence,
    from the value counts of Tr(a x^d - x^2) at every a = xi^(d tau) in one
    transform.  ParityViolation if a count of the half-period runs is odd."""
    p, d = ctx.p, ctx.params.d
    counts = character_counts(ctx, ((ctx.one, d),), ((-ctx.one, 2),))
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


@dataclass(frozen=True)
class RelationReport:
    """Per-shift record of the pinned S_f(0) = 2 C(tau) + 1 relation."""

    shifts: tuple        # (tau, correlation CycInt, S0 int) triples
    ok: bool


def s0_relation_report(ctx: FieldCtx) -> RelationReport:
    """Check the pinned relation at every shift of the decimated pair."""
    d = ctx.params.d
    s = m_sequence(ctx)
    u = decimate(s, d)
    v = decimate(s, 2)
    minus_one = -ctx.one
    rows = []
    ok = True
    for tau in range(u.period):
        c = cross_correlation(u, v, tau)
        a = ctx.from_exp(d * tau)
        s0 = S0_bruteforce(ctx, CoeffPair(a, minus_one))
        match = (2 * c + 1) == s0
        ok = ok and match and s0.is_rational_integer
        rows.append((tau, c, s0.as_int()))
    return RelationReport(shifts=tuple(rows), ok=ok)
