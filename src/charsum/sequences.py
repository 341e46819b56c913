"""The cross-correlation view of S_f(0): the decimated m-sequence pair.

The m-sequence of the ambient field is s(t) = Tr(xi^t), period p^n - 1.
Decimating by e keeps every e-th symbol; the exponents d and 2 both
share gcd 2 with the period, so those two decimations have period
(p^n - 1)/2 and the pair (u, v) = (s by d, s by 2) is the sequence pair
behind the exponential sums of this package.

Pinned relation (established empirically against the brute-force
exponential sum at p=3, k=1, then asserted at other sizes): with
P = (p^n - 1)/2 and the cross-correlation

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
from one expsum.character_counts transform that way.  The sequence side
(the m-sequence, decimation, one C(tau) by one bincount over a period,
and the check of the relation at every shift) is its reference, in
charsum.reference, which no command imports.
"""

from __future__ import annotations

import numpy as np

from .cycint import CycInt
from .errors import ParityViolation
# S0_bruteforce is not called here: perfbench's test_install_rebinds_every_namespace probes it
from .expsum import S0_bruteforce, character_counts
from .field_core import FieldCtx


def correlation_table(ctx: FieldCtx) -> tuple:
    """C(tau) = values[index[tau]] of the decimated pair (u, v) for tau =
    0 .. P-1, values in order of first occurrence, from the value counts of
    Tr(a x^d - x^2) at every a = xi^(d tau) in one transform.
    ParityViolation if a count of the half-period runs is odd."""
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
