"""Exact Walsh spectra in Z[w] and the closed-form spectrum of the
coefficient pair (1, 1).

For f mapping GF(p^n) to GF(p), the transform at y is

    S_f(y) = sum_x w^(f(x) - Tr(y x)),

computed exactly as a cyclotomic integer.  full_spectrum takes the pair
(a, b) = (xi^la, xi^lb) by its dlogs (-1 for zero) and reads every
coefficient from one expsum.character_counts transform, with
S_f(y) = sum_x w^(f(x) + Tr(a x)) at a = -y.  Rows sum to p^n, so equal
coefficients have equal rows: one CycInt per row of CycInt.group_rows and
an index per y suffice.  f is bent when every coefficient satisfies
|S_f(y)|^2 = p^n, and weakly regular with unit -1 when additionally every
coefficient lies in {-p^(n/2) w^j}.

For the pair (1, 1) the spectrum has a closed form: S_f(y) equals
-p^2k w^(Tr_k(x0)/4), where x0 is the unique root in GF(p^k) of

    y^(p^2k+1) + (y^2 + X)^((p^2k+1)/2)
      + y^(p^k (p^2k+1)) + (y^2 + X)^(p^k (p^2k+1)/2)  =  W + W^(p^k),

with W = y^(p^2k+1) + (y^2 + X)^((p^2k+1)/2) (Frobenius is additive),
the division by 4 meaning multiplication by 4^(-1) mod p.  When
y^2 lies in GF(p^2k) the root is simply -Tr(y^2) relative to GF(p^k).
theorem1_root_scan finds x0 at every y at once: it names y = xi^l by its
dlog l and steps X through the encodings of GF(p^k), evaluating
W + W^(p^k) at all q values of y per step with the bulk field
operations, so its temporaries are O(q) encodings.
theorem1_spectrum_check returns the (1, 1) spectrum or raises at the
first failed condition: the root count, each root's j against
Spectrum.closed_j (the one match of each distinct coefficient with
closed_form, -p^2k w^j), the special case, the integer counts of
closed_j (-p^2k w^i occurs p^(2k-1)(p^2k+1) times for i != 0, and -p^2k
(p^(2k-1)-1)(p^2k+1) + 1 times) and bentness.

The per-point references (f_value, walsh_coeff and theorem1_verify) are
in charsum.reference, which no command imports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .errors import ParsevalViolation, RootCountViolation, SpectrumViolation
from .expsum import _require_admissible, character_counts
from .field_core import FieldCtx, label


def closed_form(p: int, k: int) -> tuple:
    """The p values -p^2k w^j, j = 0..p-1: the weakly regular
    coefficients with unit -1 of GF(p^4k), and the closed form of the
    (1, 1) spectrum."""
    return tuple((-p ** (2 * k)) * CycInt.omega_power(p, j) for j in range(p))


@dataclass(frozen=True)
class Spectrum:
    """All p^n Walsh coefficients of f(x) = Tr(a x^d + b x^2) for one pair
    (a, b): S_f(y) = values[index[i]][0] for y = 0 at i = 0 and y =
    xi^(i-1) after.  values holds (S, |S|^2) per distinct coefficient S,
    and summary, for display only, counts them by canonical rendering,
    both in order of first occurrence."""

    values: tuple
    index: np.ndarray
    closed_j: np.ndarray      # per S in values, the j with S = -p^(n/2) w^j, or -1
    summary: dict
    parseval: int             # sum of |S|^2, must be p^(2n)
    bent: bool                # every |S|^2 is p^n
    weakly_regular_neg: bool  # every S is in {-p^(n/2) w^j : j = 0..p-1}


def full_spectrum(ctx: FieldCtx, la: int, lb: int) -> Spectrum:
    """Every coefficient at (a, b) = (xi^la, xi^lb), the value-multiset
    summary, exact Parseval (ParsevalViolation on a defect), bentness and
    weak regularity.  BothCoefficientsZero at (0, 0)."""
    _require_admissible(la, lb)
    p, q = ctx.p, ctx.q
    # the row of y = xi^j is the row of a = -y, encoded as xi^(j + (q-1)/2)
    rows, index = CycInt.group_rows(
        character_counts(ctx, 1, ((la, ctx.params.d), (lb, 2))),
        np.concatenate(([0], ctx.exp_enc_bulk(np.arange(ctx.order) + ctx.order // 2))))
    coeffs = [CycInt.from_counts(p, row) for row in rows]
    values = tuple((c, c.norm_squared()) for c in coeffs)
    multiplicity = np.bincount(index).tolist()
    total = sum((n * m for (_, n), m in zip(values, multiplicity)),
                CycInt.zero(p)).as_int()  # raises NotRationalInteger on defect
    if total != q ** 2:
        raise ParsevalViolation(f"Parseval defect: {total} != {q ** 2}")
    forms = closed_form(p, ctx.params.k)
    closed_j = np.array([next((j for j, f in enumerate(forms) if c == f), -1) for c in coeffs])
    return Spectrum(
        values=values, index=index, closed_j=closed_j,
        summary={str(c): m for (c, _), m in zip(values, multiplicity)},
        parseval=total,
        bent=all(n == q for _, n in values),
        weakly_regular_neg=bool((closed_j >= 0).all()))


# --------------------------------------------------------------------------
# the closed-form spectrum of the pair (1, 1)
# --------------------------------------------------------------------------

def _root_polynomial(ctx: FieldCtx, y2, ypow, x: int):
    """The quartic-trace polynomial W + W^(p^k) at X = x (an encoding) for
    every y, from the encoding arrays y2 = y^2 and ypow = y^(p^2k+1)."""
    p2k1 = ctx.p ** (2 * ctx.params.k) + 1
    w = ctx.add_enc_bulk(ypow, ctx.pow_enc_bulk(ctx.add_enc_bulk(y2, x), p2k1 // 2))
    return ctx.add_enc_bulk(w, ctx.pow_enc_bulk(w, ctx.p ** ctx.params.k))


def theorem1_root_scan(ctx: FieldCtx) -> np.ndarray:
    """The encoding of the unique root x0 in GF(p^k) at every y, indexed
    like Spectrum.index (y = 0, xi^0, xi^1, ...).

    y = xi^l is named by its dlog l, so y^2 and y^(p^2k+1) are exp
    gathers; one step per x in GF(p^k), 0 and then xi^(j step), evaluates
    the root polynomial at all q values of y.  RootCountViolation unless
    every y has exactly one root."""
    l = np.arange(ctx.order, dtype=np.int64)
    y2, ypow = (np.concatenate(([0], ctx.exp_enc_bulk(e * l)))
                for e in (2, ctx.p ** (2 * ctx.params.k) + 1))
    roots = np.zeros(ctx.q, dtype=np.int64)
    x0 = np.zeros(ctx.q, dtype=np.int64)
    kview = ctx.subfield(ctx.params.k)
    for x in [0] + ctx.exp_enc_bulk(kview.step * np.arange(kview.order)).tolist():
        hit = _root_polynomial(ctx, y2, ypow, x) == 0
        roots += hit
        x0[hit] = x
    bad = np.flatnonzero(roots != 1)
    if bad.size:
        raise RootCountViolation(f"{roots[bad[0]]} roots at y={label(bad[0] - 1)}; expected 1")
    return x0


def theorem1_spectrum_check(ctx: FieldCtx) -> Spectrum:
    """The spectrum of the pair (1, 1), once Theorem 1 holds at every y.

    Raises at the first failed condition, in this order: one root x0 per
    y (RootCountViolation, from theorem1_root_scan); then, through
    SpectrumViolation, the formula S_f(y) = -p^2k w^(Tr_k(x0)/4), the
    special case x0 = -Tr(y^2) to GF(p^k) where y^2 lies in GF(p^2k), the
    value counts and bentness (CycInt.norm_squared of each value)."""
    p, k = ctx.p, ctx.params.k
    p2k = p ** (2 * k)
    spectrum = full_spectrum(ctx, 0, 0)
    x0 = theorem1_root_scan(ctx)
    j = spectrum.closed_j[spectrum.index]  # per y: S_f(y) = -p^2k w^j, or -1

    def fail(name, i, detail):
        return SpectrumViolation(f"{name} failed at y={label(i - 1)}: S_f(y) = "
                                 f"{spectrum.values[spectrum.index[i]][0]}, {detail}")

    # Tr_k(x0)/4 = Tr(x0)/16, since Tr = 4 Tr_k on GF(p^k)
    want = ctx.trace_enc_bulk(x0) * pow(16, -1, p) % p
    bad = np.flatnonzero(j != want)
    if bad.size:
        raise fail("formula", bad[0], f"closed form {closed_form(p, k)[want[bad[0]]]}")
    # y = 0, and y = xi^l with y^2 in GF(p^2k), i.e. (p^2k + 1) | 2l
    l = np.flatnonzero(2 * np.arange(ctx.order) % (p2k + 1) == 0)
    at = np.concatenate(([0], l + 1))
    rel_trace = np.concatenate(([0], ctx.sum_enc_bulk(((0, 2), (0, 2 * p ** k)), l)))
    bad = at[ctx.add_enc_bulk(x0[at], rel_trace) != 0]
    if bad.size:
        x = ctx.format_element(ctx.from_enc(int(x0[bad[0]])))
        raise fail("special case", bad[0], f"x0 = {x} is not -Tr(y^2)")
    # -p^2k occurs p^2k times fewer than each -p^2k w^i, i != 0
    counts = np.bincount(j, minlength=p)
    expected = p ** (2 * k - 1) * (p2k + 1) - p2k * (np.arange(p) == 0)
    bad = np.flatnonzero(counts != expected)
    if bad.size:
        i = bad[0]
        raise SpectrumViolation(f"counts failed: -p^2k w^{i} occurs {counts[i]} times, "
                                f"expected {expected[i]}")
    # the formula puts every S_f(y) among the -p^2k w^j, so it is weakly regular
    bad = np.flatnonzero(np.array([n != ctx.q for _, n in spectrum.values])[spectrum.index])
    if bad.size:
        raise fail("bent", bad[0], f"|S_f(y)|^2 = {spectrum.values[spectrum.index[bad[0]]][1]}")
    return spectrum
