"""Exact Walsh spectra in Z[w] and the closed-form spectrum of the
coefficient pair (1, 1).

For f mapping GF(p^n) to GF(p), the transform at y is

    S_f(y) = sum_x w^(f(x) - Tr(y x)),

computed exactly as a cyclotomic integer.  full_spectrum reads every
coefficient from one expsum.character_counts transform, with
S_f(y) = sum_x w^(f(x) + Tr(y (-x))), and keeps that (q, p) count array.
Rows sum to p^n, so equal coefficients have equal rows and one CycInt per
distinct row suffices.  f is bent when every coefficient satisfies
|S_f(y)|^2 = p^n, and weakly regular with unit -1 when additionally every
coefficient lies in {-p^(n/2) w^j}.

For the pair (1, 1) the spectrum has a closed form: S_f(y) equals
-p^2k w^(Tr_k(x0)/4), where x0 is the unique root in GF(p^k) of

    y^(p^2k+1) + (y^2 + X)^((p^2k+1)/2)
      + y^(p^k (p^2k+1)) + (y^2 + X)^(p^k (p^2k+1)/2),

the division by 4 meaning multiplication by 4^(-1) mod p.  When
y^2 lies in GF(p^2k) the root is simply -Tr(y^2) relative to GF(p^k).
theorem1_root_scan checks all of this for every y at once: it steps X
through GF(p^k) and evaluates the polynomial at all q values of y per
step with the bulk field operations (FieldCtx.add_enc_bulk and
pow_enc_bulk), so its temporaries are O(q) encodings, and compares count
rows.  theorem1_spectrum_check adds the value-multiset against the
closed-form counts: -p^2k w^i occurs p^(2k-1)(p^2k+1) times for i != 0,
and -p^2k occurs (p^(2k-1)-1)(p^2k+1) + 1 times.

The per-point references (f_value, walsh_coeff and theorem1_verify) are
in charsum.reference, which no command imports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .errors import ParsevalViolation, RootCountViolation
from .expsum import CoeffPair, character_counts, sweep_order
from .field_core import Elem, FieldCtx


@dataclass(frozen=True)
class Spectrum:
    """All p^n Walsh coefficients of f(x) = Tr(a x^d + b x^2), (a, b) =
    pair, as value counts: counts[i, j] = #{x : f(x) - Tr(y x) = j} for
    y = 0 at i = 0 and y = xi^(i-1) after.  values maps each distinct row (a tuple) to
    (S_f(y), |S_f(y)|^2); summary counts the coefficients by their
    canonical rendering, in order of first occurrence."""

    ctx: FieldCtx
    pair: CoeffPair
    counts: np.ndarray
    values: dict
    summary: dict
    parseval: int             # sum of |S|^2, must be p^(2n)
    bent: bool                # every |S|^2 is p^n
    weakly_regular_neg: bool  # every S is in {-p^(n/2) w^j : j = 0..p-1}

    def coefficient(self, y: Elem) -> CycInt:
        row = self.counts[0 if y.is_zero else 1 + self.ctx.dlog(y)]
        return self.values[tuple(row)][0]


def full_spectrum(ctx: FieldCtx, pair: CoeffPair) -> Spectrum:
    """Every coefficient, the value-multiset summary, exact Parseval
    (ParsevalViolation on a defect), bentness and weak regularity."""
    p, q = ctx.p, ctx.q
    counts = character_counts(ctx, ((-ctx.one, 1),),
                              ((pair.a, ctx.params.d), (pair.b, 2)))[sweep_order(ctx)]
    multiplicity = Counter(map(tuple, counts))
    coeffs = {row: CycInt.from_counts(p, row) for row in multiplicity}
    values = {row: (c, c.norm_squared()) for row, c in coeffs.items()}
    total = sum((n * multiplicity[row] for row, (_, n) in values.items()),
                CycInt.zero(p)).as_int()  # raises NotRationalInteger on defect
    if total != q ** 2:
        raise ParsevalViolation(f"Parseval defect: {total} != {q ** 2}")
    root = p ** (2 * ctx.params.k)  # p^(n/2), n = 4k
    allowed = {(-root) * CycInt.omega_power(p, j) for j in range(p)}
    return Spectrum(
        ctx=ctx, pair=pair, counts=counts, values=values,
        summary={str(c): multiplicity[row] for row, (c, _) in values.items()},
        parseval=total,
        bent=all(n == q for _, n in values.values()),
        weakly_regular_neg=all(c in allowed for c, _ in values.values()))


# --------------------------------------------------------------------------
# the closed-form spectrum of the pair (1, 1)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RootScan:
    """The closed form of the (1, 1) spectrum at every y; the arrays are
    indexed like the rows of Spectrum.counts (y = 0, xi^0, xi^1, ...)."""

    x0: np.ndarray          # encoding of the unique root in GF(p^k)
    formula_ok: np.ndarray  # -p^2k w^(Tr_k(x0) 4^(-1)) equals S_f(y)
    special: np.ndarray     # y^2 lies in GF(p^2k)
    special_ok: np.ndarray  # x0 = -Tr(y^2) to GF(p^k); meaningful where special
    roots_checked: int      # the number of y with exactly one root


def _root_polynomial(ctx: FieldCtx, y2, ypow, ypow_k, x: Elem):
    """The quartic-trace polynomial at X = x for every y (encoding arrays)."""
    p2k1 = ctx.p ** (2 * ctx.params.k) + 1
    pk = ctx.p ** ctx.params.k
    s = ctx.add_enc_bulk(y2, x.enc)
    return ctx.add_enc_bulk(ctx.add_enc_bulk(ypow, ctx.pow_enc_bulk(s, p2k1 // 2)),
                            ctx.add_enc_bulk(ypow_k, ctx.pow_enc_bulk(s, pk * p2k1 // 2)))


def theorem1_root_scan(ctx: FieldCtx, spectrum: Spectrum) -> RootScan:
    """The closed form at every y at once, against the count rows of
    spectrum, the spectrum of the pair (1, 1).

    One step per x in GF(p^k) evaluates the root polynomial at all q
    values of y; RootCountViolation unless every y has exactly one root."""
    p, k = ctx.p, ctx.params.k
    pk, p2k = p ** k, p ** (2 * k)
    kview = ctx.subfield(k)
    inv4 = pow(4, -1, p)
    ys = sweep_order(ctx)
    y2 = ctx.pow_enc_bulk(ys, 2)
    ypow = ctx.pow_enc_bulk(ys, p2k + 1)
    ypow_k = ctx.pow_enc_bulk(ys, pk * (p2k + 1))
    roots = np.zeros(len(ys), dtype=np.int64)
    x0 = np.zeros(len(ys), dtype=np.int64)
    w_exp = np.zeros(len(ys), dtype=np.int64)  # Tr_k(x0) 4^(-1) mod p
    for x in kview.elements():
        hit = _root_polynomial(ctx, y2, ypow, ypow_k, x) == 0
        roots += hit
        x0[hit] = x.enc
        w_exp[hit] = kview.abs_trace(x) * inv4 % p
    bad = np.flatnonzero(roots != 1)
    if len(bad):
        y = ctx.from_enc(int(ys[bad[0]]))
        raise RootCountViolation(
            f"{roots[bad[0]]} roots at y={ctx.format_element(y)}; expected 1")
    # -p^2k w^j is the row with C - p^2k at j and C = (q + p^2k)/p elsewhere
    predicted = (ctx.q + p2k) // p - p2k * (np.arange(p) == w_exp[:, None])
    formula_ok = (spectrum.counts == predicted).all(axis=1)
    special = ctx.pow_enc_bulk(y2, p2k) == y2
    rel_trace = ctx.add_enc_bulk(y2, ctx.pow_enc_bulk(y2, pk))
    return RootScan(x0=x0, formula_ok=formula_ok, special=special,
                    special_ok=ctx.add_enc_bulk(x0, rel_trace) == 0,
                    roots_checked=int(np.count_nonzero(roots == 1)))


@dataclass(frozen=True)
class SpectrumCheck:
    roots_checked: int  # y values with a unique root; q when the scan is whole
    all_formula_ok: bool
    all_special_ok: bool
    counts_ok: bool
    bent: bool
    weakly_regular: bool
    summary: dict

    def ok(self, ctx: FieldCtx) -> bool:
        return (self.roots_checked == ctx.q and self.all_formula_ok
                and self.all_special_ok and self.counts_ok
                and self.bent and self.weakly_regular)


def theorem1_spectrum_check(ctx: FieldCtx) -> SpectrumCheck:
    """Verify the whole (1, 1) spectrum: per-y roots and formula (one
    theorem1_root_scan), the closed-form value counts, bentness, and weak
    regularity."""
    p, k = ctx.p, ctx.params.k
    p2k = p ** (2 * k)
    spectrum = full_spectrum(ctx, CoeffPair(ctx.one, ctx.one))
    scan = theorem1_root_scan(ctx, spectrum)
    want = {str(CycInt.integer(p, -p2k)): (p ** (2 * k - 1) - 1) * (p2k + 1) + 1}
    for i in range(1, p):
        want[str((-p2k) * CycInt.omega_power(p, i))] = p ** (2 * k - 1) * (p2k + 1)
    return SpectrumCheck(
        roots_checked=scan.roots_checked,
        all_formula_ok=bool(scan.formula_ok.all()),
        all_special_ok=bool(scan.special_ok[scan.special].all()),
        counts_ok=spectrum.summary == want,
        bent=spectrum.bent,
        weakly_regular=spectrum.weakly_regular_neg,
        summary=spectrum.summary,
    )
