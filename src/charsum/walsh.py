"""Exact Walsh spectra in Z[w] and the closed-form spectrum of the
coefficient pair (1, 1).

For f mapping GF(p^n) to GF(p), the transform at y is

    S_f(y) = sum_x w^(f(x) - Tr(y x)),

computed exactly as a cyclotomic integer.  full_spectrum reads every
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
theorem1_root_scan checks all of this for every y at once: it steps X
through GF(p^k) and evaluates W + W^(p^k) at all q values of y per
step with the bulk field operations (FieldCtx.add_enc_bulk and
pow_enc_bulk), so its temporaries are O(q) encodings, and compares each
root's j with Spectrum.closed_j, the one match of each distinct
coefficient with closed_form (-p^2k w^j).  theorem1_spectrum_check
adds the value-multiset against the closed-form counts: -p^2k w^i occurs
p^(2k-1)(p^2k+1) times for i != 0, and -p^2k occurs
(p^(2k-1)-1)(p^2k+1) + 1 times.

The per-point references (f_value, walsh_coeff and theorem1_verify) are
in charsum.reference, which no command imports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .errors import ParsevalViolation, RootCountViolation
from .expsum import CoeffPair, character_counts, sweep_order
from .field_core import Elem, FieldCtx


def closed_form(p: int, k: int) -> tuple:
    """The p values -p^2k w^j, j = 0..p-1: the weakly regular
    coefficients with unit -1 of GF(p^4k), and the closed form of the
    (1, 1) spectrum."""
    return tuple((-p ** (2 * k)) * CycInt.omega_power(p, j) for j in range(p))


@dataclass(frozen=True)
class Spectrum:
    """All p^n Walsh coefficients of f(x) = Tr(a x^d + b x^2), (a, b) =
    pair: S_f(y) = values[index[i]][0] for y = 0 at i = 0 and y = xi^(i-1)
    after.  values holds (S, |S|^2) per distinct coefficient S and summary
    counts them by canonical rendering, both in order of first occurrence."""

    ctx: FieldCtx
    pair: CoeffPair
    values: tuple
    index: np.ndarray
    closed_j: np.ndarray      # per S in values, the j with S = -p^(n/2) w^j, or -1
    summary: dict
    parseval: int             # sum of |S|^2, must be p^(2n)
    bent: bool                # every |S|^2 is p^n
    weakly_regular_neg: bool  # every S is in {-p^(n/2) w^j : j = 0..p-1}

    def coefficient(self, y: Elem) -> CycInt:
        return self.values[self.index[0 if y.is_zero else 1 + self.ctx.dlog(y)]][0]


def full_spectrum(ctx: FieldCtx, pair: CoeffPair) -> Spectrum:
    """Every coefficient, the value-multiset summary, exact Parseval
    (ParsevalViolation on a defect), bentness and weak regularity."""
    p, q = ctx.p, ctx.q
    # the row of y = xi^j is the row of a = -y, encoded as xi^(j + (q-1)/2)
    rows, index = CycInt.group_rows(
        character_counts(ctx, 1, ((pair.a, ctx.params.d), (pair.b, 2))),
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
        ctx=ctx, pair=pair, values=values, index=index, closed_j=closed_j,
        summary={str(c): m for (c, _), m in zip(values, multiplicity)},
        parseval=total,
        bent=all(n == q for _, n in values),
        weakly_regular_neg=bool((closed_j >= 0).all()))


# --------------------------------------------------------------------------
# the closed-form spectrum of the pair (1, 1)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RootScan:
    """The closed form of the (1, 1) spectrum at every y; the arrays are
    indexed like Spectrum.index (y = 0, xi^0, xi^1, ...)."""

    x0: np.ndarray          # encoding of the unique root in GF(p^k)
    formula_ok: np.ndarray  # -p^2k w^(Tr_k(x0) 4^(-1)) equals S_f(y)
    special: np.ndarray     # y^2 lies in GF(p^2k)
    special_ok: np.ndarray  # x0 = -Tr(y^2) to GF(p^k); meaningful where special


def _root_polynomial(ctx: FieldCtx, y2, ypow, x: Elem):
    """The quartic-trace polynomial W + W^(p^k) at X = x for every y, from
    the encoding arrays y2 = y^2 and ypow = y^(p^2k+1)."""
    p2k1 = ctx.p ** (2 * ctx.params.k) + 1
    w = ctx.add_enc_bulk(ypow, ctx.pow_enc_bulk(ctx.add_enc_bulk(y2, x.enc), p2k1 // 2))
    return ctx.add_enc_bulk(w, ctx.pow_enc_bulk(w, ctx.p ** ctx.params.k))


def theorem1_root_scan(ctx: FieldCtx, spectrum: Spectrum) -> RootScan:
    """The closed form at every y at once, against the values of
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
    roots = np.zeros(len(ys), dtype=np.int64)
    x0 = np.zeros(len(ys), dtype=np.int64)
    w_exp = np.zeros(len(ys), dtype=np.int64)  # Tr_k(x0) 4^(-1) mod p
    for x in kview.elements():
        hit = _root_polynomial(ctx, y2, ypow, x) == 0
        roots += hit
        x0[hit] = x.enc
        w_exp[hit] = kview.abs_trace(x) * inv4 % p
    bad = np.flatnonzero(roots != 1)
    if len(bad):
        y = ctx.from_enc(int(ys[bad[0]]))
        raise RootCountViolation(
            f"{roots[bad[0]]} roots at y={ctx.format_element(y)}; expected 1")
    formula_ok = spectrum.closed_j[spectrum.index] == w_exp
    special = ctx.pow_enc_bulk(y2, p2k) == y2
    rel_trace = ctx.add_enc_bulk(y2, ctx.pow_enc_bulk(y2, pk))
    return RootScan(x0=x0, formula_ok=formula_ok, special=special,
                    special_ok=ctx.add_enc_bulk(x0, rel_trace) == 0)


@dataclass(frozen=True)
class SpectrumCheck:
    all_formula_ok: bool
    all_special_ok: bool
    counts_ok: bool
    bent: bool
    weakly_regular: bool
    summary: dict

    def failures(self) -> list:
        """The names of the conditions that fail, in the order of the fields."""
        return [name for name, ok in (
            ("formula", self.all_formula_ok), ("special case", self.all_special_ok),
            ("counts", self.counts_ok), ("bent", self.bent),
            ("weakly regular", self.weakly_regular)) if not ok]


def theorem1_spectrum_check(ctx: FieldCtx) -> SpectrumCheck:
    """Verify the whole (1, 1) spectrum: per-y roots and formula (one
    theorem1_root_scan), the closed-form value counts, bentness, and weak
    regularity."""
    p, k = ctx.p, ctx.params.k
    p2k = p ** (2 * k)
    spectrum = full_spectrum(ctx, CoeffPair(ctx.one, ctx.one))
    scan = theorem1_root_scan(ctx, spectrum)
    # -p^2k occurs p^2k times fewer than each -p^2k w^j, j != 0
    want = {str(c): p ** (2 * k - 1) * (p2k + 1) - (j == 0) * p2k
            for j, c in enumerate(closed_form(p, k))}
    return SpectrumCheck(
        all_formula_ok=bool(scan.formula_ok.all()),
        all_special_ok=bool(scan.special_ok[scan.special].all()),
        counts_ok=spectrum.summary == want,
        bent=spectrum.bent,
        weakly_regular=spectrum.weakly_regular_neg,
        summary=spectrum.summary,
    )
