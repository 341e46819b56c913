"""Cyclotomic classes of order p^k+1 in GF(p^2k)* and their statistics.

With nu the induced generator of GF(p^2k)*, the classes are

    C_t = { nu^((p^k+1) i + t) : i = 0 .. p^k-2 },   t = 0 .. p^k,

so C_0 = GF(p^k)* and -1 lies in C_0.  The cyclotomic number (i, j)
counts x in C_i with x + 1 in C_j.  The verified closed form is

    (i, j) = p^k - 2   if i = j = 0,
             1         if i != j and i*j != 0,
             0         otherwise,

and the per-class character sums P_t = sum_{x in C_t} w^Tr(x) equal
p^k - 1 at t = (p^k+1)/2 and -1 everywhere else.

All functions take a SubfieldView of even degree 2k (either the 2k-view
of the big GF(p^4k) context or the full view of a standalone GF(p^2k)
context); values do not depend on that choice, class indices do, so
reports record the generator nu in use.  full_table and pt_sums evaluate
x + 1 and Tr(x) at every x = nu^e with one FieldCtx.sum_enc_bulk call
each; the scalar references (class_index, cyclotomic_number) are in
charsum.reference, which no command imports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .errors import ClassSumViolation, InvariantViolation
from .field_core import SubfieldView


def _pk(view: SubfieldView) -> int:
    if view.degree % 2 != 0:
        raise ValueError("cyclotomy needs a view of even degree 2k")
    return view.ctx.p ** (view.degree // 2)


def class_count(view: SubfieldView) -> int:
    """Number of classes, p^k + 1."""
    return _pk(view) + 1


def closed_form(pk: int, i: int, j: int) -> int:
    """The verified value of (i, j) for class order p^k + 1."""
    if i == 0 and j == 0:
        return pk - 2
    if i != j and i != 0 and j != 0:
        return 1
    return 0


@dataclass(frozen=True)
class CycNumberTable:
    """Full matrix of cyclotomic numbers; table[i][j] = (i, j)."""

    order: int              # p^k + 1
    table: tuple            # (order x order) tuple of tuples
    nu_log: int             # ambient dlog of the generator nu in use

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.table)

    def to_csv(self) -> str:
        lines = ["i\\j," + ",".join(str(j) for j in range(self.order))]
        for i, row in enumerate(self.table):
            lines.append(f"{i}," + ",".join(str(v) for v in row))
        return "\n".join(lines)


def full_table(view: SubfieldView) -> CycNumberTable:
    """All cyclotomic numbers in one pass over GF(p^2k)*."""
    order = class_count(view)
    ctx = view.ctx
    e = np.arange(view.order, dtype=np.int64)  # x = nu^e
    shifted = ctx.sum_enc_bulk(((0, 1), (0, 0)), view.step * e)
    mask = shifted != 0
    logs = ctx.log_enc_bulk(shifted[mask])
    if (logs % view.step).any():
        raise InvariantViolation("x + 1 left GF(p^2k)")
    i_idx = e[mask] % order
    j_idx = logs // view.step % order
    flat = np.bincount(i_idx * order + j_idx, minlength=order * order)
    table = tuple(tuple(int(v) for v in flat[r * order:(r + 1) * order])
                  for r in range(order))
    return CycNumberTable(order=order, table=table, nu_log=ctx.dlog(view.generator))


@dataclass(frozen=True)
class Lemma1Report:
    ok: bool
    pk: int
    mismatches: tuple  # ((i, j, got, want), ...)
    total: int


def verify_lemma1(view: SubfieldView) -> Lemma1Report:
    """Compare the full table against the closed form, entry by entry."""
    pk = _pk(view)
    tab = full_table(view)
    bad = []
    for i in range(tab.order):
        for j in range(tab.order):
            want = closed_form(pk, i, j)
            if tab.table[i][j] != want:
                bad.append((i, j, tab.table[i][j], want))
    return Lemma1Report(ok=not bad, pk=pk, mismatches=tuple(bad), total=tab.total)


@dataclass(frozen=True)
class PtVector:
    """values[t] = P_t = sum_{x in C_t} w^Tr(x), exact in Z[w]."""

    order: int
    values: tuple  # of CycInt


def pt_sums(view: SubfieldView) -> PtVector:
    """Per-class additive character sums, checked against their closed form
    (ClassSumViolation on a defect), from Tr(x) = sum_{i < 2k} x^(p^i) at
    every x = nu^e (InvariantViolation if a trace is not in GF(p))."""
    order = class_count(view)
    pk = _pk(view)
    ctx = view.ctx
    p = ctx.p
    e = np.arange(view.order, dtype=np.int64)
    traces = ctx.sum_enc_bulk(tuple((0, p ** i) for i in range(view.degree)), view.step * e)
    if (traces >= p).any():
        raise InvariantViolation("a trace of GF(p^2k) left GF(p)")
    counts = np.bincount(e % order * p + traces, minlength=order * p).reshape(order, p)
    values = tuple(CycInt.from_counts(p, c) for c in counts)
    for t, v in enumerate(values):
        want = pk - 1 if t == (pk + 1) // 2 else -1
        if v != want:
            raise ClassSumViolation(f"P_{t} = {v}, expected {want}")
    return PtVector(order=order, values=values)
