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
context); values do not depend on that choice, class indices do: they
are taken to nu = xi^view.step, the "nu" that cyclotomy-table prints.
full_table and pt_sums read x + 1 and Tr(x) at every x = nu^e from its
dlog, x + 1 by one Zech sum and Tr(x) from the trace table; the scalar
references (class_index, cyclotomic_number) are in charsum.reference,
which no command imports.
"""

from __future__ import annotations

import numpy as np

from .cycint import CycInt
from .errors import ClassSumViolation, CyclotomyViolation, InvariantViolation
from .field_core import SubfieldView


def _pk(view: SubfieldView) -> int:
    if view.degree % 2 != 0:
        raise ValueError("cyclotomy needs a view of even degree 2k")
    return view.ctx.p ** (view.degree // 2)


def class_count(view: SubfieldView) -> int:
    """Number of classes, p^k + 1."""
    return _pk(view) + 1


def closed_form(pk: int) -> np.ndarray:
    """The verified int64 matrix of (i, j) for class order p^k + 1."""
    table = 1 - np.eye(pk + 1, dtype=np.int64)
    table[0] = table[:, 0] = 0
    table[0, 0] = pk - 2
    return table


def full_table(view: SubfieldView) -> np.ndarray:
    """All cyclotomic numbers in one pass over GF(p^2k)*: the int64
    (p^k+1) x (p^k+1) matrix of (i, j)."""
    order = class_count(view)
    e = np.arange(view.order, dtype=np.int64)  # x = nu^e
    shifted = view.ctx.sum_logs(view.step * e, 0)  # the dlogs of x + 1
    mask = shifted >= 0
    logs = shifted[mask]
    if (logs % view.step).any():
        raise InvariantViolation("x + 1 left GF(p^2k)")
    i_idx = e[mask] % order
    j_idx = logs // view.step % order
    return np.bincount(i_idx * order + j_idx, minlength=order * order).reshape(order, order)


def verify_lemma1(view: SubfieldView) -> np.ndarray:
    """The full table, once it equals the closed form: CyclotomyViolation
    on another shape, or naming the count of mismatches and the first in
    row order.  Its total is then p^2k - 2: the x with x and x + 1 nonzero."""
    table, want = full_table(view), closed_form(_pk(view))
    if table.shape != want.shape:
        raise CyclotomyViolation(f"a {table.shape} table, expected {want.shape}")
    bad = np.argwhere(table != want)
    if bad.size:
        i, j = bad[0]
        raise CyclotomyViolation(f"total {table.sum()}, {len(bad)} mismatches, "
                                 f"first ({i}, {j}) = {table[i, j]}, expected {want[i, j]}")
    return table


def pt_sums(view: SubfieldView) -> tuple:
    """The per-class additive character sums (P_0, ..., P_{p^k}), exact in
    Z[w], checked against their closed form (ClassSumViolation on a
    defect), from the ambient trace r Tr(x), r = m/2k, by dlog at every
    x = nu^e (InvariantViolation if one is not an integer 0..p-1, which
    the count by class and trace would file under another class)."""
    order = class_count(view)
    pk = _pk(view)
    ctx = view.ctx
    p = ctx.p
    e = np.arange(view.order, dtype=np.int64)
    traces = ctx.trace_logs(view.step * e)
    if ((traces < 0) | (traces >= p)).any():
        raise InvariantViolation("a trace of GF(p^2k) left GF(p)")
    traces = traces * pow(ctx.m // view.degree, -1, p) % p
    counts = np.bincount(e % order * p + traces, minlength=order * p).reshape(order, p)
    values = tuple(CycInt.from_counts(p, c) for c in counts)
    for t, v in enumerate(values):
        want = pk - 1 if t == (pk + 1) // 2 else -1
        if v != want:
            raise ClassSumViolation(f"P_{t} = {v}, expected {want}")
    return values
