"""Exact arithmetic in Z[w], w a primitive p-th root of unity.

Every character sum in this package is a Z-linear combination of p-th
roots of unity, so it is stored exactly as an integer vector instead of
a complex float.  The basis is {1, w, ..., w^(p-2)}; the missing power
is eliminated with

    w^(p-1) = -(1 + w + ... + w^(p-2)).

That set is a Z-basis of the ring of integers of Q(w), so the reduced
vector is unique and equality of sums is plain tuple equality.
"""

from __future__ import annotations

import numpy as np

from .errors import NotRationalInteger


def _canonical(p, dense):
    # dense has length p (coefficients of w^0 .. w^(p-1)); fold the top
    # power into the basis using 1 + w + ... + w^(p-1) = 0.
    top = dense[p - 1]
    return tuple(dense[j] - top for j in range(p - 1))


class CycInt:
    """An element of Z[w] in canonical reduced form.

    Immutable.  Supports +, -, unary -, * (by CycInt or int), == against
    CycInt or plain int, and the character-sum helpers conj and
    norm_squared.
    """

    __slots__ = ("p", "c")

    def __init__(self, p, coeffs):
        if p < 3:
            raise ValueError("p must be an odd prime >= 3")
        coeffs = tuple(int(v) for v in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p={p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycInt is immutable")

    # --- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p):
        return cls(p, (0,) * (p - 1))

    @classmethod
    def integer(cls, p, n):
        return cls(p, (int(n),) + (0,) * (p - 2))

    @classmethod
    def omega_power(cls, p, j):
        """w^j for any integer j (taken mod p)."""
        j %= p
        dense = [0] * p
        dense[j] = 1
        return cls(p, _canonical(p, dense))

    @classmethod
    def from_counts(cls, p, counts):
        """sum_v counts[v] * w^v for a length-p count vector."""
        if len(counts) != p:
            raise ValueError(f"need {p} counts")
        return cls(p, _canonical(p, [int(v) for v in counts]))

    @staticmethod
    def group_rows(counts, order):
        """The distinct rows of a 2-D integer array of count vectors, such as
        the (q, p) array of expsum.character_counts, at the row numbers in
        the int array order.

        Returns (rows, index): rows holds the distinct rows in order of
        first occurrence along order, and index the int64 array with
        rows[index[i]] equal to counts[order[i]].  Rows are compared
        exactly, as whole byte strings, by sorting the rows of counts once,
        without a copy of counts[order]; so one CycInt per distinct row
        gives every sum of the table."""
        counts = np.ascontiguousarray(counts)
        keys = counts.view(np.dtype((np.void, counts.itemsize * counts.shape[1]))).ravel()
        # one argsort and one sorted copy: np.unique would copy the keys once more first
        perm = np.argsort(keys)
        ordered = keys[perm]
        row_group = np.empty(len(keys), dtype=np.int64)
        row_group[perm] = np.cumsum(np.concatenate(([False], ordered[1:] != ordered[:-1])))
        groups = row_group[order]
        # relabel the groups met along order 0, 1, 2, ... by their first position
        met, first = np.unique(groups, return_index=True)
        label = np.empty(met[-1] + 1, dtype=np.int64)
        label[met[np.argsort(first)]] = np.arange(met.size)
        return counts[order[np.sort(first)]], label[groups]

    # --- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return CycInt(self.p, tuple(x + y for x, y in zip(self.c, other.c)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return CycInt(self.p, tuple(x - y for x, y in zip(self.c, other.c)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return CycInt(self.p, tuple(-x for x in self.c))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(other * x for x in self.c))
        other = self._coerce(other)
        p = self.p
        dense = [0] * p
        for i, ci in enumerate(self.c):
            if ci:
                for j, cj in enumerate(other.c):
                    if cj:
                        dense[(i + j) % p] += ci * cj
        return CycInt(p, _canonical(p, dense))

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation, i.e. the automorphism w -> w^(-1)."""
        p = self.p
        dense = [0] * p
        for i, ci in enumerate(self.c):
            dense[(p - i) % p] += ci
        return CycInt(p, _canonical(p, dense))

    def norm_squared(self):
        """self * conj(self).

        Lies in the real subring; it is a rational integer exactly when
        the result's as_int() succeeds.
        """
        return self * self.conj()

    # --- predicates / accessors ---------------------------------------------

    @property
    def is_rational_integer(self):
        return all(v == 0 for v in self.c[1:])

    def as_int(self):
        """The value as a plain integer; raises if any omega term remains."""
        if not self.is_rational_integer:
            raise NotRationalInteger(f"{self} has omega terms")
        return self.c[0]

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise ValueError("mixed root orders")
            return other
        if isinstance(other, int):
            return CycInt.integer(self.p, other)
        raise TypeError(f"cannot combine CycInt with {type(other).__name__}")

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational_integer and self.c[0] == other
        if isinstance(other, CycInt):
            return self.p == other.p and self.c == other.c
        return NotImplemented

    def __hash__(self):
        if self.is_rational_integer:
            return hash(self.c[0])
        return hash((self.p, self.c))

    def __bool__(self):
        return any(self.c)

    # --- rendering ------------------------------------------------------------

    def __str__(self):
        """Canonical compact rendering, e.g. "-9", "-9w", "1+2w-w^2"."""
        if not self:
            return "0"
        parts = []
        for j, v in enumerate(self.c):
            if v == 0:
                continue
            if j == 0:
                parts.append(f"{v}")
                continue
            sign = "-" if v < 0 else ("+" if parts else "")
            mag = abs(v)
            coef = "" if mag == 1 else f"{mag}"
            power = "w" if j == 1 else f"w^{j}"
            parts.append(f"{sign}{coef}{power}")
        return "".join(parts)

    def __repr__(self):
        return f"CycInt(p={self.p}, {list(self.c)})"
