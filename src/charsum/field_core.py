"""Exact arithmetic in small odd-characteristic fields GF(p^m).

The whole package runs on four primitives defined here:

* FieldParams   -- the (p, k) shape of a run; fixes n = 4k and the even
                   decimation exponent d = p^3k + p^2k - p^k + 1.
* FieldCtx      -- one concrete realization of GF(p^m) with a fixed
                   primitive modulus and generator xi (the class of X).
* Elem          -- an immutable field element (coefficient vector mod p).
* SubfieldView  -- GF(p^m') inside the ambient field, selected by the
                   Frobenius-fixed predicate x^(p^m') = x, with the
                   induced generator xi^((p^m - 1)/(p^m' - 1)).

The modulus is deterministic: the first monic primitive polynomial of
the requested degree in ascending base-p encoding order (constant term
is the least significant digit).  Every run of the tool therefore sees
the same field element behind any given "g^e" label.

When p^m <= 2^20 (p^(m+1) for odd m) the context carries lookup tables
(plain numpy arrays): exp, log, trace and negation over all encodings,
and one addition table over half-width encodings.  With s = p^ceil(m/2), every encoding splits
as u = (u // s) s + u % s into two digit halves below s, and addition is
digitwise, so

    u + v = T[u // s, v // s] s + T[u % s, v % s]

with T the s x s table of digitwise sums mod p: two gathers from a table
of q entries (p q for odd m), in place of a (q, m) digit array.  Above
the bound all operations fall back to polynomial arithmetic and
baby-step giant-step logs, exact but slow.  Only this module knows which
kind a context is (size_guard is the one rule): other modules do bulk
work through the FieldCtx bulk primitives (exp_enc_bulk, log_enc_bulk,
trace_enc_bulk, add_enc_bulk, pow_enc_bulk, SubfieldView.eta_bulk, and
sum_enc_bulk, the one evaluator of monomial sums sum_i c_i x^(e_i)), the
only consumers of the tables besides the scalar operations, which make
one scalar call per element without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegreeUnsupported,
    DivisionByZero,
    EvenCharacteristic,
    GuardExceeded,
    InvariantViolation,
    NonPrimeP,
    NotInSubfield,
    ZeroArgument,
)

TABLE_LIMIT = 1 << 20  # lookup tables are built only up to this many entries


def size_guard(p: int, m: int) -> None:
    """The table rule, GuardExceeded unless GF(p^m) gets lookup tables: its
    largest table, the addition table of p^(2 ceil(m/2)) entries (q for
    even m, p q for odd m), must have at most TABLE_LIMIT entries."""
    if p ** (2 * -(-m // 2)) > TABLE_LIMIT:
        raise GuardExceeded(f"GF({p}^{m}) is beyond the lookup tables of {TABLE_LIMIT} entries")


# --------------------------------------------------------------------------
# small integer number theory (desk scale, trial division is plenty)
# --------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# --------------------------------------------------------------------------
# polynomial arithmetic over Z/p (coefficient tuples, constant term first)
# --------------------------------------------------------------------------

def _poly_mul_mod(u, v, mod, p):
    m = len(mod) - 1
    prod = [0] * (2 * m - 1 if m > 1 else 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    prod[i + j] = (prod[i + j] + ui * vj) % p
    # mod is monic: X^m = -(mod[0] + ... + mod[m-1] X^(m-1))
    for deg in range(len(prod) - 1, m - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for j in range(m):
                if mod[j]:
                    prod[deg - m + j] = (prod[deg - m + j] - c * mod[j]) % p
    return tuple(prod[:m])


def _poly_mul_by_x(t, mod, p):
    # X * t, reduced; one step of the exp-table recurrence
    m = len(t)
    lead = t[-1]
    out = [0] + list(t[:-1])
    if lead:
        for j in range(m):
            if mod[j]:
                out[j] = (out[j] - lead * mod[j]) % p
    return tuple(out)


def _poly_pow(base, e, mod, p):
    m = len(mod) - 1
    acc = (1,) + (0,) * (m - 1)
    b = base
    while e:
        if e & 1:
            acc = _poly_mul_mod(acc, b, mod, p)
        b = _poly_mul_mod(b, b, mod, p)
        e >>= 1
    return acc


def _x_is_primitive(mod, p, m, factors):
    """Does the class of X generate the full multiplicative group?"""
    if mod[0] == 0:
        return False  # X divides the modulus, X is not even a unit
    q1 = p ** m - 1
    x = ((0, 1) + (0,) * (m - 2)) if m > 1 else ((-mod[0]) % p,)
    one = (1,) + (0,) * (m - 1)
    if _poly_pow(x, q1, mod, p) != one:
        return False
    for r in factors:
        if _poly_pow(x, q1 // r, mod, p) == one:
            return False
    return True


def first_primitive_modulus(p: int, m: int) -> tuple:
    """First monic degree-m primitive polynomial over Z/p in ascending
    base-p encoding order.  Returned as a coefficient tuple of length
    m+1 (constant term first, leading 1 last)."""
    q = p ** m
    factors = prime_factors(q - 1)
    for code in range(q):
        cand, c = [], code
        for _ in range(m):
            c, rem = divmod(c, p)
            cand.append(rem)
        if _x_is_primitive(tuple(cand) + (1,), p, m, factors):
            return tuple(cand) + (1,)
    raise AssertionError(f"no primitive polynomial of degree {m} over GF({p})")


# --------------------------------------------------------------------------
# parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldParams:
    """The (p, k) shape of a run: big field GF(p^n) with n = 4k and the
    decimation exponent d = p^3k + p^2k - p^k + 1 = (p^2k - 1)(p^k + 1) + 2."""

    p: int
    k: int

    def __post_init__(self):
        if self.p < 2 or not is_prime(self.p):
            raise NonPrimeP(f"p={self.p} is not prime")
        if self.p == 2:
            raise EvenCharacteristic("odd characteristic required")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        # structural invariants: d even, gcd(d, p^n - 1) = 2
        if self.d % 2:
            raise InvariantViolation(f"d = {self.d} is odd")
        if math.gcd(self.d, self.p ** self.n - 1) != 2:
            raise InvariantViolation(f"gcd(d, p^n - 1) != 2 at p={self.p}, k={self.k}")

    @property
    def n(self) -> int:
        return 4 * self.k

    @property
    def d(self) -> int:
        p, k = self.p, self.k
        return p ** (3 * k) + p ** (2 * k) - p ** k + 1


# --------------------------------------------------------------------------
# elements
# --------------------------------------------------------------------------

class Elem:
    """An element of a fixed FieldCtx, stored as the base-p integer
    encoding of its coefficient vector.  Immutable, hashable."""

    __slots__ = ("ctx", "enc")

    def __init__(self, ctx, enc):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "enc", enc)

    def __setattr__(self, name, value):
        raise AttributeError("Elem is immutable")

    @property
    def coeffs(self):
        return self.ctx.decode(self.enc)

    @property
    def is_zero(self):
        return self.enc == 0

    def __add__(self, other):
        return Elem(self.ctx, self.ctx.add_enc(self.enc, self.ctx._enc_of(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Elem(self.ctx, self.ctx.sub_enc(self.enc, self.ctx._enc_of(other)))

    def __rsub__(self, other):
        return Elem(self.ctx, self.ctx.sub_enc(self.ctx._enc_of(other), self.enc))

    def __neg__(self):
        return Elem(self.ctx, self.ctx.neg_enc_one(self.enc))

    def __mul__(self, other):
        return Elem(self.ctx, self.ctx.mul_enc(self.enc, self.ctx._enc_of(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.ctx._enc_of(other)
        return Elem(self.ctx, self.ctx.mul_enc(self.enc, self.ctx.inv_enc(o)))

    def __pow__(self, e):
        return Elem(self.ctx, self.ctx.pow_enc(self.enc, e))

    def inverse(self):
        return Elem(self.ctx, self.ctx.inv_enc(self.enc))

    def __eq__(self, other):
        if isinstance(other, Elem):
            return self.ctx is other.ctx and self.enc == other.enc
        if isinstance(other, int):
            return self.ctx._enc_of(other) == self.enc
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.enc))

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"Elem[{self}]@GF({self.ctx.p}^{self.ctx.m})"


# --------------------------------------------------------------------------
# the field context
# --------------------------------------------------------------------------

class FieldCtx:
    """A concrete GF(p^m).  Immutable after construction; safe to share.

    Use build_context()/context() instead of calling this directly.
    """

    def __init__(self, params: FieldParams, m: int, modulus: tuple, use_tables=True):
        self.params = params
        self.p = params.p
        self.m = m
        self.q = self.p ** m
        self.order = self.q - 1
        self.modulus = modulus
        self._pow = [self.p ** i for i in range(m + 1)]
        try:
            size_guard(self.p, m)
            self.has_tables = use_tables
        except GuardExceeded:
            self.has_tables = False
        if self.has_tables:
            self._build_tables()
        xi_t = ((0, 1) + (0,) * (m - 2)) if m > 1 else ((-modulus[0]) % self.p,)
        self.xi = Elem(self, self.encode(xi_t))
        self.zero = Elem(self, 0)
        self.one = Elem(self, 1)
        self._views = {}

    # --- encoding -----------------------------------------------------------

    def encode(self, coeffs) -> int:
        e = 0
        for i, c in enumerate(coeffs):
            e += (c % self.p) * self._pow[i]
        return e

    def decode(self, enc: int) -> tuple:
        out = []
        for _ in range(self.m):
            enc, r = divmod(enc, self.p)
            out.append(r)
        return tuple(out)

    def _enc_of(self, x) -> int:
        if isinstance(x, Elem):
            if x.ctx is not self:
                raise ValueError("element belongs to a different context")
            return x.enc
        if isinstance(x, int):
            return x % self.p  # prime-field constant
        raise TypeError(f"cannot interpret {type(x).__name__} as a field element")

    # --- tables ---------------------------------------------------------------

    def _build_tables(self):
        p, m, q, order = self.p, self.m, self.q, self.order
        # int64 exponent products in the bulk paths stay below order^2
        if order * order >= 2 ** 62:
            raise GuardExceeded(f"GF({p}^{m}) is too large for int64 exponent math")
        mod = self.modulus
        # exp table by repeated multiplication with X
        exp = np.empty(order, dtype=np.int64)
        t = (1,) + (0,) * (m - 1)
        for e in range(order):
            exp[e] = self.encode(t)
            t = _poly_mul_by_x(t, mod, p)
        if self.encode(t) != 1:
            raise InvariantViolation(f"modulus {mod} is not primitive")
        self.exp_enc = exp
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(order, dtype=np.int64)
        if log[0] != -1 or (log[1:] < 0).any():
            raise InvariantViolation("exp table has collisions")
        self.log_enc = log
        # trace by linearity: Tr(sum c_i X^i) = sum c_i Tr(X^i)
        tr_basis = np.empty(m, dtype=np.int64)
        for i in range(m):
            acc = [0] * m
            e = i
            for j in range(m):
                conj = self.decode(int(exp[(e * p ** j) % order])) if order else (1,)
                acc = [(a + b) % p for a, b in zip(acc, conj)]
            if any(acc[1:]):
                raise InvariantViolation(f"Tr(X^{i}) left the prime field")
            tr_basis[i] = acc[0]
        # the half-width split u = hi s + lo: the addition table over the
        # digit halves, and trace and negation as sums of one half table each
        h = -(-m // 2)
        s = p ** h
        digits = np.empty((s, h), dtype=np.int64)
        codes = np.arange(s, dtype=np.int64)
        for i in range(h):
            digits[:, i] = codes % p
            codes //= p
        self.add_side = s
        self.add_table = _digitwise_sums(digits, p)
        hi, lo = np.divmod(np.arange(q, dtype=np.int64), s)
        tr_lo, tr_hi = digits @ tr_basis[:h], digits[:, :m - h] @ tr_basis[h:]
        self.trace_enc = ((tr_hi[hi] + tr_lo[lo]) % p).astype(np.int32)
        neg = ((p - digits) % p) @ np.array(self._pow[:h], dtype=np.int64)
        self.neg_enc = neg[hi] * s + neg[lo]
        # self-check: 0 is neutral in the table, and x + (-x) = 0 at every x
        if (self.add_table[::s] != np.arange(s)).any() or (
                self.add_enc_bulk(np.arange(q, dtype=np.int64), self.neg_enc) != 0).any():
            raise InvariantViolation(f"the addition table of GF({p}^{m}) fails its self-check")

    # --- scalar arithmetic on encodings ---------------------------------------

    def add_enc(self, u, v):
        if self.has_tables:
            s, t = self.add_side, self.add_table
            (uh, ul), (vh, vl) = divmod(u, s), divmod(v, s)
            return int(t[uh * s + vh]) * s + int(t[ul * s + vl])
        a, b = self.decode(u), self.decode(v)
        return self.encode(tuple((x + y) % self.p for x, y in zip(a, b)))

    def sub_enc(self, u, v):
        if self.has_tables:
            return self.add_enc(u, int(self.neg_enc[v]))
        a, b = self.decode(u), self.decode(v)
        return self.encode(tuple((x - y) % self.p for x, y in zip(a, b)))

    def neg_enc_one(self, u):
        if self.has_tables:
            return int(self.neg_enc[u])
        return self.encode(tuple((-x) % self.p for x in self.decode(u)))

    def mul_enc(self, u, v):
        if u == 0 or v == 0:
            return 0
        if self.has_tables:
            return int(self.exp_enc[(int(self.log_enc[u]) + int(self.log_enc[v])) % self.order])
        t = _poly_mul_mod(self.decode(u), self.decode(v), self.modulus, self.p)
        return self.encode(t)

    def inv_enc(self, u):
        if u == 0:
            raise DivisionByZero("inverse of zero")
        if self.has_tables:
            return int(self.exp_enc[(-int(self.log_enc[u])) % self.order])
        return self.pow_enc(u, self.order - 1)

    def pow_enc(self, u, e):
        if u == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        e %= self.order
        if self.has_tables:
            return int(self.exp_enc[(int(self.log_enc[u]) * e) % self.order])
        return self.encode(_poly_pow(self.decode(u), e, self.modulus, self.p))

    # --- element constructors / parsing -----------------------------------------

    def elem(self, coeffs) -> Elem:
        """Element from a coefficient iterable (short vectors are zero-padded)."""
        if isinstance(coeffs, int):
            return Elem(self, coeffs % self.p)
        cs = list(coeffs)
        if len(cs) > self.m:
            raise ValueError(f"at most {self.m} coefficients expected")
        cs += [0] * (self.m - len(cs))
        return Elem(self, self.encode(cs))

    def from_exp(self, e: int) -> Elem:
        """xi^e (e taken mod p^m - 1)."""
        return self.xi ** e

    def from_enc(self, enc: int) -> Elem:
        if not 0 <= enc < self.q:
            raise ValueError("encoding out of range")
        return Elem(self, int(enc))

    def parse_element(self, text: str) -> Elem:
        """Accepts "g^e" (a power of xi) or "c0,c1,...,c_{m-1}" base-p
        digits, each in 0..p-1 (ValueError otherwise)."""
        text = text.strip()
        if text.startswith("g^"):
            return self.from_exp(int(text[2:]))
        if text == "g":
            return self.xi
        digits = [int(v) for v in text.split(",")]
        if not all(0 <= v < self.p for v in digits):
            raise ValueError(f"digits of {text!r} must lie in 0..{self.p - 1}")
        return self.elem(digits)

    def format_element(self, x: Elem) -> str:
        """Render as "g^e", or "0" for the zero element."""
        if x.is_zero:
            return "0"
        return f"g^{self.dlog(x)}"

    # --- iteration ----------------------------------------------------------------

    def elements(self):
        """All field elements in encoding order (zero first)."""
        for enc in range(self.q):
            yield Elem(self, enc)

    def powers(self):
        """xi^0, xi^1, ..., xi^(q-2)."""
        x = self.one
        for _ in range(self.order):
            yield x
            x = x * self.xi

    # --- logs and traces ------------------------------------------------------------

    def dlog(self, x: Elem) -> int:
        """e with xi^e = x, 0 <= e < p^m - 1."""
        if x.is_zero:
            raise ZeroArgument("discrete log of zero")
        if self.has_tables:
            return int(self.log_enc[x.enc])
        return _bsgs(self.xi, x, self.order)

    def abs_trace(self, x: Elem) -> int:
        """Absolute trace GF(p^m) -> GF(p), as an integer in 0..p-1."""
        if self.has_tables:
            return int(self.trace_enc[x.enc])
        return _prime_field_value(self.rel_trace(x, 1))

    def rel_trace(self, x: Elem, to_degree: int, from_degree: int | None = None) -> Elem:
        """Relative trace GF(p^from) -> GF(p^to); x must lie in the source field."""
        src = self.m if from_degree is None else from_degree
        if src % to_degree != 0 or self.m % src != 0:
            raise DegreeUnsupported(f"no trace from degree {src} to {to_degree}")
        if src != self.m and not self.subfield(src).contains(x):
            raise NotInSubfield(f"{x!r} is not in GF({self.p}^{src})")
        acc = self.zero
        step = self.p ** to_degree
        y = x
        for _ in range(src // to_degree):
            acc = acc + y
            y = y ** step
        return acc

    # --- subfields -----------------------------------------------------------------

    def subfield(self, degree: int) -> "SubfieldView":
        if degree not in self._views:
            self._views[degree] = SubfieldView(self, degree)
        return self._views[degree]

    # --- bulk helpers (numpy; table-backed, else one scalar op per element) --------

    def _per_element(self, fn, *arrays):
        # the fallback of the bulk primitives: one scalar call per element,
        # for arrays of any (broadcast) shape
        arrays = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in arrays))
        out = [fn(*map(int, xs)) for xs in zip(*(x.ravel() for x in arrays))]
        return np.array(out, dtype=np.int64).reshape(arrays[0].shape)

    def exp_enc_bulk(self, logs):
        """Encodings of xi^logs for an int64 array of exponents (taken mod p^m - 1)."""
        logs = np.asarray(logs, dtype=np.int64) % self.order
        if self.has_tables:
            return self.exp_enc[logs]
        return self._per_element(lambda e: self.pow_enc(self.xi.enc, e), logs)

    def log_enc_bulk(self, u):
        """Discrete logs (0 <= e < p^m - 1) of an int64 array of nonzero encodings."""
        u = np.asarray(u, dtype=np.int64)
        if (u == 0).any():
            raise ZeroArgument("discrete log of zero")
        if self.has_tables:
            return self.log_enc[u]
        return self._per_element(lambda a: self.dlog(Elem(self, a)), u)

    def trace_enc_bulk(self, u):
        """Absolute traces (0..p-1) of an int64 array of encodings, as int64."""
        if self.has_tables:
            return self.trace_enc[u].astype(np.int64)
        return self._per_element(lambda a: self.abs_trace(Elem(self, a)), u)

    def add_enc_bulk(self, u, v):
        """Elementwise field addition of two int64 encoding arrays (either
        may be a scalar encoding): two gathers from the half-width addition
        table."""
        if self.has_tables:
            s, t = self.add_side, self.add_table
            uh, vh = u // s, v // s
            return t[uh * s + vh] * s + t[(u - uh * s) * s + (v - vh * s)]
        return self._per_element(self.add_enc, u, v)

    def pow_enc_bulk(self, u, e):
        """Elementwise u^e of an int64 encoding array, e >= 1 (0^e = 0)."""
        if e < 1:
            raise ValueError(f"bulk power needs e >= 1, got {e}")
        if self.has_tables:
            # log_enc[0] = -1 indexes a valid entry; the zeros are masked after
            out = self.exp_enc[(self.log_enc[u] * (e % self.order)) % self.order]
            return np.where(u == 0, 0, out)
        return self._per_element(lambda a: self.pow_enc(a, e), u)

    def sum_enc_bulk(self, terms, logs):
        """The monomial sum sum_i c_i x^(e_i) at x = xi^logs (an int64 array
        of dlogs): the one evaluator of monomial sums.

        terms are (c, e) pairs, c the dlog of the coefficient (-1 for a zero
        one) and e any integer exponent: c is an int, or an int64 array (n,)
        that gives each of n rows its own coefficients, so that one call
        evaluates n sums.  Returns the int64 value encodings, of shape
        (len(logs),) or (n, len(logs))."""
        shape = np.broadcast_shapes(*(np.shape(c) for c, _ in terms)) + np.shape(logs)
        total = None
        for c, e in terms:
            c = np.asarray(c, dtype=np.int64)[..., None]
            live = c >= 0
            if not live.any():
                continue
            enc = self.exp_enc_bulk(c + (e % self.order) * logs)
            if not live.all():
                enc = np.where(live, enc, 0)
            total = enc if total is None else self.add_enc_bulk(total, enc)
        if total is None:
            return np.zeros(shape, dtype=np.int64)
        return total if total.shape == shape else np.broadcast_to(total, shape).copy()

    def __repr__(self):
        mod = ",".join(str(c) for c in self.modulus)
        return f"FieldCtx(GF({self.p}^{self.m}), modulus=[{mod}])"


def _digitwise_sums(digits, p: int):
    """The addition table over encodings below s = p^h, flat: entry x s + y
    is the encoding of the digitwise sum mod p of x and y, from the (s, h)
    digits of every x."""
    s, h = digits.shape
    table = np.zeros((s, s), dtype=np.int64)
    for i in range(h):
        table += (digits[:, i, None] + digits[None, :, i]) % p * p ** i
    return table.ravel()


def _prime_field_value(t: Elem) -> int:
    """A trace value, an element of GF(p), as the integer 0..p-1."""
    if t.enc >= t.ctx.p:
        raise InvariantViolation(f"trace {t!r} left the prime field")
    return t.enc


def _bsgs(g: Elem, x: Elem, n: int) -> int:
    """Baby-step giant-step discrete log of x in <g>, |<g>| = n."""
    s = math.isqrt(n - 1) + 1
    baby = {}
    t = x
    for j in range(s):
        baby.setdefault(t.enc, j)
        t = t * g
    giant = g ** s
    # x * g^j == g^(i*s)  =>  log x = i*s - j
    cur = giant
    for i in range(1, s + 2):
        if cur.enc in baby:
            return (i * s - baby[cur.enc]) % n
        cur = cur * giant
    raise ZeroArgument("element not in the subgroup")


# --------------------------------------------------------------------------
# subfield views
# --------------------------------------------------------------------------

class SubfieldView:
    """GF(p^degree) inside an ambient FieldCtx.

    Membership is the Frobenius predicate x^(p^degree) = x; the induced
    generator is xi^step with step = (p^m - 1)/(p^degree - 1).  Carries
    the subfield's own absolute trace and quadratic character.
    """

    def __init__(self, ctx: FieldCtx, degree: int):
        if degree < 1 or ctx.m % degree != 0:
            raise DegreeUnsupported(f"{degree} does not divide {ctx.m}")
        self.ctx = ctx
        self.degree = degree
        self.q = ctx.p ** degree
        self.order = self.q - 1
        self.step = ctx.order // self.order if ctx.order else 1
        self.generator = ctx.from_exp(self.step)

    def contains(self, x: Elem) -> bool:
        if x.is_zero:
            return True
        if self.ctx.has_tables:
            return int(self.ctx.log_enc[x.enc]) % self.step == 0
        return x ** self.q == x

    def elements(self):
        """Zero, then powers of the induced generator."""
        yield self.ctx.zero
        yield from self.nonzero_elements()

    def nonzero_elements(self):
        x = self.ctx.one
        for _ in range(self.order):
            yield x
            x = x * self.generator

    def discrete_log(self, x: Elem) -> int:
        """e with generator^e = x, 0 <= e < p^degree - 1."""
        if x.is_zero:
            raise ZeroArgument("discrete log of zero")
        if self.ctx.has_tables:
            e = int(self.ctx.log_enc[x.enc])
            if e % self.step:
                raise NotInSubfield(f"{x!r} not in GF({self.ctx.p}^{self.degree})")
            return e // self.step
        if not self.contains(x):
            raise NotInSubfield(f"{x!r} not in GF({self.ctx.p}^{self.degree})")
        return _bsgs(self.generator, x, self.order)

    def eta(self, x: Elem) -> int:
        """Quadratic character of this subfield: 0 at zero, else +-1 by
        whether x is a square, evaluated as x^((q-1)/2)."""
        if x.is_zero:
            return 0
        if not self.contains(x):
            raise NotInSubfield(f"{x!r} not in GF({self.ctx.p}^{self.degree})")
        s = x ** (self.order // 2)
        if s == self.ctx.one:
            return 1
        if s != -self.ctx.one:
            raise InvariantViolation(
                f"{x!r}^((q-1)/2) is not +-1 in GF({self.ctx.p}^{self.degree})")
        return -1

    def eta_bulk(self, u):
        """eta at an int64 array of encodings of this subfield, as int64:
        0 at zero, else (-1)^(log / step), the parity of the dlog to the
        induced generator (NotInSubfield if an encoding lies outside)."""
        nonzero = u != 0
        logs = self.ctx.log_enc_bulk(np.where(nonzero, u, 1))
        if (logs % self.step).any():
            raise NotInSubfield(f"an encoding is not in GF({self.ctx.p}^{self.degree})")
        return np.where(nonzero, 1 - 2 * (logs // self.step % 2), 0)

    def abs_trace(self, x: Elem) -> int:
        """Absolute trace of this subfield GF(p^degree) -> GF(p)
        (NotInSubfield if x lies outside it)."""
        return _prime_field_value(self.ctx.rel_trace(x, 1, self.degree))

    def __repr__(self):
        return f"SubfieldView(GF({self.ctx.p}^{self.degree}) in GF({self.ctx.p}^{self.ctx.m}))"


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def build_context(params: FieldParams, m: int, use_tables=True) -> FieldCtx:
    """Build GF(p^m) for m in {k, 2k, 4k} with the deterministic modulus."""
    if m not in (params.k, 2 * params.k, 4 * params.k):
        raise DegreeUnsupported(f"m={m} not in {{k, 2k, 4k}} for k={params.k}")
    modulus = first_primitive_modulus(params.p, m)
    return FieldCtx(params, m, modulus, use_tables=use_tables)


@lru_cache(maxsize=None)
def context(p: int, k: int, m: int | None = None) -> FieldCtx:
    """Cached build_context; m defaults to the big field degree 4k."""
    params = FieldParams(p, k)
    return build_context(params, 4 * k if m is None else m)
