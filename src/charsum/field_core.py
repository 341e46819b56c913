"""Exact arithmetic in small odd-characteristic fields GF(p^m).

The whole package runs on four primitives defined here:

* FieldParams   -- the (p, k) shape of a run; fixes n = 4k and the even
                   decimation exponent d = p^3k + p^2k - p^k + 1.
* FieldCtx      -- one concrete realization of GF(p^m) with a fixed
                   primitive modulus and generator xi (the class of X).
* Elem          -- an immutable field element (coefficient vector mod p).
* SubfieldView  -- GF(p^m') inside the ambient field, with the induced
                   generator xi^((p^m - 1)/(p^m' - 1)) and its quadratic
                   character on encoding arrays.

The modulus is deterministic: the first monic primitive polynomial of
the requested degree in ascending base-p encoding order (constant term
is the least significant digit).  Every run of the tool therefore sees
the same field element behind any given "g^e" label.

A context built with tables carries lookup tables (plain numpy arrays):
exp (built by doubling on xi, see _exp_by_doubling), log and trace over all
encodings, and one addition table over half-width encodings.  With
s = p^ceil(m/2), every encoding splits as u = (u // s) s + u % s into two
digit halves below s, and addition is digitwise, so

    u + v = T[u // s, v // s] s + T[u % s, v % s]

with T the s x s table of digitwise sums mod p: two gathers from a table
of q entries (p q for odd m), in place of a (q, m) digit array.  The
table rule (size_guard) allows p^m <= 2^20 (p^(m+1) for odd m), and
build_context refuses a larger field before the modulus search unless
use_tables=False, which builds one without tables at any size:
polynomial arithmetic and baby-step giant-step logs, exact but slow.
Every lookup table is int64.

Only eight methods ask which kind a context is, each of them one that
some command calls on a table context: the scalar mul_enc, pow_enc and
dlog, and the five bulk primitives exp_enc_bulk, log_enc_bulk,
trace_enc_bulk, add_enc_bulk and pow_enc_bulk, which make one scalar
call per element without tables.  Everything else has one body built on
those.  Scalar addition works by digits and the scalar absolute trace is
the Frobenius sum (rel_trace); no command calls them on a table context,
where they are the independent references of add_enc_bulk and
trace_enc_bulk.  Subtraction is u + (-v), inversion is u^(q-2), and
negation works by digits.  Other modules do bulk work through the bulk
primitives, SubfieldView.eta_bulk and sum_enc_bulk, the one evaluator of
monomial sums sum_i c_i x^(e_i).  A subfield's elements one at a time
(membership x^Q = x, logs from dlog, eta and the trace) are
charsum.reference's.
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


def _companions(p: int, m: int, low):
    """The companion matrices (n, m, m) mod p of the monic polynomials of
    degree m with lower coefficients low (n, m), constant term first: the
    digits of X t are those of t times the matrix, so X^e has its e-th power."""
    out = np.zeros((len(low), m, m), dtype=np.int64)
    out[:, np.arange(m - 1), np.arange(1, m)] = 1
    out[:, m - 1] = -np.asarray(low, dtype=np.int64) % p
    return out


def _matrix_power(mats, e: int, p: int):
    """mats^e mod p for a stack of int64 matrices with entries in 0..p-1."""
    acc = np.eye(mats.shape[-1], dtype=np.int64) + np.zeros_like(mats)
    while e:
        if e & 1:
            acc = acc @ mats % p
        mats = mats @ mats % p
        e >>= 1
    return acc


def first_primitive_modulus(p: int, m: int) -> tuple:
    """First monic degree-m primitive polynomial over Z/p in ascending
    base-p encoding order.  Returned as a coefficient tuple of length
    m+1 (constant term first, leading 1 last).  X is primitive when
    X^(q-1) = 1 and X^((q-1)/r) != 1 for each prime r | q - 1, tested by
    powers of the companion matrices of 64 candidates at a time."""
    q = p ** m
    eye = np.eye(m, dtype=np.int64)
    for start in range(0, q, 64):
        low = np.arange(start, min(q, start + 64))[:, None] // p ** np.arange(m) % p
        mats = _companions(p, m, low)
        live = np.flatnonzero((_matrix_power(mats, q - 1, p) == eye).all(axis=(1, 2)))
        for r in prime_factors(q - 1):
            live = live[(_matrix_power(mats[live], (q - 1) // r, p) != eye).any(axis=(1, 2))]
        if live.size:
            return tuple(low[live[0]].tolist()) + (1,)
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
    encoding of its coefficient vector.  Immutable and unhashable: a set
    of elements is a set of their encodings."""

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

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"Elem[{self}]@GF({self.ctx.p}^{self.ctx.m})"


# --------------------------------------------------------------------------
# the field context
# --------------------------------------------------------------------------

def label(l) -> str:
    """The name of xi^l, "g^l", or "0" for l = -1: the names that
    FieldCtx.parse_element reads, and every command and error prints."""
    return "0" if l < 0 else f"g^{l}"


class FieldCtx:
    """A concrete GF(p^m), with lookup tables exactly when use_tables is
    set.  Immutable after construction; safe to share.  Build it with
    build_context()/context(), which apply the table rule first."""

    def __init__(self, params: FieldParams, m: int, modulus: tuple, use_tables=True):
        self.params = params
        self.p = params.p
        self.m = m
        self.q = self.p ** m
        self.order = self.q - 1
        self.modulus = modulus
        self._pow = [self.p ** i for i in range(m + 1)]
        self.has_tables = use_tables
        if use_tables:
            self._build_tables()
        xi_t = ((0, 1) + (0,) * (m - 2)) if m > 1 else ((-modulus[0]) % self.p,)
        self.xi = Elem(self, self.encode(xi_t))
        if use_tables and self.exp_enc[1] != self.xi.enc:
            raise InvariantViolation(f"xi = {self.xi!r} is not the generator of the exp table")
        self.zero = Elem(self, 0)
        self.one = Elem(self, 1)

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
        exp = self.exp_enc = _exp_by_doubling(p, m, self.modulus)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(order, dtype=np.int64)
        if log[0] != -1 or (log[1:] < 0).any():
            raise InvariantViolation("exp table has collisions")
        self.log_enc = log
        # trace by linearity: Tr(sum c_i X^i) = sum c_i Tr(X^i), and Tr(X^i)
        # is the trace of the matrix of multiplication by X^i, C^i
        companion = _companions(p, m, [self.modulus[:m]])
        tr_basis = np.array([np.trace(_matrix_power(companion, i, p)[0]) % p
                             for i in range(m)])
        # the half-width split u = hi s + lo: the addition table over the
        # digit halves, and the trace as a sum over the two halves
        h = -(-m // 2)
        s = p ** h
        digits = _base_p_digits(p, h)
        self.add_side = s
        self.add_table = _digitwise_sums(digits, p)
        hi, lo = np.divmod(np.arange(q, dtype=np.int64), s)
        tr_lo, tr_hi = digits @ tr_basis[:h], digits[:, :m - h] @ tr_basis[h:]
        self.trace_enc = (tr_hi[hi] + tr_lo[lo]) % p
        # self-check: 0 is neutral in the table, and x + (-x) = 0 at every x,
        # with -x from the negations of the digit halves
        neg = _negations(digits, p)
        if (self.add_table[::s] != np.arange(s)).any() or (
                self.add_enc_bulk(np.arange(q, dtype=np.int64), neg[hi] * s + neg[lo]) != 0).any():
            raise InvariantViolation(f"the addition table of GF({p}^{m}) fails its self-check")

    # --- scalar arithmetic on encodings ---------------------------------------

    def add_enc(self, u, v):
        a, b = self.decode(u), self.decode(v)
        return self.encode(tuple((x + y) % self.p for x, y in zip(a, b)))

    def sub_enc(self, u, v):
        return self.add_enc(u, self.neg_enc_one(v))

    def neg_enc_one(self, u):
        return self.encode(tuple(-x for x in self.decode(u)))

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
        if text == "g":
            return self.xi
        try:
            if text.startswith("g^"):
                return self.from_exp(int(text[2:]))
            digits = [int(v) for v in text.split(",")]
        except ValueError:
            raise ValueError(f"element {text!r} is neither g^e nor digits c0,c1,...") from None
        if not all(0 <= v < self.p for v in digits):
            raise ValueError(f"digits of {text!r} must lie in 0..{self.p - 1}")
        return self.elem(digits)

    def format_element(self, x: Elem) -> str:
        """Render as "g^e", or "0" for the zero element."""
        return label(self.log(x))

    # --- iteration ----------------------------------------------------------------

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

    def log(self, x: Elem) -> int:
        """The dlog of x, -1 for zero: how every function below the
        per-pair layer names an element."""
        return -1 if x.is_zero else self.dlog(x)

    def abs_trace(self, x: Elem) -> int:
        """Absolute trace GF(p^m) -> GF(p), as an integer in 0..p-1."""
        return _prime_field_value(self.rel_trace(x, 1))

    def rel_trace(self, x: Elem, to_degree: int, from_degree: int | None = None) -> Elem:
        """Relative trace GF(p^from) -> GF(p^to); x must lie in the source field."""
        src = self.m if from_degree is None else from_degree
        if src % to_degree != 0 or self.m % src != 0:
            raise DegreeUnsupported(f"no trace from degree {src} to {to_degree}")
        if src != self.m and x ** self.p ** src != x:
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
        return SubfieldView(self, degree)

    # --- bulk helpers (numpy; table-backed, else one scalar op per element) --------

    def _per_element(self, fn, *arrays):
        # the no-table path of the bulk primitives: one scalar call per element,
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
            return self.trace_enc[u]
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
        (len(logs),) or (n, len(logs)).

        The exponents c + e logs are formed in int64 while (q - 1)^2 <
        2^63, and beyond that, which only a field without tables reaches,
        in Python ints, reduced modulo q - 1 before the gather."""
        shape = np.broadcast_shapes(*(np.shape(c) for c, _ in terms)) + np.shape(logs)
        wide = self.order ** 2 >= 1 << 63
        total = None
        for c, e in terms:
            c = np.asarray(c, dtype=np.int64)[..., None]
            live = c >= 0
            if not live.any():
                continue
            if wide:
                exps = c.astype(object) + e % self.order * np.asarray(logs, dtype=object)
                enc = self.exp_enc_bulk((exps % self.order).astype(np.int64))
            else:
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


def _exp_by_doubling(p: int, m: int, mod) -> np.ndarray:
    """The encodings of X^0..X^(p^m - 2) modulo mod, by doubling: the digits
    of X t are those of t times the companion matrix C (row vectors), so
    with the digits of X^0..X^(n-1) as rows, those of X^n..X^(2n-1) are the
    same rows times C^n.  InvariantViolation unless X^(p^m - 1) = 1.  The
    int32 products are exact: under the table rule, m p^2 < 2^31."""
    order = p ** m - 1
    companion = _companions(p, m, [mod[:m]])[0].astype(np.int32)
    digits = np.zeros((order, m), dtype=np.min_scalar_type(p - 1))
    digits[0, 0] = 1
    n, power = 1, companion
    while n < order:
        take = min(n, order - n)
        digits[n:n + take] = digits[:take] @ power % p
        n, power = n + take, power @ power % p
    if ((digits[-1] @ companion % p) != np.eye(1, m, dtype=np.int32)).any():
        raise InvariantViolation(f"modulus {mod} is not primitive")
    return digits @ p ** np.arange(m, dtype=np.int64)


def _base_p_digits(p: int, h: int):
    """The (p^h, h) int64 array of the base-p digits of 0..p^h - 1, least
    significant first."""
    return np.arange(p ** h, dtype=np.int64)[:, None] // p ** np.arange(h) % p


def _negations(digits, p: int):
    """The encodings of -x, from the (s, h) digits of every x below s = p^h."""
    return (p - digits) % p @ p ** np.arange(digits.shape[1], dtype=np.int64)


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
    """GF(p^degree) inside an ambient FieldCtx, as bulk work sees it.

    The induced generator is xi^step with step = (p^m - 1)/(p^degree - 1),
    so a nonzero element lies in the subfield exactly when step divides
    its dlog.  Carries the subfield's quadratic character on encoding
    arrays (eta_bulk).  The Elem-level side (generator, membership,
    iteration, logs, eta and the absolute trace, one element at a time)
    and the arithmetic of a small subfield on keys are in
    charsum.reference.
    """

    def __init__(self, ctx: FieldCtx, degree: int):
        if degree < 1 or ctx.m % degree != 0:
            raise DegreeUnsupported(f"{degree} does not divide {ctx.m}")
        self.ctx = ctx
        self.degree = degree
        self.q = ctx.p ** degree
        self.order = self.q - 1
        self.step = ctx.order // self.order

    def eta_bulk(self, u):
        """eta at an int64 array of encodings of this subfield, as int64:
        0 at zero, else (-1)^(log / step), the parity of the dlog to the
        induced generator (NotInSubfield if an encoding lies outside)."""
        nonzero = u != 0
        logs = self.ctx.log_enc_bulk(np.where(nonzero, u, 1))
        if (logs % self.step).any():
            raise NotInSubfield(f"an encoding is not in GF({self.ctx.p}^{self.degree})")
        return np.where(nonzero, 1 - 2 * (logs // self.step % 2), 0)

    def __repr__(self):
        return f"SubfieldView(GF({self.ctx.p}^{self.degree}) in GF({self.ctx.p}^{self.ctx.m}))"


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def build_context(params: FieldParams, m: int, use_tables=True) -> FieldCtx:
    """Build GF(p^m) for m in {k, 2k, 4k} with the deterministic modulus:
    with lookup tables, GuardExceeded before the modulus search beyond the
    table rule; with use_tables=False, without tables at any size."""
    if m not in (params.k, 2 * params.k, 4 * params.k):
        raise DegreeUnsupported(f"m={m} not in {{k, 2k, 4k}} for k={params.k}")
    if use_tables:
        size_guard(params.p, m)
    modulus = first_primitive_modulus(params.p, m)
    return FieldCtx(params, m, modulus, use_tables=use_tables)


def context(p: int, k: int, m: int | None = None) -> FieldCtx:
    """Cached build_context; m defaults to the big field degree 4k, so
    context(p, k) is context(p, k, 4k), one context with one set of
    tables."""
    return _context(p, k, 4 * k if m is None else m)


@lru_cache(maxsize=None)
def _context(p: int, k: int, m: int) -> FieldCtx:
    return build_context(FieldParams(p, k), m)
