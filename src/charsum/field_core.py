"""Exact arithmetic in small odd-characteristic fields GF(p^m).

The whole package runs on four primitives defined here:

* FieldParams   -- the (p, k) shape of a run; fixes n = 4k and the even
                   decimation exponent d = p^3k + p^2k - p^k + 1.
* FieldCtx      -- one concrete realization of GF(p^m) with a fixed
                   primitive modulus and generator xi (the class of X).
* Elem          -- an immutable field element (coefficient vector mod p).
* SubfieldView  -- GF(p^m') inside the ambient field, with the induced
                   generator xi^((p^m - 1)/(p^m' - 1)) and its quadratic
                   character on dlog arrays.

The modulus is deterministic: the first monic primitive polynomial of
the requested degree in ascending base-p encoding order (constant term
is the least significant digit).  Every run of the tool therefore sees
the same field element behind any given "g^e" label.

A context built with tables carries four int64 lookup tables: exp and
log between dlogs and encodings (exp built by doubling on xi, see
_exp_by_doubling), the absolute trace by dlog, and the Zech logarithms
Z(l) = log(1 + xi^l), -1 at the one l = (q-1)/2 where 1 + xi^l = 0
(K. Huber, "Some comments on Zech's logarithms", IEEE Trans. Inf. Theory
36, 1990), so that a field sum is one gather:

    xi^u + xi^v = xi^u (1 + xi^(v-u)) = xi^(u + Z(v - u)).

Adding 1 changes only the constant digit of an encoding, so Z comes from
the exp and log tables alone (_zech).  The build checks it in O(q):
Z(-l) = Z(l) - l, as 1 + xi^(-l) = xi^(-l) (1 + xi^l), and Z takes -1
once, at (q-1)/2, and every dlog but 0 once.  The table rule
(size_guard) allows q = p^m <= 2^20 at every m, and build_context
refuses a larger field before the modulus search unless
use_tables=False, which builds one without tables at any size:
polynomial arithmetic and baby-step giant-step logs, exact but slow.

Below the parser every element is named by its dlog, -1 for zero, and
FieldCtx holds the one dlog arithmetic (mul_logs, pow_logs, neg_logs,
inv_logs, sum_logs, vanishes, trace_logs, monomials and
SubfieldView.eta_logs).  Only seven methods ask which kind a context
is, each called by some command on a table context: mul_enc, pow_enc,
dlog, exp_enc_bulk, sum_logs, vanishes and trace_logs; without tables
they make one scalar call per element, and vanishes adds encodings,
with no baby-step giant-step log.  Everything else has one body built
on those.  Outside this module only expsum.character_counts turns an
array of dlogs back into encodings (exp_enc_bulk) on the command path,
as its butterfly indexes a by encoding.  Scalar addition works by
digits and the scalar absolute trace is the Frobenius sum (rel_trace),
the references of sum_logs and trace_logs on a table context;
add_enc_bulk is scalar addition per element.  Subtraction is u + (-v),
inversion is u^(q-2), and negation works by digits.  A subfield's
elements one at a time are charsum.reference's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

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
    """The table rule, GuardExceeded unless GF(p^m) gets lookup tables:
    each of the four tables has q = p^m entries, at most TABLE_LIMIT."""
    if p ** m > TABLE_LIMIT:
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
        digits = _exp_by_doubling(p, m, self.modulus)
        exp = self.exp_enc = digits @ p ** np.arange(m, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(order, dtype=np.int64)
        if log[0] != -1 or (log[1:] < 0).any():
            raise InvariantViolation("exp table has collisions")
        self.log_enc = log
        # trace by linearity: Tr(sum c_i X^i) = sum c_i Tr(X^i), and Tr(X^i)
        # is the trace of the matrix of multiplication by X^i, C^i; one entry
        # more, Tr(0) = 0, is read at the dlog -1
        companion = _companions(p, m, [self.modulus[:m]])
        tr_basis = np.array([np.trace(_matrix_power(companion, i, p)[0]) % p
                             for i in range(m)])
        self.trace_log = np.append(digits @ tr_basis % p, 0)
        zech = self.zech_log = _zech(exp, log, p)
        # self-check: Z(-l) = Z(l) - l, which at l = -l = (q-1)/2 leaves only
        # Z = -1, and Z takes -1 and every dlog but 0 once, which sees a
        # moved Z(0) that the reflection cannot
        l = np.arange(order, dtype=np.int64)
        once = np.bincount(zech + 1, minlength=order + 1) != np.append([1, 0], np.ones(order - 1))
        if once.any() or (zech[-l % order] != np.where(zech < 0, -1, (zech - l) % order)).any():
            raise InvariantViolation(f"the Zech logarithms of GF({p}^{m}) fail their self-check")

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

    # --- bulk encodings (numpy; table-backed, else one scalar op per element) -------

    def _per_element(self, fn, *arrays):
        # the no-table path of the bulk methods: one scalar call per element,
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

    def add_enc_bulk(self, u, v):
        """Elementwise field addition of two int64 encoding arrays (either
        may be a scalar encoding), one add_enc per element: no command adds
        encodings."""
        return self._per_element(self.add_enc, u, v)

    # --- the dlog arithmetic: int64 arrays of dlogs, -1 for zero ----------------------

    def mul_logs(self, *logs):
        """The product of the elements xi^l, elementwise over dlog arrays (or
        ints) of one broadcast shape: the sum of the dlogs."""
        zero = reduce(np.logical_or, (np.asarray(l) < 0 for l in logs))
        return np.where(zero, -1, sum(logs) % self.order)

    def pow_logs(self, l, e: int):
        """x^e at x = xi^l for an integer e >= 1 (0^e = 0): e times the dlog."""
        if e < 1:
            raise ValueError(f"a power of dlogs needs e >= 1, got {e}")
        return np.where(l < 0, -1, l * (e % self.order) % self.order)

    def neg_logs(self, l):
        """-x at x = xi^l: -1 = xi^((q-1)/2)."""
        return np.where(l < 0, -1, (l + self.order // 2) % self.order)

    def inv_logs(self, l):
        """1/x at x = xi^l, and -1 (zero) at x = 0, so that a product with it
        reads as zero."""
        return np.where(l < 0, -1, -l % self.order)

    def sum_logs(self, *logs):
        """The sum of the elements xi^l, elementwise over dlog arrays (or
        ints) of one broadcast shape, as dlogs: one Zech gather per term
        after the first."""
        if self.has_tables:
            return reduce(self._zech_add, (np.asarray(l, dtype=np.int64) for l in logs))
        return self._per_element(lambda u: self.log(Elem(self, u)), self._enc_sum(logs))

    def vanishes(self, *logs):
        """Whether the sum of the elements xi^l is 0, elementwise, as
        sum_logs adds them; without tables by encodings, with no log."""
        if self.has_tables:
            return self.sum_logs(*logs) < 0
        return self._enc_sum(logs) == 0

    def _zech_add(self, u, v):
        # xi^u + xi^v = xi^(u + Z(v - u)), and x + 0 = x; u and v lie in
        # -1..q-2, so the wrapped take and one subtraction reduce modulo q - 1
        z = self.zech_log.take(v - u, mode="wrap")
        total = u + z
        total -= self.order * (total >= self.order)
        return np.where(u < 0, v, np.where(v < 0, u, np.where(z < 0, -1, total)))

    def _enc_sum(self, logs):
        # the no-table sum: the encodings of the terms, added one element at a time
        encs = [np.where(np.asarray(l) < 0, 0, self.exp_enc_bulk(l)) for l in logs]
        return reduce(lambda u, v: self._per_element(self.add_enc, u, v), encs)

    def trace_logs(self, l):
        """The absolute traces (0..p-1) of the elements xi^l of an int64
        dlog array (-1 for zero, 0 <= l < p^m - 1 otherwise), as int64."""
        if self.has_tables:
            return self.trace_log[l]
        return self._per_element(lambda e: 0 if e < 0 else self.abs_trace(self.from_exp(e)), l)

    def monomials(self, terms, logs):
        """The dlogs of the terms c_i x^(e_i) of a monomial sum at x = xi^logs
        (an int64 array of exponents of xi): the one evaluator of monomial
        sums, which sum_logs adds and vanishes tests.

        terms are (c, e) pairs, c the dlog of the coefficient (-1 for a zero
        one) and e any integer exponent: c is an int, or an int64 array (n,)
        that gives each of n rows its own coefficients, so that one call
        evaluates n sums.  Returns one int64 dlog array per term, each of
        shape (len(logs),) or (n, len(logs)).

        The exponents c + e logs are formed in int64 while (q - 1)^2 <
        2^63, and beyond that, which only a field without tables reaches,
        in Python ints, reduced modulo q - 1."""
        out = []
        for c, e in terms:
            c = np.asarray(c, dtype=np.int64)[..., None]
            if self.order ** 2 >= 1 << 63:
                exps = c.astype(object) + e % self.order * np.asarray(logs, dtype=object)
                exps = (exps % self.order).astype(np.int64)
            else:
                exps = c + (e % self.order) * logs
                exps %= self.order
            np.copyto(exps, -1, where=c < 0)
            out.append(exps)
        return out

    def __repr__(self):
        mod = ",".join(str(c) for c in self.modulus)
        return f"FieldCtx(GF({self.p}^{self.m}), modulus=[{mod}])"


def _exp_by_doubling(p: int, m: int, mod) -> np.ndarray:
    """The digits (p^m - 1, m), constant first, of X^0..X^(p^m - 2) modulo
    mod, by doubling: the digits of X t are those of t times the companion
    matrix C (row vectors), so with the digits of X^0..X^(n-1) as rows,
    those of X^n..X^(2n-1) are the same rows times C^n.  InvariantViolation
    unless X^(p^m - 1) = 1.  The products are int32 where that is exact,
    m (p-1)^2 < 2^31 (at every m > 1 under the table rule), else int64."""
    order = p ** m - 1
    exact = np.int32 if m * (p - 1) ** 2 < 1 << 31 else np.int64
    companion = _companions(p, m, [mod[:m]])[0].astype(exact)
    digits = np.zeros((order, m), dtype=np.min_scalar_type(p - 1))
    digits[0, 0] = 1
    n, power = 1, companion
    while n < order:
        take = min(n, order - n)
        digits[n:n + take] = digits[:take] @ power % p
        n, power = n + take, power @ power % p
    if ((digits[-1] @ companion % p) != np.eye(1, m, dtype=exact)).any():
        raise InvariantViolation(f"modulus {mod} is not primitive")
    return digits


def _zech(exp, log, p: int):
    """The Zech logarithms Z(l) = log(1 + xi^l), l = 0..q-2, from the exp and
    log tables: adding 1 changes only the constant digit of the encoding,
    and log(0) = -1 gives Z = -1 where 1 + xi^l = 0."""
    low = exp % p
    return log[exp - low + (low + 1) % p]


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
    its dlog.  Carries the subfield's quadratic character on dlog arrays
    (eta_logs).  The Elem-level side (generator, membership,
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

    def eta_logs(self, l):
        """eta at the elements xi^l of this subfield, for an int64 dlog array
        (-1 for zero), as int64: 0 at zero, else (-1)^(l / step), the parity
        of the dlog to the induced generator (NotInSubfield if an element
        lies outside)."""
        l = np.asarray(l, dtype=np.int64)
        if ((l >= 0) & (l % self.step != 0)).any():
            raise NotInSubfield(f"an element is not in GF({self.ctx.p}^{self.degree})")
        return np.where(l < 0, 0, 1 - 2 * (l // self.step % 2))

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
