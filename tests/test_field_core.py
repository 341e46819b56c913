import ast
import builtins
import functools
import os
import random
import re
import subprocess
import symtable
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsum
from charsum import field_core
from charsum import reference as ref
from charsum.errors import (
    DegreeUnsupported,
    DivisionByZero,
    EvenCharacteristic,
    GuardExceeded,
    InvariantViolation,
    NonPrimeP,
    NotInSubfield,
    ZeroArgument,
)
from charsum.field_core import (
    FieldCtx,
    FieldParams,
    build_context,
    context,
    first_primitive_modulus,
)


# --------------------------------------------------------------------------
# independent oracle: find the first primitive monic polynomial by walking
# the full power cycle of X (no factored order test, no shared code)
# --------------------------------------------------------------------------

def _oracle_first_primitive(p, m):
    q = p ** m

    def mul_by_x(t, cand):
        lead = t[-1]
        out = [0] + list(t[:-1])
        if lead:
            for j in range(m):
                out[j] = (out[j] - lead * cand[j]) % p
        return tuple(out)

    for code in range(q):
        cand, c = [], code
        for _ in range(m):
            c, r = divmod(c, p)
            cand.append(r)
        if cand[0] == 0:
            continue  # X is not invertible
        one = (1,) + (0,) * (m - 1)
        t = mul_by_x(one, cand)  # X itself
        steps = 1
        while t != one and steps <= q:
            t = mul_by_x(t, cand)
            steps += 1
        if steps == q - 1:
            return tuple(cand) + (1,)
    raise AssertionError("no primitive polynomial found")


def test_modulus_matches_enumeration_oracle():
    assert first_primitive_modulus(3, 1) == _oracle_first_primitive(3, 1) == (1, 1)
    assert first_primitive_modulus(3, 4) == _oracle_first_primitive(3, 4) == (2, 1, 0, 0, 1)
    assert first_primitive_modulus(5, 2) == _oracle_first_primitive(5, 2)
    assert first_primitive_modulus(7, 2) == _oracle_first_primitive(7, 2)


# the modulus at m = k, 2k and 4k of every table size, (p, 1) for p up to
# 31 and (3, 2), (5, 2), (3, 3): a different one would relabel every
# "g^e" the commands print
PINNED_MODULI = {
    (3, 1): (1, 1), (3, 2): (2, 1, 1), (3, 4): (2, 1, 0, 0, 1),
    (5, 1): (2, 1), (5, 2): (2, 1, 1), (5, 4): (2, 2, 1, 0, 1),
    (7, 1): (2, 1), (7, 2): (3, 1, 1), (7, 4): (5, 3, 1, 0, 1),
    (11, 1): (3, 1), (11, 2): (7, 1, 1), (11, 4): (2, 1, 0, 0, 1),
    (13, 1): (2, 1), (13, 2): (2, 1, 1), (13, 4): (2, 1, 1, 0, 1),
    (17, 1): (3, 1), (17, 2): (3, 1, 1), (17, 4): (11, 1, 0, 0, 1),
    (19, 1): (4, 1), (19, 2): (2, 1, 1), (19, 4): (10, 2, 0, 0, 1),
    (23, 1): (2, 1), (23, 2): (7, 1, 1), (23, 4): (11, 1, 0, 0, 1),
    (29, 1): (2, 1), (29, 2): (3, 1, 1), (29, 4): (19, 1, 0, 0, 1),
    (31, 1): (7, 1), (31, 2): (12, 1, 1), (31, 4): (17, 2, 0, 0, 1),
    (3, 8): (2, 0, 0, 1, 0, 0, 0, 0, 1), (5, 8): (3, 2, 1, 0, 0, 0, 0, 0, 1),
    (3, 3): (1, 2, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 12): (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1),
}


def test_modulus_pinned_at_every_table_size():
    assert {pm: first_primitive_modulus(*pm) for pm in PINNED_MODULI} == PINNED_MODULI


def test_gf3_context_is_z3_with_xi_two():
    ctx = context(3, 1, m=1)
    assert ctx.modulus == (1, 1)
    assert ctx.xi.coeffs == (2,)


def test_construction_errors():
    with pytest.raises(NonPrimeP):
        FieldParams(4, 1)
    with pytest.raises(EvenCharacteristic):
        FieldParams(2, 1)
    with pytest.raises(DegreeUnsupported):
        build_context(FieldParams(3, 1), 3)


def test_params_shape():
    params = FieldParams(3, 1)
    assert params.n == 4 and params.d == 34
    assert FieldParams(5, 1).d == 146  # 5^3 + 5^2 - 5 + 1
    assert FieldParams(3, 2).d == 802  # 3^6 + 3^4 - 3^2 + 1


# --------------------------------------------------------------------------
# arithmetic
# --------------------------------------------------------------------------

def test_inverse_round_trip(ctx31):
    rng = random.Random(101)
    for _ in range(50):
        x = ctx31.from_exp(rng.randrange(ctx31.order))
        assert x.inverse() * x == ctx31.one
        assert x / x == ctx31.one
    with pytest.raises(DivisionByZero):
        ctx31.zero.inverse()


def test_xi_has_maximal_order(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        assert ctx.xi ** ctx.order == ctx.one
        from charsum.field_core import prime_factors
        for r in prime_factors(ctx.order):
            assert ctx.xi ** (ctx.order // r) != ctx.one


def test_frobenius_fixes_field(ctx31):
    # x^(p^m) = x for every x; x^p permutes with unchanged trace
    for x in ref.elements(ctx31.subfield(4)):
        assert x ** ctx31.q == x
        assert ctx31.abs_trace(x ** ctx31.p) == ctx31.abs_trace(x)


def test_zero_power_conventions(ctx31):
    assert ctx31.zero ** 0 == ctx31.one
    assert ctx31.zero ** 5 == ctx31.zero
    with pytest.raises(DivisionByZero):
        ctx31.zero ** -1


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------

def test_trace_of_zero(ctx31):
    assert ctx31.abs_trace(ctx31.zero) == 0


def test_trace_transitivity(ctx31):
    kview = ctx31.subfield(1)
    for x in ref.elements(ctx31.subfield(4)):
        stepped = ref.abs_trace(kview, ctx31.rel_trace(x, 1))
        assert stepped == ctx31.abs_trace(x)


def test_trace_surjectivity_counts(ctx31):
    counts = [0] * ctx31.p
    for x in ref.elements(ctx31.subfield(4)):
        counts[ctx31.abs_trace(x)] += 1
    assert counts == [ctx31.p ** (ctx31.m - 1)] * ctx31.p


def test_rel_trace_lands_in_subfield(ctx31):
    view2 = ctx31.subfield(2)
    for x in ref.elements(ctx31.subfield(4)):
        assert ref.contains(view2, ctx31.rel_trace(x, 2))
    with pytest.raises(NotInSubfield):
        # xi is not in GF(9), so there is no trace from GF(9) at it
        ctx31.rel_trace(ctx31.xi, 1, from_degree=2)


# --------------------------------------------------------------------------
# subfields, characters, logs
# --------------------------------------------------------------------------

def test_subfield_membership_counts(ctx31):
    for degree, size in ((1, 3), (2, 9), (4, 81)):
        view = ctx31.subfield(degree)
        assert sum(ref.contains(view, x) for x in ref.elements(ctx31.subfield(4))) == size
        assert sum(1 for _ in ref.elements(view)) == size


def test_quadratic_character_basics(ctx31):
    view = ctx31.subfield(2)
    assert ref.eta(view, ctx31.one) == 1
    assert ref.eta(view, ref.generator(view)) == -1
    assert ref.eta(view, ctx31.zero) == 0
    with pytest.raises(NotInSubfield):
        ref.eta(view, ctx31.xi)


def test_quadratic_character_multiplicative(ctx31):
    view = ctx31.subfield(2)
    rng = random.Random(7)
    elems = list(ref.nonzero_elements(view))
    for _ in range(100):
        x, y = rng.choice(elems), rng.choice(elems)
        assert ref.eta(view, x) * ref.eta(view, y) == ref.eta(view, x * y)


@pytest.mark.parametrize("p,k,degree", [(3, 1, 1), (3, 1, 2), (3, 1, 4), (5, 1, 2), (3, 2, 4)])
def test_square_counts(p, k, degree):
    view = context(p, k).subfield(degree)
    squares = sum(1 for x in ref.nonzero_elements(view) if ref.eta(view, x) == 1)
    assert squares == (view.q - 1) // 2


def test_discrete_log(ctx31):
    view = ctx31.subfield(2)
    assert ref.discrete_log(view, ctx31.one) == 0
    assert ref.discrete_log(view, ref.generator(view) ** 5) == 5
    for e, x in enumerate(ref.nonzero_elements(view)):
        assert ref.discrete_log(view, x) == e
        assert ref.generator(view) ** ref.discrete_log(view, x) == x
    with pytest.raises(ZeroArgument):
        ref.discrete_log(view, ctx31.zero)
    with pytest.raises(NotInSubfield):
        ref.discrete_log(view, ctx31.xi)


# --------------------------------------------------------------------------
# the no-table fallback must agree with the table-backed paths
# --------------------------------------------------------------------------

def test_slow_path_matches_tables(ctx31):
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    assert not slow.has_tables and slow.modulus == ctx31.modulus
    rng = random.Random(13)
    for _ in range(40):
        e1, e2 = rng.randrange(slow.order), rng.randrange(slow.order)
        x, y = slow.from_exp(e1), slow.from_exp(e2)
        xt, yt = ctx31.from_exp(e1), ctx31.from_exp(e2)
        assert (x * y).enc == (xt * yt).enc
        # addition and the absolute trace have one scalar body, so the
        # table context answers through its bulk primitives
        assert (x + y).enc == ctx31.add_enc_bulk(xt.enc, yt.enc)
        assert (x ** 7).enc == (xt ** 7).enc
        assert slow.abs_trace(x) == ctx31.trace_enc_bulk(xt.enc)
        assert slow.dlog(x) == e1  # baby-step giant-step route
    sub = slow.subfield(2)
    for e, x in enumerate(ref.nonzero_elements(sub)):
        assert ref.discrete_log(sub, x) == e


@pytest.mark.parametrize("use_tables", [True, False])
def test_bulk_ops_match_scalar(use_tables):
    # every bulk operation, table path and per-element fallback, against
    # the scalar operations at every encoding of GF(3^4)
    ctx = build_context(FieldParams(3, 1), 4, use_tables=use_tables)
    assert ctx.has_tables is use_tables
    u = np.arange(ctx.q, dtype=np.int64)
    v = u[::-1].copy()
    assert ctx.add_enc_bulk(u, v).tolist() == [ctx.add_enc(a, b) for a, b in zip(range(81), v)]
    assert ctx.add_enc_bulk(u, 5).tolist() == [ctx.add_enc(a, 5) for a in range(81)]
    for e in (1, 2, 7, 40, 80, 81, 10 * 80 + 3):
        assert ctx.pow_enc_bulk(u, e).tolist() == [ctx.pow_enc(a, e) for a in range(81)]
    with pytest.raises(ValueError):
        ctx.pow_enc_bulk(u, 0)
    logs = np.arange(-80, 2 * 80, dtype=np.int64)
    assert ctx.exp_enc_bulk(logs).tolist() == [ctx.pow_enc(ctx.xi.enc, int(e)) for e in logs]
    assert ctx.log_enc_bulk(u[1:]).tolist() == [ctx.dlog(ctx.from_enc(a)) for a in range(1, 81)]
    with pytest.raises(ZeroArgument):
        ctx.log_enc_bulk(u)
    assert ctx.trace_enc_bulk(u).tolist() == [ctx.abs_trace(ctx.from_enc(a)) for a in range(81)]
    for bulk in (ctx.exp_enc_bulk(logs), ctx.log_enc_bulk(u[1:]), ctx.trace_enc_bulk(u)):
        assert bulk.dtype == np.int64
    # the scalar operations with one body for both kinds of context, against
    # digit arithmetic mod p and the powers of each subfield's generator

    def digitwise(a, b, sign):
        return ctx.encode([x + sign * y for x, y in zip(ctx.decode(a), ctx.decode(b))])

    for a in range(ctx.q):
        assert [ctx.sub_enc(a, b) for b in range(ctx.q)] == [
            digitwise(a, b, -1) for b in range(ctx.q)]
        assert ctx.neg_enc_one(a) == digitwise(0, a, -1)
        if a:
            assert ctx.mul_enc(a, ctx.inv_enc(a)) == 1
    with pytest.raises(DivisionByZero):
        ctx.inv_enc(0)
    for degree in (1, 2, 4):
        view = ctx.subfield(degree)
        members = [x.enc for x in ref.nonzero_elements(view)]
        assert len(set(members)) == ctx.p ** degree - 1
        inside = [a for a in range(ctx.q) if ref.contains(view, ctx.from_enc(a))]
        assert inside == sorted([0] + members)
        logs = [ref.discrete_log(view, ctx.from_enc(a)) for a in members]
        assert logs == list(range(len(members)))
        for a in set(range(1, ctx.q)) - set(members):
            with pytest.raises(NotInSubfield):
                ref.discrete_log(view, ctx.from_enc(a))
        with pytest.raises(ZeroArgument):
            ref.discrete_log(view, ctx.zero)


def test_table_context_holds_four_arrays():
    # a table context holds the exp, log and trace tables and the half-width
    # addition table, all int64, and nothing else as an array; a context
    # without tables holds none
    def arrays(ctx):
        return {name: value.dtype for name, value in vars(ctx).items()
                if isinstance(value, np.ndarray)}

    assert arrays(build_context(FieldParams(3, 1), 4)) == dict.fromkeys(
        ("exp_enc", "log_enc", "trace_enc", "add_table"), np.int64)
    assert arrays(build_context(FieldParams(3, 1), 4, use_tables=False)) == {}


def test_scalar_add_and_trace_do_not_read_the_tables():
    # scalar addition and the absolute trace have one body, digit sums and
    # the Frobenius sum, so on a table context they are references of
    # add_enc_bulk and trace_enc_bulk: with one entry of the addition table
    # and one of the trace table corrupted after the build, the bulk
    # primitives disagree with them exactly where those entries are read
    ctx = build_context(FieldParams(3, 1), 4)
    s, x, y, bad = ctx.add_side, 4, 7, 50
    ctx.add_table[x * s + y] = (ctx.add_table[x * s + y] + 1) % s
    ctx.trace_enc[bad] = (ctx.trace_enc[bad] + 1) % ctx.p
    u, v = (a.ravel() for a in np.meshgrid(np.arange(ctx.q), np.arange(ctx.q), indexing="ij"))
    scalar = np.array([ctx.add_enc(int(a), int(b)) for a, b in zip(u, v)])
    # s^2 pairs read the entry through their high halves, s^2 through their
    # low halves, and one pair through both
    served = ((u // s == x) & (v // s == y)) | ((u % s == x) & (v % s == y))
    assert served.sum() == 2 * s * s - 1
    assert ((ctx.add_enc_bulk(u, v) != scalar) == served).all()
    traces = [ctx.abs_trace(ctx.from_enc(a)) for a in range(ctx.q)]
    assert np.flatnonzero(ctx.trace_enc_bulk(np.arange(ctx.q)) != traces).tolist() == [bad]


@functools.cache
def _slow_context(p, k, m):
    return build_context(FieldParams(p, k), m, use_tables=False)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(pkm=st.sampled_from([(3, 1, 4), (5, 1, 4), (7, 1, 4), (3, 2, 8), (3, 3, 3), (5, 1, 1)]),
       data=st.data())
def test_bulk_primitives_match_slow_context_property(pkm, data):
    # each bulk primitive: the table path against the per-element fallback
    # of a use_tables=False context of the same field, on random encodings
    # in a random 1-d or 2-d shape; odd degrees split the encodings into
    # unequal halves for the addition table
    fast, slow = context(*pkm), _slow_context(*pkm)
    assert fast.has_tables and not slow.has_tables and fast.modulus == slow.modulus
    shape = data.draw(st.sampled_from([(5,), (2, 3), (1, 4)]), label="shape")
    size = int(np.prod(shape))

    def encodings(lo, label):
        drawn = data.draw(st.lists(st.integers(lo, fast.q - 1), min_size=size, max_size=size),
                          label=label)
        return np.array(drawn, dtype=np.int64).reshape(shape)

    u, v, nonzero = encodings(0, "u"), encodings(0, "v"), encodings(1, "nonzero")
    logs = np.array(data.draw(st.lists(st.integers(-2 * fast.order, 2 * fast.order),
                                       min_size=size, max_size=size), label="logs")).reshape(shape)
    e = data.draw(st.integers(1, 3 * fast.order), label="e")
    for name, args in (("exp_enc_bulk", (logs,)), ("log_enc_bulk", (nonzero,)),
                       ("trace_enc_bulk", (u,)), ("add_enc_bulk", (u, v)),
                       ("add_enc_bulk", (u, int(v.flat[0]))), ("pow_enc_bulk", (u, e))):
        got, want = getattr(fast, name)(*args), getattr(slow, name)(*args)
        assert got.shape == want.shape == shape and got.dtype == want.dtype == np.int64, name
        assert got.tolist() == want.tolist(), name
    # the evaluator, with one coefficient row per sum (a zero coefficient
    # among them) and negative and zero exponents, against the per-element
    # fallback and against scalar arithmetic
    coefficient = st.integers(-1, fast.order - 1)
    row = np.array([-1] + data.draw(st.lists(coefficient, min_size=2, max_size=2), label="row"))
    terms = ((row, data.draw(st.integers(-2 * fast.order, 2 * fast.order), label="e")),
             (data.draw(coefficient, label="c0"), 0),
             (data.draw(coefficient, label="c1"), -data.draw(st.integers(1, fast.order), label="-e")))
    got, want = fast.sum_enc_bulk(terms, logs.ravel()), slow.sum_enc_bulk(terms, logs.ravel())
    assert got.shape == want.shape == (3, size) and got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()

    def scalar(r, log):
        # row r at x = xi^log: sum of c x^e, each factor by scalar arithmetic
        x, total = fast.pow_enc(fast.xi.enc, log), 0
        for c, e in terms:
            c = int(np.broadcast_to(c, 3)[r])
            if c >= 0:
                term = fast.mul_enc(fast.pow_enc(fast.xi.enc, c), fast.pow_enc(x, e))
                total = fast.add_enc(total, term)
        return total
    assert got.tolist() == [[scalar(r, int(log)) for log in logs.ravel()] for r in range(3)]
    x, y = int(u.flat[0]), int(v.flat[0])
    for name in ("add_enc", "sub_enc"):
        assert getattr(fast, name)(x, y) == getattr(slow, name)(x, y), name
    for degree in (d for d in range(1, fast.m + 1) if fast.m % d == 0):
        sub = fast.subfield(degree)
        members = fast.exp_enc_bulk(sub.step * logs) * (u % 2)  # some zeros among them
        want = [ref.eta(sub, fast.from_enc(int(a))) for a in members.ravel()]
        for ctx in (fast, slow):
            assert ctx.subfield(degree).eta_bulk(members).ravel().tolist() == want, degree


def test_addition_table_self_check(monkeypatch):
    # the half-width addition table is checked when the tables are built:
    # 0 must be neutral, and x + (-x) = 0 at every encoding
    real = field_core._digitwise_sums
    for x, y in ((5, 0), (1, 2)):  # (1, 2): 1 + 2 = 0 digitwise at p = 3

        def corrupt(digits, p, x=x, y=y):
            table = real(digits, p).copy()
            s = len(digits)
            table[x * s + y] = (table[x * s + y] + 1) % s
            return table

        monkeypatch.setattr(field_core, "_digitwise_sums", corrupt)
        with pytest.raises(InvariantViolation, match="addition table"):
            build_context(FieldParams(3, 1), 4)


@pytest.mark.parametrize("modulus, message", [
    ((0, 0, 0, 0, 1), "not primitive"),  # X^4: X is not a unit, so X^80 != 1
    ((1, 1, 1, 1, 1), "collisions"),  # irreducible, but X^5 = 1: the exp table repeats
], ids=["X-not-a-unit", "X-of-order-5"])
def test_table_build_refuses_a_non_primitive_modulus(modulus, message):
    with pytest.raises(InvariantViolation, match=message):
        FieldCtx(FieldParams(3, 1), 4, modulus)


def test_exp_table_matches_powers_of_xi(ctx32):
    # the doubled exp table against polynomial powers of xi, at every exponent
    slow = build_context(FieldParams(3, 2), 8, use_tables=False)
    assert ctx32.exp_enc.tolist() == [slow.pow_enc(slow.xi.enc, e) for e in range(slow.order)]


@pytest.mark.parametrize("which", ["ctx31", "ctx32", "slow32", "gf37"])
def test_key_tables_match_field_arithmetic(which, request, key_encodings):
    # mul, inv and axpy of the keys of GF(p^k) against mul_enc, add_enc and
    # inv_enc of the ambient field, at all Q^2 and Q^3 inputs; GF(37) in
    # GF(37^2) has Q^3 = 50,653 > 2^15 axpy entries
    ctx = (build_context(FieldParams(3, 2), 8, use_tables=False) if which == "slow32"
           else context(37, 1, 2) if which == "gf37" else request.getfixturevalue(which))
    view = ctx.subfield(ctx.params.k)
    arith, encs = view.key_arithmetic(), [int(e) for e in key_encodings(view)]
    q, key = arith.q, {e: K for K, e in enumerate(encs)}
    assert q == view.q and arith.inv[0] == 0
    assert arith.mul.dtype == arith.inv.dtype == arith.axpy.dtype == np.int64
    minus_one = ctx.p - 1
    for x in range(q):
        if x:
            assert key[ctx.inv_enc(encs[x])] == arith.inv[x]
        for v in range(q):
            assert key[ctx.mul_enc(encs[x], encs[v])] == arith.mul[x * q + v]
            for f in range(q):
                fv = ctx.mul_enc(minus_one, ctx.mul_enc(encs[f], encs[v]))
                assert key[ctx.add_enc(encs[x], fv)] == arith.axpy[(x * q + f) * q + v]


def test_key_arithmetic_self_check(monkeypatch):
    # the keys are checked when their tables are built: one to one onto
    # 1..Q-1, and the key of a sum the digitwise sum of the keys
    with pytest.raises(DegreeUnsupported):  # GF(3) in GF(3^3): its trace is not 3^(-1) Tr
        context(3, 3, 3).subfield(1).key_arithmetic()
    ctx = build_context(FieldParams(3, 2), 8)
    monkeypatch.setattr(ctx, "trace_enc_bulk", lambda u: np.zeros(np.shape(u), dtype=np.int64))
    with pytest.raises(InvariantViolation, match="not one to one"):
        ctx.subfield(2).key_arithmetic()
    monkeypatch.undo()
    real = field_core._digitwise_sums

    def corrupt(digits, p):
        table = real(digits, p).copy()
        table[len(digits) + 2] = 3  # the keys 1 and 2 add digitwise to 0 at p = 3
        return table

    monkeypatch.setattr(field_core, "_digitwise_sums", corrupt)
    with pytest.raises(InvariantViolation, match="not additive"):
        ctx.subfield(2).key_arithmetic()


def test_odd_degree_tables_fit_the_limit():
    # at odd m the addition table has p q entries, and tables are built only
    # when it fits: 1021^2 <= 2^20 < 1031^2; beyond the rule a field is
    # refused, unless it is asked for without tables
    assert build_context(FieldParams(1021, 1), 1).has_tables
    with pytest.raises(GuardExceeded, match=r"GF\(1031\^1\) is beyond the lookup tables"):
        build_context(FieldParams(1031, 1), 1)
    assert not build_context(FieldParams(1031, 1), 1, use_tables=False).has_tables
    assert context(3, 3, 3).has_tables and context(5, 1, 1).has_tables


def test_sum_enc_bulk_is_exact_past_int64_without_tables():
    # GF(3^20) without tables has (q - 1)^2 >= 2^63: the exponent
    # 0 + (q - 3)(q - 2) is 2 modulo q - 1, where an int64 product wraps
    ctx = build_context(FieldParams(3, 5), 20, use_tables=False)
    order = ctx.order
    assert order ** 2 >= 1 << 63
    got = ctx.sum_enc_bulk([(0, order - 2)], np.array([order - 1]))
    assert got.tolist() == [ctx.pow_enc(ctx.xi.enc, 2)] == [9]


def test_context_defaults_to_the_big_field_once():
    # context(p, k) and context(p, k, 4k) are one context, with one set of tables
    assert context(3, 1) is context(3, 1, 4) is context(3, 1, None)
    assert context(3, 1, 2) is not context(3, 1)


def test_guard_refuses_before_the_modulus_search():
    # GF(3^80) is refused at once: the rule is applied before the search for
    # a primitive modulus of degree 80, which would not finish
    code = ("from charsum.errors import GuardExceeded\n"
            "from charsum.field_core import FieldParams, build_context\n"
            "try:\n    build_context(FieldParams(3, 20), 80)\n"
            "except GuardExceeded as exc:\n    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(charsum.__file__).resolve().parent.parent),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "GF(3^80) is beyond the lookup tables of 1048576 entries\n"


def test_eta_bulk_refuses_outside_the_subfield(ctx31):
    with pytest.raises(NotInSubfield):
        ctx31.subfield(2).eta_bulk(np.array([0, 1, ctx31.xi.enc]))


def test_no_assert_statements():
    # python -O strips assert statements: every check in the package raises
    package = Path(charsum.__file__).resolve().parent
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_every_global_a_function_reads_is_bound():
    # a global name that a function reads but no module-level statement
    # binds is a NameError waiting on the branch that reads it
    package = Path(charsum.__file__).resolve().parent
    unbound = []
    for path in sorted(package.glob("*.py")):
        top = symtable.symtable(path.read_text(), str(path), "exec")
        bound = {sym.get_name() for sym in top.get_symbols()
                 if sym.is_assigned() or sym.is_imported()} | set(dir(builtins))
        tables = list(top.get_children())
        while tables:
            table = tables.pop()
            tables.extend(table.get_children())
            unbound += [f"{path.stem}.{table.get_name()}: {sym.get_name()}"
                        for sym in table.get_symbols()
                        if sym.is_global() and sym.is_referenced()
                        and sym.get_name() not in bound]
    assert unbound == []


# --------------------------------------------------------------------------
# parsing / formatting
# --------------------------------------------------------------------------

def test_parse_and_format(ctx31):
    assert ctx31.parse_element("g^5") == ctx31.xi ** 5
    assert ctx31.parse_element("g^-1") == ctx31.xi.inverse()
    assert ctx31.parse_element("1,2,0,1") == ctx31.elem([1, 2, 0, 1])
    assert ctx31.parse_element("2") == ctx31.elem([2])      # short vectors pad
    assert ctx31.parse_element("0") == ctx31.zero
    for text in ("3", "5", "1,-1", "0,0,0,3"):  # base-p digits lie in 0..p-1
        with pytest.raises(ValueError, match="0..2"):
            ctx31.parse_element(text)
    for text in ("", "g^", "g^x", "1,,2", "h"):  # the error names the element
        with pytest.raises(ValueError, match=re.escape(f"element {text!r} is neither g^e")):
            ctx31.parse_element(text)
    assert ctx31.format_element(ctx31.zero) == field_core.label(-1) == "0"
    assert ctx31.parse_element(field_core.label(-1)) == ctx31.zero
    for e in (0, 1, 17, 79):
        assert ctx31.parse_element(ctx31.format_element(ctx31.from_exp(e))) == ctx31.from_exp(e)
        assert ctx31.parse_element(field_core.label(np.int64(e))) == ctx31.from_exp(e)


def test_elem_identity(ctx31):
    x = ctx31.xi
    assert x == ctx31.from_exp(1)
    assert x != ctx31.one
    assert -ctx31.one == ctx31.elem([2])
    with pytest.raises(AttributeError):
        x.enc = 3


# --------------------------------------------------------------------------
# field_core is the one owner of the field representation
# --------------------------------------------------------------------------

def test_only_field_core_reads_tables():
    # every other module computes through the FieldCtx bulk primitives and
    # never asks whether a context has tables
    pattern = re.compile(r"has_tables|exp_enc\b|log_enc\b|trace_enc\b|\.digits\b"
                         r"|neg_enc\b|pow_basis|add_table\b|add_side\b|_tables\(")
    package = Path(charsum.__file__).resolve().parent
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(package.glob("*.py")) if path.name != "field_core.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []
