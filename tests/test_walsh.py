import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charsum import context
from charsum import walsh as wa
from charsum.cycint import CycInt
from charsum.errors import RootCountViolation
from charsum.expsum import CoeffPair, S0_bruteforce
from charsum.field_core import FieldParams, build_context


def spec_of(ctx, a, b):
    return wa.FunctionSpec(ctx, CoeffPair(a, b))


def test_function_symmetry(ctx31):
    # both exponents even: f(0) = 0 and f(-x) = f(x)
    spec = spec_of(ctx31, ctx31.xi ** 3, ctx31.xi ** 7)
    assert spec.value(ctx31.zero) == 0
    for x in ctx31.elements():
        assert spec.value(-x) == spec.value(x)


def test_walsh_coeff_degenerate_pair(ctx31):
    spec = spec_of(ctx31, ctx31.zero, ctx31.zero)
    assert wa.walsh_coeff(spec, ctx31.zero) == 81
    assert not wa.full_spectrum(spec).bent


def test_walsh_coeff_11(ctx31):
    spec = spec_of(ctx31, ctx31.one, ctx31.one)
    assert wa.walsh_coeff(spec, ctx31.zero) == -9
    rng = random.Random(9)
    for _ in range(10):
        y = ctx31.from_enc(rng.randrange(ctx31.q))
        assert wa.walsh_coeff(spec, y).norm_squared() == 81


def test_walsh_coeff_matches_plain_sum(ctx31):
    # definitional recount without any tables or caching, and the one-pass
    # transform of full_spectrum against the per-point walsh_coeff at every y
    spec = spec_of(ctx31, ctx31.xi ** 2, ctx31.xi ** 11)
    spectrum = wa.full_spectrum(spec)
    for y in ctx31.elements():
        assert spectrum.coefficient(y) == wa.walsh_coeff(spec, y)
    rng = random.Random(10)
    for _ in range(5):
        y = ctx31.from_enc(rng.randrange(ctx31.q))
        counts = [0] * 3
        for x in ctx31.elements():
            counts[(spec.value(x) - ctx31.abs_trace(y * x)) % 3] += 1
        assert wa.walsh_coeff(spec, y) == CycInt.from_counts(3, counts)


def test_coefficient_at_zero_is_exponential_sum(ctx31):
    # module cross-consistency over the entire admissible grid
    for b in ctx31.elements():
        for a in ctx31.elements():
            if a.is_zero and b.is_zero:
                continue
            spec = spec_of(ctx31, a, b)
            assert wa.walsh_coeff(spec, ctx31.zero) == S0_bruteforce(ctx31, CoeffPair(a, b))


def test_spectrum_even_symmetry(ctx31):
    spec = spec_of(ctx31, ctx31.one, ctx31.one)
    spectrum = wa.full_spectrum(spec)
    for y in ctx31.elements():
        assert spectrum.coefficient(y) == spectrum.coefficient(-y)


def test_spectrum_counts_31(ctx31):
    spectrum = wa.full_spectrum(spec_of(ctx31, ctx31.one, ctx31.one))
    want = {
        str(CycInt.integer(3, -9)): 21,
        str(-9 * CycInt.omega_power(3, 1)): 30,
        str(-9 * CycInt.omega_power(3, 2)): 30,
    }
    assert spectrum.summary == want
    assert spectrum.parseval == 81 ** 2


def test_full_spectrum_matches_slow_context(ctx31):
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    fast = wa.full_spectrum(spec_of(ctx31, ctx31.xi ** 5, ctx31.xi ** 11))
    ref = wa.full_spectrum(spec_of(slow, slow.xi ** 5, slow.xi ** 11))
    assert ([fast.coefficient(y).c for y in ctx31.elements()]
            == [ref.coefficient(y).c for y in slow.elements()])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pk=st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]),
       a=st.integers(0, 2 ** 20), b=st.integers(0, 2 ** 20),
       ys=st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=4))
@example(pk=(5, 1), a=0, b=0, ys=[0, 1])       # degenerate pair, not bent
@example(pk=(3, 2), a=0, b=7, ys=[0, 40])      # a = 0
@example(pk=(7, 1), a=3, b=0, ys=[5])          # b = 0
@example(pk=(5, 1), a=1, b=125, ys=[0, 2, 3])  # (g^0, g^3): not bent
@example(pk=(3, 2), a=1, b=1, ys=[0, 9])       # (1, 1): bent
def test_full_spectrum_matches_walsh_coeff_property(pk, a, b, ys):
    # the transform of full_spectrum against the definitional walsh_coeff at
    # random y, every distinct value's norm against norm_squared, and bent
    # against the norms of the distinct rows found by np.unique; a, b and y
    # are encodings reduced mod q
    ctx = context(*pk)
    spec = spec_of(ctx, ctx.from_enc(a % ctx.q), ctx.from_enc(b % ctx.q))
    spectrum = wa.full_spectrum(spec)
    for y in ys:
        y = ctx.from_enc(y % ctx.q)
        assert spectrum.coefficient(y) == wa.walsh_coeff(spec, y)
    for row, (c, n) in spectrum.values.items():
        assert c == CycInt.from_counts(ctx.p, row)
        assert n == c.norm_squared()
    distinct = np.unique(spectrum.counts, axis=0)
    assert len(distinct) == len(spectrum.values)
    norms = [CycInt.from_counts(ctx.p, row).norm_squared() for row in distinct]
    assert spectrum.bent == all(n == ctx.q for n in norms)


def test_spectrum_counts_51(ctx51):
    spectrum = wa.full_spectrum(spec_of(ctx51, ctx51.one, ctx51.one))
    want = {str(CycInt.integer(5, -25)): 105}
    for i in range(1, 5):
        want[str(-25 * CycInt.omega_power(5, i))] = 130
    assert spectrum.summary == want
    assert spectrum.parseval == 625 ** 2


def test_parseval_random_pairs(ctx31):
    rng = random.Random(12)
    for _ in range(10):
        a = ctx31.from_enc(rng.randrange(ctx31.q))
        b = ctx31.from_enc(rng.randrange(ctx31.q))
        spectrum = wa.full_spectrum(spec_of(ctx31, a, b))
        assert spectrum.parseval == 81 ** 2  # asserted inside, rechecked here


def test_inverse_transform_round_trip(ctx31):
    # sum_y S_f(y) w^Tr(yx) = p^n w^f(x), spot-checked at every x
    spec = spec_of(ctx31, ctx31.one, ctx31.one)
    spectrum = wa.full_spectrum(spec)
    for x in ctx31.elements():
        acc = CycInt.zero(3)
        for y in ctx31.elements():
            acc = acc + spectrum.coefficient(y).omega_shift(ctx31.abs_trace(y * x))
        assert acc == 81 * CycInt.omega_power(3, spec.value(x))


def test_bent_and_weakly_regular(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        spec = spec_of(ctx, ctx.one, ctx.one)
        spectrum = wa.full_spectrum(spec)
        assert spectrum.bent
        assert spectrum.weakly_regular_neg
        assert len(spectrum.counts) == ctx.q
        assert all(n == c.norm_squared() for c, n in spectrum.values.values())


def test_spectrum_check_builds_one_cycint_per_value(ctx51, monkeypatch):
    # one CycInt per distinct coefficient (p on the (1, 1) spectrum), not per y
    calls = {"from_counts": 0}
    real = CycInt.from_counts.__func__

    def counted(cls, p, counts):
        calls["from_counts"] += 1
        return real(cls, p, counts)

    monkeypatch.setattr(CycInt, "from_counts", classmethod(counted))
    assert wa.theorem1_spectrum_check(ctx51).ok(ctx51)
    assert calls["from_counts"] <= ctx51.p


def test_root_verification_at_zero(ctx31):
    report = wa.theorem1_verify(ctx31, ctx31.zero)
    assert report.x0 == ctx31.zero
    assert report.coeff == -9
    assert report.formula_ok and report.special_ok


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_root_verification_everywhere(fixture, request):
    ctx = request.getfixturevalue(fixture)
    view2k = ctx.subfield(2 * ctx.params.k)
    specials = 0
    for y in ctx.elements():
        report = wa.theorem1_verify(ctx, y)  # raises on a non-unique root
        assert report.formula_ok
        if view2k.contains(y * y):
            assert report.special_ok is True
            specials += 1
    assert specials > 1  # the shortcut domain is non-trivial


def test_full_spectrum_check(ctx31):
    chk = wa.theorem1_spectrum_check(ctx31)
    assert chk.roots_checked == 81
    assert chk.all_formula_ok and chk.all_special_ok and chk.counts_ok
    assert chk.bent and chk.weakly_regular
    assert chk.ok(ctx31)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_root_scan_matches_per_point(fixture, request):
    # the bulk scan against the scalar theorem1_verify at every y
    ctx = request.getfixturevalue(fixture)
    spectrum = wa.full_spectrum(spec_of(ctx, ctx.one, ctx.one))
    scan = wa.theorem1_root_scan(ctx, spectrum)
    assert scan.roots_checked == ctx.q
    for i, y in enumerate([ctx.zero] + list(ctx.powers())):
        report = wa.theorem1_verify(ctx, y, spectrum.coefficient(y))
        assert report.x0.enc == scan.x0[i]
        assert report.formula_ok == scan.formula_ok[i]
        assert report.special_ok == (bool(scan.special_ok[i]) if scan.special[i] else None)


def test_spectrum_check_matches_slow_context(ctx31):
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    assert wa.theorem1_spectrum_check(slow) == wa.theorem1_spectrum_check(ctx31)


def test_root_scan_second_root_raises(ctx31, monkeypatch):
    # a second root of the quartic at y = 0 (whose root is 0) must be caught
    real = wa._root_polynomial

    def extra_root(ctx, y2, ypow, ypow_k, x):
        vals = real(ctx, y2, ypow, ypow_k, x)
        if x == ctx.one:
            vals[0] = 0
        return vals

    monkeypatch.setattr(wa, "_root_polynomial", extra_root)
    with pytest.raises(RootCountViolation, match="2 roots at y=0;"):
        wa.theorem1_spectrum_check(ctx31)
