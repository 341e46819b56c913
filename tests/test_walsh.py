import random

import pytest

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
    assert not wa.is_bent(spec)


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
    assert [c.c for c in fast.coefficients] == [c.c for c in ref.coefficients]


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
        assert wa.is_bent(spec, spectrum)
        assert wa.is_weakly_regular_neg(spec, spectrum)
        assert len(spectrum.norms) == ctx.q
        assert all(n == c.norm_squared()
                   for n, c in zip(spectrum.norms, spectrum.coefficients))


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
    for i, (y, c) in enumerate(zip([ctx.zero] + list(ctx.powers()), spectrum.coefficients)):
        report = wa.theorem1_verify(ctx, y, c)
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
