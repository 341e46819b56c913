import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charsum import context
from charsum import reference as ref
from charsum import walsh as wa
from charsum.cycint import CycInt
from charsum.errors import BothCoefficientsZero, RootCountViolation
from charsum.cli import run
from charsum.expsum import CoeffPair, S0_bruteforce, character_counts
from charsum.field_core import Elem, FieldParams, build_context


def _spectrum(ctx, pair):
    # full_spectrum of a pair of elements, named by their dlogs
    return wa.full_spectrum(ctx, ctx.log(pair.a), ctx.log(pair.b))


def _coefficient(ctx, spectrum, y):
    # S_f(y): y = 0 at index 0, y = xi^l at index l + 1
    return spectrum.values[spectrum.index[1 + ctx.log(y)]][0]


def test_function_symmetry(ctx31):
    # both exponents even: f(0) = 0 and f(-x) = f(x)
    pair = CoeffPair(ctx31.xi ** 3, ctx31.xi ** 7)
    assert ref.f_value(ctx31, pair, ctx31.zero) == 0
    for x in ref.elements(ctx31.subfield(4)):
        assert ref.f_value(ctx31, pair, -x) == ref.f_value(ctx31, pair, x)


def test_walsh_coeff_degenerate_pair(ctx31):
    pair = CoeffPair(ctx31.zero, ctx31.zero)
    assert ref.walsh_coeff(ctx31, pair, ctx31.zero) == 81
    # f = 0 is no pair of the paper: the spectrum refuses it, as expsum does
    with pytest.raises(BothCoefficientsZero, match=r"\(a, b\) = \(0, 0\) is not admissible"):
        _spectrum(ctx31, pair)


def test_walsh_coeff_11(ctx31):
    pair = CoeffPair(ctx31.one, ctx31.one)
    assert ref.walsh_coeff(ctx31, pair, ctx31.zero) == -9
    rng = random.Random(9)
    for _ in range(10):
        y = Elem(ctx31, int(rng.randrange(ctx31.q)))
        assert ref.walsh_coeff(ctx31, pair, y).norm_squared() == 81


def test_walsh_coeff_matches_plain_sum(ctx31):
    # definitional recount without any tables or caching, and the one-pass
    # transform of full_spectrum against the per-point walsh_coeff at every y
    pair = CoeffPair(ctx31.xi ** 2, ctx31.xi ** 11)
    spectrum = _spectrum(ctx31, pair)
    for y in ref.elements(ctx31.subfield(4)):
        assert _coefficient(ctx31, spectrum, y) == ref.walsh_coeff(ctx31, pair, y)
    rng = random.Random(10)
    for _ in range(5):
        y = Elem(ctx31, int(rng.randrange(ctx31.q)))
        counts = [0] * 3
        for x in ref.elements(ctx31.subfield(4)):
            counts[(ref.f_value(ctx31, pair, x) - ctx31.abs_trace(y * x)) % 3] += 1
        assert ref.walsh_coeff(ctx31, pair, y) == CycInt.from_counts(3, counts)


def test_coefficient_at_zero_is_exponential_sum(ctx31):
    # module cross-consistency over the entire admissible grid
    for b in ref.elements(ctx31.subfield(4)):
        for a in ref.elements(ctx31.subfield(4)):
            if a.is_zero and b.is_zero:
                continue
            pair = CoeffPair(a, b)
            assert ref.walsh_coeff(ctx31, pair, ctx31.zero) == S0_bruteforce(ctx31, pair)


def test_spectrum_even_symmetry(ctx31):
    spectrum = wa.full_spectrum(ctx31, 0, 0)
    for y in ref.elements(ctx31.subfield(4)):
        assert _coefficient(ctx31, spectrum, y) == _coefficient(ctx31, spectrum, -y)


def test_spectrum_counts_31(ctx31):
    spectrum = wa.full_spectrum(ctx31, 0, 0)
    want = {
        str(CycInt.integer(3, -9)): 21,
        str(-9 * CycInt.omega_power(3, 1)): 30,
        str(-9 * CycInt.omega_power(3, 2)): 30,
    }
    assert spectrum.summary == want
    assert spectrum.parseval == 81 ** 2


def test_full_spectrum_matches_slow_context(ctx31):
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    fast, plain = wa.full_spectrum(ctx31, 5, 11), wa.full_spectrum(slow, 5, 11)
    assert ([_coefficient(ctx31, fast, y).c for y in ref.elements(ctx31.subfield(4))]
            == [_coefficient(slow, plain, y).c for y in ref.elements(slow.subfield(4))])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pk=st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]),
       a=st.integers(0, 2 ** 20), b=st.integers(0, 2 ** 20),
       ys=st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=4))
@example(pk=(5, 1), a=0, b=0, ys=[0, 1])       # degenerate pair, refused
@example(pk=(3, 2), a=0, b=7, ys=[0, 40])      # a = 0
@example(pk=(7, 1), a=3, b=0, ys=[5])          # b = 0
@example(pk=(5, 1), a=1, b=125, ys=[0, 2, 3])  # (g^0, g^3): not bent
@example(pk=(3, 2), a=1, b=1, ys=[0, 9])       # (1, 1): bent
def test_full_spectrum_matches_walsh_coeff_property(pk, a, b, ys):
    # the transform of full_spectrum against the definitional walsh_coeff at
    # random y, every distinct value's norm against norm_squared, the
    # values and the index against the distinct rows of the transform found
    # by np.unique, and bent against their norms; a, b and y are encodings
    # reduced mod q; the pair (0, 0) is refused
    ctx = context(*pk)
    pair = CoeffPair(Elem(ctx, int(a % ctx.q)), Elem(ctx, int(b % ctx.q)))
    if pair.a.is_zero and pair.b.is_zero:
        with pytest.raises(BothCoefficientsZero):
            _spectrum(ctx, pair)
        return
    spectrum = _spectrum(ctx, pair)
    for y in ys:
        y = Elem(ctx, int(y % ctx.q))
        assert _coefficient(ctx, spectrum, y) == ref.walsh_coeff(ctx, pair, y)
    for c, n in spectrum.values:
        assert n == c.norm_squared()
    # the row of y is the row of a = -y, at the sweep position of -y (row 0
    # for y = 0 and row l + 1 for -y = xi^l): y negated digit by digit, and
    # the dlog of -y read from the log table
    weights = ctx.p ** np.arange(ctx.m)
    y_encs = np.concatenate(([0], ctx.exp_enc_bulk(np.arange(ctx.order))))
    minus_y = ctx.log_enc[-(y_encs[:, None] // weights % ctx.p) % ctx.p @ weights] + 1
    counts = character_counts(ctx, 1, ((ctx.log(pair.a), ctx.params.d), (ctx.log(pair.b), 2)))
    distinct, inverse = np.unique(counts[minus_y], axis=0, return_inverse=True)
    assert len(distinct) == len(spectrum.values)
    # equal rows have equal indexes and distinct rows distinct ones
    assert len(set(zip(inverse.tolist(), spectrum.index.tolist()))) == len(distinct)
    for u, row in enumerate(distinct):
        c, _ = spectrum.values[spectrum.index[np.argmax(inverse == u)]]
        assert c == CycInt.from_counts(ctx.p, row)
    norms = [CycInt.from_counts(ctx.p, row).norm_squared() for row in distinct]
    assert spectrum.bent == all(n == ctx.q for n in norms)


def test_spectrum_counts_51(ctx51):
    spectrum = wa.full_spectrum(ctx51, 0, 0)
    want = {str(CycInt.integer(5, -25)): 105}
    for i in range(1, 5):
        want[str(-25 * CycInt.omega_power(5, i))] = 130
    assert spectrum.summary == want
    assert spectrum.parseval == 625 ** 2


def test_parseval_random_pairs(ctx31):
    rng = random.Random(12)
    for _ in range(10):
        a = Elem(ctx31, int(rng.randrange(ctx31.q)))
        b = Elem(ctx31, int(rng.randrange(ctx31.q)))
        spectrum = _spectrum(ctx31, CoeffPair(a, b))
        assert spectrum.parseval == 81 ** 2  # asserted inside, rechecked here


def test_inverse_transform_round_trip(ctx31):
    # sum_y S_f(y) w^Tr(yx) = p^n w^f(x), spot-checked at every x
    pair = CoeffPair(ctx31.one, ctx31.one)
    spectrum = wa.full_spectrum(ctx31, 0, 0)
    for x in ref.elements(ctx31.subfield(4)):
        acc = CycInt.zero(3)
        for y in ref.elements(ctx31.subfield(4)):
            acc = acc + (_coefficient(ctx31, spectrum, y)
                         * CycInt.omega_power(3, ctx31.abs_trace(y * x)))
        assert acc == 81 * CycInt.omega_power(3, ref.f_value(ctx31, pair, x))


def test_bent_and_weakly_regular(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        spectrum = wa.full_spectrum(ctx, 0, 0)
        assert spectrum.bent
        assert spectrum.weakly_regular_neg
        assert len(spectrum.index) == ctx.q
        assert len(spectrum.values) == ctx.p
        assert all(n == c.norm_squared() for c, n in spectrum.values)


def test_spectrum_matches_each_value_with_the_closed_forms_once(ctx51, monkeypatch):
    # full_spectrum finds which -p^2k w^j each distinct value is (closed_j,
    # -1 for none) once; weak regularity and theorem1's formula and count
    # checks read that, so the whole check compares the p distinct values of
    # the (1, 1) spectrum with the p closed forms at most p^2 times
    compared = [0]
    real = CycInt.__eq__

    def counted(self, other):
        compared[0] += isinstance(other, CycInt)
        return real(self, other)

    monkeypatch.setattr(CycInt, "__eq__", counted)
    wa.theorem1_spectrum_check(ctx51)
    assert 0 < compared[0] <= ctx51.p ** 2
    monkeypatch.undo()
    forms = wa.closed_form(5, 1)
    for lb in (0, 3):  # (1, 1) and (1, g^3)
        spectrum = wa.full_spectrum(ctx51, 0, lb)
        assert spectrum.closed_j.tolist() == [forms.index(c) if c in forms else -1
                                              for c, _ in spectrum.values]
        assert spectrum.weakly_regular_neg == (spectrum.closed_j >= 0).all()
    assert -1 in spectrum.closed_j.tolist()  # (1, g^3) is not bent


@pytest.fixture
def from_counts_calls(monkeypatch):
    # the number of CycInt.from_counts calls made so far, in calls[0]
    calls = [0]
    real = CycInt.from_counts.__func__

    def counted(cls, p, counts):
        calls[0] += 1
        return real(cls, p, counts)

    monkeypatch.setattr(CycInt, "from_counts", classmethod(counted))
    return calls


def test_spectrum_check_builds_one_cycint_per_value(ctx51, from_counts_calls):
    # one CycInt per distinct coefficient (p on the (1, 1) spectrum), not per y
    wa.theorem1_spectrum_check(ctx51)
    assert from_counts_calls[0] <= ctx51.p


def test_correlation_table_builds_one_cycint_per_value(capsys, from_counts_calls):
    # sequences-crosscorr at (3, 2) prints 3,280 shifts of 5 distinct values
    assert run(["sequences-crosscorr", "--p", "3", "--k", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3280
    assert from_counts_calls[0] <= 10


def test_theorem1_summary_order():
    # the summary, which verify-all prints, keeps the order of first
    # occurrence along the sweep y = 0, xi^0, xi^1, ...; the order of the
    # encodings differs at (7, 1)
    assert list(wa.theorem1_spectrum_check(context(7, 1)).summary) == [
        "-49", "-49w^3", "49+49w+49w^2+49w^3+49w^4+49w^5", "-49w", "-49w^5", "-49w^2", "-49w^4"]


def test_root_verification_at_zero(ctx31):
    report = ref.theorem1_verify(ctx31, ctx31.zero)
    assert report.x0 == ctx31.zero
    assert report.coeff == -9
    assert report.formula_ok and report.special_ok


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_root_verification_everywhere(fixture, request):
    ctx = request.getfixturevalue(fixture)
    view2k = ctx.subfield(2 * ctx.params.k)
    specials = 0
    for y in ref.elements(ctx.subfield(ctx.m)):
        report = ref.theorem1_verify(ctx, y)  # raises on a non-unique root
        assert report.formula_ok
        if ref.contains(view2k, y * y):
            assert report.special_ok is True
            specials += 1
    assert specials > 1  # the shortcut domain is non-trivial


def test_full_spectrum_check(ctx31):
    # the check raises on any failed condition and returns the (1, 1) spectrum
    spectrum = wa.theorem1_spectrum_check(ctx31)
    assert spectrum.bent and spectrum.weakly_regular_neg
    counts = np.bincount(spectrum.closed_j[spectrum.index], minlength=3)
    assert counts.tolist() == [21, 30, 30]


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_root_scan_matches_per_point(fixture, request):
    # the bulk scan's x0 against the scalar theorem1_verify at every y, where
    # the formula and, for y^2 in GF(p^2k), the special case hold as the
    # spectrum check requires
    ctx = request.getfixturevalue(fixture)
    spectrum = wa.theorem1_spectrum_check(ctx)
    x0 = wa.theorem1_root_scan(ctx)
    view2k = ctx.subfield(2 * ctx.params.k)
    for i, y in enumerate([ctx.zero] + list(ctx.powers())):
        report = ref.theorem1_verify(ctx, y, _coefficient(ctx, spectrum, y))
        assert ctx.log(report.x0) == x0[i]
        assert report.formula_ok is True
        assert report.special_ok is (True if ref.contains(view2k, y * y) else None)


def test_spectrum_check_matches_slow_context(ctx31):
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    plain, fast = wa.theorem1_spectrum_check(slow), wa.theorem1_spectrum_check(ctx31)
    assert plain.summary == fast.summary
    assert np.array_equal(plain.index, fast.index)
    assert np.array_equal(plain.closed_j, fast.closed_j)
    assert np.array_equal(wa.theorem1_root_scan(slow), wa.theorem1_root_scan(ctx31))


def test_root_scan_second_root_raises(ctx31, monkeypatch):
    # a second root of the quartic at y = 0 (whose root is 0) must be caught
    real = wa._root_polynomial

    def extra_root(ctx, y2, ypow, x):
        hits = real(ctx, y2, ypow, x)
        if x == 0:  # X = xi^0 = 1
            hits[0] = True
        return hits

    monkeypatch.setattr(wa, "_root_polynomial", extra_root)
    with pytest.raises(RootCountViolation, match="2 roots at y=0;"):
        wa.theorem1_spectrum_check(ctx31)
