from collections import Counter

import numpy as np
import pytest

from charsum import sequences as seqs
from charsum.errors import ParityViolation, PeriodMismatch
from charsum.field_core import FieldParams, build_context


def test_m_sequence_period_and_balance(ctx31):
    s = seqs.m_sequence(ctx31)
    assert s.dtype == np.int64 and s.size == 80
    counts = Counter(s.tolist())
    assert counts[0] == 26 and counts[1] == 27 and counts[2] == 27


def test_m_sequence_matches_slow_context(ctx31):
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    assert seqs.m_sequence(slow).tolist() == seqs.m_sequence(ctx31).tolist()


def test_shift_and_add(ctx31):
    # s(t + tau) - s(t) is another shift of s, for any tau with xi^tau != 1
    s = seqs.m_sequence(ctx31)
    shifts = {tuple(np.roll(s, -sigma).tolist()) for sigma in range(s.size)}
    for tau in (1, 7, 13, 40, 79):
        assert tuple(((np.roll(s, -tau) - s) % 3).tolist()) in shifts


def test_decimation_periods(ctx31):
    s = seqs.m_sequence(ctx31)
    assert seqs.decimate(s, 1).tolist() == s.tolist()
    assert seqs.decimate(s, 2).tolist() == s[::2].tolist()
    assert seqs.decimate(s, ctx31.params.d).size == 40  # gcd(34, 80) = 2
    with pytest.raises(ValueError):
        seqs.decimate(s, 0)


def test_autocorrelation_peak(ctx31):
    s = seqs.m_sequence(ctx31)
    assert seqs.cross_correlation(s, s, 0, 3) == s.size


def test_common_shift_invariance(ctx31):
    s = seqs.m_sequence(ctx31)
    u = seqs.decimate(s, ctx31.params.d)
    v = seqs.decimate(s, 2)
    for tau in (0, 3, 17):
        base = seqs.cross_correlation(u, v, tau, 3)
        for sigma in (1, 9):
            assert seqs.cross_correlation(np.roll(u, -sigma), np.roll(v, -sigma), tau, 3) == base


def test_period_mismatch(ctx31):
    s = seqs.m_sequence(ctx31)
    with pytest.raises(PeriodMismatch):
        seqs.cross_correlation(s, seqs.decimate(s, 2), 0, 3)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_pinned_s0_relation(fixture, request):
    # S_f(0) = 2 C(tau) + 1 at (a, b) = (xi^(d tau), -1), pinned at (3,1)
    ctx = request.getfixturevalue(fixture)
    shifts, ok = seqs.s0_relation_report(ctx)
    assert ok
    assert len(shifts) == (ctx.q - 1) // 2


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_correlation_table_matches_cross_correlation(fixture, request):
    # the one-transform table against the per-shift loop over the sequences
    ctx = request.getfixturevalue(fixture)
    s = seqs.m_sequence(ctx)
    u, v = seqs.decimate(s, ctx.params.d), seqs.decimate(s, 2)
    values, index = seqs.correlation_table(ctx)
    assert len(index) == u.size
    assert len(set(values)) == len(values)
    for tau, i in enumerate(index):
        assert values[i].c == seqs.cross_correlation(u, v, tau, ctx.p).c


def test_correlation_table_parity_check(ctx31, monkeypatch):
    # value counts that the two half-period runs cannot split must raise,
    # naming the first odd shift
    real = seqs.character_counts
    for tau in (0, 5):
        def odd(ctx, e, v_terms, tau=tau):
            counts = real(ctx, e, v_terms)
            counts[ctx.from_exp(ctx.params.d * tau).enc, 1] += 1
            return counts

        monkeypatch.setattr(seqs, "character_counts", odd)
        with pytest.raises(ParityViolation, match=f"tau = {tau}$"):
            seqs.correlation_table(ctx31)


def test_relation_values_multiset(ctx31):
    # with b = -1 the correlation values exhaust the S0 values over square a
    from charsum.expsum import CoeffPair, S0_bruteforce
    shifts, _ = seqs.s0_relation_report(ctx31)
    corr_side = sorted(2 * c.as_int() + 1 for _, c, _ in shifts)
    minus_one = -ctx31.one
    sum_side = sorted(
        S0_bruteforce(ctx31, CoeffPair(ctx31.from_exp(2 * e), minus_one)).as_int()
        for e in range(40))
    assert corr_side == sum_side

