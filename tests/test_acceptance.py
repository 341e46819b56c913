"""Acceptance suite: one test per verified claim, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line
per criterion.  Everything is checked in exact arithmetic; the only
tolerances anywhere are the two wall-clock budgets of criterion 5 and
the per-table budget of criterion 1.
"""

import random
import time

import numpy as np
import pytest

from charsum import cyclotomy, expsum, jacobsthal, reference, sequences, walsh
from charsum.cycint import CycInt
from charsum.expsum import CaseTag, CoeffPair
from charsum.field_core import label


def _passed(text):
    print(f"[PASS] {text}")


def view2k(ctx):
    return ctx.subfield(2 * ctx.params.k)


@pytest.fixture(scope="module")
def sizes(ctx31, ctx51, ctx71, ctx32):
    return {(3, 1): ctx31, (5, 1): ctx51, (7, 1): ctx71, (3, 2): ctx32}


def test_c01_cyclotomic_tables(sizes):
    for (p, k), ctx in sizes.items():
        t0 = time.perf_counter()
        table = cyclotomy.verify_lemma1(view2k(ctx))  # raises on a mismatch
        elapsed = time.perf_counter() - t0
        assert table.shape == (p ** k + 1, p ** k + 1) and table.sum() == p ** (2 * k) - 2
        assert elapsed < 1.0, f"({p},{k}) table took {elapsed:.2f}s"
    _passed("criterion 1: cyclotomic tables match the closed form at "
            "(3,1),(5,1),(7,1),(3,2), each under 1s")


def test_c02_class_sums(sizes):
    for (p, k), ctx in sizes.items():
        values = cyclotomy.pt_sums(view2k(ctx))
        pk = p ** k
        for t, value in enumerate(values):
            assert value == (pk - 1 if t == (pk + 1) // 2 else -1)
    _passed("criterion 2: P_t sums equal p^k-1 at t=(p^k+1)/2 and -1 elsewhere")


def test_c03_companion_sum_closed_form(sizes):
    for (p, k), ctx in sizes.items():
        view = view2k(ctx)
        kview = ctx.subfield(k)
        pk = p ** k
        checked = 0
        for a in view.nonzero_elements():
            if kview.contains(a):
                continue
            assert reference.I_sum(view, pk + 1, a) == \
                jacobsthal.eq1_value(pk, view.eta(a))
            checked += 1
        assert checked == p ** (2 * k) - pk
    _passed("criterion 3: companion-sum closed form exhaustive at all four sizes")


def test_c04_jacobsthal_bound_and_curve_identity(sizes):
    for (p, k), ctx in sizes.items():
        view = view2k(ctx)
        pk = p ** k
        report = jacobsthal.theorem2_scan(view)  # BoundViolation on defect
        assert report.logs.size == p ** (2 * k) - pk
        assert (report.H ** 2 <= report.bound_sq).all()
        assert (report.H == (pk + 1) * (report.curve_N - pk)).all()
    _passed("criterion 4: |H| bound holds and H/(p^k+1) = curve_N - p^k, dual-path")


def test_c05_exponential_sum_oracle_equivalence(sizes):
    t0 = time.perf_counter()
    for lb in (0, 1):
        expsum.distribution_sweep(sizes[(3, 1)], lb)  # OracleMismatch on defect
    small = time.perf_counter() - t0
    assert small < 5.0, f"(3,1) sweep took {small:.2f}s"
    for lb in (0, 1):
        expsum.distribution_sweep(sizes[(5, 1)], lb)
    t0 = time.perf_counter()
    expsum.distribution_sweep(sizes[(3, 2)], 0)
    big = time.perf_counter() - t0
    assert big < 600.0, f"(3,2) sweep took {big:.2f}s"
    _passed(f"criterion 5: brute force equals p^2k(2N-1) on full sweeps "
            f"((3,1) {small:.2f}s, (3,2) {big:.2f}s)")


def test_c06_three_valued_range(sizes):
    for key in ((3, 1), (5, 1)):
        ctx = sizes[key]
        p2k = ctx.p ** (2 * ctx.params.k)
        for b in (ctx.one, ctx.xi):
            for a in [ctx.zero] + list(ctx.powers()):
                pair = CoeffPair(a, b)
                if expsum.case_detail(ctx, pair) is CaseTag.JACOBSTHAL:
                    continue
                n = expsum.N_count(ctx, pair)[0]
                assert n <= 2
                assert p2k * (2 * n - 1) in (-p2k, p2k, 3 * p2k)
        rng = random.Random(600 + key[0])
        pk = ctx.p ** ctx.params.k
        found = 0
        while found < 50:
            a = ctx.from_enc(rng.randrange(ctx.q))
            b = ctx.from_enc(rng.randrange(ctx.q))
            if (a.is_zero and b.is_zero) or a ** (pk * (pk + 1)) == b ** (pk + 1):
                continue
            pair = CoeffPair(a, b)
            assert reference.prop1_F_zeros(ctx, pair) == reference.L_zeros_field(ctx, pair)
            found += 1
    _passed("criterion 6: three-valued range and N <= 2 exhaustive; "
            "L and F zero sets coincide on sampled pairs")


def test_c07_triple_path_agreement(sizes):
    for key in ((3, 1), (5, 1)):
        ctx = sizes[key]
        for b in (ctx.one, ctx.xi):
            pairs = expsum.jacobsthal_pairs(ctx, b)
            n = [expsum.N_count(ctx, CoeffPair(a, b))[0] for a in pairs]
            la = [ctx.dlog(a) for a in pairs]
            lb = ctx.dlog(b)
            g_logs = expsum.g_logs(ctx, la, lb)
            scan = jacobsthal.theorem2_scan(view2k(ctx))
            assert expsum.N_via_nonsquares_bulk(ctx, la, lb, g_logs).tolist() == n
            assert expsum.N_via_jacobsthal_bulk(ctx, la, lb, g_logs, scan).tolist() == n
    _passed("criterion 7: zero count = nonsquare count = Jacobsthal route, "
            "every JACOBSTHAL pair at (3,1) and (5,1)")


def test_c08_scaling_invariance(sizes):
    for key in ((3, 1), (5, 1), (3, 2)):
        ctx = sizes[key]
        rng = random.Random(800 + 10 * key[0] + key[1])
        triples = []
        for _ in range(200):
            a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if a == 0 and b == 0:
                continue
            # the dlogs of the encodings a and b, -1 for zero
            triples.append((ctx.log_enc[a], ctx.log_enc[b], rng.randrange(ctx.order)))
        same = expsum.corollary1_bulk(ctx, *map(np.array, zip(*triples)))
        assert same.size == len(triples) and same.all()
    _passed("criterion 8: N(a,b) = N(a h^d, b h^2) on 200 seeded triples per size")


def test_c09_jacobsthal_case_properties(sizes):
    for key in ((3, 1), (5, 1)):
        ctx = sizes[key]
        pk = ctx.p ** ctx.params.k
        for b in (ctx.one, ctx.xi):
            for a in expsum.jacobsthal_pairs(ctx, b):
                results = expsum.corollary_suite(ctx, CoeffPair(a, b))
                failed = [name for name, ok in results.items() if ok is False]
                assert not failed, (key, failed)
            rep = expsum.distribution_sweep(ctx, ctx.dlog(b))
            total, expected = expsum.corollary_eq9_check(ctx, rep.lb, rep.N[rep.jacobsthal + 1])
            assert total == expected == (pk + 1) * (pk - expsum.chi(rep.lb)) // 2
    ctx31 = sizes[(3, 1)]
    nu = view2k(ctx31).generator
    special = CoeffPair(nu ** 2, ctx31.one)
    assert expsum.N_count(ctx31, special)[0] == 2
    _passed("criterion 9: case properties (i)-(vii) exhaustive; N(nu^2, 1) = 2 at (3,1)")


def test_c10_distribution_identities(sizes):
    recorded = []
    for key in ((3, 1), (5, 1)):
        ctx = sizes[key]
        pk = ctx.p ** ctx.params.k
        for lb in (0, 1):
            rep = expsum.distribution_sweep(ctx, lb)
            sign = rep.chi_b
            assert rep.r + rep.s + rep.t == ctx.q - pk + sign
            assert -rep.r + rep.s + 3 * rep.t == sign * pk
            assert rep.s0_total == ctx.q
            recorded.append(f"{key} b={label(lb)}: "
                            f"(r,s,t)=({rep.r},{rep.s},{rep.t})")
    _passed("criterion 10: distribution identities hold; observed data " +
            "; ".join(recorded))


def test_c11_closed_form_spectrum(sizes):
    chk31 = walsh.theorem1_spectrum_check(sizes[(3, 1)])
    want31 = {
        str(CycInt.integer(3, -9)): 21,
        str(-9 * CycInt.omega_power(3, 1)): 30,
        str(-9 * CycInt.omega_power(3, 2)): 30,
    }
    assert chk31.summary == want31
    chk51 = walsh.theorem1_spectrum_check(sizes[(5, 1)])
    want51 = {str(CycInt.integer(5, -25)): 105}
    for i in range(1, 5):
        want51[str(-25 * CycInt.omega_power(5, i))] = 130
    assert chk51.summary == want51
    for chk in (chk31, chk51):
        # the check raises unless every condition holds; the flags are the spectrum's
        assert chk.bent and chk.weakly_regular_neg
    _passed("criterion 11: (1,1) spectrum counts {-p^2k: (p^(2k-1)-1)(p^2k+1)+1, "
            "-p^2k w^i: p^(2k-1)(p^2k+1)}, unique roots, bent, weakly regular")


def test_c12_parseval(sizes):
    for key in ((3, 1), (5, 1)):
        ctx = sizes[key]
        assert walsh.full_spectrum(ctx, 0, 0).parseval == ctx.q ** 2
    ctx = sizes[(3, 1)]
    rng = random.Random(1200)
    for _ in range(10):
        # the dlogs of two random encodings, -1 for zero
        la, lb = (int(ctx.log_enc[rng.randrange(ctx.q)]) for _ in range(2))
        assert walsh.full_spectrum(ctx, la, lb).parseval == ctx.q ** 2
    _passed("criterion 12: Parseval exact for every computed spectrum")


def test_c13_sequence_relation(sizes):
    for key in ((3, 1), (5, 1)):
        shifts, ok = sequences.s0_relation_report(sizes[key])
        assert ok
        assert len(shifts) == (sizes[key].q - 1) // 2
    _passed("criterion 13: S_f(0) = 2 C(tau) + 1 relation, pinned at (3,1), "
            "holds at (5,1)")
