import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import jacobsthal as jac
from charsum import reference as ref
from charsum.cli import run
from charsum.errors import BoundViolation, ZeroArgument, ZeroC
from charsum.field_core import FieldParams, build_context


def view2k(ctx):
    return ctx.subfield(2 * ctx.params.k)


# --------------------------------------------------------------------------
# independent oracle: quadratic character from an explicit set of squares,
# sums by definition (written against the definitions, not the library path)
# --------------------------------------------------------------------------

def _oracle_eta(view):
    squares = {(x * x).enc for x in ref.nonzero_elements(view)}

    def eta(x):
        if x.is_zero:
            return 0
        return 1 if x.enc in squares else -1

    return eta


def _oracle_H(view, n, a):
    eta = _oracle_eta(view)
    return sum(eta(x ** (n + 1) + a * x) for x in ref.elements(view))


def _oracle_I(view, n, a):
    eta = _oracle_eta(view)
    return sum(eta(x ** n + a) for x in ref.nonzero_elements(view))


def test_sums_match_definition_oracle(ctx51):
    view = view2k(ctx51)
    n = 6  # p^k + 1
    for a in ref.nonzero_elements(view):
        assert ref.H_sums(view, n, [view.ctx.log(a)])[0] == _oracle_H(view, n, a)
        assert ref.I_sum(view, n, a) == _oracle_I(view, n, a)
        assert ref.I_sum(view, 2 * n, a) == _oracle_I(view, 2 * n, a)


def test_zero_argument_rejected(ctx31):
    view = view2k(ctx31)
    with pytest.raises(ZeroArgument):
        ref.H_sums(view, 4, [ctx31.log(ctx31.zero)])
    with pytest.raises(ZeroArgument):
        ref.I_sum(view, 4, ctx31.zero)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51", "ctx32"])
def test_companion_decomposition(fixture, request):
    # I_2n = I_n + H_n for all nonzero a, at both relevant orders
    ctx = request.getfixturevalue(fixture)
    view = view2k(ctx)
    pk = ctx.p ** ctx.params.k
    for n in (pk + 1, 2 * (pk + 1)):
        for a in ref.nonzero_elements(view):
            H = ref.H_sums(view, n, [view.ctx.log(a)])[0]
            assert ref.I_sum(view, 2 * n, a) == ref.I_sum(view, n, a) + H


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51", "ctx71", "ctx32"])
def test_companion_closed_form(fixture, request):
    # I_{p^k+1}(a) = -(p^k+1)(eta(a)+1) off GF(p^k); both signs occur
    ctx = request.getfixturevalue(fixture)
    view = view2k(ctx)
    kview = ctx.subfield(ctx.params.k)
    pk = ctx.p ** ctx.params.k
    seen = set()
    for a in ref.nonzero_elements(view):
        if ref.contains(kview, a):
            continue
        value = ref.I_sum(view, pk + 1, a)
        assert value == jac.eq1_value(pk, ref.eta(view, a))
        seen.add(value)
    assert seen == {0, -2 * (pk + 1)}


def test_closed_form_boundary_inside_base_field(ctx31):
    # a in GF(p^k)* is outside the closed form's domain: definition only
    view = view2k(ctx31)
    kview = ctx31.subfield(1)
    for a in ref.nonzero_elements(kview):
        value = ref.I_sum(view, 4, a)
        assert value == _oracle_I(view, 4, a)
        assert value != jac.eq1_value(3, ref.eta(view, a))  # formula does not extend


# --------------------------------------------------------------------------
# half-basis decomposition
# --------------------------------------------------------------------------

def test_decompose_round_trip(ctx31):
    view = view2k(ctx31)
    kview = ctx31.subfield(1)
    for a in ref.elements(view):
        a0, a1 = ref.decompose_half_basis(view, a)
        assert ref.contains(kview, a0) and ref.contains(kview, a1)
        assert a0 + 2 * ref.mu_sqrt(view) * a1 == a
        assert a1.is_zero == ref.contains(kview, a)


def test_decompose_base_cases(ctx31):
    view = view2k(ctx31)
    for a in ref.elements(ctx31.subfield(1)):
        a0, a1 = ref.decompose_half_basis(view, a)
        assert a0 == a and a1.is_zero
    a0, a1 = ref.decompose_half_basis(view, 2 * ref.mu_sqrt(view))
    assert a0.is_zero and a1 == ctx31.one


def test_mu_sqrt_squares_to_mu(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        view = view2k(ctx)
        root = ref.mu_sqrt(view)
        kview = ctx.subfield(ctx.params.k)
        assert root * root == ref.generator(kview)
        assert ref.contains(view, root) and not ref.contains(kview, root)


# --------------------------------------------------------------------------
# the elliptic-curve reduction
# --------------------------------------------------------------------------

def test_curve_counts_brute_force(ctx31):
    # independent recount: enumerate (z, f) pairs directly
    kview = ctx31.subfield(1)
    mu = ref.generator(kview)
    for A in ref.elements(kview):
        for a1 in ref.nonzero_elements(kview):
            C = mu * a1 * a1
            direct = sum(
                1
                for z in ref.elements(kview)
                for f in ref.elements(kview)
                if f * f == z * z * z - A * z * z + C * z
            )
            assert ref.curve_point_count(kview, A, C) == direct


def test_curve_rejects_zero_C(ctx31):
    kview = ctx31.subfield(1)
    with pytest.raises(ZeroC):
        ref.curve_point_count(kview, ctx31.one, ctx31.zero)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51", "ctx32"])
def test_hasse_bound_affine(fixture, request):
    ctx = request.getfixturevalue(fixture)
    kview = ctx.subfield(ctx.params.k)
    pk = ctx.p ** ctx.params.k
    mu = ref.generator(kview)
    for A in ref.elements(kview):
        for a1 in ref.nonzero_elements(kview):
            N = ref.curve_point_count(kview, A, mu * a1 * a1)
            assert (N - pk) ** 2 <= 4 * pk


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51", "ctx32"])
def test_curve_identity_dual_path(fixture, request):
    # H/(p^k+1) = curve_N - p^k, both sides by independent brute force
    ctx = request.getfixturevalue(fixture)
    view = view2k(ctx)
    kview = ctx.subfield(ctx.params.k)
    pk = ctx.p ** ctx.params.k
    for a in ref.nonzero_elements(view):
        if ref.contains(kview, a):
            continue
        H = _oracle_H(view, pk + 1, a)
        assert H % (pk + 1) == 0
        rec = ref.jacobsthal_record(view, a)
        assert rec.H == H
        assert rec.I2 == rec.I + rec.H
        assert H // (pk + 1) == rec.curve_N - pk


# --------------------------------------------------------------------------
# the exhaustive bound scan
# --------------------------------------------------------------------------

def _scan_rows(report):
    # (H, I, I2, curve_N) per a of a bound scan report, in its order
    return list(zip(*(x.tolist() for x in (report.H, report.I, report.I2, report.curve_N))))


def _record_row(rec):
    return rec.H, rec.I, rec.I2, rec.curve_N


@pytest.mark.parametrize("fixture,count", [("ctx31", 6), ("ctx51", 20), ("ctx32", 72)])
def test_bound_scan(fixture, count, request):
    ctx = request.getfixturevalue(fixture)
    view = view2k(ctx)
    report = jac.theorem2_scan(view)
    assert report.logs.size == count
    # each a = xi^log lies in GF(p^2k) and off GF(p^k)
    pk = ctx.p ** ctx.params.k
    assert (report.logs % view.step == 0).all()
    assert (report.logs % (view.step * (pk + 1)) != 0).all()
    assert report.max_abs_H ** 2 <= report.bound_sq
    assert 0 <= report.max_ratio <= 1
    # the k-even case has an integer bound; record whether it is attained
    assert isinstance(report.attained, bool)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx32"])
def test_scan_table_matches_records(fixture, request):
    # every a off GF(p^k), in dlog order: the scan's arrays equal the
    # per-a jacobsthal_record (H_sums, I_sum and curve_point_count)
    ctx = request.getfixturevalue(fixture)
    view = view2k(ctx)
    kview = ctx.subfield(ctx.params.k)
    report = jac.theorem2_scan(view)
    a_all = [ctx.from_exp(e) for e in report.logs.tolist()]
    assert a_all == [a for a in ref.nonzero_elements(view) if not ref.contains(kview, a)]
    assert _scan_rows(report) == [_record_row(ref.jacobsthal_record(view, a)) for a in a_all]


@pytest.mark.parametrize("p,k", [(5, 2), (13, 1)])
def test_scan_table_matches_records_seeded(p, k):
    # standalone GF(p^2k), 15 seeded a off GF(p^k) against jacobsthal_record
    ctx = build_context(FieldParams(p, k), 2 * k)
    view = ctx.subfield(2 * k)
    report = jac.theorem2_scan(view)
    rows = _scan_rows(report)
    assert len(rows) == p ** (2 * k) - p ** k
    for i in random.Random(p * 100 + k).sample(range(len(rows)), 15):
        a = ref.generator(view) ** int(report.logs[i])
        assert rows[i] == _record_row(ref.jacobsthal_record(view, a))


@functools.cache
def _standalone_scan(p, k):
    view = build_context(FieldParams(p, k), 2 * k).subfield(2 * k)
    return view, jac.scan_table(view)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pk=st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3),
                           (31, 1)]), data=st.data())
def test_scan_table_matches_references_property(pk, data):
    # a random a off GF(p^k) of a standalone GF(p^2k): H, I, I_2n and the
    # curve count from the eta table against H_sums, I_sum and
    # curve_point_count, each by definition
    view, (logs, H, I, I2, curve_N) = _standalone_scan(*pk)
    i = data.draw(st.integers(0, logs.size - 1), label="position of a")
    a = ref.generator(view) ** int(logs[i])
    p, k = pk
    n = p ** k + 1
    kview = view.ctx.subfield(k)
    a0, a1 = ref.decompose_half_basis(view, a)
    assert H[i] == ref.H_sums(view, n, [view.ctx.log(a)])[0]
    assert I[i] == ref.I_sum(view, n, a)
    assert I2[i] == ref.I_sum(view, 2 * n, a)
    assert curve_N[i] == ref.curve_point_count(kview, a0, ref.generator(kview) * a1 * a1)


def test_H_sums_matches_oracle(ctx31):
    # the batched definition at every a of GF(9)*, orders 4 and 8
    view = view2k(ctx31)
    elements = list(ref.nonzero_elements(view))
    for n in (4, 8):
        assert ref.H_sums(view, n, [ctx31.log(a) for a in elements]).tolist() == [
            _oracle_H(view, n, a) for a in elements]
    with pytest.raises(ZeroArgument):
        ref.H_sums(view, 4, [view.step, -1])


def test_scan_on_slow_context_agrees(ctx31):
    # the per-element fallback of the bulk primitives gives the same scan
    slow = build_context(FieldParams(3, 1), 2, use_tables=False)
    fast = build_context(FieldParams(3, 1), 2)
    assert _scan_rows(jac.theorem2_scan(slow.subfield(2))) == _scan_rows(
        jac.theorem2_scan(fast.subfield(2)))


def test_scan_bound_violation_raises(ctx31, monkeypatch):
    real = jac.scan_table

    def inflated(view):
        logs, H, I, I2, curve_N = real(view)
        return logs, 100 * H, I, I2, curve_N

    monkeypatch.setattr(jac, "scan_table", inflated)
    with pytest.raises(BoundViolation, match="exceeds the bound"):
        jac.theorem2_scan(view2k(ctx31))


def test_integrality_tightening_31(ctx31):
    # |H| <= (p^k+1) * floor(2 sqrt(p^k)) = 12 at p=3, k=1
    view = view2k(ctx31)
    cap = 4 * math.isqrt(4 * 3)
    H = jac.theorem2_scan(view).H
    assert H.size == 6 and (np.abs(H) <= cap).all() and cap == 12


def test_standalone_context_agrees(ctx31):
    # a standalone GF(p^2k) build gives the same H multiset as the 2k-view
    standalone = build_context(FieldParams(3, 1), 2)
    sview = standalone.subfield(2)
    pk = 3
    multiset = sorted(ref.H_sums(sview, pk + 1,
                                 [standalone.log(a) for a in ref.nonzero_elements(sview)]))
    big = sorted(ref.H_sums(view2k(ctx31), pk + 1,
                            [ctx31.log(a) for a in ref.nonzero_elements(view2k(ctx31))]))
    assert multiset == big


def test_record_json_fields(capsys):
    # every JSON line of jacobsthal-scan against jacobsthal_record at its a,
    # the bound ratio included
    assert run(["jacobsthal-scan", "--p", "3", "--k", "1"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()[1:-1]]
    view = build_context(FieldParams(3, 1), 2).subfield(2)
    kview = view.ctx.subfield(1)
    a_all = [a for a in ref.nonzero_elements(view) if not ref.contains(kview, a)]
    assert [row["a"] for row in rows] == [f"g^{ref.discrete_log(view, a)}" for a in a_all]
    for a, row in zip(a_all, rows, strict=True):
        rec = ref.jacobsthal_record(view, a)
        assert row == {"a": row["a"], "H": rec.H, "I": rec.I, "I2": rec.I2,
                       "curve_N": rec.curve_N, "bound_ratio": rec.bound_ratio}
