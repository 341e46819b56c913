import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import expsum as es
from charsum import reference as ref
from charsum.cycint import CycInt
from charsum.errors import (
    BothCoefficientsZero,
    CaseViolation,
    DivisibilityViolation,
    KernelMismatch,
    NotInSubfield,
    OracleMismatch,
    ParityViolation,
    RangeViolation,
    WrongCase,
    ZeroB,
)
from charsum.field_core import FieldCtx, FieldParams, build_context, context


def pair_of(ctx, a, b):
    return es.CoeffPair(a, b)


def U_elements(ctx):
    return [ctx.from_enc(int(e)) for e in ctx.exp_enc_bulk(es.U_logs(ctx))]


def _S0_closed(ctx, pair):
    # the closed form p^2k (2 N(a,b) - 1), from the direct zero count
    return ctx.p ** (2 * ctx.params.k) * (2 * es.N_count(ctx, pair)[0] - 1)


# --------------------------------------------------------------------------
# the subgroup U and L
# --------------------------------------------------------------------------

def test_subgroup_structure(ctx31):
    U = U_elements(ctx31)
    assert len(U) == 10
    order = len(U)
    for u in U:
        assert u ** order == ctx31.one
        assert -u in U
        assert u.inverse() in U
    assert -ctx31.one in U
    assert len({u.enc for u in U}) == order


def test_L_basics(ctx31):
    pair = pair_of(ctx31, ctx31.xi ** 3, ctx31.xi ** 7)
    assert es.L_eval(ctx31, ctx31.zero, pair).is_zero
    rng = random.Random(11)
    for _ in range(100):
        x = ctx31.from_enc(rng.randrange(ctx31.q))
        assert es.L_eval(ctx31, -x, pair) == -es.L_eval(ctx31, x, pair)


def test_L_lands_in_half_field_on_U(ctx31):
    view = ctx31.subfield(2)
    pair = pair_of(ctx31, ctx31.xi ** 5, ctx31.xi ** 2)
    for u in U_elements(ctx31):
        assert view.contains(es.L_eval(ctx31, u, pair))


# --------------------------------------------------------------------------
# zero counts and the exponential sum
# --------------------------------------------------------------------------

def test_N_count_examples(ctx31):
    one = ctx31.one
    n, w = es.N_count(ctx31, pair_of(ctx31, one, one))
    assert n == 0 and w == []
    n, w = es.N_count(ctx31, pair_of(ctx31, -one, one))
    assert n == 1
    assert set(w) == {one, -one}  # +-b^(-(p^2k-1)/2) with b = 1
    n, w = es.N_count(ctx31, pair_of(ctx31, ctx31.zero, one))
    assert n == 0
    with pytest.raises(BothCoefficientsZero):
        es.N_count(ctx31, pair_of(ctx31, ctx31.zero, ctx31.zero))


def test_witnesses_negation_closed(ctx31):
    for b in (ctx31.one, ctx31.xi):
        for a in ctx31.powers():
            _, w = es.N_count(ctx31, pair_of(ctx31, a, b))
            assert len(w) % 2 == 0
            encs = {x.enc for x in w}
            assert all((-x).enc in encs for x in w)


def test_S0_examples(ctx31):
    one = ctx31.one
    assert _S0_closed(ctx31, pair_of(ctx31, one, one)) == -9
    assert es.S0_bruteforce(ctx31, pair_of(ctx31, one, one)) == -9
    assert _S0_closed(ctx31, pair_of(ctx31, -one, one)) == 9
    assert es.S0_bruteforce(ctx31, pair_of(ctx31, -one, one)) == 9
    assert _S0_closed(ctx31, pair_of(ctx31, ctx31.zero, one)) == -9
    assert es.S0_bruteforce(ctx31, pair_of(ctx31, ctx31.zero, one)) == -9


def test_S0_oracle_equivalence_full_grid(ctx31):
    # every admissible pair of GF(81)^2: closed form == defining sum
    count = 0
    for b in ctx31.elements():
        for a in ctx31.elements():
            if a.is_zero and b.is_zero:
                continue
            pair = pair_of(ctx31, a, b)
            brute = es.S0_bruteforce(ctx31, pair)
            assert brute.is_rational_integer
            assert brute == _S0_closed(ctx31, pair)
            count += 1
    assert count == 6560


def test_S0_oracle_equivalence_full_grid_51(ctx51):
    # the whole (a, b) grid of GF(625)^2: per-b sweeps cover every b != 0,
    # plus the b = 0 column pair by pair
    for b in ctx51.powers():
        es.distribution_sweep(ctx51, b)  # raises OracleMismatch on any defect
    for a in ctx51.powers():
        pair = pair_of(ctx51, a, ctx51.zero)
        assert es.S0_bruteforce(ctx51, pair) == _S0_closed(ctx51, pair)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_character_counts_match_bruteforce(fixture, request):
    # one transform row per a equals the per-pair defining sum, a = 0 included
    ctx = request.getfixturevalue(fixture)
    for b in (ctx.one, ctx.xi):
        counts = es.character_counts(ctx, ((ctx.one, ctx.params.d),), ((b, 2),))
        assert counts.shape == (ctx.q, ctx.p)
        for a in ctx.elements():
            row = CycInt.from_counts(ctx.p, counts[a.enc])
            assert row == es.S0_bruteforce(ctx, pair_of(ctx, a, b))


def test_S0_bruteforce_matches_slow_loop(ctx31):
    # the vectorized histogram equals a plain per-element loop
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    rng = random.Random(23)
    for _ in range(5):
        ea, eb = rng.randrange(80), rng.randrange(80)
        fast = es.S0_bruteforce(ctx31, pair_of(ctx31, ctx31.from_exp(ea), ctx31.from_exp(eb)))
        ref = es.S0_bruteforce(slow, pair_of(slow, slow.from_exp(ea), slow.from_exp(eb)))
        assert fast.c == ref.c


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def test_classify_examples(ctx31):
    one = ctx31.one
    assert es.case_detail(ctx31, pair_of(ctx31, one, one)).tag is es.CaseTag.SQUARE_MATCH
    detail = es.case_detail(ctx31, pair_of(ctx31, one, one))
    assert detail.norms_match and detail.b_square
    assert es.case_detail(ctx31, pair_of(ctx31, ctx31.zero, one)).tag is es.CaseTag.NORM_DIFFER
    nu = ctx31.subfield(2).generator
    assert es.case_detail(ctx31, pair_of(ctx31, nu ** 2, one)).tag is es.CaseTag.JACOBSTHAL
    with pytest.raises(BothCoefficientsZero):
        es.case_detail(ctx31, pair_of(ctx31, ctx31.zero, ctx31.zero))


def test_tags_partition_everything(ctx31):
    tags = {tag: 0 for tag in es.CaseTag}
    for b in ctx31.elements():
        for a in ctx31.elements():
            if a.is_zero and b.is_zero:
                continue
            tags[es.case_detail(ctx31, pair_of(ctx31, a, b)).tag] += 1
    assert sum(tags.values()) == 6560
    assert all(v > 0 for v in tags.values())


def test_square_match_norms_iff_b_square(ctx31):
    # at a = +-b^(d/2) the norms agree exactly when b is a square
    d = ctx31.params.d
    for b in ctx31.powers():
        for sign in (1, -1):
            a = sign * b ** (d // 2)
            detail = es.case_detail(ctx31, pair_of(ctx31, a, b))
            assert detail.tag is es.CaseTag.SQUARE_MATCH
            assert detail.norms_match == detail.b_square


# --------------------------------------------------------------------------
# the three-valued cases
# --------------------------------------------------------------------------

def test_F_and_L_zero_sets_agree(ctx31):
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    rng = random.Random(31)
    pk = 3
    found = 0
    while found < 200:
        a = ctx31.from_enc(rng.randrange(ctx31.q))
        b = ctx31.from_enc(rng.randrange(ctx31.q))
        if a.is_zero and b.is_zero:
            continue
        if a ** (pk * (pk + 1)) == b ** (pk + 1):
            continue
        pair = pair_of(ctx31, a, b)
        zeros = ref.prop1_F_zeros(ctx31, pair)
        assert zeros == ref.L_zeros_field(ctx31, pair)
        if found < 10:  # the table path against plain field arithmetic
            plain = ref.L_zeros_field(slow, pair_of(slow, slow.from_enc(a.enc),
                                                    slow.from_enc(b.enc)))
            assert [z.enc for z in zeros] == [z.enc for z in plain]
        found += 1


def test_three_valued_cases_have_small_N(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        for b in (ctx.one, ctx.xi):
            for a in [ctx.zero] + list(ctx.powers()):
                pair = pair_of(ctx, a, b)
                if es.case_detail(ctx, pair).tag is es.CaseTag.JACOBSTHAL:
                    continue
                assert es.N_count(ctx, pair)[0] <= 2


def test_F_degenerates_exactly_on_matching_norms(ctx31):
    view = ctx31.subfield(2)
    for b in (ctx31.one, ctx31.xi):
        for a in es.jacobsthal_pairs(ctx31, b):
            pair = pair_of(ctx31, a, b)
            _, B = ref._F_terms(ctx31, pair)
            assert B.is_zero
            assert view.contains(a * b ** 3)  # a b^(p^k) falls into GF(p^2k)
            with pytest.raises(WrongCase):
                ref.prop1_F_zeros(ctx31, pair)


# --------------------------------------------------------------------------
# Proposition 1 by linear algebra
# --------------------------------------------------------------------------

def _kernels_match_zero_sets(ctx, a_encs, b_encs):
    # each matrix's kernel is the zero set found by reference._zero_set: every zero,
    # as its digit vector, is in the kernel, and the kernel has as many
    # elements as the zero set
    la, lb = es._dlogs(ctx, np.asarray(a_encs)), es._dlogs(ctx, np.asarray(b_encs))
    L = es.form_matrices(ctx, es._L_monomials(ctx))(la, lb)
    F = es.form_matrices(ctx, es._F_monomials(ctx))(la, lb)
    bad, dim_L, dim_F = es.kernel_mismatches(L, F, ctx.p, 2 * ctx.params.k)
    assert bad.size == 0
    for i, (a, b) in enumerate(zip(a_encs, b_encs)):
        pair = pair_of(ctx, ctx.from_enc(int(a)), ctx.from_enc(int(b)))
        zeros = ref.L_zeros_field(ctx, pair)
        assert zeros == ref.prop1_F_zeros(ctx, pair)
        assert len(zeros) == ctx.p ** dim_L[i] == ctx.p ** dim_F[i]
        digits = np.array([z.coeffs for z in zeros]).T
        assert not (L[i].astype(np.int64) @ digits % ctx.p).any()
        assert not (F[i].astype(np.int64) @ digits % ctx.p).any()
    assert es.prop1_kernel_check(ctx, a_encs, b_encs) == len(a_encs)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_kernel_route_matches_zero_sets(fixture, request):
    # every a with differing norms, for b in {1, xi}
    ctx = request.getfixturevalue(fixture)
    for b in (ctx.one, ctx.xi):
        a_encs = es.sweep_order(ctx)[~es.norms_match(ctx, b)]
        _kernels_match_zero_sets(ctx, a_encs, np.full(a_encs.size, b.enc))


def test_kernel_route_matches_zero_sets_seeded_32(ctx32):
    # seeded pairs with differing norms, among them a = 0 and b = 0
    rng = random.Random(32)
    pairs = [(0, ctx32.xi.enc), (ctx32.xi.enc, 0)]
    while len(pairs) < 12:
        a, b = ctx32.from_enc(rng.randrange(ctx32.q)), ctx32.from_enc(rng.randrange(ctx32.q))
        if (a.is_zero and b.is_zero) or es.case_detail(ctx32, pair_of(ctx32, a, b)).norms_match:
            continue
        pairs.append((a.enc, b.enc))
    _kernels_match_zero_sets(ctx32, *zip(*pairs))


def test_form_matrices_match_slow_context(ctx31):
    # the table path against the per-element fallback of the bulk primitives
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    a_encs = es.sweep_order(ctx31)[~es.norms_match(ctx31, ctx31.xi)][::7]
    la, lb = es._dlogs(ctx31, a_encs), np.full(a_encs.size, ctx31.dlog(ctx31.xi))
    for monomials in (es._L_monomials(ctx31), es._F_monomials(ctx31)):
        fast = es.form_matrices(ctx31, monomials)(la, lb)
        assert fast.tolist() == es.form_matrices(slow, monomials)(la, lb).tolist()
    assert es.prop1_kernel_check(slow, a_encs, np.full(a_encs.size, ctx31.xi.enc)) == a_encs.size


def test_kernel_check_catches_perturbed_F(ctx31):
    a, b = ctx31.xi ** 5, ctx31.xi
    la, lb = es._dlogs(ctx31, np.array([a.enc])), es._dlogs(ctx31, np.array([b.enc]))
    L = es.form_matrices(ctx31, es._L_monomials(ctx31))(la, lb)
    F = es.form_matrices(ctx31, es._F_monomials(ctx31))(la, lb)
    assert es.kernel_mismatches(L, F, 3, 2)[0].tolist() == []
    # one entry of F's first row off at a digit where a common zero is nonzero
    zero = ref.L_zeros_field(ctx31, pair_of(ctx31, a, b))[1]
    j = next(i for i, c in enumerate(zero.coeffs) if c)
    off = F.copy()
    off[0, 0, j] = (off[0, 0, j] + 1) % 3
    assert es.kernel_mismatches(L, off, 3, 2)[0].tolist() == [0]
    # the same kernel as L, but of dimension above 2k, is refused too
    zero_maps = np.zeros_like(F)
    assert es.kernel_mismatches(zero_maps, zero_maps, 3, 2)[0].tolist() == [0]


def test_kernel_check_raises_on_wrong_F(ctx31, monkeypatch):
    # F with the sign of its first term flipped no longer shares L's zeros
    real = es._F_monomials
    monkeypatch.setattr(es, "_F_monomials", lambda ctx: (
        ((-real(ctx)[0][0],) + real(ctx)[0][1:],) + real(ctx)[1:]))
    a_encs = es.sweep_order(ctx31)[~es.norms_match(ctx31, ctx31.one)]
    with pytest.raises(KernelMismatch, match="a=.*, b=g\\^0"):
        es.prop1_kernel_check(ctx31, a_encs, np.full(a_encs.size, ctx31.one.enc))
    with pytest.raises(BothCoefficientsZero):
        es.prop1_kernel_check(ctx31, [0], [0])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(p=st.sampled_from([3, 5, 7]), data=st.data())
def test_rref_mod_p_kernel_sizes(p, data):
    # the rank from rref_mod_p against a count of the kernel over all of GF(p)^c
    r, c = data.draw(st.integers(1, 4), label="rows"), data.draw(st.integers(1, 4), label="cols")
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                              min_size=r, max_size=r), label="matrix")
    mat = np.array(rows, dtype=np.int16)
    reduced, rank = es.rref_mod_p(mat[None], p)
    vectors = np.indices((p,) * c).reshape(c, -1)

    def in_kernel(m):
        return ~(m.astype(np.int64) @ vectors % p).any(axis=0)

    assert np.count_nonzero(in_kernel(mat)) == p ** (c - rank[0])
    assert (in_kernel(reduced[0]) == in_kernel(mat)).all()
    assert es.rref_mod_p(reduced, p)[0].tolist() == reduced.tolist()  # reduced is a fixed point


def test_norms_match_matches_case_detail(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        pk = ctx.p ** ctx.params.k
        for b in (ctx.one, ctx.xi):
            matched = es.norms_match(ctx, b)
            pairs = [pair_of(ctx, ctx.from_enc(int(a)), b) for a in es.sweep_order(ctx)]
            assert matched.tolist() == [es.case_detail(ctx, pair).norms_match for pair in pairs]
            assert np.count_nonzero(matched) == pk + 1  # the fibre of the norm map


# --------------------------------------------------------------------------
# the Jacobsthal case: g and the three N paths
# --------------------------------------------------------------------------

def _eq5_count(ctx, pair, g):
    # test-local recount of the nonsquare criterion for an arbitrary valid g
    k = ctx.params.k
    view = ctx.subfield(2 * k)
    kview = ctx.subfield(k)
    bq = pair.b ** (ctx.p ** (2 * k) + 1)
    return sum(1 for c in kview.elements() if view.eta((c * g) ** 2 - bq) == -1)


def test_find_g_properties(ctx31):
    p, k = 3, 1
    view = ctx31.subfield(2)
    kview = ctx31.subfield(1)
    for b in (ctx31.one, ctx31.xi):
        for a in es.jacobsthal_pairs(ctx31, b):
            pair = pair_of(ctx31, a, b)
            g = ref.find_g(ctx31, pair)
            # defining property and canonicality
            assert g ** (p ** k - 1) * a + b ** (p ** (3 * k)) == ctx31.zero
            assert view.discrete_log(g) < p ** k + 1
            # the quotient never falls back into GF(p^k)
            assert not kview.contains(b ** (p ** (2 * k) + 1) / (g * g))
            # GF(p^k)* rescalings of g leave the count invariant
            n = es.N_count(ctx31, pair)[0]
            assert _eq5_count(ctx31, pair, g) == n
            assert _eq5_count(ctx31, pair, kview.generator * g) == n


def test_find_g_wrong_case(ctx31):
    with pytest.raises(WrongCase):
        ref.find_g(ctx31, pair_of(ctx31, ctx31.one, ctx31.one))


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_three_paths_agree(fixture, request):
    # the two batched routes over the slice against the direct zero count,
    # pair by pair, and against the scalar recount of the nonsquare
    # criterion at the reference g
    ctx = request.getfixturevalue(fixture)
    for b in (ctx.one, ctx.xi):
        pairs = es.jacobsthal_pairs(ctx, b)
        assert pairs, "case must be populated"
        a_encs = [a.enc for a in pairs]
        n2 = es.N_via_nonsquares_bulk(ctx, b, a_encs)
        n3 = es.N_via_jacobsthal_bulk(ctx, b, a_encs)
        for a, n2_i, n3_i in zip(pairs, n2.tolist(), n3.tolist(), strict=True):
            pair = pair_of(ctx, a, b)
            n1 = es.N_count(ctx, pair)[0]
            assert n1 == n2_i == n3_i == _eq5_count(ctx, pair, ref.find_g(ctx, pair))


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51", "ctx32"])
def test_bulk_routes_match_pair_routes(fixture, request, monkeypatch):
    # the batched nonsquare and H routes and the bulk g, at every pair of
    # the slice, against the reference find_g and the N table, also one
    # pair per block
    ctx = request.getfixturevalue(fixture)
    for b in (ctx.one, ctx.xi):
        slice_ = es.distribution_sweep(ctx, b).jacobsthal
        a_encs = np.array([a.enc for a in slice_])
        pairs = [pair_of(ctx, a, b) for a in slice_]
        assert es._g_logs(ctx, b, a_encs).tolist() == [
            ctx.dlog(ref.find_g(ctx, pair)) for pair in pairs]
        n2 = es.N_via_nonsquares_bulk(ctx, b, a_encs)
        n3 = es.N_via_jacobsthal_bulk(ctx, b, a_encs)
        assert n2.tolist() == n3.tolist() == list(slice_.values())
        monkeypatch.setattr(es, "BLOCK_ENTRIES", 1)  # one pair per block
        assert es.N_via_nonsquares_bulk(ctx, b, a_encs).tolist() == n2.tolist()
        assert es.N_via_jacobsthal_bulk(ctx, b, a_encs).tolist() == n3.tolist()
        assert es.N_count_bulk(ctx, a_encs, np.full(a_encs.size, b.enc))[0].tolist() == (
            n2.tolist())
        monkeypatch.undo()


def test_bulk_routes_refuse_other_cases(ctx31):
    b = ctx31.one
    a_encs = np.array([a.enc for a in es.jacobsthal_pairs(ctx31, b)] + [ctx31.one.enc])
    for route in (es.N_via_nonsquares_bulk, es.N_via_jacobsthal_bulk):
        with pytest.raises(WrongCase):
            route(ctx31, b, a_encs)
        with pytest.raises(ZeroB):
            route(ctx31, ctx31.zero, a_encs[:1])


def test_bulk_jacobsthal_route_checks_raise(ctx31, monkeypatch):
    # the batch keeps the divisibility and parity checks of the H-sum route
    b = ctx31.one
    a_encs = np.array([a.enc for a in es.jacobsthal_pairs(ctx31, b)])
    real = es.jacobsthal.H_sums
    monkeypatch.setattr(es.jacobsthal, "H_sums", lambda *args: real(*args) + 1)
    with pytest.raises(DivisibilityViolation):
        es.N_via_jacobsthal_bulk(ctx31, b, a_encs)
    monkeypatch.setattr(es.jacobsthal, "H_sums", lambda *args: real(*args) + 4)
    with pytest.raises(ParityViolation):
        es.N_via_jacobsthal_bulk(ctx31, b, a_encs)


def test_jacobsthal_case_parity_and_bound(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        pk = ctx.p ** ctx.params.k
        for b in (ctx.one, ctx.xi):
            even = es.chi(ctx, b) == 1
            for a in es.jacobsthal_pairs(ctx, b):
                n = es.N_count(ctx, pair_of(ctx, a, b))[0]
                assert (n % 2 == 0) == even
                assert (2 * n - (pk + 1)) ** 2 <= 4 * pk
                assert n >= 1


def test_jacobsthal_N_range_31(ctx31):
    # |N - 2| <= sqrt(3) forces N in {1, 2, 3} at p=3, k=1
    seen = set()
    for b in (ctx31.one, ctx31.xi):
        for a in es.jacobsthal_pairs(ctx31, b):
            seen.add(es.N_count(ctx31, pair_of(ctx31, a, b))[0])
    assert seen <= {1, 2, 3}


def test_jacobsthal_N_observed_minimum_32(ctx32):
    # k = 2: the bound gives N >= 2; record the observed minimum instead
    ns = [es.N_count(ctx32, pair_of(ctx32, a, ctx32.one))[0]
          for a in es.jacobsthal_pairs(ctx32, ctx32.one)]
    assert min(ns) >= 2
    print(f"observed minimum N at (3,2), b=1: {min(ns)} over {len(ns)} pairs")


# --------------------------------------------------------------------------
# corollaries
# --------------------------------------------------------------------------

def test_scaling_invariance(ctx31):
    # (xi^3, xi^5) at h = 1, then the seeded triples, in one batch
    triples = [((ctx31.xi ** 3).enc, (ctx31.xi ** 5).enc, 0)]
    rng = random.Random(47)
    for _ in range(200):
        a, b = rng.randrange(ctx31.q), rng.randrange(ctx31.q)
        if a == 0 and b == 0:
            continue
        triples.append((a, b, rng.randrange(ctx31.order)))
    same = es.corollary1_bulk(ctx31, *map(np.array, zip(*triples)))
    assert same.size == len(triples) and same.all()


def test_scaling_sign_insensitive(ctx31):
    # d is even, so h and -h transform to the identical pair
    d = ctx31.params.d
    h = ctx31.xi ** 3
    assert (h ** d, h * h) == ((-h) ** d, (-h) * (-h))


def test_corollary_suite_exhaustive(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        for b in (ctx.one, ctx.xi):
            for a in es.jacobsthal_pairs(ctx, b):
                results = es.corollary_suite(ctx, pair_of(ctx, a, b))
                failed = [key for key, ok in results.items() if ok is False]
                assert not failed, (ctx.p, failed)


def test_corollary_suite_special_value_31(ctx31):
    # p = 3 mod 4, k odd, b = 1: a = nu^2 gives N = (p^k+1)/2 = 2
    nu = ctx31.subfield(2).generator
    pair = pair_of(ctx31, nu ** 2, ctx31.one)
    assert es.case_detail(ctx31, pair).tag is es.CaseTag.JACOBSTHAL
    assert es.N_count(ctx31, pair)[0] == 2
    assert es.corollary_suite(ctx31, pair)["vi"] is True


def test_eq9_sums(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        pk = ctx.p ** ctx.params.k
        for b in (ctx.one, ctx.xi):
            total, expected = es.corollary_eq9_check(ctx, es.distribution_sweep(ctx, b))
            assert total == expected == (pk + 1) * (pk - es.chi(ctx, b)) // 2


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_sweep_jacobsthal_slice(fixture, request):
    # the sweep's slice is jacobsthal_pairs in the same order, and (vii)
    # sums the same N from the N table as N_count gives over that walk
    ctx = request.getfixturevalue(fixture)
    for b in (ctx.one, ctx.xi):
        rep = es.distribution_sweep(ctx, b)
        pairs = es.jacobsthal_pairs(ctx, b)
        assert list(rep.jacobsthal) == pairs
        total, _ = es.corollary_eq9_check(ctx, rep)
        assert total == sum(es.N_count(ctx, pair_of(ctx, a, b))[0] for a in pairs)


def test_eq9_sum_all_b_31(ctx31):
    for b in ctx31.powers():
        total, expected = es.corollary_eq9_check(ctx31, es.distribution_sweep(ctx31, b))
        assert total == expected


def test_corollary_suite_wrong_case(ctx31):
    with pytest.raises(WrongCase):
        es.corollary_suite(ctx31, pair_of(ctx31, ctx31.one, ctx31.one))


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_corollary_properties_match_suite(fixture, request):
    # the batch over a slice (one N_count_bulk call per b) against the
    # pair-by-pair reference; (vi) applies at p = 3 and b square only
    ctx = request.getfixturevalue(fixture)
    for b in (ctx.one, ctx.xi):
        pairs = es.jacobsthal_pairs(ctx, b)
        results = es.corollary_properties(ctx, b, [a.enc for a in pairs])
        assert list(results) == ["i", "iii", "ii", "iv", "v", "vi"]
        assert (results["vi"] is None) == (ctx.p == 5 or es.chi(ctx, b) == -1)
        for i, a in enumerate(pairs):
            want = es.corollary_suite(ctx, pair_of(ctx, a, b))
            got = {key: None if ok is None else bool(ok[i]) for key, ok in results.items()}
            assert got == {key: ok for key, ok in want.items() if key != "vii"}


def test_corollary_properties_refuse_other_cases(ctx31):
    b = ctx31.one
    a_encs = [a.enc for a in es.jacobsthal_pairs(ctx31, b)]
    for outside in (0, ctx31.one.enc):  # NORM_DIFFER and SQUARE_MATCH
        with pytest.raises(WrongCase):
            es.corollary_properties(ctx31, b, a_encs + [outside])
    with pytest.raises(ZeroB):
        es.corollary_properties(ctx31, ctx31.zero, a_encs)


def test_corollary1_bulk_scales_each_pair(ctx31, ctx32, monkeypatch):
    # the batch counts every pair and its scaling (a h^d, b h^2), a = 0 or
    # b = 0 among them, as plain field arithmetic gives them
    seen = []
    real = es.N_count_bulk
    monkeypatch.setattr(es, "N_count_bulk",
                        lambda ctx, a, b: seen.append((a, b)) or real(ctx, a, b))
    rng = random.Random(29)
    for ctx in (ctx31, ctx32):
        triples = [(0, 1 + rng.randrange(ctx.q - 1), 5), (7, 0, 3)] + [
            (1 + rng.randrange(ctx.q - 1), rng.randrange(ctx.q), rng.randrange(ctx.order))
            for _ in range(30)]
        seen.clear()
        assert es.corollary1_bulk(ctx, *map(np.array, zip(*triples))).all()
        (a_all, b_all), = seen
        scaled = [(ctx.from_enc(a) * ctx.from_exp(h) ** ctx.params.d,
                   ctx.from_enc(b) * ctx.from_exp(h) ** 2) for a, b, h in triples]
        assert a_all.tolist() == [a for a, _, _ in triples] + [x.enc for x, _ in scaled]
        assert b_all.tolist() == [b for _, b, _ in triples] + [y.enc for _, y in scaled]


# --------------------------------------------------------------------------
# the distribution sweep
# --------------------------------------------------------------------------

def test_sweep_identities_31(ctx31):
    rep1 = es.distribution_sweep(ctx31, ctx31.one)
    assert (rep1.r + rep1.s + rep1.t, -rep1.r + rep1.s + 3 * rep1.t) == (79, 3)
    repx = es.distribution_sweep(ctx31, ctx31.xi)
    assert (repx.r + repx.s + repx.t, -repx.r + repx.s + 3 * repx.t) == (77, -3)
    for rep in (rep1, repx):
        assert rep.s0_total == 81
        assert rep.residuals == (0, 0, 0)
    # jacobsthal-case sums never contribute the value -p^2k
    assert 0 not in rep1.jac_histogram and 0 not in repx.jac_histogram


def test_sweep_identities_51(ctx51):
    for b in (ctx51.one, ctx51.xi):
        rep = es.distribution_sweep(ctx51, b)
        assert rep.residuals == (0, 0, 0)
        assert rep.s0_total == 625


def test_sweep_matches_slow_context(ctx31):
    # per a: the same case, N, S0 and witness encodings from the table path
    # and from plain field arithmetic, at b = 1 and b = xi
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    for e in (0, 1):
        fast_recs, slow_recs = [], []
        fast = es.distribution_sweep(ctx31, ctx31.from_exp(e), fast_recs.append)
        ref = es.distribution_sweep(slow, slow.from_exp(e), slow_recs.append)
        assert (ref.r, ref.s, ref.t) == (fast.r, fast.s, fast.t)
        assert ref.jac_histogram == fast.jac_histogram
        assert [a.enc for a in ref.jacobsthal] == [a.enc for a in fast.jacobsthal]
        assert len(fast_recs) == len(slow_recs) == 81
        for f, s in zip(fast_recs, slow_recs):
            assert (f.pair.a.enc, f.tag, f.N, f.S0) == (s.pair.a.enc, s.tag, s.N, s.S0)
            assert [w.enc for w in f.witnesses] == [w.enc for w in s.witnesses]


def test_sweep_range_check_raises(ctx31, monkeypatch):
    # tallied as three-valued, the JACOBSTHAL pairs with N = 3 must be caught
    monkeypatch.setattr(es, "case_tags", lambda ctx, b: np.zeros(ctx.q, dtype=np.int8))
    with pytest.raises(RangeViolation):
        es.distribution_sweep(ctx31, ctx31.xi)


def test_sweep_oracle_mismatch_raises(ctx31, monkeypatch):
    # a closed form off by one at a single a must disagree with the transform
    real = es.N_table
    bad = ctx31.xi ** 5

    def off_by_one(ctx, b):
        n, incidence = real(ctx, b)
        n = n.copy()
        n[bad.enc] += 1
        return n, incidence

    monkeypatch.setattr(es, "N_table", off_by_one)
    with pytest.raises(OracleMismatch, match="defining sum .* a=g\\^5,"):
        es.distribution_sweep(ctx31, ctx31.one)


def test_sweep_cross_check_catches_N_count(ctx31, monkeypatch):
    # a = 0 is always cross-checked: a direct count off by one there must
    # disagree (the sweep makes the direct count for its sample in one batch)
    real = es.N_count_bulk

    def off_by_one(ctx, a_encs, b_encs):
        n, zeros = real(ctx, a_encs, b_encs)
        return n + (np.asarray(a_encs) == 0), zeros

    monkeypatch.setattr(es, "N_count_bulk", off_by_one)
    with pytest.raises(OracleMismatch, match="a=0,"):
        es.distribution_sweep(ctx31, ctx31.one)


def test_sweep_cross_check_catches_case_split(ctx31, monkeypatch):
    # a = 0 (NORM_DIFFER, N = 0) tagged SQUARE_MATCH passes the oracle and the
    # range check; only the cross-check against case_detail sees it
    real = es.case_tags

    def flipped(ctx, b):
        tags = real(ctx, b).copy()
        tags[0] = es.CASE_TAGS.index(es.CaseTag.SQUARE_MATCH)
        return tags

    monkeypatch.setattr(es, "case_tags", flipped)
    with pytest.raises(CaseViolation, match="a=0,"):
        es.distribution_sweep(ctx31, ctx31.one)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51", "ctx32"])
def test_sweep_tables_match_direct_count(fixture, request):
    # every a: the N table's N and witnesses equal N_count's, and the bulk
    # case split equals case_detail
    ctx = request.getfixturevalue(fixture)
    for b in (ctx.one, ctx.xi):
        recs = []
        rep = es.distribution_sweep(ctx, b, recs.append)
        assert [rec.pair.a for rec in recs] == [ctx.zero] + list(ctx.powers())
        for rec in recs:
            n, witnesses = es.N_count(ctx, rec.pair)
            assert rec.N == n
            assert [w.enc for w in rec.witnesses] == [w.enc for w in witnesses]
            assert rec.tag is es.case_detail(ctx, rec.pair).tag
        assert list(rep.jacobsthal) == [rec.pair.a for rec in recs
                                        if rec.tag is es.CaseTag.JACOBSTHAL]
        for a, n in rep.jacobsthal.items():
            assert n == es.N_count(ctx, pair_of(ctx, a, b))[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pk=st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]), data=st.data())
def test_N_table_and_case_tags_property(pk, data):
    ctx = context(*pk)
    b = ctx.from_exp(data.draw(st.integers(0, ctx.order - 1), label="log b"))
    i = data.draw(st.integers(0, ctx.order), label="sweep position of a")
    a = ctx.zero if i == 0 else ctx.from_exp(i - 1)
    n, _ = es.N_table(ctx, b)
    assert n[a.enc] == es.N_count(ctx, pair_of(ctx, a, b))[0]
    assert es.CASE_TAGS[es.case_tags(ctx, b)[i]] is es.case_detail(ctx, pair_of(ctx, a, b)).tag


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pk=st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]), data=st.data())
def test_character_counts_match_bruteforce_property(pk, data):
    # a row of the transform against the defining sum at a random pair,
    # a = 0 or b = 0 among them
    ctx = context(*pk)
    lb = data.draw(st.integers(-1, ctx.order - 1), label="log b, -1 for b = 0")
    b = ctx.zero if lb < 0 else ctx.from_exp(lb)
    a = ctx.from_enc(data.draw(st.integers(int(b.is_zero), ctx.q - 1), label="a"))
    counts = es.character_counts(ctx, ((ctx.one, ctx.params.d),), ((b, 2),))
    assert CycInt.from_counts(ctx.p, counts[a.enc]) == es.S0_bruteforce(ctx, pair_of(ctx, a, b))


@functools.cache
def _slow_context(p, k):
    return build_context(FieldParams(p, k), 4 * k, use_tables=False)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pk=st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]), data=st.data())
def test_N_count_bulk_property(pk, data):
    # the batched direct count at random pairs, a = 0 or b = 0 among them:
    # N and witnesses against the rows of the N table, and against the same
    # count on the use_tables=False context
    ctx, slow = context(*pk), _slow_context(*pk)
    element = st.one_of(st.just(0), st.integers(1, ctx.q - 1))
    pairs = data.draw(st.lists(st.tuples(element, element).filter(any), min_size=1, max_size=3),
                      label="pairs")
    a_encs, b_encs = (np.array(x, dtype=np.int64) for x in zip(*pairs))
    n, zeros = es.N_count_bulk(ctx, a_encs, b_encs)
    n_slow, zeros_slow = es.N_count_bulk(slow, a_encs, b_encs)
    assert n.tolist() == n_slow.tolist() and zeros.tolist() == zeros_slow.tolist()
    u_encs = ctx.exp_enc_bulk(es.U_logs(ctx))
    for a, b, n_i, zeros_i in zip(a_encs, b_encs, n, zeros):
        assert zeros_i.sum() == 2 * n_i
        if b:
            table, incidence = es.N_table(ctx, ctx.from_enc(int(b)))
            witnesses, = es._witnesses(ctx, incidence, a_encs[a_encs == a][:1])
            assert n_i == table[a] and u_encs[zeros_i].tolist() == witnesses.tolist()


def test_N_count_bulk_parity_and_admissibility(ctx31, monkeypatch):
    with pytest.raises(BothCoefficientsZero):
        es.N_count_bulk(ctx31, [1, 0], [1, 0])
    # one zero of L on U too many at the second pair must raise there
    real = FieldCtx.sum_enc_bulk

    def extra_zero(ctx, terms, logs):
        values = real(ctx, terms, logs).copy()
        values[1, np.flatnonzero(values[1])[0]] = 0
        return values

    monkeypatch.setattr(FieldCtx, "sum_enc_bulk", extra_zero)
    with pytest.raises(ParityViolation, match="zeros of L on U at a=g\\^3, b=g\\^5"):
        es.N_count_bulk(ctx31, [1, ctx31.from_exp(3).enc], [1, ctx31.from_exp(5).enc])


def test_g_logs_refuses_other_cases_with_a_typed_error(ctx31, monkeypatch):
    # with the case split bypassed, the dlog solve for g must still refuse a
    # NORM_DIFFER pair with its own check: NotInSubfield, not a NameError
    b = ctx31.xi
    tags = es.case_tags(ctx31, b)[1:]
    a = es.sweep_order(ctx31)[1:][tags == es.CASE_TAGS.index(es.CaseTag.NORM_DIFFER)][0]
    monkeypatch.setattr(es, "_require_jacobsthal_bulk", lambda ctx, b, la: None)
    with pytest.raises(NotInSubfield):
        es.N_via_nonsquares_bulk(ctx31, b, [a])


def test_sweep_rejects_zero_b(ctx31):
    with pytest.raises(ZeroB):
        es.distribution_sweep(ctx31, ctx31.zero)


def test_record_json(ctx31):
    rec = es.expsum_record(ctx31, pair_of(ctx31, ctx31.one, ctx31.one))
    out = rec.to_json_dict(ctx31)
    assert out == {"a": "g^0", "b": "g^0", "tag": "SQUARE_MATCH",
                   "N": 0, "S0": -9, "witnesses": []}
    rep = es.distribution_sweep(ctx31, ctx31.one).to_json_dict(ctx31)
    assert rep["residuals"] == [0, 0, 0]
    assert set(rep) == {"b", "chi_b", "r", "s", "t", "jac_histogram",
                        "s0_total", "residuals"}
