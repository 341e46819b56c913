import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import expsum as es
from charsum import jacobsthal
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


def sweep_logs(ctx):
    # the dlogs of the sweep order a = 0, xi^0, xi^1, ..., -1 for a = 0
    return np.arange(-1, ctx.order, dtype=np.int64)


def element(ctx, l):
    return ctx.zero if l < 0 else ctx.from_exp(int(l))


def norms_agree(ctx, a, b):
    # a^(p^k(p^k+1)) = b^(p^k+1) by Elem powers
    pk = ctx.p ** ctx.params.k
    return a ** (pk * (pk + 1)) == b ** (pk + 1)


def _scan(ctx):
    # the Jacobsthal bound scan of the 2k-view, where prop2 reads H
    return jacobsthal.theorem2_scan(ctx.subfield(2 * ctx.params.k))


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
        assert ref.contains(view, es.L_eval(ctx31, u, pair))


# --------------------------------------------------------------------------
# zero counts and the exponential sum
# --------------------------------------------------------------------------

def test_N_count_examples(ctx31):
    one = ctx31.one
    n, w = es.N_count(ctx31, pair_of(ctx31, one, one))
    assert n == 0 and w == []
    n, w = es.N_count(ctx31, pair_of(ctx31, -one, one))
    assert n == 1
    assert {x.enc for x in w} == {one.enc, (-one).enc}  # +-b^(-(p^2k-1)/2) with b = 1
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
    for b in ref.elements(ctx31.subfield(4)):
        for a in ref.elements(ctx31.subfield(4)):
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
    for lb in range(ctx51.order):
        es.distribution_sweep(ctx51, lb)  # raises OracleMismatch on any defect
    for a in ctx51.powers():
        pair = pair_of(ctx51, a, ctx51.zero)
        assert es.S0_bruteforce(ctx51, pair) == _S0_closed(ctx51, pair)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_character_counts_match_bruteforce(fixture, request):
    # one transform row per a equals the per-pair defining sum, a = 0 included
    ctx = request.getfixturevalue(fixture)
    for b in (ctx.one, ctx.xi):
        counts = es.character_counts(ctx, ctx.params.d, ((ctx.dlog(b), 2),))
        assert counts.shape == (ctx.q, ctx.p)
        for a in ref.elements(ctx.subfield(ctx.m)):
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
    assert es.case_detail(ctx31, pair_of(ctx31, one, one)) is es.CaseTag.SQUARE_MATCH
    assert norms_agree(ctx31, one, one) and es.norms_match(ctx31, 0, 0)
    assert es.chi(0) == 1
    assert es.case_detail(ctx31, pair_of(ctx31, ctx31.zero, one)) is es.CaseTag.NORM_DIFFER
    nu = ref.generator(ctx31.subfield(2))
    assert es.case_detail(ctx31, pair_of(ctx31, nu ** 2, one)) is es.CaseTag.JACOBSTHAL
    with pytest.raises(BothCoefficientsZero):
        es.case_detail(ctx31, pair_of(ctx31, ctx31.zero, ctx31.zero))


def test_tags_partition_everything(ctx31):
    tags = {tag: 0 for tag in es.CaseTag}
    for b in ref.elements(ctx31.subfield(4)):
        for a in ref.elements(ctx31.subfield(4)):
            if a.is_zero and b.is_zero:
                continue
            tags[es.case_detail(ctx31, pair_of(ctx31, a, b))] += 1
    assert sum(tags.values()) == 6560
    assert all(v > 0 for v in tags.values())


def test_square_match_norms_iff_b_square(ctx31):
    # at a = +-b^(d/2) the norms agree exactly when b is a square
    d = ctx31.params.d
    for b in ctx31.powers():
        for sign in (1, -1):
            a = sign * b ** (d // 2)
            assert es.case_detail(ctx31, pair_of(ctx31, a, b)) is es.CaseTag.SQUARE_MATCH
            square = es.chi(ctx31.dlog(b)) == 1
            assert norms_agree(ctx31, a, b) == square
            assert es.norms_match(ctx31, ctx31.dlog(a), ctx31.dlog(b)) == square


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
                if es.case_detail(ctx, pair) is es.CaseTag.JACOBSTHAL:
                    continue
                assert es.N_count(ctx, pair)[0] <= 2


def test_F_degenerates_exactly_on_matching_norms(ctx31):
    view = ctx31.subfield(2)
    for b in (ctx31.one, ctx31.xi):
        for a in es.jacobsthal_pairs(ctx31, b):
            pair = pair_of(ctx31, a, b)
            _, B = ref._F_terms(ctx31, pair)
            assert B.is_zero
            assert ref.contains(view, a * b ** 3)  # a b^(p^k) falls into GF(p^2k)
            with pytest.raises(WrongCase):
                ref.prop1_F_zeros(ctx31, pair)


# --------------------------------------------------------------------------
# Proposition 1 by linear algebra
# --------------------------------------------------------------------------

def _matvec(ctx, encs, mat, vectors):
    # mat @ vectors over GF(p^k) in the ambient field's own arithmetic, for
    # keys mat (r, c) and vectors (c, N), encs the encodings by key: the
    # encodings (r, N) of the products
    out = np.zeros((mat.shape[0], vectors.shape[1]), dtype=np.int64)
    for j in range(mat.shape[1]):
        u, v = encs[mat[:, j, None]], encs[vectors[None, j]]
        live = (u != 0) & (v != 0)
        logs = ctx.log_enc_bulk(np.where(u == 0, 1, u)) + ctx.log_enc_bulk(np.where(v == 0, 1, v))
        out = ctx.add_enc_bulk(out, np.where(live, ctx.exp_enc_bulk(logs), 0))
    return out


@functools.lru_cache(maxsize=None)
def _coordinates(ctx, encs):
    # the coordinates over GF(p^k) of every element z = sum_j c_j X^j of
    # GF(p^n), as keys: row z.enc holds the keys of c_0..c_3
    encs = np.array(encs)
    keys = np.indices((len(encs),) * 4).reshape(4, -1)
    z = np.zeros(keys.shape[1], dtype=np.int64)
    for j in range(4):
        c = encs[keys[j]]
        x_j = np.where(c == 0, 0, ctx.exp_enc_bulk(ctx.log_enc_bulk(np.where(c == 0, 1, c)) + j))
        z = ctx.add_enc_bulk(z, x_j)
    coords = np.full((ctx.q, 4), -1, dtype=np.int64)
    coords[z] = keys.T
    assert (coords >= 0).all()  # {X^j} is a basis over GF(p^k)
    return coords


def _kernels_match_zero_sets(ctx, la, lb, key_encodings):
    # each matrix's kernel is the zero set found by reference._zero_set: every
    # zero, through its coordinates over GF(p^k), is in both kernels, and the
    # kernels have as many elements as the zero set
    encs = key_encodings(ctx.subfield(ctx.params.k))
    coords = _coordinates(ctx, tuple(encs))
    la, lb = np.asarray(la, dtype=np.int64), np.asarray(lb, dtype=np.int64)
    L, F = es.form_matrices(ctx)(la, lb)
    arith = ctx.subfield(ctx.params.k).key_arithmetic()
    bad, dim_L, dim_F = es.kernel_mismatches(L, F, arith)
    assert bad.size == 0
    pk = ctx.p ** ctx.params.k
    for i, (a, b) in enumerate(zip(la, lb)):
        pair = pair_of(ctx, element(ctx, a), element(ctx, b))
        zeros = ref.L_zeros_field(ctx, pair)
        assert zeros == ref.prop1_F_zeros(ctx, pair)
        assert len(zeros) == pk ** dim_L[i] == pk ** dim_F[i]
        vectors = coords[[z.enc for z in zeros]].T
        assert not _matvec(ctx, encs, L[i], vectors).any()
        assert not _matvec(ctx, encs, F[i], vectors).any()
    assert es.prop1_kernel_check(ctx, la, lb) == len(la)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_kernel_route_matches_zero_sets(fixture, request, key_encodings):
    # every a with differing norms, for b in {1, xi}
    ctx = request.getfixturevalue(fixture)
    for lb in (0, 1):
        la = sweep_logs(ctx)[~es.norms_match(ctx, sweep_logs(ctx), lb)]
        _kernels_match_zero_sets(ctx, la, np.full(la.size, lb), key_encodings)


def _seeded_pairs_32(ctx32):
    # 12 seeded pairs with differing norms, among them a = 0 and b = 0, as dlogs
    rng = random.Random(32)
    pairs = [(-1, 1), (1, -1)]
    while len(pairs) < 12:
        a, b = ctx32.from_enc(rng.randrange(ctx32.q)), ctx32.from_enc(rng.randrange(ctx32.q))
        if (a.is_zero and b.is_zero) or norms_agree(ctx32, a, b):
            continue
        pairs.append((ctx32.log(a), ctx32.log(b)))
    return [np.array(x, dtype=np.int64) for x in zip(*pairs)]


def test_kernel_route_matches_zero_sets_seeded_32(ctx32, key_encodings):
    _kernels_match_zero_sets(ctx32, *_seeded_pairs_32(ctx32), key_encodings)


def _entry_keys(ctx, la, lb):
    # the keys sum_s Tr_k(eta^s z) p^s of z = T(X^i P(X^j)), T = Tr_{4k/k},
    # with P = L from reference._L_terms, then F from the A and B of
    # reference._F_terms, entry by entry in Elem arithmetic: (2, n, 4, 4)
    k, pk = ctx.params.k, ctx.p ** ctx.params.k
    view = ctx.subfield(k)
    nu = ref.generator(view)
    keys = np.zeros((2, len(la), 4, 4), dtype=np.int64)
    for n, (a, b) in enumerate(zip(la, lb)):
        pair = pair_of(ctx, element(ctx, a), element(ctx, b))
        A, B = ref._F_terms(ctx, pair)
        polys = ref._L_terms(ctx, pair), ((A, pk ** 2), (B, pk), (A ** pk, 1))
        for P, terms in enumerate(polys):
            for i, j in itertools.product(range(4), repeat=2):
                x = ctx.xi ** j
                z = ctx.rel_trace(ctx.xi ** i * sum((c * x ** e for c, e in terms), ctx.zero), k)
                keys[P, n, i, j] = sum(ref.abs_trace(view, nu ** s * z) * ctx.p ** s
                                       for s in range(k))
    return keys


def test_form_matrices_entries(ctx31, ctx32):
    # every entry of both matrices, not only their kernels: each
    # norms-differ a of b = g^0 and g^1 at (3,1), and the seeded pairs at (3,2)
    cases = [(ctx32, *_seeded_pairs_32(ctx32))]
    for lb in (0, 1):
        la = sweep_logs(ctx31)[~es.norms_match(ctx31, sweep_logs(ctx31), lb)]
        cases.append((ctx31, la, np.full(la.size, lb)))
    for ctx, la, lb in cases:
        keys = es.form_matrices(ctx)(la, lb)
        assert keys.dtype == np.int64 and keys.tolist() == _entry_keys(ctx, la, lb).tolist()


def test_form_matrices_match_slow_context(ctx31, ctx32):
    # the table path against the per-element fallback of the bulk primitives,
    # at every seventh norms-differ a at (3,1) and at three a at (3,2)
    for ctx, pairs in ((ctx31, slice(None, None, 7)), (ctx32, slice(3))):
        slow = build_context(ctx.params, ctx.m, use_tables=False)
        la = sweep_logs(ctx)[~es.norms_match(ctx, sweep_logs(ctx), 1)][pairs]
        lb = np.full(la.size, 1)
        fast, plain = es.form_matrices(ctx)(la, lb), es.form_matrices(slow)(la, lb)
        assert [m.tolist() for m in fast] == [m.tolist() for m in plain]
        assert es.prop1_kernel_check(slow, la, lb) == la.size


def test_kernel_check_catches_perturbed_F(ctx31):
    a, b = ctx31.xi ** 5, ctx31.xi
    arith = ctx31.subfield(1).key_arithmetic()
    L, F = es.form_matrices(ctx31)(np.array([5]), np.array([1]))
    assert es.kernel_mismatches(L, F, arith)[0].tolist() == []
    # one entry of F's first row off at a coordinate where a common zero is
    # nonzero (over GF(3) the key of c is c, and so are the coordinates)
    zero = ref.L_zeros_field(ctx31, pair_of(ctx31, a, b))[1]
    j = next(i for i, c in enumerate(zero.coeffs) if c)
    off = F.copy()
    off[0, 0, j] = (off[0, 0, j] + 1) % 3
    assert es.kernel_mismatches(L, off, arith)[0].tolist() == [0]
    # the same kernel as L, but of dimension above 2, is refused too
    zero_maps = np.zeros_like(F)
    assert es.kernel_mismatches(zero_maps, zero_maps, arith)[0].tolist() == [0]


@pytest.mark.parametrize("term", range(10))
@pytest.mark.parametrize("fixture", ["ctx31", "ctx32"])
def test_kernel_check_raises_on_wrong_F(fixture, term, request, monkeypatch):
    # the sign of one of the ten terms of L (0-3) and F (4-9) flipped in
    # form_matrices' map: L and F no longer share their zeros
    ctx = request.getfixturevalue(fixture)
    real = es._key_terms(ctx)
    poly, u, t, sign, e = real[term]
    flipped = real[:term] + ((poly, u, t, -sign, e),) + real[term + 1:]
    monkeypatch.setattr(es, "_key_terms", lambda ctx: flipped)
    la = sweep_logs(ctx)[~es.norms_match(ctx, sweep_logs(ctx), 0)]
    with pytest.raises(KernelMismatch, match="a=.*, b=g\\^0"):
        es.prop1_kernel_check(ctx, la, np.zeros(la.size, dtype=np.int64))
    with pytest.raises(BothCoefficientsZero):
        es.prop1_kernel_check(ctx, [-1], [-1])


def _subfield(q):
    # GF(q) as a subfield view of a small ambient field: context(p, k, m), degree
    p, k, m, degree = {3: (3, 1, 4, 1), 5: (5, 1, 4, 1), 9: (3, 1, 4, 2),
                       25: (5, 1, 4, 2), 27: (3, 3, 6, 3), 37: (37, 1, 2, 1)}[q]
    return context(p, k, m).subfield(degree)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(q=st.sampled_from([3, 5, 9, 25, 27, 37]), data=st.data())
def test_rref_keyed_kernel_sizes(q, data, key_encodings):
    # the rank from rref_keyed against a count of the kernel over all of
    # GF(q)^c, in the ambient field's own arithmetic
    view = _subfield(q)
    c_max = max(c for c in range(1, 5) if q ** c <= 20_000)
    r, c = data.draw(st.integers(1, 4), label="rows"), data.draw(st.integers(1, c_max), label="cols")
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=c, max_size=c),
                              min_size=r, max_size=r), label="matrix")
    mat = np.array(rows, dtype=np.int64)
    arith, encs = view.key_arithmetic(), key_encodings(view)
    reduced, rank = es.rref_keyed(mat[None], arith)
    vectors = np.indices((q,) * c).reshape(c, -1)

    def in_kernel(m):
        return ~_matvec(view.ctx, encs, m, vectors).any(axis=0)

    assert np.count_nonzero(in_kernel(mat)) == q ** (c - rank[0])
    assert (in_kernel(reduced[0]) == in_kernel(mat)).all()
    assert es.rref_keyed(reduced, arith)[0].tolist() == reduced.tolist()  # reduced is a fixed point


def test_norms_match_matches_case_detail(ctx31, ctx51):
    # the dlog rule against the norms by exact powers, as case_detail takes
    # them, at every a, and at b = 0 (a zero b matches no nonzero a)
    for ctx in (ctx31, ctx51):
        pk = ctx.p ** ctx.params.k
        for lb in (0, 1):
            matched = es.norms_match(ctx, sweep_logs(ctx), lb)
            b = ctx.from_exp(lb)
            assert matched.tolist() == [norms_agree(ctx, element(ctx, l), b)
                                        for l in sweep_logs(ctx)]
            assert np.count_nonzero(matched) == pk + 1  # the fibre of the norm map
        assert not es.norms_match(ctx, sweep_logs(ctx)[1:], -1).any()
        with pytest.raises(BothCoefficientsZero):
            es.norms_match(ctx, -1, -1)


# --------------------------------------------------------------------------
# the Jacobsthal case: g and the three N paths
# --------------------------------------------------------------------------

def _eq5_count(ctx, pair, g):
    # test-local recount of the nonsquare criterion for an arbitrary valid g
    k = ctx.params.k
    view = ctx.subfield(2 * k)
    kview = ctx.subfield(k)
    bq = pair.b ** (ctx.p ** (2 * k) + 1)
    return sum(1 for c in ref.elements(kview) if ref.eta(view, (c * g) ** 2 - bq) == -1)


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
            assert ref.discrete_log(view, g) < p ** k + 1
            # the quotient never falls back into GF(p^k)
            assert not ref.contains(kview, b ** (p ** (2 * k) + 1) / (g * g))
            # GF(p^k)* rescalings of g leave the count invariant
            n = es.N_count(ctx31, pair)[0]
            assert _eq5_count(ctx31, pair, g) == n
            assert _eq5_count(ctx31, pair, ref.generator(kview) * g) == n


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
        la, lb = [ctx.dlog(a) for a in pairs], ctx.dlog(b)
        g_logs = es.g_logs(ctx, la, lb)
        n2 = es.N_via_nonsquares_bulk(ctx, la, lb, g_logs)
        n3 = es.N_via_jacobsthal_bulk(ctx, la, lb, g_logs, _scan(ctx))
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
        lb = ctx.dlog(b)
        rep = es.distribution_sweep(ctx, lb)
        la, n1 = rep.jacobsthal, rep.N[rep.jacobsthal + 1]
        pairs = [pair_of(ctx, ctx.from_exp(int(l)), b) for l in la]
        g_logs = es.g_logs(ctx, la, lb)
        assert g_logs.tolist() == [ctx.dlog(ref.find_g(ctx, pair)) for pair in pairs]
        n2 = es.N_via_nonsquares_bulk(ctx, la, lb, g_logs)
        n3 = es.N_via_jacobsthal_bulk(ctx, la, lb, g_logs, _scan(ctx))
        assert n2.tolist() == n3.tolist() == n1.tolist()
        monkeypatch.setattr(es, "BLOCK_ENTRIES", 1)  # one pair per block
        assert es.N_via_nonsquares_bulk(ctx, la, lb, g_logs).tolist() == n2.tolist()
        assert es.N_count_bulk(ctx, la, np.full(la.size, lb))[0].tolist() == n2.tolist()
        monkeypatch.undo()


def test_bulk_routes_refuse_other_cases(ctx31):
    # both routes take their g from the one dlog solve, which refuses a pair
    # outside the slice; the H route refuses an argument in GF(p^k)
    b = ctx31.one
    la = np.array([ctx31.dlog(a) for a in es.jacobsthal_pairs(ctx31, b)] + [0])  # (1, 1) last
    with pytest.raises(WrongCase):
        es.g_logs(ctx31, la, 0)
    with pytest.raises(ZeroB):
        es.g_logs(ctx31, la[:1], -1)
    # with g = 1 the argument is -b^(p^2k+1) = -1, which lies in GF(3)
    with pytest.raises(CaseViolation, match="lies in GF"):
        es.N_via_jacobsthal_bulk(ctx31, la[:1], 0, [0], _scan(ctx31))


def test_jacobsthal_route_refuses_a_scan_of_another_field(ctx31):
    # the scan of a standalone GF(p^2k), as jacobsthal-scan builds it, has
    # dlogs to another generator, each below p^2k - 1 and so no multiple
    # of the 2k-view's step p^2k + 1
    la = sweep_logs(ctx31)[es.case_tags(ctx31, sweep_logs(ctx31), 0) == es.CaseTag.JACOBSTHAL]
    standalone = jacobsthal.theorem2_scan(context(3, 1, 2).subfield(2))
    assert standalone.logs.tolist() == [1, 2, 3, 5, 6, 7]
    with pytest.raises(NotInSubfield, match="not all multiples of 10: a scan of another GF"):
        es.N_via_jacobsthal_bulk(ctx31, la, 0, es.g_logs(ctx31, la, 0), standalone)


def test_bulk_jacobsthal_route_checks_raise(ctx31):
    # the route keeps the divisibility and parity checks of eq8 on the H it
    # reads from the scan
    b = ctx31.one
    la = np.array([ctx31.dlog(a) for a in es.jacobsthal_pairs(ctx31, b)])
    g_logs, scan = es.g_logs(ctx31, la, 0), _scan(ctx31)
    for shift, error in ((1, DivisibilityViolation), (4, ParityViolation)):
        with pytest.raises(error):
            es.N_via_jacobsthal_bulk(ctx31, la, 0, g_logs,
                                     dataclasses.replace(scan, H=scan.H + shift))


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1)])
def test_scan_H_matches_H_sums_at_prop2_arguments(p, k):
    # the H that prop2 reads from the bound scan at each argument
    # -b^(p^2k+1)/g^2, against H by definition (reference.H_sums) with the
    # reference g, at every pair of the slice for b = g^0..g^5
    ctx = context(p, k)
    view, pk, Q = ctx.subfield(2 * k), p ** k, p ** (2 * k)
    scan = _scan(ctx)
    for e in range(6):
        b = ctx.from_exp(e)
        la = sweep_logs(ctx)[es.case_tags(ctx, sweep_logs(ctx), e) == es.CaseTag.JACOBSTHAL]
        args = [-(b ** (Q + 1)) / ref.find_g(ctx, pair_of(ctx, ctx.from_exp(int(l)), b)) ** 2
                for l in la]
        H = ref.H_sums(view, pk + 1, [x.enc for x in args])
        logs = [ctx.dlog(x) for x in args]
        position = np.searchsorted(scan.logs, logs)
        assert scan.logs[position].tolist() == logs
        assert scan.H[position].tolist() == H.tolist()
        n = es.N_via_jacobsthal_bulk(ctx, la, e, es.g_logs(ctx, la, e), scan)
        assert la.size and (2 * n).tolist() == (pk - H // (pk + 1) + 1).tolist()


def test_jacobsthal_case_parity_and_bound(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        pk = ctx.p ** ctx.params.k
        for b in (ctx.one, ctx.xi):
            even = es.chi(ctx.dlog(b)) == 1
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
    triples = [(3, 5, 0)]
    rng = random.Random(47)
    for _ in range(200):
        a, b = (ctx31.from_enc(rng.randrange(ctx31.q)) for _ in range(2))
        if a.is_zero and b.is_zero:
            continue
        triples.append((ctx31.log(a), ctx31.log(b), rng.randrange(ctx31.order)))
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
    nu = ref.generator(ctx31.subfield(2))
    pair = pair_of(ctx31, nu ** 2, ctx31.one)
    assert es.case_detail(ctx31, pair) is es.CaseTag.JACOBSTHAL
    assert es.N_count(ctx31, pair)[0] == 2
    assert es.corollary_suite(ctx31, pair)["vi"] is True


@pytest.mark.parametrize("fixture", ["ctx31", "ctx71"])
def test_corollary_special_value_at_a_square_b(fixture, request):
    # (vi) at b = g^2, where b^(d/2) != 1, so that the exponent of b in the
    # special a is exercised: both routes evaluate it and it holds
    ctx = request.getfixturevalue(fixture)
    b = ctx.from_exp(2)
    rep = es.distribution_sweep(ctx, 2)
    vi = es.corollary_properties(ctx, rep)["vi"]
    assert vi is not None and vi.size == rep.jacobsthal.size and vi.all()
    pair = pair_of(ctx, element(ctx, rep.jacobsthal[0]), b)
    assert es.corollary_suite(ctx, pair)["vi"] is True


def test_corollary_bound_attained():
    # (v) holds at equality, (2N - (p^k+1))^2 = 4p^k: p^k = 9 and N = 2 or 8
    n = np.array([2, 8])
    for chi_b in (1, -1):
        assert es._properties(9, chi_b, n, n, n, n)["v"].tolist() == [True, True]


def test_eq9_sums(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        pk = ctx.p ** ctx.params.k
        for lb in (0, 1):
            rep = es.distribution_sweep(ctx, lb)
            total, expected = es.corollary_eq9_check(ctx, lb, rep.N[rep.jacobsthal + 1])
            assert total == expected == (pk + 1) * (pk - es.chi(lb)) // 2


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51"])
def test_sweep_jacobsthal_slice(fixture, request):
    # the sweep's slice is jacobsthal_pairs in the same order, its N table
    # there is what N_count gives over that walk, and (vii) sums those N
    ctx = request.getfixturevalue(fixture)
    for b in (ctx.one, ctx.xi):
        rep = es.distribution_sweep(ctx, ctx.dlog(b))
        assert rep.jacobsthal.dtype == np.int64
        n = rep.N[rep.jacobsthal + 1]
        pairs = es.jacobsthal_pairs(ctx, b)
        assert rep.jacobsthal.tolist() == [ctx.dlog(a) for a in pairs]
        assert n.tolist() == [es.N_count(ctx, pair_of(ctx, a, b))[0] for a in pairs]
        total, _ = es.corollary_eq9_check(ctx, rep.lb, n)
        assert total == sum(n.tolist())


def test_eq9_sum_all_b_31(ctx31):
    for lb in range(ctx31.order):
        rep = es.distribution_sweep(ctx31, lb)
        total, expected = es.corollary_eq9_check(ctx31, lb, rep.N[rep.jacobsthal + 1])
        assert total == expected


def test_corollary_suite_wrong_case(ctx31):
    with pytest.raises(WrongCase):
        es.corollary_suite(ctx31, pair_of(ctx31, ctx31.one, ctx31.one))


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51", "ctx32"])
def test_corollary_properties_match_suite(fixture, request):
    # the batch over a slice (N from the sweep's table, one N_count_bulk
    # call for the rest) against the pair-by-pair reference, at every
    # JACOBSTHAL a for b = g^0..g^3; (vi) applies at p = 3, k odd and b
    # square only
    ctx = request.getfixturevalue(fixture)
    for e in range(4):
        b = ctx.from_exp(e)
        pairs = es.jacobsthal_pairs(ctx, b)
        rep = es.distribution_sweep(ctx, e)
        assert rep.jacobsthal.tolist() == [ctx.dlog(a) for a in pairs]
        results = es.corollary_properties(ctx, rep)
        assert list(results) == ["i", "iii", "ii", "iv", "v", "vi"]
        assert (results["vi"] is None) == (ctx.p == 5 or ctx.params.k == 2 or e % 2 == 1)
        for i, a in enumerate(pairs):
            want = es.corollary_suite(ctx, pair_of(ctx, a, b))
            got = {key: None if ok is None else bool(ok[i]) for key, ok in results.items()}
            assert got == {key: ok for key, ok in want.items() if key != "vii"}


def test_corollary_properties_refuse_other_cases(ctx31):
    rep = es.distribution_sweep(ctx31, 0)
    for outside in (-1, 0):  # a = 0 and a = 1: NORM_DIFFER and SQUARE_MATCH
        with pytest.raises(WrongCase):
            es.corollary_properties(ctx31, dataclasses.replace(
                rep, jacobsthal=np.append(rep.jacobsthal, outside)))
    with pytest.raises(ZeroB):
        es.corollary_properties(ctx31, dataclasses.replace(rep, lb=-1))


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
        a_encs, b_encs, h_logs = map(np.array, zip(*triples))
        seen.clear()
        assert es.corollary1_bulk(ctx, ctx.log_enc[a_encs], ctx.log_enc[b_encs], h_logs).all()
        (a_all, b_all), = seen
        scaled = [(ctx.from_enc(a) * ctx.from_exp(h) ** ctx.params.d,
                   ctx.from_enc(b) * ctx.from_exp(h) ** 2) for a, b, h in triples]
        pairs = [(ctx.from_enc(a), ctx.from_enc(b)) for a, b, _ in triples] + scaled
        assert a_all.tolist() == [ctx.log(x) for x, _ in pairs]
        assert b_all.tolist() == [ctx.log(y) for _, y in pairs]


# --------------------------------------------------------------------------
# the distribution sweep
# --------------------------------------------------------------------------

def test_sweep_identities_31(ctx31):
    rep1 = es.distribution_sweep(ctx31, 0)
    assert (rep1.r + rep1.s + rep1.t, -rep1.r + rep1.s + 3 * rep1.t) == (79, 3)
    repx = es.distribution_sweep(ctx31, 1)
    assert (repx.r + repx.s + repx.t, -repx.r + repx.s + 3 * repx.t) == (77, -3)
    for rep in (rep1, repx):
        assert rep.s0_total == 81
        assert rep.residuals == (0, 0, 0)
    # jacobsthal-case sums never contribute the value -p^2k
    assert 0 not in rep1.jac_histogram and 0 not in repx.jac_histogram


def test_sweep_identities_51(ctx51):
    for lb in (0, 1):
        rep = es.distribution_sweep(ctx51, lb)
        assert rep.residuals == (0, 0, 0)
        assert rep.s0_total == 625


def test_sweep_matches_slow_context(ctx31):
    # per a: the same case, N, S0 and witness encodings from the table path
    # and from plain field arithmetic, at b = 1 and b = xi
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    for e in (0, 1):
        fast_rows, slow_rows = [], []
        fast = es.distribution_sweep(ctx31, e, fast_rows.append)
        ref = es.distribution_sweep(slow, e, slow_rows.append)
        assert (ref.r, ref.s, ref.t) == (fast.r, fast.s, fast.t)
        assert ref.jac_histogram == fast.jac_histogram
        assert ref.jacobsthal.tolist() == fast.jacobsthal.tolist()
        assert ref.N.tolist() == fast.N.tolist()
        assert len(fast_rows) == 81
        assert fast_rows == slow_rows


def test_sweep_range_check_raises(ctx31, monkeypatch):
    # tallied as three-valued, the JACOBSTHAL pairs with N = 3 must be caught
    monkeypatch.setattr(es, "case_tags",
                        lambda ctx, la, lb: np.zeros(np.shape(la), dtype=np.int8))
    with pytest.raises(RangeViolation):
        es.distribution_sweep(ctx31, 1)


def test_sweep_oracle_mismatch_raises(ctx31, monkeypatch):
    # a closed form off by one at a single a must disagree with the transform
    real = es.N_table
    bad = ctx31.xi ** 5

    def off_by_one(ctx, lb):
        n, logs, bounds = real(ctx, lb)
        n = n.copy()
        n[bad.enc] += 1
        return n, logs, bounds

    monkeypatch.setattr(es, "N_table", off_by_one)
    with pytest.raises(OracleMismatch, match="defining sum .* a=g\\^5,"):
        es.distribution_sweep(ctx31, 0)


def test_sweep_cross_check_catches_N_count(ctx31, monkeypatch):
    # a = 0 is always cross-checked: a direct count off by one there must
    # disagree (the sweep makes the direct count for its sample in one batch)
    real = es.N_count_bulk

    def off_by_one(ctx, la, lb):
        n, zeros = real(ctx, la, lb)
        return n + (np.asarray(la) < 0), zeros

    monkeypatch.setattr(es, "N_count_bulk", off_by_one)
    with pytest.raises(OracleMismatch, match="a=0,"):
        es.distribution_sweep(ctx31, 0)


def test_sweep_cross_check_catches_case_split(ctx31, monkeypatch):
    # a = 0 (NORM_DIFFER, N = 0) tagged SQUARE_MATCH passes the oracle and the
    # range check; only the cross-check against case_detail sees it
    real = es.case_tags

    def flipped(ctx, la, lb):
        tags = real(ctx, la, lb).copy()
        tags[0] = es.CaseTag.SQUARE_MATCH
        return tags

    monkeypatch.setattr(es, "case_tags", flipped)
    with pytest.raises(CaseViolation, match="a=0,"):
        es.distribution_sweep(ctx31, 0)


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51", "ctx32"])
def test_sweep_tables_match_direct_count(fixture, request):
    # every a, in sweep order: the row's N, S0 and witnesses equal
    # N_count's, its tag equals case_detail's, and the JACOBSTHAL slice
    # holds the rows of that tag
    ctx = request.getfixturevalue(fixture)
    Q = ctx.p ** (2 * ctx.params.k)
    for b in (ctx.one, ctx.xi):
        rows = []
        rep = es.distribution_sweep(ctx, ctx.dlog(b), rows.append)
        a_all = [ctx.zero] + list(ctx.powers())
        for a, row in zip(a_all, rows, strict=True):
            pair = pair_of(ctx, a, b)
            n, witnesses = es.N_count(ctx, pair)
            assert row == {"a": ctx.format_element(a), "b": ctx.format_element(b),
                           "tag": es.case_detail(ctx, pair).name, "N": n,
                           "S0": Q * (2 * n - 1),
                           "witnesses": [ctx.format_element(w) for w in witnesses]}
        jac = [(ctx.dlog(a), row["N"]) for a, row in zip(a_all, rows)
               if row["tag"] == "JACOBSTHAL"]
        assert list(zip(rep.jacobsthal.tolist(), rep.N[rep.jacobsthal + 1].tolist())) == jac
        assert rep.N.tolist() == [row["N"] for row in rows]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pk=st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]), data=st.data())
def test_N_table_and_case_tags_property(pk, data):
    ctx = context(*pk)
    b = ctx.from_exp(data.draw(st.integers(0, ctx.order - 1), label="log b"))
    i = data.draw(st.integers(0, ctx.order), label="sweep position of a")
    a = ctx.zero if i == 0 else ctx.from_exp(i - 1)
    n, _, _ = es.N_table(ctx, ctx.dlog(b))
    assert n[a.enc] == es.N_count(ctx, pair_of(ctx, a, b))[0]
    assert es.CaseTag(es.case_tags(ctx, i - 1, ctx.dlog(b))) is es.case_detail(
        ctx, pair_of(ctx, a, b))


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_N_table_matches_direct_count_at_every_a(p, k):
    # the one-formula table against the direct count, N and zero sets at
    # every a, for b = g^0, g^1 and g^5; at the nonsquare b, two u have
    # c_u = -(b^(p^2k) u + b u^(-1)) = 0, so a = u^(-p^k) theta t there
    ctx = context(p, k)
    Q, u_logs = p ** (2 * k), es.U_logs(ctx)
    for e in (0, 1, 5):
        minus_c = ctx.sum_enc_bulk(((Q * e, 1), (e, -1)), u_logs)
        assert np.count_nonzero(minus_c == 0) == 2 * (e % 2)
        n, logs, bounds = es.N_table(ctx, e)
        # every a in encoding order, by its dlog (log_enc[0] = -1 for a = 0)
        n_direct, zeros = es.N_count_bulk(ctx, ctx.log_enc, np.full(ctx.q, e))
        assert n.tolist() == n_direct.tolist()
        # the zeros row by row, each in increasing dlog
        assert logs.tolist() == u_logs[np.nonzero(zeros)[1]].tolist()
        assert bounds.tolist() == [0] + np.cumsum(zeros.sum(axis=1)).tolist()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pk=st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]), data=st.data())
def test_character_counts_match_bruteforce_property(pk, data):
    # a row of the transform against the defining sum at a random pair,
    # a = 0 or b = 0 among them
    ctx = context(*pk)
    lb = data.draw(st.integers(-1, ctx.order - 1), label="log b, -1 for b = 0")
    b = ctx.zero if lb < 0 else ctx.from_exp(lb)
    a = ctx.from_enc(data.draw(st.integers(int(b.is_zero), ctx.q - 1), label="a"))
    counts = es.character_counts(ctx, ctx.params.d, ((lb, 2),))
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
    la, lb = ctx.log_enc[a_encs], ctx.log_enc[b_encs]
    n, zeros = es.N_count_bulk(ctx, la, lb)
    n_slow, zeros_slow = es.N_count_bulk(slow, la, lb)
    assert n.tolist() == n_slow.tolist() and zeros.tolist() == zeros_slow.tolist()
    u_encs = ctx.exp_enc_bulk(es.U_logs(ctx))
    for a, b, n_i, zeros_i in zip(a_encs, b_encs, n, zeros):
        assert zeros_i.sum() == 2 * n_i
        if b:
            table, logs, bounds = es.N_table(ctx, int(ctx.log_enc[b]))
            witnesses = ctx.exp_enc_bulk(logs[bounds[a]:bounds[a + 1]])
            assert n_i == table[a] and u_encs[zeros_i].tolist() == witnesses.tolist()


def test_N_count_bulk_parity_and_admissibility(ctx31, monkeypatch):
    with pytest.raises(BothCoefficientsZero):
        es.N_count_bulk(ctx31, [0, -1], [0, -1])
    # one zero of L on U too many at the second pair must raise there
    real = FieldCtx.sum_enc_bulk

    def extra_zero(ctx, terms, logs):
        values = real(ctx, terms, logs).copy()
        values[1, np.flatnonzero(values[1])[0]] = 0
        return values

    monkeypatch.setattr(FieldCtx, "sum_enc_bulk", extra_zero)
    with pytest.raises(ParityViolation, match="zeros of L on U at a=g\\^3, b=g\\^5"):
        es.N_count_bulk(ctx31, [0, 3], [0, 5])


def test_g_logs_refuses_other_cases_with_a_typed_error(ctx31, monkeypatch):
    # with the case split bypassed, the dlog solve for g must still refuse a
    # NORM_DIFFER pair with its own check: NotInSubfield, not a NameError
    la = sweep_logs(ctx31)
    a = la[es.case_tags(ctx31, la, 1) == es.CaseTag.NORM_DIFFER][1]  # la[0] = -1 is a = 0
    monkeypatch.setattr(es, "_require_jacobsthal_bulk", lambda ctx, la, lb: None)
    with pytest.raises(NotInSubfield):
        es.g_logs(ctx31, [a], 1)


def test_sweep_rejects_zero_b(ctx31):
    with pytest.raises(ZeroB):
        es.distribution_sweep(ctx31, -1)


def test_record_json(ctx31):
    out = es.expsum_record(ctx31, pair_of(ctx31, ctx31.one, ctx31.one))
    assert out == {"a": "g^0", "b": "g^0", "tag": "SQUARE_MATCH",
                   "N": 0, "S0": -9, "witnesses": []}
    # a JACOBSTHAL pair: its witnesses are N_count's, by dlog
    a = es.jacobsthal_pairs(ctx31, ctx31.xi)[0]
    n, witnesses = es.N_count(ctx31, pair_of(ctx31, a, ctx31.xi))
    assert es.expsum_record(ctx31, pair_of(ctx31, a, ctx31.xi)) == {
        "a": ctx31.format_element(a), "b": "g^1", "tag": "JACOBSTHAL", "N": n,
        "S0": 9 * (2 * n - 1), "witnesses": [ctx31.format_element(w) for w in witnesses]}
    rep = es.distribution_sweep(ctx31, 0).to_json_dict()
    assert rep["residuals"] == [0, 0, 0]
    assert set(rep) == {"b", "chi_b", "r", "s", "t", "jac_histogram",
                        "s0_total", "residuals"}
