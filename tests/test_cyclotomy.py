import numpy as np
import pytest

from charsum import cyclotomy as cy
from charsum import reference as ref
from charsum.cli import run
from charsum.cycint import CycInt
from charsum.errors import CyclotomyViolation, IndexOutOfRange, InvariantViolation, ZeroArgument
from charsum.field_core import FieldCtx, context


def view2k(ctx):
    return ctx.subfield(2 * ctx.params.k)


def test_class_index_examples(ctx31):
    view = view2k(ctx31)
    assert ref.class_index(view, ctx31.one) == 0
    assert ref.class_index(view, -ctx31.one) == 0      # -1 = nu^4 lands in C_0
    assert ref.class_index(view, view.generator ** 5) == 1  # nu^(p^k+2)
    with pytest.raises(ZeroArgument):
        ref.class_index(view, ctx31.zero)


def test_single_entries(ctx31):
    view = view2k(ctx31)
    assert ref.cyclotomic_number(view, 0, 0) == 1   # p^k - 2
    assert ref.cyclotomic_number(view, 1, 2) == 1
    assert ref.cyclotomic_number(view, 0, 1) == 0
    with pytest.raises(IndexOutOfRange):
        ref.cyclotomic_number(view, 4, 0)


def test_entrywise_matches_full_table(ctx31, ctx51):
    for ctx in (ctx31, ctx51):
        view = view2k(ctx)
        table = cy.full_table(view)
        assert table.shape == (cy.class_count(view),) * 2
        for i in range(len(table)):
            for j in range(len(table)):
                assert ref.cyclotomic_number(view, i, j) == table[i, j]


def test_full_table_31(ctx31):
    table = cy.full_table(view2k(ctx31))
    assert table.dtype == np.int64
    assert table.tolist() == [[1, 0, 0, 0],
                              [0, 0, 1, 1],
                              [0, 1, 0, 1],
                              [0, 1, 1, 0]]
    assert table.sum() == 7


def test_full_table_51(ctx51):
    table = cy.full_table(view2k(ctx51))
    assert table[0, 0] == 3
    ones = np.count_nonzero(table == 1)
    assert ones == 20  # i != j with both nonzero: 5 * 4 cells
    assert table.sum() == 23


def test_full_table_32(ctx32):
    table = cy.full_table(view2k(ctx32))
    assert table[0, 0] == 7
    assert table.sum() == 79


@pytest.mark.parametrize("fixture", ["ctx31", "ctx51", "ctx71", "ctx32"])
def test_lemma1_all_sizes(fixture, request):
    ctx = request.getfixturevalue(fixture)
    table = cy.verify_lemma1(view2k(ctx))  # raises on a mismatch
    pk = ctx.p ** ctx.params.k
    assert table.dtype == np.int64 and table.shape == (pk + 1, pk + 1)
    assert np.array_equal(table, cy.full_table(view2k(ctx)))
    assert np.array_equal(table, cy.closed_form(pk))
    assert table.sum() == ctx.p ** (2 * ctx.params.k) - 2


def test_lemma1_names_the_first_mismatch(ctx31, monkeypatch):
    # two numbers off: the count of mismatches and the first (i, j) in row order
    real = cy.full_table

    def off(view):
        table = real(view)
        table[2, 1] += 1
        table[1, 3] -= 1
        return table

    monkeypatch.setattr(cy, "full_table", off)
    with pytest.raises(CyclotomyViolation,
                       match=r"^total 7, 2 mismatches, first \(1, 3\) = 0, expected 1$"):
        cy.verify_lemma1(view2k(ctx31))


def test_row_sums(ctx31, ctx51):
    # row i sums to |C_i minus {-1}|, and -1 sits in C_0
    for ctx in (ctx31, ctx51):
        pk = ctx.p ** ctx.params.k
        table = cy.full_table(view2k(ctx))
        for i, row in enumerate(table):
            assert sum(row) == pk - 1 - (1 if i == 0 else 0)


def test_minus_one_symmetry(ctx31, ctx51):
    # counting x - 1 instead of x + 1 gives the same table
    for ctx in (ctx31, ctx51):
        view = view2k(ctx)
        table = cy.full_table(view)
        order = len(table)
        recount = [[0] * order for _ in range(order)]
        one = ctx.one
        for e, x in enumerate(view.nonzero_elements()):
            y = x - one
            if not y.is_zero:
                recount[e % order][ref.class_index(view, y)] += 1
        assert recount == table.tolist()


@pytest.mark.parametrize("fixture,special,value", [
    ("ctx31", 2, 2), ("ctx51", 3, 4), ("ctx32", 5, 8)])
def test_pt_values(fixture, special, value, request):
    ctx = request.getfixturevalue(fixture)
    values = cy.pt_sums(view2k(ctx))
    assert len(values) == cy.class_count(view2k(ctx))
    for t, v in enumerate(values):
        assert v == (value if t == special else -1)
        assert v.is_rational_integer


def test_pt_total_is_minus_one(ctx31, ctx51):
    # summing over every class = full character sum over GF(p^2k)* = -1
    for ctx in (ctx31, ctx51):
        total = CycInt.zero(ctx.p)
        for v in cy.pt_sums(view2k(ctx)):
            total = total + v
        assert total == -1


def test_csv_emitter(capsys):
    # cyclotomy-table renders the matrix as CSV: a header of the j, then one
    # line per i
    assert run(["cyclotomy-table", "--p", "3", "--k", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "i\\j,0,1,2,3\n"
        "0,1,0,0,0\n"
        "1,0,0,1,1\n"
        "2,0,1,0,1\n"
        "3,0,1,1,0\n"
    )


def test_slow_path_table(ctx31):
    # the generic (no numpy) route computes the same table
    from charsum.field_core import FieldParams, build_context
    slow = build_context(FieldParams(3, 1), 4, use_tables=False)
    table = cy.full_table(slow.subfield(2))
    assert np.array_equal(table, cy.full_table(view2k(ctx31)))
    assert cy.pt_sums(slow.subfield(2)) == cy.pt_sums(view2k(ctx31))


@pytest.mark.parametrize("pk", [(3, 1), (5, 1), (3, 2)])
def test_pt_sums_match_scalar_recount(pk):
    # the class sums against a recount of Tr(x) by SubfieldView.abs_trace
    # at every x = nu^e of GF(p^2k)*, x in C_(e mod p^k+1)
    view = view2k(context(*pk))
    order, p = cy.class_count(view), view.ctx.p
    counts = [[0] * p for _ in range(order)]
    for e, x in enumerate(view.nonzero_elements()):
        counts[e % order][view.abs_trace(x)] += 1
    assert cy.pt_sums(view) == tuple(CycInt.from_counts(p, c) for c in counts)


def test_pt_sums_refuse_a_trace_outside_the_prime_field(ctx31, monkeypatch):
    real = FieldCtx.sum_enc_bulk

    def off(ctx, terms, logs):
        values = real(ctx, terms, logs).copy()
        values[0] += ctx.p
        return values

    monkeypatch.setattr(FieldCtx, "sum_enc_bulk", off)
    with pytest.raises(InvariantViolation, match="left GF"):
        cy.pt_sums(view2k(ctx31))
