import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum.cycint import CycInt
from charsum.errors import NotRationalInteger


def test_vanishing_geometric_sum():
    for p in (3, 5, 7):
        assert CycInt.from_counts(p, [1] * p) == CycInt.zero(p)
        total = CycInt.zero(p)
        for j in range(p):
            total = total + CycInt.omega_power(p, j)
        assert total == 0


def test_unit_magnitudes():
    for j in range(5):
        assert CycInt.omega_power(5, j).norm_squared() == 1


def test_one_plus_omega_p3():
    # 1 + w = -w^2 when p = 3, a unit
    z = CycInt.integer(3, 1) + CycInt.omega_power(3, 1)
    assert z == -CycInt.omega_power(3, 2)
    assert z.norm_squared() == 1


def test_omega_exponent_wraps():
    for p in (3, 5):
        assert CycInt.omega_power(p, p) == 1
        assert CycInt.omega_power(p, -1) == CycInt.omega_power(p, p - 1)


def test_shift_is_multiplication_by_omega():
    # w^j z moves the coefficient of w^i to w^(i+j), then reduces
    rng = random.Random(3)
    for _ in range(30):
        z = CycInt(5, [rng.randrange(-9, 10) for _ in range(4)])
        j = rng.randrange(11)
        dense = [0] * 5
        for i, ci in enumerate(z.c):
            dense[(i + j) % 5] += ci
        assert z * CycInt.omega_power(5, j) == CycInt.from_counts(5, dense)
    assert z * CycInt.omega_power(5, 5) == z


def test_conj_involution_and_mul_compatibility():
    rng = random.Random(4)
    for _ in range(30):
        z = CycInt(7, [rng.randrange(-5, 6) for _ in range(6)])
        w = CycInt(7, [rng.randrange(-5, 6) for _ in range(6)])
        assert z.conj().conj() == z
        assert (z * w).conj() == z.conj() * w.conj()


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(100):
        x, y, z = (CycInt(5, [rng.randrange(-7, 8) for _ in range(4)]) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_rational_integer_accessors():
    z = CycInt.integer(3, -9)
    assert z.is_rational_integer and z.as_int() == -9
    w = CycInt.omega_power(3, 1)
    assert not w.is_rational_integer
    with pytest.raises(NotRationalInteger):
        w.as_int()


def test_integer_interop():
    z = CycInt.integer(5, 4)
    assert z == 4 and z + 1 == 5 and 2 * z == 8 and 1 - z == -3
    assert hash(z) == hash(4)


def test_rendering_is_canonical():
    assert str(CycInt.integer(3, -9)) == "-9"
    assert str(-9 * CycInt.omega_power(3, 1)) == "-9w"
    assert str(CycInt.zero(7)) == "0"
    z = CycInt(5, [1, 2, 0, -1])
    assert str(z) == "1+2w-w^3"


def test_immutability():
    z = CycInt.integer(3, 1)
    with pytest.raises(AttributeError):
        z.c = (0, 0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kind=st.sampled_from(["equal", "distinct", "duplicates"]),
       n=st.integers(1, 40), width=st.integers(1, 7), data=st.data())
def test_group_rows_property(kind, n, width, data):
    # rows[index] are the rows at order, pairwise distinct, and met for the
    # first time in the order 0, 1, 2, ... along order
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "equal":
        counts = np.tile(rng.integers(-2 ** 40, 2 ** 40, width), (n, 1))
    elif kind == "distinct":
        counts = rng.integers(-2 ** 40, 2 ** 40, (n, width))
        counts[:, 0] = rng.permutation(n)
    else:
        counts = rng.integers(0, 2, (n, width))
    order = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    rows, index = CycInt.group_rows(counts, order)
    assert (rows[index] == counts[order]).all()
    assert len({tuple(r) for r in rows.tolist()}) == len(rows)
    assert list(dict.fromkeys(index.tolist())) == list(range(len(rows)))
