import numpy as np
import pytest

from charsum import context
from charsum import reference as ref


@pytest.fixture(scope="session")
def ctx31():
    return context(3, 1)


@pytest.fixture(scope="session")
def ctx51():
    return context(5, 1)


@pytest.fixture(scope="session")
def ctx71():
    return context(7, 1)


@pytest.fixture(scope="session")
def ctx32():
    return context(3, 2)


@pytest.fixture(scope="session")
def key_encodings():
    """encs(view)[K]: the encoding of the element of the subfield view whose
    key (reference.KeyArithmetic) is K, from the definition of the key,
    K(z) = sum_s Tr(eta^s z) p^s with Tr the subfield's own absolute trace
    and eta its generator."""
    def encs(view):
        p, nu, out = view.ctx.p, ref.generator(view), {}
        for z in ref.elements(view):
            key = sum(ref.abs_trace(view, nu ** s * z) * p ** s for s in range(view.degree))
            out[key] = z.enc
        assert sorted(out) == list(range(view.q))  # one to one
        return np.array([out[key] for key in range(view.q)], dtype=np.int64)
    return encs
