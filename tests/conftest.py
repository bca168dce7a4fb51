import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from disslab.fields import SpectralConvention
from disslab.toral import ToralAutomorphism


@pytest.fixture(scope="session")
def cat():
    return ToralAutomorphism(((2, 1), (1, 1)))


@pytest.fixture(scope="session")
def lattice2():
    return SpectralConvention(2, "lattice")


@pytest.fixture(scope="session")
def geometric2():
    return SpectralConvention(2, "geometric")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@st.composite
def ergodic_automorphisms(draw):
    """C1-and-C2 automorphisms in d = 2..4: a companion of det 1 conjugated by I + s E_ij."""
    d = draw(st.integers(2, 4))
    coeffs = [(-1) ** (d + 1)] + draw(st.lists(st.integers(-5, 5), min_size=d - 1, max_size=d - 1))
    companion = np.zeros((d, d), dtype=object)
    companion[1:, :-1] = np.eye(d - 1, dtype=int)
    companion[:, -1] = coeffs
    i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
    shear = np.eye(d, dtype=int).astype(object)
    shear[i, j] = draw(st.integers(-2, 2))
    inverse = np.eye(d, dtype=int).astype(object)
    inverse[i, j] = -shear[i, j]
    automorphism = ToralAutomorphism(tuple(map(tuple, (shear @ companion @ inverse).tolist())))
    assume(automorphism.conditions().ergodic_irreducible)
    return automorphism
