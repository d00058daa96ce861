from math import comb

import pytest

from spintransfer.errors import ParameterError
from spintransfer.sectors import build_sector_basis


def test_one_excitation_ordering():
    basis = build_sector_basis(4, 1)
    assert basis.dimension == 4
    assert basis.configurations == ((1,), (2,), (3,), (4,))


def test_two_excitation_ordering():
    basis = build_sector_basis(4, 2)
    assert basis.dimension == 6
    assert basis.configurations == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_index_examples():
    assert build_sector_basis(4, 2).index_of((1, 3)) == 1
    assert build_sector_basis(4, 1).index_of((4,)) == 3
    assert build_sector_basis(5, 2).index_of((4, 5)) == 9


def test_round_trip_and_dimensions():
    for n in range(2, 25):
        for q in (1, 2):
            basis = build_sector_basis(n, q)
            assert basis.dimension == comb(n, q)
            for k in range(basis.dimension):
                assert basis.index_of(basis.config_of(k)) == k


@pytest.mark.parametrize(
    "n, q",
    [(1, 1), (4, 3), (4, -1), (0, 0), (4, 0)],
)
def test_invalid_parameters(n, q):
    with pytest.raises(ParameterError):
        build_sector_basis(n, q)


def test_bad_configs_rejected():
    basis = build_sector_basis(5, 2)
    for config in [(3, 1), (0, 1), (2, 6), (2,), (2, 2)]:
        with pytest.raises(ParameterError):
            basis.index_of(config)
    with pytest.raises(ParameterError):
        basis.config_of(10)
