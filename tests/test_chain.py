import numpy as np
import pytest

from conftest import make_random_chain
from spintransfer.chain import (
    Barrier,
    ChainSpec,
    Perfect,
    Weak,
    protocol_preset,
    sector_hamiltonian,
)
from spintransfer.errors import ParameterError
from spintransfer.sectors import build_sector_basis


def test_perfect_preset_couplings():
    spec = protocol_preset(Perfect(), 4)
    bonds = [spec.couplings[i, i + 1] for i in range(3)]
    assert np.allclose(bonds, [np.sqrt(3.0), 2.0, np.sqrt(3.0)])
    assert np.all(spec.fields == 0.0)


def test_barrier_preset_fields():
    spec = protocol_preset(Barrier(200.0), 22)
    expected = np.zeros(22)
    expected[1] = expected[20] = 200.0  # sites 2 and 21
    assert np.array_equal(spec.fields, expected)
    off_diag = [spec.couplings[i, i + 1] for i in range(21)]
    assert np.allclose(off_diag, 1.0)


def test_weak_preset_bonds():
    spec = protocol_preset(Weak(1.0 / 200.0), 22)
    assert spec.couplings[0, 1] == pytest.approx(1.0 / 200.0)
    assert spec.couplings[20, 21] == pytest.approx(1.0 / 200.0)
    assert spec.couplings[1, 2] == 1.0
    assert np.all(spec.fields == 0.0)


def test_block_presets_shift_special_sites():
    barrier = protocol_preset(Barrier(50.0), 9, n_senders=2)
    assert barrier.fields[2] == 50.0 and barrier.fields[6] == 50.0  # sites 3, 7
    weak = protocol_preset(Weak(0.01), 9, n_senders=2)
    assert weak.couplings[1, 2] == 0.01 and weak.couplings[6, 7] == 0.01
    assert weak.couplings[0, 1] == 1.0 and weak.couplings[7, 8] == 1.0


def test_preset_requires_enough_sites():
    with pytest.raises(ParameterError):
        protocol_preset(Perfect(), 3)
    with pytest.raises(ParameterError):
        protocol_preset(Barrier(1.0), 5, n_senders=2)


def test_two_site_hopping_element():
    spec = ChainSpec(2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)), np.zeros(2))
    h = sector_hamiltonian(spec, build_sector_basis(2, 1))
    assert np.array_equal(h, np.array([[0.0, 2.0], [2.0, 0.0]]))


def test_barrier_diagonal_is_field_flip():
    h0 = 7.5
    spec = protocol_preset(Barrier(h0), 6)
    h = sector_hamiltonian(spec, build_sector_basis(6, 1))
    # flipping site m changes the field energy by -2 B_m relative to vacuum
    for m in range(6):
        expected = -2.0 * spec.fields[m]
        assert h[m, m] == pytest.approx(expected, abs=1e-12)


def test_vacuum_sector_is_gauged_to_zero(rng):
    spec = make_random_chain(rng, 7)
    h = sector_hamiltonian(spec, build_sector_basis(7, 0))
    assert h.shape == (1, 1) and h[0, 0] == 0.0


def test_sector_hamiltonians_symmetric(rng):
    for n in (4, 6, 9):
        spec = make_random_chain(rng, n, long_range=True)
        for q in (1, 2):
            h = sector_hamiltonian(spec, build_sector_basis(n, q))
            assert np.abs(h - h.T).max() <= 1e-12


def test_two_excitation_hopping_keeps_shared_site(rng):
    spec = make_random_chain(rng, 5)
    basis = build_sector_basis(5, 2)
    h = sector_hamiltonian(spec, basis)
    row = basis.index_of((2, 4))
    col = basis.index_of((2, 5))  # site 4 -> 5, shared site 2
    assert h[row, col] == pytest.approx(2.0 * spec.couplings[3, 4])
    far = basis.index_of((1, 3))  # differs in both sites
    assert h[row, far] == 0.0


def test_anisotropy_enters_diagonal():
    n = 4
    couplings = np.zeros((n, n))
    couplings[0, 1] = couplings[1, 0] = 1.0
    anis = np.zeros((n, n))
    anis[0, 1] = anis[1, 0] = 0.5
    spec = ChainSpec(n, couplings, anis, np.zeros(n))
    h1 = sector_hamiltonian(spec, build_sector_basis(n, 1))
    # flipping site 1 flips the sign of the (1,2) ZZ term: -J*D - (+J*D)
    assert h1[0, 0] == pytest.approx(-2.0 * 1.0 * 0.5)
    assert h1[2, 2] == pytest.approx(0.0)


def test_spec_validation():
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(ParameterError):
        ChainSpec(3, bad, np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ParameterError):
        ChainSpec(3, np.zeros((3, 3)), np.zeros((3, 3)), np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ParameterError):
        ChainSpec(3, np.zeros((2, 2)), np.zeros((3, 3)), np.zeros(3))


def test_uniform_field_shift(rng):
    spec = make_random_chain(rng, 5)
    shifted = spec.with_uniform_field(0.25)
    assert np.allclose(shifted.fields, spec.fields + 0.25)
    assert np.array_equal(shifted.couplings, spec.couplings)


def test_specs_compare_and_hash_by_content():
    spec = protocol_preset(Weak(0.1), 6)
    same = protocol_preset(Weak(0.1), 6)
    assert spec == same and hash(spec) == hash(same)
    assert len({spec, same}) == 1
    assert spec != protocol_preset(Weak(0.2), 6)
    assert spec != spec.with_uniform_field(1e-12)
    assert spec != protocol_preset(Weak(0.1), 7)
    assert spec != spec.cache_key()
