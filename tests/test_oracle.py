from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import make_random_chain, random_state, seeded_chain
from spintransfer import oracle
from spintransfer.chain import ChainSpec
from spintransfer.dynamics import dynamics_for, propagator_at
from spintransfer.errors import CapacityError, ParameterError
from spintransfer.oracle import (
    FullState,
    basis_index,
    block_hamiltonian,
    evolve_full,
    reduced_density,
    transfer_initial_state,
)

BOND = ChainSpec(2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)), np.zeros(2))


def full_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian by direct Pauli-term summation.

    The reference the popcount blocks of :func:`block_hamiltonian` are
    checked against.  Includes the vacuum-energy gauge shift; commutes with
    the total magnetization by construction.
    """
    n = spec.n_sites
    dim = 1 << n
    idx = np.arange(dim)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1  # column i-1 = site i
    z = 1.0 - 2.0 * bits
    jd = spec.couplings * spec.anisotropies
    diag = z @ spec.fields
    if np.any(jd != 0.0):
        diag = diag + 0.5 * np.einsum("ki,ij,kj->k", z, jd, z)
    h = np.zeros((dim, dim))
    h[idx, idx] = diag - spec.vacuum_energy()
    for i in range(n):
        for j in range(i + 1, n):
            j_val = spec.couplings[i, j]
            if j_val == 0.0:
                continue
            moving = idx[(bits[:, i] == 1) & (bits[:, j] == 0)]
            partner = moving ^ ((1 << i) | (1 << j))
            h[partner, moving] += 2.0 * j_val
            h[moving, partner] += 2.0 * j_val
    return h


def test_two_site_full_hamiltonian():
    h = full_hamiltonian(BOND)
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 2.0  # XX+YY block between |10> and |01>
    assert np.array_equal(h, expected)


def test_commutes_with_magnetization(rng):
    for n in (4, 6):
        spec = make_random_chain(rng, n, long_range=True)
        h = full_hamiltonian(spec)
        dim = 1 << n
        bits = (np.arange(dim)[:, None] >> np.arange(n)[None, :]) & 1
        q = (1.0 - 2.0 * bits).sum(axis=1)
        commutator = h * q[None, :] - q[:, None] * h
        assert np.abs(commutator).max() <= 1e-10


def test_block_structure(rng):
    spec = make_random_chain(rng, 5)
    h = full_hamiltonian(spec)
    dim = 1 << 5
    weights = np.array([bin(i).count("1") for i in range(dim)])
    differ = weights[:, None] != weights[None, :]
    assert np.abs(h[differ]).max() == 0.0


@given(
    st.builds(
        seeded_chain,
        st.integers(0, 2**31 - 1),
        st.integers(2, 10),
        st.sampled_from(["nearest", "long_range", "zz"]),
    )
)
def test_blocks_match_dense_reference(spec):
    n = spec.n_sites
    h = full_hamiltonian(spec)
    popcount = np.bitwise_count(np.arange(1 << n))
    assert np.all(h[popcount[:, None] != popcount[None, :]] == 0.0)
    # Both builds sum each diagonal energy with `z @ fields`, but BLAS orders
    # that sum by the row's place in the matrix, so the diagonals may differ
    # by rounding; every hopping entry is one product and must match exactly.
    jd = spec.couplings * spec.anisotropies
    energy_scale = (
        np.abs(spec.fields).sum() + 0.5 * np.abs(jd).sum() + abs(spec.vacuum_energy())
    )
    for q in range(n + 1):
        block = block_hamiltonian(spec, q)
        dense = h[np.ix_(popcount == q, popcount == q)]
        off_diagonal = ~np.eye(block.shape[0], dtype=bool)
        assert np.array_equal(block[off_diagonal], dense[off_diagonal])
        diagonal_gap = np.abs(np.diag(block) - np.diag(dense)).max()
        assert diagonal_gap <= n * np.finfo(float).eps * energy_scale


def test_capacity_cap():
    spec = make_random_chain(np.random.default_rng(0), 13)
    with pytest.raises(CapacityError):
        block_hamiltonian(spec, 1)
    vacuum = np.zeros(1 << 13, dtype=complex)
    vacuum[0] = 1.0
    with pytest.raises(CapacityError):
        evolve_full(spec, FullState(vacuum, 13), 1.0)


def test_block_popcount_validated():
    for q in (-1, 3):
        with pytest.raises(ParameterError):
            block_hamiltonian(BOND, q)


def test_all_popcount_evolution_matches_expm(rng):
    # a random full-space state occupies every popcount block, including
    # the q > 2 blocks that the transfer scenarios never reach
    spec = make_random_chain(rng, 6, long_range=True)
    anis = np.zeros((6, 6))
    for i in range(5):
        anis[i, i + 1] = anis[i + 1, i] = rng.uniform(-1.0, 1.0)
    spec = ChainSpec(6, spec.couplings, anis, spec.fields)
    psi = random_state(rng, 1 << 6)
    t = 1.7
    expected = expm(-1j * t * full_hamiltonian(spec)) @ psi
    out = evolve_full(spec, FullState(psi, 6), t)
    assert np.abs(out.amplitudes - expected).max() <= 1e-10


@pytest.mark.parametrize(
    "senders, occupied",
    [((1,), ()), ((1,), range(2, 12)), ((1, 2), ())],
    ids=["one_qubit_vacuum", "one_qubit_uniform", "two_qubit"],
)
def test_oracle_diagonalises_only_occupied_blocks(monkeypatch, rng, senders, occupied):
    # transfer inputs live in popcounts 0..2, so no matrix larger than the
    # C(N, 2) pair block is diagonalised, where a dense build needs 2^N
    sizes = []
    eigh = np.linalg.eigh

    def recording(matrix, *args, **kwargs):
        sizes.append(np.shape(matrix)[0])
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    monkeypatch.setattr(oracle, "_BLOCK_CACHE", {})
    n = 12
    spec = make_random_chain(rng, n, long_range=True)
    psi = random_state(rng, 1 << len(senders))
    evolve_full(spec, transfer_initial_state(n, senders, psi, occupied), 2.3)
    assert sizes and max(sizes) <= comb(n, 2)


def test_evolution_identity_at_zero(rng):
    spec = make_random_chain(rng, 4)
    state = FullState(random_state(rng, 16), 4)
    out = evolve_full(spec, state, 0.0)
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12


def test_one_excitation_periodicity_two_sites():
    # a one-excitation state returns to itself (global phase) at t = pi/2J
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = 1j / np.sqrt(2.0)
    state = FullState(psi, 2)
    out = evolve_full(BOND, state, np.pi / 2.0)
    overlap = abs(np.vdot(psi, out.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_sector_evolution_matches_full(rng):
    spec = make_random_chain(rng, 6, long_range=True)
    dyn = dynamics_for(spec)
    t = 1.37
    coeffs = random_state(rng, 6)
    full_vec = np.zeros(1 << 6, dtype=complex)
    for site, c in enumerate(coeffs, start=1):
        full_vec[basis_index(6, [site])] = c
    evolved = evolve_full(spec, FullState(full_vec, 6), t)
    sector = propagator_at(dyn.one, t) @ coeffs
    overlap = abs(
        np.vdot(
            sector,
            [evolved.amplitudes[basis_index(6, [s])] for s in range(1, 7)],
        )
    )
    assert 1.0 - overlap <= 1e-9


def test_reduced_density_product_state():
    # |psi> = |1>_1 x |0>_2: reducing to site 1 gives the pure projector
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    rho = reduced_density(FullState(psi, 2), (1,))
    assert np.allclose(rho, np.diag([0.0, 1.0]))


def test_reduced_density_bell_pair():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    rho = reduced_density(FullState(psi, 2), (1,))
    assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-12)


def test_reduced_density_trace_one(rng):
    state = FullState(random_state(rng, 1 << 6), 6)
    rho = reduced_density(state, (5, 6))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    eigenvalues = np.linalg.eigvalsh(rho)
    assert eigenvalues.min() >= -1e-10


def test_reduced_density_site_order_convention():
    # excitation on site 2 of 3: reducing to (2, 3) vs (3, 2) swaps factors
    psi = np.zeros(8, dtype=complex)
    psi[basis_index(3, [2])] = 1.0
    rho_23 = reduced_density(FullState(psi, 3), (2, 3))
    rho_32 = reduced_density(FullState(psi, 3), (3, 2))
    assert rho_23[2, 2] == pytest.approx(1.0)  # |1 0> with first factor site 2
    assert rho_32[1, 1] == pytest.approx(1.0)  # |0 1> with first factor site 3


def test_initial_state_embedding(rng):
    psi = random_state(rng, 2)
    state = transfer_initial_state(5, (1,), psi, range(2, 5))
    # amplitude of |0>_1 (x) |j>: psi_0 / sqrt(3)
    for j in (2, 3, 4):
        assert state.amplitudes[basis_index(5, [j])] == pytest.approx(
            psi[0] / np.sqrt(3.0)
        )
        assert state.amplitudes[basis_index(5, [1, j])] == pytest.approx(
            psi[1] / np.sqrt(3.0)
        )


def test_channel_sites_must_avoid_senders_and_lie_in_the_chain(rng):
    # an occupied site that is also a sender would OR two excitations into
    # one bit; a site past N has no bit at all
    psi = random_state(rng, 2)
    with pytest.raises(ParameterError):
        transfer_initial_state(5, (1,), psi, (1, 2))
    with pytest.raises(ParameterError):
        transfer_initial_state(5, (1,), psi, (6,))


def test_invalid_sites_rejected(rng):
    state = FullState(random_state(rng, 16), 4)
    for sites in [(0,), (5,), (1, 1)]:
        with pytest.raises(ParameterError):
            reduced_density(state, sites)
