from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    block_state,
    dense_amplitudes,
    make_random_chain,
    random_state,
    seeded_chain,
)
from spintransfer import oracle
from spintransfer.chain import ChainSpec, sector_hamiltonian
from spintransfer.analytics import fidelity_law
from spintransfer.certify import reduce_kraus
from spintransfer.channel import Scenario, kraus_at_times
from spintransfer.dynamics import propagator_at, sector_spectrum
from spintransfer.errors import CapacityError, ParameterError
from spintransfer.oracle import (
    MAX_ORACLE_BLOCK,
    FullState,
    basis_index,
    block_hamiltonian,
    evolve_many,
    receiver_amplitudes,
    transfer_initial_state,
)
from spintransfer.sectors import build_sector_basis

BOND = ChainSpec(2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)), np.zeros(2))


def receiver_density(state: FullState, sites) -> np.ndarray:
    """Each row's reduced density matrix rho = M M^dagger on ``sites``, with
    M its :func:`receiver_amplitudes` split, shape (T, 2^k, 2^k)."""
    mat = receiver_amplitudes(state, sites)
    return mat @ mat.conj().swapaxes(-1, -2)


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


CHAINS = st.builds(
    seeded_chain,
    st.integers(0, 2**31 - 1),
    st.integers(2, 10),
    st.sampled_from(["nearest", "long_range", "zz"]),
)


def assert_matches_dense(block: np.ndarray, dense: np.ndarray, spec: ChainSpec) -> None:
    """Hopping entries equal, diagonal energies within n eps energy_scale.

    Both builds sum each diagonal energy with `z @ fields`, but BLAS orders
    that sum by the row's place in the matrix, so the diagonals may differ
    by rounding; every hopping entry is one product and must match exactly.
    """
    jd = spec.couplings * spec.anisotropies
    energy_scale = (
        np.abs(spec.fields).sum() + 0.5 * np.abs(jd).sum() + abs(spec.vacuum_energy())
    )
    off_diagonal = ~np.eye(block.shape[0], dtype=bool)
    assert np.array_equal(block[off_diagonal], dense[off_diagonal])
    diagonal_gap = np.abs(np.diag(block) - np.diag(dense)).max()
    assert diagonal_gap <= spec.n_sites * np.finfo(float).eps * energy_scale


@given(CHAINS)
def test_blocks_match_dense_reference(spec):
    n = spec.n_sites
    h = full_hamiltonian(spec)
    popcount = np.bitwise_count(np.arange(1 << n))
    assert np.all(h[popcount[:, None] != popcount[None, :]] == 0.0)
    for q in range(n + 1):
        dense = h[np.ix_(popcount == q, popcount == q)]
        assert_matches_dense(block_hamiltonian(spec, q), dense, spec)


@given(CHAINS)
def test_sectors_match_dense_reference(spec):
    # the sector rule (combinations in lexicographic order, one hopping
    # loop) against the Pauli-term sum, with no oracle code in between
    n = spec.n_sites
    h = full_hamiltonian(spec)
    popcount = np.bitwise_count(np.arange(1 << n))
    for q in (1, 2):
        basis = build_sector_basis(n, q)
        index = [sum(1 << (site - 1) for site in c) for c in basis.configurations]
        order = np.argsort(index)
        sector = sector_hamiltonian(spec, basis)[np.ix_(order, order)]
        dense = h[np.ix_(popcount == q, popcount == q)]
        assert_matches_dense(sector, dense, spec)


def test_capacity_cap():
    # the largest block is the C(60, 2) pair sector; past 63 sites an index
    # is no int64 bit pattern
    assert MAX_ORACLE_BLOCK == comb(60, 2)
    rng = np.random.default_rng(0)
    spec = make_random_chain(rng, 61)
    with pytest.raises(CapacityError):
        block_hamiltonian(spec, 2)
    with pytest.raises(CapacityError):
        evolve_many(spec, transfer_initial_state(61, (1, 2), np.eye(4)[:1]), [1.0])
    spec = make_random_chain(rng, 64)
    with pytest.raises(CapacityError):
        block_hamiltonian(spec, 1)
    with pytest.raises(CapacityError):
        evolve_many(spec, FullState({0: np.ones((1, 1))}, 64), [1.0])


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
    out = evolve_many(spec, block_state(psi[None], 6), [t])
    assert np.abs(dense_amplitudes(out)[0] - expected).max() <= 1e-10


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
    oracle._block_spectrum.cache_clear()
    n = 12
    spec = make_random_chain(rng, n, long_range=True)
    psi = random_state(rng, 1 << len(senders))
    evolve_many(spec, transfer_initial_state(n, senders, psi[None], occupied), [2.3])
    assert sizes and max(sizes) <= comb(n, 2)


def test_evolution_identity_at_zero(rng):
    spec = make_random_chain(rng, 4)
    state = block_state(random_state(rng, 16)[None], 4)
    out = evolve_many(spec, state, [0.0])
    assert np.abs(dense_amplitudes(out) - dense_amplitudes(state)).max() < 1e-12


def test_one_excitation_periodicity_two_sites():
    # a one-excitation state returns to itself (global phase) at t = pi/2J
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = 1j / np.sqrt(2.0)
    state = block_state(psi[None], 2)
    out = evolve_many(BOND, state, [np.pi / 2.0])
    overlap = abs(np.vdot(psi, dense_amplitudes(out)[0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_sector_evolution_matches_full(rng):
    spec = make_random_chain(rng, 6, long_range=True)
    t = 1.37
    coeffs = random_state(rng, 6)
    full_vec = np.zeros(1 << 6, dtype=complex)
    for site, c in enumerate(coeffs, start=1):
        full_vec[basis_index(6, [site])] = c
    evolved = dense_amplitudes(evolve_many(spec, block_state(full_vec[None], 6), [t]))
    sector = propagator_at(sector_spectrum(spec, 1), t) @ coeffs
    overlap = abs(
        np.vdot(
            sector,
            [evolved[0, basis_index(6, [s])] for s in range(1, 7)],
        )
    )
    assert 1.0 - overlap <= 1e-9


def test_reduced_density_product_state():
    # |psi> = |1>_1 x |0>_2: reducing to site 1 gives the pure projector
    psi = np.zeros((1, 4), dtype=complex)
    psi[0, 1] = 1.0
    rho = receiver_density(block_state(psi, 2), (1,))
    assert np.allclose(rho, np.diag([0.0, 1.0])[None])


def test_reduced_density_bell_pair():
    psi = np.zeros((1, 4), dtype=complex)
    psi[0, 0] = psi[0, 3] = 1.0 / np.sqrt(2.0)
    rho = receiver_density(block_state(psi, 2), (1,))
    assert np.allclose(rho, 0.5 * np.eye(2)[None], atol=1e-12)


def test_reduced_density_trace_one(rng):
    state = block_state(random_state(rng, 1 << 6)[None], 6)
    rho = receiver_density(state, (5, 6))[0]
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    eigenvalues = np.linalg.eigvalsh(rho)
    assert eigenvalues.min() >= -1e-10


def test_reduced_density_site_order_convention():
    # excitation on site 2 of 3: reducing to (2, 3) vs (3, 2) swaps factors
    psi = np.zeros((1, 8), dtype=complex)
    psi[0, basis_index(3, [2])] = 1.0
    rho_23 = receiver_density(block_state(psi, 3), (2, 3))[0]
    rho_32 = receiver_density(block_state(psi, 3), (3, 2))[0]
    assert rho_23[2, 2] == pytest.approx(1.0)  # |1 0> with first factor site 2
    assert rho_32[1, 1] == pytest.approx(1.0)  # |0 1> with first factor site 3


def test_initial_state_embedding(rng):
    psi = random_state(rng, 2)
    amps = dense_amplitudes(transfer_initial_state(5, (1,), psi[None], range(2, 5)))
    # amplitude of |0>_1 (x) |j>: psi_0 / sqrt(3)
    for j in (2, 3, 4):
        assert amps[0, basis_index(5, [j])] == pytest.approx(
            psi[0] / np.sqrt(3.0)
        )
        assert amps[0, basis_index(5, [1, j])] == pytest.approx(
            psi[1] / np.sqrt(3.0)
        )


def test_channel_sites_must_avoid_senders_and_lie_in_the_chain(rng):
    # an occupied site that is also a sender would OR two excitations into
    # one bit; a site past N has no bit at all
    psi = random_state(rng, 2)[None]
    with pytest.raises(ParameterError):
        transfer_initial_state(5, (1,), psi, (1, 2))
    with pytest.raises(ParameterError):
        transfer_initial_state(5, (1,), psi, (6,))


def test_invalid_sites_rejected(rng):
    state = block_state(random_state(rng, 16)[None], 4)
    for sites in [(0,), (5,), (1, 1)]:
        with pytest.raises(ParameterError):
            receiver_amplitudes(state, sites)


@pytest.mark.parametrize("kind", ["nearest", "long_range", "zz"])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_batched_oracle_matches_one_row_calls(scenario, kind, rng):
    # embedding, evolution and receiver split of a stack of sender states
    # agree row by row with calls on a stack of one
    n = 7
    spec = seeded_chain(int(rng.integers(2**31)), n, kind)
    times = rng.uniform(0.0, 12.0, 5)
    psi = np.array([random_state(rng, 1 << len(scenario.senders)) for _ in times])
    initial = transfer_initial_state(n, scenario.senders, psi, scenario.occupied(n))
    evolved = evolve_many(spec, initial, times)
    split = receiver_amplitudes(evolved, scenario.receiver(n))
    for q, amps in evolved.blocks.items():
        assert amps.shape == (5, comb(n, q))
    for k, t in enumerate(times):
        one = transfer_initial_state(n, scenario.senders, psi[k : k + 1], scenario.occupied(n))
        full = evolve_many(spec, one, [t])
        assert one.blocks.keys() == full.blocks.keys() == evolved.blocks.keys()
        for q, amps in one.blocks.items():
            assert np.array_equal(initial.blocks[q][k : k + 1], amps)
            assert np.abs(evolved.blocks[q][k : k + 1] - full.blocks[q]).max() <= 1e-13
        assert np.abs(split[k : k + 1] - receiver_amplitudes(full, scenario.receiver(n))).max() <= 1e-13


def law_gap(spec, scenario, times) -> float:
    """Largest coefficient gap between the sector-row law and the exact
    reduction of the oracle's Kraus set at the same times."""
    reduced = reduce_kraus(kraus_at_times(spec, scenario, times))
    law = fidelity_law(spec, scenario, times)
    return float(np.abs(reduced.coefficients - law.coefficients).max())


def test_batched_oracle_at_paper_length_matches_kraus_stack(rng):
    # the paper's chain length N = 22: the laws read the sector rows, the
    # Kraus stack comes from one batched oracle evolution, as certify's
    # sweep compares them
    n = 22
    spec = seeded_chain(int(rng.integers(2**31)), n, "long_range")
    for scenario in Scenario:
        assert law_gap(spec, scenario, rng.uniform(0.5, 8.0, 3)) <= 1e-9


def test_two_qubit_oracle_needs_no_dense_state(rng):
    # a dense state of 2^40 amplitudes could not be allocated; the stored
    # blocks are at most C(40, 2) = 780 wide, and the Kraus set built from
    # them carries the law of the 780-dimensional pair sector
    n = 40
    scenario = Scenario.TWO_QUBIT_VACUUM
    spec = seeded_chain(int(rng.integers(2**31)), n, "long_range")
    times = rng.uniform(0.5, 8.0, 3)
    psi = np.array([random_state(rng, 4) for _ in times])
    evolved = evolve_many(spec, transfer_initial_state(n, scenario.senders, psi), times)
    assert max(amps.shape[1] for amps in evolved.blocks.values()) == comb(n, 2)
    assert law_gap(spec, scenario, times) <= 1e-9


def test_evolve_many_validates_shapes(rng):
    spec = make_random_chain(rng, 4)
    states = block_state(np.array([random_state(rng, 16) for _ in range(2)]), 4)
    with pytest.raises(ParameterError):
        evolve_many(spec, states, [1.0])  # one time for two rows
    with pytest.raises(ParameterError):
        evolve_many(spec, states, [1.0, np.inf])
    with pytest.raises(ParameterError):
        block_state(random_state(rng, 16), 4)  # a bare state is no stack
    with pytest.raises(ParameterError):
        transfer_initial_state(4, (1,), random_state(rng, 2))
    with pytest.raises(ParameterError):
        block_state(np.array([random_state(rng, 16), np.zeros(16)]), 4)
