import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_random_chain, seeded_chain
from spintransfer import dynamics
from spintransfer.analytics import fidelity_law
from spintransfer.chain import ChainSpec, Perfect, protocol_preset, sector_hamiltonian
from spintransfer.channel import Scenario
from spintransfer.dynamics import (
    GRID_FACTOR_MIN,
    diagonalize,
    is_free_fermion,
    propagator_at,
    propagator_rows,
    sector_spectrum,
)
from spintransfer.errors import ParameterError
from spintransfer.sectors import build_sector_basis

BOND = ChainSpec(2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)), np.zeros(2))


def test_diagonalize_two_by_two():
    prop = diagonalize(np.array([[0.0, 2.0], [2.0, 0.0]]), build_sector_basis(2, 1))
    assert np.allclose(prop.eigenvalues, [-2.0, 2.0])
    for col, expected in zip(prop.eigenvectors.T, ([1, -1], [1, 1])):
        expected = np.asarray(expected) / np.sqrt(2.0)
        assert np.allclose(col, expected) or np.allclose(col, -expected)


def test_diagonalize_identity():
    prop = diagonalize(np.eye(5), build_sector_basis(5, 1))
    assert np.allclose(prop.eigenvalues, 1.0)
    assert np.abs(prop.eigenvectors @ prop.eigenvectors.T - np.eye(5)).max() < 1e-12


def test_diagonalize_rejects_asymmetric():
    with pytest.raises(ParameterError):
        diagonalize(np.array([[0.0, 1.0], [0.5, 0.0]]), build_sector_basis(2, 1))


def test_perfect_spectrum_equally_spaced():
    spec = protocol_preset(Perfect(), 6)
    basis = build_sector_basis(6, 1)
    prop = diagonalize(sector_hamiltonian(spec, basis), basis)
    gaps = np.diff(prop.eigenvalues)
    assert np.abs(gaps - gaps[0]).max() <= 1e-9


def test_propagator_identity_at_zero(rng):
    spec = make_random_chain(rng, 5)
    one, two = sector_spectrum(spec, 1), sector_spectrum(spec, 2)
    assert np.abs(propagator_at(one, 0.0) - np.eye(5)).max() < 1e-14
    assert np.abs(propagator_at(two, 0.0) - np.eye(10)).max() < 1e-14
    rows = propagator_rows(one, [[1], [2]], range(1, 6), [0.0])[0]
    assert np.abs(rows - np.eye(5)[:2]).max() < 1e-14


def test_two_site_closed_form():
    t = 0.437
    a11, a12 = propagator_rows(sector_spectrum(BOND, 1), [[1]], [1, 2], [t])[0, 0]
    assert a11 == pytest.approx(np.cos(2.0 * t), abs=1e-12)
    assert a12 == pytest.approx(-1j * np.sin(2.0 * t), abs=1e-12)


def test_group_law(rng):
    spec = make_random_chain(rng, 6, long_range=True)
    one = sector_spectrum(spec, 1)
    t1, t2 = 0.83, 1.91
    product = propagator_at(one, t1) @ propagator_at(one, t2)
    assert np.abs(product - propagator_at(one, t1 + t2)).max() <= 1e-9


def test_unitarity_random_times(rng):
    spec = make_random_chain(rng, 7)
    for t in rng.uniform(0.0, 30.0, 5):
        for q in (1, 2):
            mat = propagator_at(sector_spectrum(spec, q), float(t))
            gram = mat @ mat.conj().T
            assert np.abs(gram - np.eye(mat.shape[0])).max() <= 1e-10


def test_energy_conservation(rng):
    spec = make_random_chain(rng, 6)
    h = sector_hamiltonian(spec, build_sector_basis(6, 1))
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    e0 = np.real(psi.conj() @ h @ psi)
    for t in (0.7, 3.1, 12.9):
        evolved = propagator_at(sector_spectrum(spec, 1), t) @ psi
        assert np.real(evolved.conj() @ h @ evolved) == pytest.approx(e0, abs=1e-9)


def test_perfect_transfer_amplitude_sweep():
    spec = protocol_preset(Perfect(), 22)
    one = sector_spectrum(spec, 1)
    ts = np.linspace(0.7, 0.9, 20001)
    r = np.abs(propagator_rows(one, [[1]], [22], ts)[:, 0, 0])
    t_best = ts[np.argmax(r)]
    assert abs(propagator_rows(one, [[1]], [22], [t_best])[0, 0, 0]) >= 1.0 - 1e-8


def test_summed_rows_match_tables(rng):
    # the row evaluator against full propagators, on nearest-neighbour,
    # long-range and ZZ chains, in both sectors, with several source groups
    n = 7
    nearest = make_random_chain(rng, n)
    anis = np.zeros((n, n))
    for i in range(n - 1):
        anis[i, i + 1] = anis[i + 1, i] = rng.uniform(-1.0, 1.0)
    zz = ChainSpec(n, nearest.couplings, anis, nearest.fields)
    one_sources = [[1], [2, 3, 4], [7, 5]]
    one_targets = [3, 7, 1]
    pair_sources = [[(1, 2), (1, 3)], [(4, 6)], [(2, 7), (3, 5), (1, 6)]]
    pair_targets = [(2, 7), (4, 6), (1, 2), (5, 6)]
    times = np.array([0.9, 2.3, 7.7])
    for spec in (nearest, make_random_chain(rng, n, long_range=True), zz):
        for prop, sources, targets in (
            (sector_spectrum(spec, 1), one_sources, one_targets),
            (sector_spectrum(spec, 2), pair_sources, pair_targets),
        ):
            rows = propagator_rows(prop, sources, targets, times)
            assert rows.shape == (times.size, len(sources), len(targets))
            cols = [prop.basis.index_of(np.atleast_1d(c)) for c in targets]
            for k, t in enumerate(times):
                full = propagator_at(prop, float(t))
                for g, group in enumerate(sources):
                    src = [prop.basis.index_of(np.atleast_1d(c)) for c in group]
                    expected = full[src, :].sum(axis=0)[cols]
                    assert np.abs(rows[k, g] - expected).max() < 1e-12


def mode_weights(prop, sources, targets) -> np.ndarray:
    """v[s, m] v[target, m] summed over each source group, one row per column."""
    v = prop.eigenvectors

    def rows_of(configs):
        return v[[prop.basis.index_of(np.atleast_1d(c)) for c in configs]]

    weights = np.array([rows_of(group).sum(axis=0) for group in sources])
    return (weights[:, None, :] * rows_of(targets)).reshape(-1, prop.dimension)


def direct_rows(prop, modes, times) -> np.ndarray:
    """Rows from the full T x M phase matrix: the pointwise reference."""
    return np.exp(-1j * np.outer(times, prop.eigenvalues)) @ modes.T


def sector_cases(spec):
    n = spec.n_sites
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    yield sector_spectrum(spec, 1), [[1], range(2, n)], list(range(1, n + 1))
    yield sector_spectrum(spec, 2), [[(1, 2)], [(1, j) for j in range(2, n + 1)]], pairs


@given(
    st.builds(
        seeded_chain,
        st.integers(0, 2**31 - 1),
        st.integers(4, 8),
        st.sampled_from(["nearest", "long_range", "zz"]),
    ),
    st.sampled_from([GRID_FACTOR_MIN - 1, GRID_FACTOR_MIN, 1000, 16384 + 500]),
    st.floats(0.5, 100.0),
    st.floats(50.0, 2e4),
)
def test_factored_rows_match_direct_rows(spec, n_times, t0, span):
    # arithmetic grids of GRID_FACTOR_MIN points or more take the giant-step x
    # baby-step product; both paths round the phase arguments L t alike, so
    # they agree to 4 eps max|L| max|t| sum_m |w_m| in each column
    times = np.linspace(t0, t0 + span, n_times)
    for prop, sources, targets in sector_cases(spec):
        modes = mode_weights(prop, sources, targets)
        rows = propagator_rows(prop, sources, targets, times).reshape(n_times, -1)
        scale = (
            4.0 * np.finfo(float).eps * np.abs(prop.eigenvalues).max() * times.max()
            * np.abs(modes).sum(axis=1)
        )
        assert np.all(np.abs(rows - direct_rows(prop, modes, times)) <= scale)


def test_non_uniform_grid_takes_the_direct_path(rng):
    spec = make_random_chain(rng, 6, long_range=True)
    uniform = np.linspace(3.0, 5000.0, 2000)
    perturbed = uniform.copy()
    perturbed[777] += 1e-3 * (uniform[1] - uniform[0])
    for prop, sources, targets in sector_cases(spec):
        modes = mode_weights(prop, sources, targets)
        for times, direct in ((uniform, False), (perturbed, True)):
            rows = propagator_rows(prop, sources, targets, times).reshape(times.size, -1)
            assert np.array_equal(rows, direct_rows(prop, modes, times)) == direct


@pytest.mark.parametrize("extra", ["next_nearest", "zz"])
def test_pair_rows_gate(rng, monkeypatch, extra):
    # one next-nearest-neighbour bond or one ZZ bond breaks the determinant
    # form; the occupied-channel and two-qubit laws then read the pair sector
    n = 7
    nearest = make_random_chain(rng, n)
    assert is_free_fermion(nearest)
    couplings = np.array(nearest.couplings)
    anis = np.zeros((n, n))
    if extra == "next_nearest":
        couplings[2, 4] = couplings[4, 2] = 0.4
    else:
        anis[2, 3] = anis[3, 2] = 0.7
    spec = ChainSpec(n, couplings, anis, nearest.fields)
    assert not is_free_fermion(spec)
    times = np.array([0.4, 3.1, 9.5])
    built = []
    build = dynamics.build_sector

    def recording(chain, n_excitations):
        built.append(n_excitations)
        return build(chain, n_excitations)

    monkeypatch.setattr(dynamics, "build_sector", recording)
    for scenario in (Scenario.ONE_QUBIT_UNIFORM, Scenario.TWO_QUBIT_VACUUM):
        for chain, reads_pairs in ((nearest, False), (spec, True)):
            sector_spectrum.cache_clear()
            built.clear()
            fidelity_law(chain, scenario, times)
            assert built == ([1, 2] if reads_pairs else [1])
