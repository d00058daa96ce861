import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    make_random_chain,
    mc_local_unitary_fidelity,
    one_row_law,
    sample_bloch,
    sample_haar_unitary_2,
)
from spintransfer import analytics
from spintransfer.analytics import (
    affine_from_kraus,
    fidelity_law,
    quadratic_reduce_one_qubit,
    vacuum_quadratic,
)
from spintransfer.certify import random_isometry_kraus
from spintransfer.chain import Barrier, Weak, protocol_preset
from spintransfer.channel import (
    KrausSet,
    Scenario,
    fidelity_many,
    kraus_for_scenario,
    pauli_transfer_matrix,
)
from spintransfer.errors import ParameterError
from spintransfer.sampling import (
    MC_BATCH,
    Histogram,
    RandomStream,
    bloch_fidelities,
    bloch_states,
    concurrence,
    default_bin_edges,
    ks_distance,
    mc_fidelity_histogram,
    sample_two_qubit_pure,
    schmidt_state,
)

N_MOMENT = 1_000_000


def test_bloch_pinned_first_sample():
    # regression pin recorded at first build; guards the determinism contract
    theta, phi = sample_bloch(RandomStream(42, 0))
    assert theta == pytest.approx(2.5561875419978546, abs=0.0)
    assert phi == pytest.approx(5.7238980451164725, abs=0.0)
    theta_other, _ = sample_bloch(RandomStream(42, 1))
    assert theta_other != theta


def test_bloch_moments():
    theta, _ = sample_bloch(RandomStream(7), N_MOMENT)
    x = np.cos(theta)
    stderr = x.std() / np.sqrt(N_MOMENT)
    assert abs(x.mean()) <= 3.0 * stderr
    x2 = x**2
    stderr2 = x2.std() / np.sqrt(N_MOMENT)
    assert abs(x2.mean() - 1.0 / 3.0) <= 3.0 * stderr2


def test_haar_unitary_properties():
    u = sample_haar_unitary_2(RandomStream(8), 200_000)
    gram = np.einsum("nij,nkj->nik", u, u.conj())
    assert np.abs(gram - np.eye(2)).max() <= 1e-12
    norms = np.linalg.norm(u, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12
    m = np.abs(u[:, 0, 0]) ** 2
    stderr = m.std() / np.sqrt(m.size)
    assert abs(m.mean() - 0.5) <= 3.0 * stderr
    pinned = sample_haar_unitary_2(RandomStream(42, 0))
    assert complex(pinned[0, 0]) == pytest.approx(
        0.2068335500885361 + 0.7239501059026745j, abs=0.0
    )


def test_two_qubit_state_properties():
    psi = sample_two_qubit_pure(RandomStream(9), N_MOMENT)
    assert np.abs(np.linalg.norm(psi, axis=1) - 1.0).max() <= 1e-12
    conc = concurrence(psi)
    c2 = conc**2
    stderr = c2.std() / np.sqrt(N_MOMENT)
    assert abs(c2.mean() - 0.4) <= 3.0 * stderr


def test_sampled_concurrence_matches_law():
    psi = sample_two_qubit_pure(RandomStream(10), N_MOMENT)
    conc = np.sort(concurrence(psi))
    model_cdf = 1.0 - (1.0 - conc**2) ** 1.5
    n = conc.size
    upper = np.abs(np.arange(1, n + 1) / n - model_cdf).max()
    lower = np.abs(model_cdf - np.arange(0, n) / n).max()
    assert max(upper, lower) <= 0.01


def test_concurrence_examples():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert concurrence(bell) == pytest.approx(1.0)
    product = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert concurrence(product) == 0.0
    s = 0.6
    state = schmidt_state(np.sqrt(1.0 - s * s))
    assert concurrence(state) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ParameterError):
        concurrence(np.array([1.0, 1.0, 0.0, 0.0]))


def test_histogram_invariants():
    with pytest.raises(ParameterError):
        Histogram(np.array([0.0, 1.0]), np.array([2]), 3)
    with pytest.raises(ParameterError):
        Histogram(np.array([1.0, 0.0]), np.array([2]), 2)
    hist = Histogram(np.array([0.0, 0.5, 1.0]), np.array([1, 3]), 4)
    assert np.allclose(hist.normalized_density(), [0.5, 1.5])


def test_identity_channel_histogram_all_top_bin():
    identity = KrausSet(np.eye(2, dtype=complex)[None, :, :], 0.0, 1)
    edges = np.linspace(0.0, 1.0, 11)
    hist = mc_fidelity_histogram(identity, 5000, edges, RandomStream(3))
    assert hist.counts[-1] == 5000
    assert hist.counts[:-1].sum() == 0


def test_histogram_determinism(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_for_scenario(spec, Scenario.ONE_QUBIT_VACUUM, 2.2)
    edges = np.linspace(0.0, 1.0, 201)
    h1 = mc_fidelity_histogram(kraus, 50_000, edges, RandomStream(11, 4))
    h2 = mc_fidelity_histogram(kraus, 50_000, edges, RandomStream(11, 4))
    assert np.array_equal(h1.counts, h2.counts)
    h3 = mc_fidelity_histogram(kraus, 50_000, edges, RandomStream(11, 5))
    assert not np.array_equal(h1.counts, h3.counts)


def test_mc_histogram_matches_analytic_pdf(rng):
    spec = make_random_chain(rng, 7)
    kraus = kraus_for_scenario(spec, Scenario.ONE_QUBIT_VACUUM, 3.1)
    pdf = quadratic_reduce_one_qubit(kraus)
    edges = default_bin_edges(pdf, 200)
    hist = mc_fidelity_histogram(kraus, 200_000, edges, RandomStream(12))
    assert ks_distance(hist, pdf) <= 0.01


def test_two_qubit_histogram_matches_transform(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_for_scenario(spec, Scenario.TWO_QUBIT_VACUUM, 2.7)
    pdf = affine_from_kraus(kraus)
    edges = default_bin_edges(pdf, 200)
    hist = mc_fidelity_histogram(kraus, 200_000, edges, RandomStream(13))
    assert ks_distance(hist, pdf) <= 0.01


def test_ks_distance_self_samples():
    # draws from the law itself: KS below the 1% Kolmogorov critical value
    quad_form = vacuum_quadratic(0.9, 0.4)
    rng = RandomStream(21).generator()
    samples = quad_form.evaluate(rng.uniform(-1.0, 1.0, N_MOMENT))
    assert ks_distance(samples, quad_form) <= 1.628 / np.sqrt(N_MOMENT)
    assert ks_distance(samples, quad_form) <= 0.002


def test_ks_distance_delta_vs_spread():
    pdf = one_row_law(vacuum_quadratic(1.0, 0.0)).pdf()  # point mass at 1
    samples = np.linspace(0.0, 0.999, 1000)
    assert ks_distance(samples, pdf) > 0.99


def test_mc_local_unitary_identity_channel():
    identity = KrausSet(np.eye(4, dtype=complex)[None, :, :], 0.0, 1)
    mean, err = mc_local_unitary_fidelity(identity, 0.7, 4000, RandomStream(5))
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-8)  # pure fp noise in the variance


def test_mc_local_unitary_validation(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_for_scenario(spec, Scenario.ONE_QUBIT_VACUUM, 1.0)
    with pytest.raises(ParameterError):
        mc_local_unitary_fidelity(kraus, 0.5, 100, RandomStream(1))


@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_bloch_map_matches_kraus_on_random_isometries(n_ops, seed):
    # random isometries are not phase covariant: the azimuth matters
    rng = np.random.default_rng(seed)
    kraus = random_isometry_kraus(rng, n_ops)
    x = 1.0 - 2.0 * rng.random(200)
    phi = 2.0 * np.pi * rng.random(200)
    form = bloch_fidelities(pauli_transfer_matrix(kraus), x, phi)
    reference = fidelity_many(kraus, bloch_states(np.arccos(x), phi))
    assert np.abs(form - reference).max() <= 1e-13


def test_pauli_transfer_matrix_rejects_dimension_three():
    qutrit = KrausSet(np.eye(3, dtype=complex)[None], 0.0, 1)
    with pytest.raises(ParameterError):
        pauli_transfer_matrix(qutrit)


def test_kraus_side_reads_no_trace_sums(monkeypatch, rng):
    # the reductions and the two-qubit Monte Carlo read the Pauli transfer
    # matrix, not the trace-sum coefficients of the two-qubit row law
    def fail(*args):
        raise AssertionError("_affine_from_traces was called")

    monkeypatch.setattr(analytics, "_affine_from_traces", fail)
    spec = make_random_chain(rng, 6)
    with pytest.raises(AssertionError):
        fidelity_law(spec, Scenario.TWO_QUBIT_VACUUM, [2.7])  # the patch is live
    kraus = kraus_for_scenario(spec, Scenario.TWO_QUBIT_VACUUM, 2.7)
    affine_from_kraus(kraus)
    quadratic_reduce_one_qubit(kraus_for_scenario(spec, Scenario.ONE_QUBIT_UNIFORM, 2.7))
    hist = mc_fidelity_histogram(kraus, 1000, np.linspace(0.0, 1.0, 51), RandomStream(3))
    assert hist.n_samples == 1000


@pytest.mark.parametrize(
    "spec, scenario, t",
    [
        (protocol_preset(Weak(0.1), 12), Scenario.ONE_QUBIT_VACUUM, 95.0),
        (protocol_preset(Barrier(20.0), 9), Scenario.ONE_QUBIT_UNIFORM, 23.7),
    ],
    ids=["weak_vacuum", "barrier_occupied"],
)
def test_mc_histogram_matches_state_vector_histogram(spec, scenario, t):
    # the same uniforms through state vectors and fidelity_many: the two
    # evaluations differ by rounding, so a value on a bin edge may move
    n = 100_000
    kraus = kraus_for_scenario(spec, scenario, t)
    edges = np.linspace(0.0, 1.0, 201)
    hist = mc_fidelity_histogram(kraus, n, edges, RandomStream(31))
    rng = RandomStream(31).generator()
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for start in range(0, n, MC_BATCH):
        batch = min(MC_BATCH, n - start)
        x = 1.0 - 2.0 * rng.random(batch)
        phi = 2.0 * np.pi * rng.random(batch)
        values = fidelity_many(kraus, bloch_states(np.arccos(x), phi))
        counts += np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)[0]
    assert np.abs(hist.counts - counts).sum() <= 2
