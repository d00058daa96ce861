import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    make_random_chain,
    mc_local_unitary_fidelity,
    sample_bloch,
    sample_haar_unitary_2,
    sample_ks_distance,
)
from spintransfer import analytics, sampling
from spintransfer.analytics import (
    affine_from_kraus,
    fidelity_law,
    quadratic_reduce_one_qubit,
    vacuum_quadratic,
)
from spintransfer.certify import random_isometry_kraus
from spintransfer.chain import Barrier, Weak, protocol_preset
from spintransfer.channel import (
    Scenario,
    fidelity_many,
    kraus_at_times,
    kraus_set,
    pauli_transfer_matrix,
)
from spintransfer.cli import KS_GATE_ALPHA
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
    sample_bloch_vectors,
    sample_two_qubit_pure,
    schmidt_state,
)

N_MOMENT = 1_000_000


def test_bloch_pinned_first_sample():
    # regression pin recorded at first build; guards the determinism contract
    (theta,), (phi,) = sample_bloch(RandomStream(42, 0).generator(), 1)
    assert theta == pytest.approx(2.5561875419978546, abs=0.0)
    assert phi == pytest.approx(5.7238980451164725, abs=0.0)
    (theta_other,), _ = sample_bloch(RandomStream(42, 1).generator(), 1)
    assert theta_other != theta


def test_bloch_moments():
    theta, _ = sample_bloch(RandomStream(7).generator(), N_MOMENT)
    x = np.cos(theta)
    stderr = x.std() / np.sqrt(N_MOMENT)
    assert abs(x.mean()) <= 3.0 * stderr
    x2 = x**2
    stderr2 = x2.std() / np.sqrt(N_MOMENT)
    assert abs(x2.mean() - 1.0 / 3.0) <= 3.0 * stderr2


def test_haar_unitary_properties():
    u = sample_haar_unitary_2(RandomStream(8).generator(), 200_000)
    gram = np.einsum("nij,nkj->nik", u, u.conj())
    assert np.abs(gram - np.eye(2)).max() <= 1e-12
    norms = np.linalg.norm(u, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12
    m = np.abs(u[:, 0, 0]) ** 2
    stderr = m.std() / np.sqrt(m.size)
    assert abs(m.mean() - 0.5) <= 3.0 * stderr
    pinned = sample_haar_unitary_2(RandomStream(42, 0).generator(), 1)[0]
    assert complex(pinned[0, 0]) == pytest.approx(
        0.2068335500885361 + 0.7239501059026745j, abs=0.0
    )


def test_two_qubit_state_properties():
    psi = sample_two_qubit_pure(RandomStream(9).generator(), N_MOMENT)
    assert np.abs(np.linalg.norm(psi, axis=1) - 1.0).max() <= 1e-12
    conc = concurrence(psi)
    c2 = conc**2
    stderr = c2.std() / np.sqrt(N_MOMENT)
    assert abs(c2.mean() - 0.4) <= 3.0 * stderr


def test_sampled_concurrence_matches_law():
    psi = sample_two_qubit_pure(RandomStream(10).generator(), N_MOMENT)
    conc = np.sort(concurrence(psi))
    model_cdf = 1.0 - (1.0 - conc**2) ** 1.5
    n = conc.size
    upper = np.abs(np.arange(1, n + 1) / n - model_cdf).max()
    lower = np.abs(model_cdf - np.arange(0, n) / n).max()
    assert max(upper, lower) <= 0.01


def test_concurrence_examples():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    product = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    s = 0.6
    schmidt = schmidt_state(np.sqrt(1.0 - s * s))
    conc = concurrence(np.array([bell, product, schmidt]))
    assert conc.shape == (3,)
    assert conc[0] == pytest.approx(1.0)
    assert conc[1] == 0.0
    assert conc[2] == pytest.approx(0.8, abs=1e-12)
    assert concurrence(np.zeros((0, 4))).shape == (0,)
    with pytest.raises(ParameterError):
        concurrence(np.array([[1.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(ParameterError, match=r"must be \(n, 4\)"):
        concurrence(bell)  # one state is the batch bell[None]


def test_histogram_invariants():
    with pytest.raises(ParameterError):
        Histogram(np.array([0.0, 1.0]), np.array([2]), 3)
    with pytest.raises(ParameterError):
        Histogram(np.array([1.0, 0.0]), np.array([2]), 2)
    # np.diff(edges) <= 0 is False for NaN, so these need their own check
    for bad in ([0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [np.nan, np.nan]):
        with pytest.raises(ParameterError):
            Histogram(np.array(bad), np.array([1] * (len(bad) - 1)), len(bad) - 1)
    hist = Histogram(np.array([0.0, 0.5, 1.0]), np.array([1, 3]), 4)
    assert np.allclose(hist.normalized_density(), [0.5, 1.5])


def test_identity_channel_histogram_all_top_bin():
    identity = kraus_set(np.eye(2, dtype=complex)[None, None])
    edges = np.linspace(0.0, 1.0, 11)
    hist = mc_fidelity_histogram(identity, 5000, edges, RandomStream(3))
    assert hist.counts[-1] == 5000
    assert hist.counts[:-1].sum() == 0


def test_histogram_determinism(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [2.2])
    edges = np.linspace(0.0, 1.0, 201)
    h1 = mc_fidelity_histogram(kraus, 50_000, edges, RandomStream(11, 4))
    h2 = mc_fidelity_histogram(kraus, 50_000, edges, RandomStream(11, 4))
    assert np.array_equal(h1.counts, h2.counts)
    h3 = mc_fidelity_histogram(kraus, 50_000, edges, RandomStream(11, 5))
    assert not np.array_equal(h1.counts, h3.counts)


def test_mc_histogram_matches_analytic_pdf(rng):
    spec = make_random_chain(rng, 7)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [3.1])
    pdf = quadratic_reduce_one_qubit(kraus)
    edges = default_bin_edges(pdf, 200)
    hist = mc_fidelity_histogram(kraus, 200_000, edges, RandomStream(12))
    assert ks_distance(hist, pdf) <= 0.01


def test_two_qubit_histogram_matches_transform(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.TWO_QUBIT_VACUUM, [2.7])
    pdf = affine_from_kraus(kraus)
    edges = default_bin_edges(pdf, 200)
    hist = mc_fidelity_histogram(kraus, 200_000, edges, RandomStream(13))
    assert ks_distance(hist, pdf) <= 0.01


def test_ks_distance_self_samples():
    # draws from the law itself: KS below the 1% Kolmogorov critical value
    quad_form = vacuum_quadratic(0.9, 0.4)
    rng = RandomStream(21).generator()
    samples = quad_form.evaluate(rng.uniform(-1.0, 1.0, N_MOMENT))[0]
    assert sample_ks_distance(samples, quad_form) <= 1.628 / np.sqrt(N_MOMENT)
    assert sample_ks_distance(samples, quad_form) <= 0.002


def test_ks_distance_delta_vs_spread():
    pdf = vacuum_quadratic(1.0, 0.0)  # a step at 1
    samples = np.linspace(0.0, 0.999, 1000)
    assert sample_ks_distance(samples, pdf) > 0.99


def test_ks_distance_takes_only_a_histogram():
    # the Monte Carlo hands ks_distance a Histogram; raw draws are the
    # tests' reference (conftest.sample_ks_distance), not a second form
    with pytest.raises(ParameterError, match="Histogram"):
        ks_distance(np.linspace(0.0, 0.999, 1000), vacuum_quadratic(1.0, 0.0))


def test_mc_local_unitary_identity_channel():
    identity = kraus_set(np.eye(4, dtype=complex)[None, None])
    mean, err = mc_local_unitary_fidelity(identity, 0.7, 4000, RandomStream(5))
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-8)  # pure fp noise in the variance


def test_mc_local_unitary_validation(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [1.0])
    with pytest.raises(ParameterError):
        mc_local_unitary_fidelity(kraus, 0.5, 100, RandomStream(1))


@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_bloch_map_matches_kraus_on_random_isometries(n_ops, seed):
    # random isometries are not phase covariant: the azimuth matters
    rng = np.random.default_rng(seed)
    kraus = random_isometry_kraus(rng, n_ops)
    u, v, x = sample_bloch_vectors(rng, 200)
    form = bloch_fidelities(pauli_transfer_matrix(kraus)[0], u, v, x)
    reference = fidelity_many(kraus, bloch_states(np.arccos(x), np.arctan2(v, u))[None])[0]
    assert np.abs(form - reference).max() <= 1e-13


def test_pauli_transfer_matrix_rejects_dimension_three():
    qutrit = kraus_set(np.eye(3, dtype=complex)[None, None])
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
    kraus = kraus_at_times(spec, Scenario.TWO_QUBIT_VACUUM, [2.7])
    affine_from_kraus(kraus)
    quadratic_reduce_one_qubit(kraus_at_times(spec, Scenario.ONE_QUBIT_UNIFORM, [2.7]))
    hist = mc_fidelity_histogram(kraus, 1000, np.linspace(0.0, 1.0, 51), RandomStream(3))
    assert hist.n_samples == 1000


@pytest.mark.parametrize(
    "make_kraus",
    [
        lambda: kraus_at_times(protocol_preset(Weak(0.1), 12), Scenario.ONE_QUBIT_VACUUM, [95.0]),
        lambda: kraus_at_times(protocol_preset(Barrier(20.0), 9), Scenario.ONE_QUBIT_UNIFORM, [23.7]),
        # not phase covariant, unlike the presets: a wrong sign on the v
        # terms of the form changes its histogram
        lambda: random_isometry_kraus(np.random.default_rng(5), 3),
    ],
    ids=["weak_vacuum", "barrier_occupied", "random_isometry"],
)
def test_mc_histogram_matches_state_vector_histogram(make_kraus):
    # the same Bloch vectors through state vectors and fidelity_many: the
    # two evaluations differ by rounding, so a value on a bin edge may move
    n = 100_000
    kraus = make_kraus()
    edges = np.linspace(0.0, 1.0, 201)
    hist = mc_fidelity_histogram(kraus, n, edges, RandomStream(31))
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for block, start in enumerate(range(0, n, MC_BATCH)):
        rng = RandomStream(31).block_generator(block)
        u, v, x = sample_bloch_vectors(rng, min(MC_BATCH, n - start))
        values = fidelity_many(kraus, bloch_states(np.arccos(x), np.arctan2(v, u))[None])[0]
        counts += np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)[0]
    assert np.abs(hist.counts - counts).sum() <= 2


@pytest.mark.parametrize("scenario", list(Scenario))
def test_mc_histogram_of_a_stack_sums_its_rows_on_substreams(scenario, rng):
    # a stack holds T equal-weight read-out times: one multinomial draw from
    # substream T splits the samples, and row k draws its share from
    # substream k exactly as the set of that row alone does
    spec = make_random_chain(rng, 7)
    times = rng.uniform(0.5, 6.0, 5)
    stack = kraus_at_times(spec, scenario, times)
    edges = np.linspace(0.0, 1.0, 101)
    stream = RandomStream(17, 3)
    n = 40_000
    hist = mc_fidelity_histogram(stack, n, edges, stream)
    shares = stream.substream(times.size).generator().multinomial(n, np.full(times.size, 0.2))
    counts = sum(
        mc_fidelity_histogram(
            kraus_set(stack.operators[k : k + 1]), int(share), edges, stream.substream(k)
        ).counts
        for k, share in enumerate(shares)
    )
    assert shares.min() > 0 and hist.n_samples == n
    assert np.array_equal(hist.counts, counts)


def _core_count_kraus(kind: str):
    spec = make_random_chain(np.random.default_rng(8), 7)
    if kind == "stack":
        return kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [1.1, 2.3, 3.5, 4.7, 5.9])
    scenario = Scenario.TWO_QUBIT_VACUUM if kind == "two_qubit" else Scenario.ONE_QUBIT_UNIFORM
    return kraus_at_times(spec, scenario, [2.9])


@pytest.mark.parametrize("kind", ["one_qubit", "stack", "two_qubit"])
def test_mc_histogram_is_the_same_at_any_core_count(kind, monkeypatch):
    # 6 blocks for one read-out time, at least 5 for the stack: every core
    # count below takes min(cores, blocks) workers, and so helper threads
    kraus = _core_count_kraus(kind)
    n = 5 * MC_BATCH + 1000
    edges = np.linspace(0.0, 1.0, 101)
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(sampling.threading, "Thread", CountedThread)
    counts = {}
    # frequent thread switches: a block lost or taken twice by two workers
    # would change the counts
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 5):
            monkeypatch.setattr(sampling, "usable_cores", lambda cores=cores: cores)
            started.clear()
            counts[cores] = mc_fidelity_histogram(kraus, n, edges, RandomStream(19, 2)).counts
            assert len(started) == cores - 1
            assert not any(thread.is_alive() for thread in started)
    finally:
        sys.setswitchinterval(interval)
    assert counts[1].sum() == n
    assert np.array_equal(counts[1], counts[2]) and np.array_equal(counts[1], counts[5])


def test_mc_histogram_with_one_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(sampling, "usable_cores", lambda: 4)
    before = threading.active_count()
    seen = []
    real = sampling.bloch_fidelities

    def recording(*args):
        seen.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(sampling, "bloch_fidelities", recording)
    kraus = _core_count_kraus("one_qubit")
    mc_fidelity_histogram(kraus, MC_BATCH, np.linspace(0.0, 1.0, 11), RandomStream(4))
    assert seen == [threading.get_ident()]
    assert threading.active_count() == before


def test_mc_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(sampling, "usable_cores", lambda: 3)
    real = sampling.bloch_fidelities
    calls = []
    lock = threading.Lock()

    def failing_third(*args):
        with lock:
            calls.append(threading.get_ident())
            third = len(calls) == 3
        if third:
            raise FloatingPointError("block three")
        return real(*args)

    monkeypatch.setattr(sampling, "bloch_fidelities", failing_third)
    before = threading.active_count()
    kraus = _core_count_kraus("one_qubit")
    with pytest.raises(FloatingPointError, match="block three"):
        mc_fidelity_histogram(kraus, 40 * MC_BATCH, np.linspace(0.0, 1.0, 11), RandomStream(4))
    assert threading.active_count() == before
    # the workers stop taking blocks once one has failed
    assert len(calls) < 40


@pytest.mark.parametrize(
    "edges",
    [np.array([0.0, np.nan, 1.0]), np.array([1.0, 0.5, 0.0]), np.array([0.5]), np.array([0.0, np.inf])],
    ids=["nan", "decreasing", "one_edge", "infinite"],
)
def test_mc_histogram_checks_edges_before_sampling(edges, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before checking the edges")

    monkeypatch.setattr(sampling, "sample_bloch_vectors", no_sampling)
    monkeypatch.setattr(sampling, "pauli_transfer_matrix", no_sampling)
    with pytest.raises(ParameterError, match="bin_edges"):
        mc_fidelity_histogram(_core_count_kraus("one_qubit"), 1000, edges, RandomStream(3))


def test_samplers_reject_a_negative_count():
    rng = RandomStream(5).generator()
    for sampler in (sample_bloch_vectors, sample_two_qubit_pure):
        with pytest.raises(ParameterError, match="sample count must be >= 0, got -1"):
            sampler(rng, -1)
    u, v, x = sample_bloch_vectors(rng, 0)
    assert u.shape == v.shape == x.shape == (0,)
    assert sample_two_qubit_pure(rng, 0).shape == (0, 4)


def dkw_bound(n: int, alpha: float = KS_GATE_ALPHA) -> float:
    """Dvoretzky-Kiefer-Wolfowitz: an n-sample empirical CDF strays further
    than this from its law with probability at most alpha."""
    return float(np.sqrt(np.log(2.0 / alpha) / (2.0 * n)))


def ks_uniform(values, lo: float, hi: float) -> float:
    """One-sample KS distance of draws from the uniform law on [lo, hi]."""
    model = (np.sort(values) - lo) / (hi - lo)
    n = model.size
    return float(max((np.arange(1, n + 1) / n - model).max(), (model - np.arange(n) / n).max()))


def test_bloch_vectors_are_uniform_on_the_sphere():
    n = 1_000_000
    u, v, x = sample_bloch_vectors(RandomStream(41).generator(), n)
    assert u.shape == (n,)
    assert np.abs(np.sqrt(u * u + v * v + x * x) - 1.0).max() <= 4 * np.finfo(float).eps
    # x = cos(theta) and the azimuth of a uniform point are independent uniforms
    assert ks_uniform(x, -1.0, 1.0) <= dkw_bound(n)
    assert ks_uniform(np.arctan2(v, u), -np.pi, np.pi) <= dkw_bound(n)


def test_mc_histogram_matches_independent_bloch_sampler():
    # two-sample KS against conftest's arccos/azimuth draws through state
    # vectors: each empirical CDF lies within its DKW bound of the common
    # law, so the gap exceeds their sum with probability at most 2 alpha
    kraus = random_isometry_kraus(np.random.default_rng(6), 2)
    edges = np.linspace(0.0, 1.0, 201)
    n_mc, n_ref = 1_000_000, 200_000
    hist = mc_fidelity_histogram(kraus, n_mc, edges, RandomStream(42))
    theta, phi = sample_bloch(RandomStream(43).generator(), n_ref)
    values = fidelity_many(kraus, bloch_states(theta, phi)[None])[0]
    reference = np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)[0]
    gap = np.abs(np.cumsum(hist.counts) / n_mc - np.cumsum(reference) / n_ref).max()
    assert gap <= dkw_bound(n_mc) + dkw_bound(n_ref)


def test_bloch_vectors_draw_again_when_the_disk_gets_too_few():
    # a first round of corner points (1, 1), outside the disk, but for the
    # centre as its first pair; the other 49 vectors come from a second
    # round drawn from the same stream
    class CornersFirst:
        def __init__(self, rng):
            self.rng = rng
            self.shapes = []

        def uniform(self, low, high, shape):
            draw = self.rng.uniform(low, high, shape)
            if not self.shapes:
                draw[:, 0] = 0.0
                draw[:, 1:] = 1.0
            self.shapes.append(shape)
            return draw

    stub = CornersFirst(RandomStream(44).generator())
    r = np.array(sample_bloch_vectors(stub, 50))
    assert len(stub.shapes) == 2
    assert r.shape == (3, 50)
    assert np.array_equal(r[:, 0], [0.0, 0.0, 1.0])
    rng = RandomStream(44).generator()
    rng.uniform(-1.0, 1.0, stub.shapes[0])
    assert np.array_equal(r[:, 1:], sample_bloch_vectors(rng, 49))
