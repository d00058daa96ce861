import numpy as np
import pytest

from conftest import make_random_chain, random_state, seeded_chain, trace_distance
from spintransfer.chain import Barrier, Perfect, Weak, protocol_preset
from spintransfer.channel import (
    KrausSet,
    Scenario,
    apply_channel,
    fidelity,
    fidelity_many,
    kraus_for_scenario,
    kraus_one_qubit_uniform,
    kraus_one_qubit_vacuum,
    kraus_two_qubit_vacuum,
)
from spintransfer.dynamics import dynamics_for, propagator_at, propagator_rows
from spintransfer.errors import ParameterError
from spintransfer.oracle import evolve_full, reduced_density, transfer_initial_state


def test_vacuum_channel_at_zero_receiver_still_empty(rng):
    # before any dynamics the receiver holds |0>, whatever was sent
    spec = make_random_chain(rng, 5)
    kraus = kraus_one_qubit_vacuum(spec, 0.0)
    psi = random_state(rng, 2)
    rho = apply_channel(kraus, psi)
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12
    assert fidelity(kraus, psi) == pytest.approx(abs(psi[0]) ** 2, abs=1e-12)


def test_apply_channel_identity_kraus(rng):
    # a literal identity channel reproduces the input projector exactly
    from spintransfer.channel import KrausSet

    identity = KrausSet(np.eye(2, dtype=complex)[None, :, :], 0.0, 1)
    psi = random_state(rng, 2)
    rho = apply_channel(identity, psi)
    assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-15
    assert fidelity(identity, psi) == pytest.approx(1.0, abs=1e-15)


def test_vacuum_channel_structure(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_one_qubit_vacuum(spec, 1.3)
    assert kraus.n_constructed == 2
    amp = propagator_at(dynamics_for(spec).one, 1.3)[0, 5]
    e0 = kraus.operators[0]
    assert e0[0, 0] == 1.0 and e0[1, 1] == pytest.approx(amp)
    # maximally mixed input keeps unit trace
    rho = 0.5 * (
        apply_channel(kraus, np.array([1.0, 0.0], dtype=complex))
        + apply_channel(kraus, np.array([0.0, 1.0], dtype=complex))
    )
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_vacuum_fidelity_of_pole_states(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_one_qubit_vacuum(spec, 2.1)
    assert fidelity(kraus, np.array([1.0, 0.0], dtype=complex)) == pytest.approx(1.0)
    amp = propagator_at(dynamics_for(spec).one, 2.1)[0, 5]
    assert fidelity(kraus, np.array([0.0, 1.0], dtype=complex)) == pytest.approx(
        abs(amp) ** 2, abs=1e-12
    )


def test_uniform_channel_validation():
    spec = make_random_chain(np.random.default_rng(1), 3)
    with pytest.raises(ParameterError):
        kraus_one_qubit_uniform(spec, 0.5)


def test_uniform_channel_at_zero(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_one_qubit_uniform(spec, 0.0)
    for psi in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        rho = apply_channel(kraus, psi.astype(complex))
        assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12


def test_uniform_operator_count(rng):
    n = 8
    spec = make_random_chain(rng, n)
    kraus = kraus_one_qubit_uniform(spec, 1.7)
    assert kraus.n_constructed == 1 + (n - 1) + (n - 1) * (n - 2) // 2


def test_two_qubit_operator_count(rng):
    n = 9
    spec = make_random_chain(rng, n)
    kraus = kraus_two_qubit_vacuum(spec, 1.1)
    assert kraus.n_constructed == 1 + 7 + 21


def test_two_qubit_at_zero(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_two_qubit_vacuum(spec, 0.0)
    e0 = kraus.operators[0]
    assert e0[0, 0] == 1.0
    assert abs(e0[3, 3]) < 1e-12  # nothing has arrived on the receiver pair
    psi11 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    assert fidelity(kraus, psi11) == pytest.approx(0.0, abs=1e-12)


def test_two_qubit_vacuum_component_stationary(rng):
    spec = make_random_chain(rng, 7)
    for t in (0.0, 1.9, 6.4):
        kraus = kraus_two_qubit_vacuum(spec, t)
        psi00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        assert fidelity(kraus, psi00) == pytest.approx(1.0, abs=1e-12)


def test_completeness_across_protocols(rng):
    kinds = [Weak(0.1), Barrier(10.0), Perfect()]
    for n in range(4, 13, 2):
        for kind in kinds:
            spec = protocol_preset(kind, n)
            for t in rng.uniform(0.0, 10.0, 5):
                for scenario in Scenario:
                    if n < scenario.min_sites:
                        continue
                    kraus = kraus_for_scenario(spec, scenario, float(t))
                    assert kraus.completeness_defect <= 1e-9


@pytest.mark.parametrize("kind", ["nearest", "long_range", "zz"])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_channel_matches_oracle(scenario, kind, rng):
    # the Kraus sets read the fidelity laws' rows; off the free-fermion gate
    # (long-range bond, ZZ terms) their pair rows come from the pair sector,
    # and the 2^N oracle is the independent check on both paths
    for n in (max(scenario.min_sites, 5), 8):
        spec = seeded_chain(int(rng.integers(2**31)), n, kind)
        for t in rng.uniform(0.2, 8.0, 3):
            kraus = kraus_for_scenario(spec, scenario, float(t))
            psi = random_state(rng, kraus.dim)
            rho = apply_channel(kraus, psi)
            initial = transfer_initial_state(n, scenario.senders, psi, scenario.occupied(n))
            full = evolve_full(spec, initial, float(t))
            assert trace_distance(rho, reduced_density(full, scenario.receiver(n))) <= 1e-9


def test_fidelity_duality(rng):
    spec = make_random_chain(rng, 7)
    for scenario in Scenario:
        kraus = kraus_for_scenario(spec, scenario, 2.9)
        for _ in range(5):
            psi = random_state(rng, kraus.dim)
            rho = apply_channel(kraus, psi)
            overlap = float(np.real(psi.conj() @ rho @ psi))
            assert fidelity(kraus, psi) == pytest.approx(overlap, abs=1e-12)


def test_apply_channel_properties(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_for_scenario(spec, Scenario.ONE_QUBIT_UNIFORM, 3.3)
    psi = random_state(rng, 2)
    rho = apply_channel(kraus, psi)
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_unnormalized_input_rejected(rng):
    spec = make_random_chain(rng, 5)
    kraus = kraus_one_qubit_vacuum(spec, 1.0)
    with pytest.raises(ParameterError):
        apply_channel(kraus, np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        fidelity(kraus, np.array([0.5, 0.0]))


def test_fidelity_many_matches_scalar(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_for_scenario(spec, Scenario.ONE_QUBIT_UNIFORM, 1.8)
    states = np.array([random_state(rng, 2) for _ in range(7)])
    batch = fidelity_many(kraus, states)
    for value, psi in zip(batch, states):
        assert value == pytest.approx(fidelity(kraus, psi), abs=1e-12)


def test_fidelity_clamps_only_rounding():
    # a value above 1 by at most 1e-10 is rounding and reads 1; one further
    # out is an error and shows, in a batch as in a single-state call
    psi = np.array([1.0, 0.0], dtype=complex)
    for scale, expected in ((1.0 + 1e-12, 1.0), (1.001, 1.001**2)):
        ops = scale * np.eye(2, dtype=complex)[None]
        kraus = KrausSet(ops, 0.0, 1)
        assert fidelity(kraus, psi) == pytest.approx(expected, abs=1e-15)
        assert fidelity_many(kraus, psi[None, :])[0] == pytest.approx(expected, abs=1e-15)


def test_perfect_transfer_is_pure_phase():
    spec = protocol_preset(Perfect(), 8)
    dyn = dynamics_for(spec)
    ts = np.linspace(0.7, 0.9, 5001)
    t_opt = ts[np.argmax(np.abs(propagator_rows(dyn.one, [[1]], [8], ts)[:, 0, 0]))]
    kraus = kraus_one_qubit_vacuum(spec, float(t_opt))
    amp = kraus.operators[0][1, 1]
    assert abs(amp) == pytest.approx(1.0, abs=1e-8)
    psi = random_state(np.random.default_rng(5), 2)
    rho = apply_channel(kraus, psi)
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity == pytest.approx(1.0, abs=1e-8)


def test_uniform_completeness_large_barrier_chain(rng):
    # channel construction stays trace preserving at the larger chain size
    spec = protocol_preset(Barrier(100.0), 15)
    for t in rng.uniform(0.0, 2000.0, 3):
        kraus = kraus_one_qubit_uniform(spec, float(t))
        assert kraus.completeness_defect <= 1e-9
