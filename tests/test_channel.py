import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_random_chain, random_state, seeded_chain
from spintransfer.analytics import (
    affine_from_kraus,
    avg_fidelity_curve,
    fidelity_law,
    quadratic_reduce_one_qubit,
)
from spintransfer.chain import Barrier, Perfect, Weak, protocol_preset
from spintransfer.channel import (
    KrausSet,
    Scenario,
    apply_channel,
    fidelity_many,
    kraus_at_times,
    kraus_set,
    pauli_transfer_matrix,
)
from spintransfer.dynamics import dynamics_for, propagator_at, propagator_rows
from spintransfer.errors import ParameterError


def test_vacuum_channel_at_zero_receiver_still_empty(rng):
    # before any dynamics the receiver holds |0>, whatever was sent
    spec = make_random_chain(rng, 5)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [0.0])
    psi = random_state(rng, 2)
    rho = apply_channel(kraus, psi[None])[0]
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12
    value = fidelity_many(kraus, psi[None, None])[0, 0]
    assert value == pytest.approx(abs(psi[0]) ** 2, abs=1e-12)


def test_apply_channel_identity_kraus(rng):
    # a literal identity channel reproduces the input projector exactly
    identity = kraus_set(np.eye(2, dtype=complex)[None, None])
    psi = random_state(rng, 2)
    rho = apply_channel(identity, psi[None])[0]
    assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-15
    assert fidelity_many(identity, psi[None, None])[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_vacuum_channel_structure(rng):
    # one operator per configuration outside the receiver: nothing outside
    # gives diag(1, a_1^N), the excitation at site j < N gives [[0, a_1^j], [0, 0]]
    n = 6
    spec = make_random_chain(rng, n)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [1.3])
    assert kraus.operators.shape == (1, n, 2, 2)
    amps = propagator_at(dynamics_for(spec).one, 1.3)[0]
    expected = np.zeros((n, 2, 2), dtype=complex)
    expected[0] = np.diag([1.0, amps[n - 1]])
    expected[1:, 0, 1] = amps[: n - 1]
    assert np.abs(kraus.operators[0] - expected).max() <= 1e-12
    # maximally mixed input keeps unit trace
    rho = 0.5 * (
        apply_channel(kraus, np.array([[1.0, 0.0]], dtype=complex))
        + apply_channel(kraus, np.array([[0.0, 1.0]], dtype=complex))
    )[0]
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_vacuum_fidelity_of_pole_states(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [2.1])
    up, down = fidelity_many(kraus, np.array([[[1.0, 0.0], [0.0, 1.0]]]))[0]
    assert up == pytest.approx(1.0)
    amp = propagator_at(dynamics_for(spec).one, 2.1)[0, 5]
    assert down == pytest.approx(abs(amp) ** 2, abs=1e-12)


def test_uniform_channel_validation():
    spec = make_random_chain(np.random.default_rng(1), 3)
    with pytest.raises(ParameterError, match="n_sites >= 4"):
        kraus_at_times(spec, Scenario.ONE_QUBIT_UNIFORM, [0.5])


def test_uniform_channel_at_zero(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_UNIFORM, [0.0])
    for psi in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        rho = apply_channel(kraus, psi[None].astype(complex))[0]
        assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12


def test_uniform_operator_count(rng):
    n = 8
    spec = make_random_chain(rng, n)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_UNIFORM, [1.7])
    assert kraus.operators.shape[1] == 1 + (n - 1) + (n - 1) * (n - 2) // 2


def test_two_qubit_operator_count(rng):
    n = 9
    spec = make_random_chain(rng, n)
    kraus = kraus_at_times(spec, Scenario.TWO_QUBIT_VACUUM, [1.1])
    assert kraus.operators.shape[1] == 1 + 7 + 21


def test_two_qubit_at_zero(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.TWO_QUBIT_VACUUM, [0.0])
    e0 = kraus.operators[0, 0]
    assert e0[0, 0] == 1.0
    assert abs(e0[3, 3]) < 1e-12  # nothing has arrived on the receiver pair
    psi11 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    assert fidelity_many(kraus, psi11[None, None])[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_two_qubit_vacuum_component_stationary(rng):
    spec = make_random_chain(rng, 7)
    kraus = kraus_at_times(spec, Scenario.TWO_QUBIT_VACUUM, [0.0, 1.9, 6.4])
    psi00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    values = fidelity_many(kraus, np.broadcast_to(psi00, (3, 1, 4)))
    assert np.abs(values - 1.0).max() <= 1e-12


def test_completeness_across_protocols(rng):
    kinds = [Weak(0.1), Barrier(10.0), Perfect()]
    for n in range(4, 13, 2):
        for kind in kinds:
            spec = protocol_preset(kind, n)
            times = rng.uniform(0.0, 10.0, 5)
            for scenario in Scenario:
                if n < scenario.min_sites:
                    continue
                kraus = kraus_at_times(spec, scenario, times)
                assert kraus.completeness_defect.shape == (5,)
                assert kraus.completeness_defect.max() <= 1e-9


@pytest.mark.parametrize("kind", ["nearest", "long_range", "zz"])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_channel_matches_oracle(scenario, kind, rng):
    # the Kraus sets come from the 2^N oracle and the laws from the sector
    # rows (off the free-fermion gate, a long-range bond or ZZ terms, the
    # pair sector's): each one-qubit input transfers with the law's fidelity
    # at its cos(theta), and the two-qubit twirl of the channel is the law
    for n in (max(scenario.min_sites, 5), 8):
        spec = seeded_chain(int(rng.integers(2**31)), n, kind)
        times = rng.uniform(0.2, 8.0, 3)
        kraus = kraus_at_times(spec, scenario, times)
        law = fidelity_law(spec, scenario, times)
        if scenario is Scenario.TWO_QUBIT_VACUUM:
            gap = affine_from_kraus(kraus).coefficients - law.coefficients
        else:
            psi = np.array([random_state(rng, 2) for _ in times])
            x = np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2
            gap = fidelity_many(kraus, psi[:, None, :])[:, 0] - np.diagonal(law.evaluate(x))
        assert np.abs(gap).max() <= 1e-10


def test_fidelity_duality(rng):
    spec = make_random_chain(rng, 7)
    for scenario in Scenario:
        kraus = kraus_at_times(spec, scenario, [2.9])
        for _ in range(5):
            psi = random_state(rng, kraus.dim)
            rho = apply_channel(kraus, psi[None])[0]
            overlap = float(np.real(psi.conj() @ rho @ psi))
            assert fidelity_many(kraus, psi[None, None])[0, 0] == pytest.approx(overlap, abs=1e-12)


def test_apply_channel_properties(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_UNIFORM, [3.3])
    psi = random_state(rng, 2)
    rho = apply_channel(kraus, psi[None])[0]
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_unnormalized_input_rejected(rng):
    spec = make_random_chain(rng, 5)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [1.0])
    with pytest.raises(ParameterError):
        apply_channel(kraus, np.array([[1.0, 1.0]]))


def test_fidelity_many_matches_scalar(rng):
    # the rows of one block are read out independently of each other
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_UNIFORM, [1.8])
    states = np.array([random_state(rng, 2) for _ in range(7)])
    batch = fidelity_many(kraus, states[None])[0]
    for value, psi in zip(batch, states):
        assert value == pytest.approx(fidelity_many(kraus, psi[None, None])[0, 0], abs=1e-12)


def test_fidelity_clamps_only_rounding():
    # a value above 1 by at most 1e-10 is rounding and reads 1; one further
    # out is an error and shows
    psi = np.array([1.0, 0.0], dtype=complex)
    for scale, expected in ((1.0 + 1e-12, 1.0), (1.001, 1.001**2)):
        ops = scale * np.eye(2, dtype=complex)[None, None]
        kraus = KrausSet(ops, np.zeros(1))
        assert fidelity_many(kraus, psi[None, None])[0, 0] == pytest.approx(expected, abs=1e-15)


def test_perfect_transfer_is_pure_phase():
    spec = protocol_preset(Perfect(), 8)
    dyn = dynamics_for(spec)
    ts = np.linspace(0.7, 0.9, 5001)
    t_opt = ts[np.argmax(np.abs(propagator_rows(dyn.one, [[1]], [8], ts)[:, 0, 0]))]
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [t_opt])
    amp = kraus.operators[0, 0, 1, 1]
    assert abs(amp) == pytest.approx(1.0, abs=1e-8)
    psi = random_state(np.random.default_rng(5), 2)
    rho = apply_channel(kraus, psi[None])[0]
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity == pytest.approx(1.0, abs=1e-8)


def test_uniform_completeness_large_barrier_chain(rng):
    # channel construction stays trace preserving at the larger chain size
    spec = protocol_preset(Barrier(100.0), 15)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_UNIFORM, rng.uniform(0.0, 2000.0, 3))
    assert kraus.completeness_defect.max() <= 1e-9


SPECS = st.builds(
    seeded_chain,
    st.integers(0, 2**31 - 1),
    st.integers(5, 9),
    st.sampled_from(["nearest", "long_range", "zz"]),
)


@given(SPECS, st.sampled_from(list(Scenario)), st.lists(st.floats(0.0, 12.0), min_size=1, max_size=4))
def test_stack_reductions_match_laws_row_by_row(spec, scenario, times):
    # the Kraus-side reductions of a stack over times are the T-row laws of
    # the same times: coefficients row by row, and the means
    kraus = kraus_at_times(spec, scenario, times)
    if scenario is Scenario.TWO_QUBIT_VACUUM:
        reduced = affine_from_kraus(kraus)
    else:
        reduced = quadratic_reduce_one_qubit(kraus)
    law = fidelity_law(spec, scenario, times)
    assert reduced.coefficients.shape == law.coefficients.shape
    assert len(law.coefficients) == len(times)
    assert np.abs(reduced.coefficients - law.coefficients).max() <= 1e-12
    assert np.abs(reduced.mean - law.mean).max() <= 1e-12


@pytest.mark.parametrize("kind", ["nearest", "long_range", "zz"])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_stack_over_times_matches_one_time_sets(scenario, kind, rng):
    # row k of a stack over times is the set built at times[k] alone, all K
    # operators kept: at t = 0 the leak operators of the occupied and
    # two-qubit channels hold only rounding, and they stay in the stack
    n = 7
    spec = seeded_chain(int(rng.integers(2**31)), n, kind)
    times = np.r_[0.0, rng.uniform(0.2, 8.0, 4)]
    stack = kraus_at_times(spec, scenario, times)
    assert stack.completeness_defect.shape == (5,)
    for k, t in enumerate(times):
        one = kraus_at_times(spec, scenario, [t])
        assert one.operators.shape == (1, *stack.operators.shape[1:])
        assert np.abs(stack.operators[k] - one.operators[0]).max() <= 1e-14
        assert abs(stack.completeness_defect[k] - one.completeness_defect[0]) <= 1e-15
    if scenario is not Scenario.ONE_QUBIT_VACUUM:
        assert (np.abs(stack.operators[0]).max(axis=(1, 2)) < 1e-14).any()


def test_stack_outputs_match_one_time_outputs(rng):
    # apply_channel and fidelity_many read time k of a stack as the set at
    # that time alone: one input per time in, one output per time out
    spec = make_random_chain(rng, 7)
    times = rng.uniform(0.5, 6.0, 4)
    for scenario in Scenario:
        stack = kraus_at_times(spec, scenario, times)
        psi = np.array([random_state(rng, stack.dim) for _ in times])
        rho = apply_channel(stack, psi)
        values = fidelity_many(stack, psi[:, None, :])
        assert rho.shape == (4, stack.dim, stack.dim) and values.shape == (4, 1)
        for k, t in enumerate(times):
            one = kraus_at_times(spec, scenario, [t])
            assert np.abs(rho[k] - apply_channel(one, psi[k : k + 1])[0]).max() <= 1e-14
            assert abs(values[k, 0] - fidelity_many(one, psi[None, k : k + 1])[0, 0]) <= 1e-14


def test_stack_inputs_validated(rng):
    spec = make_random_chain(rng, 6)
    stack = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [1.0, 2.0])
    assert pauli_transfer_matrix(stack).shape == (2, 4, 4)
    with pytest.raises(ParameterError):
        apply_channel(stack, random_state(rng, 2)[None])  # one state for two times
    with pytest.raises(ParameterError):
        apply_channel(stack, random_state(rng, 2))  # a bare state is no stack
    with pytest.raises(ParameterError):
        fidelity_many(stack, random_state(rng, 2)[None, None])
    with pytest.raises(ParameterError):
        fidelity_many(stack, np.array([random_state(rng, 2)] * 2))  # no sample axis


@pytest.mark.parametrize(
    "times",
    [[1.0, np.nan], [np.inf], np.ones((2, 2)), 1.0, []],
    ids=["nan", "inf", "two_dimensional", "scalar", "empty"],
)
@pytest.mark.parametrize(
    "build",
    [fidelity_law, kraus_at_times, avg_fidelity_curve],
    ids=["law", "kraus", "curve"],
)
def test_laws_and_kraus_sets_reject_bad_times(rng, build, times):
    # all read their rows through propagator_rows, which checks the times,
    # so a bad time fails alike instead of giving a NaN, a reshaped law,
    # an IndexError from the curve's chunking or, for no times, a numpy
    # reshape or reduction error
    for long_range in (False, True):
        spec = make_random_chain(rng, 6, long_range=long_range)
        for scenario in Scenario:
            with pytest.raises(ParameterError, match="times must be"):
                build(spec, scenario, times)
