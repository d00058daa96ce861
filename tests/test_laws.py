"""Property tests of the fidelity laws: the row-based laws used by tuning
and the written distributions against the exact reductions of the Kraus
sets, and those reductions against a brute-force input average."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_random_chain
from spintransfer.analytics import (
    affine_from_kraus,
    correction_site,
    fidelity_law,
    phase_null_field,
    quadratic_reduce_one_qubit,
)
from spintransfer.chain import ChainSpec
from spintransfer.channel import KrausSet, Scenario, fidelity_many, kraus_for_scenario
from spintransfer.dynamics import amplitudes_at
from spintransfer.errors import ModelError
from spintransfer.sampling import bloch_states

ONE_QUBIT = (Scenario.ONE_QUBIT_VACUUM, Scenario.ONE_QUBIT_UNIFORM)


def random_spec(seed: int, n_sites: int, kind: str) -> ChainSpec:
    """Nearest-neighbour, long-range or ZZ-anisotropic random chain."""
    rng = np.random.default_rng(seed)
    spec = make_random_chain(rng, n_sites, long_range=kind == "long_range")
    if kind != "zz":
        return spec
    anis = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        anis[i, i + 1] = anis[i + 1, i] = rng.uniform(-1.0, 1.0)
    return ChainSpec(n_sites, spec.couplings, anis, spec.fields)


specs = st.builds(
    random_spec,
    st.integers(0, 2**31 - 1),
    st.integers(5, 8),
    st.sampled_from(["nearest", "long_range", "zz"]),
)
times = st.floats(0.0, 12.0)


def kraus_reduction(spec, scenario, t):
    kraus = kraus_for_scenario(amplitudes_at(spec, t), scenario, spec.n_sites)
    if scenario is Scenario.TWO_QUBIT_VACUUM:
        affine = affine_from_kraus(kraus)
        return np.array([affine.A, affine.B]), affine.mean()
    quad_form = quadratic_reduce_one_qubit(kraus)
    return np.array([quad_form.a, quad_form.b, quad_form.c]), quad_form.mean()


@given(specs, times, st.sampled_from(ONE_QUBIT))
def test_exact_reduction_matches_brute_force_average(spec, t, scenario):
    kraus = kraus_for_scenario(amplitudes_at(spec, t), scenario, spec.n_sites)
    quad_form = quadratic_reduce_one_qubit(kraus)
    xs = np.linspace(-1.0, 1.0, 21)
    # 8 azimuth nodes integrate trigonometric polynomials of degree 2 exactly
    phis = 2.0 * np.pi * np.arange(8) / 8
    theta, phi = np.meshgrid(np.arccos(xs), phis, indexing="ij")
    values = fidelity_many(kraus, bloch_states(theta.ravel(), phi.ravel())).reshape(21, 8)
    assert np.abs(values.mean(axis=1) - quad_form.evaluate(xs)).max() <= 1e-12
    assert np.ptp(values, axis=1).max() <= 1e-12


@given(specs, times, st.sampled_from(list(Scenario)))
def test_row_law_matches_kraus_reduction(spec, t, scenario):
    grid = np.array([t, t + 1.3])
    law = fidelity_law(spec, scenario, grid)
    for k, t_k in enumerate(grid):
        coefficients, mean = kraus_reduction(spec, scenario, float(t_k))
        assert np.abs(law.coefficients[k] - coefficients).max() <= 1e-12
        assert abs(law.mean[k] - mean) <= 1e-12
        assert law.pdf(k).mean() == pytest.approx(mean, abs=1e-12)


@given(
    specs,
    st.floats(0.1, 12.0),
    st.sampled_from([Scenario.ONE_QUBIT_VACUUM, Scenario.TWO_QUBIT_VACUUM]),
)
def test_phase_corrected_law_is_the_field_shifted_law(spec, t, scenario):
    b_aux = phase_null_field(spec, t, correction_site(spec, scenario))
    corrected = fidelity_law(spec, scenario, [t], phase_corrected=True)
    shifted = fidelity_law(spec.with_uniform_field(b_aux), scenario, [t])
    assert np.abs(corrected.coefficients - shifted.coefficients).max() <= 1e-10


def test_azimuth_dependent_channel_is_rejected():
    # a unitary x rotation: the fidelity of an equatorial input depends on phi
    angle = 0.6
    rotation = np.array(
        [[np.cos(angle), -1j * np.sin(angle)], [-1j * np.sin(angle), np.cos(angle)]]
    )
    kraus = KrausSet(rotation[None], Scenario.ONE_QUBIT_VACUUM, 0.0, 0.0, 1)
    equator = fidelity_many(
        kraus, bloch_states(np.full(4, np.pi / 2), np.arange(4) * np.pi / 4)
    )
    assert np.ptp(equator) > 0.1
    with pytest.raises(ModelError):
        quadratic_reduce_one_qubit(kraus)
