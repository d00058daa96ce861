"""Property tests of the fidelity laws: the row-based laws used by tuning
and the written distributions against the exact reductions of the Kraus
sets, those reductions against a brute-force input average, and the
determinant pair rows the laws read against the pair sector."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_random_chain
from spintransfer.analytics import (
    PdfKind,
    affine_from_kraus,
    correction_site,
    fidelity_law,
    phase_null_field,
    quadratic_reduce_one_qubit,
)
from spintransfer.chain import Barrier, ChainSpec, Perfect, Weak, protocol_preset
from spintransfer.channel import KrausSet, Scenario, fidelity_many, kraus_for_scenario
from spintransfer import dynamics
from spintransfer.dynamics import (
    amplitudes_at,
    dynamics_for,
    is_free_fermion,
    pair_rows,
    propagator_rows,
)
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


@pytest.mark.parametrize("n_sites", [8, 12, 22])
def test_point_mass_law_sits_at_its_mean(n_sites):
    # perfect transfer at pi/4 delivers every input intact: the law is a point
    # mass, and the avg_fidelity reported for it must lie in its support
    spec = protocol_preset(Perfect(), n_sites)
    law = fidelity_law(spec, Scenario.ONE_QUBIT_VACUUM, [np.pi / 4], phase_corrected=True)
    pdf = law.pdf()
    assert pdf.kind is PdfKind.DELTA
    assert pdf.support == (law.mean[0], law.mean[0])


@given(st.integers(0, 2**31 - 1), st.integers(4, 9), st.floats(0.0, 20.0))
def test_determinant_pair_rows_match_pair_sector(seed, n, t):
    spec = make_random_chain(np.random.default_rng(seed), n)
    assert is_free_fermion(spec)
    dyn = dynamics_for(spec)
    targets = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    times = np.array([t, 0.37 * t])
    for group in ([2], range(2, n)):
        sector = propagator_rows(dyn.two, [[(1, j) for j in group]], targets, times)[:, 0]
        assert np.abs(pair_rows(dyn, group, targets, times) - sector).max() <= 1e-10


@pytest.mark.parametrize(
    ("scenario", "kind"),
    [(Scenario.ONE_QUBIT_UNIFORM, Barrier(100.0)), (Scenario.TWO_QUBIT_VACUUM, Weak(0.005))],
    ids=["uniform", "two_qubit"],
)
def test_preset_laws_never_build_pair_sector(monkeypatch, scenario, kind):
    # at N = 200 the pair sector has 19900 configurations; the laws of a
    # nearest-neighbour preset read only the 200 x 200 one-excitation sector.
    # A request for the pair sector fails here, before its 3 GB matrix exists.
    build = dynamics.sector_hamiltonian

    def one_excitation_only(spec, basis):
        assert basis.dimension <= spec.n_sites, "pair sector requested"
        return build(spec, basis)

    monkeypatch.setattr(dynamics, "sector_hamiltonian", one_excitation_only)
    monkeypatch.setattr(dynamics, "_DYNAMICS_CACHE", {})
    n_senders = 2 if scenario is Scenario.TWO_QUBIT_VACUUM else 1
    spec = protocol_preset(kind, 200, n_senders)
    law = fidelity_law(spec, scenario, np.linspace(0.0, 300.0, 7))
    dyn = dynamics_for(spec)
    assert np.all((law.mean >= 0.0) & (law.mean <= 1.0))
    assert "one" in vars(dyn) and "two" not in vars(dyn)


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
