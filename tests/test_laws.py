"""Property tests of the fidelity laws: the row-based laws used by tuning
and the written distributions against the exact reductions of the Kraus
sets, those reductions against a brute-force input average, the
determinant pair rows the laws read against the pair sector, the
distributions' densities against their cdfs, and the minimum-fidelity
branches against a brute-force minimum."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_random_chain, one_row_law, seeded_chain

from spintransfer.analytics import (
    COLLAPSE_WIDTH,
    FidelityLaw,
    MinBranch,
    Mixture,
    PointMass,
    QuadraticFidelity,
    TwoQubitAffine,
    affine_from_kraus,
    fidelity_law,
    min_fidelity_closed_form,
    phase_null_field,
    quadratic_reduce_one_qubit,
    vacuum_quadratic,
)
from spintransfer.chain import Barrier, Perfect, Weak, protocol_preset
from spintransfer.cli import PDF_CURVE_CELLS, PDF_CURVE_PAD_CELLS, pdf_curve_rows
from spintransfer.channel import KrausSet, Scenario, fidelity_many, kraus_for_scenario
from spintransfer import analytics, dynamics
from spintransfer.dynamics import (
    dynamics_for,
    is_free_fermion,
    pair_rows,
    propagator_rows,
)
from spintransfer.errors import ModelError
from spintransfer.sampling import bloch_states

ONE_QUBIT = (Scenario.ONE_QUBIT_VACUUM, Scenario.ONE_QUBIT_UNIFORM)


specs = st.builds(
    seeded_chain,
    st.integers(0, 2**31 - 1),
    st.integers(5, 8),
    st.sampled_from(["nearest", "long_range", "zz"]),
)
times = st.floats(0.0, 12.0)


def kraus_reduction(spec, scenario, t):
    kraus = kraus_for_scenario(spec, scenario, t)
    if scenario is Scenario.TWO_QUBIT_VACUUM:
        affine = affine_from_kraus(kraus)
        return np.array([affine.A, affine.B]), affine.mean()
    quad_form = quadratic_reduce_one_qubit(kraus)
    return np.array([quad_form.a, quad_form.b, quad_form.c]), quad_form.mean()


@given(specs, times, st.sampled_from(ONE_QUBIT))
def test_exact_reduction_matches_brute_force_average(spec, t, scenario):
    kraus = kraus_for_scenario(spec, scenario, t)
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
        row = FidelityLaw(scenario, law.coefficients[k : k + 1])
        assert row.pdf().mean() == pytest.approx(mean, abs=1e-12)


@given(
    specs,
    st.floats(0.1, 12.0),
    st.sampled_from([Scenario.ONE_QUBIT_VACUUM, Scenario.TWO_QUBIT_VACUUM]),
)
def test_phase_corrected_law_is_the_field_shifted_law(spec, t, scenario):
    b_aux = phase_null_field(spec, scenario, t)
    corrected = fidelity_law(spec, scenario, [t], phase_corrected=True)
    shifted = fidelity_law(spec.with_uniform_field(b_aux), scenario, [t])
    assert np.abs(corrected.coefficients - shifted.coefficients).max() <= 1e-10


@pytest.mark.parametrize(
    "scenario", [Scenario.ONE_QUBIT_UNIFORM, Scenario.TWO_QUBIT_VACUUM], ids=["uniform", "two_qubit"]
)
@given(st.integers(0, 2**31 - 1), st.integers(4, 16), st.floats(0.1, 40.0), st.booleans())
def test_free_fermion_closed_forms_match_kraus_reduction(scenario, seed, n, t, phase_corrected):
    # on nearest-neighbour chains the occupied-channel and two-qubit laws are
    # closed forms in at most four amplitudes; the Kraus sets read every pair row
    spec = make_random_chain(np.random.default_rng(seed), max(n, scenario.min_sites))
    assert is_free_fermion(spec)
    law = fidelity_law(spec, scenario, [t], phase_corrected=phase_corrected)
    reference_spec = spec
    if phase_corrected and scenario is Scenario.TWO_QUBIT_VACUUM:
        b_aux = phase_null_field(spec, scenario, t)
        reference_spec = spec.with_uniform_field(b_aux)
    coefficients, mean = kraus_reduction(reference_spec, scenario, t)
    assert np.abs(law.coefficients[0] - coefficients).max() <= 1e-12
    assert abs(law.mean[0] - mean) <= 1e-12


@pytest.mark.parametrize("n_sites", [8, 12, 22])
def test_point_mass_law_sits_at_its_mean(n_sites):
    # perfect transfer at pi/4 delivers every input intact: the law is a point
    # mass, and the avg_fidelity reported for it must lie in its support
    spec = protocol_preset(Perfect(), n_sites)
    law = fidelity_law(spec, Scenario.ONE_QUBIT_VACUUM, [np.pi / 4], phase_corrected=True)
    pdf = law.pdf()
    assert isinstance(pdf, PointMass)
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
    # the closed forms read at most 2 sources x 2 targets and no pair row
    rows = analytics.propagator_rows
    shapes = []

    def recorded_rows(prop, sources, targets, times):
        shapes.append((len(sources), len(targets)))
        return rows(prop, sources, targets, times)

    def no_pair_rows(*args, **kwargs):
        raise AssertionError("pair rows requested")

    monkeypatch.setattr(analytics, "propagator_rows", recorded_rows)
    monkeypatch.setattr(analytics, "pair_rows", no_pair_rows)
    spec = protocol_preset(kind, 200, len(scenario.senders))
    for phase_corrected in (False, True):
        law = fidelity_law(spec, scenario, np.linspace(0.0, 300.0, 7), phase_corrected)
        assert np.all((law.mean >= 0.0) & (law.mean <= 1.0))
    dyn = dynamics_for(spec)
    assert "one" in vars(dyn) and "two" not in vars(dyn)
    assert shapes and all(s <= 2 and t <= 2 for s, t in shapes)


def test_azimuth_dependent_channel_is_rejected():
    # a unitary x rotation: the fidelity of an equatorial input depends on phi
    angle = 0.6
    rotation = np.array(
        [[np.cos(angle), -1j * np.sin(angle)], [-1j * np.sin(angle), np.cos(angle)]]
    )
    kraus = KrausSet(rotation[None], 0.0, 1)
    equator = fidelity_many(
        kraus, bloch_states(np.full(4, np.pi / 2), np.arange(4) * np.pi / 4)
    )
    assert np.ptp(equator) > 0.1
    with pytest.raises(ModelError):
        quadratic_reduce_one_qubit(kraus)


def quadratic_law(a: float, b: float, position: float) -> QuadraticFidelity:
    """a x^2 + b x + c with c placing the range at ``position`` of its slack in [0, 1].

    a and b shrink by a common factor where their range is wider than 1
    (a = b = 1/2 spans 9/8), so every law drawn is a valid fidelity.
    """
    xs = [-1.0, 1.0] + ([-b / (2.0 * a)] if a and abs(b / (2.0 * a)) < 1.0 else [])
    spread = np.ptp([(a * x + b) * x for x in xs])
    if spread > 1.0:
        a, b = a / spread, b / spread
    values = [(a * x + b) * x for x in xs]
    lo, hi = min(values), max(values)
    return QuadraticFidelity(a, b, -lo + position * (1.0 - (hi - lo)))


quadratic_laws = st.builds(
    quadratic_law,
    st.one_of(st.just(0.0), st.floats(1e-3, 0.5), st.floats(-0.5, -1e-3)),
    st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
    st.floats(0.0, 1.0),
)
affine_laws = st.builds(
    lambda b_val, position: TwoQubitAffine(max(b_val, 0.0) + position * (1.0 - abs(b_val)), b_val),
    st.one_of(st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3)),
    st.floats(0.0, 1.0),
)


def assert_pdf_consistent(pdf, kinks):
    """cdf monotone, 0 below and 1 from f_max on, cell masses = cdf steps."""
    lo, hi = pdf.support
    span = max(hi - lo, 1e-9)
    grid = np.linspace(lo - 0.1 * span, hi + 0.1 * span, 4001)
    cdf = pdf.cdf(grid)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert np.all(cdf[grid < lo] == 0.0)
    assert pdf.cdf(hi) == 1.0 and np.all(cdf[grid >= hi] == 1.0)
    if isinstance(pdf, PointMass):
        return
    # integrable 1/sqrt singularities sit at the kinks, so they end cells;
    # each cell's mass is the density integrated by the tau-substituted
    # Gauss-Legendre rule of the normalization
    edges = np.unique(np.clip(np.r_[np.linspace(lo, hi, 9), kinks], lo, hi))
    masses = pdf.segment_masses(edges)
    for left, right, mass in zip(edges[:-1], edges[1:], masses):
        assert mass == pytest.approx(float(pdf.cdf(right) - pdf.cdf(left)), abs=1e-7)
    assert masses.sum() == pytest.approx(1.0, abs=1e-7)


# a long-range-chain occupied-channel law whose vertex sits 2e-4 inside
# x = -1: two breakpoints 7.4e-9 apart, where adaptive quadrature of the
# density misses the cell mass by 1e-4
@example(QuadraticFidelity(0.168047, 0.336023, 0.391471))
@given(quadratic_laws)
def test_quadratic_pdf_matches_its_cdf(quad_form):
    a, b = quad_form.a, quad_form.b
    xs = [-1.0, 1.0] + ([-b / (2.0 * a)] if a and abs(b / (2.0 * a)) < 1.0 else [])
    assert_pdf_consistent(one_row_law(quad_form).pdf(), quad_form.evaluate(np.array(xs)))


@given(affine_laws)
def test_affine_pdf_matches_its_cdf(affine):
    assert_pdf_consistent(affine, [affine.A, affine.A - affine.B])


@given(st.one_of(quadratic_laws, affine_laws))
def test_support_is_the_extreme_breakpoints(law):
    # the breakpoints are the law at its candidate extremes, through evaluate
    if isinstance(law, TwoQubitAffine):
        xs = [0.0, 1.0]
    else:
        a, b = law.a, law.b
        xs = [-1.0, 1.0] + ([-b / (2.0 * a)] if a and abs(b / (2.0 * a)) < 1.0 else [])
    points = law.breakpoints()
    assert points == [float(law.evaluate(x)) for x in xs]
    assert law.support == (min(points), max(points))


def row_distribution(law):
    """What a one-row FidelityLaw of ``law`` must give: a point mass at its
    mean when its support is at most COLLAPSE_WIDTH wide, else the law itself."""
    lo, hi = law.support
    return PointMass(law.mean()) if hi - lo <= COLLAPSE_WIDTH else law


@given(st.one_of(quadratic_laws, affine_laws))
def test_one_row_law_is_that_rows_distribution(law):
    assert one_row_law(law).pdf() == row_distribution(law)


continuous_laws = st.one_of(quadratic_laws, affine_laws).filter(
    lambda law: np.ptp(law.support) > COLLAPSE_WIDTH
)


# the barrier h0=200 N=22 law at the read-out time of average 0.99: its
# vertex lies inside (-1, 1), and a grid not anchored on f_min put 5.5e-3
# of density into the last left padding cell
@example(QuadraticFidelity(0.014661541384721644, 0.00022563891283605697, 0.9851128197024424))
# a subnormal linear term: where the discriminant is negative the masked
# root quotient overflows, which must stay silent and leave the rows as they are
@example(QuadraticFidelity(-0.5, 2.2250738585e-313, 0.95))
@given(st.one_of(continuous_laws, st.lists(continuous_laws, min_size=2, max_size=5).map(
    lambda parts: Mixture(tuple(parts))
)))
def test_pdf_curve_padding_is_empty(pdf):
    rows = np.array(pdf_curve_rows(pdf))
    assert np.all(rows[:PDF_CURVE_PAD_CELLS, 1] == 0.0)
    assert np.all(rows[-PDF_CURVE_PAD_CELLS:, 1] == 0.0)
    # the f column is the midpoints of a grid with f_min and f_max among its
    # edges (at least 1e-6 apart), padded by cells of the same width
    lo, hi = pdf.support
    hi = max(hi, lo + 1e-6)
    pad = (hi - lo) / (PDF_CURVE_CELLS - 1) * np.arange(1, PDF_CURVE_PAD_CELLS + 1)
    edges = np.concatenate([lo - pad[::-1], np.linspace(lo, hi, PDF_CURVE_CELLS), hi + pad])
    assert np.array_equal(rows[:, 0], 0.5 * (edges[:-1] + edges[1:]))
    assert abs(rows[:, 1] @ np.diff(edges) - 1.0) <= 1e-12


@given(specs, st.floats(0.1, 12.0), st.sampled_from(list(Scenario)), st.integers(1, 5))
def test_row_means_are_their_distributions_means(spec, t, scenario, n_rows):
    # one rule from a row to its mean: the law's mean is the mean of the
    # distribution the row becomes, to the last bit
    law = fidelity_law(spec, scenario, t * np.linspace(0.9, 1.1, n_rows))
    pdf = law.pdf()
    parts = pdf.parts if isinstance(pdf, Mixture) else (pdf,)
    assert len(parts) == n_rows
    for mean, part in zip(law.mean, parts):
        assert mean == part.mean()


# laws narrower than COLLAPSE_WIDTH: a tiny quadratic term alone, tiny
# quadratic and linear terms, and a seeded zz-chain two-qubit law, whose own
# densities' normalizations read inf, 1 + 2.0e-3 and 1 - 1.1e-7
NARROW_LAWS = [
    QuadraticFidelity(5e-12, 0.0, 0.9),
    QuadraticFidelity(2e-12, 3e-12, 0.9),
    TwoQubitAffine(0.25000000001621, 9.28e-12),
]


@pytest.mark.parametrize("law", NARROW_LAWS, ids=["a", "ab", "zz_two_qubit"])
def test_narrow_rows_are_point_masses(law):
    pdf = one_row_law(law).pdf()
    assert pdf == PointMass(law.mean())
    assert pdf.normalization() == 1.0


@given(
    st.one_of(st.floats(1e-20, 1e-12), st.floats(-1e-12, -1e-20)),
    st.one_of(st.floats(1e-3, 0.5), st.floats(-0.5, -1e-3)),
    st.floats(0.0, 1.0),
)
def test_tiny_quadratic_term_is_the_linear_law(a, b, position):
    # no a = 0 branch and no snap of a tiny a to 0: the stable roots give
    # the linear law, off by the exact root shift of at most |a| / (2 |b|)
    linear = QuadraticFidelity(0.0, b, abs(b) + position * (1.0 - 2.0 * abs(b)))
    tiny = QuadraticFidelity(a, b, linear.c)
    lo, hi = tiny.support
    fs = np.linspace(lo, hi, 1001)
    assert np.abs(tiny.cdf(fs) - linear.cdf(fs)).max() <= 1e-12 + abs(a) / (2.0 * abs(b))
    # a = -0.0 is the linear law too
    assert np.array_equal(QuadraticFidelity(-0.0, b, linear.c).cdf(fs), linear.cdf(fs))


@given(specs, st.floats(0.1, 12.0), st.sampled_from(list(Scenario)))
def test_fidelity_law_rows_are_their_distributions(spec, t, scenario):
    law = fidelity_law(spec, scenario, [t])
    row = [float(v) for v in law.coefficients[0]]
    expected = TwoQubitAffine(*row) if scenario is Scenario.TWO_QUBIT_VACUUM else QuadraticFidelity(*row)
    assert law.pdf() == expected


@given(specs, st.floats(0.1, 12.0), st.sampled_from(list(Scenario)), st.integers(2, 5))
def test_several_rows_mix_with_equal_weight(spec, t, scenario, n_rows):
    law = fidelity_law(spec, scenario, t * np.linspace(0.9, 1.1, n_rows))
    rows = [
        FidelityLaw(scenario, law.coefficients[k : k + 1]).pdf()
        for k in range(n_rows)
    ]
    mixture = law.pdf()
    assert isinstance(mixture, Mixture)
    assert mixture.support == (min(r.support[0] for r in rows), max(r.support[1] for r in rows))
    lo, hi = mixture.support
    fs = np.linspace(lo - 0.01, hi + 0.01, 257)
    assert np.abs(mixture.cdf(fs) - np.mean([r.cdf(fs) for r in rows], axis=0)).max() <= 1e-14
    inner = fs[(fs > lo) & (fs < hi)]
    assert np.abs(
        mixture.density(inner) - np.mean([r.density(inner) for r in rows], axis=0)
    ).max() <= 1e-12 * np.abs(mixture.density(inner)).max()


def phase_bound(r: float) -> float:
    """arccos((3 r^2 - 1) / (2 r)): the vertex enters [-1, 1] for |phi| beyond it."""
    return float(np.arccos(np.clip((3.0 * r * r - 1.0) / (2.0 * r), -1.0, 1.0)))


BRANCH_INPUTS = {
    MinBranch.POLE_SMALL_AMPLITUDE: st.tuples(st.floats(0.0, 1.0 / 3.0), st.floats(-np.pi, np.pi)),
    MinBranch.POLE_PHASE: st.builds(
        lambda r, u, sign: (r, sign * u * phase_bound(r)),
        st.floats(0.34, 1.0), st.floats(0.0, 0.999), st.sampled_from([-1.0, 1.0]),
    ),
    MinBranch.INTERIOR_VERTEX: st.builds(
        lambda r, u, sign: (r, sign * (phase_bound(r) + u * (np.pi - phase_bound(r)))),
        st.floats(0.34, 1.0), st.floats(1e-3, 1.0), st.sampled_from([-1.0, 1.0]),
    ),
}


@pytest.mark.parametrize("branch", list(BRANCH_INPUTS), ids=lambda b: b.value)
@given(data=st.data())
def test_min_fidelity_branches_match_brute_force(branch, data):
    r, phi = data.draw(BRANCH_INPUTS[branch])
    result = min_fidelity_closed_form(r, phi)
    quad_form = vacuum_quadratic(r, phi)
    # r = 1, phi = 0 is the identity channel: no vertex, the pole is reported
    assert result.branch is branch or (quad_form.a <= 0.0 and result.branch is MinBranch.POLE_PHASE)
    xs = np.linspace(-1.0, 1.0, 200001)
    brute = float(quad_form.evaluate(xs).min())
    # the grid minimum overshoots the true one by at most a (dx / 2)^2
    assert brute - 1e-10 - abs(quad_form.a) * 1e-10 <= result.f_min <= brute + 1e-12
    assert float(quad_form.evaluate(np.cos(result.theta_star))) == pytest.approx(result.f_min, abs=1e-12)
