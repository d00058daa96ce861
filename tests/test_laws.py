"""Property tests of the fidelity laws: the row-based laws used by tuning
and the written distributions against the exact reductions of the Kraus
sets, those reductions against a brute-force input average, the
determinant identity the free-fermion closed forms rest on against the
pair sector, the laws' densities against their cdfs and their means
against their cdfs, and the minimum-fidelity branches against a
brute-force minimum."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import make_random_chain, one_row_law, sample_ks_distance, seeded_chain

from spintransfer.analytics import (
    COLLAPSE_WIDTH,
    FidelityLaw,
    MinBranch,
    affine_from_kraus,
    fidelity_law,
    min_fidelity_closed_form,
    phase_null_field,
    quadratic_reduce_one_qubit,
    vacuum_quadratic,
)
from spintransfer.chain import Barrier, Perfect, Weak, protocol_preset
from spintransfer.cli import PDF_CURVE_CELLS, PDF_CURVE_PAD_CELLS, pdf_curve_rows
from spintransfer.channel import Scenario, fidelity_many, kraus_at_times, kraus_set
from spintransfer import analytics, dynamics
from spintransfer.dynamics import (
    is_free_fermion,
    propagator_rows,
    sector_spectrum,
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
    kraus = kraus_at_times(spec, scenario, [t])
    if scenario is Scenario.TWO_QUBIT_VACUUM:
        reduced = affine_from_kraus(kraus)
    else:
        reduced = quadratic_reduce_one_qubit(kraus)
    return reduced.coefficients[0], reduced.mean[0]


def candidate_inputs(law) -> np.ndarray:
    """The inputs where a one-row law may take its extremes: C = 0 and 1, or
    x = -1, 1 and the vertex when it lies in (-1, 1)."""
    if law.coefficients.shape[1] == 2:
        return np.array([0.0, 1.0])
    a, b, _ = law.coefficients[0]
    return np.array([-1.0, 1.0] + ([-b / (2.0 * a)] if a and abs(b / (2.0 * a)) < 1.0 else []))


def mean_from_cdf(law) -> float:
    """The mean of ``law`` as the Stieltjes integral of f dF by parts,
    f_min + int (1 - F(f)) df over the support, by adaptive quadrature."""
    lo, hi = law.support
    points = law.breakpoints()
    inner = np.unique(points[(points > lo) & (points < hi)])
    area, _ = quad(lambda f: 1.0 - law.cdf(f), lo, hi, points=inner if inner.size else None, limit=200)
    return lo + area


@given(specs, times, st.sampled_from(ONE_QUBIT))
def test_exact_reduction_matches_brute_force_average(spec, t, scenario):
    kraus = kraus_at_times(spec, scenario, [t])
    quad_form = quadratic_reduce_one_qubit(kraus)
    xs = np.linspace(-1.0, 1.0, 21)
    # 8 azimuth nodes integrate trigonometric polynomials of degree 2 exactly
    phis = 2.0 * np.pi * np.arange(8) / 8
    theta, phi = np.meshgrid(np.arccos(xs), phis, indexing="ij")
    values = fidelity_many(kraus, bloch_states(theta.ravel(), phi.ravel())[None])[0].reshape(21, 8)
    assert np.abs(values.mean(axis=1) - quad_form.evaluate(xs)[0]).max() <= 1e-12
    assert np.ptp(values, axis=1).max() <= 1e-12


@given(specs, times, st.sampled_from(list(Scenario)))
def test_row_law_matches_kraus_reduction(spec, t, scenario):
    grid = np.array([t, t + 1.3])
    law = fidelity_law(spec, scenario, grid)
    for k, t_k in enumerate(grid):
        coefficients, mean = kraus_reduction(spec, scenario, float(t_k))
        assert np.abs(law.coefficients[k] - coefficients).max() <= 1e-12
        assert abs(law.mean[k] - mean) <= 1e-12


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
    mean = law.mean[0]
    assert law.support == (mean, mean)
    assert law.cdf(mean) == 1.0 and law.cdf(np.nextafter(mean, 0.0)) == 0.0
    assert law.normalization() == 1.0


@given(st.integers(0, 2**31 - 1), st.integers(4, 9), st.floats(0.0, 20.0))
def test_determinant_pair_rows_match_pair_sector(seed, n, t):
    spec = make_random_chain(np.random.default_rng(seed), n)
    assert is_free_fermion(spec)
    targets = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    times = np.array([t, 0.37 * t])
    k, l = (np.array(targets) - 1).T
    one, two = sector_spectrum(spec, 1), sector_spectrum(spec, 2)
    for group in ([2], range(2, n)):
        sector = propagator_rows(two, [[(1, j) for j in group]], targets, times)[:, 0]
        # b_{(1,j)}^{(k,l)} = a_1^k a_j^l - a_1^l a_j^k, summed over j in group
        rows = propagator_rows(one, [[1], group], range(1, n + 1), times)
        a1, summed = rows[:, 0], rows[:, 1]
        determinants = a1[:, k] * summed[:, l] - a1[:, l] * summed[:, k]
        assert np.abs(determinants - sector).max() <= 1e-10


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
    built = []
    build_sector = dynamics.build_sector

    def recording(spec, n_excitations):
        built.append(n_excitations)
        return build_sector(spec, n_excitations)

    monkeypatch.setattr(dynamics, "build_sector", recording)
    dynamics.sector_spectrum.cache_clear()
    # the closed forms read at most 2 sources x 2 targets and no pair row
    rows = analytics.propagator_rows
    shapes = []

    def recorded_rows(prop, sources, targets, times):
        shapes.append((len(sources), len(targets)))
        return rows(prop, sources, targets, times)

    monkeypatch.setattr(analytics, "propagator_rows", recorded_rows)
    spec = protocol_preset(kind, 200, len(scenario.senders))
    for phase_corrected in (False, True):
        law = fidelity_law(spec, scenario, np.linspace(0.0, 300.0, 7), phase_corrected)
        assert np.all((law.mean >= 0.0) & (law.mean <= 1.0))
    assert built == [1]
    assert shapes and all(s <= 2 and t <= 2 for s, t in shapes)


def test_azimuth_dependent_channel_is_rejected():
    # a unitary x rotation: the fidelity of an equatorial input depends on phi
    angle = 0.6
    rotation = np.array(
        [[np.cos(angle), -1j * np.sin(angle)], [-1j * np.sin(angle), np.cos(angle)]]
    )
    # read out after the identity: the error names the rotation's row
    kraus = kraus_set(np.stack([np.eye(2), rotation])[:, None])
    equator = fidelity_many(
        kraus, np.broadcast_to(bloch_states(np.full(4, np.pi / 2), np.arange(4) * np.pi / 4), (2, 4, 2))
    )
    assert np.ptp(equator[0]) < 1e-15 and np.ptp(equator[1]) > 0.1
    with pytest.raises(ModelError, match="row 1"):
        quadratic_reduce_one_qubit(kraus)


def quadratic_law(a: float, b: float, position: float) -> FidelityLaw:
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
    return one_row_law(a, b, -lo + position * (1.0 - (hi - lo)))


quadratic_laws = st.builds(
    quadratic_law,
    st.one_of(st.just(0.0), st.floats(1e-3, 0.5), st.floats(-0.5, -1e-3)),
    st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
    st.floats(0.0, 1.0),
)
affine_laws = st.builds(
    lambda b_val, position: one_row_law(max(b_val, 0.0) + position * (1.0 - abs(b_val)), b_val),
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
    if lo == hi:  # a step at the row's mean
        return
    # integrable 1/sqrt singularities sit at the kinks, so they end cells;
    # each cell's mass is the density integrated by the tau-substituted
    # Gauss-Legendre rule of the normalization
    edges = np.unique(np.clip(np.r_[np.linspace(lo, hi, 9), kinks], lo, hi))
    masses = pdf.segment_masses(edges)[0]
    for left, right, mass in zip(edges[:-1], edges[1:], masses):
        assert mass == pytest.approx(float(pdf.cdf(right) - pdf.cdf(left)), abs=1e-7)
    assert masses.sum() == pytest.approx(1.0, abs=1e-7)


# a long-range-chain occupied-channel law whose vertex sits 2e-4 inside
# x = -1: two breakpoints 7.4e-9 apart, where adaptive quadrature of the
# density misses the cell mass by 1e-4
@example(one_row_law(0.168047, 0.336023, 0.391471))
@given(quadratic_laws)
def test_quadratic_pdf_matches_its_cdf(quad_form):
    assert_pdf_consistent(quad_form, quad_form.evaluate(candidate_inputs(quad_form))[0])


@given(affine_laws)
def test_affine_pdf_matches_its_cdf(affine):
    big_a, big_b = affine.coefficients[0]
    assert_pdf_consistent(affine, [big_a, big_a - big_b])


@given(st.one_of(quadratic_laws, affine_laws))
def test_support_is_the_extreme_breakpoints(law):
    # the breakpoints are the law at its candidate extremes, through
    # evaluate, or the mean alone for a row at most COLLAPSE_WIDTH wide
    values = law.evaluate(candidate_inputs(law))[0]
    points = law.breakpoints()[0]
    if np.ptp(values) <= COLLAPSE_WIDTH:
        assert points[0] == law.mean[0] and np.isnan(points[1:]).all()
    else:
        assert np.array_equal(points[: values.size], values)
        assert np.isnan(points[values.size :]).all()
    assert law.support == (np.nanmin(points), np.nanmax(points))


@given(st.one_of(quadratic_laws, affine_laws))
def test_one_row_law_is_that_rows_distribution(law):
    # a row at most COLLAPSE_WIDTH wide is a step at its mean, normalized
    # by construction; any other row spans its extreme values
    values = law.evaluate(candidate_inputs(law))[0]
    mean = law.mean[0]
    if np.ptp(values) <= COLLAPSE_WIDTH:
        assert law.support == (mean, mean)
        assert law.cdf(mean) == 1.0 and law.cdf(np.nextafter(mean, -np.inf)) == 0.0
        assert law.normalization() == 1.0
    else:
        assert law.support == (values.min(), values.max())
        assert 0.0 < law.cdf(mean) < 1.0


continuous_quadratic_laws = quadratic_laws.filter(lambda law: np.ptp(law.support) > COLLAPSE_WIDTH)
continuous_affine_laws = affine_laws.filter(lambda law: np.ptp(law.support) > COLLAPSE_WIDTH)


def stacked(laws) -> FidelityLaw:
    """The law whose rows are those of ``laws``, in order."""
    return FidelityLaw(np.concatenate([law.coefficients for law in laws]))


# the barrier h0=200 N=22 law at the read-out time of average 0.99: its
# vertex lies inside (-1, 1), and a grid not anchored on f_min put 5.5e-3
# of density into the last left padding cell
@example(one_row_law(0.014661541384721644, 0.00022563891283605697, 0.9851128197024424))
# a subnormal linear term: where the discriminant is negative the masked
# root quotient overflows, which must stay silent and leave the rows as they are
@example(one_row_law(-0.5, 2.2250738585e-313, 0.95))
@given(st.one_of(
    continuous_quadratic_laws,
    continuous_affine_laws,
    st.lists(continuous_quadratic_laws, min_size=2, max_size=5).map(stacked),
    st.lists(continuous_affine_laws, min_size=2, max_size=5).map(stacked),
))
def test_pdf_curve_padding_is_empty(pdf):
    rows = np.column_stack(pdf_curve_rows(pdf))
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
    # the mean read off the input moments is the mean of the distribution
    # the row's cdf describes, and the equal-weight mixture's is their mean
    law = fidelity_law(spec, scenario, t * np.linspace(0.9, 1.1, n_rows))
    for k, mean in enumerate(law.mean):
        assert mean_from_cdf(FidelityLaw(law.coefficients[k : k + 1])) == pytest.approx(
            mean, abs=1e-9
        )
    assert mean_from_cdf(law) == pytest.approx(law.mean.mean(), abs=1e-9)


# laws narrower than COLLAPSE_WIDTH: a tiny quadratic term alone, tiny
# quadratic and linear terms, and a seeded zz-chain two-qubit law, whose own
# densities' normalizations read inf, 1 + 2.0e-3 and 1 - 1.1e-7
NARROW_LAWS = [
    (5e-12, 0.0, 0.9),
    (2e-12, 3e-12, 0.9),
    (0.25000000001621, 9.28e-12),
]


@pytest.mark.parametrize("coefficients", NARROW_LAWS, ids=["a", "ab", "zz_two_qubit"])
def test_narrow_rows_are_point_masses(coefficients):
    law = one_row_law(*coefficients)
    mean = law.mean[0]
    assert law.support == (mean, mean)
    assert law.cdf(mean) == 1.0 and law.cdf(np.nextafter(mean, 0.0)) == 0.0
    assert law.normalization() == 1.0


@given(st.lists(continuous_quadratic_laws, min_size=2, max_size=2))
def test_collapsed_row_mixes_as_a_step(parts):
    # one row narrower than COLLAPSE_WIDTH among continuous rows: its step
    # carries a third of the mixture's mass
    narrow = one_row_law(*NARROW_LAWS[0])
    rows = [narrow, *parts]
    law = stacked(rows)
    mean = narrow.mean[0]
    lo, hi = law.support
    assert lo <= mean <= hi
    below = np.nextafter(mean, -np.inf)
    fs = np.union1d(np.linspace(lo - 0.01, hi + 0.01, 257), [below, mean])
    assert np.abs(law.cdf(fs) - np.mean([row.cdf(fs) for row in rows], axis=0)).max() <= 1e-14
    assert law.cdf(mean) - law.cdf(below) >= 1.0 / 3.0 - 1e-14
    assert law.normalization() == pytest.approx(1.0, abs=1e-6)


@given(
    st.one_of(st.floats(1e-20, 1e-12), st.floats(-1e-12, -1e-20)),
    st.one_of(st.floats(1e-3, 0.5), st.floats(-0.5, -1e-3)),
    st.floats(0.0, 1.0),
)
def test_tiny_quadratic_term_is_the_linear_law(a, b, position):
    # no a = 0 branch and no snap of a tiny a to 0: the stable roots give
    # the linear law, off by the exact root shift of at most |a| / (2 |b|)
    c = abs(b) + position * (1.0 - 2.0 * abs(b))
    linear = one_row_law(0.0, b, c)
    tiny = one_row_law(a, b, c)
    lo, hi = tiny.support
    fs = np.linspace(lo, hi, 1001)
    assert np.abs(tiny.cdf(fs) - linear.cdf(fs)).max() <= 1e-12 + abs(a) / (2.0 * abs(b))
    # a = -0.0 is the linear law too
    assert np.array_equal(one_row_law(-0.0, b, c).cdf(fs), linear.cdf(fs))


@given(specs, st.floats(0.1, 12.0), st.sampled_from(list(Scenario)))
def test_fidelity_law_rows_are_their_distributions(spec, t, scenario):
    # the row's width picks its form, and its cdf is that of the fidelity
    # of inputs drawn from the scenario's measure: x = cos(theta) uniform,
    # or the concurrence C with cdf 1 - (1 - C^2)^(3/2), here at the
    # midpoint quantiles of n draws (a sublevel set is at most two intervals)
    law = fidelity_law(spec, scenario, [t])
    two_qubit = scenario is Scenario.TWO_QUBIT_VACUUM
    assert law.coefficients.shape == (1, 2 if two_qubit else 3)
    n = 2001
    u = (np.arange(n) + 0.5) / n
    inputs = np.sqrt(1.0 - (1.0 - u) ** (2.0 / 3.0)) if two_qubit else 2.0 * u - 1.0
    assert sample_ks_distance(law.evaluate(inputs)[0], law) <= 2.0 / n


@given(specs, st.floats(0.1, 12.0), st.sampled_from(list(Scenario)), st.integers(2, 5))
def test_several_rows_mix_with_equal_weight(spec, t, scenario, n_rows):
    # the rows evaluated at once are the one-row laws summed in order, to
    # the last bit, at every point and at a single point
    law = fidelity_law(spec, scenario, t * np.linspace(0.9, 1.1, n_rows))
    rows = [FidelityLaw(law.coefficients[k : k + 1]) for k in range(n_rows)]
    assert law.support == (min(r.support[0] for r in rows), max(r.support[1] for r in rows))
    lo, hi = law.support
    fs = np.linspace(lo - 0.01, hi + 0.01, 257)
    assert np.array_equal(law.cdf(fs), sum(r.cdf(fs) for r in rows) / n_rows)
    assert law.cdf(fs[100]) == sum(r.cdf(fs[100]) for r in rows) / n_rows
    inner = fs[(fs > lo) & (fs < hi)]
    assert np.array_equal(law.density(inner), sum(r.density(inner) for r in rows) / n_rows)


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
    a = quad_form.coefficients[0, 0]
    # r = 1, phi = 0 is the identity channel: no vertex, the pole is reported
    assert result.branch is branch or (a <= 0.0 and result.branch is MinBranch.POLE_PHASE)
    xs = np.linspace(-1.0, 1.0, 200001)
    brute = float(quad_form.evaluate(xs).min())
    # the grid minimum overshoots the true one by at most a (dx / 2)^2
    assert brute - 1e-10 - abs(a) * 1e-10 <= result.f_min <= brute + 1e-12
    assert float(quad_form.evaluate(np.cos(result.theta_star))[0]) == pytest.approx(result.f_min, abs=1e-12)
