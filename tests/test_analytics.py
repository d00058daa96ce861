import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (
    avg_fidelity_one_qubit_vacuum,
    make_random_chain,
    mc_local_unitary_fidelity,
    one_row_law,
    random_state,
    sample_haar_unitary_2,
    seeded_chain,
)
from spintransfer import analytics
from spintransfer.analytics import (
    FidelityLaw,
    MinBranch,
    ProtocolTuning,
    affine_from_kraus,
    avg_fidelity_curve,
    fidelity_law,
    find_optimal_time,
    min_fidelity_closed_form,
    phase_null_field,
    plan_readout,
    quadratic_reduce_one_qubit,
    resolve_mode,
    scan_bound,
    time_for_target_avg,
    time_window_ladder,
    tune_with_ladder,
    vacuum_quadratic,
)
from spintransfer.chain import Barrier, Perfect, Weak, protocol_preset
from spintransfer.certify import _clifford_group_su2, random_isometry_kraus, random_spec
from spintransfer.channel import Scenario, fidelity_many, kraus_at_times
from spintransfer.dynamics import (
    GRID_FACTOR_MIN,
    _grid_step,
    is_free_fermion,
    propagator_at,
    propagator_slopes,
    sector_spectrum,
)
from spintransfer.errors import ModelError, NumericError, ParameterError, RangeError
from spintransfer.sampling import RandomStream, schmidt_state


def test_vacuum_quadratic_closed_form(rng):
    spec = make_random_chain(rng, 7)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [2.4])
    fitted = quadratic_reduce_one_qubit(kraus)
    amp = propagator_at(sector_spectrum(spec, 1), 2.4)[0, 6]
    closed = vacuum_quadratic(abs(amp), float(np.angle(amp)))
    assert np.abs(fitted.coefficients - closed.coefficients).max() <= 1e-12


def test_uniform_quadratic_matches_channel_grid(rng):
    spec = make_random_chain(rng, 8)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_UNIFORM, [3.7])
    fitted = quadratic_reduce_one_qubit(kraus)
    assert fitted.mean[0] == pytest.approx(
        avg_fidelity_curve(spec, Scenario.ONE_QUBIT_UNIFORM, [3.7])[0], abs=1e-9
    )


def test_uniform_average_formula_many_specs(rng):
    # closed-form double sum vs channel-based Bloch average, random (spec, t)
    for _ in range(20):
        n = int(rng.integers(5, 9))
        spec = make_random_chain(rng, n, long_range=bool(rng.integers(0, 2)))
        t = float(rng.uniform(0.3, 9.0))
        kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_UNIFORM, [t])
        channel_mean = quadratic_reduce_one_qubit(kraus).mean[0]
        assert avg_fidelity_curve(spec, Scenario.ONE_QUBIT_UNIFORM, [t])[0] == pytest.approx(
            channel_mean, abs=1e-9
        )


def test_uniform_average_at_zero_is_half(rng):
    for n in (5, 8, 11):
        spec = make_random_chain(rng, n)
        assert avg_fidelity_curve(spec, Scenario.ONE_QUBIT_UNIFORM, [0.0])[0] == (
            pytest.approx(0.5, abs=1e-12)
        )


def test_vacuum_average_closed_form():
    assert avg_fidelity_one_qubit_vacuum(1.0, 0.0) == pytest.approx(1.0)
    assert avg_fidelity_one_qubit_vacuum(0.0, 1.234) == pytest.approx(0.5)
    r, phi = 0.77, 2.1
    quad_form = vacuum_quadratic(r, phi)
    assert avg_fidelity_one_qubit_vacuum(r, phi) == pytest.approx(
        quad_form.mean[0], abs=1e-12
    )
    with pytest.raises(ParameterError):
        avg_fidelity_one_qubit_vacuum(1.2, 0.0)


# -- minimum fidelity --------------------------------------------------------

def test_min_fidelity_examples():
    res = min_fidelity_closed_form(1.0, 0.0)
    assert res.f_min == pytest.approx(1.0)
    res = min_fidelity_closed_form(0.2, 1.3)
    assert res.f_min == pytest.approx(0.04)
    assert res.branch is MinBranch.POLE_SMALL_AMPLITUDE
    target = 0.99
    r = np.sqrt(2.0 * (3.0 * target - 1.0)) - 1.0
    assert r == pytest.approx(0.9849433, abs=1e-7)
    res = min_fidelity_closed_form(r, 0.0)
    assert res.f_min == pytest.approx(r * r, abs=1e-12)
    assert res.f_min == pytest.approx(0.970113, abs=1e-6)


def test_min_fidelity_lattice_vs_grid():
    xs = np.linspace(-1.0, 1.0, 10001)
    for r in np.linspace(0.02, 1.0, 50):
        for phi in np.linspace(0.0, 2.0 * np.pi, 50):
            res = min_fidelity_closed_form(float(r), float(phi))
            quad_form = vacuum_quadratic(float(r), float(phi))
            grid_min = float(quad_form.evaluate(xs).min())
            assert res.f_min <= grid_min + 1e-10
            assert res.f_min == pytest.approx(
                float(quad_form.evaluate(np.cos(res.theta_star))[0]), abs=1e-12
            )


def test_min_fidelity_rejects_bad_r():
    with pytest.raises(ParameterError):
        min_fidelity_closed_form(-0.1, 0.0)


# -- one-qubit pdf -----------------------------------------------------------

def test_pdf_delta_case():
    pdf = one_row_law(0.0, 0.0, 1.0)
    assert pdf.support == (1.0, 1.0)
    assert pdf.cdf(1.0) == 1.0 and pdf.cdf(0.999999) == 0.0
    assert pdf.normalization() == 1.0


def test_pdf_uniform_case():
    # r = 0 limit: F = (1 + x)/2 uniform on [0, 1]
    pdf = one_row_law(0.0, 0.5, 0.5)
    assert pdf.support == (0.0, 1.0)
    fs = np.linspace(0.01, 0.99, 17)
    assert np.allclose(pdf.density(fs), 1.0)
    assert np.allclose(pdf.cdf(fs), fs)


def test_pdf_normalization_and_cdf(rng):
    for _ in range(6):
        n = int(rng.integers(5, 9))
        spec = make_random_chain(rng, n)
        t = float(rng.uniform(0.5, 8.0))
        scenario = (
            Scenario.ONE_QUBIT_VACUUM if rng.integers(0, 2) else Scenario.ONE_QUBIT_UNIFORM
        )
        kraus = kraus_at_times(spec, scenario, [t])
        pdf = quadratic_reduce_one_qubit(kraus)
        if pdf.support[0] == pdf.support[1]:  # a step, normalized by construction
            continue
        assert pdf.normalization() == pytest.approx(1.0, abs=1e-6)
        fs = np.linspace(pdf.support[0], pdf.support[1], 101)
        cdf = pdf.cdf(fs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all(pdf.density(fs[1:-1]) >= 0.0)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_pdf_mean_matches_quadrature(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [1.9])
    quad_form = quadratic_reduce_one_qubit(kraus)
    lo, hi = quad_form.support
    breaks = [p for p in quad_form.breakpoints()[0] if lo < p < hi]
    numeric, _ = quad(lambda f: f * float(quad_form.density(f)), lo, hi, points=breaks, limit=200)
    assert numeric == pytest.approx(quad_form.mean[0], abs=1e-7)


def test_pdf_normalization_when_vertex_value_rounds_apart():
    # c - b^2 / 4a and F(vertex) differ by one ulp for these coefficients; a
    # breakpoint one ulp inside the support once made the quadrature infinite
    quad_form = one_row_law(0.24651300518755553, 0.433285931041082, 0.3202010637713625)
    points = quad_form.breakpoints()
    assert quad_form.support == (np.nanmin(points), np.nanmax(points))
    assert quad_form.normalization() == pytest.approx(1.0, abs=1e-6)


def finite_breakpoints(law) -> np.ndarray:
    """The sorted distinct breakpoints of all rows of ``law``."""
    points = law.breakpoints()
    return np.unique(points[~np.isnan(points)])


def normalization_by_quad(pdf) -> float:
    lo, hi = pdf.support
    total, _ = quad(
        lambda f: float(pdf.density(f)), lo, hi, points=finite_breakpoints(pdf), limit=200
    )
    return total


def test_pdf_normalization_matches_adaptive_quadrature():
    # single laws of every scenario on chains of every kind, and a vertex
    # just outside [-1, 1] (x_v = -1.0038), whose density is nearly singular
    # at F(-1): a rule anchored at the support end alone misses it by 7e-6
    rng = np.random.default_rng(41)
    laws = [one_row_law(0.20718218373703962, 0.4159514300521839, 0.3768663862107765)]
    for kind in ("nearest", "long_range", "zz"):
        for scenario in Scenario:
            for _ in range(4):
                spec = seeded_chain(int(rng.integers(2**31)), int(rng.integers(5, 9)), kind)
                laws.append(fidelity_law(spec, scenario, [float(rng.uniform(0.5, 12.0))]))
    for pdf in laws:
        if pdf.support[0] == pdf.support[1]:  # a step, normalized by construction
            continue
        assert pdf.normalization() == pytest.approx(normalization_by_quad(pdf), abs=1e-10)


def test_pdf_support_top_is_one_for_vacuum(rng):
    # |0> always transfers perfectly through the vacuum channel
    spec = make_random_chain(rng, 7)
    kraus = kraus_at_times(spec, Scenario.ONE_QUBIT_VACUUM, [4.2])
    pdf = quadratic_reduce_one_qubit(kraus)
    assert pdf.support[1] == pytest.approx(1.0, abs=1e-12)


def test_quadratic_range_invariant():
    # building a law checks nothing; reading it as a distribution does
    law = FidelityLaw(np.array([[0.0, 1.0, 1.0]]))  # F(1) = 2 leaves [0, 1]
    with pytest.raises(ModelError):
        law.support


# -- two-qubit affine and pdf ------------------------------------------------

def test_two_qubit_affine_matches_unitary_mc(rng):
    spec = make_random_chain(rng, 7)
    kraus = kraus_at_times(spec, Scenario.TWO_QUBIT_VACUUM, [2.8])
    affine = affine_from_kraus(kraus)
    for k, conc in enumerate((0.0, 0.5, 1.0)):
        mean, err = mc_local_unitary_fidelity(kraus, conc, 40_000, RandomStream(30 + k))
        assert abs(mean - affine.evaluate(conc)[0]) <= 3.0 * err


def test_two_qubit_affine_at_zero(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.TWO_QUBIT_VACUUM, [0.0])
    affine = affine_from_kraus(kraus)
    for conc, stream in ((0.0, 41), (1.0, 42)):
        mean, err = mc_local_unitary_fidelity(kraus, conc, 40_000, RandomStream(stream))
        assert abs(mean - affine.evaluate(conc)[0]) <= 3.0 * max(err, 1e-12)


CLIFFORD = np.asarray(_clifford_group_su2())


def test_clifford_group_is_the_group():
    # 24 unitaries, pairwise distinct up to phase, closed under products up
    # to phase, and holding the generators H and S
    assert CLIFFORD.shape == (24, 2, 2)
    assert np.abs(CLIFFORD @ CLIFFORD.conj().transpose(0, 2, 1) - np.eye(2)).max() <= 1e-15

    def overlaps(a, b):  # |tr A^dagger B| for every pair; 2 where equal up to phase
        return np.abs(np.einsum("aji,bjk->abik", a.conj(), b).trace(axis1=2, axis2=3))

    assert (overlaps(CLIFFORD, CLIFFORD)[~np.eye(24, dtype=bool)] < 2.0 - 1e-9).all()
    products = np.einsum("aij,bjk->abik", CLIFFORD, CLIFFORD).reshape(-1, 2, 2)
    assert (overlaps(products, CLIFFORD).max(axis=1) > 2.0 - 1e-9).all()
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    generators = np.array([hadamard, np.diag([1.0, 1.0j])])
    assert (overlaps(generators, CLIFFORD).max(axis=1) > 2.0 - 1e-9).all()


@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_affine_from_kraus_matches_trace_sums_and_clifford_twirl(n_ops, seed):
    # the Pauli-transfer-matrix reading vs the trace-sum formula, written out
    # here, and vs the exact average over all 576 local Clifford pairs
    kraus = random_isometry_kraus(np.random.default_rng(seed), n_ops, dim=4)
    affine = affine_from_kraus(kraus)
    ops = kraus.operators.reshape(-1, 2, 2, 2, 2)
    t1 = np.sum(np.abs(np.einsum("oijij->o", ops)) ** 2)  # |tr E|^2
    t2 = np.sum(np.abs(ops) ** 2)  # ||E||_F^2
    t3 = np.sum(np.abs(np.einsum("oiaja->oij", ops)) ** 2)  # ||tr_2 E||_F^2
    t4 = np.sum(np.abs(np.einsum("oaiaj->oij", ops)) ** 2)  # ||tr_1 E||_F^2
    big_a, big_b = affine.coefficients[0]
    assert abs(big_a - (t1 + t2 + t3 + t4) / 36.0) <= 1e-13
    assert abs(big_b - (-2.0 * (t1 + t2) + 2.5 * (t3 + t4)) / 36.0) <= 1e-13
    for conc in (0.0, 0.5, 1.0):
        base = schmidt_state(conc).reshape(2, 2)
        states = np.einsum("mab,ncd,bd->mnac", CLIFFORD, CLIFFORD, base).reshape(-1, 4)
        assert abs(fidelity_many(kraus, states[None]).mean() - affine.evaluate(conc)[0]) <= 1e-13


def test_schmidt_sign_is_immaterial(rng):
    spec = make_random_chain(rng, 6)
    kraus = kraus_at_times(spec, Scenario.TWO_QUBIT_VACUUM, [1.4])
    n = 30_000
    means = []
    # s = +sqrt(1 - C^2) and its sign flip, which swaps |00> and |11>
    for state in (schmidt_state(0.6), schmidt_state(0.6)[::-1]):
        base = state.reshape(2, 2)
        gen = RandomStream(77).generator()
        u1 = sample_haar_unitary_2(gen, n)
        u2 = sample_haar_unitary_2(gen, n)
        states = np.einsum("nab,ncd,bd->nac", u1, u2, base).reshape(n, 4)
        values = fidelity_many(kraus, states[None])[0]
        means.append((values.mean(), values.std() / np.sqrt(n)))
    (m1, e1), (m2, e2) = means
    assert abs(m1 - m2) <= 3.0 * np.hypot(e1, e2)


def test_pdf_two_qubit_delta():
    pdf = one_row_law(1.0, 0.0)
    assert pdf.support == (1.0, 1.0)
    assert pdf.cdf(1.0) == 1.0 and pdf.cdf(0.999999) == 0.0
    assert pdf.normalization() == 1.0


def test_pdf_two_qubit_shape_and_moments():
    pdf = one_row_law(0.9904, -0.0006)
    assert pdf.support == (pytest.approx(0.9904), pytest.approx(0.9910))
    # the Jacobian compresses the concurrence origin into F = A, so the
    # density is largest there and falls to zero at F = A - B (the Monte
    # Carlo cross-check in the acceptance suite pins this direction)
    fs = np.linspace(0.99045, 0.99095, 9)
    density = pdf.density(fs)
    assert np.all(np.diff(density) < 0.0)
    lo, hi = pdf.support
    norm, _ = quad(lambda f: float(pdf.density(f)), lo, hi, limit=200)
    assert norm == pytest.approx(1.0, abs=1e-9)
    mean_num, _ = quad(lambda f: f * float(pdf.density(f)), lo, hi, limit=200)
    assert mean_num == pytest.approx(0.9904 - 0.4 * -0.0006, abs=1e-9)
    assert pdf.mean[0] == pytest.approx(0.9904 - 0.4 * -0.0006, abs=1e-12)


def test_pdf_two_qubit_cdf_consistency():
    pdf = one_row_law(0.95, 0.03)  # positive B branch
    lo, hi = pdf.support
    assert (lo, hi) == (pytest.approx(0.92), pytest.approx(0.95))
    for f in np.linspace(lo, hi, 7)[1:-1]:
        numeric, _ = quad(lambda x: float(pdf.density(x)), lo, f, limit=200)
        assert float(pdf.cdf(f)) == pytest.approx(numeric, abs=1e-9)


def test_concurrence_moment_identity():
    # <C^2> under pdf(C) = 3C sqrt(1-C^2) is exactly 2/5
    moment, _ = quad(lambda c: c * c * 3.0 * c * np.sqrt(1.0 - c * c), 0.0, 1.0)
    assert moment == pytest.approx(0.4, abs=1e-12)


# -- timing ------------------------------------------------------------------

def test_find_optimal_time_perfect_small():
    spec = protocol_preset(Perfect(), 10)
    tuning = find_optimal_time(
        spec, Scenario.ONE_QUBIT_VACUUM, (0.0, 2.0), grid=2000, phase_corrected=True
    )
    assert tuning.t_opt == pytest.approx(np.pi / 4.0, rel=1e-6)
    assert tuning.achieved_avg_fidelity >= 1.0 - 1e-8


def test_find_optimal_time_window_halving():
    spec = protocol_preset(Perfect(), 10)
    full = find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (0.0, 2.0), 2000)
    halved = find_optimal_time(
        spec,
        Scenario.ONE_QUBIT_VACUUM,
        (0.5 * full.t_opt, 1.5 * full.t_opt),
        2000,
    )
    assert halved.t_opt == pytest.approx(full.t_opt, rel=1e-6)


def test_find_optimal_time_validation():
    spec = protocol_preset(Perfect(), 8)
    with pytest.raises(ParameterError):
        find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (1.0, 1.0), 2000)
    with pytest.raises(ParameterError):
        find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (0.0, 1.0), 50)
    # no read-out before the transfer starts: on (-2, -0.1) the scan's
    # phase-corrected mean peaked at 1.0, a field no plan applies at t <= 0
    with pytest.raises(ParameterError, match="below 0"):
        find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (-2.0, -0.1), 2000)


@pytest.mark.parametrize("phase_corrected", [False, True])
@pytest.mark.parametrize("scenario", [Scenario.ONE_QUBIT_UNIFORM, Scenario.TWO_QUBIT_VACUUM])
def test_overflowing_window_on_the_pair_sector_path(scenario, phase_corrected):
    # a ZZ chain's occupied and two-qubit laws read pair-sector rows; their
    # phase arguments overflow on this window, and the rounding bound over
    # those rows refuses it by name before the scan, with no warning (an
    # error under the project's pytest settings)
    spec = random_spec(np.random.default_rng(5), 6, "zz")
    with pytest.raises(NumericError, match=re.escape("window (0.0, 1e+308)")):
        find_optimal_time(spec, scenario, (0.0, 1e308), 100, phase_corrected)


def test_window_whose_phases_round_past_the_bound_is_refused():
    # eps R t_hi is the rounding of the vacuum law's one column a_1^N at the
    # window's end: just inside MAX_PHASE_ROUNDING the window scans, just
    # past it the tuning refuses it by name
    spec = protocol_preset(Perfect(), 8)
    (rate,), _ = propagator_slopes(sector_spectrum(spec, 1), [[1]], [8])
    edge = analytics.MAX_PHASE_ROUNDING / (np.finfo(float).eps * rate[0])
    find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (0.0, 0.99 * edge), 100)
    window = (0.0, 1.01 * edge)
    with pytest.raises(NumericError, match=re.escape(f"time window {window} is too long")):
        find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, window, 100)


def test_time_for_target(rng):
    spec = protocol_preset(Perfect(), 10)
    tuning = find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (0.0, 2.0), 2000)
    t99 = time_for_target_avg(spec, Scenario.ONE_QUBIT_VACUUM, 0.99, tuning)
    assert t99 < tuning.t_opt
    value = avg_fidelity_curve(
        spec, Scenario.ONE_QUBIT_VACUUM, np.array([t99]), phase_corrected=True
    )[0]
    assert value == pytest.approx(0.99, abs=1e-9)
    # target equal to the peak returns the peak time itself (use a window
    # whose maximum sits below 1 so the peak is a legal target)
    clipped = find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (0.0, 0.6), 2000)
    assert time_for_target_avg(
        spec, Scenario.ONE_QUBIT_VACUUM, clipped.achieved_avg_fidelity, clipped
    ) == pytest.approx(clipped.t_opt)
    with pytest.raises(RangeError):
        time_for_target_avg(spec, Scenario.ONE_QUBIT_VACUUM, 0.99, clipped)


@given(
    kind=st.sampled_from([Perfect(), Weak(0.1), Weak(0.3)]),
    n_sites=st.integers(4, 9),
    grid=st.integers(100, 3000),
    share=st.floats(0.0, 1.0),
)
def test_target_crossing_is_the_last_before_the_optimum(kind, n_sites, grid, share):
    # on these chains the average varies slowly on the scale of the
    # crossing's clock, so the crossing is the last one before t_opt: no
    # time the tuning scanned between it and t_opt is below the target
    spec = protocol_preset(kind, n_sites)
    hi = 2.0 if isinstance(kind, Perfect) else 16.0 / kind.j0
    tuning = find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (0.0, hi), grid)
    target = 0.5 + share * (tuning.achieved_avg_fidelity - 0.5)
    assume(0.5 < target < 1.0)
    t = time_for_target_avg(spec, Scenario.ONE_QUBIT_VACUUM, target, tuning)
    assert t <= tuning.t_opt
    value = avg_fidelity_curve(spec, Scenario.ONE_QUBIT_VACUUM, [t], phase_corrected=True)[0]
    assert abs(value - target) <= 1e-9
    scanned = np.linspace(*tuning.window)
    between = scanned[(scanned > t) & (scanned < tuning.t_opt)]
    if between.size:
        curve = avg_fidelity_curve(spec, Scenario.ONE_QUBIT_VACUUM, between, phase_corrected=True)
        assert curve.min() >= target - 1e-9


@given(
    seed=st.integers(0, 2**31 - 1),
    n_sites=st.integers(5, 8),
    chain=st.sampled_from(["nearest", "long_range", "zz"]),
    scenario=st.sampled_from(list(Scenario)),
    phase_corrected=st.booleans(),
    start=st.floats(0.0, 200.0),
    dt=st.floats(1e-3, 0.05),
)
def test_mean_slope_bound_bounds_the_mean(seed, n_sites, chain, scenario, phase_corrected,
                                          start, dt):
    # the bound is finite wherever the law reads no pair row; for one qubit
    # every pair of neighbouring times on a short grid moves the mean by at
    # most the bound times their distance (two qubits: the envelope test)
    spec = seeded_chain(seed, n_sites, chain)
    columns = analytics._law_columns(spec, scenario)
    slopes = [propagator_slopes(*column) for column in columns]

    def mean(times):
        return avg_fidelity_curve(spec, scenario, times, phase_corrected)

    upper, slope = scan_bound(scenario, columns, slopes, mean, phase_corrected)
    finite = scenario is Scenario.ONE_QUBIT_VACUUM or is_free_fermion(spec)
    assert np.isfinite(slope) == finite
    if not finite or scenario is Scenario.TWO_QUBIT_VACUUM:
        return
    assert upper is mean
    times = start + dt * np.arange(300)
    means = mean(times)
    assert np.abs(np.diff(means)).max() <= slope * np.diff(times).max() + 1e-13


@given(
    seed=st.integers(0, 2**31 - 1),
    n_sites=st.integers(5, 9),
    start=st.floats(0.0, 200.0),
    dt=st.floats(1e-3, 0.05),
)
def test_two_qubit_envelope_bounds_both_means(seed, n_sites, start, dt):
    # on a free-fermion chain the modulus envelope that the two-qubit scan's
    # coarse pass reads lies above the raw and the phase-corrected mean,
    # within the scan's rounding allowance, and neighbouring times move it
    # by at most the slope bound times their distance
    spec = seeded_chain(seed, n_sites, "nearest")
    scenario = Scenario.TWO_QUBIT_VACUUM
    columns = analytics._law_columns(spec, scenario)
    slopes = [propagator_slopes(*column) for column in columns]
    upper, slope = scan_bound(scenario, columns, slopes, None, False)
    assert slope == scan_bound(scenario, columns, slopes, None, True)[1] < np.inf
    times = start + dt * np.arange(300)
    envelope = upper(times)
    eigen = np.abs(sector_spectrum(spec, 1).eigenvalues).max()
    allowance = analytics.SCAN_ROUNDING * np.finfo(float).eps * (eigen * times[-1] + n_sites)
    for phase_corrected in (False, True):
        means = avg_fidelity_curve(spec, scenario, times, phase_corrected)
        assert (means <= envelope + allowance).all()
    assert np.abs(np.diff(envelope)).max() <= slope * np.diff(times).max() + 1e-13


def full_grid_tuning(spec, scenario, window, grid, phase_corrected) -> ProtocolTuning:
    """The tuning of the whole avg_fidelity_curve grid and the same golden
    step: what find_optimal_time returns."""
    phase_corrected = phase_corrected and scenario is not Scenario.ONE_QUBIT_UNIFORM
    scanned = (float(window[0]), float(window[1]), grid)
    ts = np.linspace(*scanned)
    curve = avg_fidelity_curve(spec, scenario, ts, phase_corrected)
    best = int(np.argmax(curve))

    def objective(t):
        return float(avg_fidelity_curve(spec, scenario, np.array([t]), phase_corrected)[0])

    lo, hi = ts[max(best - 1, 0)], ts[min(best + 1, grid - 1)]
    t_opt, f_opt = analytics._golden_max(objective, lo, hi, rel_tol=1e-8)
    if curve[best] > f_opt:
        t_opt, f_opt = float(ts[best]), float(curve[best])
    return ProtocolTuning(t_opt, f_opt, phase_corrected, scanned)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_sites=st.integers(5, 8),
    chain=st.sampled_from(["nearest", "long_range", "zz"]),
    scenario=st.sampled_from(list(Scenario)),
    phase_corrected=st.booleans(),
    hi=st.floats(5.0, 300.0),
    grid=st.integers(2_000, 12_000),
)
def test_pruned_scan_is_the_full_grid_scan(seed, n_sites, chain, scenario, phase_corrected,
                                           hi, grid):
    # short chunks give these grids 4 to 24 chunks, most of them skipped on
    # a free-fermion chain; a law that reads pair rows evaluates them all
    spec = seeded_chain(seed, n_sites, chain)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytics, "TIME_CHUNK", 512)
        pruned = find_optimal_time(spec, scenario, (0.0, hi), grid, phase_corrected)
        full = full_grid_tuning(spec, scenario, (0.0, hi), grid, phase_corrected)
    assert pruned == full


@given(
    terms=st.lists(
        st.tuples(st.floats(0.01, 1.0), st.floats(0.05, 5.0), st.floats(-np.pi, np.pi)),
        min_size=1, max_size=6,
    ),
    stride=st.sampled_from([32, 16, 8, 4, 2, 0]),
    fill=st.floats(0.51, 0.99),
    grid=st.integers(1_025, 6_000),
)
def test_pruned_curve_is_the_full_grid_on_cosine_sums(terms, stride, fill, grid):
    # sum_k a_k cos(w_k t + phi_k) moves at most sum_k |a_k w_k| per unit
    # time; the grid step puts the coarse pass at ``stride`` (0: none, since
    # even stride 2 reaches past SCAN_SLACK), and the pruned scan's argmax
    # and value are the full grid's
    a, w, phi = (np.array(column)[:, None] for column in zip(*terms))
    slope = float(np.abs(a * w).sum())
    if stride:
        step = fill * analytics.SCAN_SLACK / (slope * (stride // 2))
    else:
        step = analytics.SCAN_SLACK / (slope * fill)
    ts = np.linspace(0.0, step * (grid - 1), grid)
    eps = np.finfo(float).eps
    # twice the rounding of one value: its phase, its cosine and the sum
    allowance = 8.0 * eps * float((np.abs(a) * (w * ts[-1] + np.abs(phi) + len(a) + 1)).sum())
    coarse = []

    def mean(times):
        return (a * np.cos(w * times + phi)).sum(axis=0)

    def upper(times):
        coarse.append(times.size)
        return mean(times)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytics, "TIME_CHUNK", 512)
        curve = analytics._pruned_curve(ts, mean, upper, slope, allowance)
    full = mean(ts)
    best = int(np.argmax(curve))
    assert best == int(np.argmax(full)) and curve[best] == full[best]
    assert coarse[:1] == ([ts[::stride].size] if stride else [])


@pytest.mark.parametrize(
    "kind, aux", [(Barrier(200.0), False), (Weak(0.005), True), (Perfect(), True)],
    ids=["barrier", "weak", "perfect"],
)
def test_pruned_scan_on_the_preset_ladder_windows(kind, aux):
    # every ladder window of the N = 22 presets, on the mean the CLI tunes
    spec = protocol_preset(kind, 22)
    for lo, hi, grid in time_window_ladder(kind):
        pruned = find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (lo, hi), grid, aux)
        assert pruned == full_grid_tuning(spec, Scenario.ONE_QUBIT_VACUUM, (lo, hi), grid, aux)


@pytest.mark.parametrize("aux", [True, False], ids=["corrected", "raw"])
def test_two_qubit_scan_skips_chunks_under_the_envelope(monkeypatch, aux):
    # the first ladder window of weak N = 9 two-qubit transfer, 20 chunks:
    # the envelope's coarse pass rules some out, with the phase correction
    # too, and the tuning is still the full grid's
    spec = protocol_preset(Weak(0.005), 9, 2)
    scenario, window, grid = Scenario.TWO_QUBIT_VACUUM, (0.0, 3200.0), 320_000
    chunks, curve = [], analytics.avg_fidelity_curve

    def counting_curve(spec, scenario, times, phase_corrected=False):
        if np.size(times) > 1:  # a scan's, not the golden refinement's
            chunks.append(np.size(times))
        return curve(spec, scenario, times, phase_corrected)

    monkeypatch.setattr(analytics, "avg_fidelity_curve", counting_curve)
    tuning = find_optimal_time(spec, scenario, window, grid, aux)
    assert len(chunks) < 20
    assert tuning == full_grid_tuning(spec, scenario, window, grid, aux)


def test_slope_bound_follows_the_law_columns(monkeypatch):
    # the bound reads the law's own column table: a pair-sector column
    # appended to the free-fermion vacuum table (the vacuum law reads only
    # the first) makes it infinite, so every chunk is evaluated, with no
    # coarse pass, and the tuning is still the full grid's
    spec = protocol_preset(Weak(0.1), 8)
    scenario, window, grid = Scenario.ONE_QUBIT_VACUUM, (0.0, 300.0), 12_000
    points, curve = [], analytics.avg_fidelity_curve

    def counting_curve(spec, scenario, times, phase_corrected=False):
        if np.size(times) > 1:  # a scan's, not the golden refinement's
            points.append(np.size(times))
        return curve(spec, scenario, times, phase_corrected)

    monkeypatch.setattr(analytics, "avg_fidelity_curve", counting_curve)
    monkeypatch.setattr(analytics, "TIME_CHUNK", 512)
    find_optimal_time(spec, scenario, window, grid)
    assert sum(points) < grid / 2  # the one-column table prunes
    columns = analytics._law_columns

    def with_pair_column(spec, scenario):
        n = spec.n_sites
        return columns(spec, scenario) + [(sector_spectrum(spec, 2), [[(1, 2)]], [(n - 1, n)])]

    monkeypatch.setattr(analytics, "_law_columns", with_pair_column)
    points.clear()
    tuning = find_optimal_time(spec, scenario, window, grid)
    assert points == [512] * (grid // 512) + [grid % 512]
    assert tuning == full_grid_tuning(spec, scenario, window, grid, True)


@pytest.mark.parametrize(
    "chain, scenario",
    [("nearest", Scenario.ONE_QUBIT_VACUUM), ("nearest", Scenario.TWO_QUBIT_VACUUM),
     ("zz", Scenario.ONE_QUBIT_UNIFORM), ("zz", Scenario.TWO_QUBIT_VACUUM)],
)
def test_tuning_reads_each_column_slopes_once(monkeypatch, chain, scenario):
    # the window guard and the slope bound share one propagator_slopes call
    # per column of the law, on a grid of several chunks
    spec = seeded_chain(3, 7, chain)
    calls = []
    slopes = analytics.propagator_slopes

    def counting_slopes(*column):
        calls.append(column)
        return slopes(*column)

    monkeypatch.setattr(analytics, "TIME_CHUNK", 512)
    monkeypatch.setattr(analytics, "propagator_slopes", counting_slopes)
    find_optimal_time(spec, scenario, (0.0, 50.0), 4_000, phase_corrected=False)
    assert calls == analytics._law_columns(spec, scenario)


def test_raw_weak_scan_evaluates_few_grid_points(monkeypatch):
    # the README weak N = 22 tune's rescan of the raw mean for
    # avg_fidelity_no_aux: the (C + R)/3 bound on the mean itself leaves one
    # chunk plus the coarse pass (7.2% of the grid); a bound through the |a|
    # envelope would evaluate three quarters of it
    points, curve = [], analytics.avg_fidelity_curve

    def counting_curve(spec, scenario, times, phase_corrected=False):
        if np.size(times) > 1:  # a scan's, not the golden refinement's
            points.append(np.size(times))
        return curve(spec, scenario, times, phase_corrected)

    monkeypatch.setattr(analytics, "avg_fidelity_curve", counting_curve)
    spec, grid = protocol_preset(Weak(0.005), 22), 400_000
    find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (0.0, 80_000.0), grid,
                      phase_corrected=False)
    assert sum(points) <= 0.1 * grid


def test_ladder_tuning_evaluates_few_grid_points(monkeypatch):
    # the coarse pass and the slope bound skip most scan chunks of the
    # barrier N = 22 ladder: a count, so the saving cannot vanish silently
    points, grids = [], []
    curve, find = analytics.avg_fidelity_curve, analytics.find_optimal_time

    def counting_curve(spec, scenario, times, phase_corrected=False):
        # every scan, the coarse pass among them, takes the factored path
        assert np.size(times) < GRID_FACTOR_MIN or _grid_step(np.asarray(times)) is not None
        points.append(np.size(times))
        return curve(spec, scenario, times, phase_corrected)

    def counting_find(spec, scenario, window, grid=2000, phase_corrected=True):
        grids.append(grid)
        return find(spec, scenario, window, grid, phase_corrected)

    monkeypatch.setattr(analytics, "avg_fidelity_curve", counting_curve)
    monkeypatch.setattr(analytics, "find_optimal_time", counting_find)
    kind = Barrier(200.0)
    tune_with_ladder(protocol_preset(kind, 22), Scenario.ONE_QUBIT_VACUUM, kind, aux_field=False)
    assert sum(grids) >= 720_000
    assert sum(points) < 0.15 * sum(grids)


def test_phase_null_field(rng):
    spec = make_random_chain(rng, 6)
    t = 2.6
    b = phase_null_field(spec, Scenario.ONE_QUBIT_VACUUM, t)
    from spintransfer.dynamics import propagator_rows, sector_spectrum

    corrected = propagator_rows(
        sector_spectrum(spec.with_uniform_field(b), 1), [[1]], [6], [t]
    )[0, 0, 0]
    assert abs(np.angle(corrected)) <= 1e-9


def test_weak_protocol_reaches_high_average():
    kind = Weak(0.05)
    spec = protocol_preset(kind, 10)
    tuning = tune_with_ladder(spec, Scenario.ONE_QUBIT_VACUUM, kind, aux_field=True)
    assert tuning.achieved_avg_fidelity > 0.99


def test_plan_readout_modes():
    kind = Perfect()
    spec = protocol_preset(kind, 10)
    window = (0.0, 2.0)
    tuning = find_optimal_time(
        spec, Scenario.ONE_QUBIT_VACUUM, window, 2000, phase_corrected=True
    )
    plan_opt = plan_readout(spec, Scenario.ONE_QUBIT_VACUUM, tuning)
    assert plan_opt.t_read == plan_opt.t_opt
    plan_err = plan_readout(
        spec, Scenario.ONE_QUBIT_VACUUM, tuning, {"type": "timing_error", "fraction": 0.02}
    )
    assert plan_err.t_read == pytest.approx(1.02 * plan_err.t_opt)
    # jitter spreads the read-out over equal-weight nodes around the optimum
    plan_jit = plan_readout(
        spec, Scenario.ONE_QUBIT_VACUUM, tuning, {"type": "timing_error", "fraction": 0.05},
        jitter=True,
    )
    assert plan_jit.t_read == plan_jit.t_opt == tuning.t_opt
    assert np.array_equal(plan_jit.times, tuning.t_opt * np.linspace(0.95, 1.05, 41))
    assert plan_jit.b_aux == plan_opt.b_aux
    with pytest.raises(ParameterError):
        plan_readout(spec, Scenario.ONE_QUBIT_VACUUM, tuning, jitter=True)
    plan_target = plan_readout(
        spec, Scenario.ONE_QUBIT_VACUUM, tuning, {"type": "target_avg", "value": 0.99}
    )
    amp = propagator_at(sector_spectrum(plan_target.spec, 1), plan_target.t_read)[0, 9]
    assert abs(np.angle(amp)) <= 1e-8  # aux field nulls the phase at t_read
    assert avg_fidelity_one_qubit_vacuum(abs(amp), 0.0) == pytest.approx(0.99, abs=1e-8)
    # one read-out time otherwise
    for plan in (plan_opt, plan_err, plan_target):
        assert np.array_equal(plan.times, [plan.t_read])


BAD_MODES = {
    "fraction_out_of_range": ({"type": "timing_error", "fraction": 0.7}, False, "fraction"),
    "fraction_boolean": ({"type": "timing_error", "fraction": True}, False, "fraction"),
    "fraction_not_a_number": ({"type": "timing_error", "fraction": "abc"}, False, "fraction"),
    "unknown_type": ({"type": "late"}, False, "unknown mode type"),
    "key_not_taken": ({"type": "target_avg", "value": 0.99, "fraction": 0.1}, False, "fraction"),
    "jitter_at_optimal": ({"type": "at_optimal"}, True, "jitter"),
    "not_an_object": ("target_avg", False, "mode must be a JSON object"),
}


@pytest.fixture(scope="module")
def perfect_tuning():
    spec = protocol_preset(Perfect(), 10)
    tuning = find_optimal_time(spec, Scenario.ONE_QUBIT_VACUUM, (0.0, 2.0), 2000, True)
    return spec, tuning


@pytest.mark.parametrize(("mode", "jitter", "message"), list(BAD_MODES.values()), ids=list(BAD_MODES))
def test_plan_readout_rejects_bad_modes(perfect_tuning, mode, jitter, message):
    spec, tuning = perfect_tuning
    with pytest.raises(ParameterError, match=message):
        plan_readout(spec, Scenario.ONE_QUBIT_VACUUM, tuning, mode, jitter=jitter)


def test_resolve_mode_checks_the_target_range():
    # the target's range lives with the mode's other rules, so library
    # plans reject what the CLI rejects
    for value in (0.4, 0.5, 1.0):
        with pytest.raises(ParameterError, match=r"\(0\.5, 1\)"):
            resolve_mode({"type": "target_avg", "value": value})
    resolved = resolve_mode({"type": "target_avg", "value": "0.99"})
    assert resolved == {"type": "target_avg", "value": 0.99}


def test_plan_readout_default_timing_fraction(perfect_tuning):
    spec, tuning = perfect_tuning
    plan = plan_readout(spec, Scenario.ONE_QUBIT_VACUUM, tuning, {"type": "timing_error"})
    assert plan.t_read == 1.02 * tuning.t_opt
    assert np.array_equal(plan.times, [plan.t_read])


def test_occupied_channel_tuning_takes_no_field():
    # however the tuning is reached, the occupied channel is tuned on its
    # raw average and planned without a field
    kind = Perfect()
    spec = protocol_preset(kind, 6)
    scenario = Scenario.ONE_QUBIT_UNIFORM
    tunings = [
        find_optimal_time(spec, scenario, (0.0, 2.0), 500, phase_corrected=True),
        tune_with_ladder(spec, scenario, kind, True),
        tune_with_ladder(spec, scenario, kind, True, grid=300),
        tune_with_ladder(spec, scenario, kind, True, window=(0.0, 2.0), grid=500),
        tune_with_ladder(spec, scenario, kind, True, window=(0.0, 2.0)),
    ]
    assert [t.window[2] for t in tunings] == [500, 20_000, 300, 500, 200_000]
    assert tunings[3] == tunings[0]
    for tuning in tunings:
        assert tuning.phase_corrected is False
        plan = plan_readout(spec, scenario, tuning)
        assert plan.b_aux == 0.0 and plan.spec is spec


def test_two_percent_timing_error_keeps_high_average():
    # at the N = 22 working settings every protocol stays above 0.99 when
    # read out 2% late (the field is planned at the optimum, not re-tuned)
    cases = [
        (Barrier(200.0), False),
        (Weak(1.0 / 200.0), True),
        (Perfect(), True),
    ]
    for kind, aux in cases:
        spec = protocol_preset(kind, 22)
        tuning = tune_with_ladder(
            spec, Scenario.ONE_QUBIT_VACUUM, kind, aux_field=aux
        )
        plan = plan_readout(
            spec, Scenario.ONE_QUBIT_VACUUM, tuning, {"type": "timing_error", "fraction": 0.02}
        )
        late = avg_fidelity_curve(
            plan.spec, Scenario.ONE_QUBIT_VACUUM, np.array([plan.t_read])
        )[0]
        assert late > 0.99, f"{kind.label}: <F>(1.02 t_opt) = {late:.6f}"
