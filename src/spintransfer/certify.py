"""Self-certification: cross-checks every module against the brute-force
reference and the package's own closed forms, with a machine-readable report.

These checks are the library's warranty seal: they compare the fidelity
laws with the channel of the exact full-space evolution, re-verify trace
preservation, and pin the structural facts (perfect-chain spectrum,
fidelity duality, distribution normalization) that the analytic layer
relies on.  The laws read amplitude rows
(:func:`~spintransfer.dynamics.propagator_rows` of the one- and, on
long-range and ZZ chains, the two-excitation sector, both from
:func:`~spintransfer.dynamics.sector_spectrum`), and free-fermion closed
forms in at most four of them on nearest-neighbour chains.  The sector
matrices under them are pinned first: ``sector_hamiltonian_symmetry_and_gauge``
checks their symmetry and the one-excitation diagonal against the vacuum
gauge's closed form on chains of all three kinds.  The
Kraus sets come from the full-space oracle, which stores each state as the
excitation-number blocks it occupies, at most C(N, 2) wide for transfer
inputs (:func:`~spintransfer.channel.kraus_at_times`).  A laws-vs-Kraus
comparison therefore checks the rows, the closed forms and the laws'
arithmetic together.  One sweep makes every such comparison
(:func:`check_channels_against_oracle`): each case, a preset of every
scenario or a random chain of one of three kinds, builds its Kraus set and
its law once, and completeness, the coefficient gap
(``channel_oracle_equivalence`` on presets, ``fidelity_law_rows_vs_kraus``
on random chains), fidelity duality, the density's normalization (one- and
two-qubit) and the two-qubit Clifford twirl all read them.  A new
law-vs-channel case or comparison belongs in that sweep.  Both reductions
read the Pauli transfer matrix, which ``bloch_map_vs_kraus`` pins against
state vectors.  The rows are also pinned one by one: against full sector
propagators, the determinant identity against the pair sector itself
(``pair_rows_vs_sector``), and the oracle's blocks
(``oracle_amplitude_equivalence`` on nearest-neighbour, long-range and ZZ
chains).  Kraus sets, oracle states and everything read from them carry a
leading time axis, one time being the stack over ``[t]``; the sweep
evaluates the read-out times of each case as one batch, so a case costs a
few array operations rather than one Python round trip per time.  The
``certify`` subcommand runs the whole suite.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from .chain import Barrier, ChainSpec, Perfect, Weak, protocol_preset, sector_hamiltonian
from .channel import (
    PAULI_STRINGS,
    KrausSet,
    Scenario,
    apply_channel,
    clamp_fidelity,
    fidelity_many,
    kraus_at_times,
    kraus_set,
    pauli_transfer_matrix,
)
from .dynamics import propagator_at, propagator_rows, sector_spectrum
from .errors import CapacityError, ModelError, NumericError, ParameterError
from .oracle import (
    MAX_ORACLE_BLOCK,
    block_indices,
    evolve_many,
    transfer_initial_state,
)
from .sampling import (
    bloch_fidelities,
    bloch_states,
    sample_bloch_vectors,
    sample_two_qubit_pure,
    schmidt_state,
)
from .sectors import build_sector_basis
from .analytics import (
    FidelityLaw,
    MinBranch,
    affine_from_kraus,
    fidelity_law,
    min_fidelity_closed_form,
    quadratic_reduce_one_qubit,
    vacuum_quadratic,
)

REPORT_SCHEMA_VERSION = 1
ORACLE_TIMES_PER_CASE = 10
BLOCH_MAP_INPUTS = 1000
# the checks of the law-vs-channel sweep, in report order, and the largest
# error each passes at
SWEEP_TOLERANCES = {
    "kraus_completeness": 1e-9,
    "channel_oracle_equivalence": 1e-9,
    "fidelity_duality": 1e-12,
    "fidelity_law_rows_vs_kraus": 1e-12,
    "pdf_normalization": 1e-6,
    "two_qubit_twirl_vs_clifford": 1e-10,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    detail: str


def protocol_specs(n_sites: int, n_senders: int = 1) -> dict[str, ChainSpec]:
    """The three protocol presets at reference strengths."""
    return {
        "weak": protocol_preset(Weak(0.1), n_sites, n_senders),
        "barrier": protocol_preset(Barrier(20.0), n_sites, n_senders),
        "perfect": protocol_preset(Perfect(), n_sites, n_senders),
    }


def random_spec(rng: np.random.Generator, n_sites: int, kind: str = "nearest") -> ChainSpec:
    """Random chain with fields, for convention checks.

    ``kind`` "nearest" gives a nearest-neighbour XX chain; "long_range" adds
    a bond from site 1 to site N//2 + 1; "zz" adds ZZ terms on the
    nearest-neighbour bonds.  Either addition takes it off the free-fermion
    path.
    """
    couplings = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        couplings[i, i + 1] = couplings[i + 1, i] = rng.uniform(0.5, 1.5)
    fields = rng.uniform(-0.5, 0.5, n_sites)
    anisotropies = np.zeros((n_sites, n_sites))
    if kind == "long_range":
        j = n_sites // 2
        couplings[0, j] = couplings[j, 0] = rng.uniform(0.2, 0.6)
    elif kind == "zz":
        for i in range(n_sites - 1):
            anisotropies[i, i + 1] = anisotropies[i + 1, i] = rng.uniform(-1.0, 1.0)
    elif kind != "nearest":
        raise ParameterError(f"unknown chain kind {kind!r}")
    return ChainSpec(n_sites, couplings, anisotropies, fields)


def random_isometry_kraus(rng: np.random.Generator, n_ops: int, dim: int = 2) -> KrausSet:
    """Kraus set of a random isometry C^dim -> C^dim (x) C^n_ops, a stack of
    one.

    E_j[a, b] = V[(a, j), b] for a dim n_ops x dim isometry V (QR of a
    complex Gaussian matrix); for dim 2 its fidelity depends on the input's
    azimuth.  No chain, scenario or time stands behind it.
    """
    z = rng.normal(size=(dim * n_ops, dim)) + 1j * rng.normal(size=(dim * n_ops, dim))
    v, _ = np.linalg.qr(z)
    return kraus_set(v.reshape(dim, n_ops, dim).transpose(1, 0, 2)[None])


def _sender_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def check_sector_dimensions() -> CheckResult:
    """Each sector basis holds its C(N, q) configurations once each, in
    lexicographic order: compared, as site tuples, with the sites read off
    the bits of the oracle's popcount-q indices (site i is bit i - 1)."""
    for n in range(2, 25):
        for q in (1, 2):
            configs = [
                tuple(i + 1 for i in range(n) if index >> i & 1) for index in block_indices(n, q)
            ]
            if build_sector_basis(n, q).configurations != tuple(sorted(configs)):
                detail = f"basis differs from the bit patterns at N={n} q={q}"
                return CheckResult("sector_dimensions", False, 1.0, detail)
    return CheckResult("sector_dimensions", True, 0.0, "N in 2..24")


def check_sector_hamiltonians(seed: int = 11) -> CheckResult:
    """Sector matrices are symmetric, and the q = 1 diagonal is in the
    vacuum gauge: flipping site k costs -2 B_k - 2 sum_j J_kj D_kj.

    The chains are :func:`random_spec` chains of all three kinds, so the
    ZZ term of the closed form is exercised as well.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, kind in product((4, 6, 9), ("nearest", "long_range", "zz")):
        spec = random_spec(rng, n, kind)
        for q in (1, 2):
            h = sector_hamiltonian(spec, build_sector_basis(n, q))
            worst = max(worst, float(np.abs(h - h.T).max()))
            if q == 1:
                flip = -2.0 * spec.fields - 2.0 * (spec.couplings * spec.anisotropies).sum(axis=1)
                worst = max(worst, float(np.abs(np.diagonal(h) - flip).max()))
    return CheckResult(
        "sector_hamiltonian_symmetry_and_gauge", worst <= 1e-12, worst,
        "symmetry and q = 1 vacuum gauge on nearest, long-range and ZZ random specs",
    )


def check_perfect_spectrum(n_sites: int = 22) -> CheckResult:
    gaps = np.diff(sector_spectrum(protocol_preset(Perfect(), n_sites), 1).eigenvalues)
    err = float(np.abs(gaps - gaps[0]).max())
    return CheckResult(
        "perfect_spectrum_equal_spacing", err <= 1e-9, err, f"N={n_sites}"
    )


def check_amplitude_unitarity(seed: int = 12) -> CheckResult:
    """Full one- and two-excitation propagators are unitary."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (5, 8):
        spec = random_spec(rng, n)
        for _ in range(3):
            t = float(rng.uniform(0.0, 20.0))
            for q in (1, 2):
                mat = propagator_at(sector_spectrum(spec, q), t)
                gram = mat @ mat.conj().T
                worst = max(worst, float(np.abs(gram - np.eye(mat.shape[0])).max()))
    return CheckResult("amplitude_unitarity", worst <= 1e-10, worst, "random specs")


def check_oracle_amplitudes(n_max: int, seed: int = 13) -> CheckResult:
    """Sector rows out of site 1 and pair (1, 2) vs the oracle's q = 1 and
    q = 2 blocks.

    The chains cycle through the three kinds of :func:`random_spec`
    (nearest-neighbour, long-range and ZZ), so the sector Hamiltonians of
    couplings the presets lack are pinned as well.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(4, n_max + 1):
        spec = random_spec(rng, n, ("nearest", "long_range", "zz")[n % 3])
        t = float(rng.uniform(0.5, 5.0))
        for sites in ((1,), (1, 2)):
            prop = sector_spectrum(spec, len(sites))
            init = transfer_initial_state(
                n, sites, np.eye(1 << len(sites))[-1:].astype(complex)
            )
            full = evolve_many(spec, init, [t])
            configs = prop.basis.configurations
            rows = propagator_rows(prop, [[sites]], configs, [t])[:, 0]
            # the block holds the sector's configurations in index order
            order = np.argsort([sum(1 << (site - 1) for site in c) for c in configs])
            worst = max(worst, float(np.abs(full.blocks[len(sites)] - rows[:, order]).max()))
    return CheckResult(
        "oracle_amplitude_equivalence", worst <= 1e-9, worst, f"N in 4..{n_max}"
    )


def check_pair_rows(seed: int = 18) -> CheckResult:
    """Determinant pair rows vs the pair-sector propagator.

    On a free-fermion chain the summed pair row out of (1, j), j in a group,
    is the 2x2 determinant a_1^k S_l - a_1^l S_k with S the one-excitation
    row summed over the group, and the fidelity laws' closed forms rest on
    that identity.  This check, which compares the determinants with rows of
    the diagonalised pair sector, and ``channel_oracle_equivalence`` (laws
    vs the oracle's Kraus sets) are what pin it.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (6, 9):
        specs = [random_spec(rng, n), *protocol_specs(n).values(),
                 *protocol_specs(n, n_senders=2).values()]
        targets = list(combinations(range(1, n + 1), 2))
        k, l = (np.array(targets) - 1).T
        times = rng.uniform(0.0, 12.0, 8)
        for spec in specs:
            for group in ([2], Scenario.ONE_QUBIT_UNIFORM.occupied(n)):
                sector = propagator_rows(
                    sector_spectrum(spec, 2), [[(1, j) for j in group]], targets, times
                )[:, 0]
                rows = propagator_rows(
                    sector_spectrum(spec, 1), [[1], group], range(1, n + 1), times
                )
                a1, s = rows[:, 0], rows[:, 1]
                err = np.abs(a1[:, k] * s[:, l] - a1[:, l] * s[:, k] - sector).max()
                worst = max(worst, float(err))
    return CheckResult(
        "pair_rows_vs_sector", worst <= 1e-10, worst,
        "random and preset chains, N in {6, 9}",
    )


def check_grid_rows(seed: int = 19) -> CheckResult:
    """Factored scan rows vs per-point :func:`propagator_rows` calls.

    Every tuning scan evaluates its grid as giant-step x baby-step phase
    products (see :func:`~spintransfer.dynamics.propagator_rows`), while a
    single time takes the direct phase matrix.  The rows of a 4096-point
    grid on [0, 1e4] are compared with single-point calls at sampled grid
    points; ``max_error`` is the worst deviation in units of the rounding
    scale both paths share, 4 eps max|L| max|t| sum_m |w_m| per column, and
    the check passes at 1.
    """
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1e4, 4096)
    worst = 0.0
    for n in (6, 9):
        sources = [[1], [2], Scenario.ONE_QUBIT_UNIFORM.occupied(n)]
        targets = range(1, n + 1)
        for spec in (random_spec(rng, n), *protocol_specs(n).values()):
            prop = sector_spectrum(spec, 1)
            rows = propagator_rows(prop, sources, targets, times)
            picks = np.unique(np.r_[0, times.size - 1, rng.integers(0, times.size, 30)])
            point = np.concatenate(
                [propagator_rows(prop, sources, targets, [times[k]]) for k in picks]
            )
            v = prop.eigenvectors
            weights = np.stack([v[np.asarray(g) - 1].sum(axis=0) for g in sources])
            column_l1 = np.abs(weights[:, None, :] * v[np.asarray(targets) - 1]).sum(axis=-1)
            scale = (
                4.0 * np.finfo(float).eps * np.abs(prop.eigenvalues).max() * times[-1]
                * column_l1
            )
            worst = max(worst, float((np.abs(rows[picks] - point) / scale).max()))
    return CheckResult(
        "grid_rows_vs_pointwise", worst <= 1.0, worst,
        "4096-point grid on [0, 1e4] vs single times, random and preset chains, "
        "N in {6, 9}; error in units of 4 eps max|L| max|t| sum|w|",
    )


def reduce_kraus(kraus: KrausSet) -> FidelityLaw:
    """The exact reduction of a one- or two-qubit Kraus set: one law row per
    time (:func:`~spintransfer.analytics.quadratic_reduce_one_qubit` or
    :func:`~spintransfer.analytics.affine_from_kraus`)."""
    return affine_from_kraus(kraus) if kraus.dim == 4 else quadratic_reduce_one_qubit(kraus)


def check_channels_against_oracle(
    n_max: int, seed: int = 14, chain_seed: int = 15
) -> list[CheckResult]:
    """Every law-vs-channel comparison in one sweep: each case builds its
    Kraus stack and its fidelity law once, and every check reads them.

    The cases come in two lists.  The presets, every (N, protocol, scenario)
    for N in 4..n_max with two-sender variants from N = 6, take
    ORACLE_TIMES_PER_CASE random times from the ``seed`` stream, each with
    its own random sender state, and evaluate them as one batch: a Kraus
    stack over the times (:func:`~spintransfer.channel.kraus_at_times`, one
    oracle evolution of the sender basis states), the law of the same
    times, and the channel outputs and fidelities along the same leading
    axis.  The random chains, one of each kind of :func:`random_spec` at
    N = 6 and 9 and one time each from the ``chain_seed`` stream, take
    every scenario.  On the long-range and ZZ chains the laws sum the one-
    and two-excitation rows; on nearest-neighbour chains they are
    free-fermion closed forms in at most four one-excitation amplitudes.

    The checks:

    * ``kraus_completeness``: every case's Kraus stack is trace preserving;
    * ``channel_oracle_equivalence`` (presets) and
      ``fidelity_law_rows_vs_kraus`` (random chains): the largest
      coefficient gap between the law, read from the sector rows, and the
      exact reduction of the oracle's Kraus set (:func:`reduce_kraus`).  The
      two share no amplitude code and the reductions read the Pauli
      transfer matrix, so the gap pins the rows, the laws' closed forms and
      their arithmetic at once.  On random chains it also takes the mean
      the tuning scans maximize, and the closed-form vacuum quadratic of
      the full propagator's amplitude;
    * ``fidelity_duality`` (presets): the Kraus fidelity of each sender
      state equals its overlap with the channel output;
    * ``pdf_normalization`` (random chains, every scenario): each law's
      density integrates to 1;
    * ``two_qubit_twirl_vs_clifford`` (random two-qubit cases): the law
      A - B C^2 against its definition, an average over local unitaries.
      The single-qubit Clifford group is a unitary 2-design, so averaging
      the channel fidelity over its 24 x 24 = 576 local pairs U (x) V
      applied to a Schmidt state of concurrence C in {0, 1/2, 1} is the
      Haar average exactly, with no sampling error.

    The preset results' ``detail`` counts the preset cases, one per time.
    """
    rng = np.random.default_rng(seed)
    presets = []
    for n in range(4, n_max + 1):
        for spec in [*protocol_specs(n).values(),
                     *(protocol_specs(n, n_senders=2).values() if n >= 6 else ())]:
            for scenario in Scenario:
                if n >= scenario.min_sites:
                    times = rng.uniform(0.0, 12.0, ORACLE_TIMES_PER_CASE)
                    dim = 1 << len(scenario.senders)
                    psi = np.array([_sender_state(rng, dim) for _ in times])
                    presets.append((spec, scenario, times, psi))
    chain_rng = np.random.default_rng(chain_seed)
    chains = [
        (random_spec(chain_rng, n, kind), [float(chain_rng.uniform(1.0, 8.0))])
        for n, kind in product((6, 9), ("nearest", "long_range", "zz"))
    ]
    cases = presets + [
        (spec, scenario, times, None) for spec, times in chains for scenario in Scenario
    ]
    group = _clifford_group_su2()
    twirled = {
        conc: np.einsum("mab,ncd,bd->mnac", group, group, schmidt_state(conc).reshape(2, 2))
        .reshape(1, -1, 4)
        for conc in (0.0, 0.5, 1.0)
    }
    worst = dict.fromkeys(SWEEP_TOLERANCES, 0.0)

    def record(name: str, error) -> None:
        worst[name] = max(worst[name], float(error))

    for spec, scenario, times, psi in cases:
        kraus = kraus_at_times(spec, scenario, times)
        law = fidelity_law(spec, scenario, times)
        reduced = reduce_kraus(kraus)
        gap = np.abs(reduced.coefficients - law.coefficients).max()
        record("kraus_completeness", kraus.completeness_defect.max())
        if psi is not None:
            record("channel_oracle_equivalence", gap)
            rho = apply_channel(kraus, psi)
            f_kraus = fidelity_many(kraus, psi[:, None, :])[:, 0]
            f_overlap = np.einsum("tk,tkl,tl->t", psi.conj(), rho, psi).real
            record("fidelity_duality", np.abs(f_kraus - f_overlap).max())
            continue
        record("fidelity_law_rows_vs_kraus", max(gap, abs(law.mean[0] - reduced.mean[0])))
        record("pdf_normalization", abs(law.normalization() - 1.0))
        if scenario is Scenario.ONE_QUBIT_VACUUM:
            amp = propagator_at(sector_spectrum(spec, 1), times[0])[0, spec.n_sites - 1]
            closed = vacuum_quadratic(abs(amp), float(np.angle(amp))).coefficients[0]
            record("fidelity_law_rows_vs_kraus", np.abs(reduced.coefficients[0] - closed).max())
        elif scenario is Scenario.TWO_QUBIT_VACUUM:
            for conc, states in twirled.items():
                average = fidelity_many(kraus, states).mean()
                record("two_qubit_twirl_vs_clifford", abs(average - reduced.evaluate(conc)[0]))
    chain_detail = f"{len(chains)} random chains of three kinds, N in {{6, 9}}"
    details = [f"{len(presets) * ORACLE_TIMES_PER_CASE} cases, N in 4..{n_max}"] * 3 + [
        f"all scenarios + mean + vacuum closed form, {chain_detail}",
        f"all scenarios, {chain_detail}",
        f"exact 2-design, C in {{0, 1/2, 1}}, {chain_detail}",
    ]
    return [
        CheckResult(name, worst[name] <= tol, worst[name], detail)
        for (name, tol), detail in zip(SWEEP_TOLERANCES.items(), details)
    ]


def check_bloch_map(seed: int = 20) -> CheckResult:
    """Pauli-transfer-matrix fidelities vs :func:`fidelity_many` on states.

    One-qubit Monte Carlo evaluates each sample as 1/2 r~^T R r~
    (:func:`~spintransfer.sampling.bloch_fidelities`) on Bloch vectors from
    Marsaglia's disk-to-sphere map (1972,
    :func:`~spintransfer.sampling.sample_bloch_vectors`); here the same
    vectors also become state vectors at theta = arccos(x), phi =
    arctan2(v, u).  Two-qubit sets compare r~^T R r~ / 4,
    r~_i = <psi|P_i|psi>, on Haar states, which pins the whole 16 x 16 R.
    Covers every scenario on random chains with nearest-neighbour,
    long-range and ZZ couplings, and random isometries C^d -> C^d (x) C^k
    (d = 2, 4); ``BLOCH_MAP_INPUTS`` inputs each.
    """
    rng = np.random.default_rng(seed)
    kraus_sets = []
    for kind in ("nearest", "long_range", "zz"):
        spec = random_spec(rng, 7, kind)
        t = float(rng.uniform(1.0, 8.0))
        kraus_sets += [kraus_at_times(spec, scenario, [t]) for scenario in Scenario]
    kraus_sets += [random_isometry_kraus(rng, k, dim) for dim in (2, 4) for k in (1, 2, 3, 5, 8)]
    worst = 0.0
    for kraus in kraus_sets:
        ptm = pauli_transfer_matrix(kraus)[0]
        if kraus.dim == 2:
            u, v, x = sample_bloch_vectors(rng, BLOCH_MAP_INPUTS)
            states = bloch_states(np.arccos(x), np.arctan2(v, u))
            form = bloch_fidelities(ptm, u, v, x)
        else:
            states = sample_two_qubit_pure(rng, BLOCH_MAP_INPUTS)
            # r~_i = <psi|P_i psi>, with the P_i psi as rows of psi P_i^T
            paulis_psi = states @ PAULI_STRINGS[4].transpose(0, 2, 1)
            r = np.einsum("nk,ink->ni", states.conj(), paulis_psi).real
            form = clamp_fidelity((r @ ptm * r).sum(axis=1) / 4.0)
        worst = max(worst, float(np.abs(form - fidelity_many(kraus, states[None])[0]).max()))
    return CheckResult(
        "bloch_map_vs_kraus", worst <= 1e-12, worst,
        f"{len(kraus_sets)} one- and two-qubit Kraus sets (chains of three kinds, "
        f"random isometries), {BLOCH_MAP_INPUTS} inputs each",
    )


def check_min_fidelity_branches(seed: int = 21) -> CheckResult:
    """The vacuum law's minimum vs :func:`min_fidelity_closed_form`, per branch.

    ``result.json`` takes f_min from the law's support.  Each branch draws
    four amplitudes r e^{i phi} clear of its edges (the vertex enters
    [-1, 1] for r > 1/3 and |phi| beyond arccos((3 r^2 - 1) / (2 r))), set
    at t = 1 on a two-site chain by the coupling (|a| = sin 2J) and a
    uniform field (the phase); the closed form reads a from the propagator.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    hits = dict.fromkeys(MinBranch, 0)
    for branch, _ in product(MinBranch, range(4)):
        small = branch is MinBranch.POLE_SMALL_AMPLITUDE
        r = rng.uniform(0.05, 0.3) if small else rng.uniform(0.4, 0.95)
        bound = np.arccos(np.clip((3.0 * r * r - 1.0) / (2.0 * r), -1.0, 1.0))
        u = rng.uniform(0.1, 0.9)
        phi = rng.choice([-1.0, 1.0]) * {
            MinBranch.POLE_SMALL_AMPLITUDE: u * np.pi,
            MinBranch.POLE_PHASE: u * bound,
            MinBranch.INTERIOR_VERTEX: bound + u * (np.pi - bound),
        }[branch]
        coupling = np.arcsin(r) / 2.0 * (1.0 - np.eye(2))
        spec = ChainSpec(2, coupling, np.zeros((2, 2)), np.zeros(2))
        amp = propagator_at(sector_spectrum(spec, 1), 1.0)[0, 1]
        spec = spec.with_uniform_field((phi - np.angle(amp)) / 2.0)
        amp = propagator_at(sector_spectrum(spec, 1), 1.0)[0, 1]
        closed = min_fidelity_closed_form(abs(amp), float(np.angle(amp)))
        law = fidelity_law(spec, Scenario.ONE_QUBIT_VACUUM, [1.0])
        worst = max(worst, abs(law.support[0] - closed.f_min))
        hits[branch] += closed.branch is branch
    return CheckResult(
        "min_fidelity_branches", all(hits.values()) and worst <= 1e-12, worst,
        ", ".join(f"{branch.value}: {count}" for branch, count in hits.items())
        + " cases on two-site chains",
    )


def _clifford_group_su2() -> np.ndarray:
    """The 24 single-qubit Clifford unitaries, one per rotation, as a
    (24, 2, 2) array (global phases as they fall).

    Up to phase the group permutes the Pauli axes x, y, z with signs: each
    element is a Pauli (the signs) times one of the six axis permutations
    I, H, S, HS, SH and HSH (H swaps x and z, S swaps x and y).
    """
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    phase = np.diag([1.0, 1.0j])
    perms = [np.eye(2), hadamard, phase, hadamard @ phase, phase @ hadamard,
             hadamard @ phase @ hadamard]
    return (PAULI_STRINGS[2][:, None] @ np.array(perms)).reshape(24, 2, 2)


def run_certification(n_max: int = 10) -> dict:
    """Run every check and return the report as a JSON-friendly dict.

    The oracle checks start at N = 4, the smallest chain every scenario is
    defined on, so ``n_max`` below 4 would leave them checking nothing; the
    two-excitation inputs need the oracle's C(n_max, 2) block within
    ``MAX_ORACLE_BLOCK``, so n_max goes up to 60.  A check that raises
    NumericError or ModelError (a Kraus set failing its completeness
    tolerance, an oracle evolution changing a norm, a law leaving [0, 1]) is
    reported as failed, with the error in ``detail``; an error in the
    law-vs-channel sweep fails all six of its results.
    """
    if n_max < 4:
        raise ParameterError(f"certification needs n_max >= 4, got {n_max}")
    if comb(n_max, 2) > MAX_ORACLE_BLOCK:
        raise CapacityError(
            f"certification needs C(n_max, 2) <= {MAX_ORACLE_BLOCK}, got n_max = {n_max}"
        )
    suite = [
        (("sector_dimensions",), check_sector_dimensions),
        (("sector_hamiltonian_symmetry_and_gauge",), check_sector_hamiltonians),
        (("perfect_spectrum_equal_spacing",), check_perfect_spectrum),
        (("amplitude_unitarity",), check_amplitude_unitarity),
        (("oracle_amplitude_equivalence",), lambda: check_oracle_amplitudes(n_max)),
        (("pair_rows_vs_sector",), check_pair_rows),
        (("grid_rows_vs_pointwise",), check_grid_rows),
        (tuple(SWEEP_TOLERANCES), lambda: check_channels_against_oracle(n_max)),
        (("bloch_map_vs_kraus",), check_bloch_map),
        (("min_fidelity_branches",), check_min_fidelity_branches),
    ]
    checks: list[CheckResult] = []
    for names, check in suite:
        try:
            result = check()
        except (NumericError, ModelError) as exc:
            # the error was not measured; the largest finite double fails
            # every tolerance and keeps the report valid JSON
            failed = f"{type(exc).__name__}: {exc}"
            result = [CheckResult(name, False, sys.float_info.max, failed) for name in names]
        checks += result if isinstance(result, list) else [result]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "n_max": n_max,
        "checks": [
            {**asdict(c), "passed": bool(c.passed), "max_error": float(c.max_error)}
            for c in checks
        ],
        "all_passed": bool(all(c.passed for c in checks)),
    }
