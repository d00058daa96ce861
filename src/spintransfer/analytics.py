"""Closed-form fidelity statistics: fidelity laws, analytic probability
distributions, minimum and average fidelity, and read-out timing.

For one qubit the transfer fidelity reduces to a quadratic in x = cos(theta)
of the Bloch angle; for two qubits the fidelity averaged over local unitaries
is affine in the squared concurrence.  :func:`fidelity_law` evaluates both
laws directly from propagator amplitudes, vectorized over a time grid; the
tuning scans use its mean and the written distributions its coefficients.
On a free-fermion chain (nearest-neighbour XX with any fields, every
preset; :func:`~spintransfer.dynamics.is_free_fermion`) each law is a
closed form in at most four one-excitation amplitudes: the pair amplitudes
are 2x2 determinants of one-excitation amplitudes (Lieb, Schultz and
Mattis, Ann. Phys. 16, 407 (1961)), and row orthonormality sums them over
the sites outside the receiver, so no pair row is read; the two-qubit law
is three closed terms in the 2x2 receiver block G = a_{1,2}^{N-1,N}.
Other chains (long-range or ZZ couplings) take the N-wide one-excitation
rows and the pair-sector rows of :func:`~spintransfer.dynamics.pair_rows`.

Each law is its own distribution: :class:`QuadraticFidelity` and
:class:`TwoQubitAffine` carry the support, density and CDF that follow by a
change of variables from the uniform-state input measures (x uniform on
[-1, 1]; concurrence density 3 C sqrt(1 - C^2)).  :class:`FidelityLaw`
derives every statistic from rows of coefficients: its mean from the input
moments, and its distribution: a row at most ``COLLAPSE_WIDTH`` wide becomes a
:class:`PointMass` at its mean, and several rows (read-out jitter) an
equal-weight :class:`Mixture`.

The reductions of explicit Kraus sets (:func:`quadratic_reduce_one_qubit`,
:func:`affine_from_kraus`) are the reference that Monte Carlo and
certification use.  Both read the channel's Pauli transfer matrix, none of
the laws' arithmetic.  The Kraus sets read every pair row, so on free-fermion
chains the reductions check the closed forms, and elsewhere, where laws
and Kraus sets read the same rows, the laws' row arithmetic; the 2^N
oracle checks the rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .channel import KrausSet, Scenario, pauli_transfer_matrix
from .dynamics import ChainDynamics, dynamics_for, is_free_fermion, pair_rows, propagator_rows
from .errors import ModelError, ParameterError, RangeError

PHI_INDEPENDENCE_TOL = 1e-10
COLLAPSE_WIDTH = 1e-11
TIME_CHUNK = 16384
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
TARGET_WALK_STEP = 1e-4
TARGET_TICK_BLOCK = 512
LADDER_STOP_AVG = 0.995
MIN_SCAN_GRID = 100
NORMALIZATION_NODES = 64


# ---------------------------------------------------------------------------
# fidelity distributions
# ---------------------------------------------------------------------------

class _Distribution:
    """Support and normalization of a fidelity distribution.

    A subclass provides ``breakpoints`` (the fidelity values where the
    density kinks or has an integrable singularity, both ends of the support
    among them), ``density`` and ``cdf``.
    """

    @property
    def support(self) -> tuple[float, float]:
        """(min, max) of the breakpoints: the range of fidelity values."""
        points = self.breakpoints()
        return float(min(points)), float(max(points))

    def normalization(self) -> float:
        """Integral of the density over the support: the sum of
        :meth:`segment_masses` between the sorted breakpoints."""
        points = np.array(sorted(set(self.breakpoints())))
        if points.size < 2:
            return 1.0
        return float(self.segment_masses(points).sum())

    def segment_masses(self, points: np.ndarray) -> np.ndarray:
        """Integrals of the density over the segments between sorted ``points``.

        Each segment [p, q] takes a ``NORMALIZATION_NODES``-point
        Gauss-Legendre rule in tau of f = l + (r - l) (1 - cos tau) / 2,
        over the tau that map onto [p, q].  The anchors are l = p and r = q
        unless :meth:`_anchors` moves one onto a nearby singular point
        outside the segment.  The Jacobian (r - l) sin(tau) / 2 cancels
        inverse-square-root singularities of the density at the anchors, so
        the rule sees a smooth integrand as long as no singular point lies
        inside a segment; every segment is evaluated in one density call.
        """
        from numpy.polynomial.legendre import leggauss

        points = np.asarray(points, dtype=float)
        left, right = self._anchors(points[:-1], points[1:])
        span = right - left
        # tau of p and q, from (1 - cos tau) / 2 = sin^2(tau / 2) = (f - l) / (r - l)
        tau_p = 2.0 * np.arcsin(np.sqrt(np.clip((points[:-1] - left) / span, 0.0, 1.0)))
        tau_q = 2.0 * np.arcsin(np.sqrt(np.clip((points[1:] - left) / span, 0.0, 1.0)))
        nodes, weights = leggauss(NORMALIZATION_NODES)
        half = 0.5 * (tau_q - tau_p)[:, None]
        tau = tau_p[:, None] + half * (nodes + 1.0)
        f = left[:, None] + span[:, None] * np.sin(0.5 * tau) ** 2
        density = np.reshape(self.density(f.ravel()), f.shape)
        jacobian = 0.5 * span[:, None] * np.sin(tau) * half * weights
        return (density * jacobian).sum(axis=1)

    def _anchors(self, lo: np.ndarray, hi: np.ndarray):
        """Substitution anchors (l, r) of the segments [lo, hi]: the ends themselves."""
        return lo, hi


# ---------------------------------------------------------------------------
# quadratic reduction (one qubit)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticFidelity(_Distribution):
    """Fidelity as ``F(x) = a x^2 + b x + c`` with x = cos(theta), and its
    distribution under x uniform on [-1, 1].

    Each value F with real preimages in [-1, 1] receives density
    ``1 / (2 sqrt(disc(F)))`` per preimage, the stable roots for every a (a = 0
    gives the uniform image of an affine map).  A law at most ``COLLAPSE_WIDTH``
    wide has no density here: :meth:`FidelityLaw.pdf` gives a :class:`PointMass`.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        lo, hi = self.support
        if lo < -1e-9 or hi > 1.0 + 1e-9:
            raise ModelError(
                f"quadratic fidelity leaves [0, 1]: range [{lo:.3e}, {hi:.3e}]"
            )

    def evaluate(self, x):
        return (self.a * np.asarray(x) + self.b) * np.asarray(x) + self.c

    def breakpoints(self) -> list[float]:
        """F(-1), F(1) and, when the vertex lies in (-1, 1), F(vertex)."""
        xs = [-1.0, 1.0]
        if abs(self.a) > 0.0:
            vertex = -self.b / (2.0 * self.a)
            if -1.0 < vertex < 1.0:
                xs.append(vertex)
        return [float(self.evaluate(x)) for x in xs]

    def mean(self) -> float:
        """Average over x uniform on [-1, 1]."""
        return self.a / 3.0 + self.c

    def _anchors(self, lo: np.ndarray, hi: np.ndarray):
        """Segment ends, moved onto the vertex value F(-b / 2a) where it lies
        outside a segment by at most the segment's width.

        The density is singular at the vertex value only, whether or not the
        vertex lies in [-1, 1].  A segment that ends near that value without
        reaching it (the vertex just outside [-1, 1], or a segment next to
        the one the vertex value ends) would otherwise see a
        near-singularity the rule cannot resolve.
        """
        if self.a == 0.0:
            return lo, hi
        vertex = float(self.evaluate(-self.b / (2.0 * self.a)))
        width = hi - lo
        left = np.where((vertex <= lo) & (lo - vertex <= width), vertex, lo)
        right = np.where((vertex >= hi) & (vertex - hi <= width), vertex, hi)
        return left, right

    def _roots(self, f):
        """Stable roots of a x^2 + b x + (c - f) = 0 for array f; at a = 0
        (or -0.0) the first is -sign(b) inf and the second (f - c) / b."""
        a, b, c = self.a + 0.0, self.b, self.c
        disc = b * b - 4.0 * a * (c - f)
        valid = disc >= 0.0
        sqrt_disc = np.sqrt(np.where(valid, disc, 0.0))
        sign_b = np.where(b >= 0.0, 1.0, -1.0)
        u = -0.5 * (b + sign_b * sqrt_disc)
        # the masked quotients may divide by zero or overflow where invalid
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r1 = np.where(valid, u / a, np.nan)
            r2 = np.where(valid & (u != 0.0), (c - f) / u, np.nan)
        # u == 0 happens only when b == 0 and disc == 0: double root at 0
        r2 = np.where(valid & (u == 0.0), 0.0, r2)
        r1 = np.where(valid & np.isnan(r1), 0.0, r1)
        return r1, r2, disc, valid

    def density(self, f):
        scalar = np.ndim(f) == 0
        f = np.atleast_1d(np.asarray(f, dtype=float))
        r1, r2, disc, valid = self._roots(f)
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.where(valid & (disc > 0.0), 0.5 / np.sqrt(disc), np.inf)
        out = np.zeros_like(f)
        for root in (r1, r2):
            inside = valid & (np.abs(root) <= 1.0)
            out = np.where(inside, out + weight, out)
        lo, hi = self.support
        out = np.where((f < lo) | (f > hi), 0.0, out)
        return float(out[0]) if scalar else out

    def cdf(self, f):
        scalar = np.ndim(f) == 0
        f = np.atleast_1d(np.asarray(f, dtype=float))
        r1, r2, disc, valid = self._roots(f)
        lo_root = np.minimum(r1, r2)
        hi_root = np.maximum(r1, r2)
        inter = np.clip(np.minimum(hi_root, 1.0) - np.maximum(lo_root, -1.0), 0.0, 2.0)
        if self.a >= 0.0:
            # sublevel set is between the roots (empty when disc < 0); at
            # a = 0 the far root is infinite and the set is a half-line
            measure = np.where(valid, inter, 0.0)
        else:
            # sublevel set is outside the roots (everything when disc < 0)
            measure = np.where(valid, 2.0 - inter, 2.0)
        out = measure / 2.0
        lo, hi = self.support
        out = np.where(f <= lo, 0.0, out)
        out = np.where(f >= hi, 1.0, out)
        return float(out[0]) if scalar else out


def quadratic_reduce_one_qubit(kraus: KrausSet) -> QuadraticFidelity:
    """Exact azimuth average of a one-qubit channel's fidelity.

    Reads the channel's Pauli transfer matrix R
    (:func:`~spintransfer.channel.pauli_transfer_matrix`).  The input with
    Bloch vector r~ = (1, s cos(phi), s sin(phi), x), s^2 = 1 - x^2,
    transfers with fidelity 1/2 r~^T R r~.  When the azimuth-dependent
    entries vanish, the fidelity is the quadratic
    ``F(x) = (R33/2 - (R11 + R22)/4) x^2 + (R03 + R30)/2 x + R00/2 + (R11 + R22)/4``.

    Raises
    ------
    ModelError
        If an entry of R + R^T at (0, 1), (0, 2), (1, 2), (1, 3) or (2, 3),
        or R11 - R22, exceeds 1e-10, i.e. the fidelity depends on the
        azimuth and no quadratic in cos(theta) describes it.
    """
    if kraus.dim != 2:
        raise ParameterError("quadratic reduction applies to one-qubit channels")
    ptm = pauli_transfer_matrix(kraus)
    sym = ptm + ptm.T
    cross = max(
        *(abs(sym[i, j]) for i, j in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))),
        abs(ptm[1, 1] - ptm[2, 2]),
    )
    if cross > PHI_INDEPENDENCE_TOL:
        raise ModelError(
            f"channel fidelity varies with the azimuth: cross term {cross:.3e}"
        )
    transverse = (ptm[1, 1] + ptm[2, 2]) / 4.0
    return QuadraticFidelity(
        float(ptm[3, 3] / 2.0 - transverse),
        float(sym[0, 3] / 2.0),
        float(ptm[0, 0] / 2.0 + transverse),
    )


def vacuum_quadratic(r: float, phi: float) -> QuadraticFidelity:
    """Closed-form quadratic of the vacuum channel with amplitude r e^{i phi}."""
    _check_r(r)
    re = r * np.cos(phi)
    return QuadraticFidelity(
        (r * r - re) / 2.0, (1.0 - r * r) / 2.0, (1.0 + re) / 2.0
    )


# ---------------------------------------------------------------------------
# minimum / average fidelity closed forms (one qubit, vacuum channel)
# ---------------------------------------------------------------------------

class MinBranch(enum.Enum):
    """Which case of the minimum-fidelity analysis applied."""

    INTERIOR_VERTEX = "interior_vertex"
    POLE_PHASE = "pole_phase"            # amplitude phase outside the window
    POLE_SMALL_AMPLITUDE = "pole_small_amplitude"  # |a| <= 1/3


@dataclass(frozen=True)
class MinFidelityResult:
    theta_star: float
    f_min: float
    branch: MinBranch


def _check_r(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"amplitude modulus r must lie in [0, 1], got {r}")


def min_fidelity_closed_form(r: float, phi: float) -> MinFidelityResult:
    """Worst-case input fidelity of the vacuum channel with a = r e^{i phi}.

    The minimizing Bloch angle is the south pole unless the quadratic's
    vertex enters [-1, 1], which happens for r > 1/3 when the amplitude
    phase satisfies cos(phi) <= (3 r^2 - 1) / (2 r).
    """
    _check_r(r)
    quad_form = vacuum_quadratic(r, phi)
    cos_phi = np.cos(phi)
    if r <= 1.0 / 3.0:
        return MinFidelityResult(np.pi, r * r, MinBranch.POLE_SMALL_AMPLITUDE)
    if cos_phi > (3.0 * r * r - 1.0) / (2.0 * r):
        return MinFidelityResult(np.pi, r * r, MinBranch.POLE_PHASE)
    if quad_form.a <= 0.0:
        # degenerate vertex (r = 1, phi = 0): minimum still at the pole
        return MinFidelityResult(np.pi, r * r, MinBranch.POLE_PHASE)
    x_star = (r * r - 1.0) / (2.0 * r * (r - cos_phi))
    x_star = float(np.clip(x_star, -1.0, 1.0))
    return MinFidelityResult(
        float(np.arccos(x_star)),
        float(quad_form.evaluate(x_star)),
        MinBranch.INTERIOR_VERTEX,
    )


# ---------------------------------------------------------------------------
# two-qubit affine reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoQubitAffine(_Distribution):
    """Local-unitary-averaged fidelity ``F(C) = A - B C^2``, and its
    distribution under the concurrence law pdf(C) = 3C sqrt(1-C^2).

    The change of variables gives density ``(3 / (2|B|)) sqrt(1 - (A-F)/B)``
    between A and A - B; for |B| at most ``COLLAPSE_WIDTH``,
    :meth:`FidelityLaw.pdf` gives a :class:`PointMass`.
    """

    A: float
    B: float

    def __post_init__(self):
        for label, value in (("A", self.A), ("A - B", self.A - self.B)):
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise ModelError(
                    f"affine fidelity endpoint {label} = {value:.6f} leaves [0, 1]"
                )

    def evaluate(self, conc):
        return self.A - self.B * np.square(np.asarray(conc, dtype=float))

    def breakpoints(self) -> list[float]:
        """F(0) = A and F(1) = A - B."""
        return [self.A, self.A - self.B]

    def mean(self) -> float:
        """Average over Haar-random two-qubit states (uses <C^2> = 2/5)."""
        return self.A - 0.4 * self.B

    def density(self, f):
        a_val, b_val = self.A, self.B
        scalar = np.ndim(f) == 0
        f = np.atleast_1d(np.asarray(f, dtype=float))
        ratio = (a_val - f) / b_val
        inside = (ratio >= 0.0) & (ratio <= 1.0)
        out = np.where(
            inside,
            1.5 / abs(b_val) * np.sqrt(np.clip(1.0 - ratio, 0.0, 1.0)),
            0.0,
        )
        return float(out[0]) if scalar else out

    def cdf(self, f):
        a_val, b_val = self.A, self.B
        scalar = np.ndim(f) == 0
        f = np.atleast_1d(np.asarray(f, dtype=float))
        if b_val < 0.0:
            csq = np.clip((f - a_val) / (-b_val), 0.0, 1.0)
            out = 1.0 - np.power(1.0 - csq, 1.5)
        else:
            csq = np.clip((a_val - f) / b_val, 0.0, 1.0)
            out = np.power(1.0 - csq, 1.5)
        lo, hi = self.support
        out = np.where(f <= lo, 0.0, out)
        out = np.where(f >= hi, 1.0, out)
        return float(out[0]) if scalar else out


def _affine_from_traces(t1, t2, t3, t4) -> tuple:
    """(A, B) from the four channel trace sums of the local-unitary twirl.

    For a channel with Kraus set {E}: t1 = sum |tr E|^2, t2 = sum ||E||_F^2,
    t3 = sum ||tr_2 E||_F^2, t4 = sum ||tr_1 E||_F^2; averaging the fidelity
    over independent Haar unitaries on the two input qubits at fixed
    concurrence C gives A - B C^2 with the combinations below (projection of
    the doubled input onto the identity/swap algebra of each qubit factor).
    """
    a_val = (t1 + t2 + t3 + t4) / 36.0
    b_val = (-2.0 * (t1 + t2) + 2.5 * (t3 + t4)) / 36.0
    return a_val, b_val


def affine_from_kraus(kraus: KrausSet) -> TwoQubitAffine:
    """Local-unitary-averaged fidelity coefficients of a two-qubit channel.

    The local twirl of the 16 x 16 Pauli transfer matrix R
    (:func:`~spintransfer.channel.pauli_transfer_matrix`) is diagonal with
    R00 and the means c1, c2, c3 of R's diagonal over s (x) I, I (x) s and
    s (x) s (the single-qubit Clifford group is a unitary 2-design: Dankert,
    Cleve, Emerson and Livine, PRA 80, 012304 (2009)).  A pure input of
    concurrence C has weights 1 - C^2, 1 - C^2 and 1 + 2 C^2 on those
    classes, so A = (R00 + c1 + c2 + c3) / 4 and B = (c1 + c2 - 2 c3) / 4.
    """
    if kraus.dim != 4:
        raise ParameterError("affine reduction applies to two-qubit channels")
    diag = np.diag(pauli_transfer_matrix(kraus)).reshape(4, 4)
    c1, c2, c3 = diag[1:, 0].mean(), diag[0, 1:].mean(), diag[1:, 1:].mean()
    return TwoQubitAffine(
        float((diag[0, 0] + c1 + c2 + c3) / 4.0), float((c1 + c2 - 2.0 * c3) / 4.0)
    )


@dataclass(frozen=True)
class PointMass(_Distribution):
    """Every input transfers with the same fidelity ``value``."""

    value: float

    def breakpoints(self) -> list[float]:
        return [self.value]

    def mean(self) -> float:
        return self.value

    def density(self, f):
        return np.where(np.asarray(f, dtype=float) == self.value, np.inf, 0.0)

    def cdf(self, f):
        return np.where(np.asarray(f, dtype=float) >= self.value, 1.0, 0.0)


@dataclass(frozen=True)
class Mixture(_Distribution):
    """Equal-weight mixture of fidelity distributions."""

    parts: tuple

    def breakpoints(self) -> list[float]:
        return [p for part in self.parts for p in part.breakpoints()]

    def density(self, f):
        return sum(part.density(f) for part in self.parts) / len(self.parts)

    def cdf(self, f):
        return sum(part.cdf(f) for part in self.parts) / len(self.parts)

    def normalization(self) -> float:
        """Mean of the parts' normalizations, each over its own breakpoints."""
        return sum(part.normalization() for part in self.parts) / len(self.parts)


# ---------------------------------------------------------------------------
# fidelity laws from amplitude rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FidelityLaw:
    """Fidelity laws of one scenario on a time grid.

    Row k of ``coefficients`` is the law at the k-th time: (a, b, c) of
    ``F(x) = a x^2 + b x + c`` for one qubit, (A, B) of ``F(C) = A - B C^2``
    for two qubits.  Every statistic is derived from these rows.
    """

    scenario: Scenario
    coefficients: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        """Each row's average over uniform inputs from the input moments,
        a / 3 + c (<x^2> = 1/3) or A - 0.4 B (<C^2> = 2/5): the rows'
        distributions' ``mean`` to the last bit.  Tuning maximizes it."""
        rows = self.coefficients
        if self.scenario is Scenario.TWO_QUBIT_VACUUM:
            return rows[:, 0] - 0.4 * rows[:, 1]
        return rows[:, 0] / 3.0 + rows[:, 2]

    def pdf(self) -> _Distribution:
        """Fidelity distribution of the law; several rows mix with equal weight.

        A row whose support is at most ``COLLAPSE_WIDTH`` wide is a
        :class:`PointMass` at its mean, any other row its own law.  Fidelities
        lie in [0, 1], so the width is absolute: 1e-11 is 4.5e4 to 1.8e5 ulps
        for F in [0.25, 1].
        """
        form = TwoQubitAffine if self.scenario is Scenario.TWO_QUBIT_VACUUM else QuadraticFidelity
        parts = []
        for row in self.coefficients:
            law = form(*(float(v) for v in row))
            lo, hi = law.support
            parts.append(PointMass(law.mean()) if hi - lo <= COLLAPSE_WIDTH else law)
        return parts[0] if len(parts) == 1 else Mixture(tuple(parts))


def fidelity_law(
    spec: ChainSpec,
    scenario: Scenario,
    times,
    phase_corrected: bool = False,
) -> FidelityLaw:
    """Fidelity law of ``scenario`` at each of ``times`` (1-D) from propagator rows.

    The vacuum law needs only the end-to-end amplitude a_1^N.  On a
    free-fermion chain (:func:`is_free_fermion`) the occupied-channel law
    needs only a = a_1^N and S = sum_{j=2}^{N-1} a_j^N:
    (a, b, c) = ((|a|^2 + Re a) / 2, (1 - |a|^2) / 2 - |S|^2 / (N - 2),
    (1 - Re a) / 2), and the two-qubit law the trace sums |det(I + G)|^2,
    2 |1 + g22|^2 and 2 (1 + |g11|^2) + 4 Re(g22 conj(det G)) of the 2x2
    receiver block G (:func:`_two_qubit_law`); neither reads a pair row.
    On other chains the uniform law sums the one- and two-excitation rows
    out of the occupied sites 2..N-1 (the latter from :func:`pair_rows`,
    i.e. the pair sector); the weight of the double excitations that avoid
    the receiver follows from unitarity of the normalized pair row.  Memory
    grows as len(times) times the number of amplitudes read;
    :func:`avg_fidelity_curve` feeds long grids in chunks.

    ``phase_corrected`` evaluates the law reachable once the arrival phase
    is nulled by a uniform field: it replaces the end-to-end amplitude by
    its modulus in the vacuum scenario and rotates the two-qubit channel
    entries by the phase of the site-1 -> site-(N-1) amplitude (sector-two
    entries by its square), exactly as the field of :func:`phase_null_field`
    would.  The flag has no effect on the uniform-channel scenario, whose
    law is not a function of a single arrival phase.
    """
    if not isinstance(scenario, Scenario):
        raise ParameterError(f"unknown scenario {scenario!r}")
    scenario.check_sites(spec.n_sites)
    n = spec.n_sites
    times = np.asarray(times, dtype=float)
    dyn = dynamics_for(spec)
    if scenario is Scenario.ONE_QUBIT_VACUUM:
        amp = propagator_rows(dyn.one, [[1]], [n], times)[:, 0, 0]
        r2 = np.abs(amp) ** 2
        re = np.abs(amp) if phase_corrected else amp.real
        coefficients = ((r2 - re) / 2.0, (1.0 - r2) / 2.0, (1.0 + re) / 2.0)
    elif scenario is Scenario.ONE_QUBIT_UNIFORM and is_free_fermion(spec):
        # a = a_1^N and S = sum_{j=2}^{N-1} a_j^N; row orthonormality
        # collapses the sums over the receiver-free sites of the row law
        rows = propagator_rows(dyn.one, [[1], scenario.occupied(n)], [n], times)
        amp, summed = rows[:, 0, 0], rows[:, 1, 0]
        r2 = np.abs(amp) ** 2
        coefficients = (
            (r2 + amp.real) / 2.0,
            (1.0 - r2) / 2.0 - np.abs(summed) ** 2 / (n - 2),
            (1.0 - amp.real) / 2.0,
        )
    elif scenario is Scenario.ONE_QUBIT_UNIFORM:
        # Kraus diagonals (alpha_k, beta_k), k = 1..N-1, unnormalized by
        # the sqrt(N - 2) of the initial state
        occupied = scenario.occupied(n)
        rows = propagator_rows(dyn.one, [[1], occupied], range(1, n + 1), times)
        alpha = rows[:, 1]
        beta = pair_rows(dyn, occupied, [(k, n) for k in range(1, n)], times)
        weight = 1.0 / (n - 2)
        plus = (np.abs(alpha[:, : n - 1] + beta) ** 2).sum(axis=1)
        minus = (np.abs(alpha[:, : n - 1] - beta) ** 2).sum(axis=1)
        excess = (np.abs(alpha[:, : n - 1]) ** 2 - np.abs(beta) ** 2).sum(axis=1)
        # off-diagonal weight: excitation alone at N, or both away from N
        leak = np.clip((n - 2) - (np.abs(beta) ** 2).sum(axis=1), 0.0, None)
        off = weight * (np.abs(alpha[:, n - 1]) ** 2 + leak)
        coefficients = (
            (weight * minus - off) / 4.0,
            weight * excess / 2.0,
            (weight * plus + off) / 4.0,
        )
    else:
        a_val, b_val = _two_qubit_law(dyn, times, phase_corrected)
        coefficients = (a_val, b_val)
    return FidelityLaw(scenario, np.stack(coefficients, axis=-1))


def _two_qubit_law(dyn: ChainDynamics, times: np.ndarray, phase_corrected: bool = False):
    """A(t) and B(t) on a time grid via the channel trace sums.

    With G = [[g11, g12], [g21, g22]] = [[a_1^{N-1}, a_1^N], [a_2^{N-1},
    a_2^N]] and w = b_12^{(N-1, N)}, the trace sums are t1 = |1 + g11 +
    g22 + w|^2, t2 = sum_E ||E||_F^2 = tr I_4 = 4 (trace preservation, on
    every chain), t3 = |1 + g22|^2 + |g11 + w|^2 + sum_j |u_j + b_12^{(j,
    N)}|^2 and t4 = |1 + g11|^2 + |g22 + w|^2 + sum_j |v_j + b_12^{(j,
    N-1)}|^2, the sums over the sites j <= N-2 outside the receiver, with
    u = a_1^j and v = a_2^j.

    On a free-fermion chain (:func:`is_free_fermion`) w = det G and the
    law reads the four amplitudes of G and no pair row: t3 = 2 |1 + g22|^2
    and t4 = 2 (1 + |g11|^2) + 4 Re(g22 conj(w)).  The pair amplitudes are
    2x2 determinants, so the summands are |x u_j + y v_j|^2 with (x, y) =
    (1 + g22, -g12) and (g21, 1 - g11), and orthonormality of the u, v rows
    over all N sites gives sum_j |x u_j + y v_j|^2 = |x|^2 + |y|^2 - |x g11
    + y g21|^2 - |x g12 + y g22|^2.  4 Re(g22 conj(w)) is evaluated by
    polarization, |g22 + w|^2 - |g22 - w|^2, the two squares the N-wide sums
    carry; the product form rounds differently and moves some written
    averages by one ulp.  Otherwise the law reads the N-wide u, v rows and
    the pair rows of :func:`pair_rows` (the pair sector).
    """
    n = dyn.spec.n_sites
    free = is_free_fermion(dyn.spec)
    rows = propagator_rows(dyn.one, [[1], [2]], [n - 1, n] if free else range(1, n + 1), times)
    if phase_corrected:
        # rotate a_1^{N-1} real positive (sector two by the square)
        block_amp = rows[:, 0, -2]
        safe = np.where(np.abs(block_amp) > 0.0, block_amp, 1.0)
        omega = np.abs(safe) / safe
        rows = rows * omega[:, None, None]
    g11, g12, g21, g22 = rows[:, 0, -2], rows[:, 0, -1], rows[:, 1, -2], rows[:, 1, -1]
    if free:
        w = g11 * g22 - g12 * g21
        t3 = 2.0 * _abs2(1.0 + g22)
        t4 = 2.0 * (1.0 + _abs2(g11)) + _abs2(g22 + w) - _abs2(g22 - w)
    else:
        sites = range(1, n - 1)
        targets = [(n - 1, n)] + [(j, n) for j in sites] + [(j, n - 1) for j in sites]
        pair = pair_rows(dyn, [2], targets, times)
        if phase_corrected:
            pair = pair * (omega**2)[:, None]
        w = pair[:, 0]
        sum_n = _abs2(rows[:, 0, : n - 2] + pair[:, 1 : n - 1]).sum(axis=1)
        sum_m = _abs2(rows[:, 1, : n - 2] + pair[:, n - 1 :]).sum(axis=1)
        t3 = _abs2(1.0 + g22) + _abs2(g11 + w) + sum_n
        t4 = _abs2(1.0 + g11) + _abs2(g22 + w) + sum_m
    t1 = _abs2(1.0 + g11 + g22 + w)
    return _affine_from_traces(t1, 4.0, t3, t4)


def _abs2(z):
    return np.abs(z) ** 2


# ---------------------------------------------------------------------------
# read-out timing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolTuning:
    """Optimal read-out time of a protocol, the average it achieves, and
    the (lo, hi, grid) ``window`` whose scan found it.

    ``phase_corrected`` records whether the maximized average was the
    phase-corrected one (see :func:`phase_correction_applies`); the field
    that realizes it is resolved by :func:`plan_readout`.
    """

    t_opt: float
    achieved_avg_fidelity: float
    phase_corrected: bool
    window: tuple[float, float, int]


def phase_correction_applies(scenario: Scenario, aux_field: bool) -> bool:
    """Whether an auxiliary field nulls the arrival phase in ``scenario``.

    The uniform-channel average is not a function of a single arrival
    phase, so no field is applied there.
    """
    return aux_field and scenario is not Scenario.ONE_QUBIT_UNIFORM


def phase_null_field(spec: ChainSpec, scenario: Scenario, t: float) -> float:
    """Uniform field making the arrival amplitude of ``scenario`` real positive at ``t``.

    Adding a uniform field b shifts the one-excitation sector diagonal by
    -2b under the vacuum gauge, multiplying one-excitation amplitudes by
    exp(2 i b t) (and two-excitation ones by its square); the value returned
    cancels the arrival phase at ``t`` and is the smallest such field in
    magnitude.  The amplitude nulled runs from site 1 to the first site of
    ``scenario.receiver(N)``: a_1^{N-1} for block transfer, the amplitude
    :func:`fidelity_law` rotates, and a_1^N for single-qubit transfer.
    """
    if t <= 0.0 or not np.isfinite(t):
        raise ParameterError(f"phase correction needs a positive time, got {t}")
    dyn = dynamics_for(spec)
    site = scenario.receiver(spec.n_sites)[0]
    amp = complex(propagator_rows(dyn.one, [[1]], [site], [t])[0, 0, 0])
    return float(-np.angle(amp) / (2.0 * t))


def avg_fidelity_curve(
    spec: ChainSpec,
    scenario: Scenario,
    times: np.ndarray,
    phase_corrected: bool = False,
) -> np.ndarray:
    """Average fidelity on a time grid: the mean of :func:`fidelity_law`.

    The grid is evaluated in chunks of TIME_CHUNK (16384) times, which
    bound the law's arrays of one row per time and site.  The propagator
    rows of a chunk of a uniform grid come from giant-step x baby-step
    phase tables (:func:`~spintransfer.dynamics.propagator_rows`), so no
    time x mode phase matrix is formed.
    """
    times = np.asarray(times, dtype=float)
    out = np.empty(times.shape, dtype=float)
    for start in range(0, times.size, TIME_CHUNK):
        sl = slice(start, min(start + TIME_CHUNK, times.size))
        out[sl] = fidelity_law(spec, scenario, times[sl], phase_corrected).mean
    return out


def check_grid(grid: int) -> None:
    """Raise ParameterError for a scan grid of fewer than MIN_SCAN_GRID points."""
    if grid < MIN_SCAN_GRID:
        raise ParameterError(f"grid must be at least {MIN_SCAN_GRID} points, got {grid}")


def find_optimal_time(
    spec: ChainSpec,
    scenario: Scenario,
    window: tuple[float, float],
    grid: int = 2000,
    phase_corrected: bool = True,
) -> ProtocolTuning:
    """Locate the read-out time maximizing the average fidelity.

    A coarse grid scan over ``window`` picks the best sample; golden-section
    refinement around it narrows the time to a relative resolution of 1e-8.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (np.isfinite(t_lo) and np.isfinite(t_hi)) or t_lo >= t_hi:
        raise ParameterError(f"invalid time window {window}")
    check_grid(grid)
    scanned = (t_lo, t_hi, int(grid))
    ts = np.linspace(*scanned)
    curve = avg_fidelity_curve(spec, scenario, ts, phase_corrected)
    best = int(np.argmax(curve))
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, len(ts) - 1)]

    def objective(t: float) -> float:
        return float(
            avg_fidelity_curve(spec, scenario, np.array([t]), phase_corrected)[0]
        )

    t_opt, f_opt = _golden_max(objective, lo, hi, rel_tol=1e-8)
    if curve[best] > f_opt:
        t_opt, f_opt = float(ts[best]), float(curve[best])
    return ProtocolTuning(t_opt, f_opt, phase_correction_applies(scenario, phase_corrected), scanned)


def _golden_max(func, lo: float, hi: float, rel_tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]."""
    scale = max(abs(lo), abs(hi), 1.0)
    tol = rel_tol * scale
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = func(c), func(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = func(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = func(d)
    t_best = 0.5 * (lo + hi)
    return t_best, func(t_best)


def time_for_target_avg(
    spec: ChainSpec,
    scenario: Scenario,
    target: float,
    tuning: ProtocolTuning,
) -> float:
    """Largest read-out time below the optimum with the target average fidelity.

    ``tuning`` is the result of :func:`find_optimal_time` for ``spec`` and
    ``scenario``.  A clock ticks back from t_opt in steps of
    TARGET_WALK_STEP * t_opt down to 0; the average is scanned on blocks of
    TARGET_TICK_BLOCK ticks until one falls below the target.  That tick and
    the one before it bracket the crossing, which bisection narrows to
    |<F> - target| <= 1e-9.  Approaching from the
    early-time flank keeps the result deterministic and mimics a read-out
    slightly before the peak.  Where the average has fringes narrower than
    a tick (two-qubit transfer through the barrier chain) the clock steps
    over some of them; the quoted two-qubit reference table is met at the
    crossing it finds, not at the last one before the peak.

    Raises
    ------
    RangeError
        If the tuned peak average is below the target, or no tick is.
    """
    if not 0.0 < target < 1.0:
        raise ParameterError(f"target must lie in (0, 1), got {target}")
    t_opt, f_peak = tuning.t_opt, tuning.achieved_avg_fidelity
    if f_peak < target:
        raise RangeError(
            f"target average {target} is unreachable: peak value is {f_peak:.9f}"
        )
    if abs(f_peak - target) <= 1e-9:
        return float(t_opt)

    def curve(times) -> np.ndarray:
        return avg_fidelity_curve(spec, scenario, np.asarray(times), tuning.phase_corrected)

    step = max(t_opt * TARGET_WALK_STEP, 1e-9)
    ticks = np.maximum(t_opt - step * np.arange(int(np.ceil(t_opt / step)) + 1), 0.0)
    for start in range(1, ticks.size, TARGET_TICK_BLOCK):
        below = np.flatnonzero(curve(ticks[start : start + TARGET_TICK_BLOCK]) < target)
        if below.size:
            break
    else:
        raise RangeError(f"no crossing of target {target} found below the optimum")
    first = start + below[0]
    lo, hi = float(ticks[first]), float(ticks[first - 1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = float(curve([mid])[0])
        if abs(f_mid - target) <= 1e-9:
            return float(mid)
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# read-out planning (windows, aux field, timing modes)
# ---------------------------------------------------------------------------

def time_window_ladder(kind) -> list[tuple[float, float, int]]:
    """Default scan windows (lo, hi, grid) per protocol, shortest first.

    The weak and barrier protocols transfer on the resonant scale 1/j0
    (or h0) when the relevant bulk mode is on resonance, and on the
    second-order scale 1/j0^2 (h0^2) otherwise, so the ladder tries the
    short window first and widens.  The engineered chain transfers at
    pi/4 regardless of size.
    """
    from .chain import Barrier, Perfect, Weak

    def grid_for(span: float, step: float) -> int:
        return int(min(2_000_000, max(20_000, span / step)))

    if isinstance(kind, Perfect):
        return [(0.0, 2.0, 20_000)]
    if isinstance(kind, Weak):
        scale = 1.0 / kind.j0
    elif isinstance(kind, Barrier):
        scale = kind.h0
    else:
        raise ParameterError(f"unknown protocol kind {kind!r}")
    windows = [16.0 * scale, 2.0 * scale**2, 8.0 * scale**2]
    out = []
    for hi in windows:
        if out and hi <= out[-1][1]:
            continue
        out.append((0.0, hi, grid_for(hi, max(0.01, hi / 400_000.0))))
    return out


def tune_with_ladder(
    spec: ChainSpec,
    scenario: Scenario,
    kind,
    phase_corrected: bool,
) -> ProtocolTuning:
    """Tune over the default window ladder, widening until LADDER_STOP_AVG.

    Returns the tuning of the first window whose peak average reaches
    LADDER_STOP_AVG, or the best over the whole ladder.
    """
    best: ProtocolTuning | None = None
    for lo, hi, grid in time_window_ladder(kind):
        tuning = find_optimal_time(
            spec, scenario, (lo, hi), grid=grid, phase_corrected=phase_corrected
        )
        if best is None or tuning.achieved_avg_fidelity > best.achieved_avg_fidelity:
            best = tuning
        if tuning.achieved_avg_fidelity >= LADDER_STOP_AVG:
            break
    return best


@dataclass(frozen=True)
class ReadoutPlan:
    """Resolved read-out: effective spec, tuned times and auxiliary field."""

    spec: ChainSpec
    scenario: Scenario
    t_opt: float
    t_read: float
    b_aux: float


def plan_readout(
    spec: ChainSpec,
    scenario: Scenario,
    tuning: ProtocolTuning,
    *,
    timing_fraction: float | None = None,
    target_avg: float | None = None,
) -> ReadoutPlan:
    """Resolve the read-out time and auxiliary field from a finished tuning.

    ``tuning`` is the result of :func:`find_optimal_time` (or
    :func:`tune_with_ladder`) for ``spec`` and ``scenario``.  Exactly one of
    three modes applies: read at the optimum (neither ``timing_fraction``
    nor ``target_avg`` given), read with a relative timing error, or read
    at the early-flank time hitting a target average.  A phase-corrected
    tuning folds the uniform field that nulls the arrival phase into the
    returned spec; the field is computed at the tuned optimum, except in
    target mode where it nulls the phase at the read-out time itself.
    """
    if timing_fraction is not None and target_avg is not None:
        raise ParameterError("timing_fraction and target_avg are exclusive")
    if target_avg is not None:
        t_read = time_for_target_avg(spec, scenario, target_avg, tuning)
        t_null = t_read
    elif timing_fraction is not None:
        if not 0.0 <= timing_fraction <= 0.5:
            raise ParameterError(
                f"timing fraction must lie in [0, 0.5], got {timing_fraction}"
            )
        t_read = (1.0 + timing_fraction) * tuning.t_opt
        t_null = tuning.t_opt
    else:
        t_read = tuning.t_opt
        t_null = tuning.t_opt
    b_aux = 0.0
    spec_eff = spec
    if tuning.phase_corrected and t_null > 0.0:
        b_aux = phase_null_field(spec, scenario, t_null)
        spec_eff = spec.with_uniform_field(b_aux)
    return ReadoutPlan(
        spec=spec_eff,
        scenario=scenario,
        t_opt=tuning.t_opt,
        t_read=float(t_read),
        b_aux=b_aux,
    )
