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
rows and the rows of the pair sector, both from
:func:`~spintransfer.dynamics.propagator_rows`; this module is the one
place that chooses between the two paths.

The law is the distribution: :class:`FidelityLaw` derives every statistic
from its rows of coefficients, the mean from the input moments and the
support, density and cdf by a change of variables from the uniform-state
input measures (x uniform on [-1, 1]; concurrence density
3 C sqrt(1 - C^2)).  A row at most ``COLLAPSE_WIDTH`` wide is a step at its
mean, and several rows (read-out jitter) mix with equal weight, all rows
evaluated at once.

The reductions of explicit Kraus sets (:func:`quadratic_reduce_one_qubit`,
:func:`affine_from_kraus`), one law row per read-out time of the set, are
the reference that Monte Carlo and certification use.  Both read the
channel's Pauli transfer matrix, none of the laws' arithmetic.  The Kraus
sets come from the full-space oracle and read none of the sector rows, so
the reductions check the rows, the closed forms and the laws' arithmetic
together.

Tuning maximizes the mean on a time grid, chunk by chunk.  A coarse pass
bounds each chunk from every few grid times by an upper function of the mean
with a known Lipschitz constant (:func:`mean_slope_bound`): the mean itself
for one qubit, and for two qubits a modulus envelope of the receiver block,
which bounds the raw and the phase-corrected mean alike.  A chunk's bound is
its nearest coarse values plus that constant times half the coarse spacing
plus a rounding allowance; chunks whose bound lies below the best value found
are never evaluated, so the tuning is that of the full grid, bit for bit
(Piyavskii, USSR Comput. Math. Math. Phys. 12(4), 1972; Shubert, SIAM J.
Numer. Anal. 9(3), 1972).  The bound reads the columns the law reads
(:func:`_law_columns`); it is infinite, and every chunk evaluated, wherever
the law reads pair rows.

Read-out planning has one place per decision: :func:`tune_with_ladder` the
scan windows, :func:`find_optimal_time` whether the field applies,
:func:`resolve_mode` the timing mode's rules, and :func:`plan_readout` the
read-out ``times``.  :func:`parse_number` is the one number rule of a
configuration, shared by the timing mode and every numeric field of the
config file and of the command line, whose flags are the fields' text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .chain import Barrier, ChainSpec, Perfect, Weak
from .channel import KrausSet, Scenario, pauli_transfer_matrix
from .dynamics import (
    is_free_fermion,
    propagator_rows,
    propagator_slopes,
    sector_spectrum,
)
from .errors import ModelError, NumericError, ParameterError, RangeError

PHI_INDEPENDENCE_TOL = 1e-10
COLLAPSE_WIDTH = 1e-11
TIME_CHUNK = 16384
SCAN_STRIDE = 32
SCAN_ROUNDING = 32.0
# the most a coarse pass's reach may add to a chunk's bound, in units of
# fidelity: a wider reach bounds hardly any chunk below a peak near 1
SCAN_SLACK = 0.1
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
TARGET_WALK_STEP = 1e-4
LADDER_STOP_AVG = 0.995
DEFAULT_TIMING_FRACTION = 0.02
JITTER_MIX_NODES = 41
MIN_SCAN_GRID = 100
# the largest rounding eps R t_hi of a tuning window's phases, R the largest
# raw slope bound of the columns the law reads: the README and bench
# windows reach 1.4e-10
MAX_PHASE_ROUNDING = 1e-6
# A scan holds its times and its curve, 8 B each per grid point: 1 GiB at
# most.  The ladder's own grids stop at 4e5 points.
MAX_SCAN_GRID = 2**30 // 16
NORMALIZATION_NODES = 64


# ---------------------------------------------------------------------------
# fidelity laws: rows of coefficients and the distribution they give
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FidelityLaw:
    """Fidelity laws on a time grid, and the distribution they give.

    Row k of ``coefficients`` is the law at the k-th time, and its width
    decides the form: (a, b, c) of ``F(x) = a x^2 + b x + c`` with x =
    cos(theta) uniform on [-1, 1] for one qubit, (A, B) of
    ``F(C) = A - B C^2`` under the concurrence density 3 C sqrt(1 - C^2)
    for two.  A row's support, density and cdf follow by a change of
    variables.  A row at most ``COLLAPSE_WIDTH`` wide is a step at its mean
    instead: every input transfers alike (perfect transfer).  Fidelities lie
    in [0, 1], so the width is absolute: 1e-11 is 4.5e4 to 1.8e5 ulps for F
    in [0.25, 1].  Several rows (read-out jitter) mix with equal weight:
    ``support``, ``density`` and ``cdf`` are the mixture's, evaluated on all
    rows at once in blocks of at most ``TIME_CHUNK`` (rows x points) values.

    Building a law checks nothing, so the tuning scans, which read only
    :attr:`mean`, pay for no distribution; the first read of the rows as a
    distribution raises ModelError if a row's range leaves [0, 1].
    """

    coefficients: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        """Each row's average over uniform inputs from the input moments,
        a / 3 + c (<x^2> = 1/3) or A - 0.4 B (<C^2> = 2/5).  Tuning
        maximizes it."""
        rows = self.coefficients
        if rows.shape[1] == 2:
            return rows[:, 0] - 0.4 * rows[:, 1]
        return rows[:, 0] / 3.0 + rows[:, 2]

    def evaluate(self, x) -> np.ndarray:
        """Each row's fidelity at x = cos(theta), or at concurrence x for two
        qubits: shape (rows,) + shape of x."""
        x = np.asarray(x, dtype=float)
        rows = self.coefficients
        return _law_at(rows.T.reshape(rows.shape[1], len(rows), *(1,) * x.ndim), x)

    @property
    def _columns(self) -> np.ndarray:
        """The coefficient columns, each shaped (rows, 1)."""
        return self.coefficients.T[:, :, None]

    @cached_property
    def _rows(self):
        """(breakpoints, lo, hi, collapsed) of the rows, their range checked.

        A row's breakpoints are the fidelities where its density kinks or
        has an integrable singularity, both ends of its support among them:
        F(-1), F(1) and, when the vertex lies in (-1, 1), F(vertex) (else
        NaN); or A and A - B.  lo and hi are their extremes, and a row is
        collapsed when hi - lo is at most ``COLLAPSE_WIDTH``.
        """
        columns = self._columns
        if len(columns) == 2:
            xs = np.array([0.0, 1.0])
        else:
            a, b, _ = columns
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                vertex = -b / (2.0 * a)
            inside = (np.abs(a) > 0.0) & (-1.0 < vertex) & (vertex < 1.0)
            xs = np.concatenate(
                np.broadcast_arrays(-1.0, 1.0, np.where(inside, vertex, np.nan)), axis=1
            )
        points = _law_at(columns, xs)
        lo, hi = np.nanmin(points, axis=1), np.nanmax(points, axis=1)
        leaves = (lo < -1e-9) | (hi > 1.0 + 1e-9)
        if leaves.any():
            k = int(np.argmax(leaves))
            raise ModelError(
                f"fidelity law row {k} leaves [0, 1]: range [{lo[k]:.3e}, {hi[k]:.3e}]"
            )
        return points, lo, hi, hi - lo <= COLLAPSE_WIDTH

    def breakpoints(self) -> np.ndarray:
        """Each row's breakpoints, (rows, 3) or (rows, 2), NaN where absent;
        a collapsed row has its mean alone."""
        points, _, _, collapsed = self._rows
        points = np.where(collapsed[:, None], np.nan, points)
        points[collapsed, 0] = self.mean[collapsed]
        return points

    @property
    def support(self) -> tuple[float, float]:
        """(min, max) of the breakpoints of all rows: the range of fidelity values."""
        points = self.breakpoints()
        return float(np.nanmin(points)), float(np.nanmax(points))

    def density(self, f):
        """Equal-weight mean of the rows' densities at f; a collapsed row's is
        inf at its mean and 0 elsewhere."""
        return self._mix(self._row_density, f)

    def cdf(self, f):
        """Equal-weight mean of the rows' cdfs at f; a collapsed row's steps
        from 0 to 1 at its mean."""
        return self._mix(self._row_cdf, f)

    def _mix(self, row_values, f):
        """Equal-weight mean over the rows of ``row_values`` at f, in blocks
        of at most TIME_CHUNK (rows x points) values."""
        f = np.asarray(f, dtype=float)
        flat = f.ravel()
        n_rows = len(self.coefficients)
        step = max(1, TIME_CHUNK // n_rows)
        out = np.empty(flat.size)
        for start in range(0, flat.size, step):
            block = row_values(flat[None, start : start + step])
            # cumsum adds the rows in order, whatever the block's shape; a
            # sum reduction pairs them up where a block is one point wide
            out[start : start + step] = np.cumsum(block, axis=0)[-1] / n_rows
        return float(out[0]) if f.ndim == 0 else out.reshape(f.shape)

    def _row_density(self, f):
        """Each row's density at f (broadcast to rows x points).

        A quadratic row gives each value F with real preimages in [-1, 1]
        density ``1 / (2 sqrt(disc(F)))`` per preimage; an affine row gives
        ``(3 / (2|B|)) sqrt(1 - (A - F) / B)`` between A and A - B.
        """
        _, lo, hi, collapsed = self._rows
        columns = self._columns
        # the masked quotients of collapsed rows may divide by zero
        with np.errstate(divide="ignore", invalid="ignore"):
            if len(columns) == 2:
                big_a, big_b = columns
                ratio = (big_a - f) / big_b
                inside = (ratio >= 0.0) & (ratio <= 1.0)
                root = np.sqrt(np.clip(1.0 - ratio, 0.0, 1.0))
                out = np.where(inside, 1.5 / np.abs(big_b) * root, 0.0)
            else:
                r1, r2, disc, valid = _quadratic_roots(*columns, f)
                weight = np.where(valid & (disc > 0.0), 0.5 / np.sqrt(disc), np.inf)
                out = sum(np.where(valid & (np.abs(r) <= 1.0), weight, 0.0) for r in (r1, r2))
                out = np.where((f < lo[:, None]) | (f > hi[:, None]), 0.0, out)
        step = np.where(f == self.mean[:, None], np.inf, 0.0)
        return np.where(collapsed[:, None], step, out)

    def _row_cdf(self, f):
        """Each row's cdf at f (broadcast to rows x points): 0 up to the
        row's lo and 1 from its hi on."""
        _, lo, hi, collapsed = self._rows
        columns = self._columns
        with np.errstate(divide="ignore", invalid="ignore"):
            if len(columns) == 2:
                big_a, big_b = columns
                rising = 1.0 - np.power(1.0 - np.clip((f - big_a) / (-big_b), 0.0, 1.0), 1.5)
                falling = np.power(1.0 - np.clip((big_a - f) / big_b, 0.0, 1.0), 1.5)
                out = np.where(big_b < 0.0, rising, falling)
            else:
                r1, r2, _, valid = _quadratic_roots(*columns, f)
                inter = np.clip(
                    np.minimum(np.maximum(r1, r2), 1.0) - np.maximum(np.minimum(r1, r2), -1.0),
                    0.0,
                    2.0,
                )
                # the sublevel set lies between the roots for a >= 0 (empty
                # when disc < 0; at a = 0 the far root is infinite and the set
                # a half-line), outside them otherwise (everything at disc < 0)
                measure = np.where(
                    columns[0] >= 0.0,
                    np.where(valid, inter, 0.0),
                    np.where(valid, 2.0 - inter, 2.0),
                )
                out = measure / 2.0
        out = np.where(f <= lo[:, None], 0.0, out)
        out = np.where(f >= hi[:, None], 1.0, out)
        step = np.where(f >= self.mean[:, None], 1.0, 0.0)
        return np.where(collapsed[:, None], step, out)

    def normalization(self) -> float:
        """Mean over the rows of each row's density integrated between its
        own sorted breakpoints (:meth:`segment_masses`); a collapsed row's is 1."""
        masses = self.segment_masses(np.sort(self.breakpoints(), axis=1)).sum(axis=1)
        return float(np.where(self._rows[3], 1.0, masses).mean())

    def segment_masses(self, points) -> np.ndarray:
        """Each row's density integrated over the segments between sorted
        ``points``: one 1-D array for every row, or one row of points per law
        row, NaN last.  An empty segment, or one with a NaN end, has mass 0.
        Returns (rows, segments).

        Each segment [p, q] takes a ``NORMALIZATION_NODES``-point
        Gauss-Legendre rule in tau of f = l + (r - l) (1 - cos tau) / 2,
        over the tau that map onto [p, q].  The anchors are l = p and r = q
        unless :meth:`_anchors` moves one onto a nearby singular point
        outside the segment.  The Jacobian (r - l) sin(tau) / 2 cancels
        inverse-square-root singularities of the density at the anchors, so
        the rule sees a smooth integrand as long as no singular point lies
        inside a segment.  Rows go through in blocks of at most TIME_CHUNK
        density values.
        """
        points = np.asarray(points, dtype=float)
        n_rows = len(self.coefficients)
        points = np.broadcast_to(points, (n_rows, points.shape[-1]))
        step = max(1, TIME_CHUNK // (NORMALIZATION_NODES * points.shape[1]))
        if n_rows > step:
            return np.concatenate([
                FidelityLaw(self.coefficients[s : s + step]).segment_masses(points[s : s + step])
                for s in range(0, n_rows, step)
            ])
        lo, hi = points[:, :-1], points[:, 1:]
        left, right = self._anchors(lo, hi)
        span = right - left
        nodes, weights = _gauss_legendre()
        # empty and NaN segments give NaN masses, dropped at the end
        with np.errstate(divide="ignore", invalid="ignore"):
            # tau of p and q, from (1 - cos tau) / 2 = sin^2(tau / 2) = (f - l) / (r - l)
            tau_p = 2.0 * np.arcsin(np.sqrt(np.clip((lo - left) / span, 0.0, 1.0)))
            tau_q = 2.0 * np.arcsin(np.sqrt(np.clip((hi - left) / span, 0.0, 1.0)))
            half = 0.5 * (tau_q - tau_p)[..., None]
            tau = tau_p[..., None] + half * (nodes + 1.0)
            f = left[..., None] + span[..., None] * np.sin(0.5 * tau) ** 2
            density = self._row_density(f.reshape(n_rows, -1)).reshape(f.shape)
            jacobian = 0.5 * span[..., None] * np.sin(tau) * half * weights
            masses = (density * jacobian).sum(axis=-1)
        return np.where(hi > lo, masses, 0.0)

    def _anchors(self, lo: np.ndarray, hi: np.ndarray):
        """Substitution anchors (l, r) of each row's segments [lo, hi]: the
        ends, moved onto a quadratic row's vertex value F(-b / 2a) where it
        lies outside a segment by at most the segment's width.

        The density is singular at the vertex value only, whether or not the
        vertex lies in [-1, 1].  A segment that ends near that value without
        reaching it (the vertex just outside [-1, 1], or a segment next to
        the one the vertex value ends) would otherwise see a
        near-singularity the rule cannot resolve.
        """
        columns = self._columns
        if len(columns) == 2:
            return lo, hi
        a, b, _ = columns
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vertex = _law_at(columns, np.where(a == 0.0, np.nan, -b / (2.0 * a)))
        width = hi - lo
        left = np.where((vertex <= lo) & (lo - vertex <= width), vertex, lo)
        right = np.where((vertex >= hi) & (vertex - hi <= width), vertex, hi)
        return left, right


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The ``NORMALIZATION_NODES``-point Gauss-Legendre nodes and weights on
    [-1, 1], read-only.  ``leggauss`` takes most of a one-row
    :meth:`FidelityLaw.normalization`, so the rule is computed once, and
    ``numpy.polynomial`` is imported on the first call only."""
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(NORMALIZATION_NODES)
    for array in rule:
        array.flags.writeable = False
    return rule


def _law_at(columns, x):
    """a x^2 + b x + c, or A - B x^2, of coefficient ``columns`` broadcast with x."""
    if len(columns) == 2:
        return columns[0] - columns[1] * np.square(x)
    return (columns[0] * x + columns[1]) * x + columns[2]


def _quadratic_roots(a, b, c, f):
    """Stable roots of a x^2 + b x + (c - f) = 0, broadcast over rows and f;
    at a = 0 (or -0.0) the first is -sign(b) inf and the second (f - c) / b."""
    a = a + 0.0
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


def _checked_law(*columns) -> FidelityLaw:
    """The law whose coefficient columns are ``columns`` (scalars for one
    row); ModelError if a row leaves [0, 1]."""
    law = FidelityLaw(np.column_stack(columns).astype(float))
    law.breakpoints()  # the range check
    return law


# ---------------------------------------------------------------------------
# exact reductions of Kraus sets, and the vacuum closed forms
# ---------------------------------------------------------------------------

def quadratic_reduce_one_qubit(kraus: KrausSet) -> FidelityLaw:
    """Exact azimuth average of a one-qubit channel's fidelity, one law row
    per time of ``kraus``.

    Reads the channel's Pauli transfer matrix R at each time
    (:func:`~spintransfer.channel.pauli_transfer_matrix`).  The input with
    Bloch vector r~ = (1, s cos(phi), s sin(phi), x), s^2 = 1 - x^2,
    transfers with fidelity 1/2 r~^T R r~.  When the azimuth-dependent
    entries vanish, the fidelity is the quadratic
    ``F(x) = (R33/2 - (R11 + R22)/4) x^2 + (R03 + R30)/2 x + R00/2 + (R11 + R22)/4``.

    Raises
    ------
    ModelError
        If an entry of R + R^T at (0, 1), (0, 2), (1, 2), (1, 3) or (2, 3),
        or R11 - R22, exceeds 1e-10 at some time, i.e. the fidelity depends
        on the azimuth and no quadratic in cos(theta) describes it; or if a
        quadratic leaves [0, 1].  The message names the first such row.
    """
    if kraus.dim != 2:
        raise ParameterError("quadratic reduction applies to one-qubit channels")
    ptm = pauli_transfer_matrix(kraus)
    sym = ptm + ptm.swapaxes(1, 2)
    i, j = np.array([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).T
    cross = np.maximum(np.abs(sym[:, i, j]).max(axis=1), np.abs(ptm[:, 1, 1] - ptm[:, 2, 2]))
    bad = np.flatnonzero(cross > PHI_INDEPENDENCE_TOL)
    if bad.size:
        raise ModelError(
            f"channel fidelity varies with the azimuth at row {bad[0]}: "
            f"cross term {cross[bad[0]]:.3e}"
        )
    transverse = (ptm[:, 1, 1] + ptm[:, 2, 2]) / 4.0
    return _checked_law(
        ptm[:, 3, 3] / 2.0 - transverse, sym[:, 0, 3] / 2.0, ptm[:, 0, 0] / 2.0 + transverse
    )


def vacuum_quadratic(r: float, phi: float) -> FidelityLaw:
    """Closed-form one-row law of the vacuum channel with amplitude r e^{i phi}."""
    _check_r(r)
    return _checked_law(*_vacuum_coefficients(r * r, r * np.cos(phi)))


def _vacuum_coefficients(r2, re) -> tuple:
    """(a, b, c) of the vacuum law from |a_1^N|^2 and the real part of the
    arrival amplitude (its modulus once the phase is corrected)."""
    return (r2 - re) / 2.0, (1.0 - r2) / 2.0, (1.0 + re) / 2.0


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


def affine_from_kraus(kraus: KrausSet) -> FidelityLaw:
    """Local-unitary-averaged fidelity of a two-qubit channel, one law row per
    time of ``kraus``.

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
    diag = np.diagonal(pauli_transfer_matrix(kraus), axis1=1, axis2=2).reshape(-1, 4, 4)
    c1, c2 = diag[:, 1:, 0].mean(axis=1), diag[:, 0, 1:].mean(axis=1)
    c3 = diag[:, 1:, 1:].mean(axis=(1, 2))
    return _checked_law(
        (diag[:, 0, 0] + c1 + c2 + c3) / 4.0, (c1 + c2 - 2.0 * c3) / 4.0
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
    if quad_form.coefficients[0, 0] <= 0.0:
        # degenerate vertex (r = 1, phi = 0): minimum still at the pole
        return MinFidelityResult(np.pi, r * r, MinBranch.POLE_PHASE)
    x_star = (r * r - 1.0) / (2.0 * r * (r - cos_phi))
    x_star = float(np.clip(x_star, -1.0, 1.0))
    return MinFidelityResult(
        float(np.arccos(x_star)),
        float(quad_form.evaluate(x_star)[0]),
        MinBranch.INTERIOR_VERTEX,
    )


# ---------------------------------------------------------------------------
# fidelity laws from amplitude rows
# ---------------------------------------------------------------------------

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
    out of the occupied sites 2..N-1 (the latter :func:`propagator_rows`
    of the pair sector); the weight of the double excitations
    that avoid the receiver follows from unitarity of the normalized pair
    row.  Memory grows as len(times) times the number of amplitudes read;
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
    n = spec.n_sites
    times = np.asarray(times, dtype=float)
    rows = [propagator_rows(*column, times) for column in _law_columns(spec, scenario)]
    if scenario is Scenario.ONE_QUBIT_VACUUM:
        amp = rows[0][:, 0, 0]
        modulus = np.abs(amp)
        coefficients = _vacuum_coefficients(modulus ** 2, modulus if phase_corrected else amp.real)
    elif scenario is Scenario.ONE_QUBIT_UNIFORM and len(rows) == 1:
        # free-fermion: a = a_1^N and S = sum_{j=2}^{N-1} a_j^N; row orthonormality
        # collapses the sums over the receiver-free sites of the row law
        amp, summed = rows[0][:, 0, 0], rows[0][:, 1, 0]
        r2 = np.abs(amp) ** 2
        coefficients = (
            (r2 + amp.real) / 2.0,
            (1.0 - r2) / 2.0 - np.abs(summed) ** 2 / (n - 2),
            (1.0 - amp.real) / 2.0,
        )
    elif scenario is Scenario.ONE_QUBIT_UNIFORM:
        # Kraus diagonals (alpha_k, beta_k), k = 1..N-1, unnormalized by
        # the sqrt(N - 2) of the initial state
        alpha, beta = rows[0][:, 0], rows[1][:, 0]
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
        coefficients = _two_qubit_law(n, rows[0], rows[1] if len(rows) > 1 else None,
                                      phase_corrected)
    return FidelityLaw(np.stack(coefficients, axis=-1))


def _law_columns(spec: ChainSpec, scenario: Scenario) -> list[tuple]:
    """The (sector, sources, targets) of each :func:`propagator_rows` call
    of :func:`fidelity_law`: the one-excitation rows, then the pair rows
    where the law reads them (the occupied and two-qubit laws of chains
    that are not free-fermion)."""
    scenario.check_sites(spec.n_sites)
    n = spec.n_sites
    one = sector_spectrum(spec, 1)
    if scenario is Scenario.ONE_QUBIT_VACUUM:
        return [(one, [[1]], [n])]
    free = is_free_fermion(spec)
    if scenario is Scenario.ONE_QUBIT_UNIFORM:
        occupied = scenario.occupied(n)
        if free:
            return [(one, [[1], occupied], [n])]
        pairs = [[(1, j) for j in occupied]]
        return [(one, [occupied], range(1, n + 1)),
                (sector_spectrum(spec, 2), pairs, [(k, n) for k in range(1, n)])]
    if free:
        return [(one, [[1], [2]], [n - 1, n])]
    sites = range(1, n - 1)
    targets = [(n - 1, n)] + [(j, n) for j in sites] + [(j, n - 1) for j in sites]
    return [(one, [[1], [2]], range(1, n + 1)), (sector_spectrum(spec, 2), [[(1, 2)]], targets)]


def _two_qubit_law(n: int, rows: np.ndarray, pair: np.ndarray | None,
                   phase_corrected: bool = False):
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
    the pair rows out of (1, 2), :func:`propagator_rows` of the pair sector.
    ``rows`` and ``pair`` are those of :func:`_law_columns` on an N-site
    chain, ``pair`` None where the law reads no pair row.
    """
    if phase_corrected:
        # rotate a_1^{N-1} real positive (sector two by the square)
        block_amp = rows[:, 0, -2]
        safe = np.where(np.abs(block_amp) > 0.0, block_amp, 1.0)
        omega = np.abs(safe) / safe
        rows = rows * omega[:, None, None]
    g11, g12, g21, g22 = rows[:, 0, -2], rows[:, 0, -1], rows[:, 1, -2], rows[:, 1, -1]
    if pair is None:
        w = g11 * g22 - g12 * g21
        t3 = 2.0 * _abs2(1.0 + g22)
        t4 = 2.0 * (1.0 + _abs2(g11)) + _abs2(g22 + w) - _abs2(g22 - w)
    else:
        pair = pair[:, 0]
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
    phase-corrected one, as :func:`find_optimal_time` decided it; the field
    that realizes it is resolved by :func:`plan_readout`.
    """

    t_opt: float
    achieved_avg_fidelity: float
    phase_corrected: bool
    window: tuple[float, float, int]


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
    site = scenario.receiver(spec.n_sites)[0]
    amp = complex(propagator_rows(sector_spectrum(spec, 1), [[1]], [site], [t])[0, 0, 0])
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
    if times.ndim != 1 or times.size == 0:
        # no grid to chunk: the law's propagator_rows rejects the times
        return fidelity_law(spec, scenario, times, phase_corrected).mean
    out = np.empty(times.shape, dtype=float)
    for start in range(0, times.size, TIME_CHUNK):
        sl = slice(start, min(start + TIME_CHUNK, times.size))
        out[sl] = fidelity_law(spec, scenario, times[sl], phase_corrected).mean
    return out


def mean_slope_bound(scenario: Scenario, slopes: list, phase_corrected: bool = False) -> float:
    """Upper bound on the slope of :func:`_upper_curve` at every time: of
    the mean for one qubit, of its modulus envelope for two.

    ``slopes`` holds the :func:`~spintransfer.dynamics.propagator_slopes`
    (R, C) of each column of :func:`_law_columns`, the amplitudes the mean
    reads: R = sum_m |w_m L_m| and the centred C = min_c sum_m |w_m| |L_m -
    c| of a = a_1^N (the first entry of the first column), or C_ij of the
    receiver block g_ij of :func:`_two_qubit_law`.  Every amplitude has
    modulus at most 1, and C bounds the slope of its modulus.

    - vacuum, phase corrected: 1/2 + |a|^2/6 + |a|/3 moves at most (2/3) C;
    - vacuum raw, and the occupied channel of a free-fermion chain (whose
      mean 1/3 + |1 - a|^2/6 ignores the correction): 1/2 + |a|^2/6 +/- Re a/3
      moves at most (C + R)/3;
    - two qubits on a free-fermion chain, raw or phase corrected: the
      envelope (min(e, 4)^2 + 4)/20 with e = (1 + |g11|)(1 + |g22|) +
      |g12||g21| moves at most (2/5)(2 C11 + 2 C22 + C12 + C21);
    - inf where the law reads pair rows (a second column).
    """
    if len(slopes) > 1:
        return float("inf")
    raw, centred = slopes[0]
    if scenario is Scenario.TWO_QUBIT_VACUUM:
        (c11, c12), (c21, c22) = centred
        return float(0.4 * (2.0 * c11 + 2.0 * c22 + c12 + c21))
    if scenario is Scenario.ONE_QUBIT_VACUUM and phase_corrected:
        return float(2.0 * centred[0, 0] / 3.0)
    return float((centred[0, 0] + raw[0, 0]) / 3.0)


def check_grid(grid: int) -> None:
    """Raise ParameterError for a scan grid outside [MIN_SCAN_GRID, MAX_SCAN_GRID]."""
    if not MIN_SCAN_GRID <= grid <= MAX_SCAN_GRID:
        raise ParameterError(
            f"grid must lie in [{MIN_SCAN_GRID}, {MAX_SCAN_GRID}] points, got {grid}"
        )


def find_optimal_time(
    spec: ChainSpec,
    scenario: Scenario,
    window: tuple[float, float],
    grid: int = 2000,
    phase_corrected: bool = True,
) -> ProtocolTuning:
    """Locate the read-out time maximizing the average fidelity.

    A grid scan over ``window`` picks the best sample; golden-section
    refinement around it narrows the time to a relative resolution of 1e-8.
    The scan evaluates only the TIME_CHUNK chunks of the grid that can hold
    its maximum (:func:`_pruned_curve`): a coarse pass reads an upper
    function of the mean (:func:`_upper_curve`) at every stride-th grid time
    and the last, and each chunk's bound is its nearest coarse values plus
    :func:`mean_slope_bound` times stride / 2 steps plus a rounding
    allowance.  Chunks are evaluated in order of falling bound until the
    next bound is below the best value found.  Where even a stride of 2
    would add more than SCAN_SLACK to the bounds (a law that reads pair
    rows has an infinite slope bound) or the grid is one chunk, every chunk
    is evaluated, with no coarse pass.  The best sample, its value and so
    the result are those of the full grid scan, bit for bit.
    The window is finite, ordered and starts at 0 or later: a read-out
    before the transfer starts is no read-out, and :func:`plan_readout`
    nulls no phase at t <= 0.  A window whose phases carry no information
    is a NumericError naming it: the amplitudes' rounding at its end, eps R
    t_hi with R the largest raw bound of
    :func:`~spintransfer.dynamics.propagator_slopes` over every column the
    law reads (:func:`_law_columns`, pair rows included), must stay within
    MAX_PHASE_ROUNDING; :func:`mean_slope_bound` reads the same slopes.  The
    scan and the refinement run with numpy's overflow, invalid and divide
    errors raised; such an error, or a scanned or refined average that is
    not finite (a quiet NaN raises no error), is a NumericError naming the
    window too.
    ``phase_corrected`` asks for the field that nulls the arrival phase;
    this is the one place deciding whether it applies.  The occupied channel
    takes none: its average is not a function of a single arrival phase.
    """
    phase_corrected = bool(phase_corrected) and scenario is not Scenario.ONE_QUBIT_UNIFORM
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (np.isfinite(t_lo) and np.isfinite(t_hi)) or t_lo >= t_hi:
        raise ParameterError(f"invalid time window {window}")
    if t_lo < 0.0:
        raise ParameterError(f"time window {window} starts below 0")
    check_grid(grid)
    slopes = [propagator_slopes(*column) for column in _law_columns(spec, scenario)]
    rate = float(max(raw.max() for raw, _ in slopes))
    slope = mean_slope_bound(scenario, slopes, phase_corrected)
    rounding = np.finfo(float).eps * rate * t_hi
    if rounding > MAX_PHASE_ROUNDING:
        raise NumericError(
            f"time window {window} is too long to evaluate: its phases round by "
            f"eps R t_hi = {rounding:.3g}, above {MAX_PHASE_ROUNDING:g}"
        )
    scanned = (t_lo, t_hi, int(grid))
    ts = np.linspace(*scanned)

    def objective(t: float) -> float:
        return float(
            avg_fidelity_curve(spec, scenario, np.array([t]), phase_corrected)[0]
        )

    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            curve = _pruned_curve(spec, scenario, ts, phase_corrected, slope)
            best = int(np.argmax(curve))
            lo = ts[max(best - 1, 0)]
            hi = ts[min(best + 1, len(ts) - 1)]
            t_opt, f_opt = _golden_max(objective, lo, hi, rel_tol=1e-8)
    except FloatingPointError as exc:
        raise NumericError(
            f"the average fidelity on time window {window} meets a floating-point "
            f"error ({exc}): the window is too long to evaluate"
        ) from exc
    # argmax picks the first NaN, so a non-finite scan shows at its best sample
    if not np.isfinite([curve[best], f_opt]).all():
        raise NumericError(
            f"the average fidelity on time window {window} is not finite "
            f"(scan {curve[best]}, refined {f_opt}): the window is too long to evaluate"
        )
    if curve[best] > f_opt:
        t_opt, f_opt = float(ts[best]), float(curve[best])
    return ProtocolTuning(t_opt, f_opt, phase_corrected, scanned)


def _pruned_curve(
    spec: ChainSpec, scenario: Scenario, ts: np.ndarray, phase_corrected: bool, slope: float
) -> np.ndarray:
    """:func:`avg_fidelity_curve` on the grid ``ts``, -inf on the chunks
    that cannot hold its maximum.

    Each TIME_CHUNK chunk is the slice :func:`avg_fidelity_curve` would
    evaluate, taken in order of falling upper bound (:func:`_chunk_bounds`
    with the :func:`mean_slope_bound` ``slope``; all infinite on a grid of
    one chunk) until the next bound lies below the best value found.  A
    skipped chunk holds no value that high, so the argmax and the value
    there are those of the full grid, bit for bit.
    """
    starts = range(0, ts.size, TIME_CHUNK)
    bounds = np.full(len(starts), np.inf)
    if len(starts) > 1:
        bounds = _chunk_bounds(spec, scenario, ts, phase_corrected, slope)
    curve = np.full(ts.size, -np.inf)
    best = -np.inf
    for k in np.argsort(-bounds, kind="stable"):
        if bounds[k] < best:
            break
        chunk = slice(starts[k], starts[k] + TIME_CHUNK)
        curve[chunk] = avg_fidelity_curve(spec, scenario, ts[chunk], phase_corrected)
        best = max(best, float(curve[chunk].max()))
    return curve


def _chunk_bounds(
    spec: ChainSpec, scenario: Scenario, ts: np.ndarray, phase_corrected: bool, slope: float
) -> np.ndarray:
    """Upper bounds on the mean over each TIME_CHUNK chunk of the grid ``ts``.

    The stride is the longest of SCAN_STRIDE, SCAN_STRIDE / 2, ..., 2 whose
    reach of stride / 2 steps moves :func:`_upper_curve` by at most
    SCAN_SLACK at the rate ``slope``; where even 2 reaches further, every
    bound is infinite, with no coarse pass.  A coarse pass reads the upper
    curve at every stride-th grid time (an arithmetic grid, so
    :func:`~spintransfer.dynamics.propagator_rows` factors it) and the last
    one, so every grid time lies within the reach of a coarse time.  A
    chunk's bound is the largest coarse value within that reach of it, plus
    ``slope`` times the reach (and the times' own rounding, 4 eps max|t|),
    plus a rounding allowance.
    The coarse and the chunk pass evaluate a time on different giant steps;
    each pass's amplitudes lie within the documented 4 eps max|L| max|t|
    sum_m |w_m| of the direct path's (sum_m |w_m| <= 1 for one source and one
    target), and within eps max|L| max|t| more of the exact ones.  The mean
    and the envelope move by at most 12/5 per unit change of the amplitudes
    (two qubits; 2/3 for one), so SCAN_ROUNDING = 32 >= 2 * 5 * 12/5 covers
    both passes, and N eps more the rounding of the sums over N modes.  A
    chunk whose coarse values are not all finite has an infinite bound.
    """
    n_chunks = -(-ts.size // TIME_CHUNK)
    step = (ts[-1] - ts[0]) / (ts.size - 1)
    stride = SCAN_STRIDE
    while slope * (stride // 2) * step > SCAN_SLACK:
        if stride == 2:
            return np.full(n_chunks, np.inf)
        stride //= 2
    values = _upper_curve(spec, scenario, ts[::stride], phase_corrected)
    index = np.arange(0, ts.size, stride)
    if index[-1] != ts.size - 1:
        index = np.append(index, ts.size - 1)
        values = np.append(values, _upper_curve(spec, scenario, ts[-1:], phase_corrected))
    eps = np.finfo(float).eps
    t_max = float(np.abs(ts).max())
    reach = stride // 2
    eigen = float(np.abs(sector_spectrum(spec, 1).eigenvalues).max())
    allowance = SCAN_ROUNDING * eps * (eigen * t_max + spec.n_sites)
    slack = slope * (reach * step + 4.0 * eps * t_max) + allowance
    bounds = []
    for start in range(0, ts.size, TIME_CHUNK):
        lo = np.searchsorted(index, start - reach)
        hi = np.searchsorted(index, start + TIME_CHUNK - 1 + reach, side="right")
        cover = values[lo:hi]
        bounds.append(float(cover.max()) + slack if np.isfinite(cover).all() else np.inf)
    return np.array(bounds)


def _upper_curve(
    spec: ChainSpec, scenario: Scenario, times: np.ndarray, phase_corrected: bool
) -> np.ndarray:
    """An upper function of :func:`avg_fidelity_curve` on ``times``, the one
    :func:`mean_slope_bound` bounds the slope of.

    For one qubit it is the mean itself.  For two qubits on a free-fermion
    chain (the one law :func:`mean_slope_bound` keeps finite) it is the
    modulus envelope (min(e, 4)^2 + 4)/20, e = (1 + |g11|)(1 + |g22|) +
    |g12||g21| of the receiver block G: the mean is (t1 + 4)/20 with t1 =
    |1 + g11' + g22' + det G'|^2 <= 16 and G' = omega G for a unit omega (1,
    or the phase correction's rotation), and |det G| <= |g11||g22| +
    |g12||g21|, so the envelope bounds the raw and the phase-corrected mean
    alike.  It reads the one column of :func:`_law_columns` in chunks of
    TIME_CHUNK times.
    """
    if scenario is not Scenario.TWO_QUBIT_VACUUM:
        return avg_fidelity_curve(spec, scenario, times, phase_corrected)
    (column,) = _law_columns(spec, scenario)
    out = np.empty(times.size)
    for start in range(0, times.size, TIME_CHUNK):
        block = np.abs(propagator_rows(*column, times[start : start + TIME_CHUNK]))
        (g11, g12), (g21, g22) = block.transpose(1, 2, 0)
        e = (1.0 + g11) * (1.0 + g22) + g12 * g21
        out[start : start + TIME_CHUNK] = (np.minimum(e, 4.0) ** 2 + 4.0) / 20.0
    return out


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
    """A read-out time below the optimum with the target average fidelity:
    the first crossing a clock ticking back from the optimum meets.

    ``tuning`` is the result of :func:`find_optimal_time` for ``spec`` and
    ``scenario``.  A clock ticks back from t_opt in steps of
    TARGET_WALK_STEP * t_opt down to 0, at most 10 002 ticks (well inside
    one TIME_CHUNK), and the average is evaluated on all of them in one
    :func:`avg_fidelity_curve` call.  The first tick below the target and
    the one before it bracket the crossing, which bisection narrows to
    |<F> - target| <= 1e-9.  Approaching from the early-time flank keeps
    the result deterministic and mimics a read-out slightly before the
    peak.  Where the average has fringes narrower than a tick (two-qubit
    transfer through the barrier chain) the clock steps over some of them;
    the quoted two-qubit reference table is met at the crossing it finds,
    not at the last one before the peak.

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
    below = np.flatnonzero(curve(ticks[1:]) < target)
    if not below.size:
        raise RangeError(f"no crossing of target {target} found below the optimum")
    first = 1 + below[0]
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
    pi/4 regardless of size.  A ``j0`` or ``h0`` that puts a window past the
    float range is a ParameterError naming it.
    """
    if isinstance(kind, Perfect):
        return [(0.0, 2.0, 20_000)]
    if isinstance(kind, Weak):
        strength, scale = f"j0={kind.j0!r}", 1.0 / kind.j0
    elif isinstance(kind, Barrier):
        strength, scale = f"h0={kind.h0!r}", kind.h0
    else:
        raise ParameterError(f"unknown protocol kind {kind!r}")
    windows = [16.0 * scale, 2.0 * scale * scale, 8.0 * scale * scale]
    if not np.isfinite(windows).all():
        raise ParameterError(
            f"{kind.label} {strength} puts the scan windows {windows} beyond the float range"
        )
    out = []
    for hi in windows:
        if out and hi <= out[-1][1]:
            continue
        # steps of 0.01, or of hi / 4e5 where longer: 2e4 to 4e5 points
        step = max(0.01, hi / 400_000.0)
        out.append((0.0, hi, int(max(20_000, hi / step))))
    return out


def tune_with_ladder(
    spec: ChainSpec,
    scenario: Scenario,
    kind,
    aux_field: bool,
    window: tuple[float, float] | None = None,
    grid: int | None = None,
) -> ProtocolTuning:
    """Tune ``spec`` on an explicit ``window`` at ``grid`` points (200 000 by
    default), or over the default window ladder, widening until a peak
    reaches LADDER_STOP_AVG (else the best window wins), then rescanning
    the ladder's window when ``grid`` differs from its own.  An explicit
    window is a ladder of one window at its own grid.  Every scan
    maximizes the average ``aux_field`` asks for (see :func:`find_optimal_time`).
    """
    ladder = time_window_ladder(kind) if window is None else [(*window, grid or 200_000)]
    best: ProtocolTuning | None = None
    for lo, hi, ladder_grid in ladder:
        tuning = find_optimal_time(
            spec, scenario, (lo, hi), grid=ladder_grid, phase_corrected=aux_field
        )
        if best is None or tuning.achieved_avg_fidelity > best.achieved_avg_fidelity:
            best = tuning
        if tuning.achieved_avg_fidelity >= LADDER_STOP_AVG:
            break
    if grid and grid != best.window[2]:
        return find_optimal_time(spec, scenario, best.window[:2], grid, aux_field)
    return best


@dataclass(frozen=True)
class ReadoutPlan:
    """Resolved read-out: the tuning, the effective spec (field folded in)
    and the ``times`` law and Monte Carlo read: ``[t_read]`` or jitter nodes."""

    spec: ChainSpec
    scenario: Scenario
    tuning: ProtocolTuning
    t_read: float
    b_aux: float
    times: np.ndarray

    @property
    def t_opt(self) -> float:
        return self.tuning.t_opt


def parse_number(field: str, value, kind=float):
    """``kind(value)``, or a ParameterError naming ``field``.

    The one number rule of a configuration, for a config file's fields and
    for the flags, which are their text: a number or numeric text, never a
    boolean.  An int field takes no fractional part: 10.7 or ``"8.5"`` is
    an error, not 10 or 8, while integral floats and their text pass (1e6,
    ``"1e6"`` and ``"22.0"``).  Text is read with ``int()`` first, so a large
    integer stays exact.  An integer too large for a float is no float
    either.
    """
    noun = "an integer" if kind is int else "a number"
    error = ParameterError(f"{field} must be {noun}, got {value!r}")
    if isinstance(value, bool):
        raise error
    try:
        if kind is int and isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                value = float(value)
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error from exc
    if kind is int and number != value:  # a fractional part, cut off
        raise error
    return number


def resolve_mode(mode: dict | None, jitter: bool = False) -> dict:
    """The timing mode that runs: ``mode`` checked and in canonical form.

    ``mode`` is a configuration's timing mode, a dict (None or empty is
    ``at_optimal``).  Each type takes at most one number, as a number or
    numeric text but never a boolean: ``timing_error`` its ``fraction`` in
    [0, 0.5] (DEFAULT_TIMING_FRACTION when omitted), ``target_avg`` its
    ``value`` in (0.5, 1).  ``jitter`` applies to ``timing_error`` only.
    Returns ``{"type": ...}`` plus the type's number as a float; an unknown
    type, a key the type does not take or a bad number is a ParameterError.
    """
    if mode is not None and not isinstance(mode, dict):
        raise ParameterError(f"mode must be a JSON object, got {mode!r}")
    mode = dict(mode or {"type": "at_optimal"})
    mode_type = mode.pop("type", None)
    takes = {"at_optimal": None, "timing_error": "fraction", "target_avg": "value"}
    if not isinstance(mode_type, str) or mode_type not in takes:
        raise ParameterError(f"unknown mode type {mode_type!r}")
    key = takes[mode_type]
    if key == "fraction":
        mode.setdefault(key, DEFAULT_TIMING_FRACTION)
    stray = sorted(str(name) for name in mode if name != key)
    if stray:
        raise ParameterError(f"mode {mode_type} does not take {', '.join(stray)}")
    resolved = {"type": mode_type}
    if key is not None:
        resolved[key] = parse_number(f"mode {key}", mode.get(key))
    if key == "fraction" and not 0.0 <= resolved[key] <= 0.5:
        raise ParameterError(f"timing_error fraction must lie in [0, 0.5], got {resolved[key]}")
    if jitter and mode_type != "timing_error":
        raise ParameterError(f"jitter applies to the timing_error mode, not {mode_type}")
    if key == "value" and not 0.5 < resolved[key] < 1.0:
        raise ParameterError(f"target_avg value must lie in (0.5, 1), got {resolved[key]}")
    return resolved


def plan_readout(
    spec: ChainSpec,
    scenario: Scenario,
    tuning: ProtocolTuning,
    mode: dict | None = None,
    *,
    jitter: bool = False,
) -> ReadoutPlan:
    """Resolve the read-out times and auxiliary field from a finished tuning.

    ``tuning`` is the result of :func:`find_optimal_time` (or
    :func:`tune_with_ladder`) for ``spec`` and ``scenario``; ``mode`` is a
    configuration's timing mode, checked by :func:`resolve_mode`:
    ``{"type": "at_optimal"}`` (the default), ``{"type": "timing_error",
    "fraction": f}`` read at (1 + f) t_opt, or ``{"type": "target_avg",
    "value": v}`` at the early-flank time of average v.  ``jitter`` spreads a
    timing error over JITTER_MIX_NODES equal-weight times t_opt (1 - f) ...
    t_opt (1 + f) instead, read out around t_opt.  A phase-corrected tuning
    folds the field that nulls the arrival phase into the returned spec,
    computed at t_opt, or at t_read in target mode.
    """
    mode = resolve_mode(mode, jitter)
    t_read = t_null = tuning.t_opt
    if mode["type"] == "target_avg":
        t_read = t_null = time_for_target_avg(spec, scenario, mode["value"], tuning)
    elif mode["type"] == "timing_error" and not jitter:
        t_read = (1.0 + mode["fraction"]) * tuning.t_opt
    if jitter:
        fraction = mode["fraction"]
        times = tuning.t_opt * np.linspace(1.0 - fraction, 1.0 + fraction, JITTER_MIX_NODES)
    else:
        times = np.array([float(t_read)])
    b_aux = 0.0
    spec_eff = spec
    if tuning.phase_corrected and t_null > 0.0:
        b_aux = phase_null_field(spec, scenario, t_null)
        spec_eff = spec.with_uniform_field(b_aux)
    return ReadoutPlan(spec_eff, scenario, tuning, float(t_read), b_aux, times)
