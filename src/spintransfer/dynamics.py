"""Exact sector propagators and the transition-amplitude rows.

Time evolution is evaluated from a one-off dense eigendecomposition of each
sector Hamiltonian rather than by time stepping: the protocols of interest
reach their working point at long times (weak effective couplings), where
steppers accumulate error but the spectral form stays exact.
:func:`sector_spectrum` caches the spectral data per chain spec and
excitation number q in {1, 2}; a sector is diagonalised the first time a
reader asks for it.  :func:`propagator_rows`, on the one- or the
two-excitation sector, is the one amplitude evaluator of the fidelity
laws, which read it on whole time grids and at single times.
The Kraus sets of :mod:`~spintransfer.channel` read none of it: they come
from the full-space oracle, so Monte Carlo checks these rows independently.
:func:`propagator_at`, the full propagator of a sector at one time, is
kept as the full-sector reference for certification.
The tuning scans hand :func:`propagator_rows` arithmetic grids, which it
evaluates as products of a giant-step and a baby-step phase table; single
times, short or non-uniform grids take the full phase matrix.  Both paths
round the phase arguments L t alike, so they agree to
4 eps max|L| max|t| sum_m |w_m| per row, w being the row's mode weights.
:func:`propagator_slopes` reads the same weights and bounds how fast a row,
and its modulus, can move in time: the Lipschitz constants of the tuning
scan's chunk bounds.

For a nearest-neighbour XX chain (no coupling beyond adjacent sites, no
ZZ term; any local fields; :func:`is_free_fermion`) the Jordan-Wigner
transformation maps the dynamics to free fermions, and a two-excitation
amplitude is the 2x2 determinant b_{(i1,i2)}^{(j1,j2)} = a_{i1}^{j1}
a_{i2}^{j2} - a_{i1}^{j2} a_{i2}^{j1} of one-excitation amplitudes (Lieb,
Schultz and Mattis, Ann. Phys. 16, 407 (1961)).  With row orthonormality
the determinants reduce every fidelity law of such a chain to at most four
one-excitation amplitudes, so its laws never read the C(N, 2)-dimensional
pair sector; the laws of long-range and ZZ chains read the pair sector's
rows.  Which law takes which path is decided in
:mod:`~spintransfer.analytics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainSpec, sector_hamiltonian
from .errors import NumericError, ParameterError
from .sectors import SectorBasis, build_sector_basis

ORTHOGONALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
SYMMETRY_TOL = 1e-12
# Arithmetic grids of at least GRID_FACTOR_MIN points are factored.  Below
# it the per-call overhead dominates and both paths cost about the same
# (30-column occupied-channel rows, N = 15); every scan chunk is far longer.
GRID_FACTOR_MIN = 256
GRID_STEP_TOL = 2.0


@dataclass(frozen=True)
class SpectralPropagator:
    """Eigendecomposition of a sector Hamiltonian, with the sector's basis.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the orthonormal
    eigenbasis in its columns, so ``V diag(L) V^T`` reconstructs the matrix.
    ``basis`` labels the rows of ``eigenvectors``: :func:`propagator_rows`
    reads configurations through it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis: SectorBasis

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]


def diagonalize(matrix: np.ndarray, basis: SectorBasis) -> SpectralPropagator:
    """Diagonalize the real symmetric matrix of a sector and validate the
    result; ``basis`` is the sector's basis, which the propagator carries.

    Raises
    ------
    ParameterError
        If the input is not symmetric to 1e-12.
    NumericError
        If the eigensolver fails or the reconstruction residual exceeds
        the 1e-10 contract.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ParameterError(f"matrix must be square, got shape {matrix.shape}")
    asym = float(np.abs(matrix - matrix.T).max()) if matrix.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ParameterError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e}"
        )
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    dim = matrix.shape[0]
    ortho = float(np.abs(eigenvectors @ eigenvectors.T - np.eye(dim)).max())
    recon = float(
        np.abs(
            (eigenvectors * eigenvalues) @ eigenvectors.T - matrix
        ).max()
    )
    if ortho > ORTHOGONALITY_TOL or recon > RECONSTRUCTION_TOL:
        raise NumericError(
            f"eigendecomposition residuals exceed contract: "
            f"orthogonality {ortho:.3e}, reconstruction {recon:.3e}"
        )
    return SpectralPropagator(eigenvalues, eigenvectors, basis)


def propagator_at(prop: SpectralPropagator, t: float) -> np.ndarray:
    """Unitary ``V exp(-i L t) V^T`` of one sector at time ``t``."""
    if not np.isfinite(t):
        raise ParameterError(f"time must be finite, got {t}")
    phases = np.exp(-1j * prop.eigenvalues * t)
    return (prop.eigenvectors * phases) @ prop.eigenvectors.T


def propagator_rows(prop: SpectralPropagator, sources, targets, times) -> np.ndarray:
    """Summed propagator rows of one sector on a time grid.

    A configuration is a sorted tuple of sites of ``prop.basis``; a bare
    site stands for a one-excitation configuration.  ``sources`` is a list
    of groups of configurations and ``targets`` a list of configurations.

    Returns
    -------
    ndarray, shape (T, len(sources), len(targets))
        ``out[k, g, j]`` is the sum over the configurations s of group g of
        the amplitude from s to ``targets[j]`` at ``times[k]``: the phases
        exp(-i L t) times the mode weights w_m = v[s, m] v[target, m].

    The path follows from ``times`` alone.  An arithmetic grid of at least
    GRID_FACTOR_MIN points (every time within GRID_STEP_TOL eps max|t| of
    times[0] + k step) is factored into giant and baby steps (see
    :func:`_factored_rows`), which needs (K + B) M exponentials for
    T <= K B times and M modes.  Any other input (a single time, fewer points, a
    non-uniform grid) computes the T x M phase matrix and takes one complex
    matrix product with the weights.  The two paths agree to the rounding
    of the phase arguments they share, 4 eps max|L| max|t| sum_m |w_m| per
    row.  ``times`` must be a finite, non-empty 1-D array, else
    ParameterError.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError(f"times must be a non-empty 1-D array, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ParameterError(f"times must be finite, got {times}")
    modes = _mode_weights(prop, sources, targets)
    step = _grid_step(times)
    if step is None:
        phases = np.exp(-1j * np.outer(times, prop.eigenvalues))
        rows = phases @ modes.T
    else:
        rows = _factored_rows(prop.eigenvalues, modes, times, step)
    return rows.reshape(times.size, len(sources), -1)


def _mode_weights(prop: SpectralPropagator, sources, targets) -> np.ndarray:
    """Mode weights of the columns of :func:`propagator_rows`, shape
    (len(sources) * len(targets), M): row g * len(targets) + j holds
    w_m = sum_s v[s, m] v[targets[j], m] over the configurations s of group g."""
    v = prop.eigenvectors

    def rows_of(configs) -> np.ndarray:
        return v[[prop.basis.index_of(c if isinstance(c, tuple) else (c,)) for c in configs]]

    weights = np.array([rows_of(group).sum(axis=0) for group in sources])
    return (weights[:, None, :] * rows_of(targets)).reshape(-1, prop.dimension)


def propagator_slopes(prop: SpectralPropagator, sources, targets) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the time derivatives of the columns of :func:`propagator_rows`.

    Returns (R, C), each of shape (len(sources), len(targets)).  A column is
    a(t) = sum_m w_m exp(-i L_m t), so R = sum_m |w_m L_m| bounds |a'(t)|.
    A uniform shift c of every L_m multiplies a(t) by exp(i c t) and leaves
    |a(t)| alone, so the centred C = min_c sum_m |w_m| |L_m - c| bounds the
    slope of |a(t)| (and |d|a|^2/dt| <= 2 |a| C).  The minimum of that
    convex, piecewise-linear function of c lies at one of the L_m.
    """
    weights = np.abs(_mode_weights(prop, sources, targets))
    eigenvalues = prop.eigenvalues
    raw = weights @ np.abs(eigenvalues)
    centred = (weights @ np.abs(eigenvalues[:, None] - eigenvalues[None, :])).min(axis=1)
    shape = (len(sources), len(targets))
    return raw.reshape(shape), centred.reshape(shape)


def _grid_step(times: np.ndarray) -> float | None:
    """Step of ``times`` if it is an arithmetic grid worth factoring, else None.

    The grid qualifies with at least GRID_FACTOR_MIN points when every time
    lies within GRID_STEP_TOL * eps * max|t| of times[0] + k * step, i.e.
    within the rounding the times themselves carry (``np.linspace`` grids
    and their slices stay within 1 eps * max|t|).
    """
    if times.size < GRID_FACTOR_MIN:
        return None
    step = (times[-1] - times[0]) / (times.size - 1)
    drift = np.abs(times[0] + step * np.arange(times.size) - times).max()
    scale = GRID_STEP_TOL * np.finfo(float).eps * np.abs(times).max()
    return float(step) if drift <= scale else None


def _factored_rows(eigenvalues, modes, times, step) -> np.ndarray:
    """``exp(-i t_k L) @ modes.T`` on an arithmetic grid, shape (T, columns).

    With k = j B + r and B = ceil(sqrt(T)), exp(-i L t_k) is the product of
    a giant step exp(-i L times[j B]), anchored at the grid's own times, and
    a baby step exp(-i L r step).  Each column is then one complex matrix
    product (giant table x mode weights) @ (baby table), so the grid costs
    (K + B) M exponentials instead of T M, and the T x M phase matrix is
    never formed.
    """
    n_times = times.size
    baby_steps = int(np.ceil(np.sqrt(n_times)))
    giant = np.exp(-1j * np.outer(times[::baby_steps], eigenvalues))
    baby = np.exp(-1j * np.outer(eigenvalues, step * np.arange(baby_steps)))
    weighted = (giant[None] * modes[:, None, :]).reshape(-1, eigenvalues.size)
    rows = (weighted @ baby).reshape(modes.shape[0], -1)[:, :n_times]
    return rows.T


def is_free_fermion(spec: ChainSpec) -> bool:
    """Whether pair amplitudes are determinants of one-excitation amplitudes.

    True when every coupling between sites more than one apart is zero and
    every ZZ weight J_ij D_ij is zero: then no hop crosses another
    excitation and pair energies are sums of single-excitation energies.
    """
    return not (
        np.triu(spec.couplings, 2).any() or (spec.couplings * spec.anisotropies).any()
    )


def build_sector(spec: ChainSpec, n_excitations: int) -> SpectralPropagator:
    """Diagonalised sector ``n_excitations`` (1 or 2) of ``spec``, uncached.

    The basis of :func:`~spintransfer.sectors.build_sector_basis`, its
    matrix from :func:`~spintransfer.chain.sector_hamiltonian`, then
    :func:`diagonalize`: one rule for both sectors.
    """
    basis = build_sector_basis(spec.n_sites, n_excitations)
    return diagonalize(sector_hamiltonian(spec, basis), basis)


@lru_cache(maxsize=128)
def sector_spectrum(spec: ChainSpec, n_excitations: int) -> SpectralPropagator:
    """Cached :func:`build_sector`, where every reader of a sector asks.

    Equal specs share an entry (:class:`~spintransfer.chain.ChainSpec`
    compares by content), and each sector is built the first time a reader
    asks for it, so a run that reads only one-excitation amplitudes (every
    law of a free-fermion chain) never builds the C(N, 2)-dimensional pair
    sector.  128 entries hold both sectors of 64 chains.  ``lru_cache``
    keeps its bookkeeping consistent under concurrent calls; two threads
    that miss on the same key at once may both build the sector, and the
    cache keeps one of the two identical results.
    """
    return build_sector(spec, n_excitations)
