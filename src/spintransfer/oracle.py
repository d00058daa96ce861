"""Brute-force full-Hilbert-space reference for certification.

The oracle works on the complete 2^N state space and imports nothing from
``sectors``, ``dynamics`` or ``channel``, so it can certify the sector
dynamics and the channel construction independently.

Every chain Hamiltonian (XX+YY hopping, J*D ZZ terms, Z fields) conserves
the excitation number, so it is block-diagonal in the popcount q of the
basis index.  :func:`block_hamiltonian` builds the popcount-q block from bit
operations on the sorted integers of popcount q, and :func:`evolve_full`
diagonalises and evolves only the blocks the initial state occupies; its
output is still the full 2^N state vector.  The same Z-sign convention and
the same vacuum-energy gauge shift as the sector machinery are applied,
which makes amplitude phases directly comparable.  Capped at N =
``MAX_ORACLE_SITES`` = 12; the oracle exists for certification, never for
production runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, ChannelInit
from .errors import CapacityError, ParameterError

MAX_ORACLE_SITES = 12


@dataclass(frozen=True)
class FullState:
    """Normalized state vector over the full 2^N space.

    Basis convention: site i (1-based) maps to bit i-1 of the index, so the
    index of a configuration with excited sites S is ``sum(2**(i-1))``.
    """

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_sites,):
            raise ParameterError(
                f"amplitudes must have length 2**{self.n_sites}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ParameterError(f"state norm deviates from 1 by {norm - 1:.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def _check_capacity(n_sites: int) -> None:
    if n_sites > MAX_ORACLE_SITES:
        raise CapacityError(
            f"oracle supports at most {MAX_ORACLE_SITES} sites, got {n_sites}"
        )


def _popcount_indices(n_sites: int, q: int) -> np.ndarray:
    """Sorted full-space indices whose popcount is ``q``."""
    idx = np.arange(1 << n_sites)
    return idx[np.bitwise_count(idx) == q]


def block_hamiltonian(spec: ChainSpec, q: int) -> np.ndarray:
    """Popcount-``q`` block of the 2^N Hamiltonian, rows ordered by index.

    Row k belongs to the k-th smallest full-space index with ``q`` set bits.
    Includes the vacuum-energy gauge shift.  A hopping term moves one
    excitation from bit i to bit j, so its partner's row is found by
    ``searchsorted`` in the sorted index list.
    """
    _check_capacity(spec.n_sites)
    n = spec.n_sites
    if not 0 <= q <= n:
        raise ParameterError(f"popcount must lie in 0..{n}, got {q}")
    states = _popcount_indices(n, q)
    bits = (states[:, None] >> np.arange(n)[None, :]) & 1  # column i-1 = site i
    z = 1.0 - 2.0 * bits
    jd = spec.couplings * spec.anisotropies
    diag = z @ spec.fields
    if np.any(jd != 0.0):
        diag = diag + 0.5 * np.einsum("ki,ij,kj->k", z, jd, z)
    rows = np.arange(states.size)
    h = np.zeros((states.size, states.size))
    h[rows, rows] = diag - spec.vacuum_energy()
    for i in range(n):
        for j in range(i + 1, n):
            j_val = spec.couplings[i, j]
            if j_val == 0.0:
                continue
            moving = rows[(bits[:, i] == 1) & (bits[:, j] == 0)]
            partner = np.searchsorted(states, states[moving] ^ ((1 << i) | (1 << j)))
            h[partner, moving] += 2.0 * j_val
            h[moving, partner] += 2.0 * j_val
    return h


_BLOCK_LOCK = threading.Lock()
_BLOCK_CACHE: dict[tuple[bytes, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_BLOCK_LIMIT = 16


def _block_spectrum(
    spec: ChainSpec, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(full-space indices, eigenvalues, eigenvectors) of one popcount block."""
    key = (spec.cache_key(), q)
    with _BLOCK_LOCK:
        hit = _BLOCK_CACHE.get(key)
    if hit is not None:
        return hit
    evals, evecs = np.linalg.eigh(block_hamiltonian(spec, q))
    entry = (_popcount_indices(spec.n_sites, q), evals, evecs)
    with _BLOCK_LOCK:
        if len(_BLOCK_CACHE) >= _BLOCK_LIMIT:
            _BLOCK_CACHE.clear()
        _BLOCK_CACHE[key] = entry
    return entry


def evolve_full(spec: ChainSpec, initial: FullState, t: float) -> FullState:
    """Evolve a full state by exact spectral evolution, block by block.

    Only the popcount blocks holding a nonzero amplitude of ``initial`` are
    diagonalised (once per spec and popcount) and evolved; the others stay
    zero, since the Hamiltonian never leaves a block.
    """
    _check_capacity(spec.n_sites)
    if initial.n_sites != spec.n_sites:
        raise ParameterError(
            f"state has {initial.n_sites} sites, spec has {spec.n_sites}"
        )
    if not np.isfinite(t):
        raise ParameterError(f"time must be finite, got {t}")
    amps = initial.amplitudes
    evolved = np.zeros_like(amps)
    for q in np.unique(np.bitwise_count(np.flatnonzero(amps))):
        idx, evals, evecs = _block_spectrum(spec, int(q))
        coeff = evecs.T @ amps[idx]
        evolved[idx] = evecs @ (np.exp(-1j * evals * t) * coeff)
    evolved /= np.linalg.norm(evolved)
    return FullState(evolved, spec.n_sites)


def reduced_density(state: FullState, sites) -> np.ndarray:
    """Partial trace of a pure full state onto an ordered site subset.

    The output basis is the binary ordering of the listed sites with the
    first listed site as the most significant bit, e.g. ``sites=(N-1, N)``
    yields the basis |00>, |0 1_N>, |1_{N-1} 0>, |1_{N-1} 1_N>.
    """
    n = state.n_sites
    sites = [int(s) for s in sites]
    if len(set(sites)) != len(sites):
        raise ParameterError(f"sites must be distinct, got {sites}")
    if any(not 1 <= s <= n for s in sites):
        raise ParameterError(f"sites must lie in 1..{n}, got {sites}")
    tensor = state.amplitudes.reshape((2,) * n)
    # C-order reshape puts site i on axis n - i
    kept_axes = [n - s for s in sites]
    rest = [ax for ax in range(n) if ax not in kept_axes]
    mat = np.transpose(tensor, kept_axes + rest).reshape(
        1 << len(sites), 1 << (n - len(sites))
    )
    rho = mat @ mat.conj().T
    return 0.5 * (rho + rho.conj().T)


def basis_index(n_sites: int, excited_sites) -> int:
    """Full-space index of the configuration with the given excited sites."""
    index = 0
    for s in excited_sites:
        if not 1 <= s <= n_sites:
            raise ParameterError(f"site {s} outside 1..{n_sites}")
        index |= 1 << (s - 1)
    return index


def transfer_initial_state(
    n_sites: int,
    sender_sites,
    sender_state: np.ndarray,
    channel_init: ChannelInit = ChannelInit.VACUUM,
) -> FullState:
    """Embed ``sender_state (x) channel state`` into the full space.

    ``sender_state`` is indexed with the first listed sender site as the most
    significant bit (same convention as :func:`reduced_density`).  The
    uniform channel init spreads one excitation evenly over sites 2..N-1 and
    is only defined for a single sender site.
    """
    sender_sites = [int(s) for s in sender_sites]
    sender_state = np.asarray(sender_state, dtype=complex)
    if sender_state.shape != (1 << len(sender_sites),):
        raise ParameterError(
            f"sender_state must have length {1 << len(sender_sites)}"
        )
    if abs(np.linalg.norm(sender_state) - 1.0) > 1e-12:
        raise ParameterError("sender_state must be normalized to 1e-12")

    if channel_init is ChannelInit.VACUUM:
        channel_terms = [(1.0, ())]
    elif channel_init is ChannelInit.UNIFORM_ONE_EXCITATION:
        if sender_sites != [1]:
            raise ParameterError(
                "uniform channel init is defined for sender_sites=(1,)"
            )
        if n_sites < 4:
            raise ParameterError(
                f"uniform channel init requires n_sites >= 4, got {n_sites}"
            )
        weight = 1.0 / np.sqrt(n_sites - 2)
        channel_terms = [(weight, (j,)) for j in range(2, n_sites)]
    else:
        raise ParameterError(f"unknown channel init {channel_init!r}")

    amps = np.zeros(1 << n_sites, dtype=complex)
    width = len(sender_sites)
    for sender_idx in range(1 << width):
        coeff = sender_state[sender_idx]
        if coeff == 0.0:
            continue
        excited = [
            sender_sites[k]
            for k in range(width)
            if (sender_idx >> (width - 1 - k)) & 1
        ]
        for weight, channel_sites in channel_terms:
            full_idx = basis_index(n_sites, excited + list(channel_sites))
            amps[full_idx] += coeff * weight
    return FullState(amps, n_sites)
