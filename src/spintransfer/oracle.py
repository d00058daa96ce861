"""Brute-force full-Hilbert-space reference for certification.

The oracle works on the complete 2^N state space and imports nothing from
``sectors``, ``dynamics`` or ``channel``, so it can certify the sector
dynamics and the channel construction independently.

Every chain Hamiltonian (XX+YY hopping, J*D ZZ terms, Z fields) conserves
the excitation number, so it is block-diagonal in the popcount q of the
basis index.  :func:`block_hamiltonian` builds the popcount-q block from bit
operations on the sorted integers of popcount q, and :func:`evolve_many`
diagonalises and evolves only the blocks the initial states occupy; its
output is still a full 2^N state vector per row.  Every step takes a
leading batch axis: :class:`FullState` is a (T, 2^N) stack of states (one
state is the stack of one row), :func:`transfer_initial_state` embeds a
stack of sender states through one (2^w, 2^N) matrix (the embedding is
linear), :func:`evolve_many` applies each block's eigenvectors to all rows
at once with a phase per row and time, and :func:`reduced_density` traces
every row out at once.  The same Z-sign convention and the same
vacuum-energy gauge shift as the sector machinery are applied, which makes
amplitude phases directly comparable.  Capped at
N = ``MAX_ORACLE_SITES`` = 16; the oracle exists for certification, never
for production runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainSpec
from .errors import CapacityError, ParameterError

MAX_ORACLE_SITES = 16


@dataclass(frozen=True)
class FullState:
    """A stack of normalized state vectors over the full 2^N space.

    ``amplitudes`` has shape (T, 2^N), one normalized state per row.  Basis
    convention: site i (1-based) maps to bit i-1 of the index, so the index
    of a configuration with excited sites S is ``sum(2**(i-1))``.
    """

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape[1:] != (1 << self.n_sites,):
            raise ParameterError(
                f"amplitudes must be rows of length 2**{self.n_sites}, one per state, "
                f"got shape {amps.shape}"
            )
        worst = float(np.abs(_row_norms(amps) - 1.0).max(initial=0.0))
        if worst > 1e-12:
            raise ParameterError(f"state norm deviates from 1 by {worst:.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def _row_norms(amps: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-contiguous complex array.

    The rows are read as interleaved real and imaginary parts, which spares
    the conjugate copy of a 2^N-wide row that ``np.linalg.norm`` makes.
    """
    parts = amps.view(np.float64)
    return np.sqrt(np.einsum("...k,...k->...", parts, parts))


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


@lru_cache(maxsize=16)
def _block_spectrum(
    spec: ChainSpec, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(full-space indices, eigenvalues, eigenvectors) of one popcount
    block, cached per spec content and popcount."""
    evals, evecs = np.linalg.eigh(block_hamiltonian(spec, q))
    return _popcount_indices(spec.n_sites, q), evals, evecs


def evolve_many(spec: ChainSpec, initial: FullState, times) -> FullState:
    """Evolve each row of a stack of full states to its own time, block by block.

    ``initial`` holds T states and ``times`` their T read-out times.  Only
    the popcount blocks holding a nonzero amplitude of some row are
    diagonalised (once per spec and popcount) and evolved; the others stay
    zero, since the Hamiltonian never leaves a block.  Each block takes two
    matrix products over all rows, into its eigenbasis and back, with the
    phases exp(-i E t) of every row's time in between.
    """
    _check_capacity(spec.n_sites)
    if initial.n_sites != spec.n_sites:
        raise ParameterError(
            f"state has {initial.n_sites} sites, spec has {spec.n_sites}"
        )
    amps = initial.amplitudes
    times = np.asarray(times, dtype=float)
    if times.shape != amps.shape[:1]:
        raise ParameterError(
            f"need one time per state row, got {times.shape} times for "
            f"amplitudes of shape {amps.shape}"
        )
    if not np.isfinite(times).all():
        raise ParameterError(f"times must be finite, got {times}")
    evolved = np.zeros_like(amps)
    occupied = np.flatnonzero(amps.any(axis=0))
    for q in np.unique(np.bitwise_count(occupied)):
        idx, evals, evecs = _block_spectrum(spec, int(q))
        coeff = amps[:, idx] @ evecs
        evolved[:, idx] = (np.exp(-1j * evals * times[:, None]) * coeff) @ evecs.T
    evolved /= _row_norms(evolved)[:, None]
    return FullState(evolved, spec.n_sites)


def reduced_density(state: FullState, sites) -> np.ndarray:
    """Partial trace of each pure full state onto an ordered site subset.

    The output basis is the binary ordering of the listed sites with the
    first listed site as the most significant bit, e.g. ``sites=(N-1, N)``
    yields the basis |00>, |0 1_N>, |1_{N-1} 0>, |1_{N-1} 1_N>.  A stack of
    T states gives T density matrices, shape (T, 2^k, 2^k).
    """
    n = state.n_sites
    sites = [int(s) for s in sites]
    if len(set(sites)) != len(sites):
        raise ParameterError(f"sites must be distinct, got {sites}")
    if any(not 1 <= s <= n for s in sites):
        raise ParameterError(f"sites must lie in 1..{n}, got {sites}")
    n_states = len(state.amplitudes)
    tensor = state.amplitudes.reshape(n_states, *(2,) * n)
    # C-order reshape puts site i on axis n - i + 1, after the state axis
    kept_axes = [1 + n - s for s in sites]
    rest = [ax for ax in range(1, n + 1) if ax not in kept_axes]
    mat = np.transpose(tensor, [0, *kept_axes, *rest]).reshape(
        n_states, 1 << len(sites), 1 << (n - len(sites))
    )
    rho = mat @ mat.conj().swapaxes(-1, -2)
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


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
    channel_sites=(),
) -> FullState:
    """Embed ``sender_state (x) channel state`` into the full space.

    ``sender_state`` is a stack of T sender states (T, 2^w), each indexed
    with the first listed sender site as the most significant bit (same
    convention as :func:`reduced_density`), and gives a stack of T full
    states.  The channel state spreads one excitation evenly over
    ``channel_sites`` (a scenario's ``occupied(n)``), which must avoid the
    sender sites, and is the vacuum when they are empty.  The embedding is linear in the sender
    state: one product with a (2^w, 2^N) matrix whose row s holds the
    channel state shifted by the excitations of sender configuration s.
    """
    sender_sites = [int(s) for s in sender_sites]
    channel_sites = [int(s) for s in channel_sites]
    width = len(sender_sites)
    sender_state = np.asarray(sender_state, dtype=complex)
    if sender_state.shape[1:] != (1 << width,):
        raise ParameterError(
            f"sender_state must be rows of length {1 << width}, one per state, "
            f"got shape {sender_state.shape}"
        )
    if np.abs(np.linalg.norm(sender_state, axis=-1) - 1.0).max() > 1e-12:
        raise ParameterError("sender_state must be normalized to 1e-12")
    if set(channel_sites) & set(sender_sites):
        raise ParameterError(
            f"channel sites {channel_sites} overlap sender sites {sender_sites}"
        )

    weight = 1.0 / np.sqrt(len(channel_sites)) if channel_sites else 1.0
    channel_terms = [[j] for j in channel_sites] or [[]]
    embedding = np.zeros((1 << width, 1 << n_sites), dtype=complex)
    for sender_idx in range(1 << width):
        excited = [
            sender_sites[k]
            for k in range(width)
            if (sender_idx >> (width - 1 - k)) & 1
        ]
        for occupied in channel_terms:
            embedding[sender_idx, basis_index(n_sites, excited + occupied)] = weight
    return FullState(sender_state @ embedding, n_sites)
