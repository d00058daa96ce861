"""Brute-force full-Hilbert-space evolution: the certification reference
and the source of every Kraus channel.

The oracle works on the exact N-site dynamics and imports nothing from
``sectors``, ``dynamics`` or ``channel``.  The fidelity laws read the sector
dynamics, while the Kraus sets that Monte Carlo samples and certification
reduces (:func:`~spintransfer.channel.kraus_at_times`) are built from the
oracle's evolution, so the two sides share no amplitude code.

Every chain Hamiltonian (XX+YY hopping, J*D ZZ terms, Z fields) conserves
the excitation number, so it is block-diagonal in the popcount q of the
basis index.  A :class:`FullState` stores only the popcount blocks it
occupies, each as the amplitudes over that block's sorted full-space
indices (:func:`block_indices`); every other entry of the 2^N vector is an
exact zero that is never stored.  :func:`block_hamiltonian` builds the
popcount-q block from bit operations on those indices, and
:func:`evolve_many` diagonalises and evolves the stored blocks only.  Every
step takes a leading batch axis: a state's blocks are (T, C(N, q)) stacks
of T states (one state is the stack of one row),
:func:`transfer_initial_state` writes each sender (x) channel configuration
of a stack of sender states into its block, :func:`evolve_many` applies
each block's eigenvectors to all rows at once with a phase per row and
time, and :func:`receiver_amplitudes`, the oracle's one reader of an
evolved state, splits every row into a matrix M over the receiver and the
other sites: the Kraus operators are read from M, and M M^dagger is the
row's reduced density matrix on the receiver.  The same Z-sign convention
and the same vacuum-energy gauge shift as the sector machinery are
applied, which makes amplitude phases directly comparable.
A block may hold at most ``MAX_ORACLE_BLOCK`` = C(60, 2) = 1770 states,
the pair sector of the longest chain the package diagonalises, and a
chain at most 63 sites, since an index is an int64 bit pattern; a larger
block raises CapacityError, so a Kraus set of the occupied channel or of
two-qubit transfer needs N <= 60, and one of the empty chain N <= 63.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .chain import ChainSpec
from .errors import CapacityError, NumericError, ParameterError

MAX_ORACLE_BLOCK = comb(60, 2)


@dataclass(frozen=True)
class FullState:
    """A stack of normalized states over the full space, stored by block.

    ``blocks`` maps each occupied popcount q to its (T, C(N, q)) amplitudes,
    one state per row, column k belonging to index ``block_indices(N, q)[k]``;
    every basis state of another popcount has amplitude zero.  Basis
    convention: site i (1-based) maps to bit i-1 of the index, so the index
    of a configuration with excited sites S is ``sum(2**(i-1))``.
    """

    blocks: dict[int, np.ndarray]
    n_sites: int

    def __post_init__(self):
        blocks = {int(q): np.array(a, dtype=complex) for q, a in sorted(self.blocks.items())}
        rows = {amps.shape[:1] for amps in blocks.values()}
        for q, amps in blocks.items():
            dim = block_indices(self.n_sites, q).size
            if amps.shape[1:] != (dim,) or len(rows) > 1:
                raise ParameterError(f"blocks must be (T, C(N, q)), got {amps.shape} for q={q}")
            amps.setflags(write=False)
        _check_norms(blocks, ParameterError)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_states(self) -> int:
        """T, the number of states in the stack."""
        return len(next(iter(self.blocks.values())))


def _check_norms(blocks: dict, error: type[Exception]) -> None:
    """Raise ``error`` if a row norm, summed over all blocks, is off 1 by
    more than 1e-12; a stack without blocks has norm 0."""
    norms = np.sqrt(sum((np.abs(amps) ** 2).sum(axis=1) for amps in blocks.values()))
    worst = float(np.abs(norms - 1.0).max(initial=0.0))
    if worst > 1e-12:
        raise error(f"state norm deviates from 1 by {worst:.3e}")


@lru_cache(maxsize=64)
def block_indices(n_sites: int, q: int) -> np.ndarray:
    """Sorted full-space indices whose popcount is ``q``.

    The block size C(N, q) is checked against ``MAX_ORACLE_BLOCK`` before
    the indices are listed.
    """
    if not 0 <= q <= n_sites:
        raise ParameterError(f"popcount must lie in 0..{n_sites}, got {q}")
    if n_sites > 63 or comb(n_sites, q) > MAX_ORACLE_BLOCK:
        raise CapacityError(
            f"oracle blocks hold <= {MAX_ORACLE_BLOCK} int64 indices (N <= 63), got C({n_sites}, {q})"
        )
    indices = np.sort([sum(1 << b for b in bits) for bits in combinations(range(n_sites), q)])
    indices.setflags(write=False)
    return indices


def block_hamiltonian(spec: ChainSpec, q: int) -> np.ndarray:
    """Popcount-``q`` block of the 2^N Hamiltonian, rows ordered by index.

    Row k belongs to the k-th smallest full-space index with ``q`` set bits.
    Includes the vacuum-energy gauge shift.  A hopping term moves one
    excitation from bit i to bit j, so its partner's row is found by
    ``searchsorted`` in the sorted index list.
    """
    n = spec.n_sites
    states = block_indices(n, q)
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
def _block_spectrum(spec: ChainSpec, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of one popcount block, cached per spec
    content and popcount."""
    return np.linalg.eigh(block_hamiltonian(spec, q))


def evolve_many(spec: ChainSpec, initial: FullState, times) -> FullState:
    """Evolve each row of a stack of states to its own time, block by block.

    ``initial`` holds T states and ``times`` their T read-out times.  Only
    the stored blocks are diagonalised (once per spec and popcount) and
    evolved, since the Hamiltonian never leaves a block.  Each block takes
    two matrix products over all rows, into its eigenbasis and back, with
    the phases exp(-i E t) of every row's time in between.  The evolved rows
    are not renormalized: a row whose norm is off by more than 1e-12 raises
    NumericError, as the evolution is then not unitary.
    """
    if initial.n_sites != spec.n_sites:
        raise ParameterError(
            f"state has {initial.n_sites} sites, spec has {spec.n_sites}"
        )
    times = np.asarray(times, dtype=float)
    if times.shape != (initial.n_states,):
        raise ParameterError(f"need one time per state row, got {times.shape} times")
    if not np.isfinite(times).all():
        raise ParameterError(f"times must be finite, got {times}")
    evolved = {}
    for q, amps in initial.blocks.items():
        evals, evecs = _block_spectrum(spec, q)
        evolved[q] = (np.exp(-1j * evals * times[:, None]) * (amps @ evecs)) @ evecs.T
    _check_norms(evolved, NumericError)
    return FullState(evolved, spec.n_sites)


def receiver_amplitudes(state: FullState, sites) -> np.ndarray:
    """Each pure state's amplitudes split between an ordered site subset and
    the other sites, shape (T, 2^k, groups).

    Row r is the configuration of the listed sites in their binary ordering,
    the first listed site the most significant bit: ``sites=(N-1, N)``
    orders the rows |00>, |0 1_N>, |1_{N-1} 0>, |1_{N-1} 1_N>.  The stored
    indices of all blocks are grouped by the bits of the other sites, and
    column e is the e-th such configuration in index order, so column 0
    holds the configurations with nothing excited outside the subset
    whenever a block stores one.  With M the (2^k, groups) matrix of a
    state, M M^dagger is its reduced density matrix on the subset.
    """
    n = state.n_sites
    sites = [int(s) for s in sites]
    if len(set(sites)) != len(sites):
        raise ParameterError(f"sites must be distinct, got {sites}")
    if any(not 1 <= s <= n for s in sites):
        raise ParameterError(f"sites must lie in 1..{n}, got {sites}")
    indices = np.concatenate([block_indices(n, q) for q in state.blocks])
    kept = sum(((indices >> (s - 1)) & 1) << (len(sites) - 1 - k) for k, s in enumerate(sites))
    traced, group = np.unique(indices & ~basis_index(n, sites), return_inverse=True)
    mat = np.zeros((state.n_states, 1 << len(sites), traced.size), dtype=complex)
    mat[:, kept, group] = np.concatenate(list(state.blocks.values()), axis=1)
    return mat


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
    """The state ``sender_state (x) channel state`` of the whole chain.

    ``sender_state`` is a stack of T sender states (T, 2^w), each indexed
    with the first listed sender site as the most significant bit (same
    convention as :func:`receiver_amplitudes`), and gives a stack of T states.
    The channel state spreads one excitation evenly over ``channel_sites``
    (a scenario's ``occupied(n)``), which must avoid the sender sites, and
    is the vacuum when they are empty.  Each sender configuration s times
    each channel configuration is one basis state, whose column of its
    popcount block receives amplitude ``sender_state[:, s]`` times the
    channel weight.
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
    blocks = {}
    for sender_idx in range(1 << width):
        excited = [
            sender_sites[k]
            for k in range(width)
            if (sender_idx >> (width - 1 - k)) & 1
        ]
        q = len(excited) + len(channel_terms[0])
        indices = block_indices(n_sites, q)
        block = blocks.setdefault(q, np.zeros((len(sender_state), indices.size), dtype=complex))
        columns = [basis_index(n_sites, excited + occupied) for occupied in channel_terms]
        block[:, np.searchsorted(indices, columns)] = weight * sender_state[:, sender_idx, None]
    return FullState(blocks, n_sites)
