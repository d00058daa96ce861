"""Haar sampling, Monte Carlo fidelity statistics and goodness of fit.

The samplers take a ``np.random.Generator`` and a sample count.  Monte
Carlo hands each block of samples its own generator, keyed by a
:class:`RandomStream`, a thin (seed, stream_id) wrapper around a
counter-based generator: identical stream values reproduce identical
sample sequences, and disjoint stream ids give independent sub-streams
whose merged statistics do not depend on evaluation order.

One-qubit Monte Carlo never forms a state vector and calls no trigonometric
function.  :func:`sample_bloch_vectors` maps uniform points of the unit disk
onto the sphere (Marsaglia, Ann. Math. Statist. 43, 645, 1972).  A qubit
channel acts on Bloch vectors as an affine map, its Pauli transfer matrix R
(:func:`~spintransfer.channel.pauli_transfer_matrix`, built once per Kraus
set for all its read-out times), so a pure input with Bloch vector r
transfers with fidelity 1/2 r~^T R r~, r~ = (1, r): one 4x4 quadratic form
per sample, whatever the number of Kraus operators.  The form holds for
any Kraus set, and the sets the command line samples come from the
full-space oracle (:func:`~spintransfer.channel.kraus_at_times`), so the
Monte Carlo histogram is an independent check on the row-based laws: the
two share no amplitude code, and the form assumes no azimuth independence.
:func:`~spintransfer.channel.fidelity_many` stays the state-vector
reference that certification and the tests compare the form against.  Two-qubit Monte Carlo reads the 16 x 16 matrix through
:func:`~spintransfer.analytics.affine_from_kraus`.  A Kraus set holds T
equal-weight read-out times (one for a fixed read-out, the jitter nodes
otherwise): :func:`mc_fidelity_histogram` splits the samples over them by
one multinomial draw and cuts time k's share into blocks of ``MC_BATCH``
samples, block b drawing from its own generator under time k's substream
(:meth:`RandomStream.block_generator`).  The blocks are binned on every
usable core, the calling thread plus plain helper threads, each summing
integer counts, so the histogram is the same at any core count and under
any scheduling.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .analytics import FidelityLaw, affine_from_kraus
from .channel import KrausSet, clamp_fidelity, pauli_transfer_matrix
from .errors import ParameterError

# Samples per Monte Carlo block: the unit of work of one worker and of one
# random generator
MC_BATCH = 32768
# The largest sample count: the multinomial split over the read-out times
# takes it as an int64.
MAX_MC_SAMPLES = 2**63 - 1


@dataclass(frozen=True)
class RandomStream:
    """Reproducible random source identified by (seed, stream_id).

    :meth:`generator` draws from the key ``(stream_id,)``; block b of the
    stream draws from ``(stream_id, b)`` (:meth:`block_generator`), a
    generator of its own, so blocks can be drawn in any order or on any
    thread.  ``substream(k)`` is the stream ``stream_id + k``.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return self._generator((int(self.stream_id),))

    def block_generator(self, block: int) -> np.random.Generator:
        return self._generator((int(self.stream_id), int(block)))

    def _generator(self, key: tuple[int, ...]) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, offset: int) -> "RandomStream":
        return RandomStream(self.seed, self.stream_id + int(offset))


def checked_edges(edges) -> np.ndarray:
    """``edges`` as a float array, or a ParameterError unless they are at
    least two finite, strictly increasing values."""
    edges = np.asarray(edges, dtype=float)
    if (
        edges.ndim != 1
        or edges.size < 2
        or not np.all(np.isfinite(edges))
        or np.any(np.diff(edges) <= 0.0)
    ):
        raise ParameterError("bin_edges must be at least 2 finite, strictly increasing values")
    return edges


@dataclass(frozen=True)
class Histogram:
    """Binned sample counts with fixed edges."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_samples: int

    def __post_init__(self):
        edges = checked_edges(self.bin_edges)
        counts = np.asarray(self.counts)
        if counts.shape != (edges.size - 1,):
            raise ParameterError("counts must have one entry per bin")
        if int(counts.sum()) != self.n_samples:
            raise ParameterError("counts must sum to n_samples")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts.astype(np.int64))

    def normalized_density(self) -> np.ndarray:
        """Counts scaled to integrate to 1 over the binned range."""
        widths = np.diff(self.bin_edges)
        return self.counts / (self.n_samples * widths)


def _sample_count(size: int) -> int:
    """``size`` as an int, or a ParameterError naming it if it is negative."""
    n = int(size)
    if n < 0:
        raise ParameterError(f"sample count must be >= 0, got {n}")
    return n


def sample_two_qubit_pure(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` Haar-random two-qubit pure states (normalized complex
    Gaussians), shape (size, 4)."""
    n = _sample_count(size)
    # the real parts draw first, as in normal + 1j * normal, with no
    # complex temporaries
    z = np.empty((n, 4), dtype=complex)
    z.real = rng.normal(size=(n, 4))
    z.imag = rng.normal(size=(n, 4))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return z


def concurrence(states: np.ndarray) -> np.ndarray:
    """Concurrences 2 |psi_00 psi_11 - psi_01 psi_10| of an (n, 4) batch of
    normalized pure two-qubit states, shape (n,)."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != 4:
        raise ParameterError(f"two-qubit states must be (n, 4), got shape {states.shape}")
    norms = np.linalg.norm(states, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ParameterError("two-qubit states must be normalized to 1e-12")
    return _concurrence(states)


def _concurrence(states: np.ndarray) -> np.ndarray:
    """:func:`concurrence` of states the caller has just normalized, unchecked."""
    value = 2.0 * np.abs(states[:, 0] * states[:, 3] - states[:, 1] * states[:, 2])
    return np.clip(value, 0.0, 1.0)


def bloch_states(theta, phi) -> np.ndarray:
    """Qubit state vectors for arrays of Bloch angles, shape (..., 2)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack(
        np.broadcast_arrays(
            np.cos(theta / 2.0) + 0.0j,
            np.exp(1j * phi) * np.sin(theta / 2.0),
        ),
        axis=-1,
    )


def sample_bloch_vectors(
    rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors (u, v, x) of ``size`` pure states uniform on the sphere.

    Marsaglia's map (Ann. Math. Statist. 43, 645, 1972): a point (a, b)
    uniform in the unit disk, rho^2 = a^2 + b^2, goes to
    (2a sqrt(1 - rho^2), 2b sqrt(1 - rho^2), 1 - 2 rho^2), which is uniform
    on the sphere, so x = cos(theta) is uniform on [-1, 1].  The disk points
    are the pairs of a uniform draw on [-1, 1]^2 that fall inside, kept in
    draw order; no trigonometric function is evaluated.
    """
    n = _sample_count(size)
    # pi/4 of the pairs fall in the disk; the margin of about ten standard
    # deviations makes a second round rare
    pairs = int(n / (np.pi / 4.0) + 6.0 * np.sqrt(n)) + 16
    ab = rng.uniform(-1.0, 1.0, (2, pairs))
    rho2 = ab[0] * ab[0]
    rho2 += ab[1] * ab[1]
    # flatnonzero + take: boolean-mask indexing is slower here
    keep = np.flatnonzero(rho2 < 1.0)[:n]
    uv = ab.take(keep, axis=1)
    x = rho2.take(keep)
    del ab, rho2
    # in place from here: in a process whose heap is still small, each
    # batch-sized temporary is memory the kernel maps in afresh
    s = np.sqrt(1.0 - x)
    s *= 2.0
    uv *= s
    x *= -2.0
    x += 1.0
    vectors = uv[0], uv[1], x
    if keep.size < n:
        rest = sample_bloch_vectors(rng, n - keep.size)
        vectors = tuple(np.concatenate(parts) for parts in zip(vectors, rest))
    return vectors


def bloch_fidelities(ptm: np.ndarray, u, v, x) -> np.ndarray:
    """Fidelities ``1/2 r~^T R r~`` of pure inputs with Bloch vectors (u, v, x).

    ``ptm`` is a channel's Pauli transfer matrix R and r~ = (1, u, v, x),
    as drawn by :func:`sample_bloch_vectors`.  Values pass through
    :func:`~spintransfer.channel.clamp_fidelity`, as those of
    :func:`~spintransfer.channel.fidelity_many` do.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    # 1/2 r~^T R r~ = r~^T q r~ with q symmetric, grouped by leading factor
    q = 0.25 * (ptm + ptm.T)
    values = (
        q[0, 0]
        + u * (2.0 * q[0, 1] + q[1, 1] * u + 2.0 * q[1, 2] * v + 2.0 * q[1, 3] * x)
        + v * (2.0 * q[0, 2] + q[2, 2] * v + 2.0 * q[2, 3] * x)
        + x * (2.0 * q[0, 3] + q[3, 3] * x)
    )
    return clamp_fidelity(values)


def schmidt_state(concurrence_value: float) -> np.ndarray:
    """Two-qubit state sqrt((1-s)/2)|00> + sqrt((1+s)/2)|11> at fixed concurrence.

    ``s = sqrt(1 - C^2)``; local unitaries reach every pure state of
    concurrence C from this one, the state with s = -sqrt(1 - C^2) too.
    """
    if not 0.0 <= concurrence_value <= 1.0:
        raise ParameterError(
            f"concurrence must lie in [0, 1], got {concurrence_value}"
        )
    s = np.sqrt(max(0.0, 1.0 - concurrence_value**2))
    return np.array(
        [np.sqrt((1.0 - s) / 2.0), 0.0, 0.0, np.sqrt((1.0 + s) / 2.0)],
        dtype=complex,
    )


def usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def mc_fidelity_histogram(
    kraus: KrausSet,
    n: int,
    edges: np.ndarray,
    stream: RandomStream,
) -> Histogram:
    """Histogram of transfer fidelities over the scenario's input ensemble,
    read out at the T equal-weight times of ``kraus``.

    One multinomial draw from ``stream.substream(T)`` splits the ``n``
    samples over the times.  Time k cuts its share into blocks of
    ``MC_BATCH`` samples (the last one shorter), and block b draws from
    ``stream.substream(k).block_generator(b)``, the key
    ``(stream_id + k, b)``, so a set at one time samples ``stream``'s own
    blocks.  One-qubit scenarios draw Bloch-uniform pure inputs through
    :func:`sample_bloch_vectors` (Marsaglia's disk-to-sphere map, 1972), and
    evaluate each fidelity as the quadratic form of the channel's Pauli
    transfer matrix at the sample's time (:func:`bloch_fidelities`), all T
    matrices built once per call.  The two-qubit scenario draws Haar-random
    two-qubit states and bins the local-unitary-averaged fidelity A - B C^2
    at each state's concurrence, with (A, B) from
    :func:`~spintransfer.analytics.affine_from_kraus`: the exact twirl of
    the Pauli transfer matrix, which shares no arithmetic with the row law
    (the twirled 16-term form per sample would give the same value at 16
    times the cost).  Samples outside the edges are clipped into the end
    bins so the counts always total ``n``.

    The edges are checked before any sampling.  The split and the matrices
    are made on the calling thread; the blocks are then binned on
    ``min(usable_cores(), blocks)`` workers, the calling thread plus plain
    helper threads, each summing integer counts, so the counts do not
    depend on the core count or on which worker took which block.  A
    worker's exception is raised here once every helper has ended.
    """
    if not 1 <= n <= MAX_MC_SAMPLES:
        raise ParameterError(f"sample count must lie in [1, {MAX_MC_SAMPLES}], got {n}")
    edges = checked_edges(edges)
    n_times = len(kraus.operators)
    shares = [
        int(share)
        for share in stream.substream(n_times).generator().multinomial(n, np.full(n_times, 1.0 / n_times))
    ]
    two_qubit = kraus.dim == 4
    if two_qubit:
        forms = [FidelityLaw(row[None]) for row in affine_from_kraus(kraus).coefficients]
    else:
        forms = pauli_transfer_matrix(kraus)

    def bin_block(k: int, block: int, size: int) -> np.ndarray:
        rng = stream.substream(k).block_generator(block)
        if two_qubit:
            values = forms[k].evaluate(_concurrence(sample_two_qubit_pure(rng, size)))[0]
        else:
            values = bloch_fidelities(forms[k], *sample_bloch_vectors(rng, size))
        values = np.clip(values, edges[0], edges[-1])
        return np.histogram(values, bins=edges)[0]

    # a generator, not a list: n may be up to 2^63 - 1
    blocks = (
        (k, block, min(MC_BATCH, share - start))
        for k, share in enumerate(shares)
        for block, start in enumerate(range(0, share, MC_BATCH))
    )
    n_blocks = sum(-(-share // MC_BATCH) for share in shares)
    counts = _sum_counts(bin_block, blocks, edges.size - 1, min(usable_cores(), n_blocks))
    return Histogram(edges, counts, n)


def _sum_counts(bin_block, blocks, n_bins: int, workers: int) -> np.ndarray:
    """Sum ``bin_block(*block)`` over ``blocks`` on ``workers`` threads: the
    calling one and ``workers - 1`` helpers, each taking the next block
    until none is left.  Integer sums do not depend on the order.  The
    first exception stops every worker and is raised after every helper
    has been joined."""
    lock = threading.Lock()
    totals: list[np.ndarray] = []
    errors: list[BaseException] = []

    def work() -> None:
        counts = np.zeros(n_bins, dtype=np.int64)
        try:
            while not errors:
                with lock:
                    block = next(blocks, None)
                if block is None:
                    break
                counts += bin_block(*block)
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)
        totals.append(counts)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return sum(totals, np.zeros(n_bins, dtype=np.int64))


def ks_distance(hist: Histogram, law) -> float:
    """Kolmogorov-Smirnov distance between a :class:`Histogram` and a
    fidelity law, the empirical CDF compared at the bin edges.

    ``law`` is a :class:`~spintransfer.analytics.FidelityLaw`; several rows
    compare as their equal-weight mixture.  Any input other than a
    ``Histogram`` is a ParameterError.
    """
    if not isinstance(hist, Histogram):
        raise ParameterError(f"ks_distance takes a Histogram, got {type(hist).__name__}")
    cum = np.concatenate(([0.0], np.cumsum(hist.counts))) / hist.n_samples
    return float(np.abs(cum - law.cdf(hist.bin_edges)).max())


def default_bin_edges(law, bins: int = 200) -> np.ndarray:
    """Uniform bins from just below the support of a fidelity law (all its
    rows) up to fidelity 1, or up to the law's f_max where rounding puts it
    above 1 (a collapsed row's mean may read 1 + 2e-16), so that the last
    edge holds the whole law as it holds every clamped sample."""
    lo, hi = law.support
    span = max(hi - lo, 1e-6)
    start = max(0.0, lo - 0.05 * span)
    return np.linspace(start, max(1.0, hi), int(bins) + 1)
