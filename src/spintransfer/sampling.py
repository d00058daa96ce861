"""Haar sampling, Monte Carlo fidelity statistics and goodness of fit.

Every sampler draws from a :class:`RandomStream`, a thin (seed, stream_id)
wrapper around a counter-based generator: identical stream values reproduce
identical sample sequences, and disjoint stream ids give independent
sub-streams whose merged statistics do not depend on evaluation order.

One-qubit Monte Carlo never forms a state vector.  A qubit channel acts on
Bloch vectors as an affine map, its Pauli transfer matrix R
(:func:`~spintransfer.channel.pauli_transfer_matrix`, built once per Kraus
set), so a pure input with Bloch vector r transfers with fidelity
1/2 r~^T R r~, r~ = (1, r): one 4x4 quadratic form per sample, whatever the
number of Kraus operators.  The form holds for any Kraus set, so the
Monte Carlo histogram stays an independent check on the row-based laws,
which assume azimuth independence.  :func:`~spintransfer.channel.fidelity_many`
stays the state-vector reference that certification and the tests compare
the form against.  Two-qubit Monte Carlo reads the 16 x 16 matrix through
:func:`~spintransfer.analytics.affine_from_kraus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import affine_from_kraus
from .channel import KrausSet, clamp_fidelity, pauli_transfer_matrix
from .errors import ParameterError

MC_BATCH = 32768


@dataclass(frozen=True)
class RandomStream:
    """Reproducible random source identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id),)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, offset: int) -> "RandomStream":
        return RandomStream(self.seed, self.stream_id + int(offset))


@dataclass(frozen=True)
class Histogram:
    """Binned sample counts with fixed edges."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_samples: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
            raise ParameterError("bin_edges must be strictly increasing")
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


def sample_two_qubit_pure(
    stream: RandomStream | np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Haar-random two-qubit pure states (normalized complex Gaussians)."""
    rng = stream.generator() if isinstance(stream, RandomStream) else stream
    n = 1 if size is None else int(size)
    z = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return z[0] if size is None else z


def concurrence(state: np.ndarray):
    """Concurrence 2 |psi_00 psi_11 - psi_01 psi_10| of pure two-qubit states.

    Accepts a single 4-vector or an (n, 4) batch; inputs must be normalized.
    """
    state = np.asarray(state, dtype=complex)
    single = state.ndim == 1
    batch = state.reshape(-1, 4)
    norms = np.linalg.norm(batch, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ParameterError("two-qubit states must be normalized to 1e-12")
    value = 2.0 * np.abs(batch[:, 0] * batch[:, 3] - batch[:, 1] * batch[:, 2])
    value = np.clip(value, 0.0, 1.0)
    return float(value[0]) if single else value


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


def bloch_fidelities(ptm: np.ndarray, x, phi) -> np.ndarray:
    """Fidelities ``1/2 r~^T R r~`` of pure inputs at x = cos(theta) and azimuth phi.

    ``ptm`` is a channel's Pauli transfer matrix R and r~ = (1, s cos(phi),
    s sin(phi), x) with s = sqrt(1 - x^2).  Values pass through
    :func:`~spintransfer.channel.clamp_fidelity`, as those of
    :func:`~spintransfer.channel.fidelity_many` do.
    """
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = np.sqrt(1.0 - x * x)
    u = s * np.cos(phi)
    v = s * np.sin(phi)
    # 1/2 r~^T R r~ = r~^T q r~ with q symmetric, grouped by leading factor
    q = 0.25 * (ptm + ptm.T)
    values = (
        q[0, 0]
        + u * (2.0 * q[0, 1] + q[1, 1] * u + 2.0 * q[1, 2] * v + 2.0 * q[1, 3] * x)
        + v * (2.0 * q[0, 2] + q[2, 2] * v + 2.0 * q[2, 3] * x)
        + x * (2.0 * q[0, 3] + q[3, 3] * x)
    )
    return clamp_fidelity(values)


def schmidt_state(concurrence_value: float, sign: float = 1.0) -> np.ndarray:
    """Two-qubit state sqrt((1-s)/2)|00> + sqrt((1+s)/2)|11> at fixed concurrence.

    ``s = sign * sqrt(1 - C^2)``; local unitaries reach every pure state
    from this family, and the sign choice is immaterial under them.
    """
    if not 0.0 <= concurrence_value <= 1.0:
        raise ParameterError(
            f"concurrence must lie in [0, 1], got {concurrence_value}"
        )
    s = sign * np.sqrt(max(0.0, 1.0 - concurrence_value**2))
    return np.array(
        [np.sqrt((1.0 - s) / 2.0), 0.0, 0.0, np.sqrt((1.0 + s) / 2.0)],
        dtype=complex,
    )


def mc_fidelity_histogram(
    kraus: KrausSet,
    n: int,
    edges: np.ndarray,
    stream: RandomStream,
) -> Histogram:
    """Histogram of transfer fidelities over the scenario's input ensemble.

    One-qubit scenarios draw Bloch-uniform pure inputs, x = cos(theta) =
    1 - 2u and then phi = 2 pi u' per batch of ``MC_BATCH``, and evaluate
    each fidelity as the quadratic form of the channel's Pauli transfer
    matrix (:func:`bloch_fidelities`), built once per call.  The two-qubit
    scenario draws Haar-random two-qubit states and bins the
    local-unitary-averaged fidelity A - B C^2 at each state's concurrence,
    with (A, B) from :func:`~spintransfer.analytics.affine_from_kraus`: the
    exact twirl of the Pauli transfer matrix, which shares no arithmetic
    with the row law (the twirled 16-term form per sample would give the
    same value at 16 times the cost).  Samples outside the edges are
    clipped into the end bins so the counts always total ``n``.
    """
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    edges = np.asarray(edges, dtype=float)
    rng = stream.generator()
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    two_qubit = kraus.dim == 4
    if two_qubit:
        affine = affine_from_kraus(kraus)
    else:
        ptm = pauli_transfer_matrix(kraus)
    done = 0
    while done < n:
        batch = min(MC_BATCH, n - done)
        if two_qubit:
            states = sample_two_qubit_pure(rng, batch)
            values = affine.evaluate(concurrence(states))
        else:
            x = 1.0 - 2.0 * rng.random(batch)
            phi = 2.0 * np.pi * rng.random(batch)
            values = bloch_fidelities(ptm, x, phi)
        values = np.clip(values, edges[0], edges[-1])
        hist, _ = np.histogram(values, bins=edges)
        counts += hist
        done += batch
    return Histogram(edges, counts, n)


def ks_distance(samples, pdf) -> float:
    """Kolmogorov-Smirnov distance between samples and an analytic law.

    ``samples`` is either a 1-d array of draws or a :class:`Histogram`; in
    the binned case the empirical CDF is compared at the bin edges.  ``pdf``
    is any object with an evaluable ``cdf``.
    """
    if isinstance(samples, Histogram):
        cum = np.concatenate(([0.0], np.cumsum(samples.counts))) / samples.n_samples
        model = pdf.cdf(samples.bin_edges)
        return float(np.abs(cum - model).max())
    values = np.sort(np.asarray(samples, dtype=float))
    n = values.size
    if n == 0:
        raise ParameterError("need at least one sample")
    model = pdf.cdf(values)
    upper = np.abs(np.arange(1, n + 1) / n - model).max()
    lower = np.abs(model - np.arange(0, n) / n).max()
    return float(max(upper, lower))


def default_bin_edges(pdf, bins: int = 200) -> np.ndarray:
    """Uniform bins from just below the pdf support up to fidelity 1."""
    lo, hi = pdf.support
    span = max(hi - lo, 1e-6)
    start = max(0.0, lo - 0.05 * span)
    return np.linspace(start, 1.0 if start < 1.0 else start + 1e-9, int(bins) + 1)
