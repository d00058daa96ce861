import numpy as np
import pytest
from hypothesis import settings

from spintransfer.analytics import FidelityLaw
from spintransfer.chain import ChainSpec
from spintransfer.channel import KrausSet, fidelity_many
from spintransfer.errors import ParameterError
from spintransfer.oracle import FullState, block_indices
from spintransfer.sampling import MC_BATCH, RandomStream, schmidt_state

# Property tests draw a fixed example sequence, so failures reproduce and
# the suite's run time stays flat.
settings.register_profile(
    "spintransfer", derandomize=True, database=None, max_examples=25, deadline=None
)
settings.load_profile("spintransfer")


def make_random_chain(rng: np.random.Generator, n_sites: int, long_range: bool = False) -> ChainSpec:
    """Random nearest-neighbour chain (optionally with one extra bond)."""
    couplings = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        couplings[i, i + 1] = couplings[i + 1, i] = rng.uniform(0.5, 1.5)
    if long_range and n_sites >= 5:
        i, j = 0, n_sites // 2
        couplings[i, j] = couplings[j, i] = rng.uniform(0.2, 0.6)
    fields = rng.uniform(-0.5, 0.5, n_sites)
    return ChainSpec(n_sites, couplings, np.zeros((n_sites, n_sites)), fields)


def seeded_chain(seed: int, n_sites: int, kind: str) -> ChainSpec:
    """Nearest-neighbour, long-range or ZZ-anisotropic random chain."""
    rng = np.random.default_rng(seed)
    spec = make_random_chain(rng, n_sites, long_range=kind == "long_range")
    if kind != "zz":
        return spec
    anis = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        anis[i, i + 1] = anis[i + 1, i] = rng.uniform(-1.0, 1.0)
    return ChainSpec(n_sites, spec.couplings, anis, spec.fields)


def avg_fidelity_one_qubit_vacuum(r: float, phi: float) -> float:
    """Bloch-sphere average fidelity ``1/2 + r cos(phi)/3 + r^2/6`` of the
    vacuum channel with amplitude r e^{i phi}: the reference the law means
    are checked against."""
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"amplitude modulus r must lie in [0, 1], got {r}")
    return 0.5 + r * np.cos(phi) / 3.0 + r * r / 6.0


def one_row_law(*coefficients) -> FidelityLaw:
    """The one-row FidelityLaw of (a, b, c), a x^2 + b x + c in x = cos(theta),
    or of (A, B), A - B C^2 in the concurrence C."""
    return FidelityLaw(np.array([coefficients], dtype=float))


def sample_ks_distance(samples, law: FidelityLaw) -> float:
    """Two-sided Kolmogorov-Smirnov distance between raw draws and a
    fidelity law, from the sorted samples: the tests' reference beside the
    binned :func:`~spintransfer.sampling.ks_distance` of the Monte Carlo."""
    values = np.sort(np.asarray(samples, dtype=float))
    n = values.size
    model = law.cdf(values)
    upper = np.abs(np.arange(1, n + 1) / n - model).max()
    lower = np.abs(model - np.arange(0, n) / n).max()
    return float(max(upper, lower))


def sample_bloch(rng: np.random.Generator, size: int):
    """Angles (theta, phi) of ``size`` states uniform on the Bloch sphere.

    theta = arccos(1 - 2u) has density sin(theta)/2; phi is uniform on
    [0, 2 pi).
    """
    theta = np.arccos(1.0 - 2.0 * rng.random(size))
    phi = 2.0 * np.pi * rng.random(size)
    return theta, phi


def sample_haar_unitary_2(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` Haar-distributed 2x2 unitaries via QR of complex Gaussians.

    The R-phase normalization makes the distribution exactly left invariant.
    """
    z = (rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("nii->ni", r)
    return q * (diag / np.abs(diag))[:, None, :]


def mc_local_unitary_fidelity(
    kraus: KrausSet,
    concurrence_value: float,
    n: int,
    stream: RandomStream,
) -> tuple[float, float]:
    """Monte Carlo local-unitary average of the two-qubit fidelity.

    Applies independent Haar unitaries to each receiver-bound qubit of the
    Schmidt-form state at the given concurrence and returns (mean, stderr):
    the sampled reference for the exact twirl of ``affine_from_kraus``.
    """
    if kraus.dim != 4:
        raise ParameterError("local-unitary averaging needs a two-qubit channel")
    if n < 2:
        raise ParameterError(f"sample count must be >= 2, got {n}")
    base = schmidt_state(concurrence_value).reshape(2, 2)
    rng = stream.generator()
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        batch = min(MC_BATCH, n - done)
        u1 = sample_haar_unitary_2(rng, batch)
        u2 = sample_haar_unitary_2(rng, batch)
        states = np.einsum("nab,ncd,bd->nac", u1, u2, base).reshape(batch, 4)
        values = fidelity_many(kraus, states[None])[0]
        total += float(values.sum())
        total_sq += float((values**2).sum())
        done += batch
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean) * n / (n - 1)
    return mean, float(np.sqrt(var / n))


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    eigenvalues = np.linalg.eigvalsh(rho_a - rho_b)
    return 0.5 * float(np.abs(eigenvalues).sum())


def block_state(dense, n_sites: int) -> FullState:
    """The oracle state of dense (T, 2^N) amplitudes: each popcount block
    holding a nonzero amplitude is stored, the others are dropped."""
    dense = np.asarray(dense, dtype=complex)
    blocks = {q: dense[..., block_indices(n_sites, q)] for q in range(n_sites + 1)}
    return FullState({q: amps for q, amps in blocks.items() if amps.any()}, n_sites)


def dense_amplitudes(state: FullState) -> np.ndarray:
    """The (T, 2^N) amplitudes of an oracle state, zero outside its blocks."""
    dense = np.zeros((state.n_states, 1 << state.n_sites), dtype=complex)
    for q, amps in state.blocks.items():
        dense[:, block_indices(state.n_sites, q)] = amps
    return dense


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
