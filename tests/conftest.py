import numpy as np
import pytest
from hypothesis import settings

from spintransfer.analytics import FidelityLaw, TwoQubitAffine
from spintransfer.chain import ChainSpec
from spintransfer.channel import Scenario
from spintransfer.errors import ParameterError

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


def one_row_law(law) -> FidelityLaw:
    """The one-row FidelityLaw of a quadratic or affine law, at the law's mean."""
    if isinstance(law, TwoQubitAffine):
        return FidelityLaw(
            Scenario.TWO_QUBIT_VACUUM, np.array([[law.A, law.B]]), np.array([law.mean()])
        )
    return FidelityLaw(
        Scenario.ONE_QUBIT_VACUUM, np.array([[law.a, law.b, law.c]]), np.array([law.mean()])
    )


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    eigenvalues = np.linalg.eigvalsh(rho_a - rho_b)
    return 0.5 * float(np.abs(eigenvalues).sum())


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
