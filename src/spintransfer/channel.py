"""Sender-to-receiver transfer maps as explicit Kraus sets.

Each Kraus operator is the matrix element of the full evolution between the
fixed initial channel state and one basis state of everything-but-the-
receiver.  Conservation of total magnetization restricts which entries can
be non-zero, so every operator is assembled from one- and two-excitation
transition amplitudes.  Operators are built from this first-principles
definition: the one-excitation propagator of an :class:`AmplitudeTable`
and the few two-excitation rows out of the initially occupied pairs
(:meth:`AmplitudeTable.pair_row`, 2x2 determinants of one-excitation
amplitudes on a nearest-neighbour XX chain, pair-sector rows otherwise);
the full pair propagator is never formed.  Trace preservation then holds
by unitarity and the cached completeness defect only measures
floating-point error.

Receiver conventions: single-qubit transfer reads site N in the basis
|0>, |1>; two-qubit transfer reads sites (N-1, N) in the basis
|00>, |0 1_N>, |1_{N-1} 0>, |1_{N-1} 1_N>, i.e. sender site 1 maps to
receiver site N-1 and sender site 2 to site N.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dynamics import AmplitudeTable
from .errors import ParameterError

COMPLETENESS_TOL = 1e-9
DROP_THRESHOLD = 1e-14


class Scenario(enum.Enum):
    """Transfer scenario: sender size plus initial channel state."""

    ONE_QUBIT_VACUUM = "one_qubit_vacuum"
    ONE_QUBIT_UNIFORM = "one_qubit_uniform"
    TWO_QUBIT_VACUUM = "two_qubit"

    @property
    def qubit_dim(self) -> int:
        return 4 if self is Scenario.TWO_QUBIT_VACUUM else 2

    @property
    def min_sites(self) -> int:
        if self is Scenario.ONE_QUBIT_UNIFORM:
            return 4
        if self is Scenario.TWO_QUBIT_VACUUM:
            return 5
        return 2


@dataclass(frozen=True)
class KrausSet:
    """A transfer channel at a fixed time as a finite list of matrices.

    ``operators`` stacks the d x d Kraus matrices along axis 0 (zero
    operators are dropped); ``n_constructed`` counts the operators before
    dropping; ``completeness_defect`` caches ``max|sum E^+ E - I|``.
    """

    operators: np.ndarray
    scenario: Scenario
    time: float
    completeness_defect: float
    n_constructed: int

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def __len__(self) -> int:
        return self.operators.shape[0]


def _finish(stack: list[np.ndarray], scenario: Scenario, t: float) -> KrausSet:
    ops = np.asarray(stack, dtype=complex)
    n_constructed = ops.shape[0]
    keep = np.abs(ops).max(axis=(1, 2)) > DROP_THRESHOLD
    ops = ops[keep]
    dim = scenario.qubit_dim
    gram = np.einsum("okl,okm->lm", ops.conj(), ops)
    defect = float(np.abs(gram - np.eye(dim)).max())
    if defect > COMPLETENESS_TOL:
        raise ParameterError(
            f"Kraus completeness defect {defect:.3e} exceeds "
            f"{COMPLETENESS_TOL:.0e}; amplitude table is not unitary enough"
        )
    return KrausSet(ops, scenario, float(t), defect, n_constructed)


def kraus_one_qubit_vacuum(amps: AmplitudeTable, n_sites: int) -> KrausSet:
    """Channel for one-qubit transfer with the chain starting empty.

    Two operators: the excitation-preserving block ``diag(1, a_1^N)`` and a
    single lumped loss operator carrying the weight that leaked anywhere
    else, ``sqrt(1 - |a_1^N|^2)``.
    """
    if n_sites < 2:
        raise ParameterError(f"n_sites must be >= 2, got {n_sites}")
    a_end = amps.one_amplitude(1, n_sites)
    e0 = np.array([[1.0, 0.0], [0.0, a_end]], dtype=complex)
    loss = np.sqrt(max(0.0, 1.0 - abs(a_end) ** 2))
    e1 = np.array([[0.0, loss], [0.0, 0.0]], dtype=complex)
    return _finish([e0, e1], Scenario.ONE_QUBIT_VACUUM, amps.time)


def kraus_one_qubit_uniform(amps: AmplitudeTable, n_sites: int) -> KrausSet:
    """Channel for one-qubit transfer with one excitation spread over 2..N-1.

    The environment basis states carry 0, 1 or 2 excitations, giving
    ``1 + (N-1) + (N-1)(N-2)/2`` operators whose entries are sums of one-
    and two-excitation amplitudes out of the initially occupied sites.
    """
    if n_sites < 4:
        raise ParameterError(
            f"uniform channel requires n_sites >= 4, got {n_sites}"
        )
    n = n_sites
    norm = 1.0 / np.sqrt(n - 2)
    # sums over the initially occupied sites j = 2..N-1
    a_sum = amps.one_exc[1 : n - 1, :].sum(axis=0) * norm  # -> site k+1
    pairs = list(combinations(range(1, n + 1), 2))
    b_sum = dict(zip(pairs, amps.pair_row(range(2, n), pairs) * norm))

    ops: list[np.ndarray] = []
    # no excitation left outside the receiver: arrival amplitude at site N
    e0 = np.zeros((2, 2), dtype=complex)
    e0[1, 0] = a_sum[n - 1]
    ops.append(e0)
    # one excitation at site k <= N-1
    for k in range(1, n):
        e1 = np.zeros((2, 2), dtype=complex)
        e1[0, 0] = a_sum[k - 1]
        e1[1, 1] = b_sum[(k, n)]
        ops.append(e1)
    # two excitations at k < l <= N-1
    for k in range(1, n):
        for l in range(k + 1, n):
            e2 = np.zeros((2, 2), dtype=complex)
            e2[0, 1] = b_sum[(k, l)]
            ops.append(e2)
    return _finish(ops, Scenario.ONE_QUBIT_UNIFORM, amps.time)


def kraus_two_qubit_vacuum(amps: AmplitudeTable, n_sites: int) -> KrausSet:
    """Channel for two-qubit transfer {1,2} -> {N-1,N}, chain starting empty.

    Operators split by the excitation count left outside the receiver pair:
    one excitation-conserving operator, N-2 single-leak operators and
    (N-2)(N-3)/2 double-leak operators.
    """
    if n_sites < 5:
        raise ParameterError(
            f"two-qubit transfer requires n_sites >= 5, got {n_sites}"
        )
    n = n_sites
    a1 = amps.one_exc[0, :]  # from site 1
    a2 = amps.one_exc[1, :]  # from site 2
    pairs = list(combinations(range(1, n + 1), 2))
    b12 = dict(zip(pairs, amps.pair_row([2], pairs)))

    ops: list[np.ndarray] = []
    e0 = np.zeros((4, 4), dtype=complex)
    e0[0, 0] = 1.0
    e0[1, 1] = a2[n - 1]      # site 2 -> site N
    e0[1, 2] = a1[n - 1]      # site 1 -> site N
    e0[2, 1] = a2[n - 2]      # site 2 -> site N-1
    e0[2, 2] = a1[n - 2]      # site 1 -> site N-1
    e0[3, 3] = b12[(n - 1, n)]
    ops.append(e0)
    for j in range(1, n - 1):
        e1 = np.zeros((4, 4), dtype=complex)
        e1[0, 1] = a2[j - 1]
        e1[0, 2] = a1[j - 1]
        e1[1, 3] = b12[(j, n)]
        e1[2, 3] = b12[(j, n - 1)]
        ops.append(e1)
    for k in range(1, n - 1):
        for j in range(k + 1, n - 1):
            e2 = np.zeros((4, 4), dtype=complex)
            e2[0, 3] = b12[(k, j)]
            ops.append(e2)
    return _finish(ops, Scenario.TWO_QUBIT_VACUUM, amps.time)


def kraus_for_scenario(
    amps: AmplitudeTable, scenario: Scenario, n_sites: int
) -> KrausSet:
    """Dispatch to the Kraus builder of ``scenario``."""
    if scenario is Scenario.ONE_QUBIT_VACUUM:
        return kraus_one_qubit_vacuum(amps, n_sites)
    if scenario is Scenario.ONE_QUBIT_UNIFORM:
        return kraus_one_qubit_uniform(amps, n_sites)
    if scenario is Scenario.TWO_QUBIT_VACUUM:
        return kraus_two_qubit_vacuum(amps, n_sites)
    raise ParameterError(f"unknown scenario {scenario!r}")


def _check_input(kraus: KrausSet, state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape != (kraus.dim,):
        raise ParameterError(
            f"input state must have dimension {kraus.dim}, got {state.shape}"
        )
    if abs(np.linalg.norm(state) - 1.0) > 1e-12:
        raise ParameterError("input state must be normalized to 1e-12")
    return state


def apply_channel(kraus: KrausSet, state: np.ndarray) -> np.ndarray:
    """Channel output ``sum_k E_k |psi><psi| E_k^+`` for a pure input."""
    state = _check_input(kraus, state)
    mapped = kraus.operators @ state  # (n_ops, d)
    rho = np.einsum("ok,ol->kl", mapped, mapped.conj())
    return 0.5 * (rho + rho.conj().T)


def fidelity(kraus: KrausSet, state: np.ndarray) -> float:
    """Transfer fidelity ``sum_k |<psi|E_k|psi>|^2`` of a pure input.

    Clamped into [0, 1] only when within 1e-10 of a boundary.
    """
    state = _check_input(kraus, state)
    overlaps = (kraus.operators @ state) @ state.conj()
    value = float((np.abs(overlaps) ** 2).sum())
    if -1e-10 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-10:
        return 1.0
    return value


def fidelity_many(kraus: KrausSet, states: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fidelity` over rows of ``states`` (n, d)."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != kraus.dim:
        raise ParameterError(
            f"states must have shape (n, {kraus.dim}), got {states.shape}"
        )
    overlaps = np.einsum(
        "sk,okl,sl->so", states.conj(), kraus.operators, states, optimize=True
    )
    values = (np.abs(overlaps) ** 2).sum(axis=1)
    return np.clip(values, 0.0, 1.0, out=values)
