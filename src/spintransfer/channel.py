"""Sender-to-receiver transfer maps as explicit Kraus sets.

Each Kraus operator is the matrix element of the full evolution between the
fixed initial channel state and one basis state of everything-but-the-
receiver.  Conservation of total magnetization restricts which entries can
be non-zero, so every operator is assembled from one- and two-excitation
transition amplitudes.  The builders take a chain spec and a time, the
order :func:`~spintransfer.analytics.fidelity_law` uses, and read
:func:`~spintransfer.dynamics.propagator_rows` of the one-excitation sector
out of the sender (and, for the occupied channel, the initially occupied
sites) and :func:`~spintransfer.dynamics.pair_rows` out of the initially
occupied pairs (2x2 determinants of one-excitation amplitudes on a
nearest-neighbour XX chain, pair-sector rows otherwise).  Each builder
fills its operator stack by index from those rows; no full propagator is
formed.  Trace preservation then holds by unitarity and the cached
completeness defect only measures floating-point error.  The laws of a
nearest-neighbour chain read none of the pair rows (closed forms in at
most four amplitudes), so there the Kraus reductions check those closed
forms; the 2^N oracle of :mod:`~spintransfer.oracle` is the independent
check on the rows themselves (``channel_oracle_equivalence`` in
certification).

Receiver conventions: :class:`Scenario` names each transfer's sites,
``senders``, ``occupied(n)`` and ``receiver(n)``.  Single-qubit transfer
reads site N in the basis |0>, |1>; two-qubit transfer reads sites
(N-1, N) in the basis |00>, |0 1_N>, |1_{N-1} 0>, |1_{N-1} 1_N>, i.e.
sender site 1 maps to receiver site N-1 and sender site 2 to site N.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chain import ChainSpec
from .dynamics import dynamics_for, pair_rows, propagator_rows
from .errors import NumericError, ParameterError

COMPLETENESS_TOL = 1e-9
DROP_THRESHOLD = 1e-14


class Scenario(enum.Enum):
    """Transfer scenario: the sites that send, start occupied and receive."""

    ONE_QUBIT_VACUUM = "one_qubit_vacuum"
    ONE_QUBIT_UNIFORM = "one_qubit_uniform"
    TWO_QUBIT_VACUUM = "two_qubit"

    @property
    def senders(self) -> tuple[int, ...]:
        """Sender sites: (1, 2) for block transfer, (1,) otherwise."""
        return (1, 2) if self is Scenario.TWO_QUBIT_VACUUM else (1,)

    def occupied(self, n_sites: int) -> range:
        """Sites over which one excitation starts spread evenly: 2..N-1 for
        ``ONE_QUBIT_UNIFORM``, none otherwise (the channel starts empty)."""
        return range(2, n_sites) if self is Scenario.ONE_QUBIT_UNIFORM else range(0)

    def receiver(self, n_sites: int) -> tuple[int, ...]:
        """Receiver sites: the last ``len(senders)`` sites, sender site k
        mapping to the k-th of them."""
        return tuple(range(n_sites - len(self.senders) + 1, n_sites + 1))

    @property
    def min_sites(self) -> int:
        if self is Scenario.ONE_QUBIT_UNIFORM:
            return 4
        if self is Scenario.TWO_QUBIT_VACUUM:
            return 5
        return 2

    def check_sites(self, n_sites: int) -> None:
        """Raise ParameterError when a chain of ``n_sites`` is below ``min_sites``."""
        if n_sites < self.min_sites:
            raise ParameterError(
                f"{self.value} transfer requires n_sites >= {self.min_sites}, got {n_sites}"
            )


@dataclass(frozen=True)
class KrausSet:
    """A transfer channel at a fixed time as a finite list of matrices.

    ``operators`` stacks the d x d Kraus matrices along axis 0 (zero
    operators are dropped); ``n_constructed`` counts the operators before
    dropping; ``completeness_defect`` caches ``max|sum E^+ E - I|``.
    Build one with :func:`kraus_set`.
    """

    operators: np.ndarray
    completeness_defect: float
    n_constructed: int

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def __len__(self) -> int:
        return self.operators.shape[0]


def kraus_set(ops: np.ndarray) -> KrausSet:
    """Kraus set of the stack ``ops`` (n, d, d) less its operators below
    ``DROP_THRESHOLD``; NumericError when the completeness defect exceeds
    ``COMPLETENESS_TOL``."""
    n_constructed = ops.shape[0]
    keep = np.abs(ops).max(axis=(1, 2)) > DROP_THRESHOLD
    ops = ops[keep]
    gram = np.einsum("okl,okm->lm", ops.conj(), ops)
    defect = float(np.abs(gram - np.eye(ops.shape[-1])).max())
    if defect > COMPLETENESS_TOL:
        raise NumericError(
            f"Kraus completeness defect {defect:.3e} exceeds "
            f"{COMPLETENESS_TOL:.0e}; amplitude rows are not unitary enough"
        )
    return KrausSet(ops, defect, n_constructed)


def _rows_at(spec: ChainSpec, scenario: Scenario, sources, targets, t: float):
    """Chain dynamics and one-excitation rows (1, len(sources), len(targets)) at ``t``.

    Checks the chain size for ``scenario`` and that ``t`` is finite first.
    """
    scenario.check_sites(spec.n_sites)
    if not np.isfinite(t):
        raise ParameterError(f"time must be finite, got {t}")
    dyn = dynamics_for(spec)
    return dyn, propagator_rows(dyn.one, sources, targets, [t])


def kraus_one_qubit_vacuum(spec: ChainSpec, t: float) -> KrausSet:
    """Channel for one-qubit transfer with the chain starting empty.

    Two operators: the excitation-preserving block ``diag(1, a_1^N)`` and a
    single lumped loss operator carrying the weight that leaked anywhere
    else, ``sqrt(1 - |a_1^N|^2)``.
    """
    _, rows = _rows_at(spec, Scenario.ONE_QUBIT_VACUUM, [[1]], [spec.n_sites], t)
    a_end = rows[0, 0, 0]
    ops = np.zeros((2, 2, 2), dtype=complex)
    ops[0, 0, 0] = 1.0
    ops[0, 1, 1] = a_end
    ops[1, 0, 1] = np.sqrt(max(0.0, 1.0 - abs(a_end) ** 2))
    return kraus_set(ops)


def kraus_one_qubit_uniform(spec: ChainSpec, t: float) -> KrausSet:
    """Channel for one-qubit transfer with one excitation spread over 2..N-1.

    The environment basis states carry 0, 1 or 2 excitations, giving
    ``1 + (N-1) + (N-1)(N-2)/2`` operators whose entries are sums of one-
    and two-excitation amplitudes out of the initially occupied sites: the
    arrival operator (excitation at N), one operator per site k <= N-1
    holding the excitation, one per pair k < l <= N-1.
    """
    n = spec.n_sites
    occupied = Scenario.ONE_QUBIT_UNIFORM.occupied(n)
    dyn, rows = _rows_at(spec, Scenario.ONE_QUBIT_UNIFORM, [[1], occupied], range(1, n + 1), t)
    norm = 1.0 / np.sqrt(n - 2)
    a_sum = rows[0, 1] * norm  # summed over the occupied sites, to site k
    # pair targets in operator order: (k, N) for k <= N-1, then k < l <= N-1
    targets = [(k, n) for k in range(1, n)] + list(combinations(range(1, n), 2))
    b_sum = pair_rows(dyn, occupied, targets, [t], rows)[0] * norm
    ops = np.zeros((1 + len(targets), 2, 2), dtype=complex)
    ops[0, 1, 0] = a_sum[n - 1]
    ops[1:n, 0, 0] = a_sum[: n - 1]
    ops[1:n, 1, 1] = b_sum[: n - 1]
    ops[n:, 0, 1] = b_sum[n - 1 :]
    return kraus_set(ops)


def kraus_two_qubit_vacuum(spec: ChainSpec, t: float) -> KrausSet:
    """Channel for two-qubit transfer {1,2} -> {N-1,N}, chain starting empty.

    Operators split by the excitation count left outside the receiver pair:
    one excitation-conserving operator, N-2 single-leak operators (leak to
    site j <= N-2) and (N-2)(N-3)/2 double-leak operators (pairs
    k < j <= N-2).
    """
    n = spec.n_sites
    dyn, rows = _rows_at(spec, Scenario.TWO_QUBIT_VACUUM, [[1], [2]], range(1, n + 1), t)
    a1, a2 = rows[0, 0], rows[0, 1]  # from sites 1 and 2
    m = n - 2  # sites outside the receiver pair
    outside = range(1, n - 1)
    # pair targets in operator order: the receiver pair, (j, N), (j, N-1), k < j <= N-2
    targets = (
        [(n - 1, n)] + [(j, n) for j in outside] + [(j, n - 1) for j in outside]
        + list(combinations(outside, 2))
    )
    b12 = pair_rows(dyn, [2], targets, [t], rows)[0]
    ops = np.zeros((len(targets) - m, 4, 4), dtype=complex)
    ops[0, 0, 0] = 1.0
    ops[0, 1:3, 1:3] = [[a2[n - 1], a1[n - 1]], [a2[n - 2], a1[n - 2]]]
    ops[0, 3, 3] = b12[0]
    single = ops[1 : 1 + m]
    single[:, 0, 1] = a2[:m]
    single[:, 0, 2] = a1[:m]
    single[:, 1, 3] = b12[1 : 1 + m]
    single[:, 2, 3] = b12[1 + m : 1 + 2 * m]
    ops[1 + m :, 0, 3] = b12[1 + 2 * m :]
    return kraus_set(ops)


_BUILDERS = {
    Scenario.ONE_QUBIT_VACUUM: kraus_one_qubit_vacuum,
    Scenario.ONE_QUBIT_UNIFORM: kraus_one_qubit_uniform,
    Scenario.TWO_QUBIT_VACUUM: kraus_two_qubit_vacuum,
}


def kraus_for_scenario(spec: ChainSpec, scenario: Scenario, t: float) -> KrausSet:
    """Kraus set of ``scenario`` on ``spec`` at time ``t``."""
    builder = _BUILDERS.get(scenario)
    if builder is None:
        raise ParameterError(f"unknown scenario {scenario!r}")
    return builder(spec, t)


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

    The one-row case of :func:`fidelity_many`, after the input checks.
    """
    state = _check_input(kraus, state)
    return float(fidelity_many(kraus, state[None, :])[0])


_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
# Pauli strings by dimension: s_0..s_3, and P_(4a+b) = s_a (x) s_b for two qubits
PAULI_STRINGS = {2: _PAULI, 4: np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)}


def pauli_transfer_matrix(kraus: KrausSet) -> np.ndarray:
    """Real d^2 x d^2 matrix ``R_ij = 1/d sum_k tr(P_i E_k P_j E_k^+)`` of a
    one- or two-qubit channel.

    Here P_i are the ``PAULI_STRINGS`` (P_0 = I); for one qubit R is the
    affine action on Bloch vectors (Nielsen & Chuang 8.3.2).  A pure input
    psi with r~_i = <psi|P_i|psi> transfers with fidelity ``1/d r~^T R r~``
    for any Kraus set: neither trace preservation nor azimuth independence
    is assumed.  Both Kraus-side reductions read R.  Summed over k, the trace
    is sum P_i[a, b] G[b, c, a, e] P_j[c, e] with G = sum_k E_k[b, c] conj(E_k[a, e]):
    two matrix products with the Gram matrix G regrouped as [(a, b), (c, e)].
    """
    d = kraus.dim
    if d not in PAULI_STRINGS:
        raise ParameterError(
            f"the Pauli transfer matrix needs a one- or two-qubit channel, got dimension {d}"
        )
    paulis = PAULI_STRINGS[d].reshape(d * d, d * d)
    ops = kraus.operators.reshape(len(kraus), d * d)
    gram = (ops.T @ ops.conj()).reshape(d, d, d, d).transpose(2, 0, 1, 3).reshape(d * d, d * d)
    return (paulis @ gram @ paulis.T).real / d


def fidelity_many(kraus: KrausSet, states: np.ndarray) -> np.ndarray:
    """Transfer fidelities of the rows of ``states`` (n, d), through
    :func:`clamp_fidelity`."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != kraus.dim:
        raise ParameterError(
            f"states must have shape (n, {kraus.dim}), got {states.shape}"
        )
    # <psi|E|psi> = sum_kl conj(psi_k) E_kl psi_l: one matrix product of
    # the flattened conj(psi) psi^T rows with the flattened operators
    n, d = states.shape
    rows = (states.conj()[:, :, None] * states[:, None, :]).reshape(n, d * d)
    overlaps = rows @ kraus.operators.reshape(len(kraus), d * d).T
    return clamp_fidelity((np.abs(overlaps) ** 2).sum(axis=1))


def clamp_fidelity(values: np.ndarray) -> np.ndarray:
    """Clamp to 1 the values above 1 by at most 1e-10 (rounding).

    A value further out is returned as it is, so that an error shows.
    """
    return np.where(values <= 1.0 + 1e-10, np.minimum(values, 1.0), values)
