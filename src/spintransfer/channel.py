"""Sender-to-receiver transfer maps as explicit Kraus sets.

Each Kraus operator is the matrix element of the full evolution between the
fixed initial channel state and one basis state of everything-but-the-
receiver.  :func:`kraus_at_times` builds them from the block oracle of
:mod:`~spintransfer.oracle` for every scenario: it evolves the d sender
basis states, embedded with the scenario's initial channel state, to each
read-out time as one stack (:func:`~spintransfer.oracle.evolve_many`), and
groups each stored amplitude by the configuration of the sites outside the
receiver (:func:`~spintransfer.oracle.receiver_amplitudes`), so that
``K_e[r, i]`` is the amplitude of receiver state r with the outside in
configuration e, starting from sender state i.  Conservation of total
magnetization fixes which configurations the evolved blocks hold, and
with them the operator count.  The channel shares no amplitude code with
the fidelity laws, which read the sector rows of
:mod:`~spintransfer.dynamics`: the Monte Carlo histogram and the
Kraus-side reductions are independent checks on the laws.

A :class:`KrausSet` is the one shape of a channel, a (T, K, d, d) operator
stack with one set per read-out time: a single read-out time is the stack
over ``[t]``, and every function that takes a Kraus set
(:func:`apply_channel`, :func:`fidelity_many`,
:func:`pauli_transfer_matrix`) keeps its leading time axis.  Trace
preservation holds by unitarity and the cached completeness defect only
measures floating-point error.  The oracle's block cap bounds the chains a
Kraus set exists for (see :mod:`~spintransfer.oracle`).

Receiver conventions: :class:`Scenario` names each transfer's sites,
``senders``, ``occupied(n)`` and ``receiver(n)``.  Single-qubit transfer
reads site N in the basis |0>, |1>; two-qubit transfer reads sites
(N-1, N) in the basis |00>, |0 1_N>, |1_{N-1} 0>, |1_{N-1} 1_N>, i.e.
sender site 1 maps to receiver site N-1 and sender site 2 to site N.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .errors import NumericError, ParameterError
from .oracle import evolve_many, receiver_amplitudes, transfer_initial_state

COMPLETENESS_TOL = 1e-9


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
    """A transfer channel at each of T read-out times, as stacked matrices.

    ``operators`` has shape (T, K, d, d): ``operators[k]`` holds the K Kraus
    matrices of the k-th time.  ``completeness_defect`` caches
    ``max|sum E^+ E - I|`` per time, shape (T,).  Build one with
    :func:`kraus_set`.
    """

    operators: np.ndarray
    completeness_defect: np.ndarray

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


def kraus_set(ops: np.ndarray) -> KrausSet:
    """Kraus set of each stack of ``ops`` (T, K, d, d); NumericError when a
    completeness defect exceeds ``COMPLETENESS_TOL``."""
    gram = np.einsum("tokl,tokm->tlm", ops.conj(), ops)
    defect = np.abs(gram - np.eye(ops.shape[-1])).max(axis=(-2, -1))
    worst = float(defect.max())
    if worst > COMPLETENESS_TOL:
        raise NumericError(
            f"Kraus completeness defect {worst:.3e} exceeds "
            f"{COMPLETENESS_TOL:.0e}; the evolution is not unitary enough"
        )
    return KrausSet(ops, defect)


def kraus_at_times(spec: ChainSpec, scenario: Scenario, times) -> KrausSet:
    """Kraus sets of ``scenario`` on ``spec`` at each of the 1-D ``times``,
    stacked along a leading time axis.

    Row i T + k of one oracle stack is sender basis state i read out at
    ``times[k]``; operator e of time k is then ``K_e[r, i]``, the amplitude
    of receiver state r and outside configuration e in that row.  Operator
    0 is the one with nothing excited outside the receiver.  ParameterError
    for an unknown scenario, a chain below its ``min_sites`` or times that
    are not a non-empty 1-D array (:func:`~spintransfer.oracle.evolve_many`
    rejects a non-finite time); CapacityError past the oracle's block cap.
    """
    if not isinstance(scenario, Scenario):
        raise ParameterError(f"unknown scenario {scenario!r}")
    scenario.check_sites(spec.n_sites)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError(f"times must be a non-empty 1-D array, got shape {times.shape}")
    n, d = spec.n_sites, 1 << len(scenario.senders)
    inputs = np.repeat(np.eye(d, dtype=complex), times.size, axis=0)
    initial = transfer_initial_state(n, scenario.senders, inputs, scenario.occupied(n))
    evolved = evolve_many(spec, initial, np.tile(times, d))
    amps = receiver_amplitudes(evolved, scenario.receiver(n))  # (d T, d, K)
    ops = amps.reshape(d, times.size, d, -1).transpose(1, 3, 2, 0)
    return kraus_set(np.ascontiguousarray(ops))


def apply_channel(kraus: KrausSet, state: np.ndarray) -> np.ndarray:
    """Channel outputs ``sum_k E_k |psi><psi| E_k^+`` for pure inputs.

    ``state`` holds one input per time (T, d), and the output is one
    density matrix per time (T, d, d).  ParameterError unless each input
    has length ``kraus.dim`` and norm 1 to 1e-12.
    """
    state = np.asarray(state, dtype=complex)
    expected = (len(kraus.operators), kraus.dim)
    if state.shape != expected:
        raise ParameterError(f"input state must have shape {expected}, got {state.shape}")
    if np.abs(np.linalg.norm(state, axis=-1) - 1.0).max() > 1e-12:
        raise ParameterError("input state must be normalized to 1e-12")
    mapped = (kraus.operators @ state[:, None, :, None])[..., 0]  # (T, n_ops, d)
    rho = np.einsum("tok,tol->tkl", mapped, mapped.conj())
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
# Pauli strings by dimension: s_0..s_3, and P_(4a+b) = s_a (x) s_b for two qubits
PAULI_STRINGS = {2: _PAULI, 4: np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)}


def pauli_transfer_matrix(kraus: KrausSet) -> np.ndarray:
    """Real d^2 x d^2 matrices ``R_ij = 1/d sum_k tr(P_i E_k P_j E_k^+)`` of a
    one- or two-qubit channel, one per time: shape (T, d^2, d^2).

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
    n_times, n_ops = kraus.operators.shape[:2]
    ops = kraus.operators.reshape(n_times, n_ops, d * d)
    gram = (ops.swapaxes(1, 2) @ ops.conj()).reshape(n_times, d, d, d, d)
    gram = gram.transpose(0, 3, 1, 2, 4).reshape(n_times, d * d, d * d)
    return (paulis @ gram @ paulis.T).real / d


def fidelity_many(kraus: KrausSet, states: np.ndarray) -> np.ndarray:
    """Transfer fidelities ``sum_k |<psi|E_k|psi>|^2`` of pure inputs,
    through :func:`clamp_fidelity`.

    ``states`` is (T, n, d): row j of block k is read out through the
    channel at time k, and the result is (T, n).
    """
    states = np.asarray(states, dtype=complex)
    n_times, n_ops, d, _ = kraus.operators.shape
    if states.shape[:1] + states.shape[2:] != (n_times, d):
        raise ParameterError(f"states must have shape ({n_times}, n, {d}), got {states.shape}")
    # <psi|E|psi> = sum_kl conj(psi_k) E_kl psi_l: one matrix product of
    # the flattened conj(psi) psi^T rows with the flattened operators
    n = states.shape[1]
    rows = (states.conj()[..., :, None] * states[..., None, :]).reshape(n_times, n, d * d)
    ops = kraus.operators.reshape(n_times, n_ops, d * d)
    overlaps = rows @ ops.swapaxes(-1, -2)
    return clamp_fidelity((np.abs(overlaps) ** 2).sum(axis=-1))


def clamp_fidelity(values: np.ndarray) -> np.ndarray:
    """Clamp to 1 the values above 1 by at most 1e-10 (rounding).

    A value further out is returned as it is, so that an error shows.
    """
    return np.where(values <= 1.0 + 1e-10, np.minimum(values, 1.0), values)
