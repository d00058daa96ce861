"""Sender-to-receiver transfer maps as explicit Kraus sets.

Each Kraus operator is the matrix element of the full evolution between the
fixed initial channel state and one basis state of everything-but-the-
receiver.  Conservation of total magnetization restricts which entries can
be non-zero, so every operator is assembled from one- and two-excitation
transition amplitudes.  The builders take a chain spec and a 1-D array of
times, the order :func:`~spintransfer.analytics.fidelity_law` uses, and read
:func:`~spintransfer.dynamics.propagator_rows` of the one-excitation sector
out of the sender (and, for the occupied channel, the initially occupied
sites) and :func:`~spintransfer.dynamics.pair_rows` out of the initially
occupied pairs (2x2 determinants of one-excitation amplitudes on a
nearest-neighbour XX chain, pair-sector rows otherwise), one call each for
all the times.  Each builder fills a (T, K, d, d) operator stack by index
from those rows; no full propagator is formed.  :func:`kraus_at_times`
makes the stack a :class:`KrausSet`, the one shape of a channel: a single
read-out time is the stack over ``[t]``, and every function that takes a
Kraus set (:func:`apply_channel`, :func:`fidelity_many`,
:func:`pauli_transfer_matrix`) keeps its leading time axis.  Trace
preservation holds by unitarity and the cached completeness defect only
measures floating-point error.  The laws of a nearest-neighbour chain read
none of the pair rows (closed forms in at most four amplitudes), so there
the Kraus reductions check those closed forms; the full-space oracle of
:mod:`~spintransfer.oracle`, which stores and evolves each state's
excitation-number blocks, is the independent check on the rows themselves
(``channel_oracle_equivalence`` in certification, which evaluates each
chain's read-out times as one stack).

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
            f"{COMPLETENESS_TOL:.0e}; amplitude rows are not unitary enough"
        )
    return KrausSet(ops, defect)


def _rows_at(spec: ChainSpec, scenario: Scenario, sources, targets, times):
    """Chain dynamics, the times as an array, and the one-excitation rows
    (T, len(sources), len(targets)) at those times.

    Checks the chain size for ``scenario`` first; :func:`propagator_rows`
    checks that the times are a finite 1-D array.
    """
    scenario.check_sites(spec.n_sites)
    times = np.asarray(times, dtype=float)
    dyn = dynamics_for(spec)
    return dyn, times, propagator_rows(dyn.one, sources, targets, times)


def kraus_one_qubit_vacuum(spec: ChainSpec, times) -> np.ndarray:
    """Operator stack (T, 2, 2, 2) of one-qubit transfer, chain starting empty.

    Two operators per time: the excitation-preserving block
    ``diag(1, a_1^N)`` and a single lumped loss operator carrying the
    weight that leaked anywhere else, ``sqrt(1 - |a_1^N|^2)``.
    """
    _, times, rows = _rows_at(spec, Scenario.ONE_QUBIT_VACUUM, [[1]], [spec.n_sites], times)
    a_end = rows[:, 0, 0]
    ops = np.zeros((times.size, 2, 2, 2), dtype=complex)
    ops[:, 0, 0, 0] = 1.0
    ops[:, 0, 1, 1] = a_end
    # |a|^2 rounded as libm's hypot and pow round it (numpy's SIMD abs and
    # square can differ in the last bit), so that each operator is bit for
    # bit the scalar formula sqrt(max(0, 1 - abs(a) ** 2))
    modulus = np.hypot(a_end.real, a_end.imag)
    ops[:, 1, 0, 1] = np.sqrt(np.maximum(0.0, 1.0 - np.float_power(modulus, 2.0)))
    return ops


def kraus_one_qubit_uniform(spec: ChainSpec, times) -> np.ndarray:
    """Operator stack (T, K, 2, 2) of one-qubit transfer with one excitation
    spread over 2..N-1.

    The environment basis states carry 0, 1 or 2 excitations, giving
    ``K = 1 + (N-1) + (N-1)(N-2)/2`` operators whose entries are sums of
    one- and two-excitation amplitudes out of the initially occupied sites:
    the arrival operator (excitation at N), one operator per site k <= N-1
    holding the excitation, one per pair k < l <= N-1.
    """
    n = spec.n_sites
    occupied = Scenario.ONE_QUBIT_UNIFORM.occupied(n)
    dyn, times, rows = _rows_at(
        spec, Scenario.ONE_QUBIT_UNIFORM, [[1], occupied], range(1, n + 1), times
    )
    norm = 1.0 / np.sqrt(n - 2)
    a_sum = rows[:, 1] * norm  # summed over the occupied sites, to site k
    # pair targets in operator order: (k, N) for k <= N-1, then k < l <= N-1
    targets = [(k, n) for k in range(1, n)] + list(combinations(range(1, n), 2))
    b_sum = pair_rows(dyn, occupied, targets, times, rows) * norm
    ops = np.zeros((times.size, 1 + len(targets), 2, 2), dtype=complex)
    ops[:, 0, 1, 0] = a_sum[:, n - 1]
    ops[:, 1:n, 0, 0] = a_sum[:, : n - 1]
    ops[:, 1:n, 1, 1] = b_sum[:, : n - 1]
    ops[:, n:, 0, 1] = b_sum[:, n - 1 :]
    return ops


def kraus_two_qubit_vacuum(spec: ChainSpec, times) -> np.ndarray:
    """Operator stack (T, K, 4, 4) of two-qubit transfer {1,2} -> {N-1,N},
    chain starting empty.

    Operators split by the excitation count left outside the receiver pair:
    one excitation-conserving operator, N-2 single-leak operators (leak to
    site j <= N-2) and (N-2)(N-3)/2 double-leak operators (pairs
    k < j <= N-2).
    """
    n = spec.n_sites
    dyn, times, rows = _rows_at(
        spec, Scenario.TWO_QUBIT_VACUUM, [[1], [2]], range(1, n + 1), times
    )
    a1, a2 = rows[:, 0], rows[:, 1]  # from sites 1 and 2
    m = n - 2  # sites outside the receiver pair
    outside = range(1, n - 1)
    # pair targets in operator order: the receiver pair, (j, N), (j, N-1), k < j <= N-2
    targets = (
        [(n - 1, n)] + [(j, n) for j in outside] + [(j, n - 1) for j in outside]
        + list(combinations(outside, 2))
    )
    b12 = pair_rows(dyn, [2], targets, times, rows)
    ops = np.zeros((times.size, len(targets) - m, 4, 4), dtype=complex)
    ops[:, 0, 0, 0] = 1.0
    ops[:, 0, 1, 1], ops[:, 0, 1, 2] = a2[:, n - 1], a1[:, n - 1]
    ops[:, 0, 2, 1], ops[:, 0, 2, 2] = a2[:, n - 2], a1[:, n - 2]
    ops[:, 0, 3, 3] = b12[:, 0]
    single = ops[:, 1 : 1 + m]
    single[:, :, 0, 1] = a2[:, :m]
    single[:, :, 0, 2] = a1[:, :m]
    single[:, :, 1, 3] = b12[:, 1 : 1 + m]
    single[:, :, 2, 3] = b12[:, 1 + m : 1 + 2 * m]
    ops[:, 1 + m :, 0, 3] = b12[:, 1 + 2 * m :]
    return ops


_BUILDERS = {
    Scenario.ONE_QUBIT_VACUUM: kraus_one_qubit_vacuum,
    Scenario.ONE_QUBIT_UNIFORM: kraus_one_qubit_uniform,
    Scenario.TWO_QUBIT_VACUUM: kraus_two_qubit_vacuum,
}


def kraus_at_times(spec: ChainSpec, scenario: Scenario, times) -> KrausSet:
    """Kraus sets of ``scenario`` on ``spec`` at each of the 1-D ``times``,
    stacked along a leading time axis."""
    builder = _BUILDERS.get(scenario)
    if builder is None:
        raise ParameterError(f"unknown scenario {scenario!r}")
    return kraus_set(builder(spec, times))


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
