"""Spin-network Hamiltonian specification and its excitation-sector blocks.

The network Hamiltonian is a sum over unordered site pairs of
``J_ij (XX + YY + D_ij ZZ)`` plus local ``B_i Z`` fields, with the convention
that ``|0>`` carries Z eigenvalue +1 and an excitation ``|1>`` carries -1.
A pair term contributes a hopping matrix element of ``2 J_ij`` between
configurations that differ by moving one excitation.

Every sector matrix is shifted by minus the vacuum energy, so the
zero-excitation sector is identically zero and the all-down state acquires no
phase during evolution.  This single gauge choice is used consistently by the
brute-force reference module as well, which makes transition-amplitude phases
directly comparable across the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .sectors import SectorBasis


@dataclass(frozen=True)
class Weak:
    """Weak end-coupling protocol: end bonds ``j0``, uniform bulk."""

    j0: float

    def __post_init__(self):
        if not self.j0 > 0:
            raise ParameterError(f"Weak.j0 must be positive, got {self.j0}")

    label = "weak"


@dataclass(frozen=True)
class Barrier:
    """Uniform chain with strong fields ``h0`` next to sender and receiver."""

    h0: float

    def __post_init__(self):
        if not self.h0 > 0:
            raise ParameterError(f"Barrier.h0 must be positive, got {self.h0}")

    label = "barrier"


@dataclass(frozen=True)
class Perfect:
    """Fully engineered couplings ``J*sqrt(i*(N-i))``, no fields."""

    label = "perfect"


ProtocolKind = Weak | Barrier | Perfect


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Couplings, anisotropies and local fields of an N-site network.

    Specs compare and hash by content (:meth:`cache_key`).

    Attributes
    ----------
    n_sites : int
        Number of sites N (>= 2).
    couplings : ndarray, shape (N, N)
        Symmetric pair couplings J_ij, zero diagonal; per unordered pair.
    anisotropies : ndarray, shape (N, N)
        Symmetric ZZ weights D_ij entering as J_ij * D_ij; zero diagonal.
    fields : ndarray, shape (N,)
        Local field strengths B_i.
    """

    n_sites: int
    couplings: np.ndarray
    anisotropies: np.ndarray
    fields: np.ndarray

    def __post_init__(self):
        n = self.n_sites
        if n < 2:
            raise ParameterError(f"n_sites must be >= 2, got {n}")
        couplings = np.ascontiguousarray(self.couplings, dtype=float)
        anis = np.ascontiguousarray(self.anisotropies, dtype=float)
        fields = np.ascontiguousarray(self.fields, dtype=float)
        for name, mat in (("couplings", couplings), ("anisotropies", anis)):
            if mat.shape != (n, n):
                raise ParameterError(f"{name} must have shape ({n}, {n})")
            if not np.all(np.isfinite(mat)):
                raise ParameterError(f"{name} contains non-finite entries")
            if not np.array_equal(mat, mat.T):
                raise ParameterError(f"{name} must be symmetric")
            if np.any(np.diagonal(mat) != 0.0):
                raise ParameterError(f"{name} must have a zero diagonal")
        if fields.shape != (n,):
            raise ParameterError(f"fields must have shape ({n},)")
        if not np.all(np.isfinite(fields)):
            raise ParameterError("fields contains non-finite entries")
        for name, arr in (
            ("couplings", couplings),
            ("anisotropies", anis),
            ("fields", fields),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def cache_key(self) -> bytes:
        """Content hash used to cache spectral data per spec."""
        return b"|".join(
            (
                str(self.n_sites).encode(),
                self.couplings.tobytes(),
                self.anisotropies.tobytes(),
                self.fields.tobytes(),
            )
        )

    def __eq__(self, other):
        if not isinstance(other, ChainSpec):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def with_uniform_field(self, b: float) -> "ChainSpec":
        """Return a copy with ``b`` added to every local field."""
        if not np.isfinite(b):
            raise ParameterError(f"uniform field must be finite, got {b}")
        return ChainSpec(
            self.n_sites, self.couplings, self.anisotropies, self.fields + b
        )

    def vacuum_energy(self) -> float:
        """Diagonal energy of the all-down configuration before the shift."""
        return float(
            self.fields.sum()
            + 0.5 * (self.couplings * self.anisotropies).sum()
        )


def protocol_preset(
    kind: ProtocolKind, n_sites: int, n_senders: int = 1
) -> ChainSpec:
    """Build the chain for one of the three transfer protocols.

    With ``n_senders=1`` (single-qubit transfer, sender at site 1 and
    receiver at site N): the weak protocol softens the bonds (1,2) and
    (N-1,N) to ``j0``; the barrier protocol puts fields ``h0`` on sites 2 and
    N-1; the perfect protocol engineers ``J*sqrt(i*(N-i))`` bonds.  For block
    transfer (``n_senders=2``, sender sites {1,2} and receiver {N-1,N}) the
    softened bonds / barrier fields sit at the same relative position: just
    outside the sender and receiver blocks.  The bulk coupling scale is J = 1
    and every anisotropy is zero.

    Raises
    ------
    ParameterError
        If ``n_sites < 4`` (the special sites would overlap) or the sender
        block is not 1 or 2 sites.
    """
    if n_sites < 4:
        raise ParameterError(
            f"protocol presets require n_sites >= 4, got {n_sites}"
        )
    if n_senders not in (1, 2):
        raise ParameterError(f"n_senders must be 1 or 2, got {n_senders}")
    if n_senders == 2 and n_sites < 6:
        raise ParameterError(
            "block presets need n_sites >= 6 so the special sites stay "
            f"between the sender and receiver blocks, got {n_sites}"
        )
    n = n_sites
    couplings = np.zeros((n, n))
    fields = np.zeros(n)
    if isinstance(kind, Perfect):
        for i in range(1, n):
            couplings[i - 1, i] = couplings[i, i - 1] = np.sqrt(i * (n - i))
    else:
        for i in range(1, n):
            couplings[i - 1, i] = couplings[i, i - 1] = 1.0
        if isinstance(kind, Weak):
            lo, hi = n_senders, n - n_senders  # bonds (lo, lo+1), (hi, hi+1)
            couplings[lo - 1, lo] = couplings[lo, lo - 1] = kind.j0
            couplings[hi - 1, hi] = couplings[hi, hi - 1] = kind.j0
        elif isinstance(kind, Barrier):
            fields[n_senders] = kind.h0          # site n_senders + 1
            fields[n - n_senders - 1] = kind.h0  # site N - n_senders
        else:
            raise ParameterError(f"unknown protocol kind {kind!r}")
    return ChainSpec(n, couplings, np.zeros((n, n)), fields)


def sector_hamiltonian(spec: ChainSpec, basis: SectorBasis) -> np.ndarray:
    """Dense real-symmetric restriction of the Hamiltonian to one sector.

    One rule fills every sector.  A configuration's diagonal entry is its
    field and ZZ energy minus the vacuum energy (the gauge fix), and each
    hop of one of its excitations onto an empty site that the hopping
    site's couplings row reaches adds ``2 J`` to one off-diagonal entry.
    The q = 0 sector is returned as the literal zero that the gauge
    defines: summed out, the vacuum's field energy minus ``vacuum_energy``
    can leave a rounding residue.

    Raises
    ------
    ParameterError
        If the basis was built for a different site count.
    """
    if basis.n_sites != spec.n_sites:
        raise ParameterError(
            f"basis is for n_sites={basis.n_sites}, spec has {spec.n_sites}"
        )
    if basis.n_excitations == 0:
        return np.zeros((1, 1))
    n = spec.n_sites
    jd = spec.couplings * spec.anisotropies
    use_zz = np.any(jd != 0.0)
    e_vac = spec.vacuum_energy()
    reach = [(np.flatnonzero(row) + 1).tolist() for row in spec.couplings]
    h = np.zeros((basis.dimension, basis.dimension))
    for row, config in enumerate(basis.configurations):
        z = np.ones(n)
        z[[site - 1 for site in config]] = -1.0
        diag = float(spec.fields @ z)
        if use_zz:
            diag += float(0.5 * z @ jd @ z)
        h[row, row] = diag - e_vac
        for moved in config:
            kept = tuple(site for site in config if site != moved)
            for target in reach[moved - 1]:
                if target not in config:
                    col = basis.index_of(sorted(kept + (target,)))
                    h[row, col] += 2.0 * spec.couplings[moved - 1, target - 1]
    return h
