"""Canonical bases for fixed-excitation sectors of a spin network.

Total magnetization is conserved, so the dynamics never mixes configurations
with different numbers of flipped spins.  The fidelity laws read the one- and
the two-excitation sector; the vacuum sector holds a single configuration
whose energy the gauge sets to zero, so no law reads it and it has no basis
here.  Each sector gets a dense coordinate space with one rule for both
excitation numbers q: its configurations are
``itertools.combinations(range(1, N + 1), q)``, the strictly increasing
flipped-site tuples in lexicographic order.  This module owns that ordering
and the two-way maps between configurations and vector indices.  Sites are
labelled 1..N throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import ParameterError


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of all configurations with a fixed excitation count.

    Attributes
    ----------
    n_sites : int
        Number of network sites N.
    n_excitations : int
        Number of flipped spins q (1 or 2).
    configurations : tuple of tuple of int
        Lexicographically ordered site tuples, each strictly increasing.
    """

    n_sites: int
    n_excitations: int
    configurations: tuple[tuple[int, ...], ...]
    _index: dict[tuple[int, ...], int] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {c: k for k, c in enumerate(self.configurations)}
        )

    @property
    def dimension(self) -> int:
        return len(self.configurations)

    def index_of(self, config) -> int:
        """Return the dense index of a configuration (sorted site tuple)."""
        config = tuple(int(s) for s in config)
        index = self._index.get(config)
        if index is None:
            raise ParameterError(
                f"config {config} is not a sorted in-range configuration of "
                f"the (n_sites={self.n_sites}, q={self.n_excitations}) sector"
            )
        return index

    def config_of(self, index: int) -> tuple[int, ...]:
        """Return the configuration stored at a dense index."""
        if not 0 <= index < self.dimension:
            raise ParameterError(
                f"index {index} outside [0, {self.dimension}) for this sector"
            )
        return self.configurations[index]


def build_sector_basis(n_sites: int, n_excitations: int) -> SectorBasis:
    """Build the canonical basis of the ``n_excitations`` sector.

    The configurations are the ``n_excitations``-combinations of the sites
    1..N in lexicographic order: the sites (1,), ..., (N,) for q = 1, and
    the pairs (1,2), (1,3), ..., (N-1,N) for q = 2.

    Raises
    ------
    ParameterError
        If ``n_sites < 2`` or ``n_excitations`` is not 1 or 2.
    """
    if n_sites < 2:
        raise ParameterError(f"n_sites must be >= 2, got {n_sites}")
    if n_excitations not in (1, 2):
        raise ParameterError(f"n_excitations must be 1 or 2, got {n_excitations}")
    configs = tuple(combinations(range(1, n_sites + 1), n_excitations))
    return SectorBasis(n_sites, n_excitations, configs)
