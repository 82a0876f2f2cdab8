"""Banded real symmetric matrix storage with exact structural zeros."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

__all__ = [
    "BandedSymmetricMatrix",
    "IrreducibleBlock",
    "make_banded",
    "split_irreducible",
    "read_matrix",
    "write_matrix",
]


@dataclass(frozen=True)
class IrreducibleBlock:
    """Half-open index range [start, end) that no nonzero coupling crosses."""

    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


class BandedSymmetricMatrix:
    """Real symmetric N x N matrix with h_nm = 0 enforced for |n - m| > M.

    Storage is diagonal-major: band k (k = 0..M) is one contiguous array
    holding h_{n,n+k} for n = 0..N-1-k.  Only the upper triangle is stored,
    so symmetry holds by construction, and entries outside the band are
    structural zeros: reading them yields exactly 0.0 and there is no way
    to write them.

    Instances are immutable from the outside; the flow integrator works on
    private copies of the raw band arrays.
    """

    __slots__ = ("dim", "bandwidth", "_bands")

    def __init__(self, dim: int, bandwidth: int, bands: Iterable[np.ndarray]):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if not 0 <= bandwidth < dim:
            raise ValueError(
                f"bandwidth must satisfy 0 <= M < N, got M={bandwidth}, N={dim}"
            )
        bands = [np.asarray(b, dtype=float) for b in bands]
        if len(bands) != bandwidth + 1:
            raise ValueError(
                f"expected {bandwidth + 1} bands, got {len(bands)}"
            )
        for k, b in enumerate(bands):
            if b.shape != (dim - k,):
                raise ValueError(
                    f"band {k} must have length {dim - k}, got {b.shape}"
                )
            if not np.all(np.isfinite(b)):
                raise ValueError(f"non-finite entry in band {k}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bandwidth", bandwidth)
        object.__setattr__(self, "_bands", bands)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BandedSymmetricMatrix is immutable")

    # -- element access -----------------------------------------------------

    def get(self, n: int, m: int) -> float:
        """Entry h_nm; exactly 0.0 outside the band."""
        if not (0 <= n < self.dim and 0 <= m < self.dim):
            raise IndexError(f"index ({n}, {m}) outside {self.dim}x{self.dim}")
        k = abs(n - m)
        if k > self.bandwidth:
            return 0.0
        return float(self._bands[k][min(n, m)])

    def band(self, k: int) -> np.ndarray:
        """Read-only view of band k (entries h_{n,n+k})."""
        view = self._bands[k].view()
        view.setflags(write=False)
        return view

    def diagonal(self) -> np.ndarray:
        return self.band(0)

    def copy_bands(self) -> list[np.ndarray]:
        """Writable copies of the raw band arrays (integrator work state)."""
        return [b.copy() for b in self._bands]

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for k, b in enumerate(self._bands):
            idx = np.arange(self.dim - k)
            a[idx, idx + k] = b
            a[idx + k, idx] = b
        return a

    @classmethod
    def from_dense(cls, a: np.ndarray, bandwidth: int | None = None) -> "BandedSymmetricMatrix":
        """Build from a dense symmetric array, verifying the band profile."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected square matrix, got shape {a.shape}")
        n = a.shape[0]
        if not np.allclose(a, a.T, rtol=0.0, atol=0.0):
            raise ValueError("matrix is not exactly symmetric")
        if bandwidth is None:
            bandwidth = 0
            for k in range(n - 1, 0, -1):
                if np.any(np.diagonal(a, k) != 0.0):
                    bandwidth = k
                    break
        else:
            for k in range(bandwidth + 1, n):
                if np.any(np.diagonal(a, k) != 0.0):
                    raise ValueError(f"nonzero entry at offset {k} > bandwidth {bandwidth}")
        bands = [np.ascontiguousarray(np.diagonal(a, k)) for k in range(bandwidth + 1)]
        return cls(n, bandwidth, bands)

    # -- scalar functionals ---------------------------------------------------

    def trace(self) -> float:
        return float(self._bands[0].sum())

    def frobenius_norm_sq(self) -> float:
        """Sum of h_nm^2 over all n, m (both symmetric copies counted)."""
        total = float(np.dot(self._bands[0], self._bands[0]))
        for b in self._bands[1:]:
            total += 2.0 * float(np.dot(b, b))
        return total

    def offdiag_norm_sq(self) -> float:
        total = 0.0
        for b in self._bands[1:]:
            total += 2.0 * float(np.dot(b, b))
        return total

    def partial_trace(self, r: int) -> float:
        """Sum of the first r diagonal entries."""
        if not 1 <= r <= self.dim:
            raise ValueError(f"r must be in 1..{self.dim}, got {r}")
        return float(self._bands[0][:r].sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BandedSymmetricMatrix(dim={self.dim}, bandwidth={self.bandwidth})"


def make_banded(
    dim: int, bandwidth: int, entries: Mapping[tuple[int, int], float]
) -> BandedSymmetricMatrix:
    """Construct a banded symmetric matrix from an (n, m) -> value map.

    Unspecified in-band entries are zero.  An entry with |n - m| > bandwidth
    or a non-finite value is rejected.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 0 <= bandwidth < dim:
        raise ValueError(f"bandwidth must satisfy 0 <= M < N, got M={bandwidth}, N={dim}")
    bands = [np.zeros(dim - k) for k in range(bandwidth + 1)]
    for (n, m), value in entries.items():
        if not (0 <= n < dim and 0 <= m < dim):
            raise ValueError(f"entry ({n}, {m}) outside {dim}x{dim} matrix")
        k = abs(n - m)
        if k > bandwidth:
            raise ValueError(f"entry ({n}, {m}) outside band |n-m| <= {bandwidth}")
        if not math.isfinite(value):
            raise ValueError(f"non-finite value at ({n}, {m}): {value!r}")
        bands[k][min(n, m)] = value
    return BandedSymmetricMatrix(dim, bandwidth, bands)


def boundary_coupling_sq(bands: list[np.ndarray], cut: int) -> float:
    """Sum of h_nm^2 over stored entries with n < cut <= m.

    Operates on raw band arrays so the integrator can share it.
    """
    total = 0.0
    for k in range(1, len(bands)):
        lo = max(cut - k, 0)
        seg = bands[k][lo:cut]
        total += float(np.dot(seg, seg))
    return total


def split_irreducible(h: BandedSymmetricMatrix) -> list[IrreducibleBlock]:
    """Decompose into maximal blocks separated by exactly-zero couplings.

    A cut after index c-1 requires every stored entry crossing the boundary
    (n < c <= m <= n + M) to be exactly zero; tolerance-based splitting is
    deliberately not offered here.  The blocks are contiguous, so for
    M >= 2 one block can hold several connected components of the coupling
    graph: h01 = h12 = 0 with h02 != 0 is one block in which index 1
    couples to nothing.
    """
    bands = [h.band(k) for k in range(h.bandwidth + 1)]
    blocks: list[IrreducibleBlock] = []
    start = 0
    for cut in range(1, h.dim):
        if boundary_coupling_sq(bands, cut) == 0.0:
            blocks.append(IrreducibleBlock(start, cut))
            start = cut
    blocks.append(IrreducibleBlock(start, h.dim))
    return blocks


# -- plain-text matrix format -------------------------------------------------
#
# Header line "bandmat N M", then one line "n m value" per nonzero stored
# entry, with values in round-trip decimal precision.

def write_matrix(h: BandedSymmetricMatrix, f: IO[str]) -> None:
    f.write(f"bandmat {h.dim} {h.bandwidth}\n")
    for k in range(h.bandwidth + 1):
        b = h.band(k)
        for n in np.nonzero(b)[0]:
            f.write(f"{int(n)} {int(n) + k} {float(b[n])!r}\n")


def read_matrix(f: IO[str]) -> BandedSymmetricMatrix:
    """Parse the text format; errors carry the offending line number."""
    header = f.readline()
    parts = header.split()
    if len(parts) != 3 or parts[0] != "bandmat":
        raise ValueError("line 1: expected header 'bandmat N M'")
    try:
        dim, bandwidth = int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("line 1: N and M must be integers") from None
    entries: dict[tuple[int, int], float] = {}
    for lineno, line in enumerate(f, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'n m value'")
        try:
            n, m, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed entry {line!r}") from None
        if (n, m) in entries or (m, n) in entries:
            raise ValueError(f"line {lineno}: duplicate entry ({n}, {m})")
        entries[(n, m)] = value
    try:
        return make_banded(dim, bandwidth, entries)
    except ValueError as exc:
        raise ValueError(f"invalid matrix data: {exc}") from None
