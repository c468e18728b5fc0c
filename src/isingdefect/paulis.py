"""Pauli strings and weighted Pauli sums on an n-qubit register.

Conventions used across the package:
- sites (qubits) are 0-based; basis index bit j belongs to qubit j, qubit 0 is
  the least significant bit
- a PauliString is a hermitian product of the letters X, Y and Z, stored as
  X/Z site bitmasks: it denotes i^n_y X^xmask Z^zmask, since Y_j = i X_j Z_j
  sets both mask bits and carries its own factor of i
- every other scalar lives on a WeightedPauliSum coefficient
- `pauli_table` is the one owner of the rows that apply X^x Z^z to amplitudes
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_LETTER_BITS = {"X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
DENSE_LIMIT = 12  # largest register converted to a dense matrix


@dataclass(frozen=True)
class PauliString:
    """The hermitian letters product i^n_y X^x Z^z, x and z site bitmasks."""

    x: int = 0
    z: int = 0

    @classmethod
    def from_ops(cls, ops):
        """Build from a site -> letter map, e.g. {0: 'Z', 3: 'Y'}."""
        x = z = 0
        for site, letter in ops.items():
            if site < 0:
                raise ValueError(f"negative site {site}")
            bx, bz = _LETTER_BITS[letter]
            x |= bx << site
            z |= bz << site
        return cls(x, z)

    @property
    def ops(self):
        """Site -> letter map (identity sites omitted)."""
        out = {}
        support = self.x | self.z
        site = 0
        while support >> site:
            bx = (self.x >> site) & 1
            bz = (self.z >> site) & 1
            if bx or bz:
                out[site] = "Y" if (bx and bz) else ("X" if bx else "Z")
            site += 1
        return out

    @property
    def n_y(self):
        return (self.x & self.z).bit_count()

    @property
    def e(self):
        """Exponent of the factor i^e that the Ys add to X^x Z^z (mod 4)."""
        return self.n_y % 4

    def max_site(self):
        support = self.x | self.z
        return support.bit_length() - 1 if support else -1

    def __repr__(self):
        return " ".join(f"{s}:{p}" for s, p in self.ops.items()) or "I"


class WeightedPauliSum:
    """Linear combination of Pauli strings with complex coefficients.

    Terms are keyed by their string, so no two stored terms share one
    (canonical merge). Strings are hermitian, which makes hermiticity of the
    sum equivalent to all coefficients being real.
    """

    def __init__(self, n_qubits, terms=None):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self._terms = {}
        self._grouped = None
        if terms:
            for coeff, string in terms:
                self.add(coeff, string)

    def add(self, coeff, string: PauliString):
        """Accumulate coeff * string, merging into the canonical term map."""
        if string.max_site() >= self.n_qubits:
            raise ValueError("string exceeds register size")
        self._terms[string] = self._terms.get(string, 0.0 + 0.0j) + coeff
        self._grouped = None
        return self

    def grouped(self):
        """(diag, xsites, rest): the real 2^n vector of every real-weighted
        Z-only term times its parity signs, (site, real coefficient) per
        single-site X term, and every other (coefficient, string) term.
        Built on first use and kept until the next `add`."""
        if self._grouped is None:
            diag = np.zeros(1 << self.n_qubits)
            xsites, rest = [], []
            for coeff, string in self.terms():
                if coeff.imag == 0.0 and string.x == 0:
                    diag += coeff.real * parity_signs(string.z, diag.size)
                elif coeff.imag == 0.0 and string.z == 0 and string.x.bit_count() == 1:
                    xsites.append((string.x.bit_length() - 1, coeff.real))
                else:
                    rest.append((coeff, string))
            diag.setflags(write=False)
            self._grouped = diag, tuple(xsites), tuple(rest)
        return self._grouped

    def terms(self):
        """Yield (coefficient, PauliString) pairs."""
        for string, coeff in self._terms.items():
            yield coeff, string

    def is_hermitian(self):
        return all(abs(c.imag) <= 1e-12 for c in self._terms.values())


def parity_signs(mask, dim: int):
    """(-1)^popcount(k & mask) as float64, for every basis index k < dim;
    an array of masks gives one row of signs per mask."""
    idx = np.arange(dim, dtype=np.uint64)
    masks = np.asarray(mask, dtype=np.uint64)[..., None]
    return 1.0 - 2.0 * (np.bitwise_count(idx & masks) & 1)


@lru_cache(maxsize=32)
def pauli_table(x, z, dim: int):
    """(index, signs), cached read-only, with (X^x Z^z v)[k] = signs[k] v[index[k]]:
    index[k] = k ^ x, None when x is 0, and signs[k] = (-1)^popcount((k ^ x) & z),
    the sign of the source amplitude. x and z are masks, or equal-length
    tuples of masks (an int broadcasts) for one row per string."""
    moved = np.arange(dim, dtype=np.uint64) ^ np.asarray(x, dtype=np.uint64)[..., None]
    signs = 1.0 - 2.0 * (np.bitwise_count(moved & np.asarray(z, dtype=np.uint64)[..., None]) & 1)
    index = moved.astype(np.int64) if np.any(x) else None
    signs.setflags(write=False)
    if index is not None:
        index.setflags(write=False)
    return index, signs


def dense_matrix(H: WeightedPauliSum):
    """Dense matrix of a weighted Pauli sum, real when every term is.

    The one Pauli-to-dense conversion, for the CLI's Hamiltonian dumps and
    the tests that compare the package's Hamiltonian with an independent
    build; guarded to DENSE_LIMIT qubits (a complex matrix is 268 MB there).
    """
    n = H.n_qubits
    if n > DENSE_LIMIT:
        raise ValueError(f"dense conversion guarded to n <= {DENSE_LIMIT}")
    dim = 1 << n
    rows = np.arange(dim)
    real = all(c.imag == 0.0 and string.n_y % 2 == 0 for c, string in H.terms())
    mat = np.zeros((dim, dim), dtype=np.float64 if real else np.complex128)
    for coeff, string in H.terms():
        index, signs = pauli_table(string.x, string.z, dim)
        weight = coeff * _PHASES[string.e]
        mat[rows, rows if index is None else index] += (weight.real if real else weight) * signs
    return mat
