"""Signed Pauli strings in the binary symplectic representation.

A Pauli operator is stored as ``i^phase_k * X^xbits * Z^zbits`` with
``xbits``/``zbits`` packed into Python ints (bit ``i`` = qubit ``i+1``,
so qubit 1 is the leftmost character of the text form).  Hermitian
strings satisfy ``phase_k = popcount(xbits & zbits) (mod 2)``; general
products may pick up factors of ``+-i`` and are allowed to carry any
phase exponent.

Every other module takes these conventions from here:

- ``hermitian(n, xbits, zbits, negative)`` builds the Hermitian
  ``+-P``, each Y counted as iXZ;
- ``identity_sign(p, q, ...)`` is the sign of a product equal to +-1,
  in ``multiply``'s phase rule but without building partial products;
- ``pauli_expectations`` evaluates a list of Paulis on a state vector of
  length 2^n (basis index bit ``i`` = qubit ``i+1``) or on the
  orthonormal columns of a ground space in one pass,
  ``pauli_expectation`` evaluates one, and ``z_signs`` gives the
  (-1)^(z . s) sign of basis states s;
- a ``PauliString`` is frozen and hashable, so it is its own dict or
  set key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

__all__ = [
    "PauliString",
    "MeasurementSet",
    "PauliError",
    "hermitian",
    "parse_pauli",
    "format_pauli",
    "multiply",
    "commutes",
    "identity_sign",
    "pad",
    "read_measurement_file",
    "z_signs",
    "pauli_expectation",
    "pauli_expectations",
]


class PauliError(ValueError):
    """Malformed Pauli text or an invalid measurement set."""


@dataclass(frozen=True)
class PauliString:
    n: int
    phase_k: int
    xbits: int
    zbits: int

    def __post_init__(self):
        if self.n <= 0:
            raise PauliError("qubit count must be positive")
        if not 0 <= self.phase_k <= 3:
            raise PauliError("phase exponent must be in {0,1,2,3}")
        mask = (1 << self.n) - 1
        if self.xbits & ~mask or self.zbits & ~mask:
            raise PauliError("bit-vectors longer than qubit count")

    @property
    def is_hermitian(self) -> bool:
        return (self.phase_k - (self.xbits & self.zbits).bit_count()) % 2 == 0

    def __str__(self) -> str:
        return format_pauli(self)


def hermitian(n: int, xbits: int, zbits: int, negative: bool = False) -> PauliString:
    """The Hermitian ``(-1)^negative X^xbits Z^zbits`` with each Y = iXZ.

    Its phase exponent is popcount(xbits & zbits) + 2 * negative (mod 4).
    """
    return PauliString(n, ((xbits & zbits).bit_count() + 2 * negative) % 4, xbits, zbits)


_CHAR_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def parse_pauli(text: str) -> PauliString:
    """Parse e.g. ``-XIY`` into a PauliString (Y counts as iXZ)."""
    body = text.strip()
    negative = body.startswith("-")
    if body.startswith(("+", "-")):
        body = body[1:]
    if not body:
        raise PauliError(f"empty Pauli body in {text!r}")
    xbits = zbits = 0
    for i, ch in enumerate(body):
        try:
            x, z = _CHAR_XZ[ch]
        except KeyError:
            raise PauliError(f"bad character {ch!r} in {text!r}") from None
        xbits |= x << i
        zbits |= z << i
    return hermitian(len(body), xbits, zbits, negative)


def format_pauli(p: PauliString) -> str:
    """Inverse of parse_pauli for Hermitian strings."""
    chars = ["IXZY"[((p.xbits >> i) & 1) + 2 * ((p.zbits >> i) & 1)] for i in range(p.n)]
    k = (p.phase_k - (p.xbits & p.zbits).bit_count()) % 4
    if k == 0:
        sign = "+"
    elif k == 2:
        sign = "-"
    else:
        raise PauliError("cannot format a non-Hermitian phase")
    return sign + "".join(chars)


def multiply(p1: PauliString, p2: PauliString) -> PauliString:
    """Operator product p1 p2; phase picks up (-1)^(b1.a2)."""
    if p1.n != p2.n:
        raise PauliError("qubit counts differ")
    k = p1.phase_k + p2.phase_k + 2 * (p1.zbits & p2.xbits).bit_count()
    return PauliString(p1.n, k % 4, p1.xbits ^ p2.xbits, p1.zbits ^ p2.zbits)


def commutes(p1: PauliString, p2: PauliString) -> bool:
    """True iff the symplectic form a1.b2 + a2.b1 vanishes mod 2."""
    if p1.n != p2.n:
        raise PauliError("qubit counts differ")
    omega = (p1.xbits & p2.zbits).bit_count() + (p2.xbits & p1.zbits).bit_count()
    return omega % 2 == 0


def identity_sign(*factors: PauliString) -> Optional[int]:
    """+1/-1 if the factors' product (``multiply``'s, on one n) is (+-)identity, else None."""
    k = xbits = zbits = 0
    for p in factors:
        k += p.phase_k + 2 * (zbits & p.xbits).bit_count()
        xbits, zbits = xbits ^ p.xbits, zbits ^ p.zbits
    if xbits or zbits:
        return None
    if k % 2:
        raise PauliError("imaginary multiple of the identity")
    return 1 if k % 4 == 0 else -1


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def pad(p: PauliString, n_prime: int) -> PauliString:
    """Embed p on n_prime qubits, identity on the appended ones."""
    if n_prime < p.n:
        raise PauliError("cannot pad to fewer qubits")
    return PauliString(n_prime, p.phase_k, p.xbits, p.zbits)


@dataclass(frozen=True)
class MeasurementSet:
    """Ordered set of m Hermitian n-qubit Paulis defining a projection.

    Exact duplicates are rejected; a (P, -P) pair is allowed.  The
    identity is rejected since <1> = 1 carries no information and would
    degenerate the LP.
    """

    paulis: tuple

    def __post_init__(self):
        if not self.paulis:
            raise PauliError("measurement set must not be empty")
        n = self.paulis[0].n
        seen = set()
        for p in self.paulis:
            if p.n != n:
                raise PauliError("mixed qubit counts in measurement set")
            if not p.is_hermitian:
                raise PauliError(f"non-Hermitian measurement {p!r}")
            if p.xbits == 0 and p.zbits == 0:
                raise PauliError("identity is not a valid measurement")
            if p in seen:
                raise PauliError(f"duplicate measurement {format_pauli(p)}")
            seen.add(p)

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "MeasurementSet":
        return cls(tuple(parse_pauli(t) for t in texts))

    @property
    def n(self) -> int:
        return self.paulis[0].n

    @property
    def m(self) -> int:
        return len(self.paulis)

    def padded(self, n_prime: int) -> "MeasurementSet":
        return MeasurementSet(tuple(pad(p, n_prime) for p in self.paulis))

    def __iter__(self):
        return iter(self.paulis)

    def __len__(self):
        return len(self.paulis)

    def __getitem__(self, i):
        return self.paulis[i]


def read_measurement_file(path) -> MeasurementSet:
    """One Pauli per line; '#' comments and blank lines are skipped."""
    paulis = []
    width = None
    seen = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            body = line.lstrip("+-")
            if width is None:
                width = len(body)
            elif len(body) != width:
                raise PauliError(f"line {lineno}: width {len(body)} != {width}")
            try:
                parsed = parse_pauli(line)
            except PauliError as exc:
                raise PauliError(f"line {lineno}: {exc}") from None
            if parsed.xbits == 0 and parsed.zbits == 0:
                raise PauliError(f"line {lineno}: identity is not a valid measurement")
            if parsed in seen:
                raise PauliError(
                    f"line {lineno}: duplicate measurement {format_pauli(parsed)}"
                    f" (first seen on line {seen[parsed]})"
                )
            seen[parsed] = lineno
            paulis.append(parsed)
    if not paulis:
        raise PauliError("no measurements in file")
    return MeasurementSet(tuple(paulis))


# Paulis whose odd table ``_action`` keeps: a sweep's measurement set, up to 42
# terms on 14 qubits, at one byte a basis state
_ACTION_CACHE = 64
# i^k as Python complex numbers, whose arithmetic costs less than numpy
# scalars'; the zero parts are all +0.0
_PHASES = (1 + 0j, 1j, -1 + 0j, complex(0, -1))


def z_signs(indices: np.ndarray, zbits: int) -> np.ndarray:
    """(-1)^popcount(s & zbits) for each basis index s: Z^zbits |s> = sign |s>."""
    return 1.0 - 2.0 * (np.bitwise_count(indices & np.int64(zbits)) & 1)


@lru_cache(maxsize=_ACTION_CACHE)
def _action(p: PauliString) -> Tuple[np.ndarray, complex]:
    """(odd, phase): P|s ^ x> = phase |s>, or -phase where odd[s].

    phase is i^k.  A table of the 2^n complex phases themselves, and of
    the indices s ^ x, raised the peak memory of an XXZ n=12 sweep by
    1.5 MB, against 0.1 MB for this bool table.
    """
    odd = z_signs(np.arange(1 << p.n) ^ p.xbits, p.zbits) < 0
    odd.setflags(write=False)
    return odd, _PHASES[p.phase_k]


def pauli_expectations(state: np.ndarray, paulis: Iterable[PauliString]) -> Tuple[float, ...]:
    """tr(P Pi)/d for each Hermitian P, Pi projecting onto the columns of ``state``.

    ``state`` is one unit vector of length 2^n (d = 1: <state|P|state>) or
    a 2^n x d block of orthonormal columns.  Each distinct X-part x takes
    one gather, the overlap g[s] = sum_c conj(state[s, c]) state[s ^ x, c];
    each P = i^k X^x Z^z then takes one reduction over ``_action``'s odd
    table, i^k (sum g - 2 sum_odd g) / d.  A P's value does not depend on
    the other Paulis of the list.  Each value is clipped to [-1, 1].
    """
    size = state.shape[0]
    d = state.shape[1] if state.ndim == 2 else 1
    bra = state.conj() if np.iscomplexobj(state) else state
    # overlaps[x]: (g, sum g) for X-part x, the sum a Python number
    overlaps: Dict[int, Tuple[np.ndarray, complex]] = {}
    values = []
    for p in paulis:
        if not p.is_hermitian:
            raise ValueError("expectation requires a Hermitian Pauli")
        if size != 1 << p.n:
            raise ValueError("state length does not match qubit count")
        if p.xbits not in overlaps:
            g = bra * (state.take(np.arange(size) ^ p.xbits, axis=0) if p.xbits else state)
            if d > 1:
                g = g.sum(axis=1)
            overlaps[p.xbits] = g, g.sum().item()
        g, total = overlaps[p.xbits]
        odd, phase = _action(p)
        val = phase * (total - 2 * np.dot(odd, g).item()) / d
        if abs(val.imag) > 1e-10:
            raise ValueError("imaginary residue in Hermitian expectation")
        values.append(float(min(1.0, max(-1.0, val.real))))
    return tuple(values)


def pauli_expectation(state: np.ndarray, p: PauliString) -> float:
    """<state|P|state> for Hermitian P, ``pauli_expectations`` of the one Pauli."""
    return pauli_expectations(state, (p,))[0]
