"""Core domain types: alphabets, instances, and the Hamming-distance objective."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct single-character symbols.

    The symbol order is the canonical tie-break order used wherever a
    deterministic choice among symbols is needed.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must not be empty")
        if any(not isinstance(s, str) or len(s) != 1 for s in self.symbols):
            raise ValueError("alphabet symbols must be single characters")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"alphabet has duplicate symbols: {''.join(self.symbols)!r}")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})
        points = np.array([ord(s) for s in self.symbols], dtype="<u4")
        object.__setattr__(self, "_points", points)

    @classmethod
    def from_string(cls, chars: str) -> "Alphabet":
        """Alphabet whose order is the order of ``chars``."""
        return cls(tuple(chars))

    @classmethod
    def inferred(cls, strings: Iterable[str]) -> "Alphabet":
        """Lexicographically ordered alphabet of every character present."""
        seen: set[str] = set()
        for s in strings:
            seen.update(s)
        if not seen:
            raise FormatError("cannot infer an alphabet from empty input")
        return cls(tuple(sorted(seen)))

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(
                f"symbol {symbol!r} not in alphabet {''.join(self.symbols)!r}"
            ) from None

    def encode(self, strings: Sequence[str]) -> np.ndarray:
        """(m, n) int16 matrix of symbol indices for m equal-length strings.

        Raises FormatError for a ragged row or a symbol outside the alphabet.
        """
        rows = [str(s) for s in strings]
        n = len(rows[0]) if rows else 0
        for i, s in enumerate(rows):
            if len(s) != n:
                raise FormatError(f"string {i + 1} has length {len(s)}, expected {n}")
        flat = np.frombuffer(
            "".join(rows).encode("utf-32-le", "surrogatepass"), dtype="<u4"
        ).reshape(len(rows), n)
        order = np.argsort(self._points).astype(np.int16)  # type: ignore[attr-defined]
        keys = self._points[order]  # type: ignore[attr-defined]
        pos = np.minimum(np.searchsorted(keys, flat), len(keys) - 1)
        foreign = keys[pos] != flat
        if foreign.any():
            i, j = np.argwhere(foreign)[0]
            raise FormatError(
                f"symbol {rows[i][j]!r} not in alphabet {''.join(self.symbols)!r}"
            )
        return order[pos]

    def decode(self, codes: np.ndarray) -> tuple[str, ...]:
        """Inverse of ``encode``: one string per row of a code matrix (a 1-D
        code vector is one row)."""
        points = self._points[np.atleast_2d(codes)]  # type: ignore[attr-defined]
        text = points.tobytes().decode("utf-32-le", "surrogatepass")
        n = points.shape[1]
        return tuple(text[r:r + n] for r in range(0, len(text), n))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Instance:
    """A set of equal-length strings over a shared alphabet."""

    alphabet: Alphabet
    strings: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.strings or not self.strings[0]:
            raise FormatError("instance needs at least one nonempty string")
        codes = self.alphabet.encode(self.strings)
        codes.flags.writeable = False
        object.__setattr__(self, "_codes", codes)

    @property
    def m(self) -> int:
        return len(self.strings)

    @property
    def n(self) -> int:
        return len(self.strings[0])

    @property
    def codes(self) -> np.ndarray:
        """Read-only (m, n) matrix of alphabet indices."""
        return self._codes  # type: ignore[attr-defined]


@dataclass(frozen=True)
class CenterString:
    """A candidate center with its per-string distances and their maximum."""

    chars: str
    distances: tuple[int, ...]
    objective: int

    def __post_init__(self) -> None:
        if self.objective != max(self.distances):
            raise ValueError("objective must equal the maximum distance")


def hamming_distance(s: Sequence[str] | str, t: Sequence[str] | str) -> int:
    """Number of positions where two equal-length strings disagree."""
    if len(s) != len(t):
        raise ValueError(f"length mismatch: {len(s)} vs {len(t)}")
    return sum(a != b for a, b in zip(s, t))


def objective(t: str, inst: Instance) -> CenterString:
    """Evaluate candidate center ``t``: per-string distances and their max."""
    if len(t) != inst.n:
        raise ValueError(f"center has length {len(t)}, expected {inst.n}")
    dists = (inst.codes != inst.alphabet.encode([t])).sum(axis=1)
    return CenterString(
        chars=str(t),
        distances=tuple(int(d) for d in dists),
        objective=int(dists.max()),
    )


def validate_instance(
    raw: Sequence[str], alphabet: Alphabet | None = None
) -> Instance:
    """Build a well-formed Instance from raw strings.

    The alphabet is inferred as the sorted set of characters present unless
    an explicit one is supplied.
    """
    rows = tuple(str(s) for s in raw)
    return Instance(alphabet or Alphabet.inferred(rows), rows)
