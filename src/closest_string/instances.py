"""Instance text format and seeded random generation.

File format (UTF-8, line oriented): one string per line; blank lines and
lines starting with ``#`` are ignored; an optional header line
``alphabet: <chars>`` before the first string pins the alphabet (and its
order) explicitly. Symbols are single characters other than ``#``,
``:`` and whitespace.

Random instances come from NumPy's PCG64 bit generator, so a seed fully
determines the instance bytes on every platform.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .core import Alphabet, Instance
from .errors import FormatError

_HEADER = "alphabet:"
# '#' starts a comment, ':' lets a row pass for the header, and whitespace
# is stripped from line ends, so none of them would read back as a symbol.
_RESERVED = re.compile(r"[#:\s]")


def _check_symbols(chars: str, line: int | None = None) -> None:
    bad = _RESERVED.search(chars)
    if bad:
        raise FormatError(f"reserved symbol {bad.group()!r} ('#', ':' or whitespace)", line)


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape, alphabet, and seed of one random instance."""

    m: int
    n: int
    alphabet: Alphabet
    seed: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


def generate_uniform(cfg: GeneratorConfig) -> Instance:
    """m x n characters drawn i.i.d. uniformly over the alphabet.

    Same config, byte-identical instance: the PCG64 stream for ``cfg.seed``
    is consumed row-major.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    codes = rng.integers(0, len(cfg.alphabet), size=(cfg.m, cfg.n))
    return Instance(cfg.alphabet, cfg.alphabet.decode(codes))


def parse_instance(data: str | bytes) -> Instance:
    """Parse the line-oriented instance format; errors carry line numbers.

    A leading UTF-8 byte-order mark is dropped, not read as a symbol.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8-sig")
    else:
        text = data.removeprefix("\ufeff")
    declared: Alphabet | None = None
    rows: list[str] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(_HEADER):
            if rows:
                raise FormatError("alphabet header must precede string data", line=lineno)
            if declared is not None:
                raise FormatError("duplicate alphabet header", line=lineno)
            chars = line[len(_HEADER):].strip()
            if not chars:
                raise FormatError("empty alphabet header", line=lineno)
            _check_symbols(chars, lineno)
            try:
                declared = Alphabet.from_string(chars)
            except ValueError as exc:
                raise FormatError(str(exc), line=lineno) from None
            continue
        _check_symbols(line, lineno)
        if rows and len(line) != len(rows[0]):
            raise FormatError(
                f"string has length {len(line)}, expected {len(rows[0])}", line=lineno
            )
        if declared is not None:
            bad = next((c for c in line if c not in declared), None)
            if bad is not None:
                raise FormatError(
                    f"character {bad!r} not in declared alphabet", line=lineno
                )
        rows.append(line)
    if not rows:
        raise FormatError("no string data found")
    return Instance(declared or Alphabet.inferred(rows), tuple(rows))


def serialize_instance(inst: Instance) -> str:
    """Render an instance so that parse_instance returns an equal instance.

    The ``alphabet:`` header is emitted only when needed: when the alphabet
    holds symbols no string uses, or when its order is not lexicographic
    (either would be lost by re-inference). Raises FormatError for a
    symbol the format reserves: ``#``, ``:`` or whitespace.
    """
    symbols = inst.alphabet.symbols
    _check_symbols("".join(symbols))
    lines: list[str] = []
    unused = not np.bincount(inst.codes.ravel(), minlength=len(symbols)).all()
    if unused or symbols != tuple(sorted(symbols)):
        lines.append(f"{_HEADER} {''.join(symbols)}")
    lines.extend(inst.strings)
    return "\n".join(lines) + "\n"
