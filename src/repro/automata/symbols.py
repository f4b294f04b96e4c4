"""Symbol classes over a byte-sized alphabet.

A *symbol class* is the set of input symbols accepted by one STE
(state transition element) of a homogeneous NFA.  The paper's automata
operate on 8-bit symbols, so a class is a subset of ``{0, ..., 255}``;
we store it as a 256-bit membership mask in a Python integer, which
makes union/intersection/negation single integer operations.

The class also understands ANML's character-class syntax
(``[abc]``, ``[a-f]``, ``[^xyz]``, ``*``) because benchmark files and
the regex front end both produce classes in that notation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import total_ordering

import numpy as np

from repro.errors import AutomatonError
from repro.utils.bitvec import bit_positions, bits_from_positions, mask_of_width

ALPHABET_SIZE = 256
FULL_MASK = mask_of_width(ALPHABET_SIZE)

_ESCAPES = {
    "n": ord("\n"),
    "r": ord("\r"),
    "t": ord("\t"),
    "0": 0,
    "\\": ord("\\"),
    "]": ord("]"),
    "[": ord("["),
    "^": ord("^"),
    "-": ord("-"),
}


@total_ordering
class SymbolClass:
    """An immutable set of 8-bit symbols.

    Instances are hashable and ordered by their membership mask so they
    can key dictionaries (the compression and clustering passes group
    states by symbol class).
    """

    __slots__ = ("_mask",)

    def __init__(self, mask: int = 0) -> None:
        if not 0 <= mask <= FULL_MASK:
            raise AutomatonError(f"symbol-class mask out of range: {mask:#x}")
        self._mask = mask

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_symbols(cls, symbols: Iterable[int]) -> "SymbolClass":
        """Class containing exactly ``symbols`` (each in 0..255)."""
        mask = 0
        for sym in symbols:
            if not 0 <= sym < ALPHABET_SIZE:
                raise AutomatonError(f"symbol out of range 0..255: {sym}")
            mask |= 1 << sym
        return cls(mask)

    @classmethod
    def from_membership(cls, member: np.ndarray) -> "SymbolClass":
        """Class of the symbols ``s`` with ``member[s]`` true (a length-256
        boolean vector; a row of :func:`membership_matrix`)."""
        packed = np.packbits(np.asarray(member, dtype=bool), bitorder="little")
        return cls(int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def from_bytes(cls, data: bytes | str) -> "SymbolClass":
        """Class containing the byte values of ``data``."""
        if isinstance(data, str):
            data = data.encode("latin-1")
        return cls.from_symbols(data)

    @classmethod
    def from_ranges(cls, *ranges: tuple[int, int]) -> "SymbolClass":
        """Class containing the inclusive ranges ``(lo, hi)``."""
        mask = 0
        for lo, hi in ranges:
            if not (0 <= lo <= hi < ALPHABET_SIZE):
                raise AutomatonError(f"bad symbol range: ({lo}, {hi})")
            mask |= (mask_of_width(hi - lo + 1)) << lo
        return cls(mask)

    @classmethod
    def universe(cls) -> "SymbolClass":
        """The class accepting every symbol (ANML ``*``)."""
        return cls(FULL_MASK)

    @classmethod
    def empty(cls) -> "SymbolClass":
        return cls(0)

    @classmethod
    def parse(cls, text: str) -> "SymbolClass":
        """Parse an ANML-style symbol-set string.

        Accepts ``*`` (all symbols), a single character, an escape like
        ``\\n`` or ``\\x41``, or a bracket expression ``[...]`` with
        ranges and leading ``^`` negation.
        """
        if text == "*":
            return cls.universe()
        if text.startswith("[") and text.endswith("]"):
            return cls._parse_bracket(text[1:-1], text)
        symbols = list(_parse_char_sequence(text, text))
        if len(symbols) != 1:
            raise AutomatonError(
                f"symbol-set string must denote one symbol or a bracket "
                f"expression, got {text!r}"
            )
        return cls.from_symbols(symbols)

    @classmethod
    def _parse_bracket(cls, body: str, original: str) -> "SymbolClass":
        negate = body.startswith("^")
        if negate:
            body = body[1:]
        chars = list(_parse_char_sequence(body, original))
        mask = 0
        i = 0
        while i < len(chars):
            # A range is three entries: lo, RANGE marker, hi.
            if i + 2 < len(chars) and chars[i + 1] == _RANGE:
                lo, hi = chars[i], chars[i + 2]
                if lo == _RANGE or hi == _RANGE or lo > hi:
                    raise AutomatonError(f"bad range in symbol set {original!r}")
                mask |= mask_of_width(hi - lo + 1) << lo
                i += 3
            else:
                if chars[i] == _RANGE:
                    mask |= 1 << ord("-")
                else:
                    mask |= 1 << chars[i]
                i += 1
        if negate:
            mask = FULL_MASK & ~mask
        return cls(mask)

    # -- set protocol ---------------------------------------------------
    @property
    def mask(self) -> int:
        return self._mask

    def __contains__(self, symbol: int) -> bool:
        return 0 <= symbol < ALPHABET_SIZE and bool(self._mask >> symbol & 1)

    def __iter__(self) -> Iterator[int]:
        return bit_positions(self._mask)

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    def union(self, other: "SymbolClass") -> "SymbolClass":
        return SymbolClass(self._mask | other._mask)

    __or__ = union

    def intersection(self, other: "SymbolClass") -> "SymbolClass":
        return SymbolClass(self._mask & other._mask)

    __and__ = intersection

    def difference(self, other: "SymbolClass") -> "SymbolClass":
        return SymbolClass(self._mask & ~other._mask)

    __sub__ = difference

    def negate(self) -> "SymbolClass":
        """Complement with respect to the full 256-symbol alphabet."""
        return SymbolClass(FULL_MASK & ~self._mask)

    __invert__ = negate

    def issubset(self, other: "SymbolClass") -> bool:
        return self._mask & ~other._mask == 0

    def symbols(self) -> tuple[int, ...]:
        return tuple(bit_positions(self._mask))

    # -- comparisons ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymbolClass) and self._mask == other._mask

    def __lt__(self, other: "SymbolClass") -> bool:
        return self._mask < other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    # -- rendering ------------------------------------------------------
    def to_anml(self) -> str:
        """Render as an ANML symbol-set string (canonical form)."""
        if self._mask == FULL_MASK:
            return "*"
        size = len(self)
        negated = size > ALPHABET_SIZE // 2
        mask = self.negate()._mask if negated else self._mask
        parts = []
        for lo, hi in _runs(mask):
            if hi == lo:
                parts.append(_render_char(lo))
            elif hi == lo + 1:
                parts.append(_render_char(lo) + _render_char(hi))
            else:
                parts.append(f"{_render_char(lo)}-{_render_char(hi)}")
        body = "".join(parts)
        return f"[^{body}]" if negated else f"[{body}]"

    def __repr__(self) -> str:
        return f"SymbolClass({self.to_anml()!r})"


def membership_matrix(classes: Iterable[SymbolClass]) -> np.ndarray:
    """``(len(classes), 256)`` uint8 matrix: entry ``[i, s]`` is 1 iff
    symbol ``s`` is in class ``i``.  One ``unpackbits`` over the classes'
    little-endian masks, so no per-symbol Python loop."""
    masks = b"".join(c.mask.to_bytes(32, "little") for c in classes)
    return np.unpackbits(
        np.frombuffer(masks, dtype=np.uint8).reshape(-1, 32),
        axis=1,
        bitorder="little",
    )


_RANGE = -1  # sentinel emitted by _parse_char_sequence for an unescaped '-'


def _parse_char_sequence(body: str, original: str) -> Iterator[int]:
    """Yield symbol values (and range sentinels) from a class body."""
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise AutomatonError(f"dangling escape in symbol set {original!r}")
            nxt = body[i + 1]
            if nxt == "x":
                if i + 3 >= len(body):
                    raise AutomatonError(
                        f"bad \\x escape in symbol set {original!r}"
                    )
                try:
                    yield int(body[i + 2 : i + 4], 16)
                except ValueError as exc:
                    raise AutomatonError(
                        f"bad \\x escape in symbol set {original!r}"
                    ) from exc
                i += 4
            elif nxt in _ESCAPES:
                yield _ESCAPES[nxt]
                i += 2
            else:
                yield ord(nxt)
                i += 2
        elif ch == "-":
            yield _RANGE
            i += 1
        else:
            yield ord(ch)
            i += 1


def _runs(mask: int) -> Iterator[tuple[int, int]]:
    """Yield maximal runs (lo, hi) of consecutive set bits."""
    start = None
    prev = None
    for pos in bit_positions(mask):
        if start is None:
            start = prev = pos
        elif pos == prev + 1:
            prev = pos
        else:
            yield start, prev
            start = prev = pos
    if start is not None:
        yield start, prev


_PRINTABLE_EXCLUDED = set("[]^-\\*")


def _render_char(value: int) -> str:
    ch = chr(value)
    if 0x21 <= value <= 0x7E and ch not in _PRINTABLE_EXCLUDED:
        return ch
    return f"\\x{value:02x}"
