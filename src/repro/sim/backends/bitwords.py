"""Packed uint64 bitmap helpers for the packed state rows.

A state set over ``n`` dense ids is represented as ``ceil(n / 64)``
little-endian uint64 words: bit ``s % 64`` of word ``s // 64`` is state
``s``.  Everything here is a thin, allocation-conscious wrapper around
numpy's byte-level primitives (``unpackbits`` / fancy indexing) so the
kernels never drop into per-state Python loops.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64

#: per-byte popcount lookup (uint64 words are viewed as 8 uint8 lanes)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def num_words(n: int) -> int:
    """Words needed for ``n`` bits (at least 1, so masks always exist)."""
    return max(1, (n + WORD_BITS - 1) // WORD_BITS)


def pack_indices(ids: np.ndarray, n: int) -> np.ndarray:
    """Packed vector with exactly the bits in ``ids`` set: a one-row
    :func:`pack_rows`."""
    return pack_rows([ids], n)[0]


def pack_bool_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, n)`` boolean matrix into ``(rows, num_words(n))``
    words, row by row (column ``s`` = bit ``s``), in one ``packbits``."""
    count, n = np.shape(rows)
    padded = np.zeros((count, num_words(n) * WORD_BITS), dtype=np.uint8)
    padded[:, :n] = rows
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def unpack_indices(words: np.ndarray) -> np.ndarray:
    """Ascending indices of the set bits of a packed vector."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.nonzero(bits)[0].astype(np.int64)


def popcount(words: np.ndarray) -> int:
    """Number of set bits across a packed vector."""
    return int(_POPCOUNT8[words.view(np.uint8)].sum())


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a ``(rows, words)`` packed matrix."""
    if words.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0: hardware popcount
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    return _POPCOUNT8[words.view(np.uint8)].reshape(words.shape[0], -1).sum(
        axis=1
    )


def expand_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (row, state) pairs of all set bits of a packed matrix.

    Row-major and bit-ascending within a row — the order a per-row
    :func:`unpack_indices` would produce.  Cost follows the number of
    *nonzero words*, not the matrix size: only set words are expanded
    to bit level, so a sparsely-active batch pays almost nothing.
    """
    word_rows, word_cols = np.nonzero(words)
    if not word_rows.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    bits = np.unpackbits(
        words[word_rows, word_cols].view(np.uint8).reshape(-1, 8),
        axis=1,
        bitorder="little",
    )
    pair_idx, bit_idx = np.nonzero(bits)
    return (
        word_rows[pair_idx].astype(np.int64),
        word_cols[pair_idx].astype(np.int64) * WORD_BITS + bit_idx,
    )


def pack_rows(id_lists, n: int) -> np.ndarray:
    """Pack per-row index arrays into a ``(rows, num_words(n))`` matrix.

    One scatter of the concatenated ids into a flat bit array, then
    one ``packbits`` (:func:`pack_indices` is the one-row call).
    """
    shape = (len(id_lists), num_words(n))
    counts = [len(ids) for ids in id_lists]
    if not sum(counts):  # quiet streams: nothing to scatter
        return np.zeros(shape, dtype=np.uint64)
    width = shape[1] * WORD_BITS
    bits = np.zeros(shape[0] * width, dtype=np.uint8)
    if shape[0] == 1:  # a solo stream: no row offsets to add
        bits[id_lists[0]] = 1
    else:
        ids = np.concatenate(id_lists).astype(np.int64, copy=False)
        bits[ids + np.repeat(np.arange(0, bits.size, width), counts)] = 1
    return np.packbits(bits, bitorder="little").view(np.uint64).reshape(shape)


def nonzero_word_spans(words: np.ndarray) -> np.ndarray:
    """Per row of a ``(rows, words)`` packed matrix, the tightest word
    slice holding all its set bits, as ``(first, count)`` int32 pairs;
    ``(0, 0)`` for an all-zero row."""
    width = words.shape[1]
    nonzero = words != 0
    first = nonzero.argmax(axis=1)
    last = width - 1 - nonzero[:, ::-1].argmax(axis=1)
    count = np.where(nonzero.any(axis=1), last - first + 1, 0)
    return np.stack([first, count], axis=1).astype(np.int32)


def or_shifted(
    out: np.ndarray, block: np.ndarray, nbits: int, shift: int
) -> None:
    """OR the low ``nbits`` bits of each row of a packed ``(rows,
    num_words(nbits))`` matrix into ``out`` (same rows, wide enough for
    ``shift + nbits`` bits), every bit index raised by ``shift``.  The
    packed words are shifted directly; nothing is unpacked to bit
    level."""
    tail = nbits % WORD_BITS
    if tail:
        # padding bits are not ours to place
        block = block.copy()
        block[:, -1] &= np.uint64((1 << tail) - 1)
    word, bit = divmod(shift, WORD_BITS)
    out[:, word : word + block.shape[1]] |= block << np.uint64(bit)
    if bit:
        # what the left shift pushed out of each word carries into the
        # next one (the last word's carry is empty when it has no slot)
        carry = block[:, : out.shape[1] - word - 1] >> np.uint64(WORD_BITS - bit)
        out[:, word + 1 : word + 1 + carry.shape[1]] |= carry


def successor_rows(offsets: np.ndarray, targets: np.ndarray, n: int) -> np.ndarray:
    """Per-state packed successor bitmaps, shape ``(n, num_words(n))``.

    Row ``s`` has bit ``t`` set iff ``s -> t`` is a transition; the
    enable step of the native kernel ORs the rows of the active
    states, replacing the CSR gather + sort of the sparse kernel.
    """
    width = num_words(n) * 8
    rows = np.zeros(n * width, dtype=np.uint8)
    targets = np.asarray(targets[offsets[0] : offsets[n]], dtype=np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets[: n + 1]))
    np.bitwise_or.at(
        rows,
        sources * width + (targets >> 3),
        np.left_shift(1, targets & 7).astype(np.uint8),
    )
    return rows.reshape(n, width).view(np.uint64)
