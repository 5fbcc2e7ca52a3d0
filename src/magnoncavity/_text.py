"""CSV text of numeric columns, built with numpy, and the CSV file writer.

Text is held in word columns: uint64 arrays, one word per row, read as
bytes. Every column block the writer reads has one form: each row's text
left-aligned, then at least one NUL, in as few words as that allows, so
that the last byte of each row's last word is NUL. `write_csv` sets each
row's separators there, once, and the blocks of a file's columns, side by
side, are copied into a row block whose bytes without the NULs are the CSV
lines (`join_rows`).

`encode_g12` gives each float64 the exact bytes of ``'%.12g' % x``. A
binade [2**b, 2**(b+1)) meets at most two decades, so the biased exponent
of x (its 11 bits above the mantissa) indexes the lower decade's scale and
the power of ten where the upper one starts, and one comparison settles it
(Adams, "Ryu: fast float-to-string conversion", PLDI 2018). |x| is scaled
by a power of ten to s in [1e11, 1e12), rounded to the 12-digit integer
m = floor(s + 0.5), and m's three 4-digit groups are read from a table.
The relative error of s is a few ulp, at most about 3e-4 in absolute terms
below 1e12, so m is the correctly rounded digit string unless s lies
within 1e-3 of a tie, |s - m| > 0.499 (Gay, "Correctly rounded
binary-decimal and decimal-binary conversions", AT&T NAM 90-10, 1990).
Those near-ties and every value outside the binades 2**-962 up to below
2**963, which lie inside [1e-290, 1e290] (zeros, subnormals, infinities
and nan among them), are formatted by Python's own `%`, as are integer
columns (with '%d').

The 12 digits take two words, four bytes per group: the digits after the
point move up one byte to make room for it and trailing zeros are masked
off. In exponent notation "e" and the exponent start at the digits' length,
which can carry them into a third word. Then the sign and the "0.000" before
fixed-notation magnitudes below 1 go first, and each row's words move up
behind them by their length, 0 to 48 bits (a funnel shift); a block where
no value has either skips the move. A block is as many words wide as its
widest text and one NUL need, Python's text included. The steps run in
place where they can and free each array once it is used, so that encoding
n values allocates at most about 50 n bytes, its result included (49-53 n on the
default decay's population blocks).

`write_csv` encodes WRITE_CHUNK rows at a time: each numeric column's block
is read once (a tuple key's as a tuple of arrays, one per name), encoded
and checked (a non-finite value is refused as it is formatted), and a
`TextColumn` gives the stored words of its rows, with a copy of the last
word column. The column's separator is ORed into the last byte of its
last word column, and `join_rows` copies the columns into row blocks of at
most 128 KiB, drops them, and gives each block's text without its NULs to
be written.
"""

from __future__ import annotations

import functools
import itertools
import math
from pathlib import Path

import numpy as np

from .constants import NumericalError

# CSV rows per encoded block. An `encode_g12` call costs about 37 us
# whatever its length, its ~60 numpy calls' dispatch: 22 % of a 4096-value
# call on decay populations, 13 % at 8192, 7 % at 16384 (fastest of 20,
# 2-vCPU Xeon). Its temporaries take about 50 bytes per value, so 16384
# rows would take the default decay past its 1.6 MB traced-memory test
# bound; 8192 rows peak at 1.47 MB there.
WRITE_CHUNK = 8192
# A block's rows are joined at most this many words (128 KiB) at a time, so
# that the writer's largest buffers, a joined piece and its text, stay small
# whatever a file's width. Joined whole, the 8192-row blocks of 10-word
# transfer rows held 640 KiB; in pieces of up to 256 KiB, the benchmark's
# fieldmap-default child read 0.4 MB more peak RSS than in 128 KiB pieces.
_JOIN_WORDS = 1 << 14


def text_rows(texts: list[str], words: int = 1) -> np.ndarray:
    """Rows of at least `words` words, each holding its text left-aligned,
    then at least one NUL, in the fewest words that allows (read-only)."""
    words = max(words, max(map(len, texts), default=0) // 8 + 1)
    data = "".join(t.ljust(8 * words, "\0") for t in texts).encode("ascii")
    return np.frombuffer(data, np.uint64).reshape(len(texts), words)


# Table index k serves decimal exponent e = _P0 + 11 - k: s = |x| * _POW10[k]
# with _POW10[k] = 10**(k - _P0), correctly rounded (parsed).
_P0 = 310
_E = _P0 + 11 - np.arange(2 * _P0 + 1)
_POW10 = np.array([float(f"1e{k}") for k in range(-_P0, _P0 + 1)])
_FIXED = (_E >= -4) & (_E < 12)             # '%g' writes these without an exponent
# Per k: the digit tables' row at tz = 0, 12 times the notation class (e + 4
# in fixed notation, 16 in exponent notation); and the exponent text.
_ROW0 = np.where(_FIXED, _E + 4, 16) * 12
_EXP_TEXT = ["" if -4 <= e < 12 else "e%+03d" % e for e in _E.tolist()]
# Per 2k + sign bit: the text before the digits (the sign, then "0.000"
# before fixed-notation magnitudes below 1); its length in bits, by which
# each digit word moves up; and the right shift that gives what a word
# carries into the next, 64 bits less that length. A word's top bit is 0,
# its bytes being ASCII, so where nothing goes first a shift by 63 carries
# nothing, and no shift reaches 64.
_LEAD_TEXT = [sign + ("0." + (-e - 1) * "0" if -4 <= e < 0 else "")
              for e in _E.tolist() for sign in ("", "-")]
_LEAD = text_rows(_LEAD_TEXT, 1).ravel()
_LEFT = np.array([8 * len(t) for t in _LEAD_TEXT], np.uint64)
_RIGHT = np.minimum(np.uint64(64) - _LEFT, np.uint64(63))
del _LEAD_TEXT


def _decades() -> tuple[np.ndarray, np.ndarray]:
    """Per biased exponent: k of the lower decade, 10**e0 <= 2**b, -1 out of
    the band; and 10**(e0 + 1), where the upper decade starts."""
    e0 = [math.floor(b * math.log10(2.0)) for b in range(-962, 963)]
    k = [-1] * 61 + [_P0 + 11 - e for e in e0] + [-1] * 62
    upper = [1.0] * 61 + [float(f"1e{e + 1}") for e in e0] + [1.0] * 62
    return np.array(k, np.intp), np.array(upper)


_K, _UPPER = _decades()
_ONE = 1023                                 # the biased exponent of 1.0

# '%04d' of 0..9999 in the low four bytes of a word; and the number of
# trailing zero digits of each 4-digit group (4 for 0000).
_GROUP = np.arange(10_000, dtype=np.int16)        # int16 keeps the import's peak memory low
_QUAD = np.zeros((_GROUP.size, 8), np.uint8)
_QUAD[:, :4] = _GROUP[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")
_QUAD = _QUAD.view(np.uint64).ravel()
_TZ = sum(_GROUP % 10 ** k == 0 for k in range(1, 5)).astype(np.intp)
del _GROUP
_8, _32, _56, _63, _64 = (np.uint64(b) for b in (8, 32, 56, 63, 64))
_FULL = np.uint64(1 << 56)                  # a word whose last byte is not NUL is at least this


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The digit words' tables, per row 12*c + tz (notation class c, tz
    trailing zeros), each as two words: the bytes that move up one byte to
    make room for the point, the bytes kept after the move, and the point.
    Then per row the digits' text length in bits, where an exponent starts,
    and per k the exponent text. Built on first use, out of import time."""
    rows, at = [], []
    for c, tz in itertools.product(range(17), range(12)):
        nd, q = 12 - tz, (c - 3 if c < 16 else 1)   # q digits before the point; <= 0 below 1
        point = 1 <= q < nd
        n = max(nd, q) + point                      # fixed from 1 up writes every integer digit
        up = bytes(q) + (16 - q) * b"\xff" if point else bytes(16)
        dot = (bytes(q) + b".").ljust(16, b"\0") if point else bytes(16)
        rows.append(up + n * b"\xff" + bytes(16 - n) + dot)
        at.append(8 * n)
    words = np.frombuffer(b"".join(rows), np.uint64).reshape(-1, 6).T.copy()
    exp = text_rows(_EXP_TEXT).ravel()
    return (*words, np.array(at, np.uint64), exp)


def _digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per value of x: the two words of its digits and the point; its table
    row and k; and whether Python formats it. At most six arrays of x's
    length are alive at once."""
    # e = floor(log10 |x|): the lower of its binade's two decades, or the
    # upper from the power where that starts.
    a = np.abs(x)
    be = a.view(np.int64) >> 52
    k = _K.take(be)
    slow = k < 0
    if slow.any():                              # outside the band: formatted by Python
        a[slow], be[slow], k[slow] = 1.0, _ONE, _K[_ONE]
    k -= a >= _UPPER.take(be)
    del be
    np.multiply(a, _POW10.take(k), out=a)       # s
    m = a + 0.5
    np.floor(m, out=m)
    np.subtract(a, m, out=a)
    slow |= np.abs(a, out=a) > 0.499            # s within 1e-3 of a tie
    # s from 999999999999.5 up rounds to 1e12: 1e11 at the next exponent.
    carry = m >= 1e12
    if carry.any():
        m[carry] = 1e11
        k -= carry
    # m < 1e12 < 2**53: exact float floor-division into three 4-digit
    # groups, g0 and g1 taken off m in turn (a's buffer reused), m the last.
    np.floor(np.divide(m, 1e8, out=a), out=a)
    g0 = a.astype(np.intp)
    m -= np.multiply(a, 1e8, out=a)
    np.floor(np.divide(m, 1e4, out=a), out=a)
    g1 = a.astype(np.intp)
    m -= np.multiply(a, 1e4, out=a)
    del a
    # Trailing zeros of the groups before a zero last group; then d1.
    low_zero = np.flatnonzero(m == 0)
    if low_zero.size:
        tz = _TZ.take(g1[low_zero])
        mid_zero = g1[low_zero] == 0
        tz[mid_zero] += _TZ.take(g0[low_zero[mid_zero]])
    d1 = _QUAD.take(g1)
    del g1
    d1 <<= _32
    d1 |= _QUAD.take(g0)
    del g0
    g2 = m.astype(np.intp)
    del m
    row = _TZ.take(g2)                          # trailing zeros, then the table row
    if low_zero.size:
        row[low_zero] += tz
    d2 = _QUAD.take(g2)
    del g2
    row += _ROW0.take(k)
    up1, up2, keep1, keep2, dot1, dot2, *_ = _tables()
    up = up2.take(row)
    if np.count_nonzero(up):
        # The bytes after the point move up one; d1's top byte moves into d2.
        up &= d2
        d2 ^= up
        up <<= _8
        d2 |= up
        np.bitwise_and(d1, up1.take(row), out=up)
        d1 ^= up
        d2 |= up >> _56
        up <<= _8
        d1 |= up
    del up
    d1 &= keep1.take(row)
    d1 |= dot1.take(row)
    d2 &= keep2.take(row)
    d2 |= dot2.take(row)
    return d1, d2, row, k, slow


def _exponents(d1: np.ndarray, d2: np.ndarray, row: np.ndarray,
               k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write the exponent of each value in exponent notation at its digits'
    length n, in d1 or, from n = 8, in d2; what does not fit moves into the
    next word (no shift reaches 64, as for _RIGHT). Returns the rows whose
    text reaches a third word, and what it holds there, so that no third
    word column is held before the words move."""
    sci = np.flatnonzero(row >= 16 * 12)
    if not sci.size:
        return sci, sci
    *_, at, exp = _tables()
    n8, text = at.take(row[sci]), exp.take(k[sci])
    bits = n8 & _63
    carried = text >> np.minimum(_64 - bits, _63)
    text <<= bits
    third = n8 >= 64
    d1[sci[~third]] |= text[~third]
    d2[sci[~third]] |= carried[~third]
    d2[sci[third]] |= text[third]
    return sci[third], carried[third]


def encode_g12(x: np.ndarray, where: str | None = None) -> list[np.ndarray]:
    """Word columns holding '%.12g' % v for each v in x, left-aligned and
    followed by at least one NUL, in the fewest words that allows. With
    `where`, a non-finite value, which Python formats, raises
    NumericalError "<where> holds a non-finite value"."""
    x = np.asarray(x, dtype=np.float64)
    d1, d2, row, k, slow = _digits(x)
    rows3, words3 = _exponents(d1, d2, row, k)
    del row
    # The sign and "0.000" go first, and the words move up behind them,
    # into a third word where the second carries text out.
    k <<= 1
    k -= x.view(np.int64) >> 63
    left = _LEFT.take(k)
    d3 = None
    if np.count_nonzero(left):
        right = _RIGHT.take(k)
        d3 = d2 >> right
        d2 <<= left
        d2 |= np.right_shift(d1, right, out=right)
        del right
        d1 <<= left
        d1 |= _LEAD.take(k)
    del k
    if rows3.size:
        if d3 is None:
            d3 = np.zeros_like(d1)
        d3[rows3] |= words3 << left[rows3]
    del left
    cols = [d1, d2] if d3 is None else [d1, d2, d3]
    if np.count_nonzero(slow):
        rows = np.flatnonzero(slow)
        values = x[rows].tolist()
        if where and not all(map(math.isfinite, values)):
            raise NumericalError(f"{where} holds a non-finite value")
        text = text_rows(["%.12g" % v for v in values], len(cols))
        cols += [np.zeros_like(d1) for _ in range(len(cols), text.shape[1])]
        for j, col in enumerate(cols):
            col[rows] = text[:, j]
    # An all-NUL last column goes unless a row fills the one before it, and
    # a column of NULs follows one that some row fills.
    while (len(cols) > 1 and not np.count_nonzero(cols[-1])
           and not np.count_nonzero(cols[-2] >= _FULL)):
        cols.pop()
    if np.count_nonzero(cols[-1] >= _FULL):
        cols.append(np.zeros_like(d1))
    return cols


class TextColumn:
    """The %.12g text of an axis that many rows or files share, encoded once.

    Written row i holds value index[i], or value i without an index. Each
    WRITE_CHUNK values are read ([start:stop] of anything with len()) and
    their words stored as `encode_g12` gives them, as wide as the chunk's
    longest text needs."""

    def __init__(self, values, index: np.ndarray | None = None):
        self.chunks = [np.column_stack(encode_g12(values[i:i + WRITE_CHUNK]))
                       for i in range(0, len(values), WRITE_CHUNK)]
        self.size, self.index = len(values), index

    def __len__(self) -> int:
        return self.size if self.index is None else len(self.index)

    def block(self, start: int, stop: int) -> list[np.ndarray]:
        """Word columns of rows start..stop, the last one a copy."""
        stop = min(stop, len(self))
        if self.index is not None:
            words = self._rows(self.index[start:stop])
        elif start % WRITE_CHUNK == 0 and start < stop <= start + WRITE_CHUNK:
            words = self.chunks[start // WRITE_CHUNK][:stop - start]
        else:
            words = self._rows(np.arange(start, stop))
        return [*words[:, :-1].T, words[:, -1].copy()]

    def _rows(self, where: np.ndarray) -> np.ndarray:
        """The words of values `where`, padded to the widest chunk they read."""
        if len(self.chunks) == 1:
            return self.chunks[0].take(where, axis=0)
        chunk, row = np.divmod(where, WRITE_CHUNK)
        read = np.unique(chunk).tolist()
        width = max((self.chunks[c].shape[1] for c in read), default=1)
        words = np.zeros((len(where), width), np.uint64)
        for c in read:
            at = chunk == c
            words[at, :self.chunks[c].shape[1]] = self.chunks[c].take(row[at], axis=0)
        return words


def block_text(key, col, start: int, stop: int, where: str | None = None):
    """Word columns of rows start..stop of `col`, one list per name of
    `key`, each row's text followed by at least one NUL; the last column of
    each list is the caller's to change.

    A TextColumn gives its text. Other columns are read once: under a tuple
    key, as a tuple of arrays, one per name, each dropped once it is
    encoded. Integer arrays are written with '%d', exactly at any size;
    others with '%.12g'. With `where`, a non-finite float raises
    NumericalError "<where> '<name>' holds a non-finite value".
    """
    if isinstance(col, TextColumn):
        yield col.block(start, stop)
        return
    pieces = col[start:stop]
    names, pieces = (key, list(pieces)) if isinstance(key, tuple) else ((key,), [pieces])
    for name in names:
        piece = pieces.pop(0)
        if np.issubdtype(piece.dtype, np.integer):
            yield [*text_rows(["%d" % v for v in piece.tolist()]).T.copy()]
        else:
            yield encode_g12(piece, where and f"{where} {name!r}")


def join_rows(words: list[np.ndarray]):
    """The text of word columns of the same rows, side by side, without the
    NULs, yielded in pieces of whole rows and at most _JOIN_WORDS words.
    Each column is copied once, into the row block of its piece, which is
    the buffer of the text the NULs are dropped from. `words` is emptied
    once its last piece is copied, so that the columns it alone holds are
    freed before that piece's text is made."""
    rows, width = len(words[0]), len(words)
    step = max(1, _JOIN_WORDS // width)
    for i in range(0, rows, step):
        block = bytearray(8 * min(step, rows - i) * width)
        np.stack([w[i:i + step] for w in words], axis=1,
                 out=np.frombuffer(block, np.uint64).reshape(-1, width))
        if i + step >= rows:
            words.clear()
        yield block.translate(None, b"\0")


def write_csv(path: Path, columns: dict, manifest_hash: str, meta: dict,
              where: str | None = None) -> None:
    """Write 1-D columns (header row = keys) after '#' meta lines.

    A TextColumn is written as its text; a numeric column with %d if
    integer, else %.12g. A column is a list, or anything with len() and
    [start:stop] slicing. A key may be a tuple of names: its column's
    [start:stop] is then a tuple of arrays, one per name, so that one read
    gives the block of all of them. Rows are read and encoded WRITE_CHUNK
    at a time, each column once per block, and each block is written as
    soon as it is encoded. With `where`, the first non-finite float raises
    NumericalError "<where> '<name>' holds a non-finite value", with the
    blocks before it written.
    """
    cols = [np.asarray(c) if isinstance(c, (list, tuple)) else c for c in columns.values()]
    names = [name for key in columns for name in (key if isinstance(key, tuple) else (key,))]
    # Each separator goes into the last byte of its column's last word.
    seps = [np.uint64(ord(sep) << 56) for sep in "," * (len(names) - 1) + "\n"]
    head = [f"# manifest_hash={manifest_hash}", *(f"# {k}={v}" for k, v in meta.items()),
            ",".join(names)]
    with path.open("wb") as f:
        f.write(("\n".join(head) + "\n").encode())
        for i in range(0, len(cols[0]), WRITE_CHUNK):
            words, sep = [], iter(seps)
            for key, c in zip(columns, cols):
                for block in block_text(key, c, i, i + WRITE_CHUNK, where):
                    words += block
                    words[-1] |= next(sep)
            f.writelines(join_rows(words))
