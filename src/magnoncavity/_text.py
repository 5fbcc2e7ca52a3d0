"""CSV text of numeric columns, built with numpy, and the CSV file writer.

Text is held in word columns: uint64 arrays, one word per row, read as
bytes. Each value's text is packed left-aligned in the fewest words, with
NUL bytes only after it. Side by side, a file's word columns hold each
row's text and separators; they are copied into one row block, and its
bytes without the NULs are the CSV lines (`join_rows`).

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
point move up one byte to make room for it, trailing zeros are masked off
and a fixed-notation separator follows the last digit. In exponent notation
"e", the exponent and the separator start at the digits' length, which can
carry them into a third word. Then the sign and the "0.000" before
fixed-notation magnitudes below 1 go first, and each row's words move up
behind them by their length, 0 to 48 bits (a funnel shift); a block where
no value has either skips the move. A block is as many words wide as its
widest text needs, Python's text included.
"""

from __future__ import annotations

import functools
import itertools
import math
from pathlib import Path

import numpy as np

from .constants import NumericalError

WRITE_CHUNK = 4096      # CSV rows per encoded block


def text_rows(texts: list[str], words: int | None = None) -> np.ndarray:
    """Rows of whole words holding each text left-aligned, NUL-padded."""
    if words is None:
        words = -(-max(map(len, texts), default=0) // 8)
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


@functools.cache
def _tables(sep: str) -> tuple[np.ndarray, ...]:
    """The digit words' tables, per row 12*c + tz (notation class c, tz
    trailing zeros), each as two words: the bytes that move up one byte to
    make room for the point, the bytes kept after the move, and the point
    and a fixed-notation value's separator. Then per row the digits' text
    length in bits, where an exponent starts, and per k the exponent text,
    `sep` last."""
    rows, at = [], []
    for c, tz in itertools.product(range(17), range(12)):
        nd, q = 12 - tz, (c - 3 if c < 16 else 1)   # q digits before the point; <= 0 below 1
        point = 1 <= q < nd
        n = max(nd, q) + point                      # fixed from 1 up writes every integer digit
        add = bytearray(17)                         # byte 16 takes what is not written
        add[q if point else 16] = ord(".")
        add[n if c < 16 else 16] = ord(sep)
        up = bytes(q) + (16 - q) * b"\xff" if point else bytes(16)
        rows.append(up + n * b"\xff" + bytes(16 - n) + add[:16])
        at.append(8 * n)
    words = np.frombuffer(b"".join(rows), np.uint64).reshape(-1, 6).T.copy()
    exp = text_rows([t and t + sep for t in _EXP_TEXT], 1).ravel()
    return (*words, np.array(at, np.uint64), exp)


def _digits(x: np.ndarray, sep: str) -> tuple[np.ndarray, ...]:
    """Per value of x: the two words of its digits, the point, and a
    fixed-notation value's separator; its table row and k; and whether
    Python formats it. Returning frees the block's other arrays."""
    # e = floor(log10 |x|): the lower of its binade's two decades, or the
    # upper from the power where that starts.
    a = np.abs(x)
    be = a.view(np.int64) >> 52
    k = _K.take(be)
    slow = k < 0
    if slow.any():                              # outside the band: formatted by Python
        a[slow], be[slow], k[slow] = 1.0, _ONE, _K[_ONE]
    k -= a >= _UPPER.take(be)
    del be                                      # one block array less held from here
    s = np.multiply(a, _POW10.take(k), out=a)
    m = s + 0.5
    np.floor(m, out=m)
    frac = np.subtract(s, m, out=s)
    slow |= np.abs(frac, out=frac) > 0.499      # within 1e-3 of a tie
    # s from 999999999999.5 up rounds to 1e12: 1e11 at the next exponent.
    carry = m >= 1e12
    if carry.any():
        m[carry] = 1e11
        k -= carry
    # m < 1e12 < 2**53: exact float floor-division into three 4-digit groups.
    g0 = np.floor(m / 1e8)
    m -= g0 * 1e8
    g1 = np.floor(m / 1e4)
    m -= g1 * 1e4
    g0, g1, g2 = g0.astype(np.intp), g1.astype(np.intp), m.astype(np.intp)
    row = _TZ.take(g2)                          # trailing zeros, then the table row
    low_zero = np.flatnonzero(g2 == 0)
    if low_zero.size:
        row[low_zero] += _TZ.take(g1[low_zero])
        mid_zero = low_zero[g1[low_zero] == 0]
        row[mid_zero] += _TZ.take(g0[mid_zero])
    row += _ROW0.take(k)
    up1, up2, keep1, keep2, add1, add2, *_ = _tables(sep)
    d1 = _QUAD.take(g1)
    d1 <<= _32
    d1 |= _QUAD.take(g0)
    d2 = _QUAD.take(g2)
    up = up2.take(row)
    if np.count_nonzero(up):
        # The bytes after the point move up one; d1's top byte moves into d2.
        up &= d2
        d2 ^= up
        d2 |= up << _8
        up = d1 & up1.take(row)
        d1 ^= up
        d1 |= up << _8
        d2 |= up >> _56
    d1 &= keep1.take(row)
    d1 |= add1.take(row)
    d2 &= keep2.take(row)
    d2 |= add2.take(row)
    return d1, d2, row, k, slow


def encode_g12(x: np.ndarray, sep: str) -> list[np.ndarray]:
    """Word columns holding '%.12g' % v, then `sep`, for each v in x, packed
    left-aligned: NULs follow a row's text, and the last column holds text
    in some row."""
    x = np.asarray(x, dtype=np.float64)
    d1, d2, row, k, slow = _digits(x, sep)
    *_, at, exp = _tables(sep)
    d3 = None
    sci = np.flatnonzero(row >= 16 * 12)
    if sci.size:
        # The exponent and the separator start at the digits' length n, in
        # the first word or, from n = 8, the second; what does not fit
        # moves into the next word (no shift reaches 64, as for _RIGHT).
        n8, text = at.take(row[sci]), exp.take(k[sci])
        d3 = np.zeros_like(d1)
        for lo, hi, part in (d1, d2, n8 < 64), (d2, d3, n8 >= 64):
            rows, bits = sci[part], n8[part] & _63
            lo[rows] |= text[part] << bits
            hi[rows] |= text[part] >> np.minimum(_64 - bits, _63)
    # The sign and "0.000" go first, and the words move up behind them.
    k <<= 1
    k -= x.view(np.int64) >> 63
    left = _LEFT.take(k)
    if np.count_nonzero(left):
        right = _RIGHT.take(k)
        top = d2 >> right
        if d3 is not None:
            d3 <<= left
            top |= d3
        d2 <<= left
        d2 |= d1 >> right
        d1 <<= left
        d1 |= _LEAD.take(k)
        d3 = top
    cols = [d1, d2] if d3 is None else [d1, d2, d3]
    while len(cols) > 1 and not np.count_nonzero(cols[-1]):
        cols.pop()
    if np.count_nonzero(slow):
        rows = np.flatnonzero(slow)
        texts = ["%.12g%s" % (v, sep.strip("\0")) for v in x[rows].tolist()]
        text = text_rows(texts, max(len(cols), -(-max(map(len, texts)) // 8)))
        cols += [np.zeros_like(d1) for _ in range(len(cols), text.shape[1])]
        for j, col in enumerate(cols):
            col[rows] = text[:, j]
    return cols


class TextColumn:
    """The %.12g text of an axis that many rows or files share, encoded once.

    Written row i holds value index[i], or value i without an index. Each
    `chunk` values are read ([start:stop] of anything with len()) and their
    texts stored NUL-padded in whole words, as wide as the chunk's longest
    text needs with the last byte left for the separator."""

    def __init__(self, values, index: np.ndarray | None = None, chunk: int = WRITE_CHUNK):
        self.chunks = [_padded_rows(values[i:i + chunk]) for i in range(0, len(values), chunk)]
        self.size, self.chunk, self.index = len(values), chunk, index

    def __len__(self) -> int:
        return self.size if self.index is None else len(self.index)

    def block(self, start: int, stop: int, sep: str) -> list[np.ndarray]:
        """Word columns of rows start..stop, each row followed by `sep`."""
        stop = min(stop, len(self))
        if self.index is not None:
            words = self._rows(self.index[start:stop])
        elif start % self.chunk == 0 and start < stop <= start + self.chunk:
            words = self.chunks[start // self.chunk][:stop - start]
        else:
            words = self._rows(np.arange(start, stop))
        return [*words[:, :-1].T, words[:, -1] | np.uint64(ord(sep) << 56)]

    def _rows(self, where: np.ndarray) -> np.ndarray:
        """The words of values `where`, padded to the widest chunk they read."""
        if len(self.chunks) == 1:
            return self.chunks[0].take(where, axis=0)
        chunk, row = np.divmod(where, self.chunk)
        read = np.unique(chunk).tolist()
        width = max((self.chunks[c].shape[1] for c in read), default=1)
        words = np.zeros((len(where), width), np.uint64)
        for c in read:
            at = chunk == c
            words[at, :self.chunks[c].shape[1]] = self.chunks[c].take(row[at], axis=0)
        return words


def _padded_rows(values) -> np.ndarray:
    """One row of words per value, holding its %.12g text left-aligned and
    NUL-padded, at least its last byte NUL."""
    cols = encode_g12(values, "\0")
    if np.count_nonzero(cols[-1] >> _56):       # a text fills its last word
        cols.append(np.zeros_like(cols[-1]))
    return np.column_stack(cols)


def block_text(col, start: int, stop: int, sep: str, where: str | None = None):
    """Word columns of rows start..stop of a TextColumn or a numeric column,
    each row followed by `sep`.

    Integer arrays are written with '%d', exactly at any size; others with
    '%.12g'. With `where`, a non-finite float raises NumericalError
    "<where> holds a non-finite value".
    """
    if isinstance(col, TextColumn):
        return col.block(start, stop, sep)
    piece = col[start:stop]
    if np.issubdtype(piece.dtype, np.integer):
        return [*text_rows(["%d%s" % (v, sep) for v in piece.tolist()]).T]
    if where and not np.isfinite(piece).all():
        raise NumericalError(f"{where} holds a non-finite value")
    return encode_g12(piece, sep)


def join_rows(words: list[np.ndarray]) -> bytearray:
    """The text of word columns of the same rows, side by side, without the
    NULs; each column is copied once, into one row block that is the buffer
    of the text the NULs are dropped from."""
    rows, width = len(words[0]), len(words)
    block = bytearray(8 * rows * width)
    np.stack(words, axis=1, out=np.frombuffer(block, np.uint64).reshape(rows, width))
    return block.translate(None, b"\0")


def write_csv(path: Path, columns: dict, manifest_hash: str, meta: dict,
              where: str | None = None) -> None:
    """Write 1-D columns (header row = keys) after '#' meta lines.

    A TextColumn is written as its text; a numeric column with %d if
    integer, else %.12g. A column is a list, or anything with len() and
    [start:stop] slicing. Rows are read and encoded WRITE_CHUNK at a time,
    and each block is written as soon as it is encoded. With `where`, the
    first non-finite float raises NumericalError "<where> '<key>' holds a
    non-finite value", with the blocks before it written.
    """
    cols = [np.asarray(c) if isinstance(c, (list, tuple)) else c for c in columns.values()]
    seps = [","] * (len(cols) - 1) + ["\n"]
    head = [f"# manifest_hash={manifest_hash}", *(f"# {k}={v}" for k, v in meta.items()),
            ",".join(columns)]
    with path.open("wb") as f:
        f.write(("\n".join(head) + "\n").encode())
        for i in range(0, len(cols[0]), WRITE_CHUNK):
            f.write(join_rows([w for key, c, sep in zip(columns, cols, seps) for w in block_text(
                c, i, i + WRITE_CHUNK, sep, where and f"{where} {key!r}")]))
