"""CSV text of numeric columns, built with numpy.

A block of text is a (rows, words) uint64 array read as bytes. Each row
holds one column's text for one CSV line, then the separator that follows
it, with NUL bytes wherever a byte is unused. The blocks of a file's
columns stack side by side, and their bytes without the NULs are the CSV
lines (`join_rows`).

`encode_g12` gives each float64 the exact bytes of ``'%.12g' % x``. It
scales |x| by a power of ten to s in [1e11, 1e12), rounds s to the 12-digit
integer m and reads m's digits from a table. The relative error of s is a
few ulp, at most about 3e-4 in absolute terms below 1e12, so m is the
correctly rounded digit string unless the fraction of s lies within 1e-3 of
one half (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", AT&T NAM 90-10, 1990). Those near-ties, zeros, nan,
infinities and magnitudes outside [1e-290, 1e290] are formatted by Python's
own `%`, as are integer columns (with '%d').
"""

from __future__ import annotations

import numpy as np

# One encoded float is five words (40 bytes):
#   word 0      sign and the "0.000" that leads magnitudes below 1
#   words 1-3   the 12 digits, each followed by a '.' slot
#   word 4      "e", exponent sign and 2-3 exponent digits; separator last
_WORDS = 5


def _words(rows: np.ndarray) -> np.ndarray:
    """uint8 rows of whole words, viewed as uint64."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint64)


def _sep_word(sep: str) -> np.uint64:
    return _words(np.frombuffer(7 * b"\0" + sep.encode("ascii"), np.uint8))[0]


# Table index k serves decimal exponent e = _P0 + 11 - k: s = |x| * _POW10[k]
# with _POW10[k] = 10**(k - _P0), correctly rounded (parsed; a quarter of
# the import time of parsing with np.char).
_P0 = 310
_LOG10_2 = np.log10(2.0)
_K = np.arange(2 * _P0 + 1)
_POW10 = np.array([float(f"1e{k}") for k in range(-_P0, _P0 + 1)])
_E = _P0 + 11 - _K
_FIXED = (_E >= -4) & (_E < 12)             # '%g' writes these without an exponent


def _lead_words() -> np.ndarray:
    """Word 0 per table index k, sign slot empty: "0." and -e-1 zeros for e in -4..-1."""
    lead = np.zeros((_K.size, 8), np.uint8)
    lead[:, 1:6] = np.frombuffer(b"0.000", np.uint8)
    used = (_FIXED & (_E < 0))[:, None] & (np.arange(8) < 2 - _E[:, None])
    return _words(np.where(used, lead, 0)).ravel()


def _exponent_words() -> np.ndarray:
    """Word 4 per table index k, separator slot empty: "e", sign and |e| in
    at least two digits, outside the fixed range."""
    exp = np.zeros((_K.size, 8), np.uint8)
    exp[:, 0] = ord("e")
    exp[:, 1] = np.where(_E < 0, ord("-"), ord("+"))
    exp[:, 2:5] = np.abs(_E)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    two = np.abs(_E) < 100
    exp[two, 2:5] = exp[two, 3:6]
    exp[_FIXED] = 0
    return _words(exp).ravel()


_LEAD, _EXP = _lead_words(), _exponent_words()
_MINUS = _words(np.frombuffer(b"-" + 7 * b"\0", np.uint8))[0]

# '%04d' of 0..9999 with a '.' after each digit, as one word; and the number
# of trailing zero digits of each 4-digit group (4 for 0000).
_GROUP = np.arange(10_000, dtype=np.int16)        # int16 keeps the import's peak memory low
_PAIR = np.full((_GROUP.size, 8), ord("."), np.uint8)
_PAIR[:, 0::2] = _GROUP[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")
_PAIR = _words(_PAIR).ravel()
_TZ = sum(_GROUP % 10 ** k == 0 for k in range(1, 5)).astype(np.intp)


def _digit_masks() -> np.ndarray:
    """Kept digit and '.' bytes of words 1-3, per notation class and digit count.

    Row 12*c + nd - 1 serves nd significant digits in class c: c = e + 4
    for fixed notation (e in -4..11), c = 16 for exponent notation.
    """
    c = np.arange(17)[:, None, None]
    nd = np.arange(1, 13)[None, :, None]
    pos = np.arange(24)[None, None, :]
    i = pos // 2                                # digit index of a digit or '.' slot
    X = c - 4
    fixed_up = (c < 16) & (X >= 0)
    # Fixed notation from 1 up writes every integer digit, zeros included;
    # below 1 it has no '.' among the digits.
    n_digits = np.where(fixed_up, np.maximum(nd, X + 1), nd)
    point_after = np.where(c < 16, X, 0)
    keep = np.where(pos % 2 == 1, (i == point_after) & (nd > point_after + 1), i < n_digits)
    return _words((keep * 0xFF).reshape(17 * 12, 24))


_DIGIT_MASK = _digit_masks()
# Row of _DIGIT_MASK for 12 significant digits, per table index k.
_MASK_ROW = np.where(_FIXED, _E + 4, 16) * 12 + 11


def text_rows(texts: list[str], words: int | None = None) -> np.ndarray:
    """Rows of whole words holding each text left-aligned, NUL-padded."""
    lens = np.fromiter(map(len, texts), np.intp, len(texts))
    if words is None:
        words = -(-int(lens.max(initial=0)) // 8)
    chars = np.zeros((len(texts), 8 * words), np.uint8)
    chars[np.arange(8 * words) < lens[:, None]] = np.frombuffer(
        "".join(texts).encode("ascii"), np.uint8)
    return _words(chars)


def encode_g12(x: np.ndarray, sep: str) -> np.ndarray:
    """Rows of _WORDS words holding '%.12g' % v, then `sep`, for each v in x."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    with np.errstate(invalid="ignore"):         # nan compares False, silently
        fast = (a >= 1e-290) & (a <= 1e290)
    a = np.where(fast, a, 1.0)
    # e = floor(log10 |x|) from the binary exponent: one of two decades,
    # told apart by one comparison with a power of ten.
    e = np.floor((np.frexp(a)[1] - 1) * _LOG10_2).astype(np.intp)
    e += a >= _POW10[_P0 + 1 + e]
    k = (_P0 + 11) - e
    s = a * _POW10[k]
    m = np.floor(s)
    frac = s - m
    slow = ~fast | (np.abs(frac - 0.5) < 1e-3)
    m += frac > 0.5
    # s from 999999999999.5 up rounds to 1e12: 1e11 at the next exponent.
    carry = m >= 1e12
    m[carry] = 1e11
    k -= carry
    # m < 1e12 < 2**53: exact float floor-division into three 4-digit groups.
    g0 = np.floor(m / 1e8)
    m -= g0 * 1e8
    g1 = np.floor(m / 1e4)
    m -= g1 * 1e4
    g0, g1, g2 = g0.astype(np.intp), g1.astype(np.intp), m.astype(np.intp)
    tz = _TZ[g2]
    low_zero = np.flatnonzero(g2 == 0)
    if low_zero.size:
        tz[low_zero] += _TZ[g1[low_zero]]
        mid_zero = low_zero[g1[low_zero] == 0]
        tz[mid_zero] += _TZ[g0[mid_zero]]

    words = np.empty((len(x), _WORDS), np.uint64)
    words[:, 0] = _LEAD[k] | (np.signbit(x).astype(np.uint64) * _MINUS)
    # take, not fancy indexing: several times faster for rows of a 2-D table.
    words[:, 1:4] = _DIGIT_MASK.take(_MASK_ROW[k] - tz, axis=0)
    words[:, 1] &= _PAIR[g0]
    words[:, 2] &= _PAIR[g1]
    words[:, 3] &= _PAIR[g2]
    words[:, 4] = _EXP[k] | _sep_word(sep)
    if slow.any():
        rows = np.flatnonzero(slow)
        words[rows] = text_rows(["%.12g%s" % (v, sep) for v in x[rows].tolist()], _WORDS)
    return words


class TextColumn:
    """The %.12g text of an axis that many rows or files share, encoded once.

    Written row i holds value index[i], or value i without an index. Each
    value's text is stored NUL-padded in a row of whole words whose last
    byte is left for the separator.
    """

    def __init__(self, values, index: np.ndarray | None = None, chunk: int = 4096):
        values = np.asarray(values, dtype=np.float64)
        # Rows are filled `chunk` values at a time. The width grows to the
        # longest text so far; a wider array takes only the rows filled.
        chars = np.zeros((len(values), 8), np.uint8)
        for i in range(0, len(values), chunk):
            text = np.frombuffer(join_rows([encode_g12(values[i:i + chunk], "\n")]), np.uint8)
            lens = np.diff(np.flatnonzero(text == ord("\n")), prepend=-1)     # with the "\n"
            width = 8 * -(-int(lens.max()) // 8)
            if width > chars.shape[1]:
                wider = np.zeros((len(values), width), np.uint8)
                wider[:i, :chars.shape[1]] = chars[:i]
                chars = wider
            rows = chars[i:i + len(lens)]
            rows[np.arange(chars.shape[1]) < lens[:, None]] = text
            rows[np.arange(len(lens)), lens - 1] = 0
        self.chars, self.index = chars, index

    def __len__(self) -> int:
        return len(self.chars) if self.index is None else len(self.index)

    def block(self, start: int, stop: int, sep: str) -> np.ndarray:
        """Rows start..stop, each followed by `sep`."""
        if self.index is None:
            chars = self.chars[start:stop].copy()
        else:
            chars = self.chars.take(self.index[start:stop], axis=0)
        chars[:, -1] = ord(sep)
        return _words(chars)


def block_text(col, start: int, stop: int, sep: str) -> np.ndarray:
    """Rows start..stop of a TextColumn or a numeric array, each followed by `sep`.

    Integer arrays are written with '%d', exactly at any size; others with
    '%.12g'.
    """
    if isinstance(col, TextColumn):
        return col.block(start, stop, sep)
    piece = col[start:stop]
    if np.issubdtype(piece.dtype, np.integer):
        return text_rows(["%d%s" % (v, sep) for v in piece.tolist()])
    return encode_g12(piece, sep)


def join_rows(blocks: list[np.ndarray]) -> bytes:
    """The text of blocks of the same rows, side by side, without the NULs."""
    # The stacked rows are freed before the NULs are dropped.
    data = (blocks[0] if len(blocks) == 1 else np.hstack(blocks)).tobytes()
    return data.translate(None, b"\0")
