"""CSV rows written from one byte buffer, floats by an exact vectorised ``%.17e``.

:func:`rows` lays out each :data:`CHUNK_ROWS` rows of a table in one
``(rows, row width)`` uint8 buffer.  Each column fills a fixed-width slice
of every row, padded with :data:`PAD`, a byte that never occurs in UTF-8;
the pad bytes are removed once per buffer.  Float cells come from :func:`e17`, int cells from
``str``.  Every other cell is the UTF-8 of the text a caller-given function
makes of its value, encoded with ``surrogatepass`` so that any ``str``
round-trips; bool columns and object columns format each distinct value
once.

:func:`e17` gives the bytes of ``'%.17e' % v`` for a whole float64 array.
For a finite |x| in [1e-270, 1e270) it estimates the decimal exponent
e = floor(log10 |x|) and forms S = |x| 10^(17 - e), whose nearest integer
holds the 18 significant digits:

* 10^p is held as a double-double hi + lo, built at import from Python
  ints, whose conversion to float and true division round correctly; so
  |10^p - hi - lo| <= 2^-106 10^p.  The range keeps hi, lo and every
  partial product normal and finite.
* Veltkamp's split and Dekker's two-product (Dekker, Numer. Math. 18, 224
  (1971)) write |x| hi exactly as a double p plus its error err.  Since
  S >= 1e16 > 2^53, p is an integer, so floor(S) = p + floor(t) and the
  fraction is t - floor(t), with t = err + |x| lo and |t| < 256.
* Rounding |x| lo, rounding the sum t and the table's own error each add
  less than 2^-45, so the fraction is within 2^-43 of the exact one.
* If floor(S) falls outside [10^17, 10^18), log10 missed by one and e moves
  one step.  S is rounded to the nearest integer, and a result of 10^18
  carries into the exponent.  A fraction misread across an integer rounds
  to the same integer, so neither step depends on which way log10 errs,
  and a different ``np.log10`` prints the same bytes.

The rounding differs from the exact value's only where the exact fraction
lies within 2^-43 of 1/2.  Every value whose computed fraction lies within
2^-20 of 1/2 (exact ties, the dyadics of few bits, among them) is printed
by ``%`` instead, which leaves a margin of 2^23 times the error; so are
+-inf, nan and |x| outside the range.  +-0 are fixed texts.  The digits
are read from a table of the 1000 digit triples.  These are the digits
Ryu printf prints (Adams, PLDI 2019); no code is taken from either paper.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

PAD = 0xFF
WIDTH = 25  # sign, 18 digits and the point, "e", exponent sign and 3 digits
CHUNK_ROWS = 4096  # bounds the temporaries: a chunk of 6 float columns peaks at about 3 MiB
_LOW, _HIGH = 1e-270, 1e270
_TIE_GUARD = 2.0**-20
_P_MIN, _P_MAX = -256, 290  # every 17 - e the kernel reaches, with room for one step
_ONE_E17, _ONE_E18 = 10**17, 10**18
_SPLIT = 134217729.0  # 2^27 + 1


def _words(texts: list[bytes]) -> np.ndarray:
    """Each 4-byte text as one uint32, so that a cell is filled four bytes at a time."""
    return np.frombuffer(b"".join(texts), np.uint32)


_PAD = bytes([PAD])
_LEAD = _words([b"%d.%02d" % divmod(i, 100) for i in range(1000)])  # the first 3 digits, "d.dd"
_TRIPLE = _words([b"%03d" % i + _PAD for i in range(1000)])  # the pad is the next word's first byte
_E_MIN = -300
_EXPONENT = _words([(b"%+03d" % e).rjust(4, _PAD) for e in range(_E_MIN, 301)])  # "+\xff05", "-100"
_ZERO = np.frombuffer(b"0.00000000000000000e+" + _PAD + b"00", np.uint8)
_KEYED = (bool, int, str)  # equal values of one of these types print alike; 0.0 and -0.0 do not


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * v
    high = c - (c - v)
    return high, v - high


def _pow10_table() -> np.ndarray:
    """Rows (hi, lo, hi's split) with hi + lo = 10^p to about 2^-106, for p from _P_MIN to _P_MAX."""
    his, los = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            n = 10**p
            hi = float(n)
            lo = float(n - int(hi))
        else:
            d = 10**-p
            hi = 1 / d
            num, den = hi.as_integer_ratio()
            lo = (den - num * d) / (den * d)  # 10^p - hi
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    return np.stack([hi, np.array(los), *_split(hi)], axis=1)


_POW10 = _pow10_table()


def _scaled(v: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(S) as int64 and the fraction S - floor(S), for S = v 10^(17 - e)."""
    hi, lo, hh, hl = _POW10[17 - e - _P_MIN].T
    p = v * hi
    vh, vl = _split(v)
    err = ((vh * hh - p) + vh * hl + vl * hh) + vl * hl
    t = err + v * lo
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _put(block: np.ndarray, col: int, words: np.ndarray) -> None:
    """Write one uint32 per row at bytes col to col + 4 of each row of ``block``."""
    block[:, col : col + 4].view(np.uint32)[:, 0] = words


def e17(x: np.ndarray) -> np.ndarray:
    """``'%.17e' % v`` of each entry of the 1-D float64 ``x``: an (n, WIDTH) uint8 array padded with PAD."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    inside = (a >= _LOW) & (a < _HIGH)
    v = np.where(inside, a, 1.0)
    e = np.floor(np.log10(v)).astype(np.int64)
    whole, frac = _scaled(v, e)
    step = (whole >= _ONE_E18).astype(np.int64) - (whole < _ONE_E17)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        whole[moved], frac[moved] = _scaled(v[moved], e[moved])
    r = whole + (frac > 0.5)
    carry = r == _ONE_E18
    r[carry] = _ONE_E17
    e += carry
    high, low = np.divmod(r, 10**9)  # 9 digits each
    lead = high // 10**6  # in [100, 1000) when the steps above held
    out = np.empty((x.size, WIDTH), np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), PAD)
    _put(out, 1, _LEAD[lead % 1000])
    # each triple's pad byte is overwritten by the next triple, the last one's by "e"
    _put(out, 5, _TRIPLE[high // 1000 % 1000])
    _put(out, 8, _TRIPLE[high % 1000])
    _put(out, 11, _TRIPLE[low // 10**6])
    _put(out, 14, _TRIPLE[low // 1000 % 1000])
    _put(out, 17, _TRIPLE[low % 1000])
    out[:, 20] = ord("e")
    _put(out, 21, _EXPONENT[e - _E_MIN])

    zero = a == 0
    out[zero, 1:] = _ZERO
    unsure = (np.abs(frac - 0.5) < _TIE_GUARD) | (lead < 100) | (lead >= 1000)
    slow = np.flatnonzero(~zero & (~inside | unsure))
    if slow.size:
        out[slow] = _text_block(["%.17e" % f for f in x[slow].tolist()], WIDTH)
    return out


def _text_block(texts: list[str], width: int = 0) -> np.ndarray:
    """The UTF-8 of each text, one per row of a read-only (n, >= width) uint8 array padded with PAD."""
    data = [t.encode("utf-8", "surrogatepass") for t in texts]
    width = max(width, 1, *map(len, data))
    return np.frombuffer(b"".join(d.ljust(width, _PAD) for d in data), np.uint8).reshape(len(data), width)


def _cells(col: np.ndarray, text: Callable[[object], str]) -> np.ndarray:
    """The bytes of ``text(v)`` for each value of a non-float column; an int prints as ``str`` does.

    A bool or object column formats each distinct value once.  An object
    column keys a value by (type, value), since True == 1; a value of a type
    other than bool, int or str is its own key, since 0.0 == -0.0 print
    differently.
    """
    kind = col.dtype.kind
    if kind == "b":
        return _text_block([text(False), text(True)])[col.view(np.uint8)]
    values = col.tolist()
    if kind in "iu":
        return _text_block(list(map(str, values)))
    if kind != "O":
        return _text_block(list(map(text, values)))
    index: dict = {}
    codes = [index.setdefault((type(v), v) if type(v) in _KEYED else object(), len(index)) for v in values]
    distinct = dict(zip(codes, values)).values()  # a value of each code, in code order
    return _text_block([text(v) for v in distinct])[codes]


def rows(columns: list[np.ndarray], text: Callable[[object], str]) -> str:
    """The CSV lines of a table's rows: float columns by :func:`e17`, the rest by ``text``.

    ``columns`` are 1-D arrays of one length.  ``text(v)`` is the finished
    field of a non-float cell, quoted as it must be.  Each line ends with
    LF.  The rows are laid out :data:`CHUNK_ROWS` at a time.
    """
    n = len(columns[0])
    return "".join(_chunk([col[i : i + CHUNK_ROWS] for col in columns], text) for i in range(0, n, CHUNK_ROWS))


def _chunk(columns: list[np.ndarray], text: Callable[[object], str]) -> str:
    n = len(columns[0])
    floats = [col for col in columns if col.dtype.kind == "f"]
    if floats:  # one kernel call for every float cell, column by column
        float_blocks = iter(e17(np.stack(floats, axis=1).ravel()).reshape(n, len(floats), WIDTH).transpose(1, 0, 2))
    blocks = [next(float_blocks) if col.dtype.kind == "f" else _cells(col, text) for col in columns]
    buf = np.empty((n, sum(b.shape[1] + 1 for b in blocks)), np.uint8)
    start = 0
    for block in blocks:
        end = start + block.shape[1]
        buf[:, start:end] = block
        buf[:, end] = ord(",")
        start = end + 1
    buf[:, -1] = ord("\n")
    flat = buf.reshape(-1)
    return flat[flat != PAD].tobytes().decode("utf-8", "surrogatepass")
