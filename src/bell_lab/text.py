"""The number text kernel: ``str`` of each value of an integer or float array, as bytes.

A column of values becomes a NUL-padded ``(rows, width)`` uint8 matrix (``cells``):
row i, its NUL bytes dropped, is the ASCII text of ``str(values[i])``. NUL never occurs
in that text, so a cell's padding may sit anywhere in its slot, and a block's text is
its cell matrices placed side by side with separator columns between them (``rows``),
NUL bytes dropped (``text``). No Python object is made per cell.

Integers, each on its own, are written two digits per step from a table of "00" to
"99". Floats are ``str`` of each below 128 values, under the kernel's fixed cost;
where at most half are distinct, each distinct bit pattern is written once. A float
x = m * 2**e2 in repr's positional range, 1e-4 <= |x| < 1e16, gets its shortest
round-trip digits by Ryu's method (Adams, PLDI 2018) on exact integers: the 128-bit
product 4m * 5**k, built from 32-bit halves, shifted right by 2 - e2 - k is x * 10**k
at about 17 digits, and the rounding interval's bounds are that product plus 2 * 5**k
and minus 2 * 5**k (1 * 5**k just above a power of two) at the same shift. Digits are
removed while the bounds hold a shorter number, and of those the one nearest x is kept.
A value takes ``str`` itself where a bound or the rounding midpoint is exact at the
working scale, where no digit was removed, where the kept number is not inside the
bounds, and outside the positional range: 0.0, -0.0, subnormals, the ``e`` notation.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype="<u2")
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)
_DOT, _MINUS = np.uint8(ord(".")), np.uint8(ord("-"))


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Per biased exponent, e2 + 1075: whether the fast path takes it, 2**-14 <= |x| <
    2**54; its decimal scale k, the least with 2**(e2 + 52) * 10**k >= 10**17 but at most
    2 - e2; 5**k; and the shift 2 - e2 - k. So the shift is in [0, 46], and x * 10**k,
    below 2**(e2 + 53) * 10**k, is below 2 * 10**18 with 11 or more units between its
    bounds."""
    fast, scale = np.zeros(2048, dtype=bool), np.zeros(2048, dtype=np.int64)
    for e2 in range(-66, 2):
        p = e2 + 52  # 10**(digits - 1) <= 2**p < 10**digits
        digits = len(str(2**p)) if p >= 0 else len(str(5**-p)) + p
        fast[e2 + 1075], scale[e2 + 1075] = True, min(18 - digits, 2 - e2)
    shift = np.where(fast, 2 - (np.arange(2048) - 1075) - scale, 0)
    return fast, scale, _U64(5) ** scale.astype(_U64), shift.astype(_U64)


_FAST, _SCALE, _FIVE, _SHIFT = _exponent_tables()
_LOW32 = _U64(0xFFFFFFFF)
# Row c keeps the last c of 20 columns, row 0 the last one: a 0 has one digit.
_LAST = np.where(np.arange(20) >= 20 - np.maximum(np.arange(21), 1)[:, None], 0xFF, 0).astype(np.uint8)


def cells(values: np.ndarray) -> np.ndarray:
    """The NUL-padded text matrix of a 1-D integer or float array, one row per value:
    each integer on its own, floats as the module docstring says."""
    values = np.ascontiguousarray(values)
    if values.dtype.kind == "u":
        return _digits(values.astype(_U64, copy=False))
    if values.dtype.kind == "i":
        signed = values.astype(np.int64, copy=False)
        negative = signed < 0
        magnitude = np.where(negative, ~signed.view(_U64) + _U64(1), signed.view(_U64))  # -2**63 is 2**63
        return _signed(negative, _digits(magnitude))
    if values.dtype.kind != "f":
        raise TypeError(f"cannot write an array of dtype {values.dtype} as numbers")
    bits = values.view(f"u{values.itemsize}")
    distinct = _distinct(bits)
    if 2 * len(distinct) <= len(bits):
        return _float_cells(distinct.view(values.dtype))[np.searchsorted(distinct, bits)]
    return _float_cells(values)


def rows(columns: list[np.ndarray], sep: bytes = b",", start: bytes = b"", end: bytes = b"") -> np.ndarray:
    """The text matrix of rows made of ``columns``, cell matrices of as many rows:
    ``start``, the cells separated by ``sep``, then ``end``."""
    n = len(columns[0])
    parts = [_constant(n, start), columns[0]]
    for column in columns[1:]:
        parts += [_constant(n, sep), column]
    return np.concatenate(parts + [_constant(n, end)], axis=1)


def text(matrix: np.ndarray) -> bytes:
    """The text a matrix holds: its bytes in row order, NUL bytes dropped."""
    return matrix[matrix != 0].tobytes()  # a mask: np.compress would make an index per byte


def join(matrix: np.ndarray, sep: bytes) -> bytes:
    """The texts of a matrix's rows with ``sep`` between them."""
    return text(rows([matrix], end=sep))[: -len(sep) or None]


def order(values: np.ndarray) -> np.ndarray:
    """The indices that sort a 1-D signed integer array by its values' text, as ``sorted``
    sorts their ``str``: "-1", "-10", "-2", "0", "10", "2". '-' sorts before every digit,
    and a magnitude's digits sort as its digits padded with zeros to 19 places, except
    that of a text and its extension by zeros the shorter, the smaller, comes first."""
    if values.dtype.kind != "i":
        raise TypeError(f"cannot order an array of dtype {values.dtype} by its text")
    magnitude = np.abs(values.astype(np.int64, copy=False)).view(_U64)  # -2**63 is 2**63
    digits = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    return np.lexsort((magnitude, magnitude * _POW10.take(19 - digits), values >= 0))


def _constant(n: int, chars: bytes) -> np.ndarray:
    return np.broadcast_to(np.frombuffer(chars, dtype=np.uint8), (n, len(chars)))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array, sorted. One ``np.sort`` and a mask: on 8,192
    int64 values 34 us, against 272 us for ``np.unique`` (numpy 2.4.6, a 2-vCPU Xeon)."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def _signed(negative: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``matrix`` with a sign column in front, where some value is negative."""
    if not negative.any():
        return matrix
    return np.concatenate([np.where(negative, _MINUS, np.uint8(0))[:, None], matrix], axis=1)


def _digits(v: np.ndarray, width: int | None = None) -> np.ndarray:
    """The decimal digits of uint64 values, right-aligned in ``width`` columns with zeros
    in front; without a ``width``, in the widest value's columns with NUL in front."""
    shown = None
    if width is None:
        width = len(str(int(v.max()))) if len(v) else 1
        if width > 1:
            shown = np.searchsorted(_POW10, v, side="right")
    pairs = np.empty(((width + 1) // 2, len(v)), dtype="<u2")
    rest = v
    for j in range(len(pairs) - 1, -1, -1):
        high = rest // _U64(100)
        _PAIRS.take(rest - high * _U64(100), out=pairs[j], mode="clip")
        rest = high
    matrix = np.ascontiguousarray(pairs.T).view(np.uint8)[:, 2 * len(pairs) - width :]
    return matrix if shown is None else _keep_last(matrix, shown)


def _keep_last(matrix: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``matrix`` with each row's columns before its last ``counts`` ones set to NUL."""
    width = matrix.shape[1]
    matrix &= _LAST.take(counts, axis=0, mode="clip")[:, _LAST.shape[1] - width :]
    return matrix


def _float_cells(x: np.ndarray) -> np.ndarray:
    if len(x) < 128:
        return _str_cells(x)
    x = x.astype(np.float64, copy=False)
    bits = x.view(_U64)
    q, places, ok = _shortest(bits)
    # The integer part, NUL in front; the point; the fraction's places digits, right-aligned.
    step = _POW10.take(np.clip(places, 0, 19))
    high = q // step
    whole = np.where(places > 0, high, q * _POW10.take(np.clip(-places, 0, 19)))
    width = int(places.max()) if len(x) else 1
    parts = [_digits(whole), np.full((len(x), 1), _DOT), _keep_last(_digits(q - high * step, max(width, 1)), places)]
    matrix = _signed((bits >> _U64(63)).astype(bool) & ok, np.concatenate(parts, axis=1))
    slow = np.flatnonzero(~ok)
    if len(slow):
        texts = _str_cells(x[slow])
        width = max(texts.shape[1], matrix.shape[1])
        matrix = np.concatenate([matrix, np.zeros((len(x), width - matrix.shape[1]), dtype=np.uint8)], axis=1)
        matrix[slow] = 0
        matrix[slow, : texts.shape[1]] = texts
    return matrix


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest round-trip digits of each float64 (as its bits): x = q * 10**-places,
    q without trailing zeros after the point, and whether the fast path found them."""
    fast, scale, vr, vp, vm, exact, whole_at_scale = _interval(bits)
    # How many trailing digits can go while a number stays between the bounds: one to
    # three for nearly every value; the few that lose more go on alone.
    removed = np.zeros(len(bits), dtype=np.int64)
    for j in (1, 2, 3):
        removed += vp // _POW10[j] > vm // _POW10[j]
    live = np.flatnonzero(removed == 3)
    for j in range(4, 20):
        live = live[vp[live] // _POW10[j] > vm[live] // _POW10[j]]
        if not len(live):
            break
        removed[live] += 1

    # The kept number q: the one nearest x at that scale, inside the bounds.
    unit = _POW10.take(removed)
    q = vr // unit
    rest = vr - q * unit
    half = unit >> _U64(1)
    low_end, high_end = vm // unit, vp // unit
    q += (q == low_end) | (rest > half) | ((rest == half) & ~whole_at_scale)
    tie = (rest == half) & whole_at_scale
    places = scale - removed
    point = np.searchsorted(_POW10, q, side="right") - places  # repr's decimal point
    ok = fast & ~exact & ~tie & (removed > 0) & (q > low_end) & (q <= high_end) & (point >= -3) & (point <= 16)
    ended = np.flatnonzero(ok & (q % _U64(10) == 0) & (places > 0))  # a rounded-up q may end in 0
    while len(ended):
        q[ended] //= _U64(10)
        places[ended] -= 1
        ended = ended[(q[ended] % _U64(10) == 0) & (places[ended] > 0)]
    ok &= places <= 20  # repr's fraction has at most 3 zeros and 17 digits
    return np.where(ok, q, _U64(0)), np.where(ok, places, 0), ok


def _interval(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each float64 (as its bits): whether the fast path takes it, its scale k, x and
    its rounding interval's bounds at that scale, floored (vr, vp, vm), whether a bound is
    exact there, and whether x is."""
    exponent = (bits >> _U64(52)) & _U64(0x7FF)
    fast, scale, five, shift = (table.take(exponent) for table in (_FAST, _SCALE, _FIVE, _SHIFT))
    fraction = bits & _U64((1 << 52) - 1)

    # (hi, lo) = 4m * 5**k, exact: 4m < 2**55 and 5**k < 2**52.
    a = (fraction | _U64(1 << 52)) << _U64(2)
    a_hi, a_lo, f_hi, f_lo = a >> _U64(32), a & _LOW32, five >> _U64(32), five & _LOW32
    low = a_lo * f_lo
    middle = a_hi * f_lo + a_lo * f_hi  # < 2**56
    lo = low + (middle << _U64(32))
    hi = a_hi * f_hi + (middle >> _U64(32)) + (lo < low)
    # The bounds: 2 * 5**k above and below, or 5**k below at m = 2**52, whose lower
    # neighbour is half as far.
    up = five << _U64(1)
    lo_up = lo + up
    hi_up = hi + (lo_up < lo)
    lo_down = lo - np.where(fraction == 0, five, up)
    hi_down = hi - (lo_down > lo)

    def scaled(hi, lo):  # (hi, lo) >> shift, which fits 64 bits; both shift counts in [0, 63]
        return ((hi << (_U64(63) - shift)) << _U64(1)) | (lo >> shift)

    below = (_U64(1) << shift) - _U64(1)
    exact = ((lo_up & below) == 0) | ((lo_down & below) == 0)
    return fast, scale, scaled(hi, lo), scaled(hi_up, lo_up), scaled(hi_down, lo_down), exact, (lo & below) == 0


def _str_cells(values: np.ndarray) -> np.ndarray:
    """The text matrix of ``str`` of each value, one at a time."""
    texts = np.array([str(v) for v in values.tolist()], dtype="S")
    return texts.view(np.uint8).reshape(len(values), texts.itemsize)
