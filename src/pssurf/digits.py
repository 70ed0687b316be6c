"""Decimal text of float64 arrays, byte for byte what % writes, from digit
tables.

OBJ export (pssurf.frame) spells coordinates as '%.12g' and stored-grid
CSV (pssurf.solutions) spells values as '%.17g'; both build their text
here a block of rows at a time.  A row is a fixed number of uint32 words
whose bytes spell the line with NUL pads between its pieces; one
bytes.translate per block drops the pads.  The pieces are 4-digit words
looked up in tables.

A value x is spelled as '%.Pg' % x spells it, for a precision P of 17
or at most 15.  Where the decimal exponent E = floor(log10|x|) lies in
-4..P-1, %g spells x in fixed point from n, the exact product |x| * 10**k
rounded to an integer, with k = P-1-E: its P digits, with the point before
the last k and trailing zeros cut.  The power of ten is exact (k <= 20 <=
22), and Dekker's two-product (Numer. Math. 18, 1971; Veltkamp's split, no
fused multiply-add) gives the product exactly as hi + lo, with hi the
rounded product.  For P = 17, hi >= 10**16 > 2**53 is a whole number and n
is hi + rint(lo).  For P <= 15, |lo| < 1/16 and n is rint(hi), except that
where hi lies halfway between two whole numbers the sign of lo decides.
% itself spells the rest, one value at a time: zeros, nan and infinities,
values it spells with an exponent, exact ties (which % rounds half to
even), and values whose exact product lies outside [10**(P-1), 10**P) or
whose n is 10**P.  The last are values whose E was misjudged or whose
rounding carries into the next power of ten.

read_rows is the inverse for CSV rows, bit for bit np.loadtxt.  A field
of digits with an optional "-" first and "." inside is n / 10**k, n < 10**17
spelled by its digits, k of them after the point; each 8 digits are one
word, turned into a number in three multiply-shift steps (Lemire, SPE 51,
2021).  10**k is exact, so q = fl(fl(n) / 10**k) is within two ulps of
n / 10**k, and the two-product's n - q * 10**k gives its distance t from q
in ulps all but exactly (Clinger, PLDI 1990).  The value is q moved by
rint(t) ulps where t is not within 2**-20 of a tie, it stays in q's binade
and lies on no power of two from below: its neighbours are an ulp away on
both sides.  "nan", "inf" and "-inf" are matched over arrays, and float(),
as loadtxt, reads other fields; text loadtxt may read otherwise gives None.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["read_rows", "text_rows", "write_rows"]

# offsets of the 10,000-word tables in _digit_words(): the words "0000" to
# "9999" spelled in full, with trailing zeros NUL, with leading zeros NUL,
# and with leading zeros NUL but "0" for 0
_SPELLED, _TRAILING, _LEADING, _ZERO = 0, 10_000, 20_000, 30_000
# 10**0 to 10**22, all exact in float64, and 10**0 to 10**18 as int64
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
_VELTKAMP = 2.0 ** 27 + 1


@functools.cache
def _digit_words():
    """The word tables of _SPELLED, _TRAILING, _LEADING and _ZERO, one
    after another as little-endian uint32, so that a word's bytes read in
    order.  Built on first use."""
    k = np.arange(10_000)
    digits = (k[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    zero = digits == 0
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    leading = np.logical_and.accumulate(zero, axis=1)
    spelled = 48 + digits
    tables = np.stack([np.where(pad, 0, spelled) for pad in
                       (False, trailing, leading, leading)])
    tables[3, 0, 3] = ord("0")
    tables = tables.view("<u4").reshape(-1)
    # every caller shares the one cached array
    tables.flags.writeable = False
    return tables


@functools.cache
def _point_marks():
    """(6, 21) uint32: for the word r places from the right end of a
    fraction of k > 0 digits, right-aligned and spelled with leading zeros,
    what to subtract from its bytes to turn the "0" before the digits into
    "." and the zeros before that into NUL.  Row k = 0 is 0."""
    k = np.arange(21)[None, :, None]
    # place of each byte counted from the right end, 0 for the last
    place = 4 * np.arange(6)[:, None, None] + 3 - np.arange(4)
    marks = np.where(place > k, ord("0"),
                     np.where(place == k, ord("0") - ord("."), 0))
    marks[:, 0] = 0
    return marks.astype(np.uint8).view("<u4")[..., 0]


def _split_words(x, count):
    """The integers x < 10**(4 count), as integers or floats, as count
    arrays of 4-digit words, most significant first."""
    x = x.astype(np.int64)
    words = []
    for _ in range(count - 1):
        # numpy divides by a constant several times faster than it takes
        # % or divmod
        high = x // 10_000
        words.append(x - high * 10_000)
        x = high
    words.append(x)
    return words[::-1]


def _whole_words(x, count, negative=None):
    """The integers x < 10**(4 count), as integers or floats, spelled in count
    words, right-aligned: leading zeros NUL but "0" for 0, and "-" for the
    first byte where negative is set, which needs x < 10**(4 count - 1).
    Returns the words, most significant first."""
    words = _digit_words()
    out = []
    for j, w in enumerate(_split_words(x, count)):
        table = _ZERO if j == count - 1 else _LEADING
        if j == 0:
            out.append(words.take(w + table))
            if negative is not None:
                # the first byte is a NUL pad, since w < 1000
                out[0] |= np.uint32(ord("-")) * negative
            seen = w != 0
        else:
            out.append(words.take(w + table * ~seen))
            seen |= w != 0
    return out


def _veltkamp(a):
    """a as hi + lo exactly, each with at most 26 significant bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


# 10**k cut into halves once, for the two-product
_POW10_HALVES = _veltkamp(_POW10)


def _product_error(a, k, hi):
    """lo with a * 10**k == hi + lo exactly, where hi is the rounded product
    (Dekker's two-product)."""
    a_hi, a_lo = _veltkamp(a)
    s_hi, s_lo = (h.take(k) for h in _POW10_HALVES)
    return ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo


def _fixed_point(a, precision):
    """(whole, fraction, k, fixed) for the magnitudes a: '%.<precision>g'
    spells a in fixed point with k digits after the point, from n rounded
    as the module docstring says, where fixed is set; n is whole * 10**k +
    fraction, and both are 0 where fixed is not set.  precision is 17, or
    at most 15."""
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        fixed = (e >= -4) & (e < precision)
        k = precision - 1 - e
        k[~fixed] = 0
        k = k.astype(np.intp)
        scale = _POW10[k]
        hi = a * scale
        low = _POW10[precision - 1]
        if precision == 17:
            # hi >= 10**16 > 2**53 is a whole number
            lo = _product_error(a, k, hi)
            up = np.rint(lo)
            n = hi.astype(np.int64) + up.astype(np.int64)
            fixed &= (((hi - low) + lo >= 0) & (np.abs(lo - up) != 0.5)
                      & (n < _POW10_INT[precision]))
            n[~fixed] = 0
            # 10**k exceeds int64 for k > 18, but then n < 10**k
            scale = _POW10_INT[np.minimum(k, precision)]
            whole = n // scale
            return whole, n - whole * scale, k, fixed
        # hi < 10**15 < 2**50, so |lo| < 1/16: lo moves n off rint(hi) only
        # where hi is halfway, and the product below low only where hi is
        # low
        n = np.rint(hi)
        fixed &= hi >= low
        at = fixed & ((np.abs(hi - n) == 0.5) | (hi == low))
        if at.any():
            hi = hi[at]
            lo = _product_error(a[at], k[at], hi)
            half = hi != low
            n[at] = np.where(half, hi + np.copysign(0.5, lo), hi)
            # not an exact tie, nor a product just below low
            fixed[at] = np.where(half, lo != 0, lo >= 0)
        fixed &= n < _POW10[precision]
        n[~fixed] = 0
        # n < 2**53: the quotient's floor is exact
        whole = np.floor(n / scale)
        return whole, n - whole * scale, k, fixed


def text_rows(values, precision, lead):
    """The rows of values (b, c) as text, as bytes: per value its lead
    word (up to 4 bytes, NUL-padded, as uint32) and the value spelled as
    '%.<precision>g' spells it, and "\\n" after each row.

    A value is its sign and integer part right-aligned in as many words as
    the block needs, then "." and its fraction digits right-aligned,
    leading words and trailing zeros NUL; a value that % spells fills the
    words after its lead instead.
    """
    words = _digit_words()
    marks = _point_marks()
    # a value that % spells is overwritten below; until then it spells as
    # 0 with any k
    whole, fraction, k, fixed = _fixed_point(np.abs(values), precision)
    k_min = int(k.min(where=fixed, initial=precision - 1))
    # no fraction digits, and no point, where the fraction is 0
    k[fraction == 0] = 0
    # room for P - k digits and a sign, and for "." and k digits
    int_words = (precision - k_min + 4) // 4
    frac_words = (int(k.max(initial=0)) + 4) // 4
    by_percent = not fixed.all()
    if by_percent:
        # a % spelling takes up to precision + 7 bytes
        frac_words = max(frac_words, (precision + 10) // 4 - int_words)
    width = 1 + int_words + frac_words
    b, c = values.shape
    rows = np.empty((b, c * width + 1), np.uint32)
    rows[:, -1] = ord("\n")
    field = rows[:, :-1].reshape(b, c, width)
    field[..., 0] = lead
    for j, w in enumerate(_whole_words(whole, int_words, np.signbit(values)),
                          1):
        field[..., j] = w
    # the words right of the fewest fraction digits hold digits only
    plain = k_min // 4
    split = _split_words(fraction, frac_words)
    for r in range(frac_words):
        w = split[-1 - r]
        # trailing zeros NUL where every word to the right is 0
        spelled = words.take(w + (_TRAILING if r == 0 else _TRAILING * zero))
        if r >= plain:
            spelled -= marks[r].take(k)
        field[..., -1 - r] = spelled
        zero = w == 0 if r == 0 else zero & (w == 0)
    if by_percent:
        rest = ~fixed
        spell = b"%%.%dg" % precision
        text = b"".join((spell % x).ljust(4 * (width - 1), b"\0")
                        for x in values[rest].tolist())
        field[..., 1:][rest] = np.frombuffer(text, np.uint32).reshape(
            -1, width - 1)
    return rows.tobytes().translate(None, b"\0")


def write_rows(fh, columns, precision, lead, block):
    """Write text_rows of the equal-length columns to the binary file fh,
    stacking block rows at a time, so one block's values and text are
    alive at a time."""
    for k in range(0, len(columns[0]), block):
        fh.write(text_rows(np.column_stack([c[k:k + block] for c in columns]),
                           precision, lead))


# bytes of text read at a time, and before each block 23 "0" and a "\n":
# the words of its first field reach back into them
_READ = 1 << 18
_LEAD = b"0" * 23 + b"\n"
# what read_rows takes each byte other than a digit for: 0 text it leaves
# to loadtxt, 1 "\n", 2 ",", 3 "." and 4 another byte float() may take
_KIND = np.zeros(256, np.uint8)
_KIND[[10, 44, 46, 43, 45]] = [1, 2, 3, 4, 4]
_KIND[58:128] = 4
_KIND[ord("_")] = 0  # float() takes it between digits, loadtxt does not
# _LAST[c]: masks of the three words before c <= 22 digits keeping them
_LAST = np.array([[(1 << 8 * b) - 1 << 8 * (8 - b)
                   for b in (min(max(c - 8 * j, 0), 8) for j in (2, 1, 0))]
                  for c in range(23)], np.uint64)
# n < _ROOM[k] * 10**k <= 10**17 for the integer part n before k digits
_ROOM = np.array([10 ** max(17 - k, 0) for k in range(23)], np.uint64)
_SPECIAL = {field: float(field) for field in (b"nan", b"inf", b"-inf")}


def read_rows(fh, rows, width):
    """The values of rows CSV rows of width values each in the binary file
    fh, from its position on, flat; or None (see the module docstring).
    _READ bytes at a time are cut after their last "\n" into the result."""
    out = np.empty(rows * width)
    raw = bytearray(_LEAD + bytes(_READ))
    text, view = np.frombuffer(raw, np.uint8), memoryview(raw)
    done = kept = 0
    while got := fh.readinto(view[len(_LEAD) + kept:]):
        size = len(_LEAD) + kept + got
        cut = raw.rfind(b"\n", len(_LEAD), size) + 1
        values = _row_values(text[:cut], width) if cut else None
        if values is None or done + len(values) > len(out):
            return None
        out[done:done + len(values)] = values
        done += len(values)
        kept = size - cut
        raw[len(_LEAD):len(_LEAD) + kept] = raw[cut:size]
    # the last line ends in "\n" and no value is missing
    return out if not kept and done == len(out) else None


def _number(text, ends, counts):
    """The numbers spelled by the counts <= 22 digits before ends in text
    as uint64 (>= 10**17 where not below it), read in as few words as may."""
    size = max(-(-int(counts.max(initial=0)) // 8) * 8, 8)
    windows = np.ndarray(len(text) - size + 1, f"V{size}", text,
                         strides=(1,))
    w = windows[ends - size].view(np.uint64).reshape(len(ends), size // 8)
    w &= _LAST.take(counts, axis=0)[:, 3 - w.shape[1]:]
    # digits, first lowest, to their values, then pairs, fours and eights
    for keep, times, shift in ((0x0F0F0F0F0F0F0F0F, 2561, 8),
                               (0x00FF00FF00FF00FF, 6553601, 16),
                               (0x0000FFFF0000FFFF, 42949672960001, 32)):
        w &= keep
        w *= times
        w >>= shift
    n = w[:, -1]
    if size > 8:
        n = n + w[:, -2] * np.uint64(10 ** 8)
    if size > 16:
        n += np.minimum(w[:, 0], 10) * np.uint64(10 ** 16)
    return n


def _row_values(text, width):
    """The values of the rows of text, a block of read_rows, or None."""
    # the bytes other than digits: a plain field has a "-" first, a "." last
    at = np.flatnonzero((text < 48) | (text > 57))
    kind = _KIND.take(text.take(at))
    seps = np.flatnonzero(kind <= 2)
    ends = kind.take(seps[1:])
    if (not kind.all() or len(ends) % width
            or (ends.reshape(-1, width) != [2] * (width - 1) + [1]).any()):
        return None
    start, end = at.take(seps[:-1]) + 1, at.take(seps[1:])
    has_dot = kind.take(seps[1:] - 1) == 3
    dot = np.where(has_dot, at.take(seps[1:] - 1), end)
    neg = text.take(start) == 45
    plain = np.flatnonzero(np.diff(seps) == 1 + has_dot + neg)  # no others
    x, slow = np.empty(len(start)), np.ones(len(start), bool)
    x[plain], slow[plain] = _decimals(text, *(a.take(plain) for a in
                                              (start, end, dot, neg)))
    rest = np.flatnonzero(slow)
    # the 8 bytes before the end of each field left, and its length
    tail = np.ndarray(len(text) - 7, "<u8", text, strides=(1,))[
        end.take(rest) - 8]
    size = (end - start).take(rest)
    for field, value in _SPECIAL.items():
        hit = rest[(size == len(field)) & (tail >> 64 - 8 * len(field)
                   == int.from_bytes(field, "little"))]
        x[hit], slow[hit] = value, False
    for j in np.flatnonzero(slow).tolist():
        try:
            x[j] = float(text[start[j]:end[j]].tobytes())
        except ValueError:
            return None
    return x


def _decimals(text, start, end, dot, neg):
    """(x, slow): the fields of text from start to end, "-" first where neg
    and the fraction after dot, read as n / 10**k, and where they are not."""
    int_len = dot - start - neg
    k = np.maximum(end - dot - 1, 0)
    slow = (int_len + k == 0) | (int_len > 22) | (k > 22)
    whole = _number(text, dot, np.clip(int_len, 0, 22))
    k = np.minimum(k, 22)
    fraction = _number(text, end, k)
    slow |= (whole >= _ROOM.take(k)) | (fraction >= 10 ** 17)
    n = (whole * _POW10_INT.take(np.minimum(k, 18)).view(np.uint64)
         + fraction).view(np.int64)
    n_float = n.astype(float)
    scale = _POW10.take(k)
    q = n_float / scale
    hi = q * scale
    r = (n_float - hi) + ((n - n_float.astype(np.int64)).astype(float)
                          - _product_error(q, k, hi))
    bits = q.view(np.int64)
    # the ulp of q > 0 (2**-1074 for q = 0)
    ulp = np.maximum((bits & 0x7FF0000000000000).view(float),
                     2.0 ** -1022) * 2.0 ** -52
    t = r / (scale * ulp)
    step = np.rint(t)
    x = q + step * ulp
    moved = x.view(np.int64)
    slow |= (~(np.abs(t - step) < 0.5 - 2.0 ** -20)
             | ((moved ^ bits) >> 52 != 0)
             | ((moved & 0xFFFFFFFFFFFFF == 0) & (t < step)))
    return np.copysign(x, np.where(neg, -1.0, 1.0)), slow
