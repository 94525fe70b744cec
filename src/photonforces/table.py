"""Tabular result container with lossless CSV and JSON serialization.

The values are float64 columns, a row per grid point and a column per
quantity, each a 1-D array, in the layouts that `ResultTable._from_columns`
sets out and only this module reads: a CLI run's own column arrays where it
has more than one row (a constant column as a zero-stride view of its
value), else the rows of one 2-D array, a 1-row run's values or the
transpose of the array given to the constructor.  `data` builds the (rows,
columns) array on request, and the CSV writer one block of rows at a time
(`_block`).  Column names are unique.  CSV layout: header row, units row,
then data rows with every value as `%.16e` (17 significant digits), so
doubles round-trip exactly.  JSON holds `columns`, `units`, `data` (one
array per column, keyed by name) and the metadata object (constants
version, convention flags, and the resolved run configuration for
reproducibility), with sorted keys, a 2-space indent and one value per
line: the text of `json.dumps(payload, indent=2, sort_keys=True)`.  Values
are written as Python's shortest round-trip `repr`, so they too read back
exactly.  `write_csv(fh)` / `write_json(fh)` write each format a block at a
time to a binary file as bytes, or to a text file (an `io.TextIOBase`) as
their text; `to_json()` is the JSON writer into a `StringIO`.

CSV rows are encoded as arrays, `_CSV_BLOCK_ROWS` rows at a time, into the
bytes `%.16e` writes.  Each nonzero |x| is scaled to
s = |x| * 10**(16 - E), with E = floor(log10|x|) corrected once near powers
of ten, as a float64 double-double: Dekker's error-free product of |x| and
a two-double 10**(16 - E), so that s is its integer part d and a fraction,
within 2**-44 (about 2**-101 of s) of the exact product.  Its 17 digits,
D = s rounded to the nearest integer, are read from a 4-digit lookup table
into a fixed 25-byte slot per value, written as words through unaligned
views of a `bytearray`, whose pad bytes `bytearray.translate` deletes as
it copies out the block's bytes.  A value whose fraction lies within
`_BAND`, 2**-40, of 1/2 (exact ties included), or whose D falls outside
[1e16, 1e17), takes the exact path: Python's `"%.16e" % x`.  So does every
block of fewer than `_CSV_MIN_VALUES` values.  One block's scratch is about
52 bytes a value, each array dropped once used.

JSON data values are encoded the same way, the sorted columns end to end in
blocks of `_JSON_BLOCK_VALUES`, into the bytes of `float.__repr__`: the
shortest digits that read back as the value, the nearest to it if several
are as short, in fixed notation for E in -4..15 and as `1e-05`/`1.5e+16`
outside.  Every decimal within half the gap to each neighbouring double
reads back as x; scaled like s, the candidates are the integers in that
interval, which reaches at most 11.1 either side of s.  So the digits are
the multiple of 100 in it if there is one (with its further trailing
zeros counted), else the multiple of 10 nearest to s if that is in it,
else s rounded.  A power of two, whose gap below is half the gap above,
is given the narrower interval.  A value takes the exact path,
`float.__repr__`, where an end of the interval lies within `_BAND` of the
nearest multiple of 10 or 100, or s within it of a rounding tie, or where a
power of two's wider interval may take in a multiple that the narrower
does not, or where |x| is subnormal or the smallest normal; so do blocks of
fewer than `_JSON_MIN_VALUES` values, and every block where the byte order
is big-endian.  The digits are read as 2-digit
pairs into a 56-byte slot per value, each digit after a pad byte for the
point, and one mask per place of the point and count of digits keeps the
digits written and sets the point.  A marker byte after each column's last
value is where the text is cut into columns.  A column of one value in
every row, to the bit (a column of 0.0 with one -0.0 varies), in a table of
two rows or more, is not encoded: its `repr` is written repeated,
`_JSON_BLOCK_VALUES` values at a time, between the other columns, so the
writer still holds at most one block.
"""

import functools
import io
import sys

import numpy as np

from .errors import NumericalGuardError

# The CSV encoder's scratch, about 52 bytes a value, bounds the block: with
# 512-row blocks, writing a 5000-row beam table peaks 0.31 MB above it,
# which sets that run's peak (its compute peaks 0.17 MB above the table),
# and 768 or 1024 rows took 1.20x or 1.34x the time of 512 and 256 rows
# 1.12x (5000-row grid tables, in process).
# Smaller blocks are formatted by `%`: numpy's fixed cost per block, 35-100
# us, outweighs about 0.6 us per `%` value (measured on a 2 GHz Xeon, where
# blocks of 90 values or fewer took longer as arrays, and 117 or more less).
_CSV_BLOCK_ROWS = 512
_CSV_MIN_VALUES = 150
# the JSON slots are put together from little-endian words
_JSON_ARRAYS = sys.byteorder == "little"
# how near a fraction of s, or an end of its interval, may lie to where the
# digits change and still be undecided, in scaled units: 16 times the error
# bound of `_product`, and 2**7 times the largest error measured
_BAND = 2.0**-40
# E spans -324 (5e-324) to 308, one more each way before its correction
_EXP_MIN, _EXP_MAX = -325, 309
_SLOT = 25  # bytes per CSV value: sign, lead digit, point, 16 digits, exponent, separator
_E16, _E17 = np.uint64(10**16), np.uint64(10**17)
_P10 = np.array([1.0, 10.0, 100.0])
_TENS = _P10[1:, None]
_TENTHS = 1.0 / _TENS
_P10_PAST = 10 ** np.arange(3, 17, dtype=np.uint64)
_TINY = np.finfo(float).tiny  # the smallest normal double, 2**-1022
# The JSON encoder costs about 90 us a block and 0.15 us a value, against
# 0.55-0.85 us a value for `repr` (grid values, 2-core Xeon VM); summed over
# the four grid kinds, arrays lose at 153 values and win at 162, so smaller
# blocks are written by `repr`.  The block size bounds the encoder's memory,
# about 120 bytes per value: writing a 5000-row beam table peaks 0.43 MB
# above it (`benchmarks/ab.py --stage write_json`).
# 2560 is the largest size, in steps of 256, at which a perfbench
# `roundtrip` op's peak stays at its floor of 0.585 MB (its texts and the
# lookup tables) and a 5000-row JSON grid run below the 2.5 tables that
# tests/test_arrays.py allows: 2816 takes them to 0.611 MB and 2.51 tables.
_JSON_MIN_VALUES = 160
_JSON_BLOCK_VALUES = 2560
_JSON_SEP, _JSON_END = ",\n      ", "\x01"


def _words(texts):
    """Byte strings of at most 8 bytes as little-endian uint64 words."""
    return np.array(texts, dtype="S8").view(np.uint64)


@functools.cache
def _powers():
    """`_scale`'s table, built on first use (in about 1.5 ms) from Python
    ints, whose true division rounds correctly.  Per E from _EXP_MIN: a row
    of 2**t and p, the double nearest q = 10**(16 - E) / 2**t, and r, the
    double nearest (q - p) / p, so that p * (1 + r) is within 2**-106 of q,
    relative.  t keeps p from 4.5e14 to 1.1e33 and |x| * 2**t normal."""
    rows, ratios = np.empty((_EXP_MAX - _EXP_MIN + 1, 2)), np.empty(_EXP_MAX - _EXP_MIN + 1)
    ten = 10 ** (16 - _EXP_MIN)  # 10**|n|, held one at a time: the build peaks near 20 KB
    for i, n in enumerate(range(16 - _EXP_MIN, 15 - _EXP_MAX, -1)):  # n = 16 - E
        t = min(max(n * 3322 // 1000 - 53, -1022), 1023)  # 3.322 ~ log2(10)
        num, den = (ten, 1) if n >= 0 else (1, ten)
        num, den = num << max(-t, 0), den << max(t, 0)
        p = num / den
        top, bottom = p.as_integer_ratio()
        rows[i] = 2.0**t, p
        ratios[i] = (num * bottom - top * den) / (top * den)
        ten = ten // 10 if n > 0 else ten * 10
    return rows, ratios


@functools.cache
def _tables():
    """The CSV encoder's lookup tables, built on their first use, so that
    neither an import nor a call that writes only small tables or only JSON
    pays for them: each 4-digit group as the 4 bytes of a uint32, "d." per
    lead digit as a uint16, and per E from _EXP_MIN the slot's last 8 bytes
    as a uint64 (two that the last two digits then overwrite, the exponent
    text and ",")."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digit4 = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
    lead = np.array([f"{d}." for d in range(10)], dtype="S2").view(np.uint16)
    tail = _words([f"\0\0e{e:+03d}".ljust(7, "\0").encode() + b","
                   for e in range(_EXP_MIN, _EXP_MAX + 1)])
    return digit4, lead, tail


@functools.cache
def _json_tables():
    """The JSON encoder's lookup tables, built on their first use; small, as
    a run holds them from its first JSON block on.  Per E from _EXP_MIN:
    the digits after the lead digit that fixed notation from 1 keeps at
    least ("1.0", "100.0"); 17 times the point code, 1 + the digit the
    point follows (the lead digit is digit 0: fixed notation from 1, and
    scientific notation with more than one digit), 0 for none; 22 times
    the prefix kind, -E in fixed notation below 1 ("0." and -E - 1 zeros),
    else 0; the exponent text of scientific notation.  Then the slot heads
    per (prefix kind, sign, lead digit or 10 for D = 1e17); the digits of
    each 2-digit pair, each after a pad byte of 0xff; the masks of the
    eight pairs per (point code, digits kept after the lead): 0xff on each
    digit kept, the point on its pad byte; and the separator words."""
    exps = np.arange(_EXP_MIN, _EXP_MAX + 1)
    fixed = (exps >= -4) & (exps <= 15)
    whole = fixed & (exps >= 0)
    fill = np.where(whole, exps + 1, 0).astype(np.uint8)
    point = np.where(whole, exps + 1, ~fixed).astype(np.uint16) * 17
    prefix = np.where(fixed & (exps < 0), -exps * 22, 0).astype(np.uint8)
    tails = _words([b"" if f else f"e{e:+03d}".encode() for e, f in zip(exps, fixed)])
    heads = _words([(sign + ("0." + "0" * (kind - 1) if kind else "").ljust(5, "\0")
                     + str(d)[0]).encode()
                    for kind in range(5) for sign in ("\0", "-") for d in range(11)])
    pairs = np.full((100, 4), 0xFF, np.uint8)
    pairs[:, 1::2] = np.transpose(np.divmod(np.arange(100), 10)) + ord("0")
    masks = np.zeros((17, 17, 16, 2), np.uint8)  # code, kept, digit, (pad, digit)
    masks[:, :, :, 1] = np.where(np.arange(16) < np.arange(17)[:, None], 0xFF, 0)
    masks[np.arange(1, 17), :, np.arange(16), 0] = ord(".")
    masks[np.arange(17)[:, None] > np.arange(17), :, 0] = 0  # no point before no digit
    masks = masks.reshape(17 * 17, 8, 4).view(np.uint32)[..., 0].T.copy()
    seps = _words([_JSON_SEP.encode(), _JSON_END.encode()])
    return fill, point, prefix, tails, heads, pairs.view(np.uint32).ravel(), masks, seps


def _scale(x):
    """Each |x| scaled to 17 integer digits, for both encoders: the zero
    mask (zeros are read as 1.5, so E = 0), k = E - _EXP_MIN for E =
    floor(log10|x|), as int16, the integer part d of s = |x| * 10**(16 - E),
    in [1e16, 1e17), and s - d, within 2**-44 of the exact product's; and
    the indices where the one correction of E falls short, d outside."""
    a = np.abs(x)
    zero = a == 0.0
    np.putmask(a, zero, 1.5)
    # the sum is positive, so the cast floors it: one too high at most, next
    # to a power of ten, where d reaches 1e17 or stays below 1e16
    k = np.subtract(np.log10(a), _EXP_MIN, out=np.empty(x.size, np.int16), casting="unsafe")
    d, frac = _product(a, k)
    fix = (d - _E16 >= _E17 - _E16).nonzero()[0]  # below 1e16 wraps round
    if fix.size:
        k[fix] += np.where(d[fix] < _E16, -1, 1).astype(np.int16)
        d[fix], frac[fix] = _product(np.abs(x[fix]), k[fix])
        fix = fix[d[fix] - _E16 >= _E17 - _E16]
    return zero, k, d, frac, fix


def _high(v):
    """v's top 26 significant bits, the low 27 of its 52 stored ones cleared."""
    return (v.view(np.uint64) & np.uint64(2**64 - 2**27)).view(np.float64)


def _product(a, k):
    """d and s - d for s = a * 10**(16 - E), overwriting a: Dekker's product
    of a' = a * 2**t (exact) and p (`_powers`), each split into a high half
    of 26 bits and a low half of at most 27 (`_high`).  The four partial
    products less the rounded hi = a' * p, and then hi * r, are summed into
    err largest first; only the last three terms round, so that hi + err is
    within about 2**-101 of s, under 2**-44 for s below 1e17 (2**-47.4 the
    largest measured).  The terms are formed in place, and r taken once p's
    halves are used up, so that the scratch peaks at five arrays of doubles."""
    rows, ratios = _powers()
    # 2**t and p, then a' * p and the low half of p: contiguous, as each is
    # read and written whole
    hi, low = rows[:, 0].take(k), rows[:, 1].take(k)
    a *= hi
    np.multiply(a, low, out=hi)
    high = _high(low)
    low -= high
    ah = _high(a)
    a -= ah  # the low half of a'
    err = np.multiply(ah, high)
    err -= hi
    err += np.multiply(high, a, out=high)
    del high
    err += np.multiply(ah, low, out=ah)
    err += np.multiply(a, low, out=a)
    err += np.multiply(np.take(ratios, k, out=ah, mode="clip"), hi, out=ah)
    np.floor(err, out=a)
    err -= a
    d = hi.astype(np.uint64)
    del hi, low, ah
    d += a.astype(np.int64).view(np.uint64)  # the floor, which may be negative
    return d, err


def _digit_groups(d, width):
    """The lead digit of each 17-digit d, and its other 16 digits in groups
    of `width`, 4 or 2, one row per group: indices into the lookup tables."""
    # `//` by a scalar takes numpy's fast integer division, which `divmod`
    # does not; each remainder is then x - q * divisor
    lead = d // _E16
    groups = (d - lead * _E16)[None]
    while len(groups) < 16 // width:  # each group split in two
        size = 10 ** (8 // len(groups))
        top = groups // size
        split = np.empty((2 * len(groups), d.size), np.min_scalar_type(size))
        split[::2] = top
        top *= size
        np.subtract(groups, top, out=split[1::2], casting="unsafe")
        groups = split
    return lead, groups


def _nearest(x):
    """The digits that `%.16e` writes: (D, k, exact), where D, times 10**(E -
    16) for E = k + _EXP_MIN, is |x| to 17 significant digits (D = 0 and E =
    0 for a zero), and `exact` marks the values this cannot decide, whose D
    is 0 too."""
    zero, k, d, frac = _scale(x)[:4]
    # s = d + frac is within `_BAND` of the exact product: a fraction that
    # close to 1/2 may round either way, and `%` decides it
    frac -= 0.5
    d += frac > 0.0
    exact = np.abs(frac, out=frac) <= _BAND
    del frac
    exact |= d - _E16 >= _E17 - _E16  # a carry to 1e17; below 1e16 wraps round
    np.putmask(d, exact | zero, 0)
    return d, k, exact


def _csv_rows(block):
    """The CSV lines of a 2-D block of rows as bytes, each value as `%.16e`."""
    if block.size < _CSV_MIN_VALUES:  # formatted as bytes, with no text to encode
        rows, width = block.shape
        return ((b"%.16e," * width)[:-1] + b"\n") * rows % tuple(block.ravel().tolist())
    return _csv_slots(block).translate(None, b"\0")


def _csv_slots(block):
    """A `bytearray` of each value of a 2-D block as a 25-byte slot, `\\0`
    where nothing goes: sign, lead digit and point, the other 16 digits,
    exponent, and "," or, after a row's last value, "\\n".  Exact-path
    values hold their `%.16e`.  Each array is dropped once used, as the
    block size is set by the peak memory."""
    digit4, lead_text, tail_text = _tables()
    x = block.ravel()
    d, k, exact = _nearest(x)
    lead, groups = _digit_groups(d, 4)
    del d
    # each field is written as words through an unaligned view of the
    # slots, the tail before the digits, which overwrite its first two bytes;
    # `take` copies a uint64 index array to convert it, but not an int64 one
    slots = bytearray(x.size * _SLOT)  # filled through `out`, and returned without a copy
    out = np.frombuffer(slots, np.uint8).reshape(x.size, _SLOT)
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=out[:, 0])
    out[:, 1:3].view(np.uint16)[:, 0] = lead_text.take(lead.view(np.int64))
    del lead
    out[:, 17:25].view(np.uint64)[:, 0] = tail_text.take(k)
    words = out[:, 3:19].view(np.uint32)
    for i, group in enumerate(groups):
        words[:, i] = digit4.take(group)
    del groups, group
    out.reshape(block.shape[0], -1)[:, -1] = ord("\n")
    idx = exact.nonzero()[0]
    if idx.size:
        exact_text = np.array(["%.16e" % v for v in x[idx].tolist()], dtype="S24")
        out[idx, :24] = exact_text.view(np.uint8).reshape(idx.size, 24)
    return slots


def _shortest(x):
    """The shortest digits that read back as each x, as `float.__repr__`
    picks them: (D, k, m, exact), where D's lead digit and its next m
    digits, times 10**(E - 16) for E = k + _EXP_MIN, are |x| (D = 0 for a
    zero; a rounding carry leaves D = 1e17, whose lead digit 10 stands for
    1, with k already one higher), and `exact` marks the values this
    cannot decide, whose D is 0."""
    zero, k, d, frac, short = _scale(x)
    # Every decimal within half the gap to each neighbouring double reads
    # back as x: scaled like s = d + frac, the integers from s - half to
    # s + half.  The digits are the one of those with the most trailing
    # zeros, the nearest to s if several have as many.  Undecided: a
    # subnormal or the smallest normal, whose gaps are not scaled like this.
    a = np.abs(x)
    m, _ = np.frexp(a)
    np.putmask(m, zero, 0.75)  # `_scale` reads a zero as 1.5
    exact = (a <= _TINY) ^ zero
    exact[short] = True
    # a power of two: the gap below is half the gap above; taken here is
    # the narrower interval, s -+ half the gap below
    two = (m == 0.5).nonzero()[0]
    m[two] = 1.0
    half = np.divide(d, m, out=m)
    half *= 2.0**-54
    # t: s less the multiple of 100 at or below it, which d becomes; as
    # half is 11.1 at most, one multiple of 100 at most lies within it
    low = d % 100
    d -= low
    t = frac
    t += low
    # the distances from t to the nearest multiple of 10 and of 100
    near = t * _TENTHS
    near -= np.rint(near)
    np.abs(near, out=near)
    near *= _TENS
    inside = near <= half
    if two.size:  # undecided: one that the wider interval may take in too
        wide = near[:, two] - half[two]
        exact[two] |= ((wide > 0.0) & (wide < half[two] + _BAND)).any(axis=0)
    # undecided: an interval end within the band of one of them, which it
    # may or may not include
    near -= half
    np.abs(near, out=near)
    np.minimum(near[0], near[1], out=near[0])
    # j = 0, 1 or 2 and more trailing zeros: the nearest multiple of 10**j,
    # and a tie between two of them
    j = inside[0].view(np.uint8) + inside[1]
    p = _P10.take(j)
    r = np.divide(t, p, out=near[1])
    np.rint(r, out=r)
    r *= p
    t -= r
    np.abs(t, out=t)
    p *= 0.5
    p -= t
    np.minimum(near[0], p, out=p)
    exact |= p < _BAND
    d += r.astype(np.uint64)
    # the zeros past those of a multiple of 100, where there are more
    live = inside[1].nonzero()[0]
    live = live[d[live] % 1000 == 0]
    if live.size:
        j[live] += np.add.reduce(d[live, None] % _P10_PAST == 0, axis=1, dtype=np.uint8)
    np.putmask(d, exact | zero, 0)
    k += d == _E17
    return d, k, 16 - j, exact


def _json_slots(x, first, rows):
    """A `bytearray` of each value of a 1-D block as 56 bytes (7 words),
    `\\0` where nothing goes: sign, "0.000"-style prefix and lead digit;
    the other 16 digits, each after a pad byte for a point, of which the
    first `kept` are written (those of `float.__repr__` after its lead
    digit, to at least digit E + 1 in fixed notation from 1); the exponent;
    the separator, `_JSON_END` for the values from `first` on in steps of
    `rows`.  Exact-path values hold their `repr`."""
    fill, point, prefix, tails, heads, pair_text, masks, seps = _json_tables()
    d, k, kept, exact = _shortest(x)
    lead, pairs = _digit_groups(d, 2)
    head = heads.take(prefix.take(k) + np.signbit(x) * np.uint8(11) + lead)
    del d, lead  # as the block size is set by the peak memory
    np.maximum(kept, fill.take(k), out=kept)
    words = pair_text.take(pairs)
    del pairs
    words &= masks.take(point.take(k) + kept, axis=1)
    slots = bytearray(x.size * 56)  # filled through `out`, and returned without a copy
    out = np.frombuffer(slots, np.uint64).reshape(x.size, 7)
    out[:, 0] = head
    out.view(np.uint32)[:, 2:10] = words.T
    del head, words
    out[:, 5] = tails.take(k)
    out[:, 6] = seps[0]
    out[first::rows, 6] = seps[1]
    idx = exact.nonzero()[0]
    if idx.size:
        exact_text = np.array([repr(v) for v in x[idx].tolist()], dtype="S48")
        out.view(np.uint8)[idx, :48] = exact_text.view(np.uint8).reshape(idx.size, 48)
    return slots


def _json_values(x, first, rows):
    """The JSON text of a 1-D block of values as bytes, each as
    `float.__repr__` writes it and followed by `_JSON_SEP`, or by
    `_JSON_END` for the values from `first` on in steps of `rows`."""
    if x.size < _JSON_MIN_VALUES or not _JSON_ARRAYS:
        text = [_JSON_SEP] * (2 * x.size)  # each value, then its separator
        text[::2] = map(float.__repr__, x.tolist())
        text[2 * first + 1::2 * rows] = [_JSON_END] * len(range(first, x.size, rows))
        return "".join(text).encode()
    # copied out of the bytearray: the writer splits the block at its column
    # ends, which takes `bytearray.split` twice as long as `bytes.split`
    return bytes(_json_slots(x, first, rows).translate(None, b"\0"))


def _converter(fh):
    """What the writers' bytes are given to the file `fh` as: the bytes to a
    binary file, and to a text one (an `io.TextIOBase`) their text, which
    it encodes again.  Each block is converted before it is written, so
    that its bytes are freed first."""
    if isinstance(fh, io.TextIOBase):
        return lambda data: data.decode()
    return lambda data: data


def _filled(shape, columns):
    """A new array of `shape`, (rows, len(columns)), whose column j holds
    `columns[j]`: `rows` values, or one."""
    block = np.empty(shape)
    out = block.T  # a row index takes 0.6 us less per 11 columns than block[:, j]
    for j, column in enumerate(columns):
        out[j] = column
    return block


def _constant(column):
    """Whether every value of `column` has the bits of its first; only a
    column whose ends agree is compared in full."""
    bits = column.view(np.uint64)
    return bool(bits[-1] == bits[0]) and bool((bits[1:] == bits[0]).all())


class ResultTable:
    """Named, unit-labelled float columns, with a metadata dict.
    A non-finite value raises NumericalGuardError with its row in `.row`.

    `ResultTable(columns, units, data)` takes a 2-D array, a row per grid
    point and a column per name, and holds the rows of its transpose, not
    copied (`_from_columns` sets out the layouts).  `data` is a new (rows,
    columns) array on each read: writing into it leaves the table as it
    is, and it cannot be assigned, so read it once and reuse it."""

    __slots__ = ("columns", "units", "metadata", "_values", "_rows")

    def __init__(self, columns, units, data, metadata=None):
        data = np.asarray(data, dtype=float)
        self._hold(columns, units, data, len(data) if data.ndim else 0, metadata)

    @classmethod
    def _from_columns(cls, columns, units, values, metadata=None):
        """A table of `values`, one per column, each a 1-D float64 array or
        a number, a float (np.float64 is one).  The row count is the first
        array's length, 1 where every value is a number, and each layout
        keeps what one kind of run costs:
          * more rows: each array is held as it is, not copied, and a number
            as a zero-stride view of one float64 (a sixth of the time of
            `np.broadcast_to`), so no (rows, columns) matrix is built;
          * one row: the values, numbers or 1-element arrays, are held as
            the rows of one (columns, 1) array, checked by its shape and
            finite in one call, whose blocks are views (`_block`; a fill
            took 11 us more of a 90-140 us call).  A 1-row CLI call is
            perfbench's `small` op: held as a 1-element array per column,
            its peak_heap_mb went from 0.0141 to 0.0153 MB, and checked a
            column at a time, its call_p50_ms rose 13% (6 pairs)."""
        rows = min(len(values), 1)
        for value in values:
            if not isinstance(value, float):  # half the time of testing for an array
                rows = np.size(value)
                break
        if rows == 1:
            values = _filled((1, len(values)), values)
        else:
            values = [np.ndarray((rows,), float, np.float64(v), strides=(0,))
                      if isinstance(v, float) else np.asarray(v, dtype=float) for v in values]
        table = cls.__new__(cls)
        table._hold(columns, units, values, rows, metadata)
        return table

    def _hold(self, columns, units, values, rows, metadata):
        """Hold `values`, a (rows, columns) array (as its transpose) or a list
        of 1-D arrays of `rows` values, once its names, shapes and values pass."""
        if len(columns) != len(units):
            raise ValueError("columns and units must have the same length")
        if len(set(columns)) < len(columns):
            name = next(c for i, c in enumerate(columns) if c in columns[:i])
            raise ValueError(f"duplicate column {name!r}")
        finite = False
        if isinstance(values, np.ndarray):
            if values.ndim != 2 or values.shape[1] != len(columns):
                raise ValueError(
                    f"data of shape {values.shape} does not match {len(columns)} columns")
            finite = np.count_nonzero(np.isfinite(values)) == values.size  # in one call
            values = values.T
        elif len(values) != len(columns) or any(v.shape != (rows,) for v in values):
            shapes = [v.shape for v in values]
            raise ValueError(f"columns of shapes {shapes} do not match {len(columns)} columns")
        if not finite:
            # a column at a time; the error names the first non-finite value
            # in row-major order, which the CLI labels by its row
            bad = [(int(np.argmin(ok)), j) for j, ok in enumerate(map(np.isfinite, values))
                   if np.count_nonzero(ok) < rows]
            if bad:
                i, j = min(bad)
                raise NumericalGuardError(
                    f"non-finite value {float(values[j][i])!r} in column {columns[j]!r}", row=i)
        self.columns, self.units, self._values, self._rows = columns, units, values, rows
        self.metadata = {} if metadata is None else metadata

    @property
    def data(self):
        """The values as a new (rows, columns) array."""
        block = self._block(0, self._rows)
        return block.copy() if isinstance(self._values, np.ndarray) else block

    def _block(self, start, stop):
        """Rows `start:stop` as a (rows, columns) array: a view where the
        columns are the rows of one 2-D array, else a new array filled a
        column slice at a time.  For 512 rows of ten columns the fill took
        14 us, np.array of the slices then a transposed copy 12 (but it
        holds a view per column at once), and the ravel of a slice of one
        (columns, rows) matrix 5.6 (best of 9 x 500 calls, 2-CPU AMD EPYC
        VM; `BENCH_32.json`)."""
        if isinstance(self._values, np.ndarray):
            return self._values[:, start:stop].T
        return _filled((len(range(start, min(stop, self._rows))), len(self.columns)),
                       (column[start:stop] for column in self._values))

    def _column(self, name):
        """The values of the column `name`, as the table holds them."""
        return self._values[self.columns.index(name)]

    def write_csv(self, fh):
        """Write the CSV text to the file `fh`, text or binary
        (`_converter`), a block of rows (`_block`) at a time."""
        convert = _converter(fh)
        fh.write(convert(f"{','.join(self.columns)}\n{','.join(self.units)}\n".encode()))
        for start in range(0, self._rows, _CSV_BLOCK_ROWS):
            fh.write(convert(_csv_rows(self._block(start, start + _CSV_BLOCK_ROWS))))

    def write_json(self, fh):
        """Write the JSON text to the file `fh`, text or binary
        (`_converter`), a block of values at a time.  The blocks are slices
        of the columns, copied only where one spans a column end, so the
        writer holds the table and one encoder block (about 120 bytes per
        value).  With two rows or more, a column whose values all have the
        same bits is written as its one value's `repr`, repeated a block of
        values at a time, and only the other columns are encoded; the writer
        still holds at most one block."""
        # json.dumps with an indent runs its pure-Python encoder over every
        # value, so the data columns, and the columns and units lists, are
        # written here in that encoder's layout, each string by the C one;
        # the metadata keeps json.dumps for key order and nesting
        import json  # here only: a CSV run never loads it

        convert = _converter(fh)

        def own(text):  # `text` as what `fh` is given
            return convert(text.encode())

        sep, end = own(_JSON_SEP), own(_JSON_END)

        def nested(obj):
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n  ")

        def strings(texts):
            return "[\n    " + ",\n    ".join(map(json.dumps, texts)) + "\n  ]" if texts else "[]"

        order = sorted(range(len(self.columns)), key=self.columns.__getitem__)
        names = [json.dumps(self.columns[j]) for j in order]
        rows, values = self._rows, self._values
        fh.write(own(f'{{\n  "columns": {strings(self.columns)},\n  "data": '))
        if not (rows and self.columns):  # no columns, or empty ones, as json.dumps writes them
            fh.write(own(nested(dict.fromkeys(self.columns, []))))
        else:
            heads = [own(f"{{\n    {names[0]}: [\n      "),
                     *[own(f"\n    ],\n    {name}: [\n      ") for name in names[1:]],
                     own("\n    ]\n  }")]
            # a column of one value, to the bit (-0.0 is not 0.0), is its
            # text repeated, a block at a time; the others are encoded
            same = [rows > 1 and _constant(column) for column in values]
            varying = [j for j in order if not same[j]]

            def gaps():
                # on each next(): the text up to the next varying column's
                # first value, or to the end, with the constant columns between
                fh.write(heads[0])
                for k, j in enumerate(order):
                    if same[j]:
                        value = own(float.__repr__(float(values[j][0])))
                        fh.write(value)
                        for left in range(rows - 1, 0, -_JSON_BLOCK_VALUES):
                            fh.write((sep + value) * min(left, _JSON_BLOCK_VALUES))
                    else:
                        yield
                    fh.write(heads[k + 1])

            gap = gaps()
            next(gap, None)
            # the varying columns, end to end; `_JSON_END` after each one's
            # last value is where the next gap goes
            size = rows * len(varying)
            for start in range(0, size, _JSON_BLOCK_VALUES):
                stop = min(start + _JSON_BLOCK_VALUES, size)
                parts = [values[varying[k]][max(start - k * rows, 0):stop - k * rows]
                         for k in range(start // rows, (stop - 1) // rows + 1)]
                block = parts[0] if len(parts) == 1 else np.concatenate(parts)
                # the block's first column end is value (-start - 1) % rows
                text, *rest = convert(_json_values(block, (-start - 1) % rows, rows)).split(end)
                fh.write(text)
                for piece in rest:
                    next(gap, None)
                    fh.write(piece)
        fh.write(own(f',\n  "metadata": {nested(self.metadata)},\n'
                     f'  "units": {strings(self.units)}\n}}\n'))

    def to_json(self):
        """The JSON text as a string, kept for the reruns that compare it
        with their source text (`rerun_from_json`'s round trip).  Its peak
        holds the text twice, the `StringIO` buffer and `getvalue()`'s copy
        (2.92 MB for the 1.45 MB of a 5000-row beam table), so write a large
        table with `write_json`."""
        fh = io.StringIO()
        self.write_json(fh)
        return fh.getvalue()
