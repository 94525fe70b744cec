"""Tabular result container with lossless CSV and JSON serialization.

The values are one 2-D float array, a row per grid point and a column per
quantity; column names are unique.  CSV layout: header row, units row, then
data rows with every value as `%.16e` (17 significant digits), so doubles
round-trip exactly.  JSON holds `columns`, `units`, `data` (one array per
column, keyed by name) and the metadata object (constants version,
convention flags, and the resolved run configuration for reproducibility),
with sorted keys, a 2-space indent and one value per line: the text of
`json.dumps(payload, indent=2, sort_keys=True)`.  Values are written as
Python's shortest round-trip `repr`, so they too read back exactly.
`write_csv(fh)` / `write_json(fh)` write each format to a text file a block
at a time; `to_json()` is the JSON writer into a `StringIO`.

CSV rows are encoded as arrays, `_CSV_BLOCK_ROWS` rows at a time, into the
bytes `%.16e` writes.  Each nonzero |x| is scaled in long double,
s = |x| * 10**(16 - E), with E = floor(log10|x|) corrected once near powers
of ten.  Its 17 digits, D = s rounded to the nearest integer, are read from
a 4-digit lookup table into a fixed 25-byte slot per value, whose pad bytes
are deleted afterwards.  Each power 10**k is rounded once from its decimal
string, so s is at most two roundings of half an ulp, s * eps in all, from
the exact product.  A value whose s has a fraction that close to 1/2
(exact ties included), or whose D falls outside [1e16, 1e17), takes the
exact path: Python's `"%.16e" % x`.  So does every block of fewer than
`_CSV_MIN_VALUES` values, and every block where long double is neither
80-bit extended nor IEEE quad.

JSON data values are encoded the same way, the sorted columns end to end in
blocks of `_JSON_BLOCK_VALUES`, into the bytes of `float.__repr__`: the
shortest digits that read back as the value, the nearest to it if several
are as short, in fixed notation for E in -4..15 and as `1e-05`/`1.5e+16`
outside.  Every decimal within half the gap to each neighbouring double
reads back as x; scaled like s, the candidates are the integers in that
interval.  The one with the most trailing zeros sets the digit count, and
the multiple of that power of ten nearest to s within the interval gives
the digits.  A value takes the exact path, `float.__repr__`, where an end
of the interval lies within s * eps of a multiple of ten, or s within it of
a rounding tie, or where |x| is subnormal or the smallest normal; so do
blocks of fewer than `_JSON_MIN_VALUES` values, and every block where long
double is too narrow or the byte order big-endian.  A marker byte after
each column's last value is where the text is cut into columns.  A column
of one value in every row, to the bit (a column of 0.0 with one -0.0
varies), in a table of two rows or more, is not encoded: its `repr` is
written repeated, `_JSON_BLOCK_VALUES` values at a time, between the other
columns, so the writer still holds at most one block.
"""

import functools
import io
import sys

import numpy as np

from .errors import NumericalGuardError

_CSV_BLOCK_ROWS = 256
# Smaller blocks are formatted by `%`: numpy's fixed cost per block, 35-100
# us, outweighs about 1 us per `%` value (measured on a 2 GHz Xeon).  So is
# every block where the scaling lacks a 64-bit (x87) or 113-bit (IEEE quad)
# long double significand.
_CSV_MIN_VALUES = 150
_WIDE_LONG_DOUBLE = np.finfo(np.longdouble).nmant in (63, 112)
# the JSON slot words are put together by shifts, in little-endian order
_JSON_ARRAYS = _WIDE_LONG_DOUBLE and sys.byteorder == "little"
# two roundings of at most half an ulp each, widened for the float64 product
_BAND = 1.01 * float(np.finfo(np.longdouble).eps)
# E spans -324 (5e-324) to 308, one more each way before its correction
_EXP_MIN, _EXP_MAX = -325, 309
_POW_MIN = 16 - _EXP_MAX
_SLOT = np.dtype({"names": ["sign", "lead", "digits", "exp", "sep"],
                  "formats": ["u1", "S2", "(4,)u4", "S5", "u1"]})
_E8, _E16, _E17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)
_E4 = np.uint32(10**4)
_P10 = 10 ** np.arange(17, dtype=np.uint64)
_DIGIT4_START = np.arange(0, 16, 4)
_TINY = np.finfo(float).tiny  # the smallest normal double, 2**-1022
# The JSON encoder's fixed cost per block is about 170 us and its cost per
# value about 0.2 us, against 0.65 us per value for `repr` (measured on a
# 2.1 GHz Xeon), so smaller blocks are written by `repr`.  The block size
# bounds the encoder's memory, about 300 bytes per value: writing a 5000-row
# table to a file peaks 0.314 MB above it (benchmarks/test_serialization.py).
_JSON_MIN_VALUES = 400
_JSON_BLOCK_VALUES = 1024
_JSON_SEP, _JSON_END = ",\n      ", "\x01"


@functools.cache
def _tables():
    """The encoders' lookup tables, built on their first use, so that neither
    an import nor a call that writes only small tables pays for them:
    10**k in long double from k = _POW_MIN, each 4-digit group as the 4
    bytes of a uint32, "d." per lead digit, and the exponent text from
    E = _EXP_MIN; then the JSON slot words (see `_json_slots`): sign,
    "0.000"-style prefix and lead digit per (prefix, sign, lead), the masks
    that keep the first 0-4 digits of a group, the exponent text per E from
    _EXP_MIN then an empty one, and the separator then the column end."""
    # parsed from decimal strings: `np.longdouble(10) ** k` is off by more
    # than half an ulp for some k
    pow10 = np.array([f"1e{k}" for k in range(_POW_MIN, 17 - _EXP_MIN)], dtype=np.longdouble)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digit4 = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
    lead = np.array([f"{d}." for d in range(10)], dtype="S2")
    exp = np.array([f"e{e:+03d}" for e in range(_EXP_MIN, _EXP_MAX + 1)], dtype="S5")
    heads = np.array([(sign + prefix.ljust(5, "\0") + str(d)).encode()
                      for prefix in ("", "0.", "0.0", "0.00", "0.000")
                      for sign in ("\0", "-") for d in range(10)], dtype="S8")
    masks = np.array([(1 << 8 * cut) - 1 for cut in range(5)], dtype=np.uint32)
    tails = np.append(exp, b"").astype("S8")
    seps = np.array([_JSON_SEP, _JSON_END], dtype="S8")
    return (pow10, digit4, lead, exp,
            heads.view(np.uint64), masks, tails.view(np.uint64), seps.view(np.uint64))


def _scale(x):
    """Each |x| scaled to 17 integer digits, for both encoders: returns |x|
    (zeros read as 1.0), the zero mask, E = floor(log10|x|), the integer
    part d of s = |x| * 10**(16 - E) in long double, in [1e16, 1e17) unless
    the one correction of E falls short, and s - d as float64."""
    pow10 = _tables()[0]

    def scaled(a, e):
        s = a.astype(np.longdouble) * pow10[16 - _POW_MIN - e]
        return s, s.astype(np.uint64)

    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s, d = scaled(a, e)
    fix = np.flatnonzero((d < _E16) | (d >= _E17))
    if fix.size:
        e[fix] += np.where(d[fix] < _E16, -1, 1)
        s[fix], d[fix] = scaled(a[fix], e[fix])
    return a, zero, e, d, (s - d.astype(np.longdouble)).astype(np.float64)


def _digit_groups(d):
    """The lead digit of each 17-digit d, and its other 16 digits as four
    4-digit groups, both as indices into the lookup tables."""
    # `//` by a scalar takes numpy's fast integer division, which `divmod`
    # does not; each remainder is then x - q * divisor, in uint32 below 1e8
    lead = d // _E16
    rest = d - lead * _E16
    halves = np.empty((d.size, 2), np.uint32)  # the first and last 8 of the 16 digits
    halves[:, 0] = hi = rest // _E8
    halves[:, 1] = rest - hi * _E8
    top = halves // _E4
    groups = np.empty((d.size, 4), np.intp)
    groups[:, ::2] = top
    groups[:, 1::2] = halves - top * _E4
    return lead.astype(np.intp), groups


def _csv_rows(block):
    """The CSV lines of a 2-D block of rows, each value as `%.16e`."""
    rows, cols = block.shape
    if block.size < _CSV_MIN_VALUES or not _WIDE_LONG_DOUBLE:
        fmt = ",".join(["%.16e"] * cols) + "\n"
        return "".join([fmt % tuple(row) for row in block.tolist()])
    _, digit4, lead_text, exp_text, *_ = _tables()
    x = block.ravel()
    _, zero, e, d, frac = _scale(x)
    exact = np.abs(frac - 0.5) <= d * _BAND
    d += frac > 0.5
    exact |= (d < _E16) | (d >= _E17)
    exact &= ~zero
    # zeros print as 0.0000000000000000e+00 (`_scale` reads them as 1.0, so
    # E = 0); the exact path overwrites its slots, and D = 0 keeps their
    # lead digit in the table
    d[exact | zero] = 0

    out = np.empty(x.size, _SLOT)
    out["sign"] = np.signbit(x) * ord("-")
    lead, groups = _digit_groups(d)
    out["lead"] = lead_text[lead]
    out["digits"] = digit4[groups]
    out["exp"] = exp_text[e - _EXP_MIN]
    out["sep"] = ord(",")
    out.reshape(rows, cols)["sep"][:, -1] = ord("\n")
    text = out.view(np.uint8).reshape(x.size, _SLOT.itemsize)
    idx = np.flatnonzero(exact)
    if idx.size:
        exact_text = np.array(["%.16e" % v for v in x[idx].tolist()], dtype="S24")
        text[idx, :24] = exact_text.view(np.uint8).reshape(idx.size, 24)
    return text.tobytes().translate(None, b"\0").decode()


def _shortest(x):
    """The shortest digits that read back as each x, as `float.__repr__`
    picks them: (D, E, n, exact), where the first n of D's 17 digits times
    10**(E - 16) is |x| (D = 0 for a zero), and `exact` marks the values
    this cannot decide."""
    a, zero, e, d, frac = _scale(x)
    # Every decimal within half the gap to each neighbouring double reads
    # back as x: scaled like s = d + frac, the integers from s - below up to
    # s + above (top - width to top).  The digits are the one of those with
    # the most trailing zeros, the nearest to s if several have as many.
    # Past a power of two the gap above is twice the gap below.
    band = d * _BAND
    below = d * ((a - np.nextafter(a, 0.0)) / a) * 0.5
    upper, lower = frac + below + below * (np.frexp(a)[0] == 0.5), frac - below
    # undecided: a subnormal or the smallest normal (its gaps are not
    # scaled like this), and an interval end within the band of a multiple
    # of ten, which it may or may not include
    exact = (a <= _TINY) | (d < _E16) | (d >= _E17)
    tens = ((d % np.uint64(10)).astype(np.float64) + np.stack([upper, lower])) * 0.1
    tens -= np.rint(tens)
    exact |= (np.abs(tens) <= band * 0.1).any(axis=0)
    upper = np.floor(upper)
    top = d + upper.astype(np.uint64)
    width = (upper - np.ceil(lower)).astype(np.uint64)
    # j trailing digits drop where top % 10**j <= width; the width is below
    # 100, so j >= 2 needs top % 100 <= width and then j - 2 zeros in top // 100
    j = (top % np.uint64(10) <= width).astype(np.intp)
    live = np.flatnonzero(top % np.uint64(100) <= width)
    rest = (top[live] // np.uint64(100))[:, None]
    j[live] = 2 + np.count_nonzero(rest % _P10[1:15] == 0, axis=1)
    p = _P10[j]
    r = d % p
    low = r + frac  # s less the multiple of 10**j below it
    exact |= np.abs(low - p * 0.5) <= band  # a tie between two multiples
    # up to the multiple above where it is nearer, or where the one below
    # lies past a power of two's narrower gap
    d += ((low > p * 0.5) | (low > below)) * p - r  # in uint64, - r wraps and d wraps back
    carry = d == _E17
    d[carry] = _E16
    e[carry] += 1
    d[exact | zero] = 0
    return d, e, 17 - j, exact


def _json_slots(x, first, rows):
    """Each value of a 1-D block as 56 bytes, `\\0` where nothing goes:
    sign, prefix and lead digit; the other 16 digits in groups of 4, a pad
    byte after each; the exponent; the separator, `_JSON_END` for the
    values from `first` on in steps of `rows`.  Of the 16 digits, the first
    `kept` are written, and a point in the pad byte after digit `e` (fixed
    notation, |x| >= 1 or zero) or after the lead digit (scientific notation
    with more than one digit).  Exact-path values hold their `repr`."""
    _, digit4, _, _, heads, masks, tails, seps = _tables()
    d, e, n, exact = _shortest(x)
    sci = (e < -4) | (e > 15)
    point = ~sci & (e >= 0)
    kept = np.where(point, np.maximum(n, e + 2), n) - 1  # "1.0" keeps a zero
    out = np.empty((x.size, 7), np.uint64)
    lead, group = _digit_groups(d)
    prefix = np.where(sci | point, 0, -e)  # "0." and -e - 1 zeros below 1 in fixed notation
    out[:, 0] = heads[(prefix * 2 + np.signbit(x)) * 10 + lead]
    # each 4-digit group cut to the digits kept, then its bytes spread to
    # every other byte of a word (little-endian); in place, as a block's
    # size is set by its peak memory
    group = digit4[group]
    cut = kept[:, None] - _DIGIT4_START
    group &= masks[np.clip(cut, 0, 4, out=cut)]
    group = group.astype(np.uint64)
    group |= group << np.uint64(16)
    group &= np.uint64(0x0000FFFF0000FFFF)
    group |= group << np.uint64(8)
    out[:, 1:5] = group & np.uint64(0x00FF00FF00FF00FF)
    out[:, 5] = tails[np.where(sci, e - _EXP_MIN, -1)]
    out[:, 6] = seps[0]
    out[first::rows, 6] = seps[1]
    text = out.view(np.uint8)
    # the pad byte after digit k (the lead digit is digit 0) is byte 7 + 2k
    dotted = np.flatnonzero(point | sci & (n > 1))
    text.reshape(-1)[dotted * text.shape[1] + 7 + 2 * np.where(point, e, 0)[dotted]] = ord(".")
    idx = np.flatnonzero(exact)
    if idx.size:
        exact_text = np.array([repr(v) for v in x[idx].tolist()], dtype="S48")
        text[idx, :48] = exact_text.view(np.uint8).reshape(idx.size, 48)
    return text


def _json_values(x, first, rows):
    """The JSON text of a 1-D block of values, each as `float.__repr__`
    writes it and followed by `_JSON_SEP`, or by `_JSON_END` for the values
    from `first` on in steps of `rows`."""
    if x.size < _JSON_MIN_VALUES or not _JSON_ARRAYS:
        text = [_JSON_SEP] * (2 * x.size)  # each value, then its separator
        text[::2] = map(float.__repr__, x.tolist())
        text[2 * first + 1::2 * rows] = [_JSON_END] * len(range(first, x.size, rows))
        return "".join(text)
    # the slots are freed once copied out, before their pad bytes go
    return _json_slots(x, first, rows).tobytes().translate(None, b"\0").decode()


class ResultTable:
    """Named, unit-labelled columns of a 2-D float array, with a metadata dict.
    A non-finite value raises NumericalGuardError with its row in `.row`."""

    __slots__ = ("columns", "units", "data", "metadata")

    def __init__(self, columns, units, data, metadata=None):
        if len(columns) != len(units):
            raise ValueError("columns and units must have the same length")
        if len(set(columns)) < len(columns):
            name = next(c for i, c in enumerate(columns) if c in columns[:i])
            raise ValueError(f"duplicate column {name!r}")
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(columns):
            raise ValueError(f"data of shape {data.shape} does not match {len(columns)} columns")
        finite = np.isfinite(data)
        if np.count_nonzero(finite) < data.size:
            i, j = np.argwhere(~finite)[0]  # the first in row-major order
            raise NumericalGuardError(
                f"non-finite value {float(data[i, j])!r} in column {columns[j]!r}", row=int(i))
        self.columns, self.units, self.data = columns, units, data
        self.metadata = {} if metadata is None else metadata

    def write_csv(self, fh):
        """Write the CSV text to the text file `fh`, a block of rows at a time."""
        fh.write(f"{','.join(self.columns)}\n{','.join(self.units)}\n")
        for i in range(0, len(self.data), _CSV_BLOCK_ROWS):
            fh.write(_csv_rows(self.data[i:i + _CSV_BLOCK_ROWS]))

    def write_json(self, fh):
        """Write the JSON text to the text file `fh`, a block of values at a
        time.  The blocks are views of `self.data`, copied only where one
        spans a column end, so the writer holds the table and one encoder
        block (about 300 bytes per value).  With two rows or more, a column
        whose values all have the same bits is written as its one value's
        `repr`, repeated a block of values at a time, and only the other
        columns are encoded; the writer still holds at most one block."""
        # json.dumps with an indent runs its pure-Python encoder over every
        # float, so the data columns are written here in that encoder's
        # layout; the small parts keep json.dumps for escaping and key order
        import json  # here only: a CSV run never loads it

        def nested(obj):
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n  ")

        order = sorted(range(len(self.columns)), key=self.columns.__getitem__)
        names = [json.dumps(self.columns[j]) for j in order]
        rows = len(self.data)
        fh.write(f'{{\n  "columns": {nested(self.columns)},\n  "data": ')
        if not self.data.size:  # no columns, or empty ones, as json.dumps writes them
            fh.write(nested(dict.fromkeys(self.columns, [])))
        else:
            heads = [f"{{\n    {names[0]}: [\n      ",
                     *[f"\n    ],\n    {name}: [\n      " for name in names[1:]],
                     "\n    ]\n  }"]
            # a column of one value, to the bit (-0.0 is not 0.0), is its
            # text repeated, a block at a time; the others are encoded.  Only
            # the columns whose ends agree are compared in full.
            bits = self.data.view(np.uint64)
            same = (bits[-1] == bits[0]) & (rows > 1)
            same[same] = (bits[1:, same] == bits[0, same]).all(axis=0)
            varying = [j for j in order if not same[j]]

            def gaps():
                # on each next(): the text up to the next varying column's
                # first value, or to the end, with the constant columns between
                fh.write(heads[0])
                for k, j in enumerate(order):
                    if same[j]:
                        value = float.__repr__(float(self.data[0, j]))
                        fh.write(value)
                        for left in range(rows - 1, 0, -_JSON_BLOCK_VALUES):
                            fh.write((_JSON_SEP + value) * min(left, _JSON_BLOCK_VALUES))
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
                parts = [self.data[max(start - k * rows, 0):stop - k * rows, varying[k]]
                         for k in range(start // rows, (stop - 1) // rows + 1)]
                block = parts[0] if len(parts) == 1 else np.concatenate(parts)
                # the block's first column end is value (-start - 1) % rows
                text, *rest = _json_values(block, (-start - 1) % rows, rows).split(_JSON_END)
                fh.write(text)
                for piece in rest:
                    next(gap, None)
                    fh.write(piece)
        fh.write(f',\n  "metadata": {nested(self.metadata)},\n'
                 f'  "units": {nested(self.units)}\n}}\n')

    def to_json(self):
        """The JSON text as a string, kept for the reruns that compare it
        with their source text (`rerun_from_json`'s round trip).  Its peak
        holds the text twice, the `StringIO` buffer and `getvalue()`'s copy
        (2.92 MB for the 1.45 MB of a 5000-row beam table), so write a large
        table with `write_json`."""
        fh = io.StringIO()
        self.write_json(fh)
        return fh.getvalue()
