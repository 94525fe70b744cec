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
"""

import functools
import json
from dataclasses import dataclass, field

import numpy as np

_CSV_BLOCK_ROWS = 256
# Smaller blocks are formatted by `%`: numpy's fixed cost per block, 35-100
# us, outweighs about 1 us per `%` value (measured on a 2 GHz Xeon).  So is
# every block where the scaling lacks a 64-bit (x87) or 113-bit (IEEE quad)
# long double significand.
_CSV_MIN_VALUES = 150
_WIDE_LONG_DOUBLE = np.finfo(np.longdouble).nmant in (63, 112)
# two roundings of at most half an ulp each, widened for the float64 product
_BAND = 1.01 * float(np.finfo(np.longdouble).eps)
# E spans -324 (5e-324) to 308, one more each way before its correction
_EXP_MIN, _EXP_MAX = -325, 309
_POW_MIN = 16 - _EXP_MAX
_SLOT = np.dtype({"names": ["sign", "lead", "d0", "d1", "d2", "d3", "exp", "sep"],
                  "formats": ["u1", "S2", "u4", "u4", "u4", "u4", "S5", "u1"]})
_E8, _E16, _E17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)


@functools.cache
def _tables():
    """The encoder's lookup tables, built on its first use, so that neither
    an import nor a call that writes only small tables pays for them:
    10**k in long double from k = _POW_MIN, each 4-digit group as the 4
    bytes of a uint32, "d." per lead digit, and the exponent text from
    E = _EXP_MIN."""
    # parsed from decimal strings: `np.longdouble(10) ** k` is off by more
    # than half an ulp for some k
    pow10 = np.array([f"1e{k}" for k in range(_POW_MIN, 17 - _EXP_MIN)], dtype=np.longdouble)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digit4 = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
    lead = np.array([f"{d}." for d in range(10)], dtype="S2")
    exp = np.array([f"e{e:+03d}" for e in range(_EXP_MIN, _EXP_MAX + 1)], dtype="S5")
    return pow10, digit4, lead, exp


def _scaled(a, e, pow10):
    """|x| * 10**(16 - e) in long double, and its integer part."""
    s = a.astype(np.longdouble) * pow10[16 - _POW_MIN - e]
    return s, s.astype(np.uint64)


def _csv_rows(block):
    """The CSV lines of a 2-D block of rows, each value as `%.16e`."""
    rows, cols = block.shape
    if block.size < _CSV_MIN_VALUES or not _WIDE_LONG_DOUBLE:
        fmt = ",".join(["%.16e"] * cols) + "\n"
        return "".join([fmt % tuple(row) for row in block.tolist()])
    pow10, digit4, lead_text, exp_text = _tables()
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s, d = _scaled(a, e, pow10)
    fix = np.flatnonzero((d < _E16) | (d >= _E17))
    if fix.size:
        e[fix] += np.where(d[fix] < _E16, -1, 1)
        s[fix], d[fix] = _scaled(a[fix], e[fix], pow10)
    frac = (s - d.astype(np.longdouble)).astype(np.float64)
    exact = np.abs(frac - 0.5) <= d * _BAND
    d += frac > 0.5
    exact |= (d < _E16) | (d >= _E17)
    exact &= ~zero
    # zeros print as 0.0000000000000000e+00; the exact path overwrites its
    # slots, and D = 0 keeps their lead digit in the table
    d[exact | zero] = 0
    e[zero] = 0

    out = np.empty(x.size, _SLOT)
    out["sign"] = np.signbit(x) * ord("-")
    lead, d = np.divmod(d, _E16)
    hi, lo = np.divmod(d, _E8)
    hi, lo = hi.astype(np.intp), lo.astype(np.intp)
    out["lead"] = lead_text[lead]
    out["d0"] = digit4[hi // 10000]
    out["d1"] = digit4[hi % 10000]
    out["d2"] = digit4[lo // 10000]
    out["d3"] = digit4[lo % 10000]
    out["exp"] = exp_text[e - _EXP_MIN]
    out["sep"] = ord(",")
    out.reshape(rows, cols)["sep"][:, -1] = ord("\n")
    text = out.view(np.uint8).reshape(x.size, _SLOT.itemsize)
    idx = np.flatnonzero(exact)
    if idx.size:
        exact_text = np.array(["%.16e" % v for v in x[idx].tolist()], dtype="S24")
        text[idx, :24] = exact_text.view(np.uint8).reshape(idx.size, 24)
    return text.tobytes().translate(None, b"\0").decode()


@dataclass
class ResultTable:
    columns: list
    units: list
    data: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.columns) != len(self.units):
            raise ValueError("columns and units must have the same length")
        if len(set(self.columns)) < len(self.columns):
            name = next(c for i, c in enumerate(self.columns) if c in self.columns[:i])
            raise ValueError(f"duplicate column {name!r}")
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            raise ValueError(
                f"data of shape {data.shape} does not match {len(self.columns)} columns"
            )
        finite = np.isfinite(data)
        if np.count_nonzero(finite) < data.size:
            i, j = np.argwhere(~finite)[0]
            raise ValueError(
                f"non-finite value {float(data[i, j])!r} in column "
                f"{self.columns[j]!r} (row {i})"
            )
        self.data = data

    @property
    def rows(self):
        return self.data.tolist()

    def column(self, name):
        return self.data[:, self.columns.index(name)].tolist()

    def to_csv(self):
        step = _CSV_BLOCK_ROWS
        return "".join([
            f"{','.join(self.columns)}\n{','.join(self.units)}\n",
            *[_csv_rows(self.data[i:i + step]) for i in range(0, len(self.data), step)],
        ])

    def to_json(self):
        # json.dumps with an indent runs its pure-Python encoder over every
        # float, so the data columns are written here in that encoder's
        # layout; the small parts keep json.dumps for escaping and key order
        def nested(obj):
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n  ")

        data = []
        for name, values in sorted(zip(self.columns, self.data.T.tolist())):
            body = ",\n      ".join(map(float.__repr__, values))
            body = f"[\n      {body}\n    ]" if values else "[]"
            data.append(f"    {json.dumps(name)}: {body}")
        data = "{\n" + ",\n".join(data) + "\n  }" if data else "{}"
        return (
            f'{{\n  "columns": {nested(self.columns)},\n  "data": {data},\n'
            f'  "metadata": {nested(self.metadata)},\n  "units": {nested(self.units)}\n}}\n'
        )

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        columns = payload["columns"]
        return cls(
            columns=columns,
            units=payload["units"],
            data=np.array([payload["data"][name] for name in columns], dtype=float).T,
            metadata=payload.get("metadata", {}),
        )
