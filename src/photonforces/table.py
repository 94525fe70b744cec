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
"""

import json
from dataclasses import dataclass, field

import numpy as np


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
        fmt = ",".join(["%.16e"] * len(self.columns))
        lines = [",".join(self.columns), ",".join(self.units)]
        lines += [fmt % tuple(row) for row in self.data.tolist()]
        lines.append("")
        return "\n".join(lines)

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
