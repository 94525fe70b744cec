"""Tabular result container with lossless CSV and JSON serialization.

The values are one 2-D float array, a row per grid point and a column per
quantity.  CSV layout: header row, units row, then data rows in scientific
notation with 17 significant digits so doubles round-trip exactly.  JSON
mirrors the columns as arrays and carries the metadata object (constants
version, convention flags, and the resolved run configuration for
reproducibility).
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
        payload = {
            "columns": self.columns,
            "units": self.units,
            "data": {
                name: self.data[:, i].tolist() for i, name in enumerate(self.columns)
            },
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

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
