"""The package's records: immutable NamedTuples, slotted validating classes,
and an import of the CLI that loads neither `dataclasses`, `json` nor
`configparser`."""

import os
import subprocess
import sys

import numpy as np
import pytest

import photonforces
from photonforces import (
    MINKOWSKI,
    LayerStack,
    MediumBlock,
    PhotonInput,
    ResultTable,
    composite,
    force_density_decomposition,
    photon_numbers,
    solve_transmission,
)
from photonforces.constants import EV, HBAR

OMEGA = 1.0 * EV / HBAR
STACK = LayerStack(1.0, 4.0, 1.0, 1e-6)
PHOTON = PhotonInput(OMEGA)
BLOCK = MediumBlock(1.5, 1.0)


def test_importing_the_cli_loads_none_of_dataclasses_json_configparser_argparse():
    src = os.path.dirname(os.path.dirname(photonforces.__file__))
    code = ("import sys, photonforces.cli; print(sorted("
            "{'dataclasses', 'json', 'configparser', 'argparse'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_tables_built_without_metadata_do_not_share_it():
    first, second = (ResultTable(["x"], ["-"], np.zeros((1, 1))) for _ in range(2))
    first.metadata["note"] = 1
    assert first.metadata is not second.metadata
    assert second.metadata == {}


@pytest.mark.parametrize("record", [
    composite(STACK, OMEGA),
    photon_numbers(STACK, OMEGA, 1.0, 0.0),
    force_density_decomposition(STACK, OMEGA, photon_numbers(STACK, OMEGA, 1.0, 0.0))[0],
    solve_transmission(PHOTON, BLOCK, MINKOWSKI),
], ids=lambda record: type(record).__name__)
def test_record_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0.0)
    assert tuple(record) == record
