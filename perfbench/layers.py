"""What the traced run wraps, and the end-to-end metric and workload each
per-layer metric is expected to move.  The metrics themselves, with their
units, are the `per_layer` section of BENCHMARK.json; the targets live here
because that file's schema has no field for them.  A target reads
`<end-to-end metric>@<workload>`; one prefixed `=` is a prediction of no
change.

Names: `<layer>.<function>.calls` counts spans, `.self_s` sums span time
minus the time of child spans on the same thread, `.bytes` sums the length
of the returned text; `<layer>.self_s` and `<layer>.errors` roll a layer
up (errors = spans that raised).  `cavity.<f>.per_row` is calls per output
row over the beam-mode ops (`force` beam calls, and sweeps of a beam base).
"""

# function names the traced run reports on, per layer
REPORTED = {
    "cli": ["main", "load_config", "run_command", "rerun_from_json"],
    "kinematics": ["solve_transmission", "cev_check"],
    "cavity": ["fresnel", "composite", "photon_numbers", "bose_einstein"],
    "forces": ["force_density_decomposition", "net_force_pressure", "total_force_beam",
               "ar_interface_forces"],
    "table": ["append", "to_csv", "to_json", "from_json"],
}

_SMALL = ["call_p50_ms@small", "call_tail_ms@small"]
_RT = ["call_p50_ms@roundtrip"]
_GRID = ["rows_per_s@grid"]
_CAVITY = _GRID + ["=call_p50_ms@small"]
_TABLE = _GRID + ["peak_heap_mb@grid"]

# per-layer metric name -> targets
TARGETS = {
    "cli.main.self_s": _SMALL,
    "cli.load_config.self_s": _SMALL,
    "cli.run_command.self_s": _RT + _GRID,
    "cli.rerun_from_json.self_s": _RT,
    "table.to_json.self_s": _RT,
    "table.to_json.bytes": _RT,
    "table.from_json.self_s": _RT,
    "table.append.calls": _TABLE,
    "table.append.self_s": _TABLE,
    "table.to_csv.self_s": _TABLE,
    "table.to_csv.bytes": _TABLE,
    "kinematics.solve_transmission.calls": _GRID,
    "kinematics.solve_transmission.self_s": _GRID,
    "kinematics.cev_check.calls": _GRID,
    "kinematics.cev_check.self_s": _GRID,
    "cavity.fresnel.calls": _CAVITY,
    "cavity.fresnel.self_s": _CAVITY,
    "cavity.composite.calls": _CAVITY,
    "cavity.composite.self_s": _CAVITY,
    "cavity.photon_numbers.calls": _CAVITY,
    "cavity.photon_numbers.self_s": _CAVITY,
    "cavity.bose_einstein.calls": _CAVITY,
    "cavity.bose_einstein.self_s": _CAVITY,
    "cavity.composite.per_row": _GRID,
    "cavity.fresnel.per_row": _GRID,
    "forces.force_density_decomposition.calls": _GRID,
    "forces.force_density_decomposition.self_s": _GRID,
    "forces.net_force_pressure.calls": _GRID,
    "forces.net_force_pressure.self_s": _GRID,
    "forces.total_force_beam.calls": _GRID,
    "forces.total_force_beam.self_s": _GRID,
    "forces.ar_interface_forces.calls": _RT,
    "forces.ar_interface_forces.self_s": _RT,
    "cli.self_s": _SMALL + _RT,
    "kinematics.self_s": _GRID,
    "cavity.self_s": _CAVITY,
    "forces.self_s": _GRID,
    "table.self_s": _TABLE + _RT,
    "cli.errors": ["failed"],
    "kinematics.errors": ["failed"],
    "cavity.errors": ["failed"],
    "forces.errors": ["failed"],
    "table.errors": ["failed"],
    "trace.overhead_frac": [],
}
