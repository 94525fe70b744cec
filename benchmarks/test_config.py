"""Config-parsing stage: `load_config` on a config file of the four
sections (polariton, cavity, force, sweep; 23 keys), as a 1-row run reads
it, with one override.  `plain` is plain `[section]` / `key = value` text;
`default` moves `in1` into a `[DEFAULT]` section, which only configparser
reads, so it times that path.  Both resolve to the same cavity params.

    python -m pytest benchmarks/test_config.py \
        --benchmark-json=BENCH_<n>.json

Not part of the tier-1 suite (`testpaths = ["tests"]`): timings on a small
shared machine are noisy, so compare two commits only from runs made on
the same machine.
"""

import pytest

from photonforces.cli import load_config

CONFIG = """\
[polariton]
energy_ev = 1.0
n_min = 1.0
n_max = 3.0
n_points = 1
mass_kg = 1.0
convention = minkowski

[cavity]
eps1 = 1.0
eps2 = 4.0
eps3 = 1.0
d2_m = 1e-6
omega_min_ev = 0.5
omega_points = 1
in1 = 1.0

[force]
mode = beam
eps2 = 4.0
d2_m = 1e-6
omega_min_ev = 1.0
in1 = 1.0

[sweep]
base = force
parameter = d2_m
min = 1e-7
max = 1e-6
points = 5
"""

TEXTS = {
    "plain": CONFIG,
    "default": "[DEFAULT]\nin1 = 1.0\n\n" + CONFIG.replace("in1 = 1.0\n", ""),
}


@pytest.mark.parametrize("case", list(TEXTS))
def test_load_config(benchmark, case, tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(TEXTS[case])
    params = benchmark(load_config, str(path), "cavity", ["eps2=2.25"])
    assert params["in1"] == 1.0 and params["eps2"] == 2.25
