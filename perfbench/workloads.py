"""Seeded workload generators.

A workload is an INI config plus an endless sequence of rounds; a round
holds one op of every kind the workload mixes, so a run that stops on a
round boundary always has the same proportions of kinds.  An op is one
`photonforces.cli.main(argv)` call (or, on `roundtrip`, a sweep followed by
a rerun of its JSON output).  Each op carries what the oracle needs to
check its output: the inputs it was built from, never the program's own
view of them.

The same seed gives the same config and the same sequence of ops.
"""

import random
from dataclasses import dataclass, field

GRID_ROWS = 5000
SWEEP_POINTS = 500


@dataclass
class Op:
    kind: str  # timing class: ops of one kind do the same work
    command: str
    overrides: list
    expect: int = 0  # exit code main() must return
    rows: int = 1  # output rows on success
    fmt: str = "csv"
    jobs: int = 1
    roundtrip: bool = False
    check: dict = field(default_factory=dict)  # inputs for the oracle

    @property
    def computed_rows(self):
        """Rows the program evaluates; a roundtrip op runs its sweep twice."""
        if self.expect != 0:
            return 0
        return self.rows * (2 if self.roundtrip else 1)

    def argv(self, config, out):
        return [
            self.command, "--config", str(config), "--out", str(out),
            "--format", self.fmt, "--jobs", str(self.jobs), *self.overrides,
        ]


def _ini(sections):
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def _kv(params):
    return [f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
            for key, value in params.items()]


# --- grid: 5000-row calls, one shared stack per run -------------------------

def grid(seed):
    rng = random.Random(f"grid-{seed}")
    stack = {
        "eps1": 1.0,
        "eps2": rng.uniform(2.0, 12.0),
        "eps3": 1.0,
        "d2_m": rng.uniform(2e-7, 2e-6),
    }
    window = {
        "omega_min_ev": rng.uniform(0.3, 0.8),
        "omega_max_ev": rng.uniform(1.5, 3.0),
        "omega_points": GRID_ROWS,
    }
    temps = {"t_left_k": rng.uniform(1500.0, 6000.0), "t_right_k": rng.uniform(100.0, 1000.0)}
    polariton = {
        "energy_ev": rng.uniform(0.5, 3.0),
        "n_min": 1.0,
        "n_max": rng.uniform(1.5, 4.0),
        "n_points": GRID_ROWS,
        "mass_kg": 1.0,
        "convention": "minkowski",
    }
    cavity = {**stack, **window, "in1": 1.0, "in3": 0.0}
    force = {"mode": "beam", **stack, **window, "in1": 1.0, "area_m2": 1.0}
    config = _ini({"polariton": polariton, "cavity": cavity, "force": force})
    thermal = {"mode": "thermal", **temps}
    ops = [
        Op("polariton", "polariton", [], rows=GRID_ROWS, check={"base": "polariton", **polariton}),
        Op("cavity", "cavity", [], rows=GRID_ROWS, check={"base": "cavity", **cavity}),
        Op("force-beam", "force", [], rows=GRID_ROWS, check={"base": "force", **force}),
        Op("force-thermal", "force", ["in1="] + _kv(thermal), rows=GRID_ROWS,
           check={"base": "force", **{k: v for k, v in force.items() if k != "in1"}, **thermal}),
    ]

    def rounds():
        while True:
            yield ops

    return config, rounds()


# --- small: 1-row calls with seeded overrides, 1 in 10 invalid ---------------

_SMALL_BASE = {
    "polariton": {
        "energy_ev": 1.0, "n_min": 1.5, "n_max": 1.5, "n_points": 1,
        "mass_kg": 1.0, "convention": "minkowski",
    },
    "cavity": {
        "eps1": 1.0, "eps2": 4.0, "eps3": 1.0, "d2_m": 1e-6,
        "omega_min_ev": 1.0, "omega_points": 1, "in1": 1.0, "in3": 0.0,
    },
    "force": {
        "mode": "beam", "eps2": 4.0, "d2_m": 1e-6, "omega_min_ev": 1.0,
        "in1": 1.0, "area_m2": 1.0,
    },
}

# Seeded override pools; each op takes 2-4 keys from its pool.
_SMALL_POOLS = {
    "polariton": {
        "energy_ev": lambda r: r.uniform(0.5, 3.0),
        "n_min": lambda r: r.uniform(1.0, 3.5),
        "mass_kg": lambda r: 10.0 ** r.uniform(-3.0, 2.0),
        "length_m": lambda r: r.uniform(0.1, 2.0),
        "convention": lambda r: r.choice(["minkowski", "abraham"]),
    },
    "cavity": {
        "eps2": lambda r: r.uniform(1.5, 12.0),
        "eps3": lambda r: r.uniform(1.0, 4.0),
        "d2_m": lambda r: r.uniform(1e-7, 2e-6),
        "omega_min_ev": lambda r: r.uniform(0.3, 3.0),
        "in1": lambda r: r.uniform(0.0, 3.0),
        "in3": lambda r: r.uniform(0.0, 3.0),
    },
    "force-beam": {
        "eps2": lambda r: r.uniform(1.5, 12.0),
        "d2_m": lambda r: r.uniform(1e-7, 2e-6),
        "omega_min_ev": lambda r: r.uniform(0.3, 3.0),
        "in1": lambda r: r.uniform(0.1, 3.0),
        "area_m2": lambda r: r.uniform(0.5, 2.0),
    },
    "force-ar": {
        "in1": lambda r: r.uniform(0.1, 3.0),
        "omega_min_ev": lambda r: r.uniform(0.3, 3.0),
        "area_m2": lambda r: r.uniform(0.5, 2.0),
    },
}

_SMALL_KINDS = ["polariton", "cavity", "force-beam", "force-thermal", "force-ar"]


def _small_op(rng, kind):
    if kind == "force-thermal":
        # the four keys a thermal run needs on top of the beam section
        over = {"mode": "thermal", "in1": "",
                "t_left_k": rng.uniform(300.0, 6000.0), "t_right_k": rng.uniform(0.0, 1000.0)}
    elif kind == "force-ar":
        # mode and n_index are needed; 0-2 more keys from the pool
        pool = _SMALL_POOLS[kind]
        keys = rng.sample(sorted(pool), rng.randint(0, 2))
        over = {"mode": "ar", "n_index": rng.uniform(1.1, 4.0),
                **{k: pool[k](rng) for k in keys}}
    else:
        pool = _SMALL_POOLS[kind]
        keys = rng.sample(sorted(pool), rng.randint(2, 4))
        over = {k: pool[k](rng) for k in keys}
    section = "polariton" if kind == "polariton" else "cavity" if kind == "cavity" else "force"
    params = {**_SMALL_BASE[section], **over}
    params = {k: v for k, v in params.items() if v != ""}
    argv = ["in1="] if over.get("in1") == "" else []
    argv += _kv({k: v for k, v in over.items() if v != ""})
    return Op(kind, section, argv, check={"base": section, **params})


def _small_invalid(rng, kind):
    """Turn a valid op into one the README says must exit 2 or 3."""
    op = _small_op(rng, kind)
    op.kind = "invalid"
    op.rows = 0
    op.check = {}
    choices = ["unknown-key"]
    if kind in ("cavity", "force-beam", "force-thermal"):
        choices.append("omega-order")
    if kind == "polariton":
        choices.append("mass")
    why = rng.choice(choices)
    if why == "unknown-key":
        key = rng.choice(["gain", "n_idx", "eps4", "temperature"])
        op.overrides.append(f"{key}={rng.uniform(0, 1)!r}")
        op.expect = 2
    elif why == "omega-order":
        lo = rng.uniform(1.0, 3.0)
        op.overrides += _kv({"omega_min_ev": lo, "omega_max_ev": lo * rng.uniform(0.3, 0.9),
                             "omega_points": 2})
        op.expect = 2
    else:
        # Minkowski dipole mass (n^2-1) hbar*w/c^2 is ~1e-36 kg at these energies
        op.overrides += _kv({"convention": "minkowski", "n_min": rng.uniform(1.5, 3.0),
                             "mass_kg": 10.0 ** rng.uniform(-42.0, -39.0)})
        op.expect = 3
    return op


def small(seed):
    rng = random.Random(f"small-{seed}")
    config = _ini(_SMALL_BASE)

    def rounds():
        while True:
            kinds = _SMALL_KINDS * 2
            rng.shuffle(kinds)
            bad = rng.randrange(len(kinds))
            yield [_small_invalid(rng, k) if i == bad else _small_op(rng, k)
                   for i, k in enumerate(kinds)]

    return config, rounds()


# --- roundtrip: 500-point JSON sweeps, rerun from their own output -----------

def roundtrip(seed):
    rng = random.Random(f"roundtrip-{seed}")
    n = rng.uniform(1.2, 3.0)
    sections = {
        "polariton": {
            "energy_ev": 1.0, "n_min": n, "n_max": n, "n_points": 1,
            "mass_kg": 1.0, "convention": "minkowski",
        },
        "cavity": {
            "eps1": 1.0, "eps2": rng.uniform(2.0, 12.0), "eps3": 1.0,
            "d2_m": rng.uniform(2e-7, 2e-6), "omega_min_ev": rng.uniform(0.5, 2.5),
            "in1": rng.uniform(0.5, 2.0), "in3": rng.uniform(0.0, 0.5),
        },
        "force": {
            "mode": "beam", "eps2": rng.uniform(2.0, 12.0), "d2_m": 1e-6,
            "omega_min_ev": rng.uniform(0.5, 2.5), "in1": rng.uniform(0.5, 2.0),
            "area_m2": 1.0, "n_index": 1.5,
        },
        "sweep": {"base": "force", "parameter": "d2_m", "min": 1e-7, "max": 1e-6,
                  "points": SWEEP_POINTS},
    }
    config = _ini(sections)

    def op(kind, base, key, lo, hi, extra=None):
        extra = extra or {}
        params = {**sections[base], **extra}
        over = _kv({f"{base}.{k}": v for k, v in extra.items()})
        over += _kv({"base": base, "parameter": key, "min": lo, "max": hi})
        return Op(kind, "sweep", over, rows=SWEEP_POINTS, fmt="json", jobs=2, roundtrip=True,
                  check={"base": base, **params, "sweep": (key, lo, hi, SWEEP_POINTS)})

    def rounds():
        while True:
            yield [
                op("sweep-force-beam", "force", "d2_m",
                   rng.uniform(1e-7, 5e-7), rng.uniform(1e-6, 2e-6)),
                op("sweep-force-ar", "force", "n_index",
                   rng.uniform(1.05, 1.5), rng.uniform(2.0, 4.0), {"mode": "ar"}),
                op("sweep-cavity", "cavity", "eps2",
                   rng.uniform(1.2, 3.0), rng.uniform(6.0, 14.0)),
                op("sweep-polariton", "polariton", "energy_ev",
                   rng.uniform(0.3, 1.0), rng.uniform(2.0, 4.0)),
            ]

    return config, rounds()


WORKLOADS = {"grid": grid, "small": small, "roundtrip": roundtrip}
