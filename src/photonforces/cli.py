"""Command-line front end.

    photonforces <command> --config <path> [--out <path>] [--format csv|json]
                 [--jobs N] [key=value ...]

Commands: polariton | cavity | force | sweep.  The config file is an INI
file with one section per command; `key=value` overrides on the command
line win over the file, and `section.key=value` targets another section
(used by `sweep` to override its base command).  Unknown keys and
out-of-range values are rejected with exit code 2; physics-infeasibility
errors exit 3; numerical-guard trips exit 4.

Each grid is evaluated as whole numpy columns in one pass.  --jobs is
accepted for compatibility and has no effect: output is byte-identical for
every value.
"""

import argparse
import configparser
import sys
import warnings

import numpy as np

from . import cavity as cav
from . import forces as frc
from . import kinematics as kin
from .constants import CONSTANTS_VERSION, EV, HBAR
from .errors import (
    ConfigError, FeasibilityError, NumericalGuardError, PhotonForcesError, first_row,
)
from .table import ResultTable

_BASE_METADATA = {
    "constants_version": CONSTANTS_VERSION,
    "ldos_normalization": "rho = n * rho0, rho0 = 1/(pi*c)",
    "total_photon_number": "average of directional values, (n+ + n-)/2",
}

# Per-command key tables: name -> (parser, default); REQUIRED means no default.
_REQUIRED = object()

_POLARITON_KEYS = {
    "energy_ev": (float, 1.0),
    "n_min": (float, 1.0),
    "n_max": (float, 3.0),
    "n_points": (int, 201),
    "mass_kg": (float, 1.0),
    "length_m": (float, 1.0),
    "convention": (str, "minkowski"),
    "momentum_kgms": (float, None),
}

_STACK_KEYS = {
    "eps1": (float, 1.0),
    "eps2": (float, _REQUIRED),
    "eps3": (float, 1.0),
    "d2_m": (float, _REQUIRED),
}

_GRID_KEYS = {
    "omega_min_ev": (float, _REQUIRED),
    "omega_max_ev": (float, None),
    "omega_points": (int, 1),
}

_INPUT_KEYS = {
    "in1": (float, None),
    "in3": (float, None),
    "t_left_k": (float, None),
    "t_right_k": (float, None),
}

_CAVITY_KEYS = {**_STACK_KEYS, **_GRID_KEYS, **_INPUT_KEYS}

_FORCE_KEYS = {
    "mode": (str, "beam"),
    "n_index": (float, None),
    "area_m2": (float, 1.0),
    **_STACK_KEYS,
    **_GRID_KEYS,
    **_INPUT_KEYS,
}
# the AR mode needs no stack
_FORCE_KEYS["eps2"] = (float, None)
_FORCE_KEYS["d2_m"] = (float, None)

_SWEEP_KEYS = {
    "base": (str, _REQUIRED),
    "parameter": (str, _REQUIRED),
    "min": (float, _REQUIRED),
    "max": (float, _REQUIRED),
    "points": (int, _REQUIRED),
}

_KEY_TABLES = {
    "polariton": _POLARITON_KEYS,
    "cavity": _CAVITY_KEYS,
    "force": _FORCE_KEYS,
    "sweep": _SWEEP_KEYS,
}


def _parse_section(raw, command):
    """Validate a raw {key: str-or-value} mapping against the command's key
    table; returns the resolved parameter dict."""
    table = _KEY_TABLES[command]
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(
            f"unknown key(s) for {command}: {', '.join(sorted(unknown))}"
        )
    params = {}
    for key, (parse, default) in table.items():
        if key in raw:
            try:
                params[key] = parse(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key for {command}: {key}")
        elif default is not None:
            params[key] = default
    return params


def load_config(path, command, overrides=()):
    """Read the INI config and apply key=value overrides.

    Returns the resolved params dict; for `sweep` it carries the base
    command's resolved params under 'base_params'.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if not parser.has_section(command):
        raise ConfigError(f"config has no [{command}] section")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        if "." in key:
            section, key = key.split(".", 1)
        else:
            section = command
        key = key.strip()
        value = value.strip()
        if value:
            sections.setdefault(section, {})[key] = value
        else:
            # `key=` with no value unsets the file's entry
            sections.setdefault(section, {}).pop(key, None)
    params = _parse_section(sections[command], command)
    if command == "sweep":
        base = params["base"]
        if base not in ("polariton", "cavity", "force"):
            raise ConfigError(f"sweep base must be a non-sweep command, got {base!r}")
        if base not in sections:
            raise ConfigError(f"sweep base [{base}] section missing")
        params["base_params"] = _parse_section(sections[base], base)
        if params["parameter"] not in _KEY_TABLES[base]:
            raise ConfigError(
                f"sweep parameter {params['parameter']!r} unknown for {base}"
            )
    return params


_FORCE_COLUMNS = ("zcf1", "tcf1", "ncf1", "zcf2", "tcf2", "ncf2", "net_pressure",
                  "net_impulse", "F1", "F2", "F1_plus_F2")
_UNITS = {"omega_ev": "eV", "V_r": "m/s", **dict.fromkeys(_FORCE_COLUMNS, "N/(rad/s)")}


def _grid_table(command, params, grid, label, columns, **metadata):
    """Evaluate `columns(x)`, a {name: values} dict, once over the whole grid
    and build the table; scalar values are broadcast over the rows.

    A one-point grid is passed as a Python float: numpy's per-call overhead
    on 1-element arrays would cost more than the computation.  Feasibility
    and guard errors are re-raised naming their row and `label(grid value)`.
    """
    try:
        cols = columns(grid.item() if grid.size == 1 else grid)
    except (FeasibilityError, NumericalGuardError) as exc:
        if exc.row is None:
            raise
        raise type(exc)(f"row {exc.row} ({label(grid[exc.row])}): {exc}") from exc
    data = np.empty((len(cols), grid.size))
    for j, values in enumerate(cols.values()):
        data[j] = values
    return ResultTable(
        columns=list(cols),
        units=[_UNITS.get(name, "-") for name in cols],
        data=data.T,
        metadata={**_BASE_METADATA, "command": command, "config": dict(params), **metadata},
    )


def _convention(params):
    name = params["convention"].lower()
    if name == "abraham":
        return kin.ABRAHAM
    if name == "minkowski":
        return kin.MINKOWSKI
    if name == "general":
        if "momentum_kgms" not in params:
            raise ConfigError("general convention requires momentum_kgms")
        return kin.general(params["momentum_kgms"])
    raise ConfigError(f"unknown convention {params['convention']!r}")


def run_polariton(params):
    conv = _convention(params)
    photon = kin.PhotonInput(omega=params["energy_ev"] * EV / HBAR)
    hw = photon.energy
    hk0 = HBAR * photon.k0
    if params["n_points"] < 1:
        raise ConfigError("n_points must be >= 1")
    grid = np.linspace(params["n_min"], params["n_max"], params["n_points"])

    def columns(n):
        block = kin.MediumBlock(n=n, M=params["mass_kg"], L=params["length_m"])
        sol = kin.solve_transmission(photon, block, conv)
        v_before, v_after = kin.cev_check(photon, block, sol)
        return {
            "n": n, "E_over_hw": sol.E / hw, "Ef_over_hw": sol.E_f / hw,
            "Ed_over_hw": sol.E_d / hw, "p_over_hk0": sol.p / hk0,
            "pf_over_hk0": sol.p_f / hk0, "pd_over_hk0": sol.p_d / hk0,
            "dmc2_over_hw": sol.delta_m * kin.C**2 / hw, "V_r": sol.V_r,
            "cev_residual": (v_after - v_before) / v_before,
        }

    return _grid_table("polariton", params, grid, "n={:g}".format, columns)


def _omega_grid(params):
    w_min = params["omega_min_ev"] * EV / HBAR
    points = params["omega_points"]
    if points < 1:
        raise ConfigError("omega_points must be >= 1")
    if points == 1:
        return np.array([w_min])
    if params.get("omega_max_ev") is None:
        raise ConfigError("omega_max_ev required when omega_points > 1")
    w_max = params["omega_max_ev"] * EV / HBAR
    if w_max <= w_min:
        raise ConfigError("omega_max_ev must exceed omega_min_ev")
    return np.linspace(w_min, w_max, points)


def _omega_label(omega):
    return f"omega={omega * HBAR / EV:g} eV"


def _inputs(params, omega):
    """Input occupations (in1, in3) over omega, each from a fixed occupation
    or a temperature key."""
    out = []
    for occ_key, temp_key in (("in1", "t_left_k"), ("in3", "t_right_k")):
        occ = params.get(occ_key)
        temp = params.get(temp_key)
        if occ is not None and temp is not None:
            raise ConfigError(f"give either {occ_key} or {temp_key}, not both")
        out.append(cav.occupation(omega, occ, temp))
    return out


def _stack(params):
    for key in ("eps2", "d2_m"):
        if params.get(key) is None:
            raise ConfigError(f"missing required key: {key}")
    return cav.LayerStack(params["eps1"], params["eps2"], params["eps3"], params["d2_m"])


def run_cavity(params):
    stack = _stack(params)

    def columns(omega):
        in1, in3 = _inputs(params, omega)
        pn = cav.photon_numbers(stack, omega, in1, in3)
        cc = pn.amplitudes
        r1_sq = abs(cc.R1) ** 2
        t_sq = (stack.n3 / stack.n1) * abs(cc.T1 * cc.T2) ** 2
        return {
            "omega_ev": omega * HBAR / EV, "n1p": pn.n1p, "n1m": pn.n1m, "n2p": pn.n2p,
            "n2m": pn.n2m, "n3p": pn.n3p, "n3m": pn.n3m, "R1_sq": r1_sq,
            "T1T2_sq_weighted": t_sq, "identity_residual": r1_sq + t_sq - 1.0,
        }

    return _grid_table("cavity", params, _omega_grid(params), _omega_label, columns)


def _run_force_ar(params):
    n = params.get("n_index")
    if n is None:
        raise ConfigError("ar mode requires n_index")
    in1 = params.get("in1")
    if in1 is None or in1 <= 0:
        raise ConfigError("ar mode requires a positive in1 beam occupation")
    S = params["area_m2"]

    def columns(omega):
        f1, f2, kappa = frc.ar_interface_forces(n, omega, in1, S)
        if n == 1.0:
            kappa = 0.5  # analytic limit; F1 = F2 = 0 leaves it 0/0
        return {"omega_ev": omega * HBAR / EV, "F1": f1, "F2": f2, "F1_plus_F2": f1 + f2,
                "kappa": kappa}

    return _grid_table(
        "force", params, _omega_grid(params), _omega_label, columns,
        kappa_paper_value=1.0,
        kappa_note=(
            "measured kappa = 1/2 under the average photon-number and "
            "two-direction LDOS conventions; fixed factor vs the asserted 1"
        ),
    )


def run_force(params):
    mode = params["mode"]
    if mode == "ar":
        return _run_force_ar(params)
    if mode not in ("beam", "thermal"):
        raise ConfigError(f"unknown force mode {mode!r}")
    stack = _stack(params)
    S = params["area_m2"]
    eps_mismatch = stack.eps1 != stack.eps3
    if mode == "beam":
        if eps_mismatch:
            raise ConfigError("beam mode requires eps1 == eps3")
        if params.get("in1") is None or params["in1"] <= 0:
            raise ConfigError("beam mode requires a positive in1 occupation")

    def columns(omega):
        in1, in3 = _inputs(params, omega)
        if mode == "beam" and first_row(in3 != 0.0) is not None:
            raise ConfigError("beam mode requires zero right-side input")
        numbers = cav.photon_numbers(stack, omega, in1, in3)
        imp1, imp2 = frc.force_density_decomposition(stack, omega, numbers)
        with warnings.catch_warnings():
            if eps_mismatch:  # recorded in the metadata as eps1_ne_eps3_warning
                warnings.simplefilter("ignore", UserWarning)
            net = frc.net_force_pressure(stack, omega, numbers, -1.0, stack.d2 + 1.0, S)
        cols = {
            "omega_ev": omega * HBAR / EV,
            "zcf1": S * imp1.zcf, "tcf1": S * imp1.tcf, "ncf1": S * imp1.ncf,
            "zcf2": S * imp2.zcf, "tcf2": S * imp2.tcf, "ncf2": S * imp2.ncf,
            "net_pressure": net, "net_impulse": S * (imp1.total + imp2.total),
        }
        if mode == "beam":
            cols["F_over_F0"] = frc.beam_ratio(numbers)
        return cols

    return _grid_table(
        "force", params, _omega_grid(params), _omega_label, columns,
        eps1_ne_eps3_warning=eps_mismatch,
    )


def run_sweep(params):
    base = params["base"]
    key = params["parameter"]
    if params["points"] < 1:
        raise ConfigError("sweep points must be >= 1")
    values = np.linspace(params["min"], params["max"], params["points"])
    parse = _KEY_TABLES[base][key][0]
    rows = []
    for value in values:
        sub = _RUNNERS[base]({**params["base_params"], key: parse(value)})
        if len(sub.data) != 1:
            raise ConfigError(
                f"sweep base run produced {len(sub.data)} rows; configure the "
                "base for a single row (e.g. omega_points = 1)"
            )
        rows.append(sub.data[0])
    return ResultTable(
        columns=[key] + sub.columns,
        units=["-"] + sub.units,
        data=np.column_stack([values, rows]),
        metadata={**_BASE_METADATA, "command": "sweep", "config": dict(params)},
    )


_RUNNERS = {
    "polariton": run_polariton,
    "cavity": run_cavity,
    "force": run_force,
    "sweep": run_sweep,
}


def run_command(command, params):
    """Run a command from resolved params (as stored in output metadata)."""
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r}")
    return _RUNNERS[command](params)


def rerun_from_json(text, jobs=1):
    """Re-execute the run recorded in an emitted JSON result's metadata.
    `jobs` is accepted for compatibility and has no effect."""
    table = ResultTable.from_json(text)
    md = table.metadata
    if "command" not in md or "config" not in md:
        raise ConfigError("JSON result carries no embedded command/config")
    return run_command(md["command"], md["config"])


def _jobs(text):
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="photonforces",
        description="Polariton kinematics and cavity electromagnetic forces.",
    )
    parser.add_argument("command", choices=["polariton", "cavity", "force", "sweep"])
    parser.add_argument("--config", required=True, help="INI config file path")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument(
        "--jobs", type=_jobs, default=1,
        help="accepted for compatibility; no effect (grids are evaluated as arrays)",
    )
    parser.add_argument(
        "overrides", nargs="*", metavar="key=value",
        help="config overrides; section.key=value targets another section",
    )
    args = parser.parse_intermixed_args(argv)
    try:
        params = load_config(args.config, args.command, args.overrides)
        table = run_command(args.command, params)
        text = table.to_json() if args.format == "json" else table.to_csv()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except FeasibilityError as exc:
        print(f"error: feasibility: {exc}", file=sys.stderr)
        return 3
    except NumericalGuardError as exc:
        print(f"error: numerical-guard: {exc}", file=sys.stderr)
        return 4
    except (PhotonForcesError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
