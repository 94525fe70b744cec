"""Command-line front end.

    photonforces <command> --config <path> [--out <path>] [--format csv|json]
                 [--jobs N] [key=value ...]

Commands: polariton | cavity | force | sweep.  The config file is an INI
file with one section per command, read as configparser reads it (see
`_plain_sections`) with no `%` interpolation; keys are case-insensitive.
`key=value` overrides on the command line win over the file, and
`section.key=value` targets a sweep's base section (any other section that
the run does not read is a config error).  Each given value, each energy
in rad/s and each sweep value is checked against its key's domain (the
third field of the key's row in `_KEY_TABLES`), and so is the config
embedded in a JSON result that is rerun; a row count that cannot be
allocated and a sweep range whose max - min overflows are config errors
too.  A mode or convention must be one of its values (`_READ_AT` lists
them, with the keys that each reads); the convention is parsed in lower
case and the mode as given.  A required key is missing only from a run that
reads it, and only once every given value has passed.  Exit codes:
2 config error, 3 physics infeasibility, 4 numerical-guard trip (a
non-finite output included); any other exception is an internal error and
exits 1 with a traceback.  A stdout whose reader closes early ends the run
with exit 0 and no message; any other stdout that cannot be written (a full
device, a closed fd 1) exits 2.

Each grid is evaluated as whole numpy columns in one pass; a sweep is one
array call of its single-row base run, with the swept key set to all sweep
values, which become the first column.  Only float keys that the base
reads can be swept, and a sweep error about a point (a mode rule's too)
names it as `row i (key=value)`.  --jobs is accepted for compatibility and
has no effect: output is byte-identical for every value.
A beam or thermal force run over more than one frequency records the
trapezoid of its net_pressure and net_impulse columns over omega (rad/s) in
the metadata, as integrated_net_pressure_N and integrated_net_impulse_N.
The table is computed and checked before `--out` is opened (or stdout
taken), and its writer then streams the bytes there in blocks: into the
file opened in binary mode, or into stdout's binary buffer, where the text
would have the same bytes (`_byte_stream`).  Where the platform's line end
is not "\n", both stay text files, which translate it.

Plain argv is read in one pass (`_plain_args`): one command, `key=value`
overrides anywhere, and the four options spelled in full, each followed by
a separate value that does not start with `-`, with a valid --format and
--jobs.  Any other argv (help, abbreviations, `--name=value`, `--`, any
other token that starts with `-`, a missing --config or command, a bad
value) is read by a new argparse parser, with its own messages and exit
codes; argparse is imported only then, and calls share no parser.  With fd
2 closed at start-up its messages go to devnull, not, as argparse would
print them, to stdout.
"""

import contextlib
import io
import math
import os
import sys

import numpy as np

from . import cavity as cav
from . import forces as frc
from . import kinematics as kin
from .constants import CONSTANTS_VERSION, EV, HBAR
from .errors import (
    FINITE, INDEX, NONNEGATIVE, POSITIVE, ConfigError, FeasibilityError,
    NumericalGuardError, first_row, require,
)
from .table import ResultTable

_BASE_METADATA = {
    "constants_version": CONSTANTS_VERSION,
    "ldos_normalization": "rho = n * rho0, rho0 = 1/(pi*c)",
    "total_photon_number": "average of directional values, (n+ + n-)/2",
}

# Per-command key tables: name -> (parser, default, domain); REQUIRED means
# no default.  A numeric key has the same domain in every table, and a string
# key none; a switch's values and which keys a run reads are in _READ_AT, and
# the rules that name a sweep point stay in run_force.
_REQUIRED = object()

_POLARITON_KEYS = {
    "energy_ev": (float, 1.0, POSITIVE),
    "n_min": (float, 1.0, INDEX),
    "n_max": (float, 3.0, INDEX),
    "n_points": (int, 201, INDEX),
    "mass_kg": (float, 1.0, POSITIVE),
    "length_m": (float, 1.0, POSITIVE),
    "convention": (str.lower, "minkowski", None),
    "momentum_kgms": (float, _REQUIRED, NONNEGATIVE),
}

_STACK_KEYS = {
    "eps1": (float, 1.0, INDEX),
    "eps2": (float, _REQUIRED, INDEX),
    "eps3": (float, 1.0, INDEX),
    "d2_m": (float, _REQUIRED, POSITIVE),
}

_GRID_KEYS = {
    "omega_min_ev": (float, _REQUIRED, POSITIVE),
    "omega_max_ev": (float, None, POSITIVE),
    "omega_points": (int, 1, INDEX),
}

_INPUT_KEYS = dict.fromkeys(["in1", "in3", "t_left_k", "t_right_k"], (float, None, NONNEGATIVE))

_CAVITY_KEYS = {**_STACK_KEYS, **_GRID_KEYS, **_INPUT_KEYS}

_FORCE_KEYS = {
    "mode": (str, "beam", None),
    "n_index": (float, _REQUIRED, INDEX),
    "area_m2": (float, 1.0, POSITIVE),
    **_STACK_KEYS,
    **_GRID_KEYS,
    **_INPUT_KEYS,
}

_SWEEP_KEYS = {
    "base": (str, _REQUIRED, None),
    "parameter": (str, _REQUIRED, None),
    "min": (float, _REQUIRED, FINITE),
    "max": (float, _REQUIRED, FINITE),
    "points": (int, _REQUIRED, INDEX),
}

_KEY_TABLES = {
    "polariton": _POLARITON_KEYS,
    "cavity": _CAVITY_KEYS,
    "force": _FORCE_KEYS,
    "sweep": _SWEEP_KEYS,
}

# A section's switch, its values, and the keys that a run reads only at some
# of them: section -> (switch key, values, {key: the values at which it is
# read}).  A single-row sweep base reads no grid maximum, and no column
# depends on length_m.
_READ_AT = {
    "polariton": ("convention", ("abraham", "minkowski", "general"),
                  {"momentum_kgms": ("general",)}),
    "force": ("mode", ("beam", "thermal", "ar"), {
        "n_index": ("ar",),
        **dict.fromkeys(["eps1", "eps2", "eps3", "d2_m", "in3", "t_left_k", "t_right_k"],
                        ("beam", "thermal")),
    }),
}
_SINGLE_ROW_UNREAD = ("length_m", "n_max", "omega_max_ev")


def _reads(section, params, key):
    """Whether a run of `section` with the parsed `params` reads `key`."""
    switch, _, read_at = _READ_AT.get(section, (None, (), {}))
    return key not in read_at or params[switch] in read_at[key]


def _sweepable(base, base_params):
    """The float keys that a single-row `base` run with `base_params` reads: a
    sweep over any other key would repeat one row."""
    return [key for key, (parse, *_) in _KEY_TABLES[base].items()
            if parse is float and key not in _SINGLE_ROW_UNREAD
            and _reads(base, base_params, key)]


def _parse_section(raw, command, swept=None):
    """Validate a raw {key: str-or-value} mapping against the command's key
    table; returns the resolved parameter dict.  Every given value, the
    switch's too, is checked before any required key that the run reads is
    found missing; a sweep's `swept` key is given by the sweep."""
    table = _KEY_TABLES[command]
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) for {command}: {', '.join(sorted(unknown))}")
    params = {}
    for key, (parse, default, domain) in table.items():
        if key in raw:
            try:  # from text, so that a JSON bool or a fractional count fails
                params[key] = parse(str(raw[key]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r}") from exc
            if domain is not None:
                require(key, params[key], domain, ConfigError)
        elif default is not None and default is not _REQUIRED:
            params[key] = default
    switch, values, _ = _READ_AT.get(command, (None, (), {}))
    if switch and params[switch] not in values:
        name = "force mode" if switch == "mode" else switch
        raise ConfigError(f"unknown {name} {str(raw[switch])!r}")
    for key, (_, default, _) in table.items():
        if (default is _REQUIRED and key not in params and key != swept
                and _reads(command, params, key)):
            raise ConfigError(f"missing required key for {command}: {key}")
    return params


def _plain_sections(text):
    """`text`'s {section: {key: value}} as configparser reads it, when every
    line is a `[name]` header other than [DEFAULT], a `key = value` or
    `key: value` line, a full-line `#` or `;` comment or blank, and no name
    or key repeats; else None.  Lines split on "\n" alone, as configparser's
    do, and one that starts with whitespace (str.isspace) may continue a value."""
    sections, section = {}, None
    for line in text.split("\n"):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if line[0].isspace():
            return None
        if stripped[0] == "[":
            name = stripped[1:-1]
            if stripped[-1] != "]" or not name or name in sections or name == "DEFAULT":
                return None
            section = sections[name] = {}
            continue
        key, sep, value = stripped.partition("=")
        if ":" in key:
            key, sep, value = stripped.partition(":")
        key = key.rstrip().lower()
        if not sep or not key or section is None or key in section:
            return None
        section[key] = value.strip()
    return sections


def load_config(path, command, overrides=()):
    """Read the INI config and apply key=value overrides.

    Returns the resolved params dict; for `sweep` it carries the base
    command's resolved params under 'base_params'.
    """
    try:  # read once, in the encoding that configparser.read uses
        with open(path, encoding=io.text_encoding(None)) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    sections = _plain_sections(text)
    if sections is None:  # configparser's rules: [DEFAULT], continuation lines, its errors
        import configparser

        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source=path)
            sections = {name: dict(parser.items(name)) for name in parser.sections()}
        except configparser.Error as exc:
            message = " ".join(str(exc).split())  # configparser's messages span lines
            raise ConfigError(f"cannot parse config file {path}: {message}") from exc
    if command not in sections:
        raise ConfigError(f"config has no [{command}] section")
    targets = []
    for item in overrides:
        key, sep, value = item.partition("=")
        section, key = key.split(".", 1) if "." in key else (command, key)
        key, value = key.strip().lower(), value.strip()
        if not sep or not key:
            raise ConfigError(f"override must be key=value, got {item!r}")
        targets.append((section, item))
        raw = sections.setdefault(section, {})
        if value or key not in _KEY_TABLES.get(section, ()):
            raw[key] = value  # an unknown key, even unset, is named as its section is parsed
        else:  # `key=` with no value unsets the file's entry
            raw.pop(key, None)
    params = _resolve(command, sections)
    for section, item in targets:
        if section not in (command, params.get("base")):
            raise ConfigError(f"override {item!r} sets a key of [{section}], which a "
                              f"{command} run never reads")
    return params


def _resolve(command, sections):
    """Parse the command's section of `sections` ({name: {key: value}});
    a sweep carries its base's parsed section under 'base_params'."""
    params = _parse_section(sections[command], command)
    if command == "sweep":
        base = params["base"]
        if base not in ("polariton", "cavity", "force"):
            raise ConfigError(f"sweep base must be a non-sweep command, got {base!r}")
        if not isinstance(sections.get(base), dict):
            raise ConfigError(f"sweep base [{base}] section missing")
        params["base_params"] = _parse_section(sections[base], base, params["parameter"])
        sweepable = _sweepable(base, params["base_params"])
        if params["parameter"] not in sweepable:
            raise ConfigError(
                f"sweep parameter {params['parameter']!r} is not a float key that this "
                f"{base} base reads; sweepable keys: {', '.join(sweepable)}"
            )
    return params


_FORCE_COLUMNS = ("zcf1", "tcf1", "ncf1", "zcf2", "tcf2", "ncf2", "net_pressure",
                  "net_impulse", "F1", "F2", "F1_plus_F2")
_UNITS = {"omega_ev": "eV", "V_r": "m/s", **dict.fromkeys(_FORCE_COLUMNS, "N/(rad/s)")}


def _grid_table(command, params, grid, label, columns, **metadata):
    """Evaluate `columns(x)`, a {name: values} dict, once over the whole grid
    and build the table.

    A one-point grid is passed as a Python float: numpy's per-call overhead
    on 1-element arrays would cost more than the computation.  An array
    parameter is a sweep over a one-point grid (see run_sweep), with a row
    per value and the values as the first column.  A table of more rows
    holds the column arrays themselves, a scalar value as a zero-stride view
    of it, so no (rows, columns) matrix is built.  One row goes through the
    2-D constructor as one (1, columns) array, checked finite in one call:
    held as a 1-element array per column, it took perfbench's `small`
    peak_heap_mb from 0.0141 to 0.0153 MB, and held as the rows of one
    (columns, 1) array, checked a column at a time, it took `small`'s
    call_p50_ms up 13% (6 pairs).  The table's constructors make a
    non-finite value a guard error; feasibility and guard errors, that one
    included, name their row and its value.

    A grid run holds at most its table, the intermediates of the column
    being formed and, as it writes, one encoder block: `run_command` peaks
    at 1.10-1.57 tables, and a whole run at 1.40-2.22 tables at 5000 rows
    and 1.10-1.56 at 20 000 (see README).
    """
    axis, swept = grid, {}
    for key, value in params.items():
        if isinstance(value, np.ndarray):
            axis, label, swept = value, f"{key}={{:g}}".format, {key: value}
    try:
        cols = {**swept, **columns(grid.item() if grid.size == 1 else grid)}
        names = list(cols)
        units = [_UNITS.get(name, "-") for name in cols]
        metadata = {**_BASE_METADATA, "command": command, "config": dict(params), **metadata}
        if axis.size > 1:
            # an array is reshaped, as a polariton grid swept over n_min is
            # (1, rows); a scalar is held as a zero-stride view of one
            # float64, which takes a sixth of the time of np.broadcast_to
            return ResultTable._from_columns(names, units, [
                values.reshape(axis.shape) if isinstance(values, np.ndarray)
                else np.ndarray(axis.shape, float, np.float64(values), strides=(0,))
                for values in cols.values()
            ], metadata)
        data = np.empty((1, len(cols)))
        for j, values in enumerate(cols.values()):
            data[:, j] = values
        return ResultTable(names, units, data, metadata)
    except (FeasibilityError, NumericalGuardError) as exc:
        raise type(exc)(f"row {exc.row} ({label(axis[exc.row])}): {exc}") from exc


def _convention(params):
    name = params["convention"]
    if name == "general":
        return kin.general(params["momentum_kgms"])
    return kin.ABRAHAM if name == "abraham" else kin.MINKOWSKI


def _omega(params, key):
    """The energy `params[key]` (eV) in rad/s, checked for underflow and overflow."""
    omega = params[key] * EV / HBAR
    require(f"{key} in rad/s", omega, POSITIVE, ConfigError)
    return omega


def run_polariton(params):
    conv = _convention(params)
    photon = kin.PhotonInput(omega=_omega(params, "energy_ev"))
    hw = photon.energy
    # hbar*k0 and v_before can underflow to 0: divide by them as numpy does, in every row
    hk0 = np.float64(HBAR * photon.k0)
    grid = _linspace(params["n_min"], params["n_max"], params, "n_points")

    def columns(n):
        block = kin.MediumBlock(n=n, M=params["mass_kg"])
        sol = kin.solve_transmission(photon, block, conv)
        v_before, v_after = kin.cev_check(photon, block, sol)
        cev_residual = np.divide(v_after - v_before, v_before)
        # the fields that columns read, each dropped as its column is formed;
        # the others go with the solution
        field = {name: getattr(sol, name)
                 for name in ("E", "E_f", "E_d", "p", "p_f", "p_d", "delta_m", "V_r")}
        del sol, v_after
        return {
            "n": n, "E_over_hw": field.pop("E") / hw, "Ef_over_hw": field.pop("E_f") / hw,
            "Ed_over_hw": field.pop("E_d") / hw, "p_over_hk0": field.pop("p") / hk0,
            "pf_over_hk0": field.pop("p_f") / hk0, "pd_over_hk0": field.pop("p_d") / hk0,
            "dmc2_over_hw": field.pop("delta_m") * kin.C**2 / hw, "V_r": field.pop("V_r"),
            "cev_residual": cev_residual,
        }

    return _grid_table("polariton", params, grid, "n={:g}".format, columns)


def _linspace(lo, hi, params, key):
    """np.linspace from `lo` to `hi` over `params[key]` points; a count that
    cannot be allocated is a config error."""
    try:
        return np.linspace(lo, hi, params[key])
    # numpy's error for a count it cannot allocate depends on the count; the
    # bounds are finite, and the count an integer >= 1
    except (ValueError, IndexError, MemoryError) as exc:
        raise ConfigError(f"{key} = {params[key]} is more points than can be "
                          f"allocated") from exc


def _omega_grid(params, section):
    """The omega grid (rad/s) of a `section` run; more than one point reads
    omega_max_ev."""
    w_min = _omega(params, "omega_min_ev")
    points = params["omega_points"]
    if points == 1:
        return np.array(w_min, ndmin=1)
    if params.get("omega_max_ev") is None:
        raise ConfigError(f"missing required key for {section}: omega_max_ev")
    w_max = _omega(params, "omega_max_ev")
    if w_max <= w_min:
        raise ConfigError("omega_max_ev must exceed omega_min_ev")
    return _linspace(w_min, w_max, params, "omega_points")


def _omega_label(omega):
    return f"omega={omega * HBAR / EV:g} eV"


def _inputs(params, omega):
    """Input occupations (in1, in3) over omega: each side's fixed occupation,
    else the Bose-Einstein occupation at its temperature, else 0."""
    out = []
    for occ_key, temp_key in (("in1", "t_left_k"), ("in3", "t_right_k")):
        occ = params.get(occ_key)
        temp = params.get(temp_key)
        if occ is not None and temp is not None:
            raise ConfigError(f"give either {occ_key} or {temp_key}, not both")
        if temp is not None:
            occ = cav.bose_einstein(omega, temp)
            # kB*T / (hbar*omega) can exceed the float range
            require(f"{occ_key} from {temp_key}", occ, NONNEGATIVE, NumericalGuardError)
        out.append(0.0 if occ is None else occ)
    return out


def run_cavity(params):
    stack = cav.LayerStack(params["eps1"], params["eps2"], params["eps3"], params["d2_m"])

    def columns(omega):
        in1, in3 = _inputs(params, omega)
        pn = cav.photon_numbers(stack, omega, in1, in3)
        return {
            "omega_ev": omega * HBAR / EV, "n1p": pn.n1p, "n1m": pn.n1m, "n2p": pn.n2p,
            "n2m": pn.n2m, "n3p": pn.n3p, "n3m": pn.n3m, "R1_sq": pn.R1_sq,
            "T1T2_sq_weighted": pn.T_sq, "identity_residual": pn.R1_sq + pn.T_sq - 1.0,
        }

    return _grid_table("cavity", params, _omega_grid(params, "cavity"), _omega_label, columns)


def _run_force_ar(params):
    def columns(omega):
        f1, f2, kappa = frc.ar_interface_forces(params["n_index"], omega, params["in1"],
                                                params["area_m2"])
        return {"omega_ev": omega * HBAR / EV, "F1": f1, "F2": f2, "F1_plus_F2": f1 + f2,
                "kappa": kappa}

    return _grid_table(
        "force", params, _omega_grid(params, "force"), _omega_label, columns,
        kappa_paper_value=1.0,
        kappa_note=(
            "measured kappa = 1/2 under the average photon-number and "
            "two-direction LDOS conventions; fixed factor vs the asserted 1"
        ),
    )


def run_force(params):
    mode = params["mode"]
    row = first_row(params.get("in1", 0.0) <= 0)  # a rule's row names a sweep point
    if mode != "thermal" and row is not None:
        raise ConfigError(f"{mode} mode requires a positive in1 beam occupation", row=row)
    if mode == "ar":
        return _run_force_ar(params)
    stack = cav.LayerStack(params["eps1"], params["eps2"], params["eps3"], params["d2_m"])
    S = params["area_m2"]
    mismatch = first_row(stack.eps1 != stack.eps3)
    if mode == "beam" and mismatch is not None:
        raise ConfigError("beam mode requires eps1 == eps3", row=mismatch)

    def columns(omega):
        in1, in3 = _inputs(params, omega)
        row = first_row(in3 != 0.0) if mode == "beam" else None
        if row is not None:
            raise ConfigError("beam mode requires zero right-side input (in3 or t_right_k)",
                              row=row)
        numbers = cav.photon_numbers(stack, omega, in1, in3)
        ratio = frc.beam_ratio(numbers) if mode == "beam" else None
        totals = numbers.totals
        # the rest of the record and the inputs (8 arrays on a thermal grid)
        # are freed before the impulses, and the totals before the columns
        del numbers, in1, in3
        imp1, imp2 = frc._impulses(stack, omega, totals)
        net = frc._net_pressure(stack, omega, totals, S)
        del totals
        impulse = S * (imp1.total + imp2.total)
        cols = {"omega_ev": omega * HBAR / EV}
        for name, x in zip(_FORCE_COLUMNS, (*imp1, *imp2)):  # zcf1 to ncf2
            x *= S  # in place where x is an array, to the bits of S * x
            cols[name] = x
        cols["net_pressure"], cols["net_impulse"] = net, impulse
        if mode == "beam":
            cols["F_over_F0"] = ratio
        return cols

    omega = _omega_grid(params, "force")
    table = _grid_table("force", params, omega, _omega_label, columns,
                        eps1_ne_eps3_warning=mismatch is not None)
    if omega.size > 1:  # the table's own columns, checked finite
        for name in ("net_pressure", "net_impulse"):
            key = f"integrated_{name}_N"
            value = float(np.trapezoid(table._column(name), omega))
            if not math.isfinite(value):
                raise NumericalGuardError(f"non-finite value {value!r} in {key}")
            table.metadata[key] = value
    return table


def run_sweep(params):
    """Evaluate the single-row base run once, with the swept key set to the
    array of sweep values: every row is computed in the same array call, and
    the swept values are the table's first column, and its metadata is the
    base run's, with the sweep's command and config.  A config error about
    one value names its row."""
    base = params["base"]
    key = params["parameter"]
    base_params = params["base_params"]
    rows_key = "n_points" if base == "polariton" else "omega_points"
    if base_params[rows_key] != 1:
        raise ConfigError(f"sweep base is configured for {base_params[rows_key]} rows; "
                          f"configure it for a single row ({rows_key} = 1)")
    lo, hi = params["min"], params["max"]
    if not math.isfinite(hi - lo):  # np.linspace would give nan and inf
        raise ConfigError(f"max - min overflows: min = {lo!r}, max = {hi!r}")
    values = _linspace(lo, hi, params, "points")
    try:
        require(key, values, _KEY_TABLES[base][key][2], ConfigError)
        table = _RUNNERS[base]({**base_params, key: values})
    except ConfigError as exc:
        if exc.row is None:
            raise
        raise ConfigError(f"row {exc.row} ({key}={values[exc.row]:g}): {exc}") from exc
    table.metadata.update(command="sweep", config=dict(params))
    return table


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
    with np.errstate(all="ignore"):  # energies, sweep values and outputs are checked
        return _RUNNERS[command](params)


def _json_metadata(text):
    """`json.loads(text)["metadata"]` where the text is a JSON object with
    that key; None for any other valid JSON.  The top-level object is read
    here, key by key, and each value other than the metadata with
    `parse_float=len`: the scanner still checks every token, so what
    `json.loads` refuses raises the same error, but no data value becomes a
    float."""
    import json  # as in table.py: a CSV run never loads it
    from json.decoder import WHITESPACE, scanstring

    if isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    if not (isinstance(text, str) and text.lstrip(" \t\n\r").startswith("{")):
        payload = json.loads(text)
        return payload.get("metadata") if isinstance(payload, dict) else None
    plain, skim, ws = json.JSONDecoder(), json.JSONDecoder(parse_float=len), WHITESPACE.match

    def past(char, at, what):
        if not text.startswith(char, at):
            raise json.JSONDecodeError(f"Expecting {what}", text, at)
        return at + 1

    md, i = None, ws(text, ws(text).end() + 1).end()  # past the "{"
    more = not text.startswith("}", i)  # "{}"; after a ",", a "}" is no key
    while more:
        key, i = scanstring(text, past('"', i, "property name enclosed in double quotes"))
        i = ws(text, past(":", ws(text, i).end(), "':' delimiter")).end()
        value, i = (plain if key == "metadata" else skim).raw_decode(text, i)
        md = value if key == "metadata" else md
        i = ws(text, i).end()
        more = not text.startswith("}", i)
        i = ws(text, past(",", i, "',' delimiter")).end() if more else i
    end = ws(text, i + 1).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return md


def rerun_from_json(text, jobs=1):
    """Re-execute the run recorded in an emitted JSON result's metadata,
    checked as a config file's sections are.  Only the metadata is read, and
    no table is built from the data: the text is checked as `json.loads`
    checks it, integers included, but the data's numbers are never made
    floats.  Read so, a 20 000-row beam result took 15-28 ms with a 1.7 MB
    peak, against 59-119 ms and 6.5 MB through `json.loads` (two runs on a
    shared 2.0 GHz Xeon, Python 3.11).  `jobs` is accepted for
    compatibility and has no effect."""
    md = _json_metadata(text)
    if not isinstance(md, dict):
        md = {}
    command, config = md.get("command"), md.get("config")
    if not (isinstance(command, str) and command in _KEY_TABLES and isinstance(config, dict)):
        raise ConfigError("JSON result carries no embedded command/config")
    sections = {command: dict(config)}
    if command == "sweep":  # only a sweep nests its base's section
        sections.setdefault(str(config.get("base")), sections[command].pop("base_params", None))
    return run_command(command, _resolve(command, sections))


_COMMANDS = tuple(_KEY_TABLES)
_FORMATS = ("csv", "json")


def _job_count(text):
    """`text` as a --jobs count, an integer >= 1; else None."""
    try:
        count = int(text)
    except ValueError:
        return None
    return count if count >= 1 else None


def _jobs(text):
    count = _job_count(text)
    if count is None:
        import argparse

        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return count


def _build_parser():
    """A new argparse parser for the CLI, built for each argv that
    `_plain_args` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="photonforces", description="Polariton kinematics and cavity electromagnetic forces.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="INI config file path")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=_FORMATS, default="csv")
    parser.add_argument("--jobs", type=_jobs, default=1, help="accepted for compatibility; "
                        "no effect (grids are evaluated as arrays)")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="config overrides; section.key=value targets another section")
    return parser


def _plain_args(argv):
    """`vars(_build_parser().parse_intermixed_args(argv))` for plain argv
    (see the module docstring), read in one pass; else None.  As in argparse,
    each token that does not start with `-` ("" too) is a positional, the
    first of them the command, and an option given twice keeps its last value."""
    args = {"config": None, "out": None, "format": "csv", "jobs": 1}
    positionals = []
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        value = next(tokens, "-")
        if token not in ("--config", "--out", "--format", "--jobs") or value.startswith("-"):
            return None
        name = token[2:]
        if name == "format" and value not in _FORMATS:
            return None
        if name == "jobs":
            value = _job_count(value)
            if value is None:
                return None
        args[name] = value
    if args["config"] is None or not positionals or positionals[0] not in _COMMANDS:
        return None
    args["command"], args["overrides"] = positionals[0], positionals[1:]
    return args


def _parse(argv):
    """`_plain_args(argv)`, or else argparse's reading of argv.  With fd 2
    closed at start-up (`sys.stderr` is None) argparse would print an
    error's usage text to stdout, into the data, so it gets devnull."""
    args = _plain_args(argv)
    if args is not None:
        return args
    if sys.stderr is not None:
        return vars(_build_parser().parse_intermixed_args(argv))
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        return vars(_build_parser().parse_intermixed_args(argv))


def _to_devnull(fd):
    """Point `fd` at devnull, so that the interpreter's final flush of the
    stream on it cannot fail (exit 120)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    if devnull != fd:  # a closed fd is the lowest free one, so it may come back here
        os.dup2(devnull, fd)
        os.close(devnull)


def _fail(message, code):
    """Print `message` to stderr and return the exit `code`: a stderr that is
    closed or full loses the message, not the code."""
    try:
        if sys.stderr is not None:  # else fd 2 was closed when the interpreter started
            print(message, file=sys.stderr)
            sys.stderr.flush()
    except OSError:
        _to_devnull(2)
    return code


# the writers' bytes go straight to a binary file where a text file would
# write the same ones: where it translates no line ends
_BYTES = os.linesep == "\n"


def _byte_stream(stdout):
    """The binary file under the text stream `stdout`, flushed first, where
    the text's bytes would be the same (its encoding writes "\\n" as one
    byte and no byte-order mark); else `stdout` itself, e.g. a `StringIO`."""
    buffer = getattr(stdout, "buffer", None)
    if not _BYTES or buffer is None or "\n".encode(stdout.encoding) != b"\n":
        return stdout
    stdout.flush()
    return buffer


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)  # as argparse reads it
    args = _parse(argv)
    out = args["out"]
    try:
        params = load_config(args["config"], args["command"], args["overrides"])
        table = run_command(args["command"], params)
        write = table.write_json if args["format"] == "json" else table.write_csv
        if out is not None:
            try:
                with open(out, "wb" if _BYTES else "w") as fh:
                    write(fh)
            except OSError as exc:
                message = f"cannot write output file {out}: {exc.strerror}"
                raise ConfigError(message) from exc
        else:
            try:
                if sys.stdout is None:  # fd 1 was closed when the interpreter started
                    raise ConfigError("cannot write to stdout: it is closed")
                stream = _byte_stream(sys.stdout)
                write(stream)
                stream.flush()
            except OSError as exc:
                _to_devnull(1)
                if not isinstance(exc, BrokenPipeError):  # `| head` quitting early is no error
                    raise ConfigError(f"cannot write to stdout: {exc.strerror}") from exc
        return 0
    except ConfigError as exc:
        return _fail(f"error: config: {exc}", 2)
    except FeasibilityError as exc:
        return _fail(f"error: feasibility: {exc}", 3)
    except NumericalGuardError as exc:
        return _fail(f"error: numerical-guard: {exc}", 4)


if __name__ == "__main__":
    sys.exit(main())
