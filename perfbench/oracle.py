"""Output oracle, independent of the package under test.

Every check here is a closed form written from the physics, with its own
constants; nothing is imported from `photonforces`.  Tolerances are the ones
the package's own tests fix (1e-12, relative or against an O(1) scale).

    |R1|^2   Airy form of a lossless three-layer stack,
             (r1^2 + r2^2 + 2 r1 r2 cos phi) / (1 + r1^2 r2^2 + 2 r1 r2 cos phi),
             phi = 2 n2 omega d2 / c
    n2+-     intracavity numbers of the same stack, r = r1^2, s = r2^2:
             n2+ = ((1 - r) in1 + (1 - s) r in3) / (1 - r s),
             n2- = ((1 - r) s in1 + (1 - s) in3) / (1 - r s);
             the Airy phase cancels between |nu2|^2 and the denominator
             Re[1 + 2 r1' r2 nu2 e^{i phi}] = (1 - r s) |nu2|^2
    beam     F/F0 = |R1|^2, net force = |R1|^2 F0, F0 = S hbar omega rho0 in1
    thermal  net force = S hbar omega rho0 n1 |R1|^2 (nBE(T_left) - nBE(T_right))
    AR slab  F1 = -F2 = -S hbar omega rho0 (n - 1) in1 / 2, kappa = 1/2
    polariton (Minkowski) E/hw = n^2, p/hk0 = n; (Abraham) E/hw = 1, p/hk0 = 1/n
"""

import json
import math

import numpy as np

C = 2.99792458e8
HBAR = 6.62607015e-34 / (2.0 * math.pi)
EV = 1.602176634e-19
KB = 1.380649e-23
RHO0 = 1.0 / (math.pi * C)
TOL = 1e-12

COLUMNS = {
    "polariton": ["n", "E_over_hw", "Ef_over_hw", "Ed_over_hw", "p_over_hk0", "pf_over_hk0",
                  "pd_over_hk0", "dmc2_over_hw", "V_r", "cev_residual"],
    "cavity": ["omega_ev", "n1p", "n1m", "n2p", "n2m", "n3p", "n3m",
               "R1_sq", "T1T2_sq_weighted", "identity_residual"],
    "force": ["omega_ev", "zcf1", "tcf1", "ncf1", "zcf2", "tcf2", "ncf2",
              "net_pressure", "net_impulse"],
    "force-ar": ["omega_ev", "F1", "F2", "F1_plus_F2", "kappa"],
}


class Mismatch(Exception):
    """An output that disagrees with the oracle."""


def parse_csv(text):
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        raise Mismatch("CSV is not header, units, rows, trailing newline")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[2:-1]]
    if any(len(r) != len(header) for r in rows):
        raise Mismatch("CSV row width differs from header")
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def parse_json(text):
    payload = json.loads(text)
    return {name: np.asarray(payload["data"][name], dtype=float) for name in payload["columns"]}


def _close(name, got, want, rel=TOL, scale=None):
    """|got - want| <= rel * scale (scale defaults to |want|, at least 1e-300)."""
    got = np.asarray(got, dtype=float)
    want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
    scale = np.abs(want) if scale is None else np.broadcast_to(scale, got.shape)
    bad = ~(np.abs(got - want) <= rel * np.maximum(scale, 1e-300))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise Mismatch(f"{name}: row {i} got {got.flat[i]!r}, expected {want.flat[i]!r}")


def airy_reflectance(n1, n2, n3, d2, omega):
    r1 = (n1 - n2) / (n1 + n2)
    r2 = (n2 - n3) / (n2 + n3)
    cos_phi = np.cos(np.remainder(2.0 * n2 * omega * d2 / C, 2.0 * math.pi))
    cross = 2.0 * r1 * r2 * cos_phi
    return (r1 * r1 + r2 * r2 + cross) / (1.0 + (r1 * r2) ** 2 + cross)


def intracavity_numbers(n1, n2, n3, in1, in3):
    """(n2+, n2-) of a lossless three-layer stack."""
    r = ((n1 - n2) / (n1 + n2)) ** 2
    s = ((n2 - n3) / (n2 + n3)) ** 2
    det = 1.0 - r * s
    return ((1.0 - r) * in1 + (1.0 - s) * r * in3) / det, \
        ((1.0 - r) * s * in1 + (1.0 - s) * in3) / det


def bose_einstein(omega, temp):
    if temp == 0:
        return np.zeros_like(omega)
    x = HBAR * omega / (KB * temp)
    with np.errstate(over="ignore"):
        return np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))


def _grid(name, got, lo, hi, points):
    if len(got) != points:
        raise Mismatch(f"{name}: {len(got)} rows, expected {points}")
    _close(name, got, np.linspace(lo, hi, points))


def _param(p, key, cols, default=None):
    """A per-row array when the op sweeps `key`, else the scalar input."""
    sweep = p.get("sweep")
    if sweep and sweep[0] == key:
        return cols[key]
    return p.get(key, default)


def check_polariton(cols, p):
    n = _param(p, "n_min", cols)
    if not (p.get("sweep") or p["n_points"] == 1):
        _grid("n", cols["n"], p["n_min"], p["n_max"], p["n_points"])
        n = cols["n"]
    else:
        _close("n", cols["n"], n)
    hw = _param(p, "energy_ev", cols) * EV
    mass = _param(p, "mass_kg", cols, 1.0)
    if p["convention"] == "minkowski":
        e_d = (n * n - 1.0)
        want = {"E_over_hw": n * n, "Ed_over_hw": e_d, "p_over_hk0": n,
                "pd_over_hk0": n - 1.0 / n, "dmc2_over_hw": e_d}
        v_r = hw * (1.0 - n) / ((mass - e_d * hw / C**2) * C)
    else:
        want = {"E_over_hw": 1.0, "Ed_over_hw": 0.0, "p_over_hk0": 1.0 / n,
                "pd_over_hk0": 0.0, "dmc2_over_hw": 0.0}
        v_r = hw * (1.0 - 1.0 / n) / (mass * C)
    want.update({"Ef_over_hw": 1.0, "pf_over_hk0": 1.0 / n})
    for name, value in want.items():
        _close(name, cols[name], value, scale=np.maximum(np.abs(value), 1.0))
    _close("V_r", cols["V_r"], v_r, scale=np.abs(v_r) + 1e-300)
    _close("cev_residual", cols["cev_residual"], 0.0, scale=1.0)


def _omega(cols, p):
    if p.get("sweep") or p.get("omega_points", 1) == 1:
        _close("omega_ev", cols["omega_ev"], p["omega_min_ev"])
    else:
        _grid("omega_ev", cols["omega_ev"], p["omega_min_ev"], p["omega_max_ev"],
              p["omega_points"])
    return cols["omega_ev"] * EV / HBAR


def _stack(p, cols):
    n1 = math.sqrt(p.get("eps1", 1.0))
    n2 = np.sqrt(_param(p, "eps2", cols))
    n3 = math.sqrt(p.get("eps3", 1.0))
    return n1, n2, n3, _param(p, "d2_m", cols)


def check_cavity(cols, p):
    omega = _omega(cols, p)
    n1, n2, n3, d2 = _stack(p, cols)
    refl = airy_reflectance(n1, n2, n3, d2, omega)
    in1, in3 = p["in1"], p["in3"]
    occ = max(1.0, in1, in3)
    _close("R1_sq", cols["R1_sq"], refl, scale=1.0)
    _close("T1T2_sq_weighted", cols["T1T2_sq_weighted"], 1.0 - refl, scale=1.0)
    _close("identity_residual", cols["identity_residual"], 0.0, scale=1.0)
    _close("n1p", cols["n1p"], in1, scale=occ)
    _close("n3m", cols["n3m"], in3, scale=occ)
    _close("n1m", cols["n1m"], refl * in1 + (1.0 - refl) * in3, scale=occ)
    _close("n3p", cols["n3p"], (1.0 - refl) * in1 + refl * in3, scale=occ)
    n2p, n2m = intracavity_numbers(n1, n2, n3, in1, in3)
    _close("n2p", cols["n2p"], n2p, scale=occ)
    _close("n2m", cols["n2m"], n2m, scale=occ)


def check_force(cols, p):
    if p["mode"] == "ar":
        return check_force_ar(cols, p)
    omega = _omega(cols, p)
    n1, n2, n3, d2 = _stack(p, cols)
    area = p["area_m2"]
    refl = airy_reflectance(n1, n2, n3, d2, omega)
    if p["mode"] == "beam":
        in1, in3 = p["in1"], 0.0
        _close("F_over_F0", cols["F_over_F0"], refl, scale=1.0)
    else:
        in1 = bose_einstein(omega, p["t_left_k"])
        in3 = bose_einstein(omega, p["t_right_k"])
    unit = area * HBAR * omega * RHO0
    # scale of tests/test_acceptance.py criterion 8
    scale = 4.0 * unit * (np.maximum(in1, in3) + 1.0)
    _close("net_impulse", cols["net_impulse"], cols["net_pressure"], scale=scale)
    _close("net_pressure", cols["net_pressure"], unit * n1 * refl * (in1 - in3), scale=scale)
    # Interface impulses: -hbar w [d(rho)/2 + d(rho) <n>_mean + rho_mean d<n>], with
    # each layer's total number the mean of its two directional numbers.
    n1t = 0.5 * (in1 + refl * in1 + (1.0 - refl) * in3)
    n3t = 0.5 * ((1.0 - refl) * in1 + refl * in3 + in3)
    n2t = 0.5 * sum(intracavity_numbers(n1, n2, n3, in1, in3))
    _close("zcf1", cols["zcf1"], -0.5 * unit * (n2 - n1), scale=scale)
    _close("zcf2", cols["zcf2"], -0.5 * unit * (n3 - n2), scale=scale)
    _close("ncf1", cols["ncf1"], -0.5 * unit * (n1 + n2) * (n2t - n1t), scale=scale)
    _close("tcf1", cols["tcf1"], -0.5 * unit * (n2 - n1) * (n1t + n2t), scale=scale)
    _close("tcf2", cols["tcf2"], -0.5 * unit * (n3 - n2) * (n2t + n3t), scale=scale)
    _close("ncf2", cols["ncf2"], -0.5 * unit * (n2 + n3) * (n3t - n2t), scale=scale)
    parts = sum(cols[c] for c in ("zcf1", "tcf1", "ncf1", "zcf2", "tcf2", "ncf2"))
    _close("impulse sum", parts, cols["net_impulse"], scale=scale)


def check_force_ar(cols, p):
    omega = _omega(cols, p)
    n = _param(p, "n_index", cols)
    f0 = p["area_m2"] * HBAR * omega * RHO0 * p["in1"]
    f1 = -f0 * (n - 1.0) / 2.0
    _close("F1", cols["F1"], f1)
    _close("F2", cols["F2"], -f1)
    _close("F1_plus_F2", cols["F1_plus_F2"], 0.0, scale=f0)
    _close("kappa", cols["kappa"], 0.5)


_CHECKS = {"polariton": check_polariton, "cavity": check_cavity, "force": check_force}


def check(op, code, text, rerun_same=True):
    """Raise Mismatch unless the op's exit code and output are what its
    inputs dictate."""
    if code != op.expect:
        raise Mismatch(f"exit code {code}, expected {op.expect}")
    if op.expect != 0:
        return
    if text is None:
        raise Mismatch("no output written")
    if op.roundtrip and not rerun_same:
        raise Mismatch("rerun_from_json output differs from the original bytes")
    p = op.check
    base = p["base"]
    cols = parse_json(text) if op.fmt == "json" else parse_csv(text)
    expected = COLUMNS["force-ar" if p.get("mode") == "ar" else base]
    if base == "force" and p.get("mode") == "beam":
        expected = expected + ["F_over_F0"]
    if "sweep" in p:
        key, lo, hi, points = p["sweep"]
        expected = [key] + expected
        _grid(key, cols.get(key, np.empty(0)), lo, hi, points)
    if list(cols) != expected:
        raise Mismatch(f"columns {list(cols)}, expected {expected}")
    rows = {len(v) for v in cols.values()}
    if rows != {op.rows}:
        raise Mismatch(f"{sorted(rows)} rows, expected {op.rows}")
    _CHECKS[base](cols, p)
