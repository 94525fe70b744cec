"""Tests for config parsing, the four CLI commands, and serialization."""

import json
import math
import warnings

import numpy as np
import pytest

from photonforces.cli import (
    load_config,
    main,
    rerun_from_json,
    run_cavity,
    run_command,
    run_force,
    run_polariton,
    run_sweep,
)
from photonforces.constants import C, EV, HBAR
from photonforces.errors import ConfigError
from photonforces.table import ResultTable

REL = 1e-12

# eps2 = 1e32 makes r1 r2 = -1 to rounding; at 1 eV the first width is an
# anti-resonance and the second lies just outside the resonance guard
STRONG_MIRROR_WIDTHS = (9.298814882490022e-23, 1.8601140800006373e-22)

CONFIG = """
[polariton]
energy_ev = 1.0
n_min = 1.0
n_max = 3.0
n_points = 9
mass_kg = 1.0
convention = minkowski

[cavity]
eps1 = 1.0
eps2 = 4.0
eps3 = 1.0
d2_m = 1e-6
omega_min_ev = 0.5
omega_max_ev = 2.0
omega_points = 4
in1 = 1.0
in3 = 0.0

[force]
mode = beam
eps2 = 4.0
d2_m = 1e-6
omega_min_ev = 1.0
in1 = 1.0
area_m2 = 1.0

[sweep]
base = force
parameter = d2_m
min = 1e-7
max = 1e-6
points = 5
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return str(path)


class TestConfigParsing:
    def test_loads_section(self, config_path):
        params = load_config(config_path, "polariton")
        assert params["energy_ev"] == 1.0
        assert params["convention"] == "minkowski"

    def test_rejects_unknown_key(self, config_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(config_path, "polariton", ["frobnicate=1"])

    def test_rejects_bad_value(self, config_path):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(config_path, "polariton", ["mass_kg=heavy"])

    def test_rejects_missing_section(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[polariton]\n")
        with pytest.raises(ConfigError, match="no \\[force\\] section"):
            load_config(str(path), "force")

    def test_override_wins_over_file(self, config_path):
        params = load_config(config_path, "polariton", ["mass_kg=2.5"])
        assert params["mass_kg"] == 2.5

    def test_cross_section_override(self, config_path):
        params = load_config(config_path, "sweep", ["force.area_m2=3.0"])
        assert params["base_params"]["area_m2"] == 3.0

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[force]\nmode = beam\n")
        with pytest.raises(ConfigError, match="missing required"):
            run_force(load_config(str(path), "force"))


class TestPolaritonCommand:
    def test_minkowski_curves(self, config_path):
        table = run_polariton(load_config(config_path, "polariton"))
        for row in table.rows:
            n = row[table.columns.index("n")]
            assert row[table.columns.index("E_over_hw")] == pytest.approx(
                n**2, rel=1e-12
            )
            assert row[table.columns.index("p_over_hk0")] == pytest.approx(
                n, rel=1e-12
            )
        n2 = table.rows[4]  # n = 2 row of the 9-point [1, 3] grid
        assert n2[table.columns.index("Ed_over_hw")] == pytest.approx(3.0, rel=1e-12)

    def test_vacuum_row_has_no_dipole_part(self, config_path):
        for conv in ("minkowski", "abraham"):
            table = run_polariton(
                load_config(config_path, "polariton", [f"convention={conv}"])
            )
            first = table.rows[0]
            assert first[table.columns.index("Ed_over_hw")] == 0.0
            assert first[table.columns.index("pd_over_hk0")] == 0.0

    def test_abraham_energy_identically_one(self, config_path):
        table = run_polariton(
            load_config(config_path, "polariton", ["convention=abraham"])
        )
        assert all(r[table.columns.index("E_over_hw")] == 1.0 for r in table.rows)

    def test_feasibility_error_identifies_row(self, config_path):
        from photonforces.errors import FeasibilityError

        # row 0 is vacuum (no dipole mass); row 1, n = 1.25, is the first too heavy
        with pytest.raises(FeasibilityError, match=r"^row 1 \(n=1.25\): dipole mass"):
            run_polariton(
                load_config(config_path, "polariton", ["mass_kg=1e-40"])
            )


class TestCavityCommand:
    def test_equilibrium_columns_equal(self, config_path):
        table = run_cavity(
            load_config(config_path, "cavity", ["in1=0.8", "in3=0.8"])
        )
        for row in table.rows:
            vals = [row[table.columns.index(c)] for c in
                    ("n1p", "n1m", "n2p", "n2m", "n3p", "n3m")]
            assert max(vals) - min(vals) < 1e-12

    def test_empty_cavity(self, config_path):
        table = run_cavity(load_config(config_path, "cavity", ["eps2=1.0"]))
        for row in table.rows:
            assert row[table.columns.index("R1_sq")] == 0.0
            assert abs(row[table.columns.index("identity_residual")]) < 1e-12

    def test_quarter_wave_row(self, config_path):
        # quarter-wave at 1 eV: d2 = lambda0/(4 n2)
        lam0 = 2 * math.pi * 2.99792458e8 / (1.0 * 1.602176634e-19 / 1.0545718176461565e-34)
        table = run_cavity(
            load_config(
                config_path, "cavity",
                [f"d2_m={lam0 / 8.0}", "omega_min_ev=1.0", "omega_points=1"],
            )
        )
        assert table.rows[0][table.columns.index("R1_sq")] == pytest.approx(
            0.36, rel=1e-9
        )

    def test_thermal_inputs(self, config_path):
        table = run_cavity(
            load_config(
                config_path, "cavity",
                ["in1=", "in3=", "t_left_k=300", "t_right_k=300"],
            )
        )
        for row in table.rows:
            assert row[table.columns.index("n1p")] == pytest.approx(
                row[table.columns.index("n3m")], rel=1e-12
            )

    def test_rejects_both_occupation_and_temperature(self, config_path):
        with pytest.raises(ConfigError, match="not both"):
            run_cavity(load_config(config_path, "cavity", ["t_left_k=300"]))


class TestStrongMirrors:
    """The intracavity numbers of a lossless stack are phase-free: with
    in1 = 1, in3 = 0 and vacuum outside, n2+ = n2- = (1 + n2)^2 / (2 (1 + n2^2)),
    which is 1/2 to rounding at n2 = 1e16."""

    def intracavity_columns(self, capsys, argv):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
        return [(row[header.index("n2p")], row[header.index("n2m")]) for row in rows]

    @pytest.mark.parametrize("d2", STRONG_MIRROR_WIDTHS)
    def test_one_row_call(self, config_path, capsys, d2):
        cols = self.intracavity_columns(capsys, [
            "cavity", "--config", config_path, "eps2=1e32", f"d2_m={d2!r}",
            "omega_min_ev=1.0", "omega_points=1",
        ])
        assert len(cols) == 1
        for value in cols[0]:
            assert value == pytest.approx(0.5, rel=REL)

    def test_two_point_sweep(self, config_path, capsys):
        lo, hi = STRONG_MIRROR_WIDTHS
        cols = self.intracavity_columns(capsys, [
            "sweep", "--config", config_path, "base=cavity", "cavity.eps2=1e32",
            "cavity.omega_min_ev=1.0", "cavity.omega_points=1", "parameter=d2_m",
            f"min={lo!r}", f"max={hi!r}", "points=2",
        ])
        assert len(cols) == 2
        for row in cols:
            for value in row:
                assert value == pytest.approx(0.5, rel=REL)


class TestForceCommand:
    def test_beam_mode_ratio(self, config_path):
        table = run_force(load_config(config_path, "force"))
        row = table.rows[0]
        assert row[table.columns.index("net_pressure")] == pytest.approx(
            row[table.columns.index("net_impulse")], rel=1e-12
        )
        assert 0.0 <= row[table.columns.index("F_over_F0")] <= 1.0

    def test_equilibrium_thermal_mode_zero_net(self, config_path):
        table = run_force(
            load_config(
                config_path, "force",
                ["mode=thermal", "in1=", "t_left_k=300", "t_right_k=300",
                 "omega_max_ev=2.0", "omega_points=5"],
            )
        )
        for row in table.rows:
            assert row[table.columns.index("net_pressure")] == 0.0

    def test_ar_mode(self, config_path):
        table = run_force(
            load_config(config_path, "force", ["mode=ar", "n_index=2.0"])
        )
        row = table.rows[0]
        assert row[table.columns.index("F1_plus_F2")] == 0.0
        assert row[table.columns.index("kappa")] == pytest.approx(0.5, rel=1e-12)
        assert table.metadata["kappa_paper_value"] == 1.0

    def test_eps_mismatch_flagged_in_metadata(self, config_path):
        table = run_force(
            load_config(
                config_path, "force",
                ["mode=thermal", "eps3=2.25", "in1=", "t_left_k=300", "t_right_k=0"],
            )
        )
        assert table.metadata["eps1_ne_eps3_warning"] is True

    def test_beam_mode_rejects_eps_mismatch(self, config_path):
        with pytest.raises(ConfigError, match="eps1 == eps3"):
            run_force(load_config(config_path, "force", ["eps3=2.25"]))

    def test_beam_mode_rejects_thermal_right_input(self, config_path):
        with pytest.raises(ConfigError, match="zero right-side input"):
            run_force(load_config(config_path, "force", ["t_right_k=300"]))

    def test_eps_mismatch_warning_is_suppressed(self, config_path):
        params = load_config(
            config_path, "force",
            ["mode=thermal", "eps3=2.25", "in1=", "t_left_k=300", "t_right_k=0",
             "omega_max_ev=2.0", "omega_points=5"],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_force(params)


class TestGridErrors:
    @pytest.mark.parametrize("command", ["cavity", "force"])
    def test_guard_error_names_first_row_and_omega(self, config_path, command, capsys):
        # eps2 = 1e32 gives |r1 r2| = 1 - 4e-16; d2 puts the 1 eV row on a
        # round-trip phase of 3 * 2 pi, where |1 + r1 r2 e| < 1e-14
        omega = 1.0 * EV / HBAR
        d2 = 3.0 * (2.0 * math.pi) / (2.0 * 1e16 * omega / C)
        code = main([
            command, "--config", config_path, "eps2=1e32", f"d2_m={d2!r}",
            "omega_min_ev=0.5", "omega_max_ev=1.0", "omega_points=2",
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numerical-guard: row 1 (omega=1 eV): degenerate resonance")


class TestSweepCommand:
    def test_d2_sweep(self, config_path):
        table = run_sweep(load_config(config_path, "sweep"))
        assert table.columns[0] == "d2_m"
        assert len(table.rows) == 5
        assert [r[0] for r in table.rows] == pytest.approx(
            list(np.linspace(1e-7, 1e-6, 5))
        )

    def test_ar_n_sweep_cancellation_column(self, config_path):
        table = run_sweep(
            load_config(
                config_path, "sweep",
                ["parameter=n_index", "min=1.1", "max=4.0", "points=7",
                 "force.mode=ar", "force.n_index=2.0"],
            )
        )
        idx = table.columns.index("F1_plus_F2")
        assert all(row[idx] == 0.0 for row in table.rows)
        kappas = table.column("kappa")
        assert max(kappas) - min(kappas) < 1e-10

    def test_rejects_multirow_base(self, config_path):
        with pytest.raises(ConfigError, match="single row"):
            run_sweep(
                load_config(
                    config_path, "sweep",
                    ["force.omega_max_ev=2.0", "force.omega_points=3"],
                )
            )

    def test_rejects_unknown_parameter(self, config_path):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(config_path, "sweep", ["parameter=bogus"])

    @pytest.mark.parametrize("base, key, listed", [
        ("force", "mode", "area_m2"), ("force", "omega_points", "omega_min_ev"),
        ("polariton", "convention", "momentum_kgms"), ("polariton", "n_points", "n_min"),
    ])
    def test_rejects_non_float_parameter(self, config_path, base, key, listed):
        with pytest.raises(ConfigError) as info:
            load_config(config_path, "sweep", [f"base={base}", f"parameter={key}",
                                               "min=1", "max=1.9", "points=3"])
        head, keys = str(info.value).split("; sweepable keys: ")
        assert head == f"sweep parameter {key!r} is unknown or not a float key of {base}"
        assert listed in keys.split(", ")
        assert key not in keys.split(", ")

    @pytest.mark.parametrize("base, key, extra, reason", [
        *[(base, key, [], "a sweep base is single-row, so it reads only the grid minimum")
          for base, key in (("polariton", "n_max"), ("cavity", "omega_max_ev"),
                            ("force", "omega_max_ev"))],
        ("polariton", "momentum_kgms", [], "it is read only when convention = general"),
        ("force", "n_index", [], "it is read only when mode = ar"),
        ("force", "n_index", ["force.mode=thermal"], "it is read only when mode = ar"),
        *[("force", key, ["force.mode=ar", "force.n_index=2.0"],
           "mode = ar reads no stack, in3 or temperature key")
          for key in ("eps1", "eps2", "eps3", "d2_m", "in3", "t_left_k", "t_right_k")],
    ])
    def test_rejects_parameter_the_base_never_reads(self, config_path, capsys, base, key,
                                                    extra, reason):
        code = main(["sweep", "--config", config_path, f"base={base}", f"parameter={key}",
                     "min=1", "max=1.9", "points=3", *extra])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: config: sweep parameter {key!r} is never read by the {base} base: "
            f"{reason}\n"
        )

    def test_accepts_momentum_under_general_convention(self, config_path):
        table = run_sweep(load_config(config_path, "sweep", [
            "base=polariton", "polariton.n_points=1", "polariton.n_min=1.5",
            "polariton.convention=general", "polariton.momentum_kgms=5e-28",
            "parameter=momentum_kgms", "min=4e-28", "max=6e-28", "points=3",
        ]))
        assert len(set(table.column("E_over_hw"))) == 3

    def test_feasibility_error_names_sweep_point(self, config_path, capsys):
        code = main([
            "sweep", "--config", config_path, "base=polariton", "polariton.n_points=1",
            "polariton.n_min=1.5", "parameter=mass_kg", "min=1", "max=1e-40", "points=3",
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: feasibility: row 2 (mass_kg=1e-40): dipole mass 2.22833e-36 kg "
            "exceeds block mass 1e-40 kg\n"
        )

    def test_guard_error_names_sweep_point(self, config_path, capsys):
        # as in TestGridErrors: eps2 = 1e32 and the last d2 puts the 1 eV
        # round-trip phase on 3 * 2 pi, where |1 + r1 r2 e| < 1e-14
        omega = 1.0 * EV / HBAR
        d2 = 3.0 * (2.0 * math.pi) / (2.0 * 1e16 * omega / C)
        code = main([
            "sweep", "--config", config_path, "base=cavity", "cavity.eps2=1e32",
            "cavity.omega_min_ev=1.0", "cavity.omega_points=1", "parameter=d2_m",
            f"min={d2 / 4!r}", f"max={d2!r}", "points=2",
        ])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: numerical-guard: row 1 (d2_m=1.85976e-22): degenerate resonance: "
            "|1 + r1 r2 e^(2 i k2 d2)| = 0\n"
        )


class TestSerialization:
    def test_csv_round_trips_doubles(self, config_path):
        table = run_polariton(load_config(config_path, "polariton"))
        lines = table.to_csv().splitlines()
        assert lines[0].startswith("n,")
        for row, line in zip(table.rows, lines[2:]):
            assert [float(x) for x in line.split(",")] == row

    def test_json_round_trip(self, config_path):
        table = run_cavity(load_config(config_path, "cavity"))
        back = ResultTable.from_json(table.to_json())
        assert back.columns == table.columns
        assert back.rows == table.rows
        assert back.metadata == table.metadata

    @pytest.mark.parametrize("command", ["polariton", "cavity", "force", "sweep"])
    def test_json_output_is_the_indent_encoder_text(self, config_path, command, capsys):
        assert main([command, "--config", config_path, "--format", "json"]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_rerun_from_json_bitwise(self, config_path):
        for command in ("polariton", "cavity", "force", "sweep"):
            table = run_command(command, load_config(config_path, command))
            text = table.to_json()
            again = rerun_from_json(text)
            assert again.to_json() == text

    def test_metadata_records_conventions(self, config_path):
        table = run_force(load_config(config_path, "force"))
        assert table.metadata["constants_version"] == "CODATA-2018"
        assert "rho0" in table.metadata["ldos_normalization"]
        assert "average" in table.metadata["total_photon_number"]


class TestMainEntry:
    def test_success_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["polariton", "--config", config_path, "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("n,")

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_rejects_jobs_below_one(self, config_path, jobs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["cavity", "--config", config_path, "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_parallel_is_byte_identical(self, config_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["cavity", "--config", config_path, "--out", str(a)]) == 0
        assert main(
            ["cavity", "--config", config_path, "--jobs", "4", "--out", str(b)]
        ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_error_exit_code(self, config_path, capsys):
        code = main(["polariton", "--config", config_path, "nonsense=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "\n" not in err.strip()

    def test_feasibility_exit_code(self, config_path, capsys):
        code = main(["polariton", "--config", config_path, "mass_kg=1e-40"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: feasibility:")

    def test_json_output_embeds_config(self, config_path, capsys):
        code = main(["force", "--config", config_path, "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["command"] == "force"
        assert payload["metadata"]["config"]["mode"] == "beam"
