"""Tests for config parsing, the four CLI commands, and serialization."""

import configparser
import contextlib
import errno
import functools
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from photonforces import cli, forces
from photonforces.cavity import LayerStack
from photonforces.cli import (
    _KEY_TABLES,
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

    @pytest.mark.parametrize("override", ["eps2", "=5", " =5", "cavity.=5"])
    def test_rejects_override_without_a_key(self, config_path, override):
        with pytest.raises(ConfigError) as info:
            load_config(config_path, "cavity", [override])
        assert str(info.value) == f"override must be key=value, got {override!r}"

    def test_each_key_has_one_domain_in_every_section(self):
        domains = {}
        for table in _KEY_TABLES.values():
            for key, (parse, _, domain) in table.items():
                assert domains.setdefault(key, domain) == domain, key
                assert (domain is None) == (parse in (str, str.lower)), key

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

    def test_own_section_override(self, config_path):
        assert load_config(config_path, "sweep", ["sweep.points=3"])["points"] == 3
        assert load_config(config_path, "cavity", ["cavity.eps2=9"])["eps2"] == 9.0

    @pytest.mark.parametrize("command, override", [
        ("cavity", "cavty.eps2=9"),
        ("cavity", "force.eps2=9"),
        ("cavity", "sweep.points=0"),
        ("sweep", "cavity.eps2=9"),  # the sweep's base is force
        ("cavity", "Cavity.eps2=9"),  # a section name keeps its case
    ])
    def test_rejects_override_of_a_section_the_run_never_reads(self, config_path, capsys,
                                                              command, override):
        assert main([command, "--config", config_path, override]) == 2
        section = override.split(".")[0]
        assert capsys.readouterr().err == (
            f"error: config: override {override!r} sets a key of [{section}], which a "
            f"{command} run never reads\n")

    def test_percent_in_a_value_is_read_literally(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(CONFIG.replace("eps2 = 4.0", "eps2 = 4%", 1))
        assert main(["cavity", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: config: bad value for eps2: '4%'\n"

    def test_percent_in_an_unread_section_is_ignored(self, config_path, tmp_path):
        path = tmp_path / "notes.ini"
        path.write_text(CONFIG + "\n[notes]\ntext = 100% literal, not %(eps2)s\n")
        assert load_config(str(path), "cavity") == load_config(config_path, "cavity")

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[force]\nmode = beam\n")
        with pytest.raises(ConfigError, match="missing required"):
            run_force(load_config(str(path), "force"))

    # mode is read as given and convention in lower case
    @pytest.mark.parametrize("argv, code, err", [
        (["polariton", "convention=General"], 2,
         "error: config: missing required key for polariton: momentum_kgms\n"),
        (["polariton", "convention=General", "momentum_kgms=5e-28"], 0, ""),
        (["force", "mode=ar"], 2, "error: config: missing required key for force: n_index\n"),
        (["force", "mode=AR"], 2, "error: config: unknown force mode 'AR'\n"),
        (["force", "mode=ar", "n_index=2", "eps2=", "d2_m="], 0, ""),
        (["force", "mode=thermal", "d2_m="], 2,
         "error: config: missing required key for force: d2_m\n"),
        (["cavity", "omega_max_ev=", "omega_points=2"], 2,
         "error: config: missing required key for cavity: omega_max_ev\n"),
        (["force", "omega_points=2"], 2,
         "error: config: missing required key for force: omega_max_ev\n"),
    ])
    def test_required_key_is_missing_only_from_a_run_that_reads_it(self, config_path, capsys,
                                                                   argv, code, err):
        assert main([argv[0], "--config", config_path, "--out", os.devnull, *argv[1:]]) == code
        assert capsys.readouterr().err == err

    # the switch is checked as its section is parsed, before a sweep's parameter
    @pytest.mark.parametrize("argv, err", [
        (["force.mode=AR"], "unknown force mode 'AR'"),
        (["base=polariton", "parameter=momentum_kgms", "polariton.convention=Bogus"],
         "unknown convention 'Bogus'"),
        (["base=polariton", "parameter=energy_ev", "polariton.convention=Bogus"],
         "unknown convention 'Bogus'"),
    ])
    def test_unknown_switch_value_of_a_sweep_base(self, config_path, capsys, argv, err):
        assert main(["sweep", "--config", config_path, "--out", os.devnull, *argv]) == 2
        assert capsys.readouterr().err == f"error: config: {err}\n"

    # an override's key is lower-cased, as configparser lower-cases the file's keys
    @pytest.mark.parametrize("override, in3", [("IN3=0.25", 0.25), ("In3=", None)])
    def test_override_keys_are_case_insensitive(self, config_path, override, in3):
        assert load_config(config_path, "cavity", [override]).get("in3") == in3

    @pytest.mark.parametrize("argv, err", [
        (["cavity", "foo="], "unknown key(s) for cavity: foo"),
        (["cavity", "foo=", "Bar=1"], "unknown key(s) for cavity: bar, foo"),
        (["sweep", "force.foo="], "unknown key(s) for force: foo"),
    ])
    def test_unset_of_an_unknown_key_is_named(self, config_path, capsys, argv, err):
        assert main([argv[0], "--config", config_path, "--out", os.devnull, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: config: {err}\n"

    @pytest.mark.parametrize("name, code", [("missing.ini", errno.ENOENT), ("", errno.EISDIR)])
    def test_unreadable_config_says_why(self, tmp_path, capsys, name, code):
        path = os.path.join(tmp_path, name)
        assert main(["cavity", "--config", path]) == 2
        assert capsys.readouterr().err == (
            f"error: config: cannot read config file {path}: {os.strerror(code)}\n")

    # text that is not plain INI is read by configparser's rules, as before
    def test_default_section_reaches_the_command_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[DEFAULT]\nin1 = 0.5\n" + CONFIG.replace("in1 = 1.0\n", ""))
        assert load_config(str(path), "cavity")["in1"] == 0.5
        assert main(["cavity", "--config", str(path), "--out", os.devnull]) == 0

    def test_indented_line_continues_a_value(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(CONFIG.replace("eps2 = 4.0\n", "eps2 = 4.0\n  5.0\n", 1))
        assert main(["cavity", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: config: bad value for eps2: '4.0\\n5.0'\n"

    # a UTF-8 byte order mark is text before the first header; 0xff is no UTF-8
    @pytest.mark.parametrize("head, message", [
        (b"\xef\xbb\xbf", "File contains no section headers. "),
        (b"#\xff\n", "'utf-8' codec can't decode byte 0xff in position 1: invalid start byte\n"),
    ])
    def test_leading_bytes_fail_as_configparser_read_fails(self, tmp_path, capsys, head,
                                                           message):
        path = tmp_path / "run.ini"
        path.write_bytes(head + CONFIG.lstrip().encode())
        assert main(["cavity", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config: cannot parse config file {path}: {message}")

    def test_config_from_a_fifo_is_read_once(self, tmp_path):
        path = tmp_path / "run.fifo"
        os.mkfifo(path)
        done = threading.Event()

        def write():
            with open(path, "w") as fh:
                fh.write("[DEFAULT]\nin1 = 0.5\n" + CONFIG)
            if not done.wait(10):  # the reader opened the FIFO again: let it read nothing
                open(path, "w").close()

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        code = main(["cavity", "--config", str(path), "--out", os.devnull])
        done.set()
        writer.join(20)
        assert code == 0 and not writer.is_alive()

    # configparser.read's encoding: UTF-8 in UTF-8 mode, which the C locale turns on
    def test_utf8_config_is_read_under_the_c_locale(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("# r\u00e9sum\u00e9\n" + CONFIG, encoding="utf-8")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONUTF8"))}
        proc = subprocess.run(
            [sys.executable, "-m", "photonforces.cli", "cavity", "--config", str(path),
             "--out", os.devnull], env={**env, "LC_ALL": "C", "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")


def _ini_lines():
    """One line of a config text: a prefix (whitespace, a byte order mark or
    none), then a header, an option, a comment or nothing, then a line end."""
    header = st.sampled_from(["[DEFAULT]", "[a]", "[A]", "[a]b", "[ a ]", "[b]", "[a:b]", "[]"])
    option = st.builds("".join, st.tuples(
        st.sampled_from(["k", "K", "key two", "Key Two", "x:y", "a=b", ""]),
        st.sampled_from(["=", ":", "==", " = ", " : ", "\t=", ""]),
        st.sampled_from(["", "1", " v ", "c:d", "# not a comment", "%(k)s"])))
    comment = st.sampled_from(["# c", ";c", "#", " # c"])
    prefix = st.sampled_from(["", "", "", " ", "\t", "\x0c", "\x85", "\u2028", "\u00a0",
                              "\ufeff"])
    return st.builds("".join, st.tuples(prefix, header | option | comment | st.just(""),
                                        st.sampled_from(["\n", "\n", "\r\n", ""])))


class TestPlainReader:
    """The one-pass reader gives configparser's sections or declines."""

    @staticmethod
    def configparser_sections(text):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
        return {name: dict(parser.items(name)) for name in parser.sections()}

    # most texts start with a header, so that most are not errors for want of one
    @given(text=st.builds(lambda head, lines: head + "".join(lines),
                          st.sampled_from(["[s]\n", "[s]\n", "[s]\n", ""]),
                          st.lists(_ini_lines(), max_size=12)))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_configparser_or_declines(self, text):
        sections = cli._plain_sections(text)
        try:
            expected = self.configparser_sections(text)
        except configparser.Error:
            assert sections is None
        else:
            assert sections is None or sections == expected

    def test_reads_the_test_config_itself(self):
        assert cli._plain_sections(CONFIG) == self.configparser_sections(CONFIG)

    # str.splitlines, or indents of " " and "\t" alone, would read two keys here
    def test_form_feed_starts_a_continuation(self):
        text = "[cavity]\neps2 = 1\n\x0cd2_m = 2\n"
        assert self.configparser_sections(text) == {"cavity": {"eps2": "1\nd2_m = 2"}}
        assert cli._plain_sections(text) is None


class TestPolaritonCommand:
    def test_minkowski_curves(self, config_path):
        table = run_polariton(load_config(config_path, "polariton"))
        for row in table.data:
            n = row[table.columns.index("n")]
            assert row[table.columns.index("E_over_hw")] == pytest.approx(
                n**2, rel=1e-12
            )
            assert row[table.columns.index("p_over_hk0")] == pytest.approx(
                n, rel=1e-12
            )
        n2 = table.data[4]  # n = 2 row of the 9-point [1, 3] grid
        assert n2[table.columns.index("Ed_over_hw")] == pytest.approx(3.0, rel=1e-12)

    def test_vacuum_row_has_no_dipole_part(self, config_path):
        for conv in ("minkowski", "abraham"):
            table = run_polariton(
                load_config(config_path, "polariton", [f"convention={conv}"])
            )
            first = table.data[0]
            assert first[table.columns.index("Ed_over_hw")] == 0.0
            assert first[table.columns.index("pd_over_hk0")] == 0.0

    def test_abraham_energy_identically_one(self, config_path):
        table = run_polariton(
            load_config(config_path, "polariton", ["convention=abraham"])
        )
        assert all(r[table.columns.index("E_over_hw")] == 1.0 for r in table.data)

    def test_block_displacement_after_transit(self, config_path):
        # the photon crosses a block of length L = 0.1 m in n L / c, so the
        # block ends displaced by V_r n L / c
        def displacement(convention, n):
            table = run_polariton(load_config(config_path, "polariton", [
                f"convention={convention}", f"n_min={n}", "n_points=1", "mass_kg=1"]))
            return table.data[0][table.columns.index("V_r")] * n * 0.1 / C

        assert displacement("minkowski", 2.0) == pytest.approx(-3.565e-37, rel=1e-3)
        assert displacement("abraham", 2.0) > 0
        assert displacement("minkowski", 1.0) == displacement("abraham", 1.0) == 0.0

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
        for row in table.data:
            vals = [row[table.columns.index(c)] for c in
                    ("n1p", "n1m", "n2p", "n2m", "n3p", "n3m")]
            assert max(vals) - min(vals) < 1e-12

    def test_empty_cavity(self, config_path):
        table = run_cavity(load_config(config_path, "cavity", ["eps2=1.0"]))
        for row in table.data:
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
        assert table.data[0][table.columns.index("R1_sq")] == pytest.approx(
            0.36, rel=1e-9
        )

    def test_thermal_inputs(self, config_path):
        table = run_cavity(
            load_config(
                config_path, "cavity",
                ["in1=", "in3=", "t_left_k=300", "t_right_k=300"],
            )
        )
        for row in table.data:
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

    @pytest.mark.parametrize("eps2", ["1e155", "1e200", "1e308"])
    def test_eps2_past_the_square_of_the_float_range(self, config_path, capsys, eps2):
        # outer^2 = ((n1 + n2)(n2 + n3))^2 ~ eps2^2 is past the float range
        cols = self.intracavity_columns(capsys, [
            "cavity", "--config", config_path, f"eps2={eps2}", "omega_min_ev=1.0",
            "omega_points=1", "in1=1",
        ])
        assert len(cols) == 1
        for value in cols[0]:
            assert value == pytest.approx(0.5, rel=REL)

    @staticmethod
    def exact_numbers(eps):
        """1/(1 - r1^2 r2^2) and n2+, n2- for in1 = 1, in3 = 0, at 60 digits;
        the factor in its all-positive form, as 1 - r1 r2 itself cancels past
        60 digits where one index is 1e30 times another."""
        with mpmath.workdps(60):
            n1, n2, n3 = (mpmath.sqrt(mpmath.mpf(e)) for e in eps)
            r2 = (n2 - n3) / (n2 + n3)
            factor = ((n1 + n2) * (n2 + n3)) ** 2 / (4 * n2 * (n1 * n3 + n2 * n2) * (n1 + n3))
            t1_sq = (2 * n1 / (n1 + n2)) ** 2
            return factor, (n2 / n1) * t1_sq * factor, (n2 / n1) * t1_sq * r2**2 * factor

    @pytest.mark.parametrize("eps", [
        ("1", "9e307", "9e307"), ("1e308", "1e308", "1"), ("1e308", "1e308", "1e308"),
        ("1", "8.988465674311579e307", "8.988465674311579e307"),
        ("1.7976931348623157e308", "1", "1.7976931348623157e308"),
    ])
    def test_second_permittivity_as_large_as_eps2(self, config_path, capsys, eps):
        # (n1 + n2)(n2 + n3) or n1 n3 + n2^2 is past the float range (it made
        # the factor nan, or, at half the largest float, 0); the factor is
        # formed from n1/n2 and n3/n2
        cols = self.intracavity_columns(capsys, [
            "cavity", "--config", config_path, "omega_min_ev=1.0", "omega_points=1", "in1=1",
            *[f"eps{i}={e}" for i, e in enumerate(eps, 1)],
        ])
        assert len(cols) == 1
        _, *want = self.exact_numbers(eps)
        for value, exact in zip(cols[0], want):
            assert value == pytest.approx(float(exact), rel=REL, abs=0.0)

    @given(eps=st.tuples(*[st.floats(min_value=1.0, max_value=sys.float_info.max)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_intracavity_factor_over_the_float_range(self, eps):
        # finite for every eps1..eps3 in [1, max float], and within 2e-15 of
        # its 60-digit value (8.2e-16 the worst of 150 000 log-uniform draws)
        factor = LayerStack(*eps, 1e-6).intracavity
        assert math.isfinite(factor)
        exact, *_ = self.exact_numbers(eps)
        assert abs(factor - exact) <= 2e-15 * exact

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
        row = table.data[0]
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
        for row in table.data:
            assert row[table.columns.index("net_pressure")] == 0.0

    def test_ar_mode(self, config_path):
        table = run_force(
            load_config(config_path, "force", ["mode=ar", "n_index=2.0"])
        )
        row = table.data[0]
        assert row[table.columns.index("F1_plus_F2")] == 0.0
        assert row[table.columns.index("kappa")] == pytest.approx(0.5, rel=1e-12)
        assert table.metadata["kappa_paper_value"] == 1.0

    def test_routes_agree_for_a_cavity_wider_than_2_53_m(self, config_path, capsys):
        # from d2 of about 9e15 m, d2 + 1 rounds to d2: the layer-3 reference
        # point must lie beyond d2 whatever its value
        assert main(["force", "--config", config_path, "--format", "json", "d2_m=1e17"]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["net_pressure"][0] == pytest.approx(data["net_impulse"][0], rel=1e-12)

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

    def test_eps_mismatch_run_leaves_the_warning_filters_alone(self, config_path,
                                                               monkeypatch):
        # swapping the process-wide filter list, even inside catch_warnings,
        # races with concurrent runs and can leave a filter behind for good
        net_pressure, seen = forces._net_pressure, []

        def recording(*args):
            seen.append(list(warnings.filters))
            return net_pressure(*args)

        monkeypatch.setattr(forces, "_net_pressure", recording)
        before = list(warnings.filters)
        assert main(["force", "--config", config_path, "--out", os.devnull, "mode=thermal",
                     "eps3=2.25", "in1=", "t_left_k=300", "t_right_k=0"]) == 0
        assert seen
        assert all(filters == before for filters in seen)

    def test_eps_mismatch_warning_is_suppressed(self, config_path):
        params = load_config(
            config_path, "force",
            ["mode=thermal", "eps3=2.25", "in1=", "t_left_k=300", "t_right_k=0",
             "omega_max_ev=2.0", "omega_points=5"],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_force(params)


class TestIntegratedForce:
    """A beam or thermal force run over more than one frequency records the
    trapezoid of its net_pressure and net_impulse columns over omega (rad/s)
    in its metadata; these values are as deterministic as the table."""

    GRID = ["omega_min_ev=0.5", "omega_max_ev=2.0", "omega_points=300"]
    RUNS = {
        "beam": GRID,
        "thermal": ["mode=thermal", "in1=", "t_left_k=3000", "t_right_k=300", *GRID],
    }
    KEYS = ("integrated_net_pressure_N", "integrated_net_impulse_N")

    @pytest.mark.parametrize("mode", ["beam", "thermal"])
    def test_keys_are_the_trapezoids_of_the_columns(self, config_path, mode):
        table = run_force(load_config(config_path, "force", self.RUNS[mode]))
        omega = np.linspace(0.5 * EV / HBAR, 2.0 * EV / HBAR, 300)
        for key in self.KEYS:
            name = key.removeprefix("integrated_").removesuffix("_N")
            column = table.data[:, table.columns.index(name)]
            assert table.metadata[key] == float(np.trapezoid(column, omega))
        assert table.metadata[self.KEYS[0]] == pytest.approx(table.metadata[self.KEYS[1]],
                                                             rel=1e-12)

    @pytest.mark.parametrize("mode", ["beam", "thermal"])
    def test_keys_are_byte_identical_across_jobs_and_rerun(self, config_path, capsys, mode):
        def text(jobs):
            argv = ["force", "--config", config_path, "--format", "json", "--jobs", jobs]
            assert main([*argv, *self.RUNS[mode]]) == 0
            return capsys.readouterr().out

        one = text("1")
        assert text("2") == one
        assert all(key in json.loads(one)["metadata"] for key in self.KEYS)
        assert rerun_from_json(one).to_json() == one

    @pytest.mark.parametrize("command, overrides", [
        ("force", []),  # one frequency
        ("force", ["mode=ar", "n_index=2.0", "omega_max_ev=2.0", "omega_points=5"]),
        ("sweep", []),  # its base is single-row
    ])
    def test_no_keys_without_a_spectrum(self, config_path, command, overrides):
        table = run_command(command, load_config(config_path, command, overrides))
        assert not [key for key in table.metadata if key.startswith("integrated_")]

    def test_overflowing_integral_is_a_guard_error(self, config_path, capsys):
        # every column is finite, but the trapezoid over 1 to 1e4 eV is not
        code = main(["force", "--config", config_path, "--format", "json", "in1=1e300",
                     "area_m2=1e30", "omega_min_ev=1", "omega_max_ev=10000",
                     "omega_points=2"])
        assert code == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: numerical-guard: non-finite value inf in "
                           "integrated_net_pressure_N\n")


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
        assert len(table.data) == 5
        assert [r[0] for r in table.data] == pytest.approx(
            list(np.linspace(1e-7, 1e-6, 5))
        )

    def test_sweep_of_an_ar_base_keeps_its_kappa_note(self, config_path):
        params = load_config(config_path, "sweep", [
            "parameter=n_index", "min=1.1", "max=4.0", "points=3", "force.mode=ar"])
        metadata = run_sweep(params).metadata
        assert (metadata["command"], metadata["config"]) == ("sweep", params)
        assert metadata["kappa_paper_value"] == 1.0
        assert metadata["kappa_note"].startswith("measured kappa = 1/2")

    def test_thermal_sweep_across_eps1_records_the_mismatch(self, config_path):
        params = load_config(config_path, "sweep", [
            "parameter=eps3", "min=1", "max=2", "points=3", "force.mode=thermal",
            "force.in1=", "force.t_left_k=300"])
        metadata = run_sweep(params).metadata
        assert (metadata["command"], metadata["config"]) == ("sweep", params)
        assert metadata["eps1_ne_eps3_warning"] is True

    def test_ar_n_sweep_cancellation_column(self, config_path):
        table = run_sweep(
            load_config(
                config_path, "sweep",
                ["parameter=n_index", "min=1.1", "max=4.0", "points=7",
                 "force.mode=ar", "force.n_index=2.0"],
            )
        )
        idx = table.columns.index("F1_plus_F2")
        assert all(row[idx] == 0.0 for row in table.data)
        kappas = table.data[:, table.columns.index("kappa")]
        assert max(kappas) - min(kappas) < 1e-10

    # eps = 14.621633212572585 is where libm's pow(eps, 0.5) is an ulp above
    # the correctly rounded square root, so a one-row run once differed from
    # the sweep row in n2p, n1m, n2m, n3p, T1T2_sq_weighted, identity_residual
    @pytest.mark.parametrize("base, key, extra", [
        ("cavity", "eps2", ["cavity.omega_points=1", "cavity.in3=0.5"]),
        ("force", "eps2", []),
        ("force", "eps3", ["force.mode=thermal", "force.in1=", "force.t_left_k=3000",
                           "force.t_right_k=300"]),
    ])
    def test_one_row_run_is_the_first_sweep_row_to_the_bit(self, config_path, base, key,
                                                            extra):
        value = "14.621633212572585"
        sweep = run_sweep(load_config(config_path, "sweep", [
            f"base={base}", f"parameter={key}", f"min={value}", "max=20", "points=2",
            *extra]))
        single = run_command(base, load_config(
            config_path, base, [arg.split(".", 1)[1] for arg in extra] + [f"{key}={value}"]))
        assert sweep.columns == [key, *single.columns]
        assert sweep.data[0, 1:].tobytes() == single.data[0].tobytes()

    def test_rejects_multirow_base(self, config_path):
        with pytest.raises(ConfigError, match="single row"):
            run_sweep(
                load_config(
                    config_path, "sweep",
                    ["force.omega_max_ev=2.0", "force.omega_points=3"],
                )
            )

    def test_rejects_unknown_parameter(self, config_path):
        with pytest.raises(ConfigError, match="^sweep parameter 'bogus' is not a float key "
                                              "that this force base reads; sweepable keys: "):
            load_config(config_path, "sweep", ["parameter=bogus"])

    @pytest.mark.parametrize("base, key, listed", [
        ("force", "mode", "area_m2"), ("force", "omega_points", "omega_min_ev"),
        ("polariton", "convention", "momentum_kgms"), ("polariton", "n_points", "n_min"),
    ])
    def test_rejects_non_float_parameter(self, config_path, base, key, listed):
        # a polariton base reads momentum_kgms under the general convention only
        general = ["polariton.convention=general", "polariton.momentum_kgms=5e-28"]
        with pytest.raises(ConfigError) as info:
            load_config(config_path, "sweep", [f"base={base}", f"parameter={key}",
                                               "min=1", "max=1.9", "points=3",
                                               *(general if base == "polariton" else [])])
        head, keys = str(info.value).split("; sweepable keys: ")
        assert head == f"sweep parameter {key!r} is not a float key that this {base} base reads"
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
        ("polariton", "length_m", [], "no polariton column depends on the block length"),
    ])
    def test_rejects_parameter_the_base_never_reads(self, config_path, capsys, base, key,
                                                    extra, reason):
        # `reason` says why the base never reads `key`; the message lists the
        # float keys that the single-row base of CONFIG reads
        sweepable = {
            "polariton": "energy_ev, n_min, mass_kg",
            "cavity": "eps1, eps2, eps3, d2_m, omega_min_ev, in1, in3, t_left_k, t_right_k",
            "force": "area_m2, eps1, eps2, eps3, d2_m, omega_min_ev, in1, in3, t_left_k, "
                     "t_right_k",
            "force-ar": "n_index, area_m2, omega_min_ev, in1",
        }[base + ("-ar" if "force.mode=ar" in extra else "")]
        code = main(["sweep", "--config", config_path, f"base={base}", f"parameter={key}",
                     "min=1", "max=1.9", "points=3", *extra])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: config: sweep parameter {key!r} is not a float key that this {base} "
            f"base reads; sweepable keys: {sweepable}\n"
        )

    @pytest.mark.parametrize("argv", [
        ["force.mode=ar", "parameter=n_index", "min=1.1", "max=4"],
        ["base=cavity", "cavity.omega_points=1", "cavity.eps2=", "parameter=eps2", "min=2",
         "max=4"],
        ["base=polariton", "polariton.n_points=1", "polariton.convention=general",
         "parameter=momentum_kgms", "min=1e-28", "max=2e-28"],
    ])
    def test_swept_required_key_need_not_be_in_the_base(self, config_path, capsys, argv):
        assert main(["sweep", "--config", config_path, "--format", "json", "points=3",
                     *argv]) == 0
        text = capsys.readouterr().out
        assert rerun_from_json(text).to_json() == text

    def test_accepts_momentum_under_general_convention(self, config_path):
        table = run_sweep(load_config(config_path, "sweep", [
            "base=polariton", "polariton.n_points=1", "polariton.n_min=1.5",
            "polariton.convention=general", "polariton.momentum_kgms=5e-28",
            "parameter=momentum_kgms", "min=4e-28", "max=6e-28", "points=3",
        ]))
        assert len(set(table.data[:, table.columns.index("E_over_hw")])) == 3

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

    @pytest.mark.parametrize("key, lo, hi, message", [
        ("in1", 0, 1, "row 0 (in1=0): beam mode requires a positive in1 beam occupation"),
        ("in3", 0, 1,
         "row 1 (in3=0.5): beam mode requires zero right-side input (in3 or t_right_k)"),
        ("eps3", 1, 2, "row 1 (eps3=1.5): beam mode requires eps1 == eps3"),
    ])
    def test_mode_rule_error_names_sweep_point(self, config_path, capsys, key, lo, hi,
                                               message):
        code = main(["sweep", "--config", config_path, "base=force", f"parameter={key}",
                     f"min={lo}", f"max={hi}", "points=3"])
        assert code == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"

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


# what JSON text is made of, and some of what it is not
_JSON_CHARS = list(' \t\r\n{}[]":,.-+eE019aNItrufl\\x\x01\u00e9')


@functools.cache
def _sweep_text():
    """A sweep's JSON result, from the test config."""
    sections = cli._plain_sections(CONFIG)
    return run_command("sweep", cli._resolve("sweep", sections)).to_json()


def _metadata_or_error(text, json_loads=False):
    """The metadata that `cli._json_metadata` reads (or `json.loads`, with
    its None for a payload that is no object), else its error and message;
    as a repr, so that a nan compares equal."""
    try:
        if json_loads:
            payload = json.loads(text)
            md = payload.get("metadata") if isinstance(payload, dict) else None
        else:
            md = cli._json_metadata(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        return type(exc), str(exc)
    return repr(md)


class TestSerialization:
    def test_csv_round_trips_doubles(self, config_path):
        table = run_polariton(load_config(config_path, "polariton"))
        fh = io.StringIO()
        table.write_csv(fh)
        lines = fh.getvalue().splitlines()
        assert lines[0].startswith("n,")
        for row, line in zip(table.data.tolist(), lines[2:]):
            assert [float(x) for x in line.split(",")] == row

    def test_json_round_trip(self, config_path):
        table = run_cavity(load_config(config_path, "cavity"))
        back = json.loads(table.to_json())
        assert back["columns"] == table.columns
        for j, name in enumerate(table.columns):
            assert back["data"][name] == table.data[:, j].tolist()
        assert back["metadata"] == table.metadata

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

    @pytest.mark.parametrize("command, path, value, message", [
        ("cavity", ["in1"], -1.0, "in1 must be finite and >= 0, got -1.0"),
        ("cavity", ["in1"], math.nan, "in1 must be finite and >= 0, got nan"),
        ("cavity", ["d2_m"], "thin", "bad value for d2_m: 'thin'"),
        ("cavity", ["omega_points"], 4.5, "bad value for omega_points: 4.5"),
        ("polariton", ["mass_kg"], True, "bad value for mass_kg: True"),
        ("sweep", ["points"], 0, "points must be real and >= 1, got 0"),
        ("sweep", ["base_params", "d2_m"], -1.0, "d2_m must be positive and finite, got -1.0"),
        ("sweep", ["base_params", "in1"], [1.0], "bad value for in1: [1.0]"),
        ("sweep", ["base"], "sweep", "sweep base must be a non-sweep command, got 'sweep'"),
        ("sweep", ["base_params"], None, "sweep base [force] section missing"),
        ("force", [], [], "JSON result carries no embedded command/config"),
        ("force", None, [], "JSON result carries no embedded command/config"),
        ("force", ["base_params"], {"junk": 1}, "unknown key(s) for force: base_params"),
    ])
    def test_rerun_checks_the_embedded_config(self, config_path, command, path, value,
                                              message):
        payload = json.loads(run_command(command, load_config(config_path, command)).to_json())
        # path None replaces the metadata itself
        *parents, key = ["metadata"] if path is None else ["metadata", "config", *path]
        section = payload
        for name in parents:
            section = section[name]
        section[key] = value
        with pytest.raises(ConfigError) as info:
            rerun_from_json(json.dumps(payload))
        assert str(info.value) == message

    @pytest.mark.parametrize("text", [
        "[1, 2]", "3", '"force"', "null", "{}", '{"columns": ["n"]}', '{"metadata": [1]}',
        '{"metadata": null, "command": "force"}',
    ])
    def test_rerun_refuses_a_payload_without_a_metadata_object(self, text):
        with pytest.raises(ConfigError) as info:
            rerun_from_json(text)
        assert str(info.value) == "JSON result carries no embedded command/config"

    @pytest.mark.parametrize("command", ["polariton", "cavity", "force", "sweep"])
    def test_rerun_reads_the_metadata_alone(self, config_path, command):
        # no table is built from the data: a payload of the metadata alone,
        # or with data that is no table, reruns to the original bytes
        text = run_command(command, load_config(config_path, command)).to_json()
        metadata = json.loads(text)["metadata"]
        for payload in ({"metadata": metadata}, {"metadata": metadata, "data": "none"}):
            assert rerun_from_json(json.dumps(payload)).to_json() == text

    @pytest.mark.parametrize("edit", [
        "compact", "tabs and carriage returns", "metadata first", "metadata twice, real last",
        "metadata twice, real first", "nan and infinity", "5000-digit integer", "trailing text",
        "trailing comma", "bytes", "bytearray", "utf-16",
    ])
    def test_json_metadata_reads_as_json_loads(self, edit):
        text = _sweep_text()
        payload = json.loads(text)
        md, big = payload["metadata"], "7" * 5000  # past int()'s default digit limit
        edited = {
            "compact": lambda: json.dumps(payload, separators=(",", ":")),
            "tabs and carriage returns": lambda: text.replace("\n", "\r\n\t"),
            "metadata first": lambda: json.dumps({"metadata": md, **payload}),
            "metadata twice, real last": lambda: '{"metadata": {}, ' + text[1:],
            "metadata twice, real first": lambda: text[:-3] + ', "metadata": 1}',
            "nan and infinity": lambda: json.dumps(
                {"data": [math.nan, math.inf, -math.inf], "metadata": md}),
            "5000-digit integer": lambda: text.replace('"data": {', f'"data": {{"n": {big},', 1),
            "trailing text": lambda: text + "]",
            "trailing comma": lambda: text[:-3] + ",\n}\n",
            "bytes": lambda: text.encode(),
            "bytearray": lambda: bytearray(text.encode()),
            "utf-16": lambda: text.encode("utf-16"),
        }[edit]()
        expected = 1 if edit == "metadata twice, real first" else md
        errors = {"5000-digit integer": ValueError, "trailing text": json.JSONDecodeError,
                  "trailing comma": json.JSONDecodeError}
        assert _metadata_or_error(edited) == _metadata_or_error(edited, json_loads=True)
        if edit in errors:
            with pytest.raises(errors[edit]):
                cli._json_metadata(edited)
        else:
            assert cli._json_metadata(edited) == expected

    # an edit falls anywhere (a fraction of the text), or near one of the
    # top-level newlines, before each key and the closing brace, where the
    # read's own loop takes the punctuation
    @given(edits=st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                                    st.floats(0, 1) | st.tuples(st.integers(0, 4),
                                                                st.integers(-3, 14)),
                                    st.sampled_from(_JSON_CHARS)),
                          min_size=1, max_size=3))
    @settings(max_examples=1000, deadline=None)
    def test_json_metadata_agrees_with_json_loads_on_edited_payloads(self, edits):
        # the read raises where json.loads does, with its error and message,
        # and otherwise returns the same metadata
        text = _sweep_text()
        top = [m.start() for m in re.finditer(r'\n  "|\n}', text)]
        assert len(top) == 5  # columns, data, metadata, units, then the "}"
        for op, where, char in edits:
            if isinstance(where, float):
                i = int(where * len(text))
            else:
                i = min(max(top[where[0]] + where[1], 0), len(text))
            text = text[:i] + {"delete": "", "insert": char + text[i:i + 1],
                               "replace": char}[op] + text[i + 1:]
        assert _metadata_or_error(text) == _metadata_or_error(text, json_loads=True)

    def test_rerun_holds_at_most_two_and_a_half_tables(self):
        # the data columns are scanned, not held as floats: the rerun's peak
        # is its own run, where json.loads alone held about four tables
        table = run_command("force", {
            "mode": "beam", "eps1": 1.0, "eps2": 4.0, "eps3": 1.0, "d2_m": 1e-6,
            "omega_min_ev": 0.5, "omega_max_ev": 2.5, "omega_points": 5000,
            "in1": 1.0, "area_m2": 1.0,
        })
        text = table.to_json()
        rerun_from_json(text)  # any first-call caches are built untraced
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rerun_from_json(text)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * table.data.nbytes

    def test_convention_is_read_in_lower_case(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(CONFIG.replace("convention = minkowski", "convention = Minkowski"))
        assert main(["polariton", "--config", str(path), "--format", "json"]) == 0
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        assert metadata["config"]["convention"] == "minkowski"

    def test_run_command_rejects_unknown_command(self):
        with pytest.raises(ConfigError, match="^unknown command 'bogus'$"):
            run_command("bogus", {})

    def test_metadata_records_conventions(self, config_path):
        table = run_force(load_config(config_path, "force"))
        assert table.metadata["constants_version"] == "CODATA-2018"
        assert "rho0" in table.metadata["ldos_normalization"]
        assert "average" in table.metadata["total_photon_number"]


def _readme_example():
    """README's example config, from `[polariton]` to `points = 50`, and
    its `photonforces ...` command lines, each as the argv after the name."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    start = text.index("[polariton]\nenergy_ev")
    config = text[start:text.index("points = 50\n", start) + len("points = 50\n")]
    block = text[text.index("```\nphotonforces ", start) + 4:]
    block = block[:block.index("```")]
    return config, [shlex.split(line)[1:] for line in block.splitlines()]


class TestMainEntry:
    def test_readme_example_runs(self, tmp_path, monkeypatch, capsys):
        # README's config with its own command lines, and the bare force and
        # sweep runs that it configures
        config, commands = _readme_example()
        assert len(commands) == 4
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text(config)
        for argv in [*commands, ["force", "--config", "run.ini"],
                     ["sweep", "--config", "run.ini"]]:
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, ""), argv
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            assert (Path(out).read_text() if out else captured.out).strip(), argv

    def test_success_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["polariton", "--config", config_path, "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("n,")

    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    def test_unwritable_out_is_a_config_error(self, config_path, tmp_path, capsys, target):
        out = tmp_path / target
        code = main(["polariton", "--config", config_path, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot write output file {out}: ")
        assert "\n" not in err.strip()

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

    @pytest.mark.parametrize("argv, message", [
        (["force", "mode=ar", "n_index=2.0", "omega_min_ev=-1"],
         "omega_min_ev must be positive and finite, got -1.0"),
        (["force", "mode=ar", "n_index=2.0", "area_m2=-1"],
         "area_m2 must be positive and finite, got -1.0"),
        (["force", "in1=nan"], "in1 must be finite and >= 0, got nan"),
        (["force", "mode=ar", "n_index=nan"], "n_index must be real and >= 1, got nan"),
        (["polariton", "n_max=inf"], "n_max must be real and >= 1, got inf"),
        (["cavity", "in1=", "t_left_k=inf"], "t_left_k must be finite and >= 0, got inf"),
        (["polariton", "n_points=0"], "n_points must be real and >= 1, got 0"),
        (["sweep", "min=nan"], "min must be finite, got nan"),
        # energies whose conversion to rad/s underflows or overflows
        (["cavity", "omega_min_ev=1e-320"],
         "omega_min_ev in rad/s must be positive and finite, got 0.0"),
        (["polariton", "energy_ev=1e300"],
         "energy_ev in rad/s must be positive and finite, got inf"),
        # sweep values name their row
        (["sweep", "min=-1e308", "max=1e308"],
         "max - min overflows: min = -1e+308, max = 1e+308"),
        (["sweep", "base=cavity", "cavity.omega_points=1", "cavity.in1=",
          "parameter=t_left_k", "min=-1", "max=1", "points=3"],
         "row 0 (t_left_k=-1): t_left_k must be finite and >= 0, got -1.0"),
        (["sweep", "base=cavity", "cavity.omega_points=1", "parameter=omega_min_ev",
          "min=5e-324", "max=1", "points=2"],
         "row 0 (omega_min_ev=4.94066e-324): omega_min_ev in rad/s must be positive and "
         "finite, got 0.0"),
        # a bad value is reported before a required key (here n_index) is found missing
        (["force", "mode=ar", "area_m2=nan"], "area_m2 must be positive and finite, got nan"),
        # an error of a sweep's base config alone names no row
        (["sweep", "force.t_left_k=300"], "give either in1 or t_left_k, not both"),
    ])
    def test_value_outside_its_domain_names_the_key(self, config_path, capsys, argv,
                                                    message):
        assert main([argv[0], "--config", config_path, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"

    # numpy raises ValueError, IndexError or MemoryError, by the size of the count
    @pytest.mark.parametrize("argv", [
        ["polariton", "n_points=100000000000000000000"],
        ["polariton", f"n_points={2**63 - 1}"],
        ["polariton", f"n_points={2**59}"],
        ["cavity", "omega_points=100000000000000000000"],
        ["sweep", "points=100000000000000000000"],
    ])
    def test_row_count_beyond_allocation_names_the_key(self, config_path, capsys, argv):
        assert main([argv[0], "--config", config_path, *argv[1:]]) == 2
        key, count = argv[1].split("=")
        assert capsys.readouterr().err == (
            f"error: config: {key} = {count} is more points than can be allocated\n")

    @pytest.mark.parametrize("text, where", [
        ("energy_ev = 1.0\n[polariton]\n", "line: 1"),
        ("[polariton]\nmass_kg = 1.0\nmass_kg = 2.0\n", "[line 3]"),
    ])
    def test_unparsable_config_is_a_config_error(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["polariton", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot parse config file {path}: ")
        assert where in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["force", "in1=1e300", "area_m2=1e300"],
         "row 0 (omega=1 eV): non-finite value -inf in column 'tcf1'"),
        (["polariton", "energy_ev=1e-300"],
         "row 0 (n=1): non-finite value nan in column 'p_over_hk0'"),
        # the same on a one-point grid, which runs on Python floats
        (["polariton", "energy_ev=1e-300", "n_points=1"],
         "row 0 (n=1): non-finite value nan in column 'p_over_hk0'"),
        # kB*T / (hbar*omega) beyond the float range
        (["cavity", "in1=", "t_left_k=1e300", "omega_min_ev=1e-300"],
         "row 0 (omega=9.99987e-301 eV): in1 from t_left_k must be finite and >= 0, got inf"),
        # the same on a one-point grid, where the occupation is a Python float
        (["cavity", "in1=", "t_left_k=1e300", "omega_min_ev=1e-300", "omega_points=1"],
         "row 0 (omega=9.99987e-301 eV): in1 from t_left_k must be finite and >= 0, got inf"),
        # F0 underflows to 0 in the kappa division, on a one-point grid
        (["force", "mode=ar", "n_index=2", "in1=1", "omega_min_ev=1e-300"],
         "row 0 (omega=9.99987e-301 eV): non-finite value nan in column 'kappa'"),
        # 2 k2 d2 = 2 * 1.01e7/m * d2 past the float range: named before it
        # becomes nan in its reduction to [-pi, pi]
        (["cavity", "d2_m=1e305", "omega_min_ev=1", "omega_points=1"],
         "row 0 (omega=1 eV): round-trip phase 2 k2 d2 must be finite, got inf"),
        (["force", "d2_m=1e305"],
         "row 0 (omega=1 eV): round-trip phase 2 k2 d2 must be finite, got inf"),
        (["sweep", "base=cavity", "cavity.omega_min_ev=1", "cavity.omega_points=1",
          "parameter=d2_m", "min=1e-6", "max=2e302", "points=3"],
         "row 1 (d2_m=1e+302): round-trip phase 2 k2 d2 must be finite, got inf"),
    ])
    def test_nonfinite_output_is_a_guard_error(self, config_path, capsys, argv, message):
        assert main([argv[0], "--config", config_path, *argv[1:]]) == 4
        assert capsys.readouterr().err == f"error: numerical-guard: {message}\n"

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["polariton"], ["cavity"], ["force"], ["force", "mode=thermal", "in1=", "t_left_k=300"],
        ["force", "mode=ar", "n_index=2.0"], ["sweep"],
        ["cavity", "omega_points=1000"],  # several blocks of each writer
    ])
    def test_out_file_and_stdout_get_the_same_bytes(self, config_path, tmp_path, capsys,
                                                    argv, fmt):
        argv = [argv[0], "--config", config_path, "--format", fmt, *argv[1:]]
        out = tmp_path / f"out.{fmt}"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    @pytest.mark.parametrize("argv, code", [
        (["polariton", "nonsense=1"], 2),
        (["polariton", "mass_kg=1e-40"], 3),
        (["force", "in1=1e300", "area_m2=1e300"], 4),
    ])
    def test_failed_run_leaves_an_existing_out_file_as_it_was(self, config_path, tmp_path,
                                                              capsys, argv, code):
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept\r\nas it was\n")
        assert main([argv[0], "--config", config_path, "--out", str(out), *argv[1:]]) == code
        assert out.read_bytes() == b"kept\r\nas it was\n"

    @pytest.mark.parametrize("option", [["--out", ""], ["--out="]])
    def test_empty_out_path_is_a_config_error(self, config_path, capsys, option):
        # an empty path is a file that cannot be opened, not stdout
        assert main(["cavity", "--config", config_path, *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: config: cannot write output file : {os.strerror(errno.ENOENT)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_failing_partway_is_a_config_error(self, config_path, capsys, fmt):
        # far more text than one buffer, so the stream fails after its first writes
        code = main(["cavity", "--config", config_path, "--format", fmt, "--out", "/dev/full",
                     "omega_points=2000"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: config: cannot write output file /dev/full: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus", "--config", "run.ini"],
        ["cavity", "--config", "run.ini", "--jobs", "0"],
        ["cavity", "--config", "run.ini", "--flag"],
        ["cavity", "--", "--config", "run.ini"],  # `--config` after `--` is a positional
    ])
    def test_argparse_path_answers_as_a_fresh_parser(self, capsys, argv):
        def answer(parse):
            with pytest.raises(SystemExit) as exit_info:
                parse(argv)
            out = capsys.readouterr()
            return exit_info.value.code, out.out, out.err

        first, second = answer(main), answer(main)
        assert first == second == answer(cli._build_parser().parse_intermixed_args)
        assert "usage: photonforces " in first[1] + first[2]

    @pytest.mark.parametrize("override, code", [("n_points=3", 0), ("nonsense=1", 2)])
    def test_first_call_leaves_no_reference_cycles(self, config_path, override, code):
        # unreachable objects left by the first call of a fresh interpreter,
        # counted once the import's own have been collected
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = ("import gc, os, sys\n"
                  "from photonforces.cli import main\n"
                  "gc.collect()\n"
                  "code = main(sys.argv[1:] + ['--out', os.devnull])\n"
                  "print(code, gc.collect())\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "polariton", "--config", config_path, override],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
        assert proc.stdout == f"{code} 0\n"

    @staticmethod
    def cli_env():
        src = os.path.dirname(os.path.dirname(cli.__file__))
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def test_closed_stdout_ends_with_exit_0(self, config_path):
        # a reader that stops after 100 bytes, as `| head -c 100` does, of
        # a table far larger than the pipe's buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "photonforces.cli", "cavity", "--config", config_path,
             "omega_points=20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.cli_env())
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""
        assert head.startswith(b"omega_ev,n1p,")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("points", ["1", "2000"])
    def test_full_stdout_is_a_config_error(self, config_path, fmt, points):
        # one row fails at the final flush, 2000 rows at the first full buffer;
        # either way one message and exit 2, and the interpreter's own last
        # flush adds neither exit 120 nor an "Exception ignored" line
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "photonforces.cli", "cavity", "--config", config_path,
                 "--format", fmt, f"omega_points={points}"],
                stdout=full, stderr=subprocess.PIPE, env=self.cli_env(), text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: config: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n")

    def test_stdout_closed_at_start_is_a_config_error(self, config_path):
        # with fd 1 closed the interpreter starts with sys.stdout = None
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "photonforces.cli",
             "cavity", "--config", config_path],
            stderr=subprocess.PIPE, env=self.cli_env(), text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            2, "error: config: cannot write to stdout: it is closed\n")

    @pytest.mark.parametrize("stderr", [
        "closed_at_start", "closed_later",
        pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                      reason="no /dev/full")),
    ])
    @pytest.mark.parametrize("argv, code", [
        (["cavity", "eps2=0.5"], 2),
        (["polariton", "mass_kg=1e-40"], 3),
        (["polariton", "energy_ev=1e-300"], 4),
    ], ids=["config", "feasibility", "guard"])
    def test_unwritable_stderr_keeps_the_exit_code(self, config_path, argv, code, stderr):
        # the message is lost, but neither the code nor stdout changes: with
        # fd 2 closed at start sys.stderr is None; closed later, or on a full
        # device, printing to it raises
        argv = [argv[0], "--config", config_path, *argv[1:]]
        script = ("import os, sys; os.close(2)\n"
                  "from photonforces.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        cmd = {"closed_at_start": ["sh", "-c", 'exec "$0" "$@" 2>&-', sys.executable,
                                   "-m", "photonforces.cli", *argv],
               "closed_later": [sys.executable, "-c", script, *argv],
               "full": [sys.executable, "-m", "photonforces.cli", *argv]}[stderr]
        with contextlib.ExitStack() as stack:
            err = stack.enter_context(open("/dev/full", "w")) if stderr == "full" else None
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, env=self.cli_env(),
                                  text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, "")

    def test_argparse_error_with_stderr_closed_at_start_keeps_stdout_empty(
            self, config_path, monkeypatch, capsys):
        # with fd 2 closed at start-up sys.stderr is None, and argparse would
        # print an error's usage text to stdout; --help still prints there
        monkeypatch.setattr(sys, "stderr", None)
        with pytest.raises(SystemExit) as exc:
            main(["cavity", "--config", config_path, "--flag"])
        assert (exc.value.code, capsys.readouterr().out) == (2, "")
        assert sys.stderr is None
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: photonforces")

    def test_concurrent_calls_on_both_parse_paths_succeed(self, config_path):
        # parse_intermixed_args saves and restores state on its parser's
        # actions, so calls at once must not share a parser: each argv that
        # argparse reads gets its own.  The abbreviated --conf is read by
        # argparse, the other by main itself.
        argvs = [[option, config_path, "polariton", "n_points=2", "--out", os.devnull]
                 for option in ("--conf", "--config")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                codes = list(pool.map(lambda i: main(argvs[i % 2]), range(200), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert codes == [0] * 200
        assert [main(argv) for argv in argvs] == [0, 0]

    def test_plain_call_loads_no_argparse_and_help_still_works(self, config_path):
        # main() with no arguments reads sys.argv[1:]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        script = ("import sys\n"
                  "from photonforces.cli import main\n"
                  "print(main(), 'argparse' in sys.modules)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "polariton", "--config", config_path, "n_points=1",
             "--out", os.devnull], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.stdout, proc.stderr) == ("0 False\n", "")
        proc = subprocess.run([sys.executable, "-m", "photonforces.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: photonforces ")


# Tokens of the command lines that the one-pass reader and argparse must
# agree on: each option in full, abbreviated and joined to its value by `=`,
# help, `--`, dashes and negative numbers, counts, formats, overrides and
# tokens with spaces
_ARGV_TOKENS = (
    "polariton", "cavity", "force", "sweep",
    "--config", "--out", "--format", "--jobs", "--conf", "--o", "--form", "--j",
    "--config=run.ini", "--out=o.csv", "--format=json", "--jobs=2",
    "-h", "--help", "--", "-", "-1", "", "0", "2", "3_0", " 4", "json", "xml", "csv",
    "run.ini", "k=v", "in1=2", "cavity.eps2=4", "key=a b", "a b", "-x y",
)


@st.composite
def _argvs(draw):
    """Command lines of tokens from _ARGV_TOKENS.  Half are drawn at random;
    the others are laid out as a plain one (a command, --config, other
    options, overrides, in any order), each slot filled from the pool,
    biased to the tokens that fit it."""
    token = st.sampled_from(_ARGV_TOKENS)
    if draw(st.booleans()):
        return draw(st.lists(token, max_size=10))

    def fit(tokens):  # one of `tokens` three times in four, else any token
        return draw(st.sampled_from(tokens) if draw(st.integers(0, 3)) else token)

    plain = [t for t in _ARGV_TOKENS if not t.startswith("-")]
    values = {"--format": ["csv", "json", "xml"], "--jobs": ["0", "2", "3_0", " 4"]}
    options = draw(st.lists(st.sampled_from(["--out", "--format", "--jobs", "--config"]),
                            max_size=4))
    pieces = [[fit(cli._COMMANDS)], ["--config", fit(plain)],
              *([option, fit(values.get(option, plain))] for option in options),
              *([fit(plain)] for _ in range(draw(st.integers(0, 3))))]
    return [t for piece in draw(st.permutations(pieces)) for t in piece]


def _parse_or_exit(parse, argv):
    """(result, exit code, stdout, stderr) of `parse(argv)`; the result is
    None where it exits."""
    out, err = io.StringIO(), io.StringIO()
    result, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return result, code, out.getvalue(), err.getvalue()


class TestArgvReader:
    """The one-pass reader gives argparse's namespace for every argv it
    accepts, and main() hands every other argv to argparse unchanged."""

    @given(argv=_argvs())
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_agrees_with_argparse(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # empty: no config path in the pool exists
        namespace, *answer = _parse_or_exit(cli._build_parser().parse_intermixed_args, argv)
        plain = cli._plain_args(argv)
        if plain is not None:
            assert namespace is not None and plain == vars(namespace)
        elif namespace is None:
            assert _parse_or_exit(main, argv) == (None, *answer)
        else:  # argparse reads it, and main runs with argparse's namespace
            message = (f"error: config: cannot read config file {namespace.config}: "
                       f"No such file or directory\n")
            assert _parse_or_exit(main, argv) == (2, None, "", message)

    @pytest.mark.parametrize("argv", [
        ["polariton", "--config", "run.ini"],
        ["--jobs", "3_0", "cavity", "k=v", "--out", "", "--format", "json", "--config", "a b",
         "x", "--config", "run.ini"],
        ["sweep", "", "--jobs", " 4", "--config", "run.ini"],
    ])
    def test_reads_plain_argv_itself(self, argv):
        namespace = cli._build_parser().parse_intermixed_args(argv)
        assert cli._plain_args(argv) == vars(namespace)


# nan and +-inf lie outside every key's domain, and -1.0 outside all but
# those of sweep min and max; the other values lie inside some domains, or at
# the ends of the float range
_NEVER_VALID = ("nan", "inf", "-inf")
_EDGES = (*_NEVER_VALID, "-1.0", "0.0", "5e-324", "1e-300", "1e300", "1.7976931348623157e308")
_PLAIN = ("0.5", "1.0", "2.0", "3.0", "1e-6", "")  # "" unsets the file's entry
_ROWS = ("-1", "0", "1", "2", "3", "1.5", "nan")
_ROW_KEYS = ("n_points", "omega_points", "points")
# each section's switch and its values ("" unsets it)
_SWITCHES = {"polariton": ("convention", ("minkowski", "abraham", "general", "")),
             "force": ("mode", ("beam", "thermal", "ar"))}


def _numeric_keys(section):
    return [key for key, (parse, *_) in _KEY_TABLES[section].items() if parse in (int, float)]


def _names_a_key(message, keys):
    return any(re.search(rf"\b{key}\b", message) for key in keys)


@st.composite
def _runs(draw):
    """A command and key=value overrides on the test CONFIG: the switch of
    the command's section (and of a sweep's base), if it has one, and 1-5 of
    its numeric keys, each set to an edge value, a plain one or nothing, with
    at most 3 rows per axis."""
    command = draw(st.sampled_from(["polariton", "cavity", "force", "sweep"]))
    sections = [command]
    over = {}
    if command == "sweep":
        base = draw(st.sampled_from(["polariton", "cavity", "force"]))
        sections.append(base)
        rows_key = "n_points" if base == "polariton" else "omega_points"
        over.update({"base": base, f"{base}.{rows_key}": "1"})
        over["parameter"] = draw(st.sampled_from(
            [k for k, (parse, *_) in _KEY_TABLES[base].items() if parse is float]))
    for section in sections:
        prefix = "" if section == command else f"{section}."
        if section in _SWITCHES:
            switch, values = _SWITCHES[section]
            over[prefix + switch] = draw(st.sampled_from(values))
        for key in draw(st.lists(st.sampled_from(_numeric_keys(section)), min_size=1,
                                 max_size=5, unique=True)):
            pool = _ROWS if key in _ROW_KEYS else _EDGES + _PLAIN
            over[prefix + key] = draw(st.sampled_from(pool))
    return command, sections, over


class TestContract:
    """Every run exits 0, 2, 3 or 4 with no numpy warning; an exit-2 message
    names a config key, the bad one where a value lies outside every domain;
    an exit-0 output is finite and reruns from its JSON to the same bytes."""

    @given(run=_runs())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_codes_messages_and_outputs(self, config_path, run):
        command, sections, over = run
        argv = [command, "--config", config_path, "--format", "json",
                *[f"{key}={value}" for key, value in over.items()]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            text = out.getvalue()
            data = json.loads(text)["data"]
            assert all(math.isfinite(v) for column in data.values() for v in column)
            assert rerun_from_json(text).to_json() == text
            return
        message = err.getvalue()
        assert message.count("\n") == 1
        # every value is checked as the config is read, before any other
        # check, and only the overrides can be out of their domains
        if any(value in _NEVER_VALID or (value == "-1.0" and key not in ("min", "max"))
               for key, value in over.items()):
            assert code == 2 and _names_a_key(message, [k.split(".")[-1] for k in over]), message
        elif code == 2:
            keys = {key for section in sections for key in _KEY_TABLES[section]}
            assert _names_a_key(message, keys), message
