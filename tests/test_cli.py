"""Config parsing, file formats, and the command-line entry point."""

import dataclasses
import errno
import gc
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lzs_sim.cli as cli
from lzs_sim import (
    DriveParams,
    ParseError,
    PopulationMap,
    QubitModel,
    SweepGrid,
    ValidationError,
    lzs_rate,
    run_frequency_batch,
)
from lzs_sim.cli import (
    csv_bytes,
    main,
    parse_config,
    pgm_bytes,
    read_csv,
    read_pgm,
    run,
)
from lzs_sim.sweep import SweepPlan

from conftest import stationary_three_state

MINIMAL = """\
[model]
left_levels = 0.0
right_levels = 0.0
crossing 0 0 = 0.05
interwell L0 R0 = 0.01

[drive]
frequency = 1.0
dephasing = 0.1

[grid]
eps = -1 1 3
amp = 0 1 2
"""

THREE_STATE = """\
[model]
left_levels = 0.0
right_levels = 0.0 6.0
crossing 0 0 = 0.03
crossing 0 1 = 0.3
relax R 1 0 = 1.0
interwell L0 R0 = 0.005

[drive]
frequency = 1.0
dephasing = 0.1

[grid]
eps = -3 3 5
amp = 0 4 3
"""

# Three levels per well, a leak above level 1 and two drive frequencies.
LEAK_MODEL = """\
[model]
left_levels = 0 2.1 4.4
right_levels = 0 2.45 5.2
crossing 0 0 = 0.08
crossing 1 1 = 0.08
crossing 2 2 = 0.08
crossing 1 0 = 0.2
crossing 2 1 = 0.2
relax L 1 0 = 1.0
relax L 2 1 = 1.0
relax R 1 0 = 0.8
relax R 2 1 = 0.8
interwell L0 R0 = 0.01
leak_threshold = 2
leak_return = 1.0

[drive]
frequencies = 1.0 2.5
dephasing = 0.1

[grid]
eps = -6 6 41
amp = 0 8 21
"""


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FIRST_DIAMOND = (CONFIGS / "first_diamond.cfg").read_text()
# first_diamond on the grid eps = -1 1 3, amp = 0 1 2.
FIRST_DIAMOND_SMALL = FIRST_DIAMOND.replace("eps = -6 6 201", "eps = -1 1 3").replace(
    "amp = 0 12.5 201", "amp = 0 1 2"
)


def edit(text, *pairs):
    """Apply (old, new) replacements, each of text that occurs once."""
    for old, new in zip(pairs[::2], pairs[1::2]):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


# The characters other than \n and \r at which str.splitlines() breaks.
# In a config they are whitespace inside a line, not line ends.
NOT_LINE_ENDS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def without_hash(cfg):
    """cfg's fields other than config_sha256, comparable with ==."""
    return repr(dataclasses.replace(cfg, config_sha256=""))


# The errors probe gives at a failing point, which run gives too, with
# the point appended.
FAILED_CHECK = "stationary solve failed the acceptance check"
NOT_FINITE_ENTRIES = "rate matrix entries must be finite"
NOT_FINITE_DETUNING = "eps_local must be finite"


# Every error parse_config raises for the grammar or while assembling the
# model, as "<type>: <exact message>".  The last three cases pin the
# order of the assembly checks.
PARSE_ERRORS = {
    "malformed_header": (
        edit(MINIMAL, "[grid]", "[grid"),
        "ParseError: line 11, column 1: malformed section header",
    ),
    "unknown_section": (
        edit(MINIMAL, "[grid]", "[grids]"),
        "ParseError: line 11, column 1: unknown section '[grids]'",
    ),
    "missing_equals": (
        edit(MINIMAL, "dephasing = 0.1", "dephasing 0.1"),
        "ParseError: line 9, column 1: expected 'key = value' or '[section]'",
    ),
    "key_outside_section": (
        edit(MINIMAL, "[model]", "frequency = 1.0\n[model]"),
        "ParseError: line 1, column 1: key outside of any section",
    ),
    "missing_key": (
        edit(MINIMAL, "dephasing = 0.1", "  = 0.1"),
        "ParseError: line 9, column 3: missing key before '='",
    ),
    "unknown_key": (
        edit(MINIMAL, "dephasing = 0.1", "dephasing = 0.1\nphase = 3"),
        "ParseError: line 10, column 1: unknown key 'phase' in [drive]",
    ),
    "key_in_other_section": (
        edit(MINIMAL, "dephasing = 0.1", "dephasing = 0.1\namp = 0 1 2"),
        "ParseError: line 10, column 1: unknown key 'amp' in [drive]",
    ),
    "extra_key_token": (
        edit(MINIMAL, "dephasing = 0.1", "dephasing x = 0.1"),
        "ParseError: line 9, column 11: unexpected token 'x'",
    ),
    "extra_value_token": (
        edit(MINIMAL, "dephasing = 0.1", "dephasing = 0.1 0.2"),
        "ParseError: line 9, column 17: unexpected token '0.2'",
    ),
    "missing_value": (
        edit(MINIMAL, "dephasing = 0.1", "dephasing ="),
        "ParseError: line 9, column 12: missing value",
    ),
    "missing_list_value": (
        edit(MINIMAL, "left_levels = 0.0", "left_levels ="),
        "ParseError: line 2, column 14: missing value",
    ),
    "bad_number": (
        edit(MINIMAL, "dephasing = 0.1", "dephasing = abc"),
        "ParseError: line 9, column 13: expected a number, got 'abc'",
    ),
    "non_finite_number": (
        edit(MINIMAL, "dephasing = 0.1", "dephasing = inf"),
        "ParseError: line 9, column 13: expected a finite number, got 'inf'",
    ),
    "bad_cutoff": (
        edit(MINIMAL, "amp = 0 1 2", "amp = 0 1 2\n[kernel]\nlorentz_cutoff = 4"),
        "ParseError: line 15, column 1: unknown key 'lorentz_cutoff' in [kernel]",
    ),
    "non_integer": (
        edit(MINIMAL, "amp = 0 1 2", "amp = 0 1 2.5"),
        "ParseError: line 13, column 11: expected an integer, got '2.5'",
    ),
    "range_arity": (
        edit(MINIMAL, "amp = 0 1 2", "amp = 0 1"),
        "ParseError: line 13, column 6: amp takes 'min max points'",
    ),
    "range_empty": (
        edit(MINIMAL, "amp = 0 1 2", "amp ="),
        "ParseError: line 13, column 6: amp takes 'min max points'",
    ),
    "crossing_arity": (
        edit(MINIMAL, "crossing 0 0", "crossing 0"),
        "ParseError: line 4, column 1: crossing takes two level indices",
    ),
    "crossing_index": (
        edit(MINIMAL, "crossing 0 0", "crossing 0 a"),
        "ParseError: line 4, column 12: expected an integer, got 'a'",
    ),
    # Each argument is parsed before the value count is checked.
    "crossing_index_before_value": (
        edit(MINIMAL, "crossing 0 0 = 0.05", "crossing a 0 ="),
        "ParseError: line 4, column 10: expected an integer, got 'a'",
    ),
    "extra_int_token": (
        edit(MINIMAL, "interwell L0 R0 = 0.01", "interwell L0 R0 = 0.01\nleak_threshold = 1 x"),
        "ParseError: line 6, column 20: unexpected token 'x'",
    ),
    "extra_kernel_token": (
        edit(MINIMAL, "amp = 0 1 2", "amp = 0 1 2\n[kernel]\nn_margin = 1 2"),
        "ParseError: line 15, column 14: unexpected token '2'",
    ),
    "missing_batch": (
        edit(MINIMAL, "frequency = 1.0", "frequencies ="),
        "ParseError: line 8, column 14: missing value",
    ),
    "range_too_long": (
        edit(MINIMAL, "eps = -1 1 3", "eps = 1 2 3 4"),
        "ParseError: line 12, column 6: eps takes 'min max points'",
    ),
    "relax_arity": (
        edit(THREE_STATE, "relax R 1 0", "relax R 1"),
        "ParseError: line 6, column 1: relax takes a well letter and two level indices",
    ),
    "bad_well": (
        edit(THREE_STATE, "relax R 1 0", "relax X 1 0"),
        "ParseError: line 6, column 7: expected well L or R",
    ),
    "interwell_arity": (
        edit(MINIMAL, "interwell L0 R0", "interwell L0"),
        "ParseError: line 5, column 1: interwell takes a source and a target state",
    ),
    "bad_state": (
        edit(MINIMAL, "interwell L0 R0", "interwell L0 Q0"),
        "ParseError: line 5, column 14: expected a state like L0 or R1, got 'Q0'",
    ),
    "underscore_number": (
        edit(THREE_STATE, "relax R 1 0 = 1.0", "relax R 1 0 = 1_0.5"),
        "ParseError: line 6, column 15: expected a number, got '1_0.5'",
    ),
    "underscore_index": (
        edit(MINIMAL, "crossing 0 0", "crossing 0 1_0"),
        "ParseError: line 4, column 12: expected an integer, got '1_0'",
    ),
    "underscore_points": (
        edit(MINIMAL, "amp = 0 1 2", "amp = 0 1 1_0"),
        "ParseError: line 13, column 11: expected an integer, got '1_0'",
    ),
    "non_ascii_digit": (
        edit(MINIMAL, "dephasing = 0.1", "dephasing = \u0663"),
        "ParseError: line 9, column 13: expected a number, got '\u0663'",
    ),
    "non_ascii_index": (
        edit(MINIMAL, "crossing 0 0", "crossing \u0660 0"),
        "ParseError: line 4, column 10: expected an integer, got '\u0660'",
    ),
    "non_ascii_state": (
        edit(MINIMAL, "interwell L0 R0", "interwell L0 R\u0660"),
        "ParseError: line 5, column 14: expected a state like L0 or R1, got 'R\u0660'",
    ),
    "unknown_format": (
        edit(MINIMAL, "amp = 0 1 2", "amp = 0 1 2\nformats = csv"),
        "ParseError: line 14, column 1: unknown key 'formats' in [grid]",
    ),
    # --out, not the config, says where the maps go.
    "output_section": (
        edit(MINIMAL, "amp = 0 1 2", "amp = 0 1 2\n[output]\ndirectory = out"),
        "ParseError: line 14, column 1: unknown section '[output]'",
    ),
    "duplicate_key": (
        edit(MINIMAL, "frequency = 1.0", "frequency = 1.0\nfrequency = 2.0"),
        "ParseError: line 9, column 1: duplicate key 'frequency'",
    ),
    "bad_value_on_duplicate": (
        edit(MINIMAL, "frequency = 1.0", "frequency = 1.0\nfrequency = x"),
        "ParseError: line 9, column 13: expected a number, got 'x'",
    ),
    "duplicate_crossing": (
        edit(
            MINIMAL,
            "crossing 0 0 = 0.05",
            "crossing 0 0 = 0.05\ncrossing 00 0 = 0.1",
        ),
        "ParseError: line 5, column 1: duplicate crossing 0 0",
    ),
    "duplicate_relax": (
        edit(THREE_STATE, "relax R 1 0 = 1.0", "relax R 1 0 = 1.0\nrelax R 1 0 = 2.0"),
        "ParseError: line 7, column 1: duplicate relax R 1 0",
    ),
    "duplicate_interwell": (
        edit(
            MINIMAL,
            "interwell L0 R0 = 0.01",
            "interwell L0 R0 = 0.01\ninterwell L00 R0 = 0.02",
        ),
        "ParseError: line 6, column 1: duplicate interwell L0 R0",
    ),
    "required_key": (
        edit(MINIMAL, "dephasing = 0.1", ""),
        "ValidationError: [drive] dephasing is required",
    ),
    "required_ladder": (
        edit(MINIMAL, "left_levels = 0.0", ""),
        "ValidationError: [model] left_levels is required",
    ),
    "crossing_out_of_range": (
        edit(MINIMAL, "crossing 0 0", "crossing 0 2"),
        "ValidationError: crossing 0 2 out of range for 1x1 ladders (line 4)",
    ),
    "no_crossing": (
        edit(MINIMAL, "crossing 0 0 = 0.05", ""),
        "ValidationError: [model] needs at least one crossing",
    ),
    "relax_out_of_range": (
        edit(THREE_STATE, "relax R 1 0", "relax R 2 0"),
        "ValidationError: relax R 2 0 out of range for a 2-level ladder (line 6)",
    ),
    "interwell_same_well": (
        edit(MINIMAL, "interwell L0 R0", "interwell L0 L0"),
        "ValidationError: interwell rates must connect opposite wells (line 5)",
    ),
    "interwell_out_of_range": (
        edit(MINIMAL, "interwell L0 R0", "interwell L0 R1"),
        "ValidationError: interwell L0 R1 out of range (line 5)",
    ),
    "leak_pair": (
        edit(
            MINIMAL,
            "interwell L0 R0 = 0.01",
            "interwell L0 R0 = 0.01\nleak_return = 1.0",
        ),
        "ValidationError: leak_threshold and leak_return must be given together",
    ),
    "no_frequency": (
        edit(MINIMAL, "frequency = 1.0", ""),
        "ValidationError: [drive] needs exactly one of frequency or frequencies",
    ),
    "crossing_checked_before_relax": (
        edit(THREE_STATE, "crossing 0 1", "crossing 0 9", "relax R 1 0", "relax R 9 0"),
        "ValidationError: crossing 0 9 out of range for 1x2 ladders (line 5)",
    ),
    "no_crossing_checked_before_relax": (
        edit(
            THREE_STATE,
            "crossing 0 0 = 0.03",
            "",
            "crossing 0 1 = 0.3",
            "",
            "relax R 1 0",
            "relax R 9 0",
        ),
        "ValidationError: [model] needs at least one crossing",
    ),
    "relax_checked_before_interwell": (
        edit(
            THREE_STATE,
            "relax R 1 0",
            "relax R 9 0",
            "interwell L0 R0",
            "interwell L0 L0",
        ),
        "ValidationError: relax R 9 0 out of range for a 2-level ladder (line 6)",
    ),
}


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model.n_left == 1 and cfg.model.n_right == 1
        assert cfg.drives[0].frequency == 1.0
        assert cfg.grid.shape == (2, 3)
        assert cfg.config_sha256 == hashlib.sha256(MINIMAL.encode()).hexdigest()

    def test_comments_and_blank_lines_ignored(self):
        text = MINIMAL.replace(
            "[model]", "# leading comment\n\n[model]  # trailing"
        )
        cfg = parse_config(text)
        assert cfg.model.n_left == 1
        # A comment runs to the line end, past any other separator.
        for sep in NOT_LINE_ENDS:
            text = MINIMAL.replace("[drive]", f"# comment{sep}still comment\n[drive]  # x{sep}y")
            assert without_hash(parse_config(text)) == without_hash(parse_config(MINIMAL)), ascii(sep)
        # \r\n and \r end lines as \n does.
        for end in ("\r\n", "\r"):
            text = MINIMAL.replace("\n", end)
            assert without_hash(parse_config(text)) == without_hash(parse_config(MINIMAL)), ascii(end)

    def test_three_state_structure(self):
        cfg = parse_config(THREE_STATE)
        assert cfg.model.crossings[0, 1] == 0.3
        assert cfg.model.right_relax[1, 0] == 1.0
        assert cfg.model.left_to_right[0, 0] == 0.005

    def test_frequency_batch(self):
        text = MINIMAL.replace(
            "frequency = 1.0", "frequencies = 5 8 11 13 15 17"
        )
        cfg = parse_config(text)
        assert [d.frequency for d in cfg.drives] == [5, 8, 11, 13, 15, 17]

    def test_leak_section(self):
        text = MINIMAL.replace(
            "interwell L0 R0 = 0.01",
            "interwell L0 R0 = 0.01\nleak_threshold = 1\nleak_return = 0.5",
        )
        cfg = parse_config(text)
        assert cfg.model.leak.threshold == 1
        assert cfg.model.leak.return_rate == 0.5

    def test_kernel_section(self):
        cfg = parse_config(MINIMAL + "\n[kernel]\nn_margin = 10\n")
        assert cfg.kernel.n_margin == 10

    def test_unknown_section(self):
        with pytest.raises(ParseError, match=r"line 1, column 1"):
            parse_config("[nonsense]\n")

    def test_unknown_key_with_position(self):
        text = MINIMAL.replace("dephasing = 0.1", "dephasing = 0.1\nphase = 3")
        with pytest.raises(ParseError, match=r"line 10, column 1.*unknown key"):
            parse_config(text)
        # A line holding only a page break (or another separator) is one
        # blank line.
        for sep in NOT_LINE_ENDS:
            paged = text.replace("[drive]", f"{sep}\n[drive]")
            with pytest.raises(ParseError, match=r"line 11, column 1.*unknown key"):
                parse_config(paged)

    def test_bad_number_reports_column(self):
        text = MINIMAL.replace("dephasing = 0.1", "dephasing = abc")
        with pytest.raises(ParseError, match=r"column 13.*got 'abc'"):
            parse_config(text)

    def test_duplicate_key(self):
        text = MINIMAL.replace(
            "frequency = 1.0", "frequency = 1.0\nfrequency = 2.0"
        )
        with pytest.raises(ParseError, match="duplicate key"):
            parse_config(text)

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("[model]\nleft_levels 0.0\n")

    def test_key_outside_section(self):
        with pytest.raises(ParseError, match="outside"):
            parse_config("frequency = 1.0\n")

    def test_negative_dephasing_names_invariant(self):
        text = MINIMAL.replace("dephasing = 0.1", "dephasing = -0.1")
        with pytest.raises(ValidationError, match="dephasing must be positive"):
            parse_config(text)

    def test_both_frequency_forms_rejected(self):
        text = MINIMAL.replace(
            "frequency = 1.0", "frequency = 1.0\nfrequencies = 2 3"
        )
        with pytest.raises(ValidationError, match="exactly one"):
            parse_config(text)

    def test_missing_required_key(self):
        with pytest.raises(ValidationError, match=r"\[grid\] amp is required"):
            parse_config(MINIMAL.replace("amp = 0 1 2", ""))

    def test_crossing_out_of_range(self):
        text = MINIMAL.replace("crossing 0 0 = 0.05", "crossing 0 2 = 0.05")
        with pytest.raises(ValidationError, match="out of range"):
            parse_config(text)

    def test_uphill_relax_rejected(self):
        text = THREE_STATE.replace("relax R 1 0 = 1.0", "relax R 0 1 = 1.0")
        with pytest.raises(ValidationError, match="lower triangular"):
            parse_config(text)

    def test_leak_requires_both_keys(self):
        text = MINIMAL.replace(
            "interwell L0 R0 = 0.01", "interwell L0 R0 = 0.01\nleak_return = 1.0"
        )
        with pytest.raises(ValidationError, match="together"):
            parse_config(text)

    @pytest.mark.parametrize("text, expected", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
    def test_error_table(self, text, expected):
        with pytest.raises((ParseError, ValidationError)) as err:
            parse_config(text)
        assert f"{type(err.value).__name__}: {err.value}" == expected

    def test_readme_lists_every_grammar_row(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        row = r"^\| `(\w+)` \| `\[(\w+)\]` \| (?:`([\w ]+)` )?\| `([\w ]+)` \|$"
        listed = [(key, section, args or "", values) for key, section, args, values in re.findall(row, readme, re.M)]
        assert listed == [(key, *row[:3]) for key, row in cli._GRAMMAR.items()]

    def test_integer_of_any_size_parses_exactly(self):
        digits = "9" * 400
        text = edit(
            MINIMAL,
            "interwell L0 R0 = 0.01",
            f"interwell L0 R0 = 0.01\nleak_threshold = {digits}\nleak_return = 1.0",
        )
        assert parse_config(text).model.leak.threshold == int(digits)

    def test_interwell_same_well_rejected(self):
        text = THREE_STATE.replace(
            "interwell L0 R0 = 0.005", "interwell R0 R1 = 0.005"
        )
        with pytest.raises(ValidationError, match="opposite wells"):
            parse_config(text)


def small_map_model():
    return QubitModel(
        left_offsets=(0.0,),
        right_offsets=(0.0,),
        crossings=np.array([[0.05]]),
        left_to_right=np.array([[0.01]]),
    )


def small_map():
    drive = DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.1)
    grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
    return run_frequency_batch(small_map_model(), [drive], grid)[0]


class TestCsvFormat:
    def test_header_and_row_count(self):
        pmap = small_map()
        text = csv_bytes(pmap).decode()
        lines = text.strip().split("\n")
        assert lines[0] == "eps_ghz,amp_ghz,p_left"
        assert len(lines) == 1 + 15

    def test_row_major_over_amplitude_then_detuning(self):
        pmap = small_map()
        lines = csv_bytes(pmap).decode().strip().split("\n")[1:]
        first = [line.split(",") for line in lines[:5]]
        assert all(row[1] == "0" for row in first)
        assert [row[0] for row in first] == ["-1", "-0.5", "0", "0.5", "1"]

    def test_seventeen_digit_round_trip(self, tmp_path):
        pmap = small_map()
        path = tmp_path / "map.csv"
        cli._write_artifact(path, csv_bytes(pmap))
        eps, amp, values = read_csv(path)
        assert np.array_equal(eps, pmap.grid.eps_values)
        assert np.array_equal(amp, pmap.grid.amp_values)
        assert np.array_equal(values, pmap.values)

    @pytest.mark.parametrize("n_amp", [3, 4, 5])
    def test_round_trip_with_equal_amplitude_rows(self, tmp_path, n_amp):
        # linspace(0, 5e-324, n_amp) repeats its values, so two rows share
        # an amplitude: the rows are told apart by where detuning restarts.
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 5e-324, n_amp)
        assert len(set(grid.amp_values.tolist())) < n_amp
        pmap = run_frequency_batch(small_map_model(), [DriveParams(0.0, 1.0, 0.1)], grid)[0]
        path = tmp_path / "map.csv"
        cli._write_artifact(path, csv_bytes(pmap))
        eps, amp, values = read_csv(path)
        assert np.array_equal(eps, grid.eps_values)
        assert np.array_equal(amp, grid.amp_values)
        assert np.array_equal(values, pmap.values)

    def test_checksum_matches_bytes(self, tmp_path):
        data = csv_bytes(small_map())
        path = tmp_path / "map.csv"
        record = cli._write_artifact(path, data)
        assert path.read_bytes() == data
        assert record == {
            "name": "map.csv",
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }


class TestPgmFormat:
    def test_header_and_size(self):
        pmap = small_map()
        blob = pgm_bytes(pmap)
        assert blob.startswith(b"P5\n5 3\n255\n")
        assert len(blob) == len(b"P5\n5 3\n255\n") + 15

    def test_quantization_rule(self, tmp_path):
        pmap = small_map()
        path = tmp_path / "map.pgm"
        cli._write_artifact(path, pgm_bytes(pmap))
        raster = read_pgm(path)
        expected = np.floor(pmap.values * 255.0 + 0.5).astype(np.uint8)
        assert np.array_equal(raster, expected[::-1])

    def test_amplitude_increases_upward(self, tmp_path):
        pmap = small_map()
        path = tmp_path / "map.pgm"
        cli._write_artifact(path, pgm_bytes(pmap))
        raster = read_pgm(path)
        top = np.floor(pmap.values[-1] * 255.0 + 0.5).astype(np.uint8)
        assert np.array_equal(raster[0], top)

    def test_extremes_map_to_black_and_white(self):
        pmap = PopulationMap(
            grid=SweepGrid(0.0, 1.0, 2, 0.0, 1.0, 2),
            values=np.array([[0.0, 1.0], [0.5, 0.25]]),
            fingerprint="synthetic",
        )
        blob = pgm_bytes(pmap)
        raster = np.frombuffer(blob[len(b"P5\n2 2\n255\n") :], dtype=np.uint8)
        assert list(raster) == [128, 64, 0, 255]


class TestWriteArtifact:
    def test_failed_rename_raises_its_error_and_removes_the_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "map.csv"
        path.write_bytes(b"an earlier run's map")
        error = OSError("rename refused")

        def refuse(src, dst):
            raise error

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError) as raised:
            cli._write_artifact(path, b"new bytes")
        assert raised.value is error
        assert [p.name for p in tmp_path.iterdir()] == ["map.csv"]
        assert path.read_bytes() == b"an earlier run's map"

    def test_failed_write_removes_the_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            cli._write_artifact(tmp_path / "map.csv", "text, not bytes")
        assert list(tmp_path.iterdir()) == []

    def test_failed_open_removes_nothing(self, tmp_path):
        # A directory at the temp file's name is not the writer's to remove.
        (tmp_path / "map.csv.tmp").mkdir()
        with pytest.raises(IsADirectoryError):
            cli._write_artifact(tmp_path / "map.csv", b"bytes")
        assert [p.name for p in tmp_path.iterdir()] == ["map.csv.tmp"]
        assert (tmp_path / "map.csv.tmp").is_dir()


@pytest.mark.parametrize(
    "name, blob, message",
    [
        ("map.pgm", b"P5\n5 x\n255\n" + bytes(15), "graymap size"),
        ("map.csv", b"eps_ghz,amp_ghz,p_left\n0,0,0.5\n1,0\n", "three numbers"),
        ("map.csv", b"eps_ghz,amp_ghz,p_left\n0,0,half\n", "three numbers"),
        ("map.csv", b"eps_ghz,amp_ghz,p_left\n", "no data rows"),
        ("map.pgm", b"P2\n2 1\n255\n" + bytes(2), "not an 8-bit P5 graymap"),
        ("map.pgm", b"P5\n2 2\n255\n" + bytes(3), "raster size mismatch"),
        ("map.csv", b"eps,amp,p\n0,0,0.5\n", "unexpected CSV header"),
        ("map.csv", b"eps_ghz,amp_ghz,p_left\n0,0,0.5\n1,0,0.5\n0,1,0.5\n", "rectangular"),
        (
            "map.csv",
            b"eps_ghz,amp_ghz,p_left\n0,0,0.5\n1,0,0.5\n2,0,0.5\n0,1,0.5\n1,1,0.5\n0,7,0.5\n",
            "rectangular",
        ),
        ("map.csv", b"eps_ghz,amp_ghz,p_left\n0,0,0.5\n1,0,0.5\n0,1,0.5\n1,2,0.5\n", "rectangular"),
    ],
    ids=[
        "pgm_size_not_integers",
        "csv_short_row",
        "csv_not_a_number",
        "csv_header_only",
        "pgm_bad_magic",
        "pgm_raster_size",
        "csv_bad_header",
        "csv_not_rectangular",
        "csv_rows_not_a_grid",
        "csv_row_with_two_amplitudes",
    ],
)
def test_malformed_file_is_a_validation_error(tmp_path, name, blob, message):
    path = tmp_path / name
    path.write_bytes(blob)
    reader = read_pgm if name.endswith(".pgm") else read_csv
    with pytest.raises(ValidationError, match=message):
        reader(path)


class TestRunCommand:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL)
        assert run(cfg, 1, tmp_path / "out") == 0
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["manifest.json", "map_00.csv", "map_00.pgm"]

    def test_manifest_contents(self, tmp_path):
        cfg = parse_config(THREE_STATE)
        run(cfg, 1, tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_sha256"] == cfg.config_sha256
        positions = sorted(
            b["position_ghz"] for b in manifest["boundaries"]
        )
        assert positions == [0.0, 6.0]
        (entry,) = manifest["maps"]
        assert entry["frequency_ghz"] == 1.0
        assert entry["regime"] is None  # single left level
        for kind in ("csv", "pgm"):
            blob = (tmp_path / "out" / entry["files"][kind]["name"]).read_bytes()
            assert entry["files"][kind]["sha256"] == hashlib.sha256(blob).hexdigest()

    def test_overflowing_ratio_is_null_in_strict_json(self, tmp_path, capsys):
        # delta_a / delta_d = 1.7e308 / 1e-10 overflows.  JSON has no
        # Infinity, so the manifest writes null; boundaries prints inf.
        text = edit(
            FIRST_DIAMOND_SMALL,
            "left_levels = 0.0", "left_levels = 0 1e-10",
            "frequency = 1.0", "frequency = 1.7e308",
        )
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        manifest = (tmp_path / "out" / "manifest.json").read_text()
        (entry,) = json.loads(manifest, parse_constant=refuse)["maps"]
        assert entry["regime"]["ratio"] is None
        assert entry["regime"]["classification"] == "HighFrequency"
        assert '"ratio": null' in manifest
        assert main(["boundaries", str(path)]) == 0
        assert " ratio inf regime HighFrequency\n" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(MINIMAL)
        run(cfg, 1, tmp_path / "a")
        run(cfg, 1, tmp_path / "b")
        for name in ("map_00.csv", "map_00.pgm", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_rerun_removes_stale_maps_only(self, tmp_path):
        out = tmp_path / "out"
        batch = MINIMAL.replace("frequency = 1.0", "frequencies = 1 2 3 4 5 6")
        run(parse_config(batch), 1, out)
        (out / "map_03.csv.tmp").write_bytes(b"left by a crashed write")
        (out / "map_07.pgm.tmp").write_bytes(b"left by a crashed write")
        (out / "notes.txt").write_text("not ours")
        # An Arabic-Indic digit: not a name a run writes.
        (out / "map_\u0663.csv").write_text("not ours")
        # A directory with a map's name: not a file a run wrote.
        (out / "map_07.csv").mkdir()
        (out / "map_07.csv" / "notes.txt").write_text("not ours")
        assert run(parse_config(MINIMAL), 1, out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "manifest.json",
            "map_00.csv",
            "map_00.pgm",
            "map_07.csv",
            "map_\u0663.csv",
            "notes.txt",
        ]
        assert (out / "notes.txt").read_text() == "not ours"
        assert (out / "map_\u0663.csv").read_text() == "not ours"
        assert (out / "map_07.csv" / "notes.txt").read_text() == "not ours"

    def test_directory_at_manifest_stops_the_run_before_any_write(self, tmp_path):
        path, out = tmp_path / "run.cfg", tmp_path / "out"
        path.write_text(MINIMAL)
        (out / "manifest.json").mkdir(parents=True)
        (out / "map_03.csv").write_text("left by an earlier run")
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "map_03.csv"]
        assert (out / "map_03.csv").read_text() == "left by an earlier run"

    def test_leak_threshold_past_64_bits_runs(self, tmp_path):
        # Every threshold past the ladders pumps alike: 2**63 gives the
        # maps of threshold 1 and the fingerprint of 2**63 - 1.
        def run_with(threshold):
            text = edit(
                MINIMAL,
                "interwell L0 R0 = 0.01",
                f"interwell L0 R0 = 0.01\nleak_threshold = {threshold}\nleak_return = 1.0",
            )
            path, out = tmp_path / f"{threshold}.cfg", tmp_path / str(threshold)
            path.write_text(text)
            assert main(["run", str(path), "--out", str(out)]) == 0
            return out, json.loads((out / "manifest.json").read_text())["maps"][0]["fingerprint"]

        huge, huge_print = run_with(2**63)
        one, _ = run_with(1)
        _, top_print = run_with(2**63 - 1)
        assert huge_print == top_print
        for name in ("map_00.csv", "map_00.pgm"):
            assert (huge / name).read_bytes() == (one / name).read_bytes()

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        # The old manifest and every old map go before the first write, so
        # a rerun that fails leaves no file of the six-map run before it,
        # and the failed write leaves no temp file.
        out = tmp_path / "out"
        batch = MINIMAL.replace("frequency = 1.0", "frequencies = 1 2 3 4 5 6")
        run(parse_config(batch), 1, out)
        replace = os.replace

        def fail_on_pgm(src, dst):
            if str(dst).endswith(".pgm"):
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_pgm)
        with pytest.raises(OSError, match="disk full"):
            run(parse_config(THREE_STATE), 1, out)
        assert sorted(p.name for p in out.iterdir()) == ["map_00.csv"]

    def test_failed_run_adds_no_file(self, tmp_path, capsys):
        # A directory at the first map's name fails that map's rename: the
        # run exits 1 with the rename's error and leaves no temp file.
        path, out = tmp_path / "run.cfg", tmp_path / "out"
        path.write_text(FIRST_DIAMOND_SMALL)
        (out / "map_00.csv").mkdir(parents=True)
        (out / "map_00.csv" / "notes.txt").write_text("not ours")
        before = sorted(out.rglob("*"))
        assert main(["run", str(path), "--out", str(out)]) == 1
        error = OSError(
            errno.EISDIR,
            os.strerror(errno.EISDIR),
            str(out / "map_00.csv.tmp"),
            None,
            str(out / "map_00.csv"),
        )
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(out.rglob("*")) == before
        assert (out / "map_00.csv" / "notes.txt").read_text() == "not ours"


SAMPLES = Path(__file__).resolve().parent / "map_samples.txt"


def ordered_bits(values) -> np.ndarray:
    """Each float's rank among all floats, so that the difference of two
    ranks is their distance in ulps."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    return np.where(bits < 0, np.int64(-(2**63)) - bits, bits)


def sample_drift() -> tuple[float, str]:
    """Recompute every point of map_samples.txt, the shipped maps' values
    as tools/map_samples.py wrote them, at the full grid's own axis
    values, and say how far they moved: the largest |dP_L|, and a line
    that also gives the largest ulp distance and the points moved."""
    wanted = {}
    for line in SAMPLES.read_text().splitlines():
        if not line.startswith("#"):
            stem, m, row, col, value = line.split()
            wanted.setdefault((stem, int(m)), []).append((int(row), int(col), float.fromhex(value)))
    old, new = [], []
    for path in sorted(CONFIGS.glob("*.cfg")):
        config = parse_config(path.read_text())
        grid = config.grid
        for m, drive in enumerate(config.drives):
            points = wanted.pop((path.stem, m))
            rows = sorted({row for row, _, _ in points})
            top = DriveParams(grid.amp_max, drive.frequency, drive.dephasing)
            plan = SweepPlan(config.model, top, config.kernel, grid.eps_values)
            amps = grid.amp_values.tolist()
            block = np.clip(plan.block([amps[k] for k in rows]), 0.0, 1.0)
            old += [value for _, _, value in points]
            new += [block[rows.index(row), col] for row, col, _ in points]
    assert not wanted, f"samples of maps that no shipped config makes: {sorted(wanted)}"
    dp = np.abs(np.subtract(new, old))
    ulps = np.abs(ordered_bits(new) - ordered_bits(old))
    return float(dp.max()), (
        f"samples: largest |dP_L| {dp.max():.3g}, largest ulp distance {ulps.max()}, "
        f"{np.count_nonzero(ulps)} of {ulps.size} moved"
    )


class TestShippedOutputs:
    def test_shipped_map_samples_hold(self):
        # map_samples.txt holds sampled values of every shipped map as they
        # were when it was written; a change to map bytes on purpose leaves
        # it as it is, so this test reports every later move.  A wrong map
        # (a dropped crossing, a mis-summed photon) moves values far more
        # than the 1e-12 allowed; roundoff moves them by about 1e-16.
        largest, report = sample_drift()
        print(report)
        assert largest <= 1e-12, report

    def test_shipped_map_digests_are_pinned(self, tmp_path):
        # Every map file of every shipped config, at its full grid on one
        # worker, as the manifest records it.  One value moved by one ulp
        # changes a CSV's digest.  The bits rest on numpy's IEEE
        # arithmetic and np.linspace, and on libm's pow in the pad of
        # rates._jn_array's recurrence, which feeds only an integer.  A
        # change to map bytes on purpose updates this table and says why
        # in CHANGES.md.  A failure names the platform, the record a
        # mismatch needs, and how far the sampled values moved.
        where = f"Python {sys.version}, numpy {np.__version__}, {platform.machine()}"
        pinned = {
            "first_diamond": {
                "map_00.csv": "7501694fb10bec5f25c1a62dcb4e0dd82314d87831a569955de9b59c79494a56",
                "map_00.pgm": "1d696815600807c7f22c1616036b9dcb09ce32ad654a28bd86645f4d82fb7d66",
            },
            "frequency_batch": {
                "map_00.csv": "9e10a2ffdca3002602737de75a561dc78777f3cea29458161fac70616c420c48",
                "map_00.pgm": "ac6868ae11edcc1ceea4356b08e10aecd3e0e8fe9233f3c0f144be47f351c0e0",
                "map_01.csv": "69264ff934f7c3b4824d18ffc0000884a2eb766183360d62581029cc4c1f91a6",
                "map_01.pgm": "222f9148107398bafa9636dc3365b77e9876ecd9fcc0e721c5d975c425649666",
                "map_02.csv": "f9e6a5d1695db4891f178a39f289ab5eba56cc42a7b3ef4bffddf0f29da8ae0d",
                "map_02.pgm": "dfa95c7b29636374ba6b33d8eac1638f96f8aa2fdeca3d3908abce37f9a02445",
                "map_03.csv": "0bffa1f405e35f0b103f2aa3850456c0667bc43c483916fe0cc65e2db985dea8",
                "map_03.pgm": "7b90e5349f3dc91a870ef0d0144dd6045b4a120281d025f84c7f18744ac9a60b",
                "map_04.csv": "f0749d84a5ecb3bb3ee82acfdf293f5e86a1f289138307f647fe9626cf6fb129",
                "map_04.pgm": "7ea60f2665d458d088774ec1242e1ad7b1c4ddc2e1e456cfbb774d84bf774d95",
                "map_05.csv": "c3652397d5b384b4dfbabdc355231433e6e92366b9261dc45e86af195fc74119",
                "map_05.pgm": "c2a1eca49921063ea17f2b1bd6b8be08bccd2502dfe4619296260cfc9a690364",
            },
            "second_diamond": {
                "map_00.csv": "c00430afeb25fa98a981e9b1865d9f926418f48dc902d9f21c44a0f98717c71e",
                "map_00.pgm": "b879fe55a78d36e6f11123f2bc372c86245030c397fc323ce19d2a8ae3c06218",
            },
            "ten_level": {
                "map_00.csv": "be0bab91a95918e662a8835b3ebec437acb96ceee025028587f2f7a1ad787955",
                "map_00.pgm": "58fd3c266f5206731024276a6a113b8343ea1c48a20c7345e0e94742d65e9d6d",
            },
        }
        configs = sorted(CONFIGS.glob("*.cfg"))
        assert [path.stem for path in configs] == sorted(pinned)
        for path in configs:
            out = tmp_path / path.stem
            assert run(parse_config(path.read_text()), workers=1, out_dir=out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            got = {
                record["name"]: record["sha256"]
                for entry in manifest["maps"]
                for record in entry["files"].values()
            }
            assert got == pinned[path.stem], f"{path.stem} on {where}; {sample_drift()[1]}"
            for name, digest in got.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestMainEntry:
    def write_config(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_run_exit_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path, MINIMAL)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_out_defaults_to_the_config_stem(self, tmp_path, monkeypatch):
        # Without --out, run writes out/<config file stem> under the working
        # directory, whatever directory the config is in, and nothing else.
        config = tmp_path / "configs" / "small.cfg"
        config.parent.mkdir()
        config.write_text(MINIMAL)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["run", str(config)]) == 0
        written = sorted(str(p.relative_to(work)) for p in work.rglob("*"))
        maps = ["manifest.json", "map_00.csv", "map_00.pgm"]
        assert written == ["out", "out/small", *(f"out/small/{name}" for name in maps)]
        given = tmp_path / "given"
        assert main(["run", str(config), "--out", str(given)]) == 0
        for name in maps:
            assert (work / "out" / "small" / name).read_bytes() == (given / name).read_bytes()

    def test_out_of_memory_is_an_error_line(self, tmp_path, monkeypatch, capsys):
        # A grid that fits the address space but not memory makes numpy
        # raise MemoryError in the sweep.  It is simulated: a kernel that
        # overcommits may grant a huge request, which then exhausts memory.
        numpy_error = (
            "Unable to allocate 745. GiB for an array with shape (100000000000,) "
            "and data type float64"
        )
        path, out = self.write_config(tmp_path, MINIMAL), tmp_path / "out"
        for error, line in ((MemoryError(numpy_error), numpy_error), (MemoryError(), "MemoryError")):

            def no_memory(*args, error=error):
                raise error

            monkeypatch.setattr(cli, "run_frequency_batch", no_memory)
            assert main(["run", path, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {line}\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "affinity, cpu_count, workers",
        [({0, 3, 5}, 8, 3), (None, 8, 8), (None, None, 1)],
        ids=["affinity", "cpu_count", "unknown"],
    )
    def test_workers_default_to_the_usable_cores(
        self, tmp_path, monkeypatch, affinity, cpu_count, workers
    ):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        calls = []
        monkeypatch.setattr(cli, "run", lambda config, **kw: calls.append(kw) or 0)
        path = self.write_config(tmp_path, MINIMAL)
        assert main(["run", path]) == 0
        assert main(["run", path, "--workers", "1"]) == 0
        assert [kw["workers"] for kw in calls] == [workers, 1]

    def test_missing_file_is_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, column",
        [
            ("interwell L0 R0", "interwell L0 R" + "1" * 641, 15),
            ("crossing 0 0", "crossing 0 " + "1" * 641, 12),
        ],
        ids=["state_level", "int_argument"],
    )
    def test_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys, old, new, column):
        # One integer rule for levels and int arguments: past the
        # interpreter's digit limit, a parse error, not a traceback.  640
        # is the smallest limit CPython allows.
        path = self.write_config(tmp_path, edit(MINIMAL, old, new))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["boundaries", path]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        line = MINIMAL[: MINIMAL.index(old)].count("\n") + 1
        message = f"line {line}, column {column}: integer past the limit of 640 digits"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_config_exit_two(self, tmp_path, capsys, monkeypatch):
        path = self.write_config(tmp_path, "[model]\nwat = 1\n")
        assert main(["run", path]) == 2
        assert "unknown key" in capsys.readouterr().err
        # Both bounds are finite, but the span overflows to inf.
        path = self.write_config(tmp_path, MINIMAL.replace("eps = -1 1 3", "eps = -1e308 1e308 3"))
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "eps_max - eps_min must be finite" in err
        assert not (tmp_path / "out").exists()
        # Every offset is finite, but their differences overflow to inf.
        text = MINIMAL.replace("left_levels = 0.0", "left_levels = -1e308")
        path = self.write_config(tmp_path, text.replace("right_levels = 0.0", "right_levels = 0 1e308"))
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "level offsets must differ by finite amounts" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        path = self.write_config(tmp_path, MINIMAL + "\n[kernel]\nlorentz_cutoff = 4\n")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key 'lorentz_cutoff' in [kernel]" in err
        assert not (tmp_path / "out").exists()
        path = self.write_config(tmp_path, MINIMAL + "formats = csv\n")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key 'formats' in [grid]" in err
        assert not (tmp_path / "out").exists()
        # A config names no directory: [output] is an unknown section, and
        # neither the directory it names nor the default is created.
        path = self.write_config(tmp_path, MINIMAL + "\n[output]\ndirectory = maps\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", path]) == 2
        assert capsys.readouterr().err == "error: line 15, column 1: unknown section '[output]'\n"
        assert not (tmp_path / "maps").exists() and not (tmp_path / "out").exists()
        # Grid and ladders are finite, but a detuning from the 1e308 crossing
        # overflows: the error probe gives, and no output directory.
        text = edit(
            MINIMAL,
            "right_levels = 0.0", "right_levels = 0 1e308",
            "crossing 0 0 = 0.05", "crossing 0 1 = 0.05",
            "eps = -1 1 3", "eps = -1.5e308 0 3",
        )
        path = self.write_config(tmp_path, text)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: eps_local must be finite (eps=-1.5e+308 GHz, amp=0.0 GHz)\n"
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff" + MINIMAL.encode("ascii"))
        for args in (
            ["run", str(path), "--out", str(tmp_path / "out")],
            ["probe", str(path), "--eps", "0", "--amp", "1"],
            ["boundaries", str(path)],
        ):
            assert main(args) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "can't decode byte 0xff" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new",
        [("crossing 0 0 = 0.05", "crossing 0 0 = 1e200"), ("dephasing = 0.1", "dephasing = 1e-200")],
        ids=["delta_sq_overflows", "gamma2_sq_underflows"],
    )
    def test_non_finite_rate_exit_two(self, tmp_path, capsys, old, new):
        # delta**2 overflows, or gamma2**2 underflows to 0 on the n = -1
        # resonance at eps = -1: run names the first such point and rejects
        # it as probe does, and neither warns.
        path = self.write_config(tmp_path, edit(MINIMAL, old, new))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", path, "--out", str(out), "--workers", "1"]) == 2
            err = capsys.readouterr().err
            assert err == "error: rate matrix entries must be finite (eps=-1.0 GHz, amp=0.0 GHz)\n"
            assert main(["probe", path, "--eps", "-1", "--amp", "0"]) == 2
            assert capsys.readouterr().err == "error: rate matrix entries must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "base, pairs, eps, code, error, others",
        [
            # n_margin = 0: photon -1 lies outside amplitude 0's support, so
            # its 0/0 on resonance at eps = -1 is not summed; at eps = 0 the
            # n = 0 term is 1/0.
            (
                FIRST_DIAMOND_SMALL,
                (
                    "dephasing = 0.1", "dephasing = 1e-200",
                    "amp = 0 1 2", "amp = 0 1 2\n\n[kernel]\nn_margin = 0",
                ),
                0.0,
                2,
                NOT_FINITE_ENTRIES,
                {(-1.0, 0.0): (0, "P_left 3.9999999999999998e-201")},
            ),
            # J_20(A)**2 is 0 at both amplitudes, but photon 20 lies in both
            # supports: its 0/0 on resonance at eps = 20 is summed.
            (
                MINIMAL,
                (
                    "crossing 0 0 = 0.05", "crossing 0 0 = 0.04",
                    "interwell L0 R0 = 0.01", "interwell L0 R0 = 0.002",
                    "dephasing = 0.1", "dephasing = 1e-200",
                    "eps = -1 1 3", "eps = 20 21 2",
                    "amp = 0 1 2", "amp = 0 1e-10 2",
                ),
                20.0,
                2,
                NOT_FINITE_ENTRIES,
                {},
            ),
            # Every rate is finite, but R1's outflow overflows.
            (
                FIRST_DIAMOND_SMALL,
                ("relax R 1 0 = 1.0", "relax R 1 0 = 1e308\ninterwell R1 L0 = 1e308"),
                -1.0,
                2,
                NOT_FINITE_ENTRIES,
                {},
            ),
            # The first point fails the acceptance check; the L0 -> R0 entry,
            # a static rate plus the pumped one, overflows on the n = 0
            # resonance after it, in the same block.
            (
                FIRST_DIAMOND_SMALL,
                (
                    "crossing 0 0 = 0.04", "crossing 0 0 = 3e153",
                    "interwell L0 R0 = 0.002", "interwell L0 R0 = 1.5e308",
                ),
                -1.0,
                1,
                FAILED_CHECK,
                {(0.0, 0.0): (2, NOT_FINITE_ENTRIES)},
            ),
            # The same at the grid's first point, (0.5, 0), with L0 -> R0
            # overflowing at (0.905, 1): with 201 detunings both rows are
            # one block, with 2049 each row is a block of its own.
            *[
                (
                    FIRST_DIAMOND,
                    (
                        "crossing 0 0 = 0.04", "crossing 0 0 = 3e153",
                        "interwell L0 R0 = 0.002", "interwell L0 R0 = 1.75e308",
                        "eps = -6 6 201", f"eps = 0.5 1.5 {n_eps}",
                        "amp = 0 12.5 201", "amp = 0 1 2",
                    ),
                    0.5,
                    1,
                    FAILED_CHECK,
                    {(0.905, 1.0): (2, NOT_FINITE_ENTRIES)},
                )
                for n_eps in (201, 2049)
            ],
            # Ladders and grid are finite, but the detuning from the
            # crossing at 1e308 overflows at the grid's first point.
            (
                FIRST_DIAMOND_SMALL,
                ("right_levels = 0.0 12.0", "right_levels = 0 1e308", "eps = -1 1 3", "eps = -1.5e308 0 3"),
                -1.5e308,
                2,
                NOT_FINITE_DETUNING,
                {(0.0, 0.0): (0, "P_left 0.44444444444444448")},
            ),
            # The first point fails the acceptance check; the detuning from
            # the crossing of L1 (at 1e308) and R0 overflows only at the
            # last column, which the map neither rejects as a whole nor
            # reaches.
            (
                FIRST_DIAMOND,
                (
                    "left_levels = 0.0", "left_levels = 0.0 1e308",
                    "crossing 0 0 = 0.04", "crossing 0 0 = 3e153",
                    "crossing 0 1 = 0.4", "crossing 0 1 = 0.4\ncrossing 1 0 = 0.1",
                    "interwell L0 R0 = 0.002", "interwell L0 R0 = 1.75e308",
                    "eps = -6 6 201", "eps = 0.5 1e308 3",
                    "amp = 0 12.5 201", "amp = 0 1 2",
                ),
                0.5,
                1,
                FAILED_CHECK,
                {(1e308, 0.0): (2, NOT_FINITE_DETUNING), (5e307, 1.0): (0, "P_left 0")},
            ),
        ],
        ids=[
            "outside_the_support", "zero_weight_in_the_support", "outflow_overflows",
            "entry_overflows", "one_block", "row_blocks", "detuning_overflows",
            "detuning_overflows_after_the_first_failure",
        ],
    )
    def test_run_names_the_first_point_probe_rejects(
        self, tmp_path, capsys, always_fork, forks, base, pairs, eps, code, error, others
    ):
        # run names the first point of the first row (amp = 0) that probe
        # rejects, with probe's error line there and the point appended,
        # whatever the block layout and however many processes share the
        # rows: exit 2 where probe's RateMatrix or lzs_rate rejects the
        # point, exit 1 where it fails the acceptance check.  At the other
        # (eps, amp) points probe gives the codes shown, with the error
        # shown or, where it passes, the P_left line shown; nothing warns.
        path = self.write_config(tmp_path, edit(base, *pairs))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["probe", path, f"--eps={eps}", "--amp", "0"]) == code
            assert capsys.readouterr().err == f"error: {error}\n"
            for workers in ("1", "2"):
                if workers == "2":
                    always_fork(1)  # each of the two rows a task of its own
                assert main(["run", path, "--out", str(out), "--workers", workers]) == code
                assert capsys.readouterr().err == f"error: {error} (eps={eps} GHz, amp=0.0 GHz)\n"
                assert not out.exists()
            assert forks  # --workers 2 shared the rows with a child
            for (other_eps, amp), (other_code, text) in others.items():
                assert main(["probe", path, f"--eps={other_eps}", "--amp", str(amp)]) == other_code
                captured = capsys.readouterr()
                if other_code:
                    assert captured.err == f"error: {text}\n"
                else:
                    assert captured.err == "" and text in captured.out.splitlines()

    def test_amplitude_past_the_bessel_range_exit_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, edit(MINIMAL, "amp = 0 1 2", "amp = 0 1e308 2"))
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Bessel kernel's range" in err
        assert not (tmp_path / "out").exists()
        assert main(["probe", path, "--eps", "0", "--amp", "1e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Bessel kernel's range" in err
        # The photons summed depend on the amplitude alone: a point 1e20 GHz
        # from every crossing stays within the range.
        assert main(["probe", str(CONFIGS / "first_diamond.cfg"), "--eps", "1e20", "--amp", "1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "old, new, command",
        [
            ("amp = 0 1 2", "amp = 0 1 2\n[kernel]\nn_margin = " + "9" * 400, "run"),
            ("amp = 0 1 2", "amp = 0 1 2\n[kernel]\nn_margin = " + "9" * 400, "probe"),
            ("eps = -1 1 3", "eps = -1 1 " + "9" * 400, "run"),
        ],
        ids=["n_margin_run", "n_margin_probe", "eps_points"],
    )
    def test_count_too_large_to_use_exit_two(self, tmp_path, capsys, old, new, command):
        path = self.write_config(tmp_path, edit(MINIMAL, old, new))
        options = ["--out", str(tmp_path / "out")] if command == "run" else ["--eps", "0", "--amp", "1"]
        assert main([command, path, *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_zero_workers_exit_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, MINIMAL)
        assert main(["run", path, "--workers", "0", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_probe_matches_closed_form(self, tmp_path, capsys):
        path = self.write_config(tmp_path, THREE_STATE)
        eps, amp = 0.7, 1.3
        assert main(["probe", path, "--eps", str(eps), "--amp", str(amp)]) == 0
        out = capsys.readouterr().out
        printed = {}
        for line in out.strip().split("\n"):
            key, value = line.split()
            printed[key] = float(value)
        drive = DriveParams(amplitude=amp, frequency=1.0, dephasing=0.1)
        a = lzs_rate(0.03, eps, drive)
        b = lzs_rate(0.3, eps - 6.0, drive)
        p0r, p0l, p1r = stationary_three_state(a, b, 1.0, 0.005)
        assert printed["0R"] == pytest.approx(p0r, abs=1e-9)
        assert printed["0L"] == pytest.approx(p0l, abs=1e-9)
        assert printed["1R"] == pytest.approx(p1r, abs=1e-9)
        assert printed["P_left"] == pytest.approx(p0l, abs=1e-9)
        assert math.isclose(
            printed["P_left"] + printed["P_right"], 1.0, abs_tol=1e-9
        )

    def test_probe_keeps_a_huge_unnormalized_vector_finite(self, tmp_path, capsys):
        # 0L pumped into 0R through a crossing of 1e-155, with decay
        # 0R -> 0L at 1 GHz.  At eps = 0, A = 0 the pumped rate W is 5e-310,
        # so the vector built back from 0R holds 0L at (1 + W) / W, past the
        # float range, before it is normalized.  Exactly, P_0R is
        # W / (1 + 2 W), which is W in floats.
        text = edit(
            MINIMAL,
            "crossing 0 0 = 0.05", "crossing 0 0 = 1e-155",
            "interwell L0 R0 = 0.01", "interwell R0 L0 = 1.0",
        )
        path = self.write_config(tmp_path, text)
        assert main(["probe", path, "--eps", "0", "--amp", "0"]) == 0
        printed = dict(line.split() for line in capsys.readouterr().out.strip().split("\n"))
        w = lzs_rate(1e-155, 0.0, DriveParams(0.0, 1.0, 0.1))
        assert w == pytest.approx(5e-310, rel=1e-12)
        assert float(printed["0R"]) == pytest.approx(w, rel=1e-12)
        assert float(printed["P_left"]) == 1.0

    def test_output_independent_of_blas_threads(self, tmp_path):
        path = self.write_config(tmp_path, LEAK_MODEL)
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )
            out = tmp_path / f"threads_{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "lzs_sim.cli", "run", path, "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == [
            "manifest.json",
            "map_00.csv",
            "map_00.pgm",
            "map_01.csv",
            "map_01.pgm",
        ]
        assert outputs[0] == outputs[1]

    def test_boundaries_output(self, tmp_path, capsys):
        path = self.write_config(tmp_path, THREE_STATE)
        assert main(["boundaries", path]) == 0
        out = capsys.readouterr().out
        assert "crossing 0L-0R position_ghz 0" in out
        assert "crossing 0L-1R position_ghz 6" in out
        assert "regime undetermined" in out
        # The same file saved with a UTF-8 byte-order mark.
        Path(path).write_bytes(b"\xef\xbb\xbf" + THREE_STATE.encode())
        assert main(["boundaries", path]) == 0
        assert capsys.readouterr() == (out, "")
        # Six frequencies on both sides of the boundary ratio 1, which is
        # HighFrequency.
        assert main(["boundaries", str(CONFIGS / "frequency_batch.cfg")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "crossing 0L-0R position_ghz 0",
            "crossing 1L-0R position_ghz -13",
            "frequency_ghz 5 delta_a 5 delta_d 13 ratio 0.38461538461538464 regime LowFrequency",
            "frequency_ghz 8 delta_a 8 delta_d 13 ratio 0.61538461538461542 regime LowFrequency",
            "frequency_ghz 11 delta_a 11 delta_d 13 ratio 0.84615384615384615 regime LowFrequency",
            "frequency_ghz 13 delta_a 13 delta_d 13 ratio 1 regime HighFrequency",
            "frequency_ghz 15 delta_a 15 delta_d 13 ratio 1.1538461538461537 regime HighFrequency",
            "frequency_ghz 17 delta_a 17 delta_d 13 ratio 1.3076923076923077 regime HighFrequency",
        ]

    def test_one_worker_run_never_loads_the_pool(self, tmp_path):
        # In a fresh interpreter: neither importing the CLI nor a run with
        # one worker, nor one with two forked workers, loads
        # multiprocessing or concurrent.futures, or a test-only
        # dependency.  The threshold and the block size are pinned so that
        # this small grid forks.
        path = self.write_config(tmp_path, THREE_STATE)
        script = (
            "import json, sys\n"
            "import lzs_sim.cli, lzs_sim.sweep\n"
            "lzs_sim.sweep._WORK_PER_PROCESS = 1\n"
            "lzs_sim.sweep._BLOCK_POINTS = 1\n"
            "pool = ('multiprocessing', 'concurrent.futures', 'scipy', 'mpmath', 'hypothesis', 'pytest')\n"
            "seen = [[m for m in pool if m in sys.modules]]\n"
            "codes = []\n"
            "for workers in ('1', '2'):\n"
            "    out = sys.argv[2] + workers\n"
            "    codes.append(lzs_sim.cli.main(['run', sys.argv[1], '--out', out, '--workers', workers]))\n"
            "    seen.append([m for m in pool if m in sys.modules])\n"
            "print(json.dumps([codes, seen]))\n"
        )
        proc = program(["-c", script, path, str(tmp_path / "out")], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0], [[], [], []]]

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path, capsys):
        path = self.write_config(tmp_path, THREE_STATE)
        frozen = gc.get_freeze_count()
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert main(["probe", path, "--eps", "0.7", "--amp", "1.3"]) == 0
        assert gc.get_freeze_count() == frozen

    def test_program_entry_freezes_the_heap(self, tmp_path, monkeypatch, capsys):
        path = self.write_config(tmp_path, THREE_STATE)
        monkeypatch.setattr(sys, "argv", ["lzs-sim", "boundaries", path])
        try:
            assert cli.console_main() == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert "regime" in capsys.readouterr().out

    def test_program_exit_writes_everything(self, tmp_path, capsys):
        # The interpreter's exit after the freeze still flushes stdout
        # into a file, and a run's files are complete.
        path = self.write_config(tmp_path, THREE_STATE)
        probe = ["probe", path, "--eps", "0.7", "--amp", "1.3"]
        with open(tmp_path / "probe.txt", "w") as fh:
            proc = program(["-m", "lzs_sim.cli"] + probe, stdout=fh, stderr=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr
        printed = (tmp_path / "probe.txt").read_text()
        assert printed.splitlines()[-1].startswith("P_leak ")
        assert main(probe) == 0
        assert printed == capsys.readouterr().out

        out = tmp_path / "out"
        proc = program(["-m", "lzs_sim.cli", "run", path, "--out", str(out)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        files = [f for report in manifest["maps"] for f in report["files"].values()]
        assert sorted(f["name"] for f in files) == ["map_00.csv", "map_00.pgm"]
        for f in files:
            assert hashlib.sha256((out / f["name"]).read_bytes()).hexdigest() == f["sha256"]


def program(args, **kwargs):
    """Run this Python on args with the package's sources on PYTHONPATH,
    and with stdout block-buffered into a file or pipe, as by default."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args, text=True, env=env, **kwargs)
