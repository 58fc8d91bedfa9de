"""Command-line front end: parse a run configuration, sweep, write maps.

Configuration grammar (INI-like, ``#`` starts a comment)::

    [model]
    left_levels = 0 10 20       # left ladder offsets (GHz), ascending
    right_levels = 0 12         # right ladder offsets (GHz), ascending
    crossing 0 1 = 0.3          # coupling (GHz) of left level 0, right level 1
    relax L 1 0 = 1.0           # downhill relaxation rate within one well
    interwell L0 R0 = 0.001     # one-way relaxation between the wells
    leak_threshold = 8          # levels >= threshold pump into the leak state
    leak_return = 1.0           # leak decay rate, split evenly over the wells

    [drive]
    frequency = 1.0             # GHz; or a batch: frequencies = 5 8 11
    dephasing = 0.1             # Gamma_2 (GHz)

    [grid]
    eps = -6 6 201              # min max points
    amp = 0 12 201

    [kernel]                    # optional section
    n_margin = 20
    lorentz_cutoff = none       # or a positive multiple of dephasing

    [output]                    # optional section
    directory = out
    formats = csv pgm

Unknown sections or keys are hard errors with line and column; semantic
violations (negative rates, non-ascending ladders, ...) raise
ValidationError.  ``run`` writes one CSV and/or PGM per drive frequency
plus a JSON manifest with checksums; the manifest is written last, so
its presence marks a complete run, and map files of an earlier run into
the same directory do not outlive the run that follows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import diamond_boundaries, regime_classify
from .errors import (
    InsufficientLevels,
    ParseError,
    SimulationError,
    ValidationError,
)
from .master import build_rate_matrix, stationary_solve
from .model import DriveParams, LeakConfig, QubitModel
from .rates import RateKernelParams
from .sweep import PopulationMap, SweepGrid, run_frequency_batch

__all__ = [
    "RunConfig",
    "parse_config",
    "write_csv",
    "read_csv",
    "write_pgm",
    "read_pgm",
    "run",
    "main",
]

_CSV_HEADER = "eps_ghz,amp_ghz,p_left"
_FORMATS = ("csv", "pgm")
# Every key: its section and the kind of its value.  Keywords are
# unique across sections.
_GRAMMAR = {
    "left_levels": ("model", "floats"),
    "right_levels": ("model", "floats"),
    "crossing": ("model", "float"),
    "relax": ("model", "float"),
    "interwell": ("model", "float"),
    "leak_threshold": ("model", "int"),
    "leak_return": ("model", "float"),
    "frequency": ("drive", "float"),
    "frequencies": ("drive", "floats"),
    "dephasing": ("drive", "float"),
    "eps": ("grid", "range"),
    "amp": ("grid", "range"),
    "n_margin": ("kernel", "int"),
    "lorentz_cutoff": ("kernel", "cutoff"),
    "directory": ("output", "text"),
    "formats": ("output", "formats"),
}
_SECTIONS = {section for section, _ in _GRAMMAR.values()}
# The indexed [model] entries: the kinds of their key arguments, and the
# error when the argument count is wrong.  Other keys take no arguments.
_ENTRIES = {
    "crossing": ("int int", "crossing takes two level indices"),
    "relax": ("well int int", "relax takes a well letter and two level indices"),
    "interwell": ("state state", "interwell takes a source and a target state"),
}
_STATE_RE = re.compile(r"([LR])([0-9]+)$")
_MAP_FILE_RE = re.compile(r"map_\d+\.(csv|pgm)(\.tmp)?")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs of one simulation run."""

    model: QubitModel
    drives: tuple[DriveParams, ...]
    grid: SweepGrid
    kernel: RateKernelParams
    output_dir: str
    formats: tuple[str, ...]
    config_sha256: str


def _tokens(part: str, offset: int):
    """(token, 1-based column) pairs for the whitespace-split part."""
    return [(m.group(0), offset + m.start() + 1) for m in re.finditer(r"\S+", part)]


def _plain(token: str) -> str:
    """The token itself, or '' when it holds an underscore or a non-ASCII
    character, which Python's float() and int() accept ('1_0', '٣') but
    the grammar does not."""
    return token if token.isascii() and "_" not in token else ""


def _parse_float(token: str, line: int, col: int) -> float:
    try:
        value = float(_plain(token))
    except ValueError:
        raise ParseError(f"expected a number, got '{token}'", line, col) from None
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got '{token}'", line, col)
    return value


def _parse_int(token: str, line: int, col: int) -> int:
    try:
        return int(_plain(token))
    except ValueError:
        raise ParseError(f"expected an integer, got '{token}'", line, col) from None


def _parse_arg(kind: str, token: str, line: int, col: int):
    """One key argument of an indexed entry: a level index, a well letter
    or a state such as L0, which parses to (well, level)."""
    if kind == "int":
        return _parse_int(token, line, col)
    if kind == "well":
        if token not in ("L", "R"):
            raise ParseError("expected well L or R", line, col)
        return token
    m = _STATE_RE.fullmatch(token)
    if m is None:
        raise ParseError(f"expected a state like L0 or R1, got '{token}'", line, col)
    return m.group(1), int(m.group(2))


def _parse_value(kind: str, keyword: str, text: str, line: int, col: int):
    """The value of one key, parsed by its kind from the text after '=',
    which starts at column col."""
    toks = _tokens(text, col - 1)
    if kind == "range":
        if len(toks) != 3:
            raise ParseError(f"{keyword} takes 'min max points'", line, col)
        parsers = (_parse_float, _parse_float, _parse_int)
        return tuple(parse(tok, line, c) for parse, (tok, c) in zip(parsers, toks))
    if not toks:
        raise ParseError("missing value", line, col)
    if kind == "text":
        return text.strip()
    if kind == "floats":
        return [_parse_float(tok, line, tok_col) for tok, tok_col in toks]
    if kind == "formats":
        for tok, tok_col in toks:
            if tok not in _FORMATS:
                raise ParseError(f"unknown output format '{tok}'", line, tok_col)
        return tuple(dict.fromkeys(tok for tok, _ in toks))
    if len(toks) > 1:
        tok, tok_col = toks[1]
        raise ParseError(f"unexpected token '{tok}'", line, tok_col)
    tok, tok_col = toks[0]
    if kind == "int":
        return _parse_int(tok, line, tok_col)
    if kind == "cutoff" and tok == "none":
        return None
    return _parse_float(tok, line, tok_col)


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text into a RunConfig.

    Grammar errors raise ParseError with 1-based line and column;
    violations of model/drive/grid invariants raise ValidationError.
    """
    section = None
    # keyword -> {parsed key arguments: (value, line)}, in file order;
    # a key without arguments is stored under ().
    found: dict[str, dict] = {keyword: {} for keyword in _GRAMMAR}

    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        stripped = body.strip()
        if not stripped:
            continue
        lead_col = len(body) - len(body.lstrip()) + 1

        if stripped.startswith("["):
            m = re.fullmatch(r"\[([a-z_]+)\]", stripped)
            if m is None:
                raise ParseError("malformed section header", lineno, lead_col)
            section = m.group(1)
            if section not in _SECTIONS:
                raise ParseError(f"unknown section '[{section}]'", lineno, lead_col)
            continue

        eq = body.find("=")
        if eq < 0:
            raise ParseError(
                "expected 'key = value' or '[section]'", lineno, lead_col
            )
        if section is None:
            raise ParseError("key outside of any section", lineno, lead_col)
        key_toks = _tokens(body[:eq], 0)
        if not key_toks:
            raise ParseError("missing key before '='", lineno, lead_col)
        (keyword, key_col), args = key_toks[0], key_toks[1:]
        key_section, kind = _GRAMMAR.get(keyword, (None, None))
        if key_section != section:
            raise ParseError(
                f"unknown key '{keyword}' in [{section}]", lineno, key_col
            )

        arg_kinds, arity_error = _ENTRIES.get(keyword, ("", None))
        arg_kinds = arg_kinds.split()
        if args and not arg_kinds:
            tok, col = args[0]
            raise ParseError(f"unexpected token '{tok}'", lineno, col)
        if len(args) != len(arg_kinds):
            raise ParseError(arity_error, lineno, key_col)
        key = tuple(
            _parse_arg(arg_kind, tok, lineno, col)
            for arg_kind, (tok, col) in zip(arg_kinds, args)
        )
        value = _parse_value(kind, keyword, body[eq + 1 :], lineno, eq + 2)
        if key in found[keyword]:
            # Every argument as parsed: L00 shows as L0, 01 as 1.
            shown = " ".join(
                "".join(map(str, arg)) if isinstance(arg, tuple) else str(arg)
                for arg in key
            )
            what = f"{keyword} {shown}" if key else f"key '{keyword}'"
            raise ParseError(f"duplicate {what}", lineno, key_col)
        found[keyword][key] = (value, lineno)

    return _assemble(text, found)


def _assemble(text, found):
    def get(key: str, default=None):
        return found[key][()][0] if found[key] else default

    def need(key: str):
        if not found[key]:
            raise ValidationError(f"[{_GRAMMAR[key][0]}] {key} is required")
        return get(key)

    left = need("left_levels")
    right = need("right_levels")
    sizes = {"L": len(left), "R": len(right)}
    # Errors rank: crossing ranges, no crossing, relax, interwell.  With
    # no crossing there is no crossing range to fail, so this goes first.
    if not found["crossing"]:
        raise ValidationError("[model] needs at least one crossing")

    # (keyword, row well, column well) -> one of the five model arrays
    arrays = {}
    for keyword in _ENTRIES:
        for args, (value, line) in found[keyword].items():
            if keyword == "crossing":
                rows, cols, (i, j) = "L", "R", args
                where = f"{i} {j} out of range for {sizes['L']}x{sizes['R']} ladders"
            elif keyword == "relax":
                rows, i, j = args
                cols = rows
                where = f"{rows} {i} {j} out of range for a {sizes[rows]}-level ladder"
            else:
                (rows, i), (cols, j) = args
                if rows == cols:
                    raise ValidationError(
                        f"interwell rates must connect opposite wells (line {line})"
                    )
                where = f"{rows}{i} {cols}{j} out of range"
            if not (0 <= i < sizes[rows] and 0 <= j < sizes[cols]):
                raise ValidationError(f"{keyword} {where} (line {line})")
            shape = (sizes[rows], sizes[cols])
            arrays.setdefault((keyword, rows, cols), np.zeros(shape))[i, j] = value

    threshold = get("leak_threshold")
    return_rate = get("leak_return")
    if (threshold is None) != (return_rate is None):
        raise ValidationError(
            "leak_threshold and leak_return must be given together"
        )
    leak = None
    if threshold is not None:
        leak = LeakConfig(threshold=threshold, return_rate=return_rate)

    model = QubitModel(
        left_offsets=np.array(left),
        right_offsets=np.array(right),
        crossings=arrays["crossing", "L", "R"],
        left_relax=arrays.get(("relax", "L", "L")),
        right_relax=arrays.get(("relax", "R", "R")),
        left_to_right=arrays.get(("interwell", "L", "R")),
        right_to_left=arrays.get(("interwell", "R", "L")),
        leak=leak,
    )

    single = get("frequency")
    batch = get("frequencies")
    if (single is None) == (batch is None):
        raise ValidationError(
            "[drive] needs exactly one of frequency or frequencies"
        )
    dephasing = need("dephasing")
    frequencies = [single] if single is not None else batch
    drives = tuple(
        DriveParams(amplitude=0.0, frequency=f, dephasing=dephasing)
        for f in frequencies
    )

    grid = SweepGrid(*need("eps"), *need("amp"))  # (min, max, points) each

    kernel = RateKernelParams(
        n_margin=get("n_margin", 20),
        lorentz_cutoff=get("lorentz_cutoff"),
    )

    return RunConfig(
        model=model,
        drives=drives,
        grid=grid,
        kernel=kernel,
        output_dir=get("directory", "out"),
        formats=get("formats", _FORMATS),
        config_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


def _write_artifact(path: Path, data: bytes) -> str:
    """Write bytes atomically (temp file + rename), return the sha256."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return hashlib.sha256(data).hexdigest()


def csv_bytes(pmap: PopulationMap) -> bytes:
    """Row-major CSV, outer loop over amplitude, 17 significant digits."""
    # Each axis value is formatted once per map, not once per line.
    eps_text = [f"{e:.17g}," for e in pmap.grid.eps_values.tolist()]
    lines = [_CSV_HEADER]
    for amp, row in zip(pmap.grid.amp_values.tolist(), pmap.values.tolist()):
        amp_text = f"{amp:.17g},"
        lines.extend(f"{e}{amp_text}{v:.17g}" for e, v in zip(eps_text, row))
    return ("\n".join(lines) + "\n").encode("ascii")


def write_csv(path, pmap: PopulationMap) -> str:
    return _write_artifact(Path(path), csv_bytes(pmap))


def read_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of write_csv: (eps_values, amp_values, values)."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != _CSV_HEADER:
            raise ValidationError(f"unexpected CSV header {header!r}")
        cols = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if not cols:
        raise ValidationError("CSV has no data rows")
    try:
        eps_col, amp_col, p_col = np.array(cols, dtype=float).T
    except ValueError:
        raise ValidationError("CSV rows must hold three numbers") from None
    n = len(cols)
    n_eps = 1
    while n_eps < n and amp_col[n_eps] == amp_col[0]:
        n_eps += 1
    if n % n_eps:
        raise ValidationError("CSV rows do not form a rectangular grid")
    return eps_col[:n_eps], amp_col[::n_eps], p_col.reshape(n // n_eps, n_eps)


def pgm_bytes(pmap: PopulationMap) -> bytes:
    """8-bit binary graymap; amplitude increases upward, so the top
    raster row is the last grid row."""
    pixels = np.floor(pmap.values * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{pmap.grid.n_eps} {pmap.grid.n_amp}\n255\n".encode("ascii")
    return header + pixels[::-1].tobytes()


def write_pgm(path, pmap: PopulationMap) -> str:
    return _write_artifact(Path(path), pgm_bytes(pmap))


def read_pgm(path) -> np.ndarray:
    """Raster in file order (top row first, amplitude decreasing)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _, rest = blob.partition(b"\n")
    dims, _, rest = rest.partition(b"\n")
    maxval, _, raster = rest.partition(b"\n")
    if magic != b"P5" or maxval != b"255":
        raise ValidationError("not an 8-bit P5 graymap")
    size = dims.split()
    if len(size) != 2 or not all(t.isdigit() for t in size):
        raise ValidationError("graymap size must be two integers")
    width, height = map(int, size)
    if len(raster) != width * height:
        raise ValidationError("graymap raster size mismatch")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def _regime_payload(model: QubitModel, drive: DriveParams):
    try:
        report = regime_classify(model, drive)
    except InsufficientLevels:
        return None
    return {
        "delta_a_ghz": report.delta_a,
        "delta_d_ghz": report.delta_d,
        "ratio": report.ratio,
        "classification": report.regime.value,
        "spacing_pair": list(report.spacing_pair),
    }


def run(config: RunConfig, workers: int = 1, out_dir=None) -> int:
    """Execute every sweep of the config and write maps plus manifest.

    An old manifest is deleted before the first map is written, and the
    new one is written after all maps succeed, so its absence marks an
    incomplete output directory.  Map files (and their temp files) left
    by an earlier run are deleted before the manifest is written; other
    files in the directory are left alone.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    maps = run_frequency_batch(
        config.model, config.drives, config.grid, config.kernel, workers
    )
    (out / "manifest.json").unlink(missing_ok=True)
    reports = []
    for idx, (drive, pmap) in enumerate(zip(config.drives, maps)):
        stem = f"map_{idx:02d}"
        files = {}
        if "csv" in config.formats:
            files["csv"] = {
                "name": f"{stem}.csv",
                "sha256": write_csv(out / f"{stem}.csv", pmap),
            }
        if "pgm" in config.formats:
            files["pgm"] = {
                "name": f"{stem}.pgm",
                "sha256": write_pgm(out / f"{stem}.pgm", pmap),
            }
        reports.append(
            {
                "frequency_ghz": drive.frequency,
                "fingerprint": pmap.fingerprint,
                "regime": _regime_payload(config.model, drive),
                "files": files,
            }
        )
    written = {f["name"] for report in reports for f in report["files"].values()}
    for path in out.glob("map_*"):
        if _MAP_FILE_RE.fullmatch(path.name) and path.name not in written:
            path.unlink()
    manifest = {
        "config_sha256": config.config_sha256,
        "boundaries": [
            {
                "left_level": b.left_level,
                "right_level": b.right_level,
                "position_ghz": b.position,
            }
            for b in diamond_boundaries(config.model)
        ],
        "maps": reports,
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_artifact(out / "manifest.json", payload.encode("ascii"))
    return 0


def _probe(config: RunConfig, eps: float, amp: float) -> int:
    """Print the stationary populations at one working point, using the
    first configured drive frequency."""
    base = config.drives[0]
    drive = DriveParams(
        amplitude=amp, frequency=base.frequency, dephasing=base.dephasing
    )
    p = stationary_solve(
        build_rate_matrix(config.model, eps, drive, config.kernel)
    )
    for state, prob in zip(p.states, p.probabilities):
        print(f"{state.label} {prob:.17g}")
    print(f"P_left {p.p_left:.17g}")
    print(f"P_right {p.p_right:.17g}")
    print(f"P_leak {p.p_leak:.17g}")
    return 0


def _boundaries(config: RunConfig) -> int:
    for b in diamond_boundaries(config.model):
        print(
            f"crossing {b.left_level}L-{b.right_level}R "
            f"position_ghz {b.position:.17g}"
        )
    for drive in config.drives:
        payload = _regime_payload(config.model, drive)
        if payload is None:
            print(
                f"frequency_ghz {drive.frequency:.17g} regime undetermined "
                "(single left level)"
            )
        else:
            print(
                f"frequency_ghz {drive.frequency:.17g} "
                f"delta_a {payload['delta_a_ghz']:.17g} "
                f"delta_d {payload['delta_d_ghz']:.17g} "
                f"ratio {payload['ratio']:.17g} "
                f"regime {payload['classification']}"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lzs-sim",
        description="Stationary-population interference maps of a driven "
        "multilevel double-well qubit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sweep the grid and write maps")
    run_p.add_argument("config", help="configuration file")
    run_p.add_argument("--workers", type=int, default=1, help="worker processes")
    run_p.add_argument("--out", default=None, help="override output directory")

    probe_p = sub.add_parser(
        "probe", help="print stationary populations at one (eps, amp) point"
    )
    probe_p.add_argument("config", help="configuration file")
    probe_p.add_argument("--eps", type=float, required=True, help="detuning (GHz)")
    probe_p.add_argument("--amp", type=float, required=True, help="amplitude (GHz)")

    bound_p = sub.add_parser(
        "boundaries", help="print diamond boundaries and regime classification"
    )
    bound_p.add_argument("config", help="configuration file")

    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
        if args.command == "run":
            return run(config, workers=args.workers, out_dir=args.out)
        if args.command == "probe":
            return _probe(config, args.eps, args.amp)
        return _boundaries(config)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
