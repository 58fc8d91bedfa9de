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

The table ``_GRAMMAR`` is the grammar: each key's section, the kinds of
its arguments and of its value tokens, and its count error.  One token
parser, ``_parse_token``, reads every argument and value.

Unknown sections or keys are hard errors with line and column; semantic
violations (negative rates, non-ascending ladders, ...) raise
ValidationError.  The config says what is computed, not where it goes:
``run`` writes into the directory its caller names, on the command line
``--out`` or, without it, ``out/<config file stem>``.

``run`` computes every map before it touches the output directory,
then writes one CSV and one PGM per drive frequency plus a JSON
manifest with checksums; the manifest is written last, so
its presence marks a complete run.  Each file is written to a temp
file and renamed into place; a write that fails removes its temp file,
so a failed run leaves none behind.  Before the first map is written,
the old manifest and every map file of an earlier run go, in one pass;
directories are never touched.

The program entry (``console_main``: ``lzs-sim`` and ``python -m
lzs_sim.cli``) freezes the collector's heap after the command returns,
so the interpreter's exit skips the cyclic collection of numpy's and
this package's objects; atexit handlers, the flush of the standard
streams and the rest of the shutdown still run.  ``main`` never does.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
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
from .errors import ParseError, SimulationError, ValidationError
from .master import build_rate_matrix, stationary_solve
from .model import DriveParams, LeakConfig, QubitModel
from .rates import RateKernelParams
from .sweep import PopulationMap, SweepGrid, run_frequency_batch

__all__ = [
    "RunConfig",
    "parse_config",
    "read_csv",
    "read_pgm",
    "run",
    "main",
]

_CSV_HEADER = "eps_ghz,amp_ghz,p_left"
# The grammar: every key's section, the kinds of its key arguments, the
# kinds of its value tokens, and the key's own count error.  "floats" is
# one or more numbers.  The count error is for the arguments of a key
# that takes any, else for its value; without one, too few tokens are a
# missing value and one too many is unexpected.  Keywords are unique
# across sections.
_GRAMMAR = {
    "left_levels": ("model", "", "floats", None),
    "right_levels": ("model", "", "floats", None),
    "crossing": ("model", "int int", "float", "crossing takes two level indices"),
    "relax": ("model", "well int int", "float", "relax takes a well letter and two level indices"),
    "interwell": ("model", "state state", "float", "interwell takes a source and a target state"),
    "leak_threshold": ("model", "", "int", None),
    "leak_return": ("model", "", "float", None),
    "frequency": ("drive", "", "float", None),
    "frequencies": ("drive", "", "floats", None),
    "dephasing": ("drive", "", "float", None),
    "eps": ("grid", "", "float float int", "eps takes 'min max points'"),
    "amp": ("grid", "", "float float int", "amp takes 'min max points'"),
    "n_margin": ("kernel", "", "int", None),
}
_SECTIONS = {row[0] for row in _GRAMMAR.values()}
_STATE_RE = re.compile(r"([LR])([0-9]+)$")
_MAP_FILE_RE = re.compile(r"map_[0-9]+\.(csv|pgm)(\.tmp)?")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs of one simulation run."""

    model: QubitModel
    drives: tuple[DriveParams, ...]
    grid: SweepGrid
    kernel: RateKernelParams
    config_sha256: str


def _tokens(part: str, offset: int):
    """(token, 1-based column) pairs for the whitespace-split part."""
    return [(m.group(0), offset + m.start() + 1) for m in re.finditer(r"\S+", part)]


def _parse_token(kind: str, token: str, line: int, col: int):
    """One token of a kind: an int (up to sys.get_int_max_str_digits()
    digits, 4300 by default), a finite float, a well letter, or a state
    such as L0, which parses to (well, level), its level an int.
    int() and float() accept tokens the grammar does not: '1_0' and
    non-ASCII digits such as '٣' are errors here."""
    if kind == "well":
        if token not in ("L", "R"):
            raise ParseError("expected well L or R", line, col)
        return token
    if kind == "state":
        m = _STATE_RE.fullmatch(token)
        if m is None:
            raise ParseError(f"expected a state like L0 or R1, got '{token}'", line, col)
        return m.group(1), _parse_token("int", m.group(2), line, col + 1)
    plain = token if token.isascii() and "_" not in token else ""
    try:
        value = int(plain) if kind == "int" else float(plain)
    except ValueError:
        # A well-formed integer fails int() only past the digit limit.
        if kind == "int" and re.fullmatch(r"[+-]?[0-9]+", plain):
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"integer past the limit of {limit} digits", line, col) from None
        what = "an integer" if kind == "int" else "a number"
        raise ParseError(f"expected {what}, got '{token}'", line, col) from None
    # Only a float can be infinite: isfinite() overflows on a huge int.
    if kind == "float" and not math.isfinite(value):
        raise ParseError(f"expected a finite number, got '{token}'", line, col)
    return value


def _parse_tokens(kinds: str, toks, error, line: int, col: int) -> list:
    """toks parsed by their kinds; a wrong count raises error at col."""
    if kinds == "floats":
        kinds = "float " * max(1, len(toks))
    kinds = kinds.split()
    if len(toks) != len(kinds):
        if error:
            raise ParseError(error, line, col)
        if len(toks) < len(kinds):
            raise ParseError("missing value", line, col)
        tok, tok_col = toks[len(kinds)]
        raise ParseError(f"unexpected token '{tok}'", line, tok_col)
    return [_parse_token(kind, tok, line, c) for kind, (tok, c) in zip(kinds, toks)]


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text into a RunConfig.

    Grammar errors raise ParseError with 1-based line and column;
    violations of model/drive/grid invariants raise ValidationError.
    """
    section = None
    # keyword -> {parsed key arguments: (value, line)}, in file order;
    # a key without arguments is stored under ().
    found: dict[str, dict] = {keyword: {} for keyword in _GRAMMAR}

    # Lines end at \n, \r\n or \r only: str.splitlines() would also break
    # at \f, \v, \x85, U+2028 and the like, which stay whitespace here.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, 1):
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
        key_section, arg_kinds, value_kinds, error = _GRAMMAR.get(keyword, (None,) * 4)
        if key_section != section:
            raise ParseError(
                f"unknown key '{keyword}' in [{section}]", lineno, key_col
            )

        key = tuple(_parse_tokens(arg_kinds, args, arg_kinds and error, lineno, key_col))
        toks = _tokens(body[eq + 1 :], eq + 1)
        value = _parse_tokens(value_kinds, toks, not arg_kinds and error, lineno, eq + 2)
        if " " not in value_kinds and value_kinds != "floats":  # a single token
            value = value[0]
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
    for keyword in [key for key, row in _GRAMMAR.items() if row[1]]:  # indexed keys
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

    kernel = RateKernelParams(n_margin=get("n_margin", RateKernelParams.n_margin))

    return RunConfig(
        model=model,
        drives=drives,
        grid=grid,
        kernel=kernel,
        config_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


def _write_artifact(path: Path, data: bytes) -> dict:
    """Write bytes atomically (temp file + rename); return the file's
    manifest record, its name and sha256.  The only writer of a file.

    When the write or the rename raises, the temp file goes and the
    error is raised unchanged.  A temp file that could not be opened
    was never this call's, so a failed open removes nothing."""
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    return {"name": path.name, "sha256": hashlib.sha256(data).hexdigest()}


def csv_bytes(pmap: PopulationMap) -> bytes:
    """Row-major CSV, outer loop over amplitude, 17 significant digits."""
    # Each axis value is formatted once per map, not once per line.
    eps_text = [f"{e:.17g}," for e in pmap.grid.eps_values.tolist()]
    lines = [_CSV_HEADER]
    for amp, row in zip(pmap.grid.amp_values.tolist(), pmap.values.tolist()):
        amp_text = f"{amp:.17g},"
        lines.extend(f"{e}{amp_text}{v:.17g}" for e, v in zip(eps_text, row))
    return ("\n".join(lines) + "\n").encode("ascii")


def read_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of csv_bytes: (eps_values, amp_values, values)."""
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
    # A row ends where the detuning falls: it never falls within a row.
    restarts = np.flatnonzero(eps_col[1:] < eps_col[:-1])
    n_eps = int(restarts[0]) + 1 if restarts.size else len(cols)
    eps, amp = eps_col[:n_eps], amp_col[::n_eps]
    # Every row repeats the first row's detunings at one amplitude.
    if len(cols) != eps.size * amp.size or (
        (np.tile(eps, amp.size) != eps_col) | (np.repeat(amp, n_eps) != amp_col)
    ).any():
        raise ValidationError("CSV rows do not form a rectangular grid")
    return eps, amp, p_col.reshape(-1, n_eps)


def pgm_bytes(pmap: PopulationMap) -> bytes:
    """8-bit binary graymap; amplitude increases upward, so the top
    raster row is the last grid row."""
    pixels = np.floor(pmap.values * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{pmap.grid.n_eps} {pmap.grid.n_amp}\n255\n".encode("ascii")
    return header + pixels[::-1].tobytes()


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
    report = regime_classify(model, drive)
    if report is None:
        return None
    return {
        "delta_a_ghz": report.delta_a,
        "delta_d_ghz": report.delta_d,
        # JSON has no infinity: a ratio that overflows is written as null.
        "ratio": report.ratio if math.isfinite(report.ratio) else None,
        "classification": report.regime.value,
        "spacing_pair": list(report.spacing_pair),
    }


def run(config: RunConfig, workers: int, out_dir) -> int:
    """Execute every sweep of the config and write maps plus manifest
    into the directory out_dir, created if absent.

    Every map is computed before anything in the output directory
    changes, so an error on the way (an invalid config or worker count,
    a non-convergent point) leaves the directory as it was, or absent;
    an unwritable directory is reported only after the compute.  Then,
    before the first map is written, one pass deletes the old manifest
    and every map file (``map_<digits>.csv`` or ``.pgm``, temp files
    included) of an earlier run; it leaves directories and every other
    file alone.  The new manifest is written after all maps, so its
    absence marks an incomplete output directory.  A write that fails
    removes its temp file, so a failed run adds no ``.tmp`` file.
    """
    maps = run_frequency_batch(
        config.model, config.drives, config.grid, config.kernel, workers
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for path in out.glob("map_*"):
        if _MAP_FILE_RE.fullmatch(path.name) and not path.is_dir():
            path.unlink()
    reports = []
    for idx, (drive, pmap) in enumerate(zip(config.drives, maps)):
        files = {}
        for kind, to_bytes in (("csv", csv_bytes), ("pgm", pgm_bytes)):
            files[kind] = _write_artifact(out / f"map_{idx:02d}.{kind}", to_bytes(pmap))
        reports.append(
            {
                "frequency_ghz": drive.frequency,
                "fingerprint": pmap.fingerprint,
                "regime": _regime_payload(config.model, drive),
                "files": files,
            }
        )
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
    payload = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
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
        report = regime_classify(config.model, drive)
        if report is None:
            print(
                f"frequency_ghz {drive.frequency:.17g} regime undetermined "
                "(single left level)"
            )
            continue
        print(
            f"frequency_ghz {drive.frequency:.17g} delta_a {report.delta_a:.17g} "
            f"delta_d {report.delta_d:.17g} ratio {report.ratio:.17g} "
            f"regime {report.regime.value}"
        )
    return 0


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity set, or the
    machine's core count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lzs-sim",
        description="Stationary-population interference maps of a driven "
        "multilevel double-well qubit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sweep the grid and write maps")
    run_p.add_argument("config", help="configuration file")
    run_p.add_argument(
        "--workers",
        type=int,
        default=_usable_cores(),
        help="worker processes (default: the usable cores, here %(default)s); "
        "--workers 1 forces one process",
    )
    run_p.add_argument("--out", help="output directory (default: out/<config name>)")

    probe_p = sub.add_parser(
        "probe", help="print stationary populations at one (eps, amp) point"
    )
    probe_p.add_argument(
        "config", help="configuration file; probe uses its first drive frequency"
    )
    probe_p.add_argument("--eps", type=float, required=True, help="detuning (GHz)")
    probe_p.add_argument("--amp", type=float, required=True, help="amplitude (GHz)")

    bound_p = sub.add_parser(
        "boundaries", help="print diamond boundaries and regime classification"
    )
    bound_p.add_argument("config", help="configuration file")

    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8-sig") as fh:  # a BOM is not text
            config = parse_config(fh.read())
        if args.command == "run":
            out = Path("out", Path(args.config).stem) if args.out is None else args.out
            return run(config, workers=args.workers, out_dir=out)
        if args.command == "probe":
            return _probe(config, args.eps, args.amp)
        return _boundaries(config)
    except (ParseError, UnicodeDecodeError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, OSError, MemoryError) as exc:
        # Python's own MemoryError has no message; name the error then.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def console_main() -> int:
    """Program entry of ``lzs-sim`` and ``python -m lzs_sim.cli``: main()
    on the command line, then ``gc.freeze()``.

    The interpreter's exit then skips the cyclic collection of every
    object alive at the freeze (numpy's and this package's module heap):
    a short run's exit falls from about 34 ms to about 9 ms on two
    cores.  atexit handlers, the flush of stdout and stderr and the rest
    of the shutdown still run.  main() itself never freezes: an
    in-process caller's heap would stay out of the collector for good.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
