"""Print sampled P_L values of every map of every shipped config, computed
at its full grid on one worker, as ``run`` computes them.

Each map is sampled at the rows and columns round(i * (n - 1) / 10),
i = 0 .. 10, so 11 x 11 points.  One line per point gives the config's
file stem, the map's index, the row, the column and the value as
``float.hex``, so the file holds every bit.  tests/map_samples.txt is
this output; its test recomputes the points and reports how far they
moved.  A change that moves map bits on purpose leaves that file as it
is, so the move shows in every later run.

Usage: PYTHONPATH=src python3 tools/map_samples.py > tests/map_samples.txt
"""

from pathlib import Path

from lzs_sim.cli import parse_config
from lzs_sim.sweep import run_frequency_batch

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def samples(n: int) -> list[int]:
    """The 11 sampled indices of an axis of n points."""
    return [round(i * (n - 1) / 10) for i in range(11)]


def main() -> None:
    print("# config map row column P_L, sampled by tools/map_samples.py")
    for path in sorted(CONFIGS.glob("*.cfg")):
        config = parse_config(path.read_text())
        grid = config.grid
        maps = run_frequency_batch(config.model, config.drives, grid, config.kernel, 1)
        for m, pmap in enumerate(maps):
            for row in samples(grid.n_amp):
                for col in samples(grid.n_eps):
                    print(path.stem, m, row, col, float(pmap.values[row, col]).hex())


if __name__ == "__main__":
    main()
