"""Per-call time of approx_error_matrix by (k, u) and cloud size.

    python3 bench/matrix_table.py

Prints the Markdown table quoted in bench/README.md: one call per cell, on
the cusp_beta060 function of the battery with seed 0. Sizes of 4096 points
are timed for u = 2 only; other u take minutes there.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import frakspace as fs  # noqa: E402

CLOUDS = (("cantor4", (4, 5, 6)), ("interval", (8, 10, 12)))
PAIRS = ((1, 1.0), (1, 2.0), (1, 3.0), (2, 1.0), (2, 2.0), (2, 3.0))


def main() -> None:
    print("| cloud | N | scales | " + " | ".join(f"k={k},u={u:g}" for k, u in PAIRS) + " |")
    print("|---|---|---|" + "---|" * len(PAIRS))
    for gen, depths in CLOUDS:
        for depth in depths:
            cloud = fs.build_cloud(fs.generator_spec(gen), depth)
            tf = next(t for t in fs.battery(cloud, seed=0) if t.name == "cusp_beta060")
            gf = fs.sample(tf, cloud)
            grid = fs.ScaleGrid.dyadic(cloud)
            cells = []
            for k, u in PAIRS:
                if cloud.size > 1024 and u != 2.0:
                    cells.append("–")
                    continue
                t0 = time.perf_counter()
                fs.approx_error_matrix(cloud, gf, k, u, grid)
                cells.append(f"{time.perf_counter() - t0:.3g}")
            print(f"| {gen} d{depth} | {cloud.size} | {len(grid)} | " + " | ".join(cells) + " |",
                  flush=True)


if __name__ == "__main__":
    main()
