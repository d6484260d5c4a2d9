"""Command line front end: build clouds, tabulate norms, run verification.

Exit codes: 0 on success, 1 when an evaluated verification check fails its
budget, 2 on usage or configuration errors. A check that evaluated nothing
prints ``<check>: NOT EVALUATED (<reason>)``, writes no witness rows and does
not change the exit code. All floating output is repr-formatted, so
identical runs produce identical bytes.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .errors import FrakspaceError
from .functions import battery, sample
from .maximal import ScaleGrid
from .measure import DEFAULT_POINT_BUDGET, build_cloud, generator_spec
from .norms import besov_norm, calderon_norm
from .verify import DIRECT_CHECKS, RunConfig, check_ahlfors, run_all

HEADER = "# frakspace v1"

NORMS_COLUMNS = [
    "name",
    "generator",
    "depth",
    "alpha",
    "p",
    "q",
    "u",
    "variant",
    "lp",
    "sharp_lp",
    "calderon",
    "besov_seminorm",
    "besov",
    "nu_min",
    "nu_max",
]

VERIFY_COLUMNS = ["check", "generator", "depth", "function", "params", "value"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_build(args) -> int:
    spec = generator_spec(args.generator)
    cloud = build_cloud(spec, args.depth, budget=args.budget)
    print(f"{cloud.size} points, s={cloud.s:.5f}")
    print(
        f"diam={cloud.diam!r} resolution={cloud.resolution_scale!r} "
        f"depth={cloud.depth}"
    )
    report, _ = check_ahlfors(cloud, args.samples, args.seed, spec.name)
    print(
        f"ahlfors c1={report.c1_hat!r} c2={report.c2_hat!r} "
        f"ratio={report.ratio!r}"
    )
    return 0


def _cmd_norms(args) -> int:
    spec = generator_spec(args.generator)
    cloud = build_cloud(spec, args.depth, budget=args.budget)
    grid = ScaleGrid.dyadic(cloud, factor=args.factor, nu_max=args.nu_max)
    rows = []
    for tf in battery(cloud, seed=args.seed):
        gf = sample(tf, cloud)
        for alpha in args.alpha:
            for p in args.p:
                sharp_lp, calderon = "", ""
                if p > 1.0:  # the Calderon norm does not depend on q
                    cal = calderon_norm(
                        cloud,
                        gf,
                        alpha,
                        p,
                        u=args.u if args.u is not None else 1.0,
                        variant=args.variant,
                        grid=grid,
                    )
                    sharp_lp, calderon = cal.sharp_lp, cal.calderon
                for q in args.q:
                    besov = besov_norm(cloud, gf, alpha, p, q, u=args.u, grid=grid)
                    rows.append(
                        [
                            tf.name,
                            spec.name,
                            cloud.depth,
                            alpha,
                            p,
                            q,
                            besov.params["u"],
                            args.variant,
                            besov.lp,
                            sharp_lp,
                            calderon,
                            besov.besov_seminorm,
                            besov.besov,
                            besov.nu_min,
                            besov.nu_max,
                        ]
                    )
    out = Path(args.out)
    _write_csv(out, NORMS_COLUMNS, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _cmd_verify(args) -> int:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            config = RunConfig.from_dict(json.load(fh))
    else:
        config = RunConfig()
    if args.seed is not None:  # checked as the config's own seed is
        config = dataclasses.replace(config, seed=RunConfig.from_dict({"seed": args.seed}).seed)
    results = run_all(config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = [
        [r.check_name, w.generator, w.depth, w.function, w.params, w.value]
        for r in results
        for w in r.witnesses
    ]
    _write_csv(outdir / "verify.csv", VERIFY_COLUMNS, rows)

    lines = []
    for r in results:
        if r.evaluated:
            status = "PASS" if r.passed else "FAIL"
            line = f"worst_constant={r.worst_constant!r} budget={r.budget!r} {status}"
        elif r.check_name in DIRECT_CHECKS:
            line = "NOT EVALUATED (nothing evaluated)"
        else:
            line = "NOT EVALUATED (no generator with two evaluated depths)"
        lines.append(f"{r.check_name}: {line}")
    verdict = "\n".join(lines) + ("\n" if lines else "")
    (outdir / "verdict.txt").write_text(verdict, encoding="utf-8")
    sys.stdout.write(verdict)
    return 1 if any(r.evaluated and not r.passed for r in results) else 0


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frakspace",
        description="Smoothness norms and consistency checks on fractal point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a point cloud and report its profile")
    b.add_argument("generator", help="builtin name or path to an IFS json file")
    b.add_argument("--depth", type=int, required=True)
    b.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)
    b.add_argument("--samples", type=int, default=32)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=_cmd_build)

    n = sub.add_parser("norms", help="tabulate norms of the function battery")
    n.add_argument("generator")
    n.add_argument("--depth", type=int, required=True)
    n.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)
    n.add_argument("--alpha", type=float, nargs="+", default=[0.7])
    n.add_argument("--p", type=float, nargs="+", default=[2.0])
    n.add_argument("--q", type=float, nargs="+", default=[2.0])
    n.add_argument("--u", type=float, default=None)
    n.add_argument("--variant", choices=["sharp", "flat"], default="sharp")
    n.add_argument("--factor", type=float, default=4.0)
    n.add_argument("--nu-max", type=int, default=None)
    n.add_argument("--seed", type=int, default=0)
    n.add_argument("--out", default="norms.csv")
    n.set_defaults(func=_cmd_norms)

    v = sub.add_parser("verify", help="run all checks and write verdicts")
    v.add_argument("--config", default=None, help="json file of RunConfig fields")
    v.add_argument("--out", default=".", help="directory for verify.csv/verdict.txt")
    v.add_argument("--seed", type=int, default=None)
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FrakspaceError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
