"""The benchmark's three workloads: inputs, one timed pass, output checks.

Each workload is a closed loop with one caller: a pass is a fixed list of
operations, each issued when the previous one returns. Set-up builds every
input from the seed; the checks run after the timed passes, untimed, against
``oracles``, which shares no code with the package.

Every call into the package goes through a module attribute
(``fs.norms.besov_norm``, not a name bound at import), so the tracer's
wrappers see the benchmark's own calls as well as the package's internal
ones.
"""
from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import oracles

# ---------------------------------------------------------------- helpers


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _battery_function(fs, cloud, seed: int, name: str):
    tf = next(t for t in fs.functions.battery(cloud, seed=seed) if t.name == name)
    return fs.functions.sample(tf, cloud)


def _profile(fs, cloud) -> None:
    """Ahlfors probe over the cloud's admissible scales, as ``frakspace build`` does."""
    scales = np.geomspace(4.0 * cloud.resolution_scale, cloud.diam / 4.0, 4)
    fs.measure.ahlfors_constants(cloud, samples=8, scales=scales, rng=0)


# ---------------------------------------------------------- verify-default

# The ten checks the default configuration runs: the four tight ones and the
# six depth-stability ones (every default generator but square and carpet
# has two or more depths).
VERIFY_CHECKS = (
    "ahlfors_ratio",
    "embedding_perscale",
    "embedding_stability",
    "monotonicity",
    "monotonicity_regularity",
    "poincare_stability",
    "reverse_holder_stability",
    "sharp_equivalence_left",
    "sharp_equivalence_right_stability",
    "sobolev_stability",
)
# Constants that hold exactly by construction, with the budget they must meet.
VERIFY_EXACT = {
    "monotonicity": 1.0 + 1e-6,
    "embedding_perscale": 1.0 + 1e-6,
    "sharp_equivalence_left": 1.0 + 1e-8,
}
VERIFY_MIN_PAIRS = 500
# Cells checked per error matrix built during a traced verify pass.
VERIFY_CELLS_PER_MATRIX = 3


class VerifyDefault:
    name = "verify-default"

    def setup(self, fs, seed: int, workdir: Path) -> dict:
        # The input is the default RunConfig, which fixes its own seed; the
        # benchmark's seed only picks the matrix cells that a traced run checks
        # (the run puts the matrices it saw into state["matrices"]).
        outdir = workdir / "verify"
        outdir.mkdir(parents=True, exist_ok=True)
        state = {"fs": fs, "outdir": outdir, "seed": seed, "results": [], "matrices": []}
        run_all = fs.cli.run_all

        def capture(config):
            results = run_all(config)
            state["results"].append(results)
            return results

        fs.cli.run_all = capture
        return state

    def operations(self, state) -> list:
        fs, outdir = state["fs"], state["outdir"]

        def verify():
            state["results"].clear()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = fs.cli.main(["verify", "--out", str(outdir)])
            return code, buf.getvalue()

        return [verify]

    def check(self, state, results) -> list[str]:
        if results[0] is None:
            return []
        problems = []
        code, stdout = results[0]
        if code != 0:
            problems.append(f"verify exited {code}")
        verdict = (state["outdir"] / "verdict.txt").read_text(encoding="utf-8")
        if verdict != stdout:
            problems.append("verdict.txt differs from the printed verdict")
        lines = verdict.splitlines()
        names = tuple(line.split(":", 1)[0] for line in lines)
        if names != VERIFY_CHECKS:
            problems.append(f"verdict names {names}")
        problems += [f"not PASS: {line}" for line in lines if not line.endswith(" PASS")]
        for line in lines:
            name = line.split(":", 1)[0]
            if name in VERIFY_EXACT:
                worst = float(line.split("worst_constant=", 1)[1].split()[0])
                if not worst <= VERIFY_EXACT[name]:
                    problems.append(f"{name} constant {worst!r} above {VERIFY_EXACT[name]!r}")
        csv_text = (state["outdir"] / "verify.csv").read_text(encoding="utf-8")
        header = "# frakspace v1\ncheck,generator,depth,function,params,value\n"
        if not csv_text.startswith(header):
            problems.append("verify.csv lacks its header")
        runs = state["results"]
        mono = [r for r in (runs[-1] if runs else []) if r.check_name == "monotonicity"]
        pairs = mono[0].metadata.get("pairs", 0) if mono else 0
        if pairs < VERIFY_MIN_PAIRS:
            problems.append(f"monotonicity evaluated {pairs} pairs")
        rng = _rng(state["seed"], 31)
        for cloud, values, k, u, scales, matrix in state["matrices"]:
            for _ in range(VERIFY_CELLS_PER_MATRIX):
                i = int(rng.integers(cloud.size))
                j = int(rng.integers(len(scales)))
                c = oracles.cell(cloud.points, cloud.weights, values, cloud.points[i],
                                 float(scales[j]), k, u)
                if not c.admits(float(matrix[i, j])):
                    problems.append(
                        f"verify matrix {cloud.name} N={cloud.size} k={k} u={u} "
                        f"cell ({i},{j}) = {matrix[i, j]!r}, oracle [{c.lo!r}, {c.hi!r}]"
                    )
        return problems


# ----------------------------------------------------------- norms-scaling

# (generator, depths) of the size ladder: 256, 1024 and 4096 points each.
LADDER = (("cantor4", (4, 5, 6)), ("interval", (8, 10, 12)))
LADDER_FUNCTION = "cusp_beta060"
NET_LEVELS = tuple(range(7))
HL_SIGMA = 1.0
# Points of each sharp and HL maximal function checked by exhaustive scan.
SAMPLED_POINTS = 24


class NormsScaling:
    name = "norms-scaling"

    def setup(self, fs, seed: int, workdir: Path) -> dict:
        rungs = []
        for gen, depths in LADDER:
            spec = fs.measure.generator_spec(gen)
            for depth in depths:
                cloud = fs.measure.build_cloud(spec, depth)
                _profile(fs, cloud)
                gf = _battery_function(fs, cloud, seed, LADDER_FUNCTION)
                rungs.append((cloud, gf, fs.maximal.ScaleGrid.dyadic(cloud)))
        # Warm-up: first calls into numpy's linear algebra on a small cloud.
        small = fs.measure.build_cloud(fs.measure.generator_spec("interval"), 6)
        fs.norms.besov_norm(small, _battery_function(fs, small, seed, LADDER_FUNCTION),
                            1.3, 2.0, 2.0)
        return {"fs": fs, "rungs": rungs, "seed": seed}

    def operations(self, state) -> list:
        fs = state["fs"]
        ops = []
        for cloud, gf, grid in state["rungs"]:
            for alpha in (0.5, 1.3):
                ops.append((("besov", cloud, gf, alpha),
                            lambda c=cloud, g=gf, a=alpha: fs.norms.besov_norm(c, g, a, 2.0, 2.0)))
            if cloud.size == 256:
                for alpha in (0.5, 1.3):
                    ops.append((("calderon", cloud, gf, alpha),
                                lambda c=cloud, g=gf, a=alpha:
                                fs.norms.calderon_norm(c, g, a, 2.0, u=1.0)))
                ops.append((("sharp", cloud, gf, grid),
                            lambda c=cloud, g=gf, gr=grid:
                            fs.maximal.sharp_maximal(c, g, 0.5, u=3.0, grid=gr)))
            ops.append((("hl", cloud, gf, grid),
                        lambda c=cloud, g=gf, gr=grid: fs.maximal.hl_maximal(c, g, HL_SIGMA, gr)))
            ops.append((("net", cloud, gf, 0.5),
                        lambda c=cloud, g=gf:
                        fs.norms.besov_net_norm(c, g, 0.5, 2.0, 2.0, levels=NET_LEVELS)))
        state["labels"] = [label for label, _ in ops]
        return [op for _, op in ops]

    def check(self, state, results) -> list[str]:
        rng = _rng(state["seed"], 32)
        problems = []
        for label, res in zip(state["labels"], results):
            if res is None:
                continue
            kind, cloud = label[0], label[1]
            pts, wts, f = cloud.points, cloud.weights, np.asarray(label[2].values)
            where = f"{kind} on {cloud.name} N={cloud.size}"
            if kind == "besov":
                problems += _check_besov(where, pts, wts, f, label[3], res, rng)
            elif kind == "calderon":
                problems += _check_calderon(where, pts, wts, f, label[3], res, rng)
            elif kind == "sharp":
                scales = label[3].scales
                for i in rng.choice(cloud.size, SAMPLED_POINTS, replace=False):
                    cells = oracles.matrix_row(pts, wts, f, i, scales, 1, 3.0)
                    lo = max(c.lo * t**-0.5 for c, t in zip(cells, scales) if c.status != "skip")
                    hi = max(c.hi * t**-0.5 for c, t in zip(cells, scales) if c.status != "skip")
                    bound = oracles.Cell("bracket", lo, hi, max(c.floor for c in cells))
                    if not bound.admits(float(res.values[i])):
                        problems.append(
                            f"{where} point {i}: {res.values[i]!r} not in [{lo!r}, {hi!r}]"
                        )
            elif kind == "hl":
                for i in rng.choice(cloud.size, SAMPLED_POINTS, replace=False):
                    want = oracles.hl_value(pts, wts, f, i, label[3].scales, HL_SIGMA)
                    if not oracles.close(float(res.values[i]), want):
                        problems.append(f"{where} point {i}: {res.values[i]!r} != {want!r}")
            elif kind == "net":
                want = oracles.net_besov_seminorm(pts, wts, f, label[3], 2.0, 2.0, NET_LEVELS)
                if not oracles.close(res.seminorm, want):
                    problems.append(f"{where}: seminorm {res.seminorm!r} != {want!r}")
        return problems


def _lp(values, weights) -> float:
    """Weighted L^2 norm, the p of every norm in this workload."""
    return float(np.sqrt(np.sum(weights * np.square(values))))


def _check_besov(where, pts, wts, f, alpha, rep, rng) -> list[str]:
    """Norm arithmetic from the reported profile, and one profile entry recomputed."""
    problems = []
    if not oracles.close(rep.lp, _lp(f, wts)):
        problems.append(f"{where}: lp {rep.lp!r}")
    terms = [raw * (rep.diam * 2.0**-nu) ** -alpha for nu, raw in rep.per_scale]
    if not oracles.close(rep.besov_seminorm, float(np.sqrt(np.sum(np.square(terms))))):
        problems.append(f"{where}: seminorm {rep.besov_seminorm!r} disagrees with its profile")
    k = int(math.floor(alpha)) + 1
    # On the largest clouds only the finer half of the scales is drawn from:
    # a coarse-scale cube there holds thousands of points per cell.
    profile = rep.per_scale
    if len(pts) > 1024:
        profile = profile[len(profile) // 2:]
    nu, raw = profile[int(rng.integers(len(profile)))]
    t = rep.diam * 2.0**-nu
    cells = [oracles.cell(pts, wts, f, pts[i], t, k, 2.0) for i in range(len(pts))]
    if any(c.status == "ambiguous" for c in cells):
        return problems
    ok = np.array([c.status == "exact" for c in cells])
    vals = np.array([c.lo if c.status == "exact" else 0.0 for c in cells])
    want = _lp(vals[ok], wts[ok])
    if not oracles.close(raw, want):
        problems.append(f"{where} alpha={alpha}: scale {nu} error norm {raw!r} != {want!r}")
    return problems


def _check_calderon(where, pts, wts, f, alpha, rep, rng) -> list[str]:
    """Bracket the L^2 norm of the sharp maximal function cell by cell.

    Every point bounds it from above; the sampled points alone bound it from
    below, the others counting 0, which keeps the exact minima affordable.
    """
    problems = []
    if not oracles.close(rep.lp, _lp(f, wts)):
        problems.append(f"{where}: lp {rep.lp!r}")
    if not oracles.close(rep.calderon, rep.lp + rep.sharp_lp, 1e-12):
        problems.append(f"{where}: calderon is not lp + sharp_lp")
    k = int(math.ceil(alpha))
    scales = rep.diam * 2.0 ** -np.arange(rep.nu_min, rep.nu_max + 1)
    lo, hi = np.empty(len(pts)), np.empty(len(pts))
    sampled = set(rng.choice(len(pts), SAMPLED_POINTS, replace=False).tolist())
    floor = 0.0
    for i in range(len(pts)):
        cells = oracles.matrix_row(pts, wts, f, i, scales, k, 1.0, lower=i in sampled)
        weighted = [(c, t**-alpha) for c, t in zip(cells, scales) if c.status != "skip"]
        if any(c.status == "ambiguous" for c, _ in weighted):
            return problems
        lo[i] = max(c.lo * s for c, s in weighted)
        hi[i] = max(c.hi * s for c, s in weighted)
        floor = max([floor] + [c.floor * s for c, s in weighted])
    bound = oracles.Cell("bracket", _lp(lo, wts), _lp(hi, wts), floor)
    if not bound.admits(rep.sharp_lp):
        problems.append(f"{where} alpha={alpha}: sharp_lp {rep.sharp_lp!r} not in "
                        f"[{bound.lo!r}, {bound.hi!r}]")
    return problems


# ------------------------------------------------------------ cube-queries

CUBE_CLOUDS = (("cantor4", 5), ("interval", 10), ("square", 5), ("carpet", 3))
CUBE_FUNCTIONS = ("cusp_beta060", "ridge_abs", "lacunary_beta050", "sigmoid_steep")
CUBES_PER_CLOUD = 180
FIT_PAIRS = tuple((k, u) for k in (1, 2, 3) for u in (1.0, 2.0, 3.0))
# The benchmark's own rank test: singular-value ratio of the quadratic
# design on an accepted cube, far above the package's 1e-6 threshold.
CUBE_MIN_SV_RATIO = 1e-4
REVHOLDER_Q, REVHOLDER_U = 4.0, 1.0


def _draw_cubes(cloud, rng, count):
    """Cubes whose own mask holds enough, well-poised points for k = 3.

    Half-sides are stratified on a log scale, cube j drawn from the j-th of
    ``count`` equal slices of [lo, hi], so every seed gets the same spread
    of cube sizes and hence about the same work.
    """
    n = cloud.ambient_dim
    need = 2 * oracles.space_dim(n, 3)
    lo, hi = 3.0 * cloud.resolution_scale, cloud.diam / 6.0
    quad = oracles.exponents(n, 3)
    cubes = []
    while len(cubes) < count:
        center = cloud.points[rng.integers(cloud.size)] + (rng.random(n) - 0.5) * lo
        half = float(lo * (hi / lo) ** ((len(cubes) + rng.random()) / count))
        mask = oracles.cube_mask(cloud.points, center, half)
        if mask.sum() < need:
            continue
        V = oracles.design((cloud.points[mask] - center) / half, quad)
        sv = np.linalg.svd(V * np.sqrt(cloud.weights[mask])[:, None], compute_uv=False)
        if sv[-1] > CUBE_MIN_SV_RATIO * sv[0]:
            cubes.append((center, half))
    return cubes


class CubeQueries:
    name = "cube-queries"

    def setup(self, fs, seed: int, workdir: Path) -> dict:
        rng = _rng(seed, 33)
        items = []
        for gen, depth in CUBE_CLOUDS:
            cloud = fs.measure.build_cloud(fs.measure.generator_spec(gen), depth)
            _profile(fs, cloud)
            funcs = [_battery_function(fs, cloud, seed, name) for name in CUBE_FUNCTIONS]
            mid, diam = cloud.points.mean(axis=0), cloud.diam
            for c, (center, half) in enumerate(_draw_cubes(cloud, rng, CUBES_PER_CLOUD)):
                kp = 1 + c % 3
                name = f"{cloud.name} cube {c} (center {center.tolist()}, half-side {half!r})"
                exps = oracles.exponents(cloud.ambient_dim, kp)
                coef = rng.standard_normal(len(exps))
                poly = oracles.design((cloud.points - mid) / diam, exps) @ coef
                items.append({
                    "name": name,
                    "cloud": cloud,
                    "cube": fs.geometry.Cube(center, half),
                    "f": funcs[c % len(funcs)],
                    "poly": (poly, kp, FIT_PAIRS[c % len(FIT_PAIRS)][1]),
                    "proj_k": 2 + c % 2,
                })
        warm = items[0]
        fs.polyapprox.best_approx(warm["cloud"], warm["cube"], warm["f"], 2, 3.0)
        return {"fs": fs, "items": items, "seed": seed}

    def operations(self, state) -> list:
        fs = state["fs"]
        pa = fs.polyapprox
        ops, labels = [], []
        for it in state["items"]:
            cloud, cube, f = it["cloud"], it["cube"], it["f"]
            ops.append(lambda c=cloud, q=cube: fs.geometry.restrict(c, q))
            labels.append(("restrict", it))
            for k, u in FIT_PAIRS:
                ops.append(lambda c=cloud, q=cube, g=f, k=k, u=u: pa.best_approx(c, q, g, k, u))
                labels.append(("fit", it, k, u))
            poly, kp, up = it["poly"]
            ops.append(lambda c=cloud, q=cube, p=poly, k=kp, u=up: pa.best_approx(c, q, p, k, u))
            labels.append(("poly", it, kp, up))
            slot = {}

            def project(c=cloud, q=cube, k=it["proj_k"], s=slot):
                s["proj"] = pa.make_projector(c, q, k)
                return s["proj"]

            def apply(g=f, s=slot):
                s["p"] = pa.apply_projector(s["proj"], g)
                return s["p"]

            ops += [project, apply,
                    lambda c=cloud, q=cube, s=slot:
                    pa.reverse_holder_ratio(c, q, s["p"], REVHOLDER_Q, REVHOLDER_U)]
            labels += [("projector", it), ("project", it), ("revholder", it)]
        state["labels"] = labels
        return ops

    def check(self, state, results) -> list[str]:
        problems = []
        for label, res in zip(state["labels"], results):
            if res is None:
                continue
            it = label[1]
            cloud, cube = it["cloud"], it["cube"]
            mask = oracles.cube_mask(cloud.points, cube.center, cube.half_side)
            w = cloud.weights[mask]
            mass = float(w.sum())
            kind = label[0]
            where = f"{kind} on {it['name']}"
            if kind == "restrict":
                idx, got = res
                same = np.array_equal(idx, np.flatnonzero(mask))
                if not same or not oracles.close(got, mass, 1e-12):
                    problems.append(f"{where}: indices or mass differ from the mask")
            elif kind in ("fit", "poly"):
                k, u = label[2], label[3]
                values = np.asarray(it["f"].values) if kind == "fit" else it["poly"][0]
                problems += _check_fit(where, cloud, cube, mask, values, k, u, res,
                                       polynomial=kind == "poly")
            elif kind == "project":
                values = np.asarray(it["f"].values)[mask]
                k = it["proj_k"]
                V = oracles.design((cloud.points[mask] - cube.center) / cube.half_side,
                                   oracles.exponents(cloud.ambient_dim, k))
                coef, _ = oracles.least_squares(V, w, values)
                got = oracles.evaluate_poly(cloud.points[mask], res.exponents, res.coefficients,
                                            res.origin, res.scale)
                scale = float(np.max(np.abs(values)))
                if np.max(np.abs(got - V @ coef)) > oracles.ORACLE_REL * scale:
                    problems.append(f"{where}: projection differs from weighted least squares")
            elif kind == "revholder":
                if not res >= 1.0 - 1e-12:
                    problems.append(f"{where}: reverse Holder ratio {res!r} < 1")
        return problems


def _check_fit(where, cloud, cube, mask, values, k, u, res, polynomial) -> list[str]:
    """One best_approx result: its minimizer, and its value against the oracle.

    A ``polynomial`` of degree < k must be fitted with zero error.
    """
    problems = []
    f = values[mask]
    w = cloud.weights[mask]
    norm = float(w.sum()) ** (1.0 / u)
    scale = float(np.max(np.abs(f)))
    floor = 2.0 * oracles.CLAMP_FLOOR * scale * norm
    if not oracles.close(res.normalized, res.value / norm, 1e-12):
        problems.append(f"{where} k={k} u={u}: normalized is not value / mass^(1/u)")
    p = res.minimizer
    fitted = oracles.evaluate_poly(
        cloud.points[mask], p.exponents, p.coefficients, p.origin, p.scale
    )
    resid = oracles.lu_norm(f - fitted, w, u)
    if resid > floor if res.value == 0.0 else not oracles.close(res.value, resid, 1e-9):
        problems.append(
            f"{where} k={k} u={u}: minimizer residual {resid!r} != value {res.value!r}"
        )
    if polynomial:
        if res.normalized > 1e-9 * scale:
            problems.append(
                f"{where} k={k} u={u}: polynomial of degree < k leaves {res.normalized!r}"
            )
        return problems
    c = oracles.cell(cloud.points, cloud.weights, values, cube.center, cube.half_side, k, u)
    if c.status == "skip" or not c.admits(res.normalized):
        problems.append(f"{where} k={k} u={u}: {res.normalized!r} not in [{c.lo!r}, {c.hi!r}]")
    return problems


WORKLOADS = {w.name: w for w in (VerifyDefault(), NormsScaling(), CubeQueries())}
