"""Where the tracer hooks into the package, and the per-layer metrics it yields.

A function is wrapped at every module attribute through which it is called:
``from .geometry import restrict`` in ``polyapprox`` binds a second name, and
calls through that name would bypass a wrapper on ``geometry.restrict``.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

# (layer, [(module, attribute), ...], per-call spans?)
HOOKS = (
    ("cli.main", [("cli", "main")], True),
    ("verify.run_all", [("cli", "run_all")], True),
    *(
        (f"verify.{name}", [("verify", name)], True)
        for name in (
            "check_monotonicity",
            "check_poincare",
            "check_sharp_equivalence",
            "check_embedding_chain",
            "check_sobolev_embedding",
            "check_reverse_holder",
            "check_ahlfors",
        )
    ),
    ("norms.besov_norm", [("norms", "besov_norm")], True),
    ("norms.calderon_norm", [("norms", "calderon_norm")], True),
    ("norms.besov_net_norm", [("norms", "besov_net_norm")], True),
    ("maximal.sharp_maximal", [("maximal", "sharp_maximal")], True),
    ("maximal.hl_maximal", [("maximal", "hl_maximal")], True),
    ("measure.build_cloud", [("measure", "build_cloud"), ("verify", "build_cloud")], True),
    ("measure.ahlfors_constants",
     [("measure", "ahlfors_constants"), ("verify", "ahlfors_constants")], True),
    ("functions.sample", [("functions", "sample"), ("verify", "sample")], True),
    ("polyapprox.best_approx", [("polyapprox", "best_approx"), ("verify", "best_approx")], False),
    ("polyapprox.make_projector", [("polyapprox", "make_projector")], False),
    ("polyapprox.apply_projector", [("polyapprox", "apply_projector")], False),
    ("polyapprox.reverse_holder_ratio",
     [("polyapprox", "reverse_holder_ratio"), ("verify", "reverse_holder_ratio")], False),
    ("geometry.restrict",
     [("geometry", "restrict"), ("polyapprox", "restrict"), ("verify", "restrict")], False),
    ("polyapprox.fit_in_span",
     [("polyapprox", "fit_in_span"), ("maximal", "fit_in_span"), ("norms", "fit_in_span")],
     False),
)
MATRIX_SITES = ("maximal", "norms", "verify")
LADDER_SIZES = (256, 1024, 4096)
LADDER_GENERATORS = ("cantor4", "interval")


class LayerProbe:
    """Installs the hooks and turns what they saw into per-layer metrics."""

    def __init__(self, tracer, fs):
        self.tracer = tracer
        self.matrix_times: dict[tuple, list[float]] = defaultdict(list)
        # (cloud, values, k, u, scales, matrix) of each matrix verify builds
        self.verify_matrices: list[tuple] = []
        self.verify_clouds = 0
        counts = tracer.counts

        def fit_done(args, kwargs, result, duration):
            counts["polyapprox.fit_in_span.irls_iterations"] += result[2]
            counts["polyapprox.fit_in_span.irls_not_converged"] += not result[3]

        def approx_done(args, kwargs, result, duration):
            counts["polyapprox.best_approx.not_converged"] += not result.converged

        def restrict_done(args, kwargs, result, duration):
            counts["geometry.restrict.points_scanned"] += args[0].size

        def cloud_done(args, kwargs, result, duration):
            counts["measure.build_cloud.points"] += result.size

        def cloud_built_by_verify(args, kwargs, result, duration):
            cloud_done(args, kwargs, result, duration)
            self.verify_clouds += 1

        def cache_request(args, kwargs, result, duration):
            counts["verify.matrix_cache.requests"] += 1

        def matrix_done(site):
            def done(args, kwargs, result, duration):
                cloud, k, u = args[0], int(args[2]), float(args[3])
                counts["maximal.approx_error_matrix.cells"] += result.size
                counts["maximal.approx_error_matrix.cells_evaluated"] += int(
                    np.count_nonzero(~np.isnan(result))
                )
                self.matrix_times[(cloud.name, cloud.size, k, u)].append(duration)
                if site == "verify":
                    counts["verify.matrix_cache.builds"] += 1
                    f, grid = args[1], args[4]
                    self.verify_matrices.append(
                        (cloud, np.asarray(f.values), k, u, grid.scales, result)
                    )
            return done

        extra = {
            "polyapprox.fit_in_span": fit_done,
            "polyapprox.best_approx": approx_done,
            "geometry.restrict": restrict_done,
            "measure.build_cloud": cloud_done,
        }
        for layer, sites, spans in HOOKS:
            for module, attr in sites:
                hook = extra.get(layer)
                if layer == "measure.build_cloud" and module == "verify":
                    hook = cloud_built_by_verify
                tracer.patch(getattr(fs, module), attr, layer,
                             aggregate=not spans, on_return=hook)
        for site in MATRIX_SITES:
            tracer.patch(getattr(fs, site), "approx_error_matrix",
                         "maximal.approx_error_matrix", on_return=matrix_done(site))
        tracer.patch(fs.verify.MatrixCache, "matrix", "verify.matrix_cache.matrix",
                     on_return=cache_request)

    def snapshot(self) -> dict:
        """Every per-layer figure as it stands, before per-pass scaling."""
        t, c = self.tracer, self.tracer.counts
        m = "maximal.approx_error_matrix"
        out = {
            f"{m}.s": t.inclusive(m),
            f"{m}.self_s": t.self_time(m),
            f"{m}.calls": t.calls(m),
            f"{m}.cells": c[f"{m}.cells"],
            f"{m}.cells_evaluated": c[f"{m}.cells_evaluated"],
            "verify.matrix_cache.requests": c["verify.matrix_cache.requests"],
            "verify.matrix_cache.builds": c["verify.matrix_cache.builds"],
            "polyapprox.fit_in_span.s": t.inclusive("polyapprox.fit_in_span"),
            "polyapprox.fit_in_span.calls": t.calls("polyapprox.fit_in_span"),
            "polyapprox.fit_in_span.irls_iterations": c["polyapprox.fit_in_span.irls_iterations"],
            "polyapprox.fit_in_span.irls_not_converged":
                c["polyapprox.fit_in_span.irls_not_converged"],
            "polyapprox.best_approx.s": t.inclusive("polyapprox.best_approx"),
            "polyapprox.best_approx.calls": t.calls("polyapprox.best_approx"),
            "polyapprox.best_approx.not_converged": c["polyapprox.best_approx.not_converged"],
            "polyapprox.make_projector.s": t.inclusive("polyapprox.make_projector"),
            "polyapprox.apply_projector.s": t.inclusive("polyapprox.apply_projector"),
            "polyapprox.reverse_holder_ratio.s": t.inclusive("polyapprox.reverse_holder_ratio"),
            "geometry.restrict.s": t.inclusive("geometry.restrict"),
            "geometry.restrict.calls": t.calls("geometry.restrict"),
            "geometry.restrict.points_scanned": c["geometry.restrict.points_scanned"],
            "maximal.hl_maximal.s": t.inclusive("maximal.hl_maximal"),
            "maximal.sharp_maximal.s": t.inclusive("maximal.sharp_maximal"),
            "norms.besov_norm.self_s": t.self_time("norms.besov_norm"),
            "norms.calderon_norm.self_s": t.self_time("norms.calderon_norm"),
            "norms.besov_net_norm.self_s": t.self_time("norms.besov_net_norm"),
            "verify.run_all.self_s": t.self_time("verify.run_all"),
            "cli.main.self_s": t.self_time("cli.main"),
            "measure.build_cloud.s": t.inclusive("measure.build_cloud"),
            "measure.build_cloud.points": c["measure.build_cloud.points"],
            "measure.ahlfors_constants.s": t.inclusive("measure.ahlfors_constants"),
            "functions.sample.s": t.inclusive("functions.sample"),
            "verify.clouds": self.verify_clouds,
        }
        for name, _, _ in HOOKS:
            if name.startswith("verify.check_"):
                out[f"{name}.s"] = t.inclusive(name)
        return out

    def ladder(self) -> dict:
        """Per-call error-matrix time against cloud size.

        For each generator only the (k, u) pairs built at every size it was
        seen at count, so a pair run on one size alone (Calderon norms on the
        smallest rung) does not bend the slope.
        """
        by_gen: dict[str, dict[int, dict[tuple, float]]] = defaultdict(dict)
        for (gen, size, k, u), times in self.matrix_times.items():
            by_gen[gen].setdefault(size, {})[(k, u)] = float(np.mean(times))
        at_size = defaultdict(float)
        out = {}
        for gen in LADDER_GENERATORS:
            sizes = sorted(by_gen.get(gen, {}))
            pairs = set.intersection(*(set(by_gen[gen][n]) for n in sizes)) if sizes else set()
            per_size = {n: sum(by_gen[gen][n][p] for p in pairs) for n in sizes}
            for n, s in per_size.items():
                at_size[n] += s
            slope = 0.0
            if len(sizes) >= 2 and pairs:
                times = [per_size[n] for n in sizes]
                slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
            out[f"maximal.approx_error_matrix.n_exponent.{gen}"] = slope
        for n in LADDER_SIZES:
            out[f"maximal.approx_error_matrix.n{n}_s"] = at_size.get(n, 0.0)
        return out


def per_layer(before: dict, after: dict, passes: int, ladder: dict, pass_s: float) -> dict:
    """Set-up figures plus one pass's share of what the timed passes added."""
    out = {}
    for name, start in before.items():
        value = start + (after[name] - start) / passes
        out[name] = int(round(value)) if isinstance(start, int) else float(value)
    calls = out["polyapprox.fit_in_span.calls"]
    out["polyapprox.fit_in_span.converged_ratio"] = (
        1.0 - out["polyapprox.fit_in_span.irls_not_converged"] / calls if calls else 0.0
    )
    clouds = out.pop("verify.clouds")
    builds = out["verify.matrix_cache.builds"]
    out["verify.approx_error_matrix.builds_per_cloud"] = builds / clouds if clouds else 0.0
    out.update(ladder)
    out["trace.pass_s"] = pass_s
    return out
