import numpy as np
import pytest

import frakspace as fs


def synthetic_cloud(
    points,
    weights=None,
    s=None,
    depth=0,
    max_ratio=0.5,
    name="synthetic",
):
    """Build a WeightedPointCloud directly from raw arrays for unit tests."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if weights is None:
        weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    if s is None:
        s = float(n)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    diam = float(np.linalg.norm(hi - lo)) or 1.0
    return fs.WeightedPointCloud(
        points=pts,
        weights=np.asarray(weights, dtype=float),
        s=s,
        depth=depth,
        diam=diam,
        max_ratio=max_ratio,
        name=name,
    )


@pytest.fixture
def make_cloud():
    return synthetic_cloud


@pytest.fixture(scope="session")
def dust3():
    return fs.build_cloud(fs.generator_spec("cantor4"), 3)


@pytest.fixture(scope="session")
def interval6():
    return fs.build_cloud(fs.generator_spec("interval"), 6)


@pytest.fixture(scope="session")
def cantor4_d4():
    return fs.build_cloud(fs.generator_spec("cantor4"), 4)


@pytest.fixture(scope="session")
def square3():
    return fs.build_cloud(fs.generator_spec("square"), 3)


@pytest.fixture(scope="session")
def square4():
    return fs.build_cloud(fs.generator_spec("square"), 4)


@pytest.fixture(scope="session")
def carpet2():
    return fs.build_cloud(fs.generator_spec("carpet"), 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion at the end of a run."""
    verdicts = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                name = nodeid.split("::")[-1]
                verdicts[name] = "PASS" if status == "passed" else "FAIL"
    if verdicts:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(verdicts):
            terminalreporter.write_line(f"{name}: {verdicts[name]}")
