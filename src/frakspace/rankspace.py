"""Rank space: which cloud points lie in which cell, and how cells are batched.

On each axis a cube Q(x, t) admits a run of the cloud's distinct coordinates
(``_admitted_runs``), so a cube is a box of their grid (``_rank_grid``).
Centres whose runs agree on every axis hold the same points: per scale
``_cubes`` finds these groups and gathers the first centre of each. Where
the grid has at most GRID_CELLS_PER_POINT cells per point, box sums are read
instead from summed-area tables (Crow 1984), 2**n corner lookups each
(``_box_sums``), and each caller judges them by its own rounding bound.

Cubes and net cells alike go to numpy in batches idx[L, W] of point indices
(``_padded_batches``): a row per cell, its members first, then the index N.
Every per-point array a batch indexes has an entry N of weight and value
zero, so padding adds nothing to a mass, a sum or a fit (``_fit_batches``).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measure import WeightedPointCloud
from .polyapprox import _vandermonde, multi_indices

__all__ = []

# Bound on the elements one batch of cells allocates at once; keeps memory flat in N.
CHUNK_ELEMS = 1 << 15
# Summed-area tables serve a cloud whose grid of distinct coordinates has at
# most this many cells per point; an IFS whose coordinates leave gaps has
# about N cells per point, and its cubes are gathered.
GRID_CELLS_PER_POINT = 4


@dataclass(frozen=True)
class _RankGrid:
    """The cloud's coordinates ranked per axis (``_rank_grid``).

    ``order[a]`` sorts the points along axis a, ``axes[a]`` holds the
    distinct coordinates of axis a in increasing order, ``starts[a]`` the
    position in ``order[a]`` of each one's first point, with N appended,
    and ``ranks[a][i]`` is one more than the index of point i's coordinate
    in ``axes[a]``.
    """

    points: np.ndarray
    order: np.ndarray
    axes: list
    starts: list
    ranks: list


def _rank_grid(cloud: WeightedPointCloud) -> _RankGrid:
    """The cloud's coordinates ranked per axis, for ``_cubes`` and the tables."""
    pts, (size, n) = cloud.points, cloud.points.shape
    order = np.stack([np.argsort(pts[:, axis], kind="stable") for axis in range(n)])
    axes, starts, ranks = [], [], []
    for axis, by in enumerate(order):
        coords = pts[by, axis]
        # A diff mask rather than np.unique, whose first call imports numpy.ma.
        new = np.concatenate([[True], coords[1:] != coords[:-1]])
        rank = np.empty(size, dtype=np.intp)
        rank[by] = np.cumsum(new)
        axes.append(coords[new])
        starts.append(np.append(np.flatnonzero(new), size))
        ranks.append(rank)
    return _RankGrid(pts, order, axes, starts, ranks)


def _padded_batches(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray, budget: int):
    """The slices flat[starts[c] : starts[c] + lengths[c]] as padded batches.

    ``lengths`` must not increase, and ``flat[-1]`` must be the padding
    index N. Yields (part, idx): row r of idx[L, W] holds slice part[r],
    padded to the width W of the batch's first slice, with L * W <= budget
    unless L = 1.
    """
    done = 0
    while done < starts.size:
        end = min(starts.size, done + max(1, budget // int(lengths[done])))
        col = np.arange(lengths[done])
        idx = flat[np.where(col < lengths[done:end, None], starts[done:end, None] + col, -1)]
        yield slice(done, end), idx
        done = end


def _cubes(rank: _RankGrid, scales: np.ndarray, quota: int, budget: int, settle=None):
    """The distinct cubes Q(x_i, t_j) of at least ``quota`` points, in rank space.

    Yields, per scale, (j, first, batches): ``first[i]`` is the lowest centre
    whose runs of admitted distinct coordinates (``_admitted_runs``) equal
    x_i's on every axis, so whose cube holds the same points, and
    ``batches`` yields (centres, idx) for the first centres whose cubes may
    meet the quota, row r of idx the padded members of the cube about
    ``centres[r]`` (``_padded_batches``). A cube's candidates are the run of
    its narrowest axis, a slice of that axis's order, kept by the test
    ``|p_a - c_a| <= t`` on the other axes. ``settle(j, reps, runs)``, when
    given, first sees a scale's first centres ``reps`` and their runs
    [R, n, 2], and returns the mask of those it settled itself, which are
    not built.
    """
    pts, (size, n) = rank.points, rank.points.shape
    # Rank r of axis a is entry a * N + r; the entry after them is the padding.
    ranked = np.append(rank.order.ravel(), size)

    def batches(centres, axis, starts, lengths, t):
        # Per run axis and longest run first: a batch shares its run axis,
        # and its first cube sets its width.
        for run_axis in range(n):
            on = centres[axis[centres] == run_axis]
            on = on[np.argsort(-lengths[on], kind="stable")]
            for part, idx in _padded_batches(ranked, starts[on], lengths[on], budget):
                c = on[part]
                if n > 1:  # in 1-D the run is the cube
                    inside = idx < size
                    for x in (x for a, x in enumerate(pts.T) if a != run_axis):
                        # Padding reads point N - 1, and ``inside`` masks it out.
                        inside &= np.abs(x.take(idx, mode="clip") - x[c, None]) <= t
                    count = np.count_nonzero(inside, axis=1)
                    keep = count >= quota
                    if not keep.any():
                        continue
                    c, count, inside, idx = c[keep], count[keep], inside[keep], idx[keep]
                    # Members to the front of their rows, in run order.
                    row = np.nonzero(inside)[0]
                    packed = np.full((c.size, int(count.max())), size)
                    packed[row, np.arange(row.size) - (count.cumsum() - count)[row]] = idx[inside]
                    idx = packed
                yield c, idx

    everyone = np.arange(size)
    for j, t in enumerate(scales):
        runs = np.stack([_admitted_runs(x, pts[:, a], t) for a, x in enumerate(rank.axes)], axis=1)
        first = _first_alike(runs.reshape(size, 2 * n))
        # The runs as slices of each axis's order.
        ends = np.stack([at[runs[:, a]] for a, at in enumerate(rank.starts)], axis=1)
        lengths = ends[..., 1] - ends[..., 0]
        axis = lengths.argmin(axis=1)
        starts = ends[everyone, axis, 0] + axis * size
        lengths = lengths[everyone, axis]
        centres = np.flatnonzero((first == everyone) & (lengths >= quota))
        if settle is not None:
            centres = centres[~settle(j, centres, runs[centres])]
        yield j, first, batches(centres, axis, starts, lengths, t)


def _first_alike(runs: np.ndarray) -> np.ndarray:
    """The lowest centre whose runs [N, 2n] equal each centre's on every axis.

    Equal runs of distinct coordinates hold the same points. Runs that differ
    only in coordinates no point of the cube uses (gaps in the cloud's
    coordinate grid) hold the same points too, but such cubes keep separate
    representatives. A stable sort keeps each group in index order.
    """
    order = np.lexsort(runs.T)
    ranked = runs[order]
    starts = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
    first = np.empty(runs.shape[0], dtype=int)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _admitted_runs(coords: np.ndarray, centres: np.ndarray, t: float) -> np.ndarray:
    """Runs [lo, hi) of sorted ``coords`` with ``|coord - c| <= t``, [C, 2].

    Each centre must be one of the coordinates, so no run is empty.
    """
    lo = np.searchsorted(coords, centres - t)
    hi = np.searchsorted(coords, centres + t, side="right")

    def admitted(i):
        return np.abs(centres - coords[np.clip(i, 0, coords.size - 1)]) <= t

    # c - t and c + t are rounded: move each end until the test admits the
    # coordinate just inside it and not the one just outside.
    while True:
        lo_up, lo_down = ~admitted(lo), (lo > 0) & admitted(lo - 1)
        hi_down, hi_up = ~admitted(hi - 1), (hi < coords.size) & admitted(hi)
        if not (lo_up | lo_down | hi_down | hi_up).any():
            return np.stack([lo, hi], axis=1)
        lo = lo + lo_up - lo_down
        hi = hi + hi_up - hi_down


def _table_layout(rank: _RankGrid):
    """Where the rank grid has at most GRID_CELLS_PER_POINT cells per point,
    (cells, shape, depth) of its summed-area tables; else None.

    A table of ``shape`` has one entry more per axis than that axis has
    distinct coordinates, entry 0 being the empty prefix, and point i adds
    to its entry ``cells[i]``. ``depth`` bounds the rounded additions any
    one point's term passes through on its way into a table entry
    (``_summed_area``).
    """
    if math.prod(x.size for x in rank.axes) > GRID_CELLS_PER_POINT * len(rank.points):
        return None
    shape = tuple(x.size + 1 for x in rank.axes)
    cells = np.ravel_multi_index(rank.ranks, shape)
    # bincount adds the points that share a cell, then each axis's prefix
    # sums add ceil(log2(L)) times (``_summed_area``).
    depth = int(np.bincount(cells).max()) - 1
    depth += sum((length - 1).bit_length() for length in shape)
    return cells, shape, depth


def _summed_area(layout, quantities: list) -> np.ndarray:
    """Summed-area tables [T, G] of T per-point ``quantities`` [N] (``_table_layout``).

    Entry e of table t sums quantities[t] over the points whose rank on
    every axis lies below e's index there. Each axis of L entries takes its
    prefix sums in ceil(log2(L)) doubling steps, each adding to every entry
    the one a power of two before it, so a term passes through that many
    roundings per axis where a running sum would take up to L - 1. Tables
    are scanned one at a time, so the scan's temporary is one table.
    """
    cells, shape, _ = layout
    tables = np.empty((len(quantities), math.prod(shape)))
    for table, q in zip(tables, quantities):
        table[:] = np.bincount(cells, weights=q, minlength=table.size)
        table = table.reshape(shape)
        for axis in range(table.ndim):
            x = np.moveaxis(table, axis, -1)
            for shift in (2**b for b in range((x.shape[-1] - 1).bit_length())):
                x[..., shift:] = x[..., shift:] + x[..., :-shift]
    return tables


def _box_sums(layout, tables: np.ndarray, runs: np.ndarray, unsigned=False):
    """Each of ``tables`` [T, G] summed over boxes of the rank grid, in chunks.

    ``runs`` [C, n, 2] holds each box's run [lo, hi) of distinct coordinates
    per axis, as ``_cubes`` finds them. Yields (part, sums, spread) for
    slices ``part`` of at most CHUNK_ELEMS // T boxes, sums [T, len(part)].
    A box's sum adds the table's 2**n corner entries with alternating signs,
    the all-upper corner first. ``spread`` is None, or with ``unsigned`` the
    same corners all added, which for tables of nonnegative terms bounds
    every partial sum.
    """
    shape = layout[1]
    ends = runs * np.cumprod((1,) + shape[:0:-1])[::-1, None]
    corners = list(itertools.product((1, 0), repeat=len(shape)))
    step = max(1, CHUNK_ELEMS // len(tables))
    for start in range(0, len(runs), step):
        part = slice(start, start + step)
        sums = spread = 0.0
        for c in corners:
            at = np.take(tables, sum(ends[part, a, s] for a, s in enumerate(c)), axis=1)
            sums = (np.subtract if (len(c) - sum(c)) % 2 else np.add)(sums, at)
            spread = spread + at if unsigned else None
        del at  # not held while the caller reads the chunk
        yield part, sums, spread


def _fit_batches(cloud: WeightedPointCloud, values: np.ndarray, k: int):
    """The batch budget and batch builder for fits of ``values`` [F, N].

    ``batch(idx, origin, half)`` gathers cells idx[L, W], padded with the
    index N, into the kernel's arguments (V, w, f, mass): V is the design in
    each cell's chart (x - origin[l]) / half, or None for constants (k = 1).
    A padding row of V is zero, its chart coordinates zeroed first: point N,
    at the origin, can lie far outside a small cell's chart, where its
    monomials of high degree would overflow.
    """
    n = cloud.ambient_dim
    exps = np.asarray(multi_indices(n, k - 1), dtype=int).reshape(-1, n)
    pts = np.vstack([cloud.points, np.zeros((1, n))])
    wts = np.append(cloud.weights, 0.0)
    vals = np.concatenate([values, np.zeros((values.shape[0], 1))], axis=1)
    # A batch of fits keeps about two arrays per function and basis column
    # alive, each holding one element per (cell, point) pair.
    budget = max(1, CHUNK_ELEMS // (2 * (values.shape[0] + exps.shape[0])))

    def batch(idx, origin, half):
        w = wts[idx]
        V = None
        if exps.shape[0] > 1:
            live = w > 0.0
            z = (pts[idx] - origin[:, None, :]) / half
            z *= live[..., None]
            V = _vandermonde(z.reshape(-1, n), exps).reshape(idx.shape + (-1,))
            V[..., 0] = live  # the constant monomial
        return V, w, np.take(vals, idx, axis=1), w.sum(axis=1)

    return budget, batch
