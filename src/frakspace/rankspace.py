"""Rank space: which cloud points lie in which cell, and how cells are batched.

On each axis a cube Q(x, t) admits a run of the cloud's distinct coordinates
(``_admitted_runs``), so a cube is a box of their grid (``_rank_grid``).
Centres whose runs agree on every axis hold the same points: per scale
``_cubes`` finds these groups and gathers the first centre of each. Where
the grid has at most GRID_CELLS_PER_POINT cells per point, box sums are read
instead from summed-area tables (Crow 1984), 2**n corner lookups each
(``_box_sums``), and each caller judges them by its own rounding bound. The
tables may restart at tile faces (``_tilings``), so a box inside one tile is
summed from local terms, and the tilings of a group of scales stack as one
array (``_table_layout``), built, scanned (segmented, Blelloch 1990) and read once.

One gather (``_gather``) lists the members of cubes about any centres with
any half-sides, the matrices' (``_cubes``) and the checks' (``_cube_cells``)
alike, and packs them by member count. Cubes and net cells go to numpy in
batches idx[L, W] of point indices (``_padded_batches``): a row per cell,
its members first, then the index N. Every per-point array a batch indexes
has an entry N of weight and value zero, so padding adds nothing to a mass,
a sum or a fit (``_fit_batches``).
"""
from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measure import WeightedPointCloud
from .polyapprox import _vandermonde, multi_indices

__all__ = []

# Bound on the elements one batch of cells allocates at once; keeps memory flat in N.
CHUNK_ELEMS = 1 << 15
# Bound on the table elements one group of scales builds at once (``_cubes``).
GROUP_ELEMS = 1 << 17
# Summed-area tables serve a cloud whose grid of distinct coordinates has at
# most this many cells per point; an IFS whose coordinates leave gaps has
# about N cells per point, and its cubes are gathered.
GRID_CELLS_PER_POINT = 4


@dataclass(frozen=True)
class _RankGrid:
    """The cloud's coordinates ranked per axis (``_rank_grid``).

    ``order`` sorts the points along each axis in turn, then holds the
    padding index N: rank r of axis a is entry a N + r. ``axes[a]`` holds
    the distinct coordinates of axis a in increasing order, ``starts[a]``
    the rank of each one's first point, with N appended, and ``ranks[a][i]``
    is one more than the index of point i's coordinate in ``axes[a]``.
    """

    points: np.ndarray
    order: np.ndarray
    axes: list
    starts: list
    ranks: list


def _rank_grid(cloud: WeightedPointCloud) -> _RankGrid:
    """The cloud's coordinates ranked per axis, for ``_gather`` and the tables."""
    pts, (size, n) = cloud.points, cloud.points.shape
    order = [np.argsort(pts[:, axis], kind="stable") for axis in range(n)]
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
    return _RankGrid(pts, np.concatenate(order + [[size]]), axes, starts, ranks)


def _padded_batches(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray, budget: int):
    """The slices flat[starts[c] : starts[c] + lengths[c]] as padded batches,
    longest first.

    ``lengths`` (each >= 1) may come in any order; a stable sort keeps equal
    lengths in theirs. ``flat[-1]`` must be the padding index N. Yields
    (part, idx): row r of idx[L, W] holds slice part[r], padded to the width
    W of the batch's longest slice, with L * W <= budget unless L = 1.
    """
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    done = 0
    while done < order.size:
        end = min(order.size, done + max(1, budget // int(lengths[done])))
        col = np.arange(lengths[done])
        idx = flat[np.where(col < lengths[done:end, None], starts[done:end, None] + col, -1)]
        yield order[done:end], idx
        done = end


def _cubes(rank: _RankGrid, scales: np.ndarray, quota: int, budget: int, settle=None, rows=0):
    """The distinct cubes Q(x_i, t_j) of at least ``quota`` points, in rank space.

    Yields, per scale, (j, first, batches): ``first[i]`` is the lowest centre
    whose runs (``_admitted_runs``) equal x_i's on every axis, so whose cube
    holds the same points, and ``batches`` yields (centres, idx) for those
    first centres whose cubes meet the quota, as ``_gather`` packs them.
    ``settle(js, reps, runs)``, when given, first sees the first centres
    ``reps`` of a group of scales ``js`` and their runs [R, n, 2], and
    returns the mask of those it settled, which are not gathered; a group
    holds the scales whose tables of ``rows`` per grid cell and tiling (2**n
    each) fit GROUP_ELEMS, one at least.
    """
    pts, (size, n) = rank.points, rank.points.shape

    def named(centres, gathered):
        return ((centres[part], idx) for part, idx in gathered)

    step = 1 if settle is None else max(1, GROUP_ELEMS // (2**n * math.prod(x.size for x in rank.axes) * rows))
    for start in range(0, len(scales), step):
        firsts, cut = [], []
        for j in range(start, min(start + step, len(scales))):
            runs = np.stack([_admitted_runs(x, c, scales[j]) for x, c in zip(rank.axes, pts.T)], axis=1)
            first = _first_alike(runs.reshape(size, 2 * n))
            # No cube holds more points than its narrowest run.
            narrow = np.min([np.diff(at[r])[:, 0] for at, r in zip(rank.starts, runs.transpose(1, 0, 2))], axis=0)
            centres = np.flatnonzero((first == np.arange(size)) & (narrow >= quota))
            firsts.append(first)
            cut.append((j * size + centres, runs[centres]))
        cubes, kept = map(np.concatenate, zip(*cut))  # cube j N + i: centre i at scale j
        if settle is not None and cubes.size:
            open_ = ~settle(cubes // size, cubes % size, kept)
            cubes, kept = cubes[open_], kept[open_]
        cuts = np.searchsorted(cubes, size * np.arange(start + 1, start + len(firsts)))
        for j, first, c, runs in zip(itertools.count(start), firsts, np.split(cubes, cuts), np.split(kept, cuts)):
            c -= j * size
            yield j, first, named(c, _gather(rank, pts[c], np.full(c.size, scales[j]), budget, quota, runs))


def _gather(rank: _RankGrid, centres: np.ndarray, halves: np.ndarray, budget: int, least: int = 1, runs=None):
    """The members of cubes Q(centres[c], halves[c]) in padded batches.

    A cube's candidates are the run of its narrowest axis (of ``runs`` [C,
    n, 2], from ``_admitted_runs`` if None), drawn in slabs of at most
    CHUNK_ELEMS and kept by the test ``|p_a - c_a| <= t`` on every axis; in
    1-D the run is the cube. Yields (part, idx) as ``_padded_batches`` does,
    for the cubes of at least ``least`` >= 1 members, in run order, packed
    by member count within a slab.
    """
    size, n = rank.points.shape
    if runs is None:
        runs = np.stack([_admitted_runs(x, c, halves) for x, c in zip(rank.axes, centres.T)], axis=1)
    ends = np.stack([at[r] for at, r in zip(rank.starts, runs.transpose(1, 0, 2))], axis=1)
    lengths = ends[..., 1] - ends[..., 0]
    axis, cubes = lengths.argmin(axis=1), np.arange(len(runs))
    starts, lengths = ends[cubes, axis, 0] + axis * size, lengths[cubes, axis]
    if n == 1:
        held = np.flatnonzero(lengths >= least)
        for part, idx in _padded_batches(rank.order, starts[held], lengths[held], budget):
            yield held[part], idx
        return
    offsets = np.append(0, np.cumsum(lengths))
    done = 0
    while done < cubes.size:
        end = max(done + 1, np.searchsorted(offsets, offsets[done] + CHUNK_ELEMS, side="right") - 1)
        slab = cubes[done:end]
        cube = np.repeat(slab, lengths[slab])
        cand = rank.order[np.arange(cube.size) + np.repeat(starts[slab] - offsets[slab] + offsets[done], lengths[slab])]
        inside, t = np.ones(cube.size, dtype=bool), halves[cube]
        for x, c in zip(rank.points.T, centres.T):
            inside &= np.abs(x[cand] - c[cube]) <= t
        count = np.bincount(cube[inside] - done, minlength=slab.size)
        held = np.flatnonzero(count >= least)
        for part, idx in _padded_batches(np.append(cand[inside], size), (count.cumsum() - count)[held], count[held], budget):
            yield done + held[part], idx
        done = end


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


def _admitted_runs(coords: np.ndarray, centres: np.ndarray, halves) -> np.ndarray:
    """Runs [lo, hi) of sorted ``coords`` with ``|coord - c| <= t``, [C, 2],
    for centres c with half-sides t (one, or one each): lo is the first x
    with c - x <= t, hi the first with x - c > t. Rounded, each test turns
    once along the coordinates, so those between pass, and lo = hi where
    none does."""
    ends = np.stack([np.searchsorted(coords, centres - halves), np.searchsorted(coords, centres + halves, "right")])
    # c - t and c + t are rounded: move each end until it meets its test.
    while True:
        x = coords.take(np.stack([ends, ends - 1]), mode="clip")  # each end's coordinate, then the one before
        turned = np.stack([centres - x[:, 0] <= halves, x[:, 1] - centres > halves], axis=1)
        up, down = (ends < coords.size) & ~turned[0], (ends > 0) & turned[1]
        if not (up | down).any():
            return ends.T
        ends += up.astype(int) - down


def _tilings(rank: _RankGrid, runs: np.ndarray, sides: np.ndarray, scale: np.ndarray):
    """(tiles, which): per axis each distinct coordinate x's tile number [S, 2,
    L] in two cuts per scale s into tiles of side ``sides[s]`` from x[0], the
    second shifted by side / 2 (tile j's centre x[0] + (j + 1/2) side or x[0]
    + j side), and per box of ``runs`` [C, n, 2] at scale ``scale[c]`` the
    tiling of ``_table_layout(rank, tiles)`` holding it, unshifted cuts
    first, or -1 where a rounded face splits a run of exactly side / 2."""
    tiles, which, split = [], scale, np.zeros(len(runs), dtype=bool)
    for x, (lo, hi) in zip(rank.axes, runs.transpose(1, 2, 0)):
        tiles.append(np.floor((x - x[0]) / sides[:, None, None] + np.array([[0.0], [0.5]])))
        flat, at = tiles[-1].ravel(), 2 * x.size * scale + lo
        held = [flat[at + v] == flat[at + v + hi - 1 - lo] for v in (0, x.size)]
        which, split = 2 * which + ~held[0], split | ~(held[0] | held[1])
    return tiles, np.where(split, -1, which)


_Layout = collections.namedtuple("_Layout", "cells shape depth reach pick slot")


def _table_layout(rank: _RankGrid, tiles=None, which=None):
    """Where the rank grid has at most GRID_CELLS_PER_POINT cells per point,
    the ``_Layout`` of tables over a stack of its tilings; else None.

    ``tiles[a]`` [S, W, L] holds nondecreasing tile numbers in S groups of W
    versions of axis a (one tile if None). Tiling s W**n + (v_0 ... v_{n-1}
    in base W) takes version v_a of group s on each axis; the stack holds
    those in ``which`` (all if None), deepest first: tiling i is entry
    ``slot[i]``, and entry e takes version ``pick[e, a]`` of the S W on axis
    a and sums per grid cell, ``shape`` (E, L_0, ...), its tile's points of
    ranks up to the cell's (point i in ``cells[e, i]``). ``reach[a][v, r]``
    counts the coordinates before r in its tile, and ``depth[e]`` bounds the
    roundings a term passes into an entry of e's group.
    """
    shape, n = tuple(x.size for x in rank.axes), len(rank.axes)
    if math.prod(shape) > GRID_CELLS_PER_POINT * len(rank.points):
        return None
    tiles = tiles or [np.zeros((1, 1, size)) for size in shape]
    groups, width = tiles[0].shape[:2]
    opens = [np.diff(x, axis=2, prepend=-np.inf).reshape(groups * width, -1) != 0.0 for x in tiles]
    reach = [np.arange(x.shape[1]) - np.maximum.accumulate(x * np.arange(x.shape[1]), axis=1) for x in opens]
    cells = np.ravel_multi_index([r - 1 for r in rank.ranks], shape)
    # bincount adds the points that share a cell, then each axis's prefix
    # sums add ceil(log2(coordinates per tile)) times (frexp's exponent).
    depth = np.bincount(cells).max() - 1 + sum(np.frexp(1 + x.reshape(groups, -1).max(1))[1] for x in reach)
    stack = np.arange(groups * width**n) if which is None else np.flatnonzero(np.bincount(which))
    stack = stack[np.argsort(-depth[stack // width**n], kind="stable")]
    group, *version = np.unravel_index(stack, (groups,) + (width,) * n)
    slot = np.bincount(stack, np.arange(stack.size), groups * width**n).astype(int)
    cells = cells + math.prod(shape) * np.arange(stack.size)[:, None]
    pick = np.stack(version, axis=1) + width * group[:, None]
    return _Layout(cells, (stack.size,) + shape, depth[group], reach, pick, slot)


def _binned(index: np.ndarray, size: int, quantities) -> np.ndarray:
    """Sums [R, size] of each row of ``quantities`` [R, ...] over the bins
    ``index``, with at most CHUNK_ELEMS indices per ``np.bincount``."""
    quantities = np.asarray(quantities)
    out = np.empty((len(quantities), size))
    step = max(1, CHUNK_ELEMS // index.size)
    for start in range(0, len(quantities), step):
        part = quantities[start : start + step]
        at = (index.ravel() + size * np.arange(len(part))[:, None]).ravel()
        out[start : start + step] = np.bincount(at, part.ravel(), size * len(part)).reshape(-1, size)
    return out


def _summed_area(layout: _Layout, quantities) -> np.ndarray:
    """Summed-area tables [T, E G] of per-point ``quantities`` [T, E, N]
    ([T, N] if E = 1), scanned at once: per axis ceil(log2(L)) doubling steps
    for tiles of L coordinates, each adding to every entry the one a power of
    two before it in its tile, up to the last tiling it changes (deepest first)."""
    count, size = len(quantities), math.prod(layout.shape)
    tables = _binned(layout.cells, size, quantities).reshape((count,) + layout.shape)
    del quantities  # the caller passes its only reference
    for axis, r in enumerate(layout.reach):
        x, r = tables.swapaxes(axis + 2, -1), r[layout.pick[:, axis]]
        shifts = 2 ** np.arange(int(r.max()).bit_length())
        stops = len(r) - np.argmax(r.max(axis=1)[::-1, None] >= shifts, axis=0)  # the later ones reach less far
        r = r.reshape(r.shape[:1] + (1,) * (len(layout.reach) - 1) + r.shape[1:])
        for s, e in zip(shifts, stops):
            np.add(x[:, :e, ..., s:], x[:, :e, ..., :-s], out=x[:, :e, ..., s:], where=r[:e, ..., s:] >= s)
    return tables.reshape(count, size)


def _box_sums(layout: _Layout, tables: np.ndarray, runs: np.ndarray, which: np.ndarray):
    """Each of ``tables`` [T, E G] summed over boxes of the rank grid, in chunks.

    ``runs`` [C, n, 2] holds each box's runs [lo, hi) of distinct coordinates
    (``_cubes``), inside a tile of stack entry ``which[c]``. Yields (part,
    sums, spread), each [T, len(part)], for at most CHUNK_ELEMS // 2T boxes:
    the 2**n corner entries, of rank hi - 1 or lo - 1 per axis (0 if lo opens
    a tile), with alternating signs, all-upper first. ``spread`` adds the
    corners; for tables of nonnegative terms it bounds every partial sum.
    """
    strides = np.cumprod((1,) + layout.shape[:0:-1])[::-1, None]  # of entry, then each axis
    step = max(1, CHUNK_ELEMS // (2 * len(tables)))
    for start in range(0, len(runs), step):
        part = slice(start, start + step)
        at, ends = which[part], np.maximum(runs[part] - 1, 0) * strides[1:]
        inner = [reach[v, lo] > 0 for reach, v, lo in zip(layout.reach, layout.pick[at].T, runs[part, :, 0].T)]
        sums = spread = 0.0
        for c in itertools.product((1, 0), repeat=len(layout.reach)):
            value = np.take(tables, at * strides[0] + sum(ends[:, a, s] for a, s in enumerate(c)), 1)
            low = [inner[a] for a, s in enumerate(c) if not s]  # lower ends inside their tile
            value *= np.logical_and.reduce(low)
            sums = (np.subtract if len(low) % 2 else np.add)(sums, value)
            spread = spread + value
        del value  # not held while the caller reads the chunk
        yield part, sums, spread


def _fit_batches(cloud: WeightedPointCloud, values: np.ndarray, k: int):
    """The batch budget and batch builder for fits of ``values`` [F, N].

    ``batch(idx, origin, half, rows)`` gathers cells idx[L, W], padded with
    the index N, into the kernel's arguments (V, w, f, mass): V is the design
    in each cell's chart (x - origin[l]) / half, or None for constants (k =
    1), ``half`` one half-side or one per cell [L, 1, 1]. f holds every
    function on every cell, [F, L, W], or function ``rows[l]`` on cell l,
    [1, L, W]. A padding row of V is zero, its chart coordinates zeroed
    first: point N, at the origin, can lie far outside a small cell's chart,
    where its monomials of high degree would overflow. A batch keeps about
    two arrays of L W elements per basis column and per function; the
    budget on L W counts one function, so no batch, nor any fit, depends on
    which functions share a call, and a batch's memory grows with F.
    """
    n = cloud.ambient_dim
    exps = np.asarray(multi_indices(n, k - 1), dtype=int).reshape(-1, n)
    pts = np.vstack([cloud.points, np.zeros((1, n))])
    wts = np.append(cloud.weights, 0.0)
    vals = np.concatenate([values, np.zeros((values.shape[0], 1))], axis=1)
    budget = max(1, CHUNK_ELEMS // (2 * (1 + exps.shape[0])))

    def batch(idx, origin, half, rows=None):
        w = wts[idx]
        V = None
        if exps.shape[0] > 1:
            live = w > 0.0
            z = (pts[idx] - origin[:, None, :]) / half
            z *= live[..., None]
            V = _vandermonde(z.reshape(-1, n), exps).reshape(idx.shape + (-1,))
            V[..., 0] = live  # the constant monomial
        f = np.take(vals, idx, axis=1) if rows is None else vals[rows[:, None], idx][None]
        return V, w, f, w.sum(axis=1)

    return budget, batch


def _cube_cells(cloud: WeightedPointCloud, values, k: int, centres, halves, least=1, rows=None, charts=None):
    """The kernel's arguments (V, w, f, mass) on cubes Q(centres[c], halves[c]).

    Yields (cubes, args) for the cubes of at least ``least`` >= 1 members
    as ``_gather`` packs them, each row sorted back to index order, so
    ``restrict``'s: cube c holds function ``rows[c]`` of ``values`` [F, N]
    (all F if ``rows`` is None), in the chart (origins [C, n], half-sides
    [C]) of ``charts``, by default its own.
    """
    origins, sides = (centres, halves) if charts is None else charts
    budget, batch = _fit_batches(cloud, values, k)
    for at, idx in _gather(_rank_grid(cloud), centres, halves, budget, least):
        yield at, batch(np.sort(idx, axis=1), origins[at], sides[at, None, None], None if rows is None else rows[at])
