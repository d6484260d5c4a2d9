import numpy as np
import pytest

import frakspace as fs


class TestCube:
    def test_boundary_is_inside(self):
        cube = fs.Cube(np.array([0.0, 0.0]), 1.0)
        inside = cube.contains(np.array([[1.0, -1.0], [0.5, 0.5]]))
        assert inside.tolist() == [True, True]

    def test_outside_point(self):
        cube = fs.Cube(np.array([0.0, 0.0]), 1.0)
        assert not cube.contains(np.array([[1.0 + 1e-12, 0.0]]))[0]

    def test_side_and_scaled(self):
        cube = fs.Cube(np.array([0.5]), 0.25)
        assert cube.side == 0.5
        grown = cube.scaled(2.0)
        assert grown.half_side == 0.5
        assert np.all(grown.center == cube.center)

    def test_nonpositive_half_side_rejected(self):
        with pytest.raises(fs.OutOfRange):
            fs.Cube(np.array([0.0]), 0.0)


class TestRestrict:
    def test_dust_lower_left_cell_mass(self, dust3):
        # The 16 points of the first-generation cell all have coordinates
        # below 1/2; the cell mass is exactly a quarter of the total.
        cube = fs.Cube(np.array([0.25, 0.25]), 0.25)
        idx, mass = fs.restrict(dust3, cube)
        assert idx.size == 16
        assert mass == pytest.approx(0.25, abs=1e-12)

    def test_empty_cube(self, dust3):
        cube = fs.Cube(np.array([10.0, 10.0]), 0.5)
        idx, mass = fs.restrict(dust3, cube)
        assert idx.size == 0
        assert mass == 0.0

    def test_whole_cloud(self, dust3):
        cube = fs.Cube(np.array([0.5, 0.5]), 10.0)
        idx, mass = fs.restrict(dust3, cube)
        assert idx.size == dust3.size
        assert mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name,depth", [("interval", 5), ("cantor4", 3), ("square", 3)])
def test_cube_membership_agrees_on_faces(name, depth):
    # Each cube about a point i has point j on a face: its half-side is their
    # exact Chebyshev distance. ahlfors_constants draws i from seed ``seed``.
    cloud = fs.build_cloud(fs.generator_spec(name), depth)
    seeds, centres, faces = range(12), [], []
    for seed in seeds:
        i = np.random.default_rng(seed).integers(0, cloud.size, size=1)[0]
        dist = np.abs(cloud.points - cloud.points[i]).max(axis=1)
        far = np.flatnonzero(dist >= cloud.resolution_scale)
        centres.append(i)
        faces.append(far[7 * seed % far.size])
    centres = np.array(centres)
    halves = np.abs(cloud.points[faces] - cloud.points[centres]).max(axis=1)
    members = {}
    index = np.arange(cloud.size, dtype=float)[None]
    for at, (_, w, f, mass) in fs.rankspace._cube_cells(cloud, index, 1, cloud.points[centres], halves):
        members.update((c, (row[live > 0.0], m)) for c, row, live, m in zip(at, f[0], w, mass))
    assert sorted(members) == list(seeds)
    for seed in seeds:
        cube = fs.Cube(cloud.points[centres[seed]], float(halves[seed]))
        idx, mass = fs.restrict(cloud, cube)
        assert faces[seed] in idx
        assert np.array_equal(np.flatnonzero(cube.contains(cloud.points)), idx)
        assert np.array_equal(members[seed][0], idx)
        assert members[seed][1] == pytest.approx(mass, rel=1e-14)
        report = fs.ahlfors_constants(cloud, 1, [cube.half_side], rng=seed)
        assert report.c1_hat == report.c2_hat == mass / cube.half_side**cloud.s


class TestNet:
    def test_counts_and_partition(self):
        bbox = (np.zeros(2), np.ones(2))
        net = fs.dyadic_net(2, bbox)
        assert net.mesh == 0.25
        assert tuple(net.counts) == (4, 4)
        assert net.ncubes == 16
        rng = np.random.default_rng(5)
        pts = rng.random((200, 2))
        cells = net.assign(pts)
        assert cells.min() >= 0 and cells.max() < 16
        # every point lies in the cube it was assigned to
        for flat in np.unique(cells):
            cube = net.cube(int(flat))
            sel = pts[cells == flat]
            assert np.all(cube.contains(sel))

    def test_face_points_go_to_lower_cell(self):
        bbox = (np.zeros(2), np.ones(2))
        net = fs.dyadic_net(2, bbox)
        cells = net.assign(np.array([[0.5, 0.1], [0.25, 0.25]]))
        cube0 = net.cube(int(cells[0]))
        cube1 = net.cube(int(cells[1]))
        # 0.5 sits on the face between x-cells 1 and 2: the lower cell wins.
        assert cube0.center[0] == pytest.approx(0.375)
        assert cube1.center[0] == pytest.approx(0.125)
        assert cube1.center[1] == pytest.approx(0.125)

    def test_cubes_cover_every_point(self, dust3):
        net = fs.dyadic_net(2, dust3.bbox)
        cells = net.assign(dust3.points)
        masses = np.zeros(net.ncubes)
        for flat, w in zip(cells, dust3.weights):
            masses[flat] += w
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_offset_shifts_anchor(self):
        bbox = (np.zeros(1), np.ones(1))
        plain = fs.dyadic_net(1, bbox)
        shifted = fs.dyadic_net(1, bbox, offset=np.array([0.5]))
        assert shifted.anchor[0] == pytest.approx(plain.anchor[0] - 0.25)
        # the shifted net still covers the box
        cells = shifted.assign(np.array([[0.0], [0.999], [0.51]]))
        assert cells.min() >= 0

    def test_single_cell_net(self):
        bbox = (np.zeros(2), np.full(2, 0.6))
        net = fs.dyadic_net(0, bbox)
        assert net.ncubes == 1
        assert net.cube(0).half_side == 0.5
