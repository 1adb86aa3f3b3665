import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from fieldalign.analysis import (
    DistanceError,
    DistanceMatrix,
    GridSpec,
    TFieldGrid,
    symmetrize_distances,
    t_field,
    t_statistic,
    threshold_regions,
    ward_cluster,
    write_regions,
)
from fieldalign.covariance import GAUSSIAN, CovarianceModel
from fieldalign.geometry import MarkedPointSet
from fieldalign.kriging import build_field

MODEL = CovarianceModel(GAUSSIAN, rho=1.0)


def random_distance_matrix(rng, n):
    return distance_matrix_of(rng.normal(size=(n, 3)))


def distance_matrix_of(pts):
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))


class TestSymmetrize:
    def test_zero_absorbs(self):
        assert symmetrize_distances(0.0, 123.4) == 0.0

    def test_geometric_mean(self):
        assert abs(symmetrize_distances(0.04, 0.09) - 0.06) < 1e-15

    def test_idempotent_on_equal(self):
        for x in (0.0, 0.5, 3.2):
            assert abs(symmetrize_distances(x, x) - x) < 1e-12

    def test_symmetric_in_arguments(self):
        assert symmetrize_distances(0.3, 0.7) == symmetrize_distances(0.7, 0.3)

    def test_negative_rejected(self):
        with pytest.raises(DistanceError):
            symmetrize_distances(-0.1, 0.5)


class TestDistanceMatrix:
    def test_validation(self):
        with pytest.raises(DistanceError):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(DistanceError):
            DistanceMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        for bad in (np.inf, np.nan):
            with pytest.raises(DistanceError, match="finite"):
                DistanceMatrix(np.array([[0.0, bad], [bad, 0.0]]))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no label line"),
            ("a\tb\n0.0\tx\n1.0\t0.0\n", ":2: non-numeric"),
            ("# c\na\tb\n0.0\t1.0\n1.0\n", ":4: 1 distances for 2 labels"),
            ("a\tb\n0.0\t1.0\n2.0\t0.0\n", "symmetric"),
        ],
    )
    def test_load_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "d.tsv"
        path.write_text(text)
        with pytest.raises(DistanceError, match=message) as err:
            DistanceMatrix.load(path)
        assert str(err.value).startswith(str(path))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        d = random_distance_matrix(rng, 5)
        m = DistanceMatrix(d, labels=tuple("abcde"))
        path = tmp_path / "d.tsv"
        m.save(path)
        again = DistanceMatrix.load(path)
        assert again.labels == m.labels
        assert np.array_equal(again.values, m.values)

    def test_round_trip_labels_with_spaces(self, tmp_path):
        d = random_distance_matrix(np.random.default_rng(1), 3)
        m = DistanceMatrix(d, labels=("my mol", "other  mol", "c"))
        path = tmp_path / "d.tsv"
        m.save(path, header_lines=["config: {}"])
        again = DistanceMatrix.load(path)
        assert again.labels == m.labels
        assert np.array_equal(again.values, m.values)


class TestWardCluster:
    def test_two_items_single_merge(self):
        d = np.array([[0.0, 2.5], [2.5, 0.0]])
        dendro = ward_cluster(d)
        assert dendro.merges.shape == (1, 4)
        assert abs(dendro.merges[0, 2] - 2.5) < 1e-12

    def test_close_pair_merges_first(self):
        d = np.array(
            [[0.0, 1.0, 10.0], [1.0, 0.0, 9.5], [10.0, 9.5, 0.0]]
        )
        dendro = ward_cluster(d)
        assert {int(dendro.merges[0, 0]), int(dendro.merges[0, 1])} == {0, 1}
        # Lance-Williams by hand: d(2, {0,1})^2 = (2*100 + 2*90.25 - 1)/3
        expect = np.sqrt((2 * 100.0 + 2 * 90.25 - 1.0) / 3.0)
        assert abs(dendro.merges[1, 2] - expect) < 1e-12

    def test_matches_scipy_linkage(self):
        rng = np.random.default_rng(1)
        for n in (4, 6, 9):
            d = random_distance_matrix(rng, n)
            ours = ward_cluster(d).merges
            theirs = linkage(squareform(d, checks=False), method="ward")
            assert np.allclose(ours[:, 2], theirs[:, 2], atol=1e-10)
            assert np.array_equal(ours[:, 3], theirs[:, 3])

    def test_heights_non_decreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = random_distance_matrix(rng, int(rng.integers(3, 12)))
            h = ward_cluster(d).heights
            assert np.all(np.diff(h) >= -1e-12)

    def test_permutation_invariance_of_heights(self):
        rng = np.random.default_rng(3)
        d = random_distance_matrix(rng, 7)
        perm = rng.permutation(7)
        h1 = np.sort(ward_cluster(d).heights)
        h2 = np.sort(ward_cluster(d[np.ix_(perm, perm)]).heights)
        assert np.allclose(h1, h2, atol=1e-12)

    def test_newick_output(self):
        d = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 4.2], [4.0, 4.2, 0.0]])
        dendro = ward_cluster(DistanceMatrix(d, labels=("x", "y", "z")))
        text = dendro.to_newick()
        assert text.endswith(";")
        for label in ("x", "y", "z"):
            assert label in text

    def test_single_item_rejected(self):
        with pytest.raises(DistanceError):
            ward_cluster(np.zeros((1, 1)))

    def test_non_finite_rejected(self):
        d = random_distance_matrix(np.random.default_rng(4), 4)
        for bad in (np.inf, np.nan):
            d[1, 2] = d[2, 1] = bad
            with pytest.raises(DistanceError):
                ward_cluster(d)

    def test_euclidean_centroid_oracle(self):
        # on Euclidean points the Ward distance of clusters A and B is
        # sqrt(2 |A||B| / (|A| + |B|)) times the distance of their centroids
        rng = np.random.default_rng(5)
        for n in (3, 5, 8):
            pts = rng.normal(size=(n, 3))
            clusters = {i: [i] for i in range(n)}
            heights = []
            for step in range(n - 1):
                def cost(pair):
                    a, b = (pts[clusters[c]] for c in pair)
                    gap = np.linalg.norm(a.mean(0) - b.mean(0))
                    return np.sqrt(2 * len(a) * len(b) / (len(a) + len(b))) * gap
                ids = sorted(clusters)
                pair = min(((p, q) for p in ids for q in ids if p < q), key=cost)
                heights.append(cost(pair))
                clusters[n + step] = clusters.pop(pair[0]) + clusters.pop(pair[1])
            got = ward_cluster(distance_matrix_of(pts)).heights
            assert np.allclose(got, heights, rtol=1e-12, atol=1e-12)


class TestGridSpec:
    def test_nodes_x_fastest(self):
        g = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, shape=(2, 3, 2))
        nodes = g.nodes()
        assert nodes.shape == (12, 3)
        assert np.array_equal(nodes[0], [0.0, 0.0, 0.0])
        assert np.array_equal(nodes[1], [1.0, 0.0, 0.0])  # x moves first
        assert np.array_equal(nodes[2], [0.0, 1.0, 0.0])

    def test_covering_box(self):
        pts = np.array([[0.0, 0.0, 0.0], [4.0, 2.0, 1.0]])
        g = GridSpec.covering(pts, spacing=0.5, padding=1.0)
        assert np.all(np.asarray(g.origin) <= -1.0 + 1e-12)
        nodes = g.nodes()
        assert nodes[:, 0].max() >= 5.0 - 0.5


def build_simple_field(rng, marks_shift=0.0, k=6):
    coords = rng.uniform(0, 2, (k, 3))
    marks = rng.standard_normal(k) + marks_shift
    return build_field(MarkedPointSet(coords, marks), model=MODEL)


class TestTField:
    def grid(self):
        return GridSpec(origin=(-0.5, -0.5, -0.5), spacing=0.5, shape=(6, 6, 6))

    def test_identical_groups_zero(self):
        rng = np.random.default_rng(4)
        fields = [build_simple_field(rng) for _ in range(3)]
        tf = t_field(fields, list(fields), self.grid())
        assert np.max(np.abs(tf.t)) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        a = [build_simple_field(rng) for _ in range(3)]
        b = [build_simple_field(rng, marks_shift=0.5) for _ in range(4)]
        t_ab = t_field(a, b, self.grid()).t
        t_ba = t_field(b, a, self.grid()).t
        assert np.max(np.abs(t_ab + t_ba)) < 1e-12

    def test_constant_within_group_offset_only_variance(self):
        rng = np.random.default_rng(6)
        base = build_simple_field(rng)
        # identical members per group: pooled variance is exactly zero and
        # only the offset d remains in the denominator
        a = [base, base, base]
        coords = base.source_coords
        marks = base.predict(coords)  # equals the original marks
        # reversed marks: not a multiple of base, so the normalized fields differ
        other = build_field(MarkedPointSet(coords, np.asarray(marks)[::-1]), model=MODEL)
        b = [other, other]
        d = 0.001
        tf = t_field(a, b, self.grid(), offset_d=d)
        nodes = self.grid().nodes()
        # t_field evaluates every member normalized to unit RKHS norm
        va = base.predict(nodes) / base.norm
        vb = other.predict(nodes) / other.norm
        assert np.max(np.abs(va - vb)) > 0.1
        expect = (va - vb) / (np.sqrt(d) * np.sqrt(1 / 3 + 1 / 2))
        assert np.max(np.abs(tf.flat() - expect)) < 1e-9

    def test_location_equivariance(self):
        # adding one constant to every member evaluation of both groups
        # leaves the statistic unchanged
        rng = np.random.default_rng(7)
        va = rng.normal(size=(3, 50))
        vb = rng.normal(size=(4, 50))
        base = t_statistic(va, vb, 0.001)
        shifted = t_statistic(va + 0.7, vb + 0.7, 0.001)
        assert np.max(np.abs(shifted - base)) < 1e-9

    def test_group_size_validation(self):
        rng = np.random.default_rng(8)
        a = [build_simple_field(rng)]
        b = [build_simple_field(rng) for _ in range(2)]
        with pytest.raises(ValueError):
            t_field(a, b, self.grid())


class TestThresholdRegions:
    def make_tfield(self, values):
        g = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, shape=values.shape)
        return TFieldGrid(g, values, offset=0.001, n_a=2, n_b=2)

    def test_all_below_threshold(self):
        tf = self.make_tfield(np.zeros((3, 3, 3)))
        assert threshold_regions(tf, 8.0) == []

    def test_single_node_component(self):
        v = np.zeros((3, 3, 3))
        v[1, 1, 1] = 9.0
        regions = threshold_regions(self.make_tfield(v), 8.0)
        assert len(regions) == 1
        assert regions[0].size == 1
        assert regions[0].sign == 1
        assert regions[0].index_min == (1, 1, 1)

    def test_face_adjacent_nodes_merge(self):
        v = np.zeros((4, 3, 3))
        v[1, 1, 1] = 9.0
        v[2, 1, 1] = 10.0
        regions = threshold_regions(self.make_tfield(v), 8.0)
        assert len(regions) == 1
        assert regions[0].size == 2

    def test_diagonal_nodes_stay_separate(self):
        v = np.zeros((3, 3, 3))
        v[0, 0, 0] = 9.0
        v[1, 1, 0] = 9.0  # edge-diagonal: not face adjacent
        regions = threshold_regions(self.make_tfield(v), 8.0)
        assert len(regions) == 2

    def test_signs_separated(self):
        v = np.zeros((3, 3, 3))
        v[0, 0, 0] = 9.0
        v[1, 0, 0] = -9.0
        regions = threshold_regions(self.make_tfield(v), 8.0)
        assert len(regions) == 2
        assert {r.sign for r in regions} == {1, -1}

    def test_threshold_positive_required(self):
        with pytest.raises(ValueError):
            threshold_regions(self.make_tfield(np.zeros((2, 2, 2))), 0.0)

    def test_written_regions_carry_world_bounds(self, tmp_path):
        v = np.zeros((4, 3, 3))
        v[1, 1, 1] = v[2, 1, 1] = 9.0
        v[0, 2, 0] = -9.0
        grid = GridSpec(origin=(-1.5, 0.25, 2.0), spacing=0.5, shape=v.shape)
        regions = threshold_regions(TFieldGrid(grid, v, offset=0.001, n_a=2, n_b=2), 8.0)
        write_regions(tmp_path / "regions.tsv", regions, grid, header_lines=["run"])
        lines = (tmp_path / "regions.tsv").read_text().splitlines()
        assert lines[:2] == ["# run", "sign\tsize\tindex_min\tindex_max\tworld_min\tworld_max"]
        rows = [line.split("\t") for line in lines[2:]]
        assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
            ("1", "2", "1,1,1", "2,1,1"), ("-1", "1", "0,2,0", "0,2,0"),
        ]
        for row in rows:
            for index, world in zip(row[2:4], row[4:6]):
                expected = [o + 0.5 * int(i) for o, i in zip(grid.origin, index.split(","))]
                assert [float(w) for w in world.split(",")] == expected
