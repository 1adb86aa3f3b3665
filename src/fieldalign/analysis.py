"""Post-alignment statistics: symmetrized distances, Ward clustering and
two-sample t-fields on spatial grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import squareform


# grid nodes evaluated per block in t_field (bounds its working memory)
_T_FIELD_CHUNK = 200_000


class DistanceError(ValueError):
    """Invalid distance input."""


def symmetrize_distances(forward: float, backward: float) -> float:
    """Geometric mean of the two directed distances."""
    if forward < 0 or backward < 0:
        raise DistanceError("distances must be nonnegative")
    return float(np.sqrt(forward * backward))


def write_table(path, columns, rows, header_lines=(), sep="\t"):
    """Delimited text table: each header line as a '# ' comment, then the
    column line (none when columns is None), then one line per row.  Floats
    are written with repr, which reads back exactly, and other values with
    str."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        if columns is not None:
            fh.write(sep.join(columns) + "\n")
        for row in rows:
            fh.write(sep.join(
                repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            ) + "\n")


def write_matrix(path, labels, values, header_lines=()):
    """Tab-separated square matrix under a label line, the format that
    DistanceMatrix.load reads.  Entries may be NaN (align-all's failed
    pairs), which load rejects."""
    write_table(path, labels, np.asarray(values, dtype=float), header_lines)


@dataclass(eq=False)
class DistanceMatrix:
    """Symmetric nonnegative matrix with zero diagonal."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DistanceError("distance matrix must be square")
        if not np.all(np.isfinite(v)):
            raise DistanceError("distances must be finite")
        if not np.allclose(v, v.T, atol=1e-12):
            raise DistanceError("distance matrix must be symmetric")
        if np.any(np.diag(v) != 0):
            raise DistanceError("diagonal must be zero")
        if np.any(v < 0):
            raise DistanceError("distances must be nonnegative")
        self.values = v
        if self.labels is None:
            self.labels = tuple(str(i) for i in range(v.shape[0]))
        else:
            self.labels = tuple(self.labels)
            if len(self.labels) != v.shape[0]:
                raise DistanceError("label count must match matrix size")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def save(self, path, header_lines=()):
        write_matrix(path, self.labels, self.values, header_lines)

    @classmethod
    def load(cls, path) -> "DistanceMatrix":
        """Read what save writes; a malformed file raises DistanceError
        naming the file (and the line, where one line is at fault)."""
        with open(path) as fh:
            body = [
                (lineno, line)
                for lineno, line in enumerate(fh, start=1)
                if line.strip() and not line.startswith("#")
            ]
        if not body:
            raise DistanceError(f"{path}: no label line")
        # tab-separated like save writes it: labels may contain spaces
        labels = body[0][1].rstrip("\r\n").split("\t")
        rows = []
        for lineno, line in body[1:]:
            try:
                rows.append([float(x) for x in line.split("\t")])
            except ValueError:
                raise DistanceError(f"{path}:{lineno}: non-numeric distance") from None
            if len(rows[-1]) != len(labels):
                raise DistanceError(
                    f"{path}:{lineno}: {len(rows[-1])} distances for {len(labels)} labels"
                )
        try:
            return cls(np.array(rows), labels=labels)
        except DistanceError as err:
            raise DistanceError(f"{path}: {err}") from None


@dataclass(eq=False)
class WardDendrogram:
    """Agglomerative merge table in linkage-matrix layout.

    Each row holds (cluster index i, cluster index j, merge height, new
    cluster size); original observations are clusters 0..n-1 and the merge
    in row r creates cluster n + r.
    """

    merges: np.ndarray
    labels: tuple[str, ...]

    @property
    def heights(self) -> np.ndarray:
        return self.merges[:, 2]

    def to_newick(self) -> str:
        n = len(self.labels)
        height = {i: 0.0 for i in range(n)}
        text = {i: self.labels[i] for i in range(n)}
        for r, (a, b, h, _size) in enumerate(self.merges):
            a, b = int(a), int(b)
            node = n + r
            la = h - height[a]
            lb = h - height[b]
            text[node] = f"({text[a]}:{la:.10g},{text[b]}:{lb:.10g})"
            height[node] = h
        return text[n + len(self.merges) - 1] + ";"

    def save(self, path, header_lines=()):
        rows = [(int(a), int(b), h, int(size)) for a, b, h, size in self.merges]
        write_table(path, ("cluster_i", "cluster_j", "height", "size"), rows, header_lines)


def ward_cluster(distances) -> WardDendrogram:
    """Agglomerative clustering by Ward's minimum-variance criterion.

    scipy's linkage(method="ward") on the condensed distances (Muellner
    2011, arXiv:1109.2378); merge heights are non-decreasing.
    """
    # imported here, not at module level: importing scipy.cluster would add
    # tens of milliseconds to every CLI start, clustering or not
    from scipy.cluster.hierarchy import linkage

    if not isinstance(distances, DistanceMatrix):
        distances = DistanceMatrix(distances)
    if distances.n < 2:
        raise DistanceError("clustering needs at least two items")
    merges = linkage(squareform(distances.values, checks=False), method="ward")
    return WardDendrogram(merges, distances.labels)


@dataclass(frozen=True)
class GridSpec:
    """Regular grid: origin corner, uniform spacing and per-axis counts."""

    origin: tuple[float, ...]
    spacing: float
    shape: tuple[int, ...]

    def __post_init__(self):
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("spacing must be positive and finite")
        if any(c < 1 for c in self.shape):
            raise ValueError("grid shape entries must be positive")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "shape", tuple(int(v) for v in self.shape))
        if len(self.origin) != len(self.shape):
            raise ValueError("origin and shape dimensions differ")

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def nodes(self) -> np.ndarray:
        """All grid nodes, first axis fastest."""
        axes = [
            o + self.spacing * np.arange(c) for o, c in zip(self.origin, self.shape)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel(order="F") for m in mesh])

    @classmethod
    def covering(cls, coords, spacing: float, padding: float) -> "GridSpec":
        if not (np.isfinite(spacing) and spacing > 0 and np.isfinite(padding)):
            raise ValueError("spacing must be positive and finite, padding finite")
        pts = np.atleast_2d(np.asarray(coords, dtype=float))
        lo = pts.min(axis=0) - padding
        hi = pts.max(axis=0) + padding
        counts = np.floor((hi - lo) / spacing).astype(int) + 1
        return cls(tuple(lo), spacing, tuple(int(c) for c in counts))


@dataclass(eq=False)
class TFieldGrid:
    """Two-sample t statistic at every grid node."""

    grid: GridSpec
    t: np.ndarray  # shaped grid.shape
    offset: float
    n_a: int
    n_b: int

    def flat(self) -> np.ndarray:
        """Node values with the first axis fastest."""
        return self.t.ravel(order="F")

    def save(self, path, header_lines=()):
        header = [
            *header_lines,
            f"origin: {' '.join(repr(v) for v in self.grid.origin)}",
            f"spacing: {self.grid.spacing!r}",
            f"shape: {' '.join(str(v) for v in self.grid.shape)}",
            f"offset: {self.offset!r}",
            f"groups: {self.n_a} {self.n_b}",
        ]
        write_table(path, None, self.flat()[:, None], header)


def _field_values(fields, nodes: np.ndarray) -> np.ndarray:
    return np.vstack([f.predict(nodes) / f.norm for f in fields])


def t_statistic(values_a: np.ndarray, values_b: np.ndarray, offset_d: float) -> np.ndarray:
    """Pointwise two-sample t from per-member evaluation matrices.

    values_a is (n_a, n_nodes), values_b is (n_b, n_nodes); the pooled
    variance gets the offset added before the square root.
    """
    n_a, n_b = values_a.shape[0], values_b.shape[0]
    if n_a < 2 or n_b < 2:
        raise ValueError("each group needs at least two member fields")
    mean_a = values_a.mean(axis=0)
    mean_b = values_b.mean(axis=0)
    pooled = (
        (n_a - 1) * values_a.var(axis=0, ddof=1)
        + (n_b - 1) * values_b.var(axis=0, ddof=1)
    ) / (n_a + n_b - 2)
    return (mean_a - mean_b) / (
        np.sqrt(pooled + offset_d) * np.sqrt(1.0 / n_a + 1.0 / n_b)
    )


def t_field(
    group_fields_a,
    group_fields_b,
    grid: GridSpec,
    offset_d: float = 0.001,
) -> TFieldGrid:
    """Pointwise two-sample t statistic between two groups of fields.

    At each node the member fields are evaluated, normalized to unit RKHS
    norm, group means and the standard pooled variance are formed, the
    offset is added to the pooled variance, and
    t = (mean_a - mean_b) / (s*_pool sqrt(1/n_a + 1/n_b)).
    """
    n_a, n_b = len(group_fields_a), len(group_fields_b)
    if n_a < 2 or n_b < 2:
        raise ValueError("each group needs at least two member fields")
    if not offset_d > 0:
        raise ValueError("the variance offset must be positive")
    nodes = grid.nodes()
    out = np.empty(grid.n_nodes)
    for start in range(0, grid.n_nodes, _T_FIELD_CHUNK):
        block = nodes[start : start + _T_FIELD_CHUNK]
        va = _field_values(group_fields_a, block)
        vb = _field_values(group_fields_b, block)
        out[start : start + _T_FIELD_CHUNK] = t_statistic(va, vb, offset_d)
    return TFieldGrid(
        grid, out.reshape(grid.shape, order="F"), offset_d, n_a, n_b
    )


@dataclass(frozen=True)
class ThresholdRegion:
    """One face-connected super-threshold component."""

    sign: int
    size: int
    index_min: tuple[int, ...]
    index_max: tuple[int, ...]

    def bounds(self, grid: GridSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
        lo = tuple(
            o + grid.spacing * i for o, i in zip(grid.origin, self.index_min)
        )
        hi = tuple(
            o + grid.spacing * i for o, i in zip(grid.origin, self.index_max)
        )
        return lo, hi


def threshold_regions(tfield: TFieldGrid, threshold: float) -> list[ThresholdRegion]:
    """Connected components (face adjacency) of |t| > threshold, separated
    by sign, largest first."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    from scipy import ndimage  # not at module level, as in ward_cluster

    ndim = tfield.t.ndim
    structure = ndimage.generate_binary_structure(ndim, 1)
    regions = []
    for sign, mask in ((1, tfield.t > threshold), (-1, tfield.t < -threshold)):
        labeled, n = ndimage.label(mask, structure=structure)
        for comp in range(1, n + 1):
            idx = np.argwhere(labeled == comp)
            regions.append(
                ThresholdRegion(
                    sign=sign,
                    size=idx.shape[0],
                    index_min=tuple(int(v) for v in idx.min(axis=0)),
                    index_max=tuple(int(v) for v in idx.max(axis=0)),
                )
            )
    regions.sort(key=lambda r: (-r.size, r.sign, r.index_min))
    return regions


def write_regions(path, regions: list[ThresholdRegion], grid: GridSpec, header_lines=()):
    rows = [
        (r.sign, r.size, ",".join(map(str, r.index_min)), ",".join(map(str, r.index_max)),
         *(",".join(map(repr, corner)) for corner in r.bounds(grid)))
        for r in regions
    ]
    columns = ("sign", "size", "index_min", "index_max", "world_min", "world_max")
    write_table(path, columns, rows, header_lines)
