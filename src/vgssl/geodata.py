"""Geo-tagged sample collections and distance-based neighborhood queries.

Samples carry a position (planar meters or geodetic degrees), a role
(query or database), and a fixed-width feature vector standing in for
image content.  A dataset stores both roles as id-ordered columns, with
the two radii that define positives (within ``r_pos`` meters) and
negatives (beyond ``r_neg`` meters); the annulus between them is
deliberately neither.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "PositionMode",
    "Role",
    "Position",
    "GeoSample",
    "GeoDataset",
    "distance_m",
    "synth_dataset",
    "save_csv",
    "load_csv",
]

EARTH_RADIUS_M = 6_371_000.0

# The factor ``math.radians`` multiplies by, so array conversions match it
# bit for bit.
_RADIANS = math.pi / 180.0
# Relative band around each radius, and the haversine ``h`` beyond which a
# pair is near-antipodal, inside which the radius search defers to
# ``distance_m``; derived in ``GeoDataset._radius_search``.
_RADIUS_MARGIN = 2.0**-32
_ANTIPODE_H = 1.0 - 2.0**-20


class PositionMode(Enum):
    PLANAR = "planar"
    GEODETIC = "geodetic"


class Role(Enum):
    QUERY = "query"
    DATABASE = "database"


@dataclass(frozen=True)
class Position:
    """A point either on a local plane (meters) or on the globe (degrees)."""

    mode: PositionMode
    a: float  # x meters, or latitude degrees
    b: float  # y meters, or longitude degrees

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"non-finite position ({self.a}, {self.b})")
        if self.mode is PositionMode.GEODETIC:
            if not -90.0 <= self.a <= 90.0:
                raise ValueError(f"latitude {self.a} outside [-90, 90]")
            if not -180.0 <= self.b <= 180.0:
                raise ValueError(f"longitude {self.b} outside [-180, 180]")


def distance_m(p: Position, q: Position) -> float:
    """Meters between two positions; both must share a mode."""
    if p.mode is not q.mode:
        raise ValueError(f"cannot mix position modes {p.mode.value} and {q.mode.value}")
    if p.mode is PositionMode.PLANAR:
        return math.hypot(p.a - q.a, p.b - q.b)
    # Haversine on a spherical Earth.
    lat1, lon1, lat2, lon2 = map(math.radians, (p.a, p.b, q.a, q.b))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True)
class GeoSample:
    """One sample as a dataset returns it; the dataset checked its values."""

    id: int
    role: Role
    position: Position
    features: np.ndarray


def _numeric(values) -> bool:
    """Whether a 1-d feature row holds only ints and floats: a numpy array
    of an integer or float dtype, or a sequence of such scalars."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf"
    return all(
        isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
        for x in values
    )


class GeoDataset:
    """Query and database samples, stored as columns, plus the
    positive/negative radii.

    Every column is in the CSV's row order, database rows then query rows,
    each by ascending id: the tuples ``db_ids`` and ``query_ids``, one
    ``Position`` per row and one read-only (N, F) matrix, and nothing else,
    so no result depends on the order of the rows a dataset was built
    from.  ``features(ids)`` copies matrix rows, ``positions(ids)`` reads
    positions, and ``db_features`` (a view) and ``db_positions`` read the
    whole database where it is stored.  ``sample(id)``, ``queries`` and
    ``database`` build ``GeoSample`` objects on demand over read-only rows.

    The first neighbourhood query runs one radius search over the whole
    database, vectorised per query with a rounding margin decided by
    ``distance_m`` (see ``_radius_search``), and stores each query's
    positives and negatives as ascending row arrays into ``db_ids``;
    every later query reads them.  Construction never pays for it.
    """

    def __init__(self, rows, r_pos: float = 10.0, r_neg: float = 25.0):
        """Columns from ``(is_query, id, position, features)`` rows in any
        order.  Every id must be an integer, and not a bool.  The features
        are checked once, together: each row 1-d, one width, every value
        an int or a float (not a bool or a string) and finite."""
        if not (0.0 < r_pos < r_neg):
            raise ValueError(f"need 0 < r_pos < r_neg, got {r_pos}, {r_neg}")
        rows = list(rows)
        for _, sid, _, _ in rows:
            if isinstance(sid, bool) or not isinstance(sid, (int, np.integer)):
                raise ValueError(f"sample id {sid!r} is not an integer")
        rows.sort(key=lambda r: r[:2])
        n_db = sum(not r[0] for r in rows)
        if not n_db:
            raise ValueError("database must be non-empty")
        _, ids, positions, feats = zip(*rows)
        if len({p.mode for p in positions}) != 1:
            raise ValueError("all samples must share one position mode")
        shapes = {np.shape(f) for f in feats}
        not_1d = sorted(s for s in shapes if len(s) != 1)
        if not_1d:
            raise ValueError(f"features must be 1-d, got shape {not_1d[0]}")
        if len(shapes) != 1:
            raise ValueError(f"inconsistent feature widths {sorted(s[0] for s in shapes)}")
        for sid, f in zip(ids, feats):
            if not _numeric(f):
                raise ValueError(f"sample {sid} has non-numeric features")
        self._matrix = np.array(feats, dtype=np.float64)
        finite = np.isfinite(self._matrix).all(axis=1)
        if not finite.all():
            raise ValueError(f"sample {ids[finite.argmin()]} has non-finite features")
        self._row = {i: row for row, i in enumerate(ids)}
        if len(self._row) != len(ids):
            raise ValueError("sample ids must be unique across roles")
        self.r_pos, self.r_neg = r_pos, r_neg
        self.db_ids, self.query_ids = ids[:n_db], ids[n_db:]
        self._positions = positions
        self.db_positions = positions[:n_db]
        self._matrix.flags.writeable = False
        self.db_features = self._matrix[:n_db]
        self.mode: PositionMode = positions[0].mode
        self.feature_dim: int = self._matrix.shape[1]
        self._neighbours: dict[int, tuple[np.ndarray, np.ndarray]] | None = None
        # Query ids eligible without, then with, the need for a negative.
        self._eligible: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def _rows(self, ids) -> list[int]:
        try:
            return [self._row[i] for i in ids]
        except KeyError as err:
            raise KeyError(f"no sample with id {err.args[0]}") from None

    def _sample(self, sample_id: int, row: int) -> GeoSample:
        role = Role.DATABASE if row < len(self.db_ids) else Role.QUERY
        return GeoSample(sample_id, role, self._positions[row], self._matrix[row])

    def sample(self, sample_id: int) -> GeoSample:
        return self._sample(sample_id, self._rows([sample_id])[0])

    @property
    def database(self) -> list[GeoSample]:
        """The database samples in id order, as a fresh list."""
        return [self._sample(i, row) for row, i in enumerate(self.db_ids)]

    @property
    def queries(self) -> list[GeoSample]:
        """The query samples in id order, as a fresh list."""
        return [self._sample(i, row) for row, i in enumerate(self.query_ids, len(self.db_ids))]

    def features(self, ids) -> np.ndarray:
        """Feature rows of ``ids``, any roles, in the given order; a copy."""
        return self._matrix[self._rows(ids)]

    def positions(self, ids) -> list[Position]:
        """Positions of ``ids``, any roles, in the given order."""
        return [self._positions[row] for row in self._rows(ids)]

    def _radius_search(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Each query's (positive rows, negative rows) into ``db_ids``.

        One query at a time, the distances to every database row are
        computed in one vectorised pass, O(M) memory: ``np.hypot`` of the
        same coordinate differences in planar mode, the same haversine in
        numpy in geodetic mode.  These may differ from ``distance_m`` in
        the last bits, so any pair whose vectorised distance ``d`` lies
        within ``_RADIUS_MARGIN * r`` of a radius ``r`` (and, in geodetic
        mode, any pair near the antipode) is decided by ``distance_m``
        itself.  That keeps membership bit for bit:

        - Planar: the coordinate differences are the same IEEE
          subtractions, and ``np.hypot`` and ``math.hypot`` are each within
          one ulp of their exact length, so they differ by at most 2 ulp,
          at most ``2**-51 * d``.
        - Geodetic: degrees become radians through the product
          ``math.radians`` forms, so the coordinate differences are again
          identical.  Each of sin, cos, sqrt and asin is within a few ulp
          of exact in numpy and in libm, and ``h`` is a sum of
          non-negative terms, so the two ``h`` differ by a relative
          ``2**-46`` (64 ulp) at most, and ``sqrt(h)`` by half that.
          ``asin`` scales a relative error of its argument by at most
          ``tan(t) / t <= 1 / sqrt(1 - h)`` at ``t = asin(sqrt(h))``, which is
          ``2**10`` or less while ``h <= 1 - 2**-20``: the two distances
          then differ by a relative ``2**-36`` at most.  Pairs with a
          larger ``h``, within about 12 km of each other's antipode, go to
          ``distance_m``.

        Both bounds are at least 16 times tighter than the margin, so a
        vectorised ``d`` beyond ``r * (1 + 2**-32)`` or below
        ``r * (1 - 2**-32)`` puts the scalar distance on the same side of
        ``r``.
        """
        db = self.db_positions
        a = np.array([p.a for p in db])
        b = np.array([p.b for p in db])
        geodetic = self.mode is PositionMode.GEODETIC
        if geodetic:
            a, b = a * _RADIANS, b * _RADIANS
            cos_a = np.cos(a)
        r_pos, r_neg = self.r_pos, self.r_neg
        tol_pos, tol_neg = _RADIUS_MARGIN * r_pos, _RADIUS_MARGIN * r_neg
        out = {}
        for qid, p in zip(self.query_ids, self._positions[len(db):]):
            if geodetic:
                lat, lon = p.a * _RADIANS, p.b * _RADIANS
                h = (np.sin((a - lat) / 2) ** 2
                     + math.cos(lat) * cos_a * np.sin((b - lon) / 2) ** 2)
                d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))
                unsure = h > _ANTIPODE_H
            else:
                d = np.hypot(p.a - a, p.b - b)
                unsure = False
            unsure = unsure | (np.abs(d - r_pos) <= tol_pos) | (np.abs(d - r_neg) <= tol_neg)
            pos, neg = d <= r_pos, d > r_neg
            for j in unsure.nonzero()[0]:
                dj = distance_m(p, db[j])
                pos[j], neg[j] = dj <= r_pos, dj > r_neg
            rows = pos.nonzero()[0], neg.nonzero()[0]
            for r in rows:
                r.flags.writeable = False
            out[qid] = rows
        return out

    def neighbour_rows(self, query_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(positive rows, negative rows) of a query: ascending, read-only
        indices into ``db_ids``; the annulus between the radii lands in
        neither.  The first call of any neighbourhood query runs the
        radius search for every query."""
        if self._row.get(query_id, -1) < len(self.db_ids):
            raise KeyError(f"no query with id {query_id}")
        if self._neighbours is None:
            self._neighbours = self._radius_search()
        return self._neighbours[query_id]

    def positive_set(self, query_id: int) -> list[int]:
        """Database ids within r_pos meters of the query, ascending."""
        return [self.db_ids[i] for i in self.neighbour_rows(query_id)[0].tolist()]

    def negative_set(self, query_id: int) -> list[int]:
        """Database ids strictly beyond r_neg meters, ascending."""
        return [self.db_ids[i] for i in self.neighbour_rows(query_id)[1].tolist()]

    def eligible_queries(self, need_negatives: bool) -> list[int]:
        """Query ids, ascending, with a positive and, if ``need_negatives``,
        a negative."""
        if self._eligible is None:
            rows = [self.neighbour_rows(q) for q in self.query_ids]
            self._eligible = tuple(
                tuple(q for q, (pos, neg) in zip(self.query_ids, rows)
                      if pos.size and (neg.size or not need))
                for need in (False, True)
            )
        return list(self._eligible[bool(need_negatives)])


def synth_dataset(
    seed: int,
    n_places: int = 20,
    db_per_place: int = 8,
    query_fraction: float = 1.0,
    feature_dim: int = 32,
    view_noise: float = 0.5,
    spacing_m: float = 100.0,
    r_pos: float = 10.0,
    r_neg: float = 25.0,
    buffer_per_place: int = 0,
) -> GeoDataset:
    """Planar toy world: well-separated places, co-located views per place.

    Place centers sit on a square grid ``spacing_m`` apart, so samples of
    different places are always farther than ``r_neg`` and samples of the
    same place always within ``r_pos`` (offsets are confined to a disk of
    radius ``r_pos / 2``).  Each sample's feature vector is the place
    latent plus isotropic view noise.  ``buffer_per_place`` optionally adds
    database samples in the annulus between the radii, which belong to
    neither the positive nor the negative set of their place's query.
    """
    if n_places < 2:
        raise ValueError("need at least 2 places")
    if db_per_place < 1:
        raise ValueError("need at least 1 database sample per place")
    if not 0.0 <= query_fraction <= 1.0:
        raise ValueError(f"query_fraction {query_fraction} outside [0, 1]")
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be at least 1, got {feature_dim}")
    if view_noise < 0:
        raise ValueError(f"view_noise cannot be negative, got {view_noise}")
    if not math.isfinite(view_noise):
        raise ValueError(f"view_noise must be finite, got {view_noise}")
    if buffer_per_place < 0:
        raise ValueError(f"buffer_per_place cannot be negative, got {buffer_per_place}")
    if buffer_per_place > 0 and r_neg - r_pos <= 2.0:
        raise ValueError("buffer samples need r_neg - r_pos > 2 meters of annulus")
    if spacing_m <= 2.0 * r_neg:
        raise ValueError(
            f"spacing_m {spacing_m} must exceed 2 * r_neg = {2 * r_neg} so places "
            "cannot overlap across the negative radius"
        )
    rng = np.random.default_rng(seed)
    side = math.ceil(math.sqrt(n_places))
    centers = [
        (spacing_m * (i % side), spacing_m * (i // side)) for i in range(n_places)
    ]
    latents = rng.normal(size=(n_places, feature_dim))

    def offset(radius: float) -> tuple[float, float]:
        # Uniform over a disk of the given radius.
        # Generator.uniform(0, h) is 0 + h * random(), exact with a zero
        # low, so drawing random() directly yields the same bits.
        ang = 2.0 * math.pi * rng.random()
        r = math.sqrt(rng.random()) * radius
        return r * math.cos(ang), r * math.sin(ang)

    rows = []  # (is_query, id, position, features), as GeoDataset takes them

    def add(is_query: bool, x: float, y: float, feats: np.ndarray) -> None:
        # Ids count up from 0 in draw order.
        rows.append((is_query, len(rows), Position(PositionMode.PLANAR, x, y), feats))

    for p in range(n_places):
        cx, cy = centers[p]
        for _ in range(db_per_place):
            dx, dy = offset(r_pos / 2.0)
            add(False, cx + dx, cy + dy, latents[p] + rng.normal(size=feature_dim) * view_noise)
        for _ in range(buffer_per_place):
            # Annulus strictly between the radii: near the place but neither
            # positive nor negative for its query.
            ang = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(r_pos + 1.0, r_neg - 1.0)
            feats = latents[p] + rng.normal(size=feature_dim) * view_noise
            add(False, cx + r * math.cos(ang), cy + r * math.sin(ang), feats)

    n_queries = int(round(query_fraction * n_places))
    query_places = sorted(rng.choice(n_places, size=n_queries, replace=False).tolist())
    for p in query_places:
        cx, cy = centers[p]
        dx, dy = offset(r_pos / 2.0)
        add(True, cx + dx, cy + dy, latents[p] + rng.normal(size=feature_dim) * view_noise)

    return GeoDataset(rows, r_pos, r_neg)


def save_csv(ds: GeoDataset, csv_path: str | Path) -> None:
    """Write samples as CSV plus a sibling ``.meta.json`` with the radii.

    Rows are ordered database first then queries, ascending id within each
    role, so a reload reproduces the dataset byte for byte.
    """
    csv_path = Path(csv_path)
    f_dim = ds.feature_dim
    header = ["id", "role", "lat_or_x", "lon_or_y"] + [f"f{i}" for i in range(f_dim)]
    # The bytes ``csv.writer`` would write: every field is an int, a role
    # value or the repr of a finite float, so none holds a delimiter, a
    # quote or a line break and none is ever quoted.  The dataset's columns
    # are in the CSV's row order; rows stream one at a time.
    roles = [Role.DATABASE.value] * len(ds.db_ids) + [Role.QUERY.value] * len(ds.query_ids)
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(
            ",".join([str(i), role, repr(p.a), repr(p.b), *map(repr, row.tolist())]) + "\r\n"
            for i, role, p, row in zip(ds.db_ids + ds.query_ids, roles, ds._positions, ds._matrix)
        )
    meta = {
        "mode": ds.mode.value,
        "r_pos": ds.r_pos,
        "r_neg": ds.r_neg,
        "feature_dim": f_dim,
    }
    with open(csv_path.with_suffix(".meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _read_meta(meta_path: Path) -> tuple[PositionMode, float, float, int]:
    """(mode, r_pos, r_neg, feature_dim) from a sidecar; every problem
    raises a ``ValueError`` that names the sidecar."""
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except ValueError as err:
            raise ValueError(f"{meta_path}: not valid JSON: {err}") from err
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object, got {type(meta).__name__}")
    for key in ("mode", "r_pos", "r_neg", "feature_dim"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
    try:
        mode = PositionMode(meta["mode"])
    except ValueError as err:
        raise ValueError(f"{meta_path}: {err}") from err
    r_pos, r_neg, f_dim = meta["r_pos"], meta["r_neg"], meta["feature_dim"]
    if not (_is_number(r_pos) and _is_number(r_neg) and 0.0 < r_pos < r_neg):
        raise ValueError(f"{meta_path}: need numbers 0 < r_pos < r_neg, got {r_pos!r}, {r_neg!r}")
    if not (_is_number(f_dim) and isinstance(f_dim, int) and f_dim >= 0):
        raise ValueError(f"{meta_path}: feature_dim must be a non-negative integer, got {f_dim!r}")
    return mode, r_pos, r_neg, f_dim


def load_csv(csv_path: str | Path) -> GeoDataset:
    """Read a dataset written by ``save_csv``; a malformed CSV or sidecar
    raises a ``ValueError`` that names the file (and the CSV line)."""
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".meta.json")
    if not meta_path.exists():
        raise FileNotFoundError(f"missing metadata sidecar {meta_path}")
    mode, r_pos, r_neg, f_dim = _read_meta(meta_path)
    rows = []  # (is_query, id, position, features), as GeoDataset takes them
    first_line: dict[int, int] = {}
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{csv_path}: empty file, expected a header row")
            n_feat = len(header) - 4
            if n_feat != f_dim:
                raise ValueError(
                    f"{csv_path}:1: csv has {n_feat} feature columns, metadata says {f_dim}"
                )
            for row in reader:
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} columns, got {len(row)}")
                    role = Role(row[1])
                    pos = Position(mode, float(row[2]), float(row[3]))
                    feats = np.fromiter(map(float, row[4:]), np.float64, n_feat)
                    sid = int(row[0])
                    # Checked here too, so that the message names the line.
                    if not np.isfinite(feats).all():
                        raise ValueError(f"sample {sid} has non-finite features")
                    line = first_line.setdefault(sid, reader.line_num)
                    if line != reader.line_num:
                        raise ValueError(f"duplicate sample id {sid}, first on line {line}")
                except ValueError as err:
                    raise ValueError(f"{csv_path}:{reader.line_num}: {err}") from err
                rows.append((role is Role.QUERY, sid, pos, feats))
    except (csv.Error, UnicodeDecodeError) as err:
        # Bytes that are not text, or a field past csv's size limit.
        raise ValueError(f"{csv_path}: {err}") from err
    try:
        return GeoDataset(rows, r_pos, r_neg)
    except ValueError as err:
        raise ValueError(f"{csv_path}: {err}") from err
