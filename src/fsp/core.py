"""Core types shared by the whole package.

Covariate boxes, smoothness parameters, labeled sample sets, reproducible
RNG streams, and CSV ingestion. Everything here is immutable after
construction and safe to share across workers.
"""

import csv
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "DataError",
    "ConfigError",
    "QueryError",
    "BudgetError",
    "EnvelopeError",
    "SeparationError",
    "Domain",
    "HolderParams",
    "SampleSet",
    "frozen_sample",
    "rng_stream",
    "derive_seed",
    "load_csv",
    "covariate_names",
    "required",
    "default_quadrature_points",
]


class DomainError(ValueError):
    """A point lies outside the covariate box."""


class DataError(ValueError):
    """A data file is malformed (missing column, bad cell, empty)."""


class ConfigError(ValueError):
    """A configuration value is invalid or unknown."""


class QueryError(RuntimeError):
    """A black-box model query failed or returned a non-finite value."""


class BudgetError(RuntimeError):
    """The labeling budget or pool is exhausted."""


class EnvelopeError(RuntimeError):
    """The rejection-sampling envelope is misconfigured (acceptance collapsed)."""


class SeparationError(RuntimeError):
    """Logistic regression detected (quasi-)perfect separation."""


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box in R^d describing the target covariate region."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(lo) != len(hi) or len(lo) < 1:
            raise ValueError("lo and hi must be nonempty vectors of equal length")
        for a, b in zip(lo, hi):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError("domain bounds must be finite")
            if not a < b:
                raise ValueError(f"every coordinate needs lo < hi, got [{a}, {b}]")
        volume = math.prod(b - a for a, b in zip(lo, hi))
        if not 0 < volume < math.inf:  # the samplers and densities scale by it
            raise ValueError(
                f"the box's volume {'overflows' if volume else 'underflows'} float64; "
                "rescale the covariates"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def cube(cls, dim, lo=0.0, hi=1.0):
        return cls((lo,) * dim, (hi,) * dim)

    @classmethod
    def bounding(cls, points):
        """The box spanned by the rows of `points`, padded so every row lies inside;
        DataError if the points span no usable box."""
        points = np.atleast_2d(np.asarray(points, float))
        pad = 1e-9 * np.maximum(1.0, np.abs(points).max(axis=0))
        try:
            return cls(points.min(axis=0) - pad, points.max(axis=0) + pad)
        except ValueError as exc:
            raise DataError(f"the points span no usable box: {exc}") from None

    @property
    def dim(self):
        return len(self.lo)

    def edge_lengths(self):
        return np.asarray(self.hi, float) - np.asarray(self.lo, float)

    def min_edge(self):
        return float(self.edge_lengths().min())

    def max_edge(self):
        return float(self.edge_lengths().max())

    def volume(self):
        return float(np.prod(self.edge_lengths()))

    def contains(self, x):
        """Membership of a point (d,) or batch (m, d); the box is closed."""
        x = np.asarray(x, float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        ok = (x >= lo) & (x <= hi)
        return ok.all(axis=-1)

    def require(self, x, what="point"):
        """Raise DomainError unless every row of x lies in the box."""
        x = np.atleast_2d(np.asarray(x, float))
        if x.shape[1] != self.dim:
            raise DomainError(f"{what} has dimension {x.shape[1]}, domain has {self.dim}")
        ok = self.contains(x)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise DomainError(f"{what} {i} = {x[i].tolist()} lies outside the domain")

    def uniform(self, count, rng):
        """Draw `count` i.i.d. uniform points on the box."""
        return rng.uniform(np.asarray(self.lo), np.asarray(self.hi), size=(int(count), self.dim))

    def grid(self, points_per_dim):
        """Midpoint-rule grid: cell centers of shape (m^d, d) and the cell volume."""
        m = int(points_per_dim)
        if m < 2:
            raise ValueError("need at least 2 quadrature points per dimension")
        axes = [
            self.lo[j] + (np.arange(m) + 0.5) * (self.hi[j] - self.lo[j]) / m
            for j in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([g.ravel() for g in mesh], axis=1)
        return centers, self.volume() / m**self.dim

    def quadrature_nodes(self, points_per_dim=None):
        """Equal-weight nodes for averages over the box, shape (nodes, d).

        Up to d = 4 they are the midpoint grid with points_per_dim points per
        axis (default_quadrature_points(d) when None).  A grid above d = 4 holds
        at least 8^d nodes, 16.8 million at d = 8, so there the nodes are the
        first 4,096 points of the Halton sequence (Halton 1960) scaled to the
        box, whatever points_per_dim is.
        """
        if self.dim <= _GRID_MAX_DIM:
            return self.grid(points_per_dim or default_quadrature_points(self.dim))[0]
        return np.asarray(self.lo) + _halton(_HALTON_NODES, self.dim) * self.edge_lengths()

    def to_dict(self):
        return {"lo": list(self.lo), "hi": list(self.hi)}


@dataclass(frozen=True, order=True)
class HolderParams:
    """Smoothness pair (theta1, theta2): norm scale and exponent in [0, 1].

    Ordering is lexicographic in (theta1, theta2), which is also the
    tie-breaking order used by model selection.
    """

    theta1: float
    theta2: float

    def __post_init__(self):
        t1 = float(self.theta1)
        t2 = float(self.theta2)
        if not np.isfinite(t1) or t1 < 0:
            raise ValueError(f"theta1 must be finite and >= 0, got {t1}")
        if not np.isfinite(t2) or not 0.0 <= t2 <= 1.0:
            raise ValueError(f"theta2 must lie in [0, 1], got {t2}")
        object.__setattr__(self, "theta1", t1)
        object.__setattr__(self, "theta2", t2)


def frozen_sample(x, y, what):
    """Read-only float copies of (n, d) points x and their n aligned values y;
    ValueError naming `what` for any other shapes."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"{what} needs (n, d) points and n aligned values, got {x.shape}, {y.shape}")
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


class SampleSet:
    """Labeled samples with train/validation index partitions.

    The index sets must be disjoint subsets of range(len).  Arrays are
    stored read-only so instances can be shared freely.
    """

    def __init__(self, x, y, train_idx=(), val_idx=()):
        x, y = frozen_sample(x, y, "sample set")
        train_idx = np.array(sorted(int(i) for i in np.asarray(train_idx, int).ravel()))
        val_idx = np.array(sorted(int(i) for i in np.asarray(val_idx, int).ravel()))
        n = x.shape[0]
        for name, idx in (("train_idx", train_idx), ("val_idx", val_idx)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"{name} out of range for {n} samples")
            if (idx[1:] == idx[:-1]).any():  # sorted above
                raise ValueError(f"{name} contains duplicates")
        both = np.sort(np.concatenate([train_idx, val_idx]))
        if (both[1:] == both[:-1]).any():
            raise ValueError("train_idx and val_idx must be disjoint")
        for arr in (train_idx, val_idx):
            arr.setflags(write=False)
        self._x = x
        self._y = y
        self._train = train_idx
        self._val = val_idx

    def __len__(self):
        return self._x.shape[0]

    @property
    def dim(self):
        return self._x.shape[1]

    @property
    def x(self):
        return self._x

    @property
    def y(self):
        return self._y

    @property
    def train_idx(self):
        return self._train

    @property
    def val_idx(self):
        return self._val

    @property
    def train_x(self):
        return self._x[self._train]

    @property
    def train_y(self):
        return self._y[self._train]

    @property
    def val_x(self):
        return self._x[self._val]

    @property
    def val_y(self):
        return self._y[self._val]


_SEED_MASK = (1 << 63) - 1


def _label_words(phase_label):
    digest = hashlib.sha256(str(phase_label).encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def rng_stream(seed, phase_label):
    """Deterministic random stream for one (seed, phase) pair.

    Streams for distinct labels or seeds are statistically independent;
    the same pair always reproduces the same stream.
    """
    entropy = [int(seed) & _SEED_MASK] + _label_words(phase_label)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed, label):
    """Stable integer sub-seed for (seed, label), for nested pipelines."""
    payload = f"{int(seed) & _SEED_MASK}:{label}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little") & _SEED_MASK


def load_csv(path, covariates, response=None, allow_empty=False):
    """Read a header-plus-rows CSV into a SampleSet or a bare covariate pool.

    `covariates` names the covariate columns in order; `response`, when
    given, names the response column and the result is a SampleSet with
    empty index partitions (callers split).  Without a response the raw
    (n, d) covariate array is returned.  Malformed input raises DataError
    naming the offending row (1-based, header excluded) and column; a
    non-finite cell such as nan or inf counts as malformed, and so does a
    requested column whose name the header holds twice.  A leading UTF-8
    byte-order mark is skipped.
    """
    covariates = list(covariates)
    wanted = covariates + ([response] if response is not None else [])
    if len(set(wanted)) != len(wanted):
        raise DataError("duplicate column names requested")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""))  # the lines the file object gives
    header = next(reader, None)
    if header is None:
        raise DataError(f"empty data: {path} has no header row")
    header = [c.strip() for c in header]
    positions = {}
    for name in wanted:
        if name not in header:
            raise DataError(f"missing column {name!r} in {path} (found {header})")
        if header.count(name) > 1:
            raise DataError(f"column {name!r} appears {header.count(name)} times in {path}")
        positions[name] = header.index(name)
    block = _plain_numbers(text, [positions[name] for name in wanted])
    rows = [row for row in reader if row] if block is None else block
    if len(rows) == 0 and not allow_empty:
        raise DataError(f"empty data: {path} has a header but no rows")
    if block is not None:
        x = np.array(block[:, : len(covariates)])
        y = block[:, -1] if response is not None else None
    else:

        def cell(row_values, row_number, name):
            j = positions[name]
            if j >= len(row_values):
                raise DataError(f"row {row_number} is too short for column {name!r} of {path}")
            text = row_values[j].strip()
            try:
                value = float(text)
            except ValueError:
                value = math.nan  # reported as not a finite number
            if not math.isfinite(value):
                raise DataError(
                    f"{text!r} is not a finite number at row {row_number}, column {name!r} of {path}"
                )
            return value

        x = np.array(
            [[cell(row, r, name) for name in covariates] for r, row in enumerate(rows, start=1)],
            dtype=float,
        ).reshape(len(rows), len(covariates))
        if response is not None:
            y = np.array([cell(row, r, response) for r, row in enumerate(rows, start=1)], dtype=float)
    if response is None:
        x.setflags(write=False)
        return x
    return SampleSet(x, y)


_PLAIN = b"0123456789.eE+-,\n"


def _plain_numbers(text, columns):
    """The given columns of the rows after the header, when numpy's parse provably
    equals the csv module's: every byte after the header line is an ASCII digit,
    point, exponent, sign, comma or line end (CRLF included), so csv splits each
    line at its commas, and numpy and float() hand each cell to the same
    PyOS_string_to_double.  None when that does not hold, or when a cell is
    missing, unparsable or not finite, so the caller's loop names the cause.
    """
    head, _, body = text.partition("\n")
    if '"' in head or "\r" in head[:-1] or not body.isascii():
        return None
    if "\r" in body:
        if body.count("\r") != body.count("\r\n"):
            return None
        body = body.replace("\r\n", "\n")
    if body.encode("ascii").translate(None, _PLAIN):
        return None
    lines = body.split()  # the non-empty lines, the rows csv keeps
    if not lines:
        return np.empty((0, len(columns)))
    if max(map(len, lines)) > csv.field_size_limit():
        return None  # csv would raise on an oversized field
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, usecols=columns, ndmin=2)
    except ValueError:
        return None
    if block.shape != (len(lines), len(columns)) or not np.isfinite(block).all():
        return None
    return block


def covariate_names(dim):
    """The names x1..xd of a box's coordinates, as expressions read them."""
    return [f"x{j + 1}" for j in range(dim)]


def required(spec, key, what):
    """spec[key] from a JSON object; ConfigError naming `what` and the key otherwise."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(spec).__name__}")
    if key not in spec:
        raise ConfigError(f"{what} needs the field {key!r}")
    return spec[key]


_GRID_MAX_DIM = 4
_HALTON_NODES = 4096


def _halton(count, dim):
    """Points 1..count of the Halton sequence in [0, 1)^dim: coordinate j is the
    radical inverse of the point's index in the j-th prime base."""
    bases = []
    candidate = 2
    while len(bases) < dim:
        if all(candidate % p for p in bases):
            bases.append(candidate)
        candidate += 1
    out = np.zeros((count, dim))
    for j, base in enumerate(bases):
        index = np.arange(1, count + 1)
        scale = 1.0
        while index.any():
            scale /= base
            index, digit = np.divmod(index, base)
            out[:, j] += digit * scale
    return out


def default_quadrature_points(dim):
    """Points per dimension so the full grid stays near 4096 nodes up to d = 4
    (Domain.quadrature_nodes takes a grid no higher)."""
    return int(min(4096, max(8, np.ceil(4096 ** (1.0 / dim)))))
