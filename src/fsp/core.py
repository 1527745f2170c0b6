"""Core types shared by the whole package.

Covariate boxes, smoothness parameters, labeled sample sets, reproducible
RNG streams, and input-file and CSV reading. Everything here is immutable
after construction and safe to share across workers.
"""

import codecs
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
    "read_input",
    "load_csv",
    "load_column",
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

    def _of_width(self, x, what):
        """x as a float array whose last axis holds d coordinates; DomainError naming
        `what` and both widths otherwise."""
        x = np.atleast_1d(np.asarray(x, float))
        if x.shape[-1] != self.dim:
            raise DomainError(f"{what} has dimension {x.shape[-1]}, domain has {self.dim}")
        return x

    def contains(self, x):
        """Membership of a point (d,) or batch (m, d); the box is closed."""
        x = self._of_width(x, "point")
        return ((x >= np.asarray(self.lo)) & (x <= np.asarray(self.hi))).all(axis=-1)

    def require(self, x, what="point"):
        """Raise DomainError unless every row of x lies in the box."""
        x = self._of_width(np.atleast_2d(np.asarray(x, float)), what)
        ok = self.contains(x)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise DomainError(f"{what} {i} = {x[i].tolist()} lies outside the domain")

    def uniform(self, count, rng):
        """Draw `count` i.i.d. uniform points on the box."""
        return rng.uniform(np.asarray(self.lo), np.asarray(self.hi), size=(int(count), self.dim))

    def grid_axes(self, points_per_dim):
        """The midpoint rule's m cell centers on each axis, a list of d arrays."""
        m = int(points_per_dim)
        if m < 2:
            raise ValueError("need at least 2 quadrature points per dimension")
        return [self.lo[j] + (np.arange(m) + 0.5) * (self.hi[j] - self.lo[j]) / m for j in range(self.dim)]

    def grid(self, points_per_dim):
        """Midpoint-rule grid: cell centers of shape (m^d, d), C-order over
        grid_axes(m), and the cell volume."""
        axes = self.grid_axes(points_per_dim)
        mesh = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([g.ravel() for g in mesh], axis=1)
        return centers, self.volume() / len(axes[0]) ** self.dim

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
    ValueError naming `what` for any other shapes, and DataError naming `what`
    and the first row whose point or value is not finite."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"{what} must be (n, d) points and n aligned values, got {x.shape}, {y.shape}")
    bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(y))
    if bad.any():
        i = int(bad.argmax())
        raise DataError(f"{what} must be finite; row {i} is {x[i].tolist()} with value {float(y[i])}")
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


@dataclass(frozen=True, eq=False, repr=False)
class SampleSet:
    """Labeled samples with train/validation index partitions.

    The index sets must be disjoint subsets of range(len); they are stored
    sorted.  Arrays are stored read-only so instances can be shared freely.
    """

    x: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray = ()
    val_idx: np.ndarray = ()

    def __post_init__(self):
        x, y = frozen_sample(self.x, self.y, "sample set")
        n = x.shape[0]
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        for name in ("train_idx", "val_idx"):
            idx = np.sort(np.asarray(getattr(self, name), np.intp).ravel())
            if idx.size and (idx[0] < 0 or idx[-1] >= n):
                raise ValueError(f"{name} out of range for {n} samples")
            if (idx[1:] == idx[:-1]).any():
                raise ValueError(f"{name} contains duplicates")
            idx.setflags(write=False)
            object.__setattr__(self, name, idx)
        both = np.sort(np.concatenate([self.train_idx, self.val_idx]))
        if (both[1:] == both[:-1]).any():
            raise ValueError("train_idx and val_idx must be disjoint")

    def __len__(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]

    @property
    def train_x(self):
        return self.x[self.train_idx]

    @property
    def train_y(self):
        return self.y[self.train_idx]

    @property
    def val_x(self):
        return self.x[self.val_idx]

    @property
    def val_y(self):
        return self.y[self.val_idx]


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


def read_input(path, what=None):
    """The bytes of the input file at `path`, without a leading UTF-8 byte-order mark.

    DataError naming `what` (default: the path) if the file cannot be read, and
    naming the path if its bytes are not UTF-8 text.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise DataError(f"cannot read {what or path}: {exc}") from None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    return data


def load_csv(path, covariates, response=None, allow_empty=False):
    """Read a header-plus-rows CSV into a SampleSet or a bare covariate pool.

    `covariates` names the covariate columns in order; `response`, when
    given, names the response column and the result is a SampleSet with
    empty index partitions (callers split).  Without a response the raw
    (n, d) covariate array is returned.  Malformed input raises DataError
    naming the first offending cell in row order (1-based, header excluded)
    and its column; a non-finite cell such as nan or inf counts as malformed,
    and so does a requested column whose name the header holds twice.  The
    file is read by read_input.
    """
    wanted = list(covariates) + ([response] if response is not None else [])
    if len(set(wanted)) != len(wanted):
        raise DataError("duplicate column names requested")
    block = _read_columns(path, lambda header: wanted, allow_empty)
    return block if response is None else SampleSet(block[:, :-1], block[:, -1])


def load_column(path, preferred):
    """One column of a header-plus-rows CSV, read as load_csv reads it: the file's only
    column, else the first name in `preferred` its header holds (ConfigError if none)."""

    def pick(header):
        names = header if len(header) == 1 else [name for name in preferred if name in header]
        if not names:
            raise ConfigError(f"{path} has columns {header}; expected one of {list(preferred)} "
                              "or a single-column file")
        return names[:1]

    return _read_columns(path, pick, allow_empty=True)[:, 0]


def _read_columns(path, pick, allow_empty):
    """The read-only (n, k) block of the k columns that pick(header) names, the
    file read once by read_input; see load_csv for the errors."""
    data = read_input(path)
    # the csv module reads the lines a text file object gives, decoded a chunk at a time
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"empty data: {path} has no header row")
    header = [c.strip() for c in header]
    wanted = pick(header)
    for name in wanted:
        if name not in header:
            raise DataError(f"missing column {name!r} in {path} (found {header})")
        if header.count(name) > 1:
            raise DataError(f"column {name!r} appears {header.count(name)} times in {path}")
    columns = [header.index(name) for name in wanted]
    block = _plain_numbers(data, columns)
    if block is None:

        def cell(row_values, row_number, j, name):
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

        rows = [row for row in reader if row]
        block = np.array(
            [[cell(row, r, j, name) for j, name in zip(columns, wanted)] for r, row in enumerate(rows, 1)],
            dtype=float,
        ).reshape(len(rows), len(wanted))
    if len(block) == 0 and not allow_empty:
        raise DataError(f"empty data: {path} has a header but no rows")
    block.setflags(write=False)
    return block


_PLAIN = b"0123456789.eE+-,\n"


def _plain_numbers(data, columns):
    """The given columns of the rows after the header of a file's bytes `data` (no
    byte-order mark), when numpy's parse provably equals the csv module's: every
    byte after the header line is an ASCII digit, point, exponent, sign, comma or
    line end (CRLF included), so csv splits each line at its commas, and numpy and
    float() hand each cell to the same PyOS_string_to_double.  None when that does
    not hold, or when a cell is missing, unparsable or not finite, so the caller's
    loop names the cause.
    """
    head, _, body = data.partition(b"\n")
    if b'"' in head or b"\r" in head[:-1]:
        return None
    if b"\r" in body:
        if body.count(b"\r") != body.count(b"\r\n"):
            return None
        body = body.replace(b"\r\n", b"\n")
    if body.translate(None, _PLAIN):
        return None
    lines = body.split()  # the non-empty lines, the rows csv keeps
    del body  # the copy is freed before numpy parses the lines
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
