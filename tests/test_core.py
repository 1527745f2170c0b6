import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from fsp import core
from fsp import (
    DataError,
    Domain,
    DomainError,
    ExpressionModel,
    HolderParams,
    KernelSmoothModel,
    PersonalizedEstimator,
    PoolOracle,
    SampleSet,
    TableModel,
    VarianceField,
    derive_seed,
    load_csv,
    rng_stream,
)


def test_rng_stream_same_pair_identical():
    a = rng_stream(42, "retrieval").random(100)
    b = rng_stream(42, "retrieval").random(100)
    assert np.array_equal(a, b)


def test_rng_stream_label_changes_stream():
    a = rng_stream(42, "retrieval").random(100)
    b = rng_stream(42, "pilot").random(100)
    assert not np.array_equal(a, b)


def test_rng_stream_seed_changes_stream():
    a = rng_stream(42, "retrieval").random(100)
    b = rng_stream(43, "retrieval").random(100)
    assert not np.array_equal(a, b)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "x") == derive_seed(7, "x")
    assert derive_seed(7, "x") != derive_seed(7, "y")
    assert derive_seed(7, "x") != derive_seed(8, "x")


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain([0.0], [0.0])
    with pytest.raises(ValueError):
        Domain([0.0, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        Domain([], [])


def test_a_box_whose_volume_leaves_float64_is_rejected():
    with pytest.raises(ValueError, match="volume overflows float64"):
        Domain.cube(2, 0.0, 1e160)
    with pytest.raises(ValueError, match="volume underflows float64"):
        Domain.cube(2, 0.0, 1e-170)
    with pytest.raises(DataError, match="the points span no usable box: the box's volume overflows"):
        Domain.bounding(1e160 * rng_stream(0, "box").random((20, 2)))


def test_domain_geometry():
    d = Domain([-0.5, -0.5], [0.5, 0.5])
    assert d.dim == 2
    assert d.volume() == pytest.approx(1.0)
    assert d.min_edge() == pytest.approx(1.0)
    assert d.contains([0.5, 0.5])  # closed box
    assert not d.contains([0.5, 0.50001])
    with pytest.raises(DomainError):
        d.require([[0.0, 0.0], [0.6, 0.0]])


@pytest.mark.parametrize("x, width", [([[0.5]], 1), ([0.5], 1), ([[0.5, 0.5, 0.5]], 3)])
def test_domain_contains_refuses_points_of_another_width(x, width):
    # a one-column batch once broadcast against the 2-d box and read as inside it
    with pytest.raises(DomainError, match=rf"^point has dimension {width}, domain has 2$"):
        Domain.cube(2).contains(x)
    with pytest.raises(DomainError, match=rf"^query point has dimension {width}, domain has 2$"):
        Domain.cube(2).require(x, "query point")


def test_domain_uniform_and_grid():
    d = Domain.cube(2, 0.0, 2.0)
    pts = d.uniform(1000, rng_stream(0, "u"))
    assert pts.shape == (1000, 2)
    assert d.contains(pts).all()
    centers, cell = d.grid(4)
    assert centers.shape == (16, 2)
    assert cell == pytest.approx(4.0 / 16)
    assert centers.mean(axis=0) == pytest.approx([1.0, 1.0])


def test_quadrature_nodes_are_the_grid_up_to_four_dimensions_and_halton_above():
    from fsp.core import default_quadrature_points

    for dim in (1, 2, 4):
        d = Domain.cube(dim, -1.0, 3.0)
        assert np.array_equal(d.quadrature_nodes(), d.grid(default_quadrature_points(dim))[0])
        assert np.array_equal(d.quadrature_nodes(5), d.grid(5)[0])
    for dim in (5, 8, 10, 30):
        d = Domain(np.arange(dim) - 1.0, 2.0 * np.arange(dim) + 1.0)
        nodes = d.quadrature_nodes()
        assert nodes.shape == (4096, dim)
        assert np.array_equal(nodes, d.quadrature_nodes(64))  # a fixed node set
        assert d.contains(nodes).all()
        # the first coordinate is the base-2 van der Corput sequence 1/2, 1/4, 3/4, ...
        u = (nodes[:, 0] - d.lo[0]) / (d.hi[0] - d.lo[0])
        assert u[:4] == pytest.approx([0.5, 0.25, 0.75, 0.125])
        # equal weights average a linear function to its value at the center
        center = (np.asarray(d.lo) + np.asarray(d.hi)) / 2
        assert nodes.mean(axis=0) == pytest.approx(center, rel=0.01, abs=0.01)


def test_holder_params_validation_and_order():
    with pytest.raises(ValueError):
        HolderParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        HolderParams(1.0, 1.5)
    assert HolderParams(0.0, 0.0) < HolderParams(0.0, 0.5) < HolderParams(1.0, 0.0)


def test_sample_set_partitions():
    x = np.arange(10, dtype=float).reshape(5, 2)
    y = np.arange(5, dtype=float)
    ss = SampleSet(x, y, train_idx=[2, 3, 4], val_idx=[0, 1])
    assert len(ss) == 5
    assert np.array_equal(ss.train_y, [2.0, 3.0, 4.0])
    assert np.array_equal(ss.val_x, x[:2])
    with pytest.raises(ValueError):
        SampleSet(x, y, train_idx=[0, 1], val_idx=[1, 2])
    with pytest.raises(ValueError):
        SampleSet(x, y, train_idx=[5], val_idx=[])
    with pytest.raises(ValueError):
        ss.x[0, 0] = 99.0


def test_a_sample_set_without_partitions_has_empty_integer_ones():
    ss = SampleSet(np.zeros((4, 3)), np.zeros(4))
    assert ss.train_x.shape == ss.val_x.shape == (0, 3)  # float64 partitions raised IndexError
    assert ss.train_y.shape == (0,)
    assert ss.train_idx.dtype == ss.val_idx.dtype == np.intp
    ss = SampleSet(np.zeros((4, 1)), np.arange(4.0), train_idx=np.array([3.0, 1.0]), val_idx=[[2]])
    assert ss.train_idx.tolist() == [1, 3] and ss.val_idx.tolist() == [2]
    assert ss.train_y.tolist() == [1.0, 3.0]
    with pytest.raises(ValueError):
        ss.train_idx[0] = 0


_HOLDERS = {
    "sample set": SampleSet,
    "training samples": lambda x, y: PersonalizedEstimator(
        x, y, ExpressionModel("x1", 2), (0.5, 0.5), 0.3, Domain.cube(2), f_train=np.zeros(len(y))
    ),
    "pilot sample": lambda x, y: VarianceField(x, y, 0.3, Domain.cube(2)),
    "table model": TableModel,
    "kernel-smooth model": lambda x, y: KernelSmoothModel(x, y, 0.3),
    "pool": PoolOracle,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["point", "value"])
@pytest.mark.parametrize("holder", list(_HOLDERS))
def test_every_stored_sample_refuses_a_non_finite_row(holder, where, bad):
    x, y = rng_stream(3, "finite").random((6, 2)), np.arange(6.0)
    _HOLDERS[holder](x, y)
    if where == "point":
        x[4, 1] = bad
    else:
        y[4] = bad
    with pytest.raises(DataError, match=f"^{holder} must be finite; row 4 is "):
        _HOLDERS[holder](x, y)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("train, val, message", [
    ([2, 0, 2], [1], "train_idx contains duplicates"),
    ([0], [3, 1, 3], "val_idx contains duplicates"),
    ([0, 2], [3, 2], "must be disjoint"),
], ids=["train-duplicates", "val-duplicates", "overlap"])
def test_sample_set_rejects_repeated_indices(train, val, message):
    with pytest.raises(ValueError, match=message):
        SampleSet(np.zeros((4, 1)), np.zeros(4), train_idx=train, val_idx=val)


def test_load_csv_labeled(tmp_path):
    path = _write(tmp_path, "d.csv", "x1,x2,y\n0.1,0.2,1.0\n0.3,0.4,2.0\n0.5,0.6,3.0\n")
    ss = load_csv(path, ["x1", "x2"], response="y")
    assert len(ss) == 3
    assert np.array_equal(ss.y, [1.0, 2.0, 3.0])
    assert np.array_equal(ss.x[2], [0.5, 0.6])


def test_load_csv_pool_without_response(tmp_path):
    path = _write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
    pool = load_csv(path, ["b", "a"])
    assert pool.shape == (2, 2)
    assert np.array_equal(pool[0], [2.0, 1.0])  # column order follows the request


def test_load_csv_header_only(tmp_path):
    path = _write(tmp_path, "d.csv", "x1,y\n")
    with pytest.raises(DataError, match="empty data"):
        load_csv(path, ["x1"], response="y")


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "d.csv", "x1,y\n0.5,1\nabc,2\n")
    with pytest.raises(DataError, match=r"row 2, column 'x1'"):
        load_csv(path, ["x1"], response="y")


def test_load_csv_names_the_first_bad_cell_in_row_order(tmp_path):
    # every covariate cell was once checked before any response cell
    path = _write(tmp_path, "d.csv", "x1,y\n0.5,abc\nxyz,2\n")
    with pytest.raises(DataError, match=r"row 1, column 'y'"):
        load_csv(path, ["x1"], response="y")


@pytest.mark.parametrize("text, row, column", [
    ("x1,y\n0.5,1\n0.25,nan\n", 2, "y"),
    ("x1,y\n0.5,1\ninf,2\n", 2, "x1"),
    ("x1,y\n-Infinity,1\n0.25,2\n", 1, "x1"),
], ids=["nan-response", "inf-covariate", "negative-infinity"])
def test_load_csv_non_finite_cell_names_row_column_and_file(tmp_path, text, row, column):
    path = _write(tmp_path, "d.csv", text)
    with pytest.raises(DataError, match=rf"row {row}, column '{column}' of .*d\.csv"):
        load_csv(path, ["x1"], response="y")


@pytest.mark.parametrize("cell", ["1" * (csv.field_size_limit() + 1),
                                  '"' + "a" * csv.field_size_limit() + 'b"'], ids=["plain-digits", "quoted"])
def test_load_csv_names_the_file_and_line_of_a_cell_beyond_the_field_limit(tmp_path, cell):
    # csv.Error once escaped, so the command exited 1 naming no file
    path = _write(tmp_path, "d.csv", f"x1,y\n0.5,1\n{cell},2\n")
    message = rf"^line 3 of .*d\.csv: field larger than field limit \({csv.field_size_limit()}\)$"
    with pytest.raises(DataError, match=message):
        load_csv(path, ["x1"], response="y")


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "d.csv", "x1,y\n0.5,1\n")
    with pytest.raises(DataError, match="missing column 'x9'"):
        load_csv(path, ["x9"], response="y")


def test_load_csv_accepts_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the header with U+FEFF
    path = _write(tmp_path, "bom.csv", "﻿x1,x2,y\n0.1,0.2,1.0\n")
    ss = load_csv(path, ["x1", "x2"], response="y")
    assert np.array_equal(ss.x, [[0.1, 0.2]]) and np.array_equal(ss.y, [1.0])


def test_load_csv_holds_a_large_plain_file_about_once(tmp_path):
    # a 20,000-row pool of repr floats, 1.16 MB, as a pool fit reads it
    rng = rng_stream(34, "csv-memory")
    rows = np.column_stack([rng.random((20_000, 2)), rng.normal(size=20_000)])
    text = "x1,x2,y\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows.tolist())
    path = _write(tmp_path, "pool.csv", text)
    load_csv(path, ["x1", "x2"], response="y")  # one-time allocations
    tracemalloc.start()
    try:
        ss = load_csv(path, ["x1", "x2"], response="y")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ss.x, rows[:, :2]) and np.array_equal(ss.y, rows[:, 2])
    # the file's bytes, one copy of its body and its lines as bytes objects take
    # about 3.7 times the file; the text, a StringIO copy at four bytes a
    # character, the body and its encoding and the lines as str took 8.5 times
    assert peak <= 5 * len(text), peak / len(text)


def test_load_csv_rejects_a_requested_column_named_twice_in_the_header(tmp_path):
    path = _write(tmp_path, "dup.csv", "x1,x1,y\n0.1,0.2,1.0\n")
    with pytest.raises(DataError, match=r"column 'x1' appears 2 times in .*dup\.csv"):
        load_csv(path, ["x1"], response="y")


def test_load_csv_allows_duplicates_among_columns_nobody_asked_for(tmp_path):
    path = _write(tmp_path, "d.csv", "note,x1,note,y\n7,0.1,8,1.0\n")
    ss = load_csv(path, ["x1"], response="y")
    assert np.array_equal(ss.x, [[0.1]]) and np.array_equal(ss.y, [1.0])


# name: (file text, covariates, response, allow_empty, whether numpy's parse is kept)
CSV_FORMATS = {
    "plain": ("x1,x2,y\n0.5,-1e-3,2\n+.25,3.,1E+2\n", ["x1", "x2"], "y", False, True),
    "quoted-cells": ('x1,x2,y\n"0.5",0.25,"1.0"\n"1,5",2,3\n', ["x1"], "y", False, False),
    "quoted-header": ('"x1",y\n0.5,1\n', ["x1"], "y", False, False),
    "hash-cell": ("x1,y\n#,1\n", ["x1"], "y", False, False),
    "hash-in-an-unread-column": ("x1,note,y\n0.5,#,1\n", ["x1"], "y", False, False),
    "underscore-digits": ("x1,y\n1_000,2\n", ["x1"], "y", False, False),
    "crlf": ("x1,y\r\n0.5,1\r\n0.25,2\r\n", ["x1"], "y", False, True),
    "bare-cr": ("x1,y\r0.5,1\r0.25,2\r", ["x1"], "y", False, False),
    "bare-cr-after-the-header": ("x1,y\n0.5,1\r0.25,2\n", ["x1"], "y", False, False),
    "no-final-newline": ("x1,y\n0.5,1\n0.25,2", ["x1"], "y", False, True),
    "blank-lines": ("x1,y\n\n0.5,1\n\n\n0.25,2\n\n", ["x1"], "y", False, True),
    "whitespace-only-line": ("x1,y\n0.5,1\n  \n0.25,2\n", ["x1"], "y", False, False),
    "padded-cells": ("x1,y\n 0.5 ,\t1\n", ["x1"], "y", False, False),
    "short-row": ("x1,x2,y\n0.5,1,2\n0.25\n", ["x1", "x2"], "y", False, False),
    "long-row": ("x1,y\n0.5,1,7,8\n0.25,2\n", ["x1"], "y", False, True),
    "empty-cell": ("x1,y\n0.5,\n", ["x1"], "y", False, False),
    "nan": ("x1,y\n0.5,nan\n", ["x1"], "y", False, False),
    "inf": ("x1,y\ninf,1\n", ["x1"], "y", False, False),
    "negative-infinity": ("x1,y\n-Infinity,1\n", ["x1"], "y", False, False),
    "overflowing-exponent": ("x1,y\n1e999,1\n", ["x1"], "y", False, False),
    "header-only-allowed": ("x1,x2\n", ["x1", "x2"], None, True, True),
    "header-only": ("x1,y\n", ["x1"], "y", False, True),
    "header-only-crlf-allowed": ("x1,y\r\n\r\n", ["x1"], None, True, True),
    "byte-order-mark": ("﻿x1,y\n0.5,1\n", ["x1"], "y", False, True),
    "full-width-digits": ("x1,y\n１.５,２\n", ["x1"], "y", False, False),
    "column-order": ("b,a\n1,2\n3,4\n", ["a", "b"], None, False, True),
    "no-covariates": ("x1,y\n1,2\n", [], None, False, True),
    "response-only": ("x1,y\n1,2\n", [], "y", False, True),
}


def _csv_outcome(path, covariates, response, allow_empty):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = load_csv(path, covariates, response, allow_empty)
        except DataError as exc:
            return str(exc)
    if response is None:
        return out.shape, out.tolist(), out.flags.writeable
    return out.x.shape, out.x.tolist(), out.y.tolist()


@pytest.mark.parametrize("name", list(CSV_FORMATS))
def test_load_csv_reads_each_format_as_its_loop_does(tmp_path, monkeypatch, name):
    text, covariates, response, allow_empty, numeric = CSV_FORMATS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = _csv_outcome(path, covariates, response, allow_empty)
    text = text.lstrip("\ufeff")
    header = [c.strip() for c in next(csv.reader(io.StringIO(text, newline="")))]
    columns = [header.index(c) for c in covariates + [response] if c in header]
    assert (core._plain_numbers(text.encode("utf-8"), columns) is not None) == numeric
    monkeypatch.setattr(core, "_plain_numbers", lambda text, columns: None)  # the loop alone
    assert fast == _csv_outcome(path, covariates, response, allow_empty)


def test_load_csv_reads_random_numeric_files_as_its_loop_does(tmp_path, monkeypatch):
    rng = rng_stream(31, "csv-formats")
    alphabet = list("0123456789.eE+-")

    def cell():
        kind = rng.random()
        if kind < 0.03:  # anything the alphabet spells, often no number
            return "".join(rng.choice(alphabet, int(rng.integers(0, 5))))
        value = float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6))
        return repr(value) if kind < 0.6 else f"{value:+.3e}" if kind < 0.8 else str(int(value))

    texts = []
    for _ in range(300):
        lines = ["x1,x2,y"] + [
            ",".join(cell() for _ in range(3 + (rng.random() < 0.3) - (rng.random() < 0.03)))
            if rng.random() < 0.95 else ""
            for _ in range(int(rng.integers(0, 6)))
        ]
        end = "\r\n" if rng.random() < 0.3 else "\n"
        texts.append(end.join(lines) + (end if rng.random() < 0.7 else ""))
    outcomes = []
    for loop in (False, True):
        if loop:
            monkeypatch.setattr(core, "_plain_numbers", lambda text, columns: None)
        for k, text in enumerate(texts):
            path = tmp_path / f"r{k}.csv"
            path.write_text(text, encoding="utf-8", newline="")
            outcomes.append(_csv_outcome(path, ["x1", "x2"], "y", True))
    fast, slow = outcomes[: len(texts)], outcomes[len(texts) :]
    assert fast == slow
    assert sum(not isinstance(o, str) and o[0][0] > 0 for o in fast) > 50  # many files have rows
