import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fsp import (
    BernoulliNoise,
    BudgetError,
    ConfigError,
    DataError,
    Domain,
    ExpressionModel,
    ExternalProcessModel,
    FunctionModel,
    GaussianNoise,
    KernelSmoothModel,
    PoolOracle,
    QueryError,
    SyntheticOracle,
    TableModel,
    model_from_spec,
    rng_stream,
)
from fsp.simulation import MemoizedNoiseModel

ECHO_SCRIPT = """\
import sys
sys.stdin.readline()  # DIM line
sys.stdout.write("OK\\n")
sys.stdout.flush()
for line in sys.stdin:
    if line.strip() == "":
        continue
    sys.stdout.write("1.5\\n")
    sys.stdout.flush()
"""

SUM_SCRIPT = """\
import sys
dim = int(sys.stdin.readline().split()[1])
sys.stdout.write("OK\\n")
sys.stdout.flush()
for line in sys.stdin:
    if line.strip() == "":
        continue
    vals = [float(t) for t in line.split(",")]
    sys.stdout.write(repr(sum(vals)) + "\\n")
    sys.stdout.flush()
"""


def test_constant_expression_model():
    m = ExpressionModel("0", dim=2)
    xs = rng_stream(0, "q").random((20, 2))
    assert np.array_equal(m.predict_batch(xs), np.zeros(20))


def test_expression_model_arithmetic():
    m = ExpressionModel("abs(x1) + sqrt(abs(x2 + 0.3))", dim=2)
    assert m.predict(np.array([-0.5, 0.2])) == pytest.approx(0.5 + 0.5**0.5)


def test_expression_model_rejects_unknown_names():
    with pytest.raises(ConfigError):
        ExpressionModel("__import__('os')", dim=1)
    with pytest.raises(ConfigError):
        ExpressionModel("open('x')", dim=1)


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_expression_model_non_finite_raises():
    m = ExpressionModel("log(x1)", dim=1)
    with pytest.raises(QueryError):
        m.predict_batch(np.array([[0.0]]))


def test_table_model_exact_and_nearest():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    values = np.array([10.0, 20.0, 30.0])
    m = TableModel(points, values)
    assert m.predict([1.0, 0.0]) == 20.0  # stored point
    assert m.predict([0.9, 0.1]) == 20.0  # nearest neighbor
    # equidistant from all three points: lowest index wins
    assert m.predict([0.5, 0.5]) == 10.0


def test_predict_batch_matches_scalar_predict():
    xs = rng_stream(3, "pts").random((15, 2))
    models = [
        ExpressionModel("x1 * x2 - 0.5", 2),
        TableModel(xs[:5], np.arange(5.0)),
        KernelSmoothModel(xs[:10], np.arange(10.0), 0.4),
        FunctionModel(lambda a: a[:, 0] + a[:, 1] ** 2),
    ]
    for m in models:
        batch = m.predict_batch(xs)
        scalar = np.array([m.predict(x) for x in xs])
        assert np.array_equal(batch, scalar), type(m).__name__


def test_kernel_smooth_model_window_mean():
    pts = np.array([[0.0], [0.1], [0.9]])
    vals = np.array([1.0, 3.0, 100.0])
    m = KernelSmoothModel(pts, vals, bandwidth=0.2)
    assert m.predict([0.05]) == pytest.approx(2.0)
    assert m.predict([0.5]) == 0.0  # empty window -> hard zero via the guard


def test_a_stored_model_sample_with_a_non_finite_point_or_value_is_refused():
    # unchecked, the NaN point won every nearest-neighbour argmin (the table answered
    # [3, 3] at its own points), and a kernel-smooth window silently dropped it
    with pytest.raises(DataError, match=r"^table model must be finite; row 2 is \[nan, 0.5\] with value 3.0$"):
        TableModel([[0, 0], [1, 1], [np.nan, 0.5]], [1, 2, 3])
    with pytest.raises(DataError, match=r"^table model must be finite; row 1 is \[1.0, 1.0\] with value inf$"):
        TableModel([[0, 0], [1, 1]], [1, np.inf])
    with pytest.raises(DataError, match=r"^kernel-smooth model must be finite; row 1 "):
        KernelSmoothModel([[0.1, 0.1], [np.nan, 0.2], [0.3, 0.3]], [1, 2, 3], 0.5)


def test_a_large_table_answers_in_small_distance_blocks():
    rng = rng_stream(5, "big-table")
    points, values = rng.random((20_000, 2)), rng.normal(size=20_000)
    table, xs = TableModel(points, values), rng.random((1_500, 2))
    tracemalloc.start()
    try:
        got = table.predict_batch(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # 16 MB distance blocks traced a 32 MB peak here
    # the same bits as whole-table distances, summed over the coordinates in order
    for rows in (slice(0, 50), slice(700, 750), slice(1_450, 1_500)):
        d2 = (xs[rows, None, 0] - points[:, 0]) ** 2 + (xs[rows, None, 1] - points[:, 1]) ** 2
        assert np.array_equal(got[rows], values[np.argmin(d2, axis=1)])


def _external(tmp_path, script, dim):
    path = tmp_path / "stub.py"
    path.write_text(script, encoding="utf-8")
    return ExternalProcessModel([sys.executable, str(path)], dim=dim, timeout=10)


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("kind", ["expression", "table", "kernel-smooth", "external"])
def test_query_width_must_match_the_model(tmp_path, kind, width):
    # unchecked, an in-process backend drops a third column, matches on one axis
    # or raises a bare IndexError
    points = rng_stream(4, "width").random((6, 2))
    model = {
        "expression": lambda: ExpressionModel("x1", 2),
        "table": lambda: TableModel(points, np.arange(6.0)),
        "kernel-smooth": lambda: KernelSmoothModel(points, np.arange(6.0), 0.5),
        "external": lambda: _external(tmp_path, ECHO_SCRIPT, 2),  # checked before any spawn
    }[kind]()
    try:
        with pytest.raises(QueryError, match=f"query dimension {width} != declared 2"):
            model.predict_batch(np.full((4, width), 0.25))
        with pytest.raises(QueryError, match=f"query dimension {width} != declared 2"):
            model.predict(np.full(width, 0.25))
    finally:
        model.close()


def test_external_echo_protocol(tmp_path):
    with _external(tmp_path, ECHO_SCRIPT, 2) as m:
        out = m.predict_batch(np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, [1.5, 1.5, 1.5])


def test_external_sum_round_trip(tmp_path):
    with _external(tmp_path, SUM_SCRIPT, 3) as m:
        xs = rng_stream(1, "ext").random((7, 3))
        out = m.predict_batch(xs)
        assert out == pytest.approx(xs.sum(axis=1))
        again = m.predict_batch(xs)
        assert np.array_equal(out, again)


def test_external_large_batch_finishes(tmp_path):
    # a child that answers line by line fills its output pipe long before
    # it has read a request this size
    xs = rng_stream(2, "ext").random((50_000, 2))
    m = _external(tmp_path, SUM_SCRIPT, 2)
    m.start()
    result = {}
    worker = threading.Thread(target=lambda: result.update(out=m.predict_batch(xs)))
    worker.start()
    worker.join(60)
    hung = worker.is_alive()
    if hung:
        m._proc.kill()  # breaks the pipe, so the blocked writer returns
        worker.join(10)
    m.close()
    assert not hung
    assert result["out"] == pytest.approx(xs.sum(axis=1))


def test_external_handshake_failure(tmp_path):
    bad = "import sys\nsys.stdin.readline()\nsys.stdout.write('NOPE\\n')\nsys.stdout.flush()\n"
    m = _external(tmp_path, bad, 1)
    with pytest.raises(QueryError, match="handshake"):
        m.start()
    m.close()


def test_a_with_block_whose_handshake_fails_closes_its_child(tmp_path):
    # no __exit__ follows a failed __enter__: the child ran on until the model was collected
    bad = "import sys\nsys.stdin.readline()\nprint('NOPE', flush=True)\nsys.stdin.read()\n"
    m = _external(tmp_path, bad, 1)
    with pytest.raises(QueryError, match="handshake"):
        with m:
            pass
    assert m._proc is None


def test_external_malformed_reply(tmp_path):
    bad = ECHO_SCRIPT.replace("1.5", "not-a-number")
    with _external(tmp_path, bad, 1) as m:
        with pytest.raises(QueryError, match="not-a-number"):
            m.predict_batch(np.array([[0.0]]))


TRICKLE_SCRIPT = """\
import sys, time
unit, pause = sys.argv[1], float(sys.argv[2])  # reply pieces: "byte" or "line"
sys.stdin.readline()  # DIM line
sys.stdout.write("OK\\n")
sys.stdout.flush()
rows = 0
for line in sys.stdin:
    if line.strip():
        rows += 1
        continue
    reply = "1.0\\n" * rows
    for piece in reply if unit == "byte" else reply.splitlines(keepends=True):
        time.sleep(pause)
        sys.stdout.write(piece)
        sys.stdout.flush()
    rows = 0
"""


def _trickling(tmp_path, unit, pause):
    script = tmp_path / "trickle.py"
    script.write_text(TRICKLE_SCRIPT, encoding="utf-8")
    return ExternalProcessModel([sys.executable, str(script), unit, str(pause)], dim=2, timeout=0.5)


def test_a_trickled_reply_times_out_within_its_bound(tmp_path):
    # one byte every 0.15 s: every wait is shorter than the timeout, but no reply
    # line completes within it, so the batch fails well inside (5 + 1) * 0.5 s
    with _trickling(tmp_path, "byte", 0.15) as model:
        model.start()
        began = time.monotonic()
        with pytest.raises(QueryError, match="timed out \\(stage: response\\)"):
            model.predict_batch(np.zeros((5, 2)))
        assert time.monotonic() - began < 3.0


def test_a_slow_reply_finishes_while_each_line_keeps_its_bound(tmp_path):
    # 10 lines 0.3 s apart: 3 s in all, six times the timeout, but each line
    # completes within it
    with _trickling(tmp_path, "line", 0.3) as model:
        assert np.array_equal(model.predict_batch(np.zeros((10, 2))), np.ones(10))


RECORD_SCRIPT = """\
import sys
log, replies = open(sys.argv[1], "w"), iter(sys.argv[2].split("|"))
sys.stdin.readline()  # DIM line
sys.stdout.write("OK\\n")
sys.stdout.flush()
for line in sys.stdin:
    if line.strip() == "":
        continue
    log.write(line)
    log.flush()
    sys.stdout.write(next(replies) + "\\n")
    sys.stdout.flush()
"""


def _recording(tmp_path, replies):
    script = tmp_path / "record.py"
    script.write_text(RECORD_SCRIPT, encoding="utf-8")
    log = tmp_path / "requests.txt"
    argv = [sys.executable, str(script), str(log), "|".join(replies)]
    return ExternalProcessModel(argv, dim=2, timeout=10), log


def test_external_requests_are_float_reprs_and_replies_parse_as_float_does(tmp_path):
    xs = np.array([[0.1, -0.0], [1e-300, 2.5], [np.pi, 1e20]])
    replies = [" 2.5 ", "1_0", "\t-3e2"]
    model, log = _recording(tmp_path, replies)
    with model:
        out = model.predict_batch(xs)
    assert np.array_equal(out, [float(r) for r in replies])
    expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in xs)
    assert log.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("replies, message", [
    (["1", "oops", "2"], "malformed reply line 'oops'"),
    (["1", "nan", "2"], "non-finite value at position 1"),
], ids=["malformed", "nan"])
def test_external_bad_reply_is_named(tmp_path, replies, message):
    model, _ = _recording(tmp_path, replies)
    with model:
        with pytest.raises(QueryError, match=message):
            model.predict_batch(np.zeros((3, 2)))


# the first query's reply, then no more output: stdout closes, and the child stays alive
# until its input closes
HALF_REPLY_SCRIPT = """\
import os, sys
sys.stdin.readline()  # DIM line
sys.stdout.write("OK\\n")
sys.stdout.flush()
sys.stdin.readline()
sys.stdout.write("1.5\\n")
sys.stdout.flush()
os.close(1)
sys.stdin.read()
"""

# one batch answered, then the child exits
ONE_BATCH_SCRIPT = """\
import sys
sys.stdin.readline()  # DIM line
sys.stdout.write("OK\\n")
sys.stdout.flush()
for line in sys.stdin:
    if line.strip() == "":
        break
    sys.stdout.write("1.5\\n")
    sys.stdout.flush()
"""


def test_a_child_that_closes_its_output_mid_reply_is_named_and_reaped(tmp_path):
    with _external(tmp_path, HALF_REPLY_SCRIPT, 1) as m:
        with pytest.raises(QueryError, match=r"^model process closed its output \(stage: response\)$"):
            m.predict_batch(np.zeros((3, 1)))
        child = m._proc
    assert child.poll() is not None


def test_a_child_that_exits_between_batches_is_named_and_reaped(tmp_path):
    with _external(tmp_path, ONE_BATCH_SCRIPT, 1) as m:
        assert np.array_equal(m.predict_batch(np.zeros((2, 1))), [1.5, 1.5])
        child = m._proc
        child.wait(timeout=10)
        with pytest.raises(QueryError, match=r"^model process exited \(stage: session\)$"):
            m.predict_batch(np.zeros((2, 1)))
    assert child.poll() is not None and m._proc is None


# echoes each query; writes one line too many after its handshake or after its first
# reply, in the same write as it or in one of its own a moment later
EXTRA_LINE_SCRIPT = """\
import sys, time
after = sys.argv[1]
sys.stdin.readline()  # DIM line
sys.stdout.write("OK\\n999.0\\n" if after == "OK" else "OK\\n")
sys.stdout.flush()
reply, batches = "", 0
for line in sys.stdin:
    if line.strip():
        reply += line
        continue
    batches += 1
    if batches == 1 and after == "reply":
        reply += "999.0\\n"
    sys.stdout.write(reply)
    sys.stdout.flush()
    if batches == 1 and after == "late":
        time.sleep(0.1)
        sys.stdout.write("999.0\\n")
        sys.stdout.flush()
    reply = ""
"""


@pytest.mark.parametrize("after, stage", [("OK", "handshake"), ("reply", "response"), ("late", "response")])
def test_a_child_that_writes_an_extra_line_fails_the_batch(tmp_path, after, stage):
    # kept for the next batch, the extra line shifted its replies: [[0.2], [0.3]]
    # returned [999.0, 0.2]
    script = tmp_path / "extra.py"
    script.write_text(EXTRA_LINE_SCRIPT, encoding="utf-8")
    with pytest.raises(QueryError, match=rf"^model process wrote past its reply \(stage: {stage}\)$"), \
            ExternalProcessModel([sys.executable, str(script), after], dim=1, timeout=10) as m:
        for batch in ([[0.1]], [[0.2], [0.3]]):
            m.predict_batch(batch)
            time.sleep(0.5)  # the late line is waiting when the next batch starts


def test_model_spec_round_trip(tmp_path):
    m = TableModel([[0.0], [1.0]], [5.0, 6.0])
    m2 = model_from_spec(m.spec())
    assert m2.predict([0.9]) == 6.0
    e = ExpressionModel("x1 + 1", 1)
    assert model_from_spec(e.spec()).predict([1.0]) == 2.0
    k = KernelSmoothModel([[0.0], [0.5], [1.0]], [1.0, 2.0, 4.0], bandwidth=0.3)
    spec = k.spec()
    assert spec == {"kind": "kernel-smooth", "points": [[0.0], [0.5], [1.0]],
                    "values": [1.0, 2.0, 4.0], "bandwidth": 0.3}
    xs = np.array([[0.1], [0.6], [0.9]])
    assert np.array_equal(model_from_spec(spec).predict_batch(xs), k.predict_batch(xs))
    with _external(tmp_path, SUM_SCRIPT, 2) as x:
        spec = x.spec()
        assert spec == {"kind": "external", "argv": x.argv, "dim": 2}
        assert spec["argv"] is not x.argv  # a copy: editing the spec leaves the backend alone
        with model_from_spec(spec) as y:
            assert y.predict([1.0, 2.5]) == x.predict([1.0, 2.5]) == 3.5
    for model in (FunctionModel(lambda xs: xs[:, 0]), MemoizedNoiseModel(rng_stream(0, "m"))):
        with pytest.raises(ConfigError, match="cannot be serialized"):
            model.spec()


def test_gaussian_noise_law():
    noise = GaussianNoise(sigma="2*x1", dim=1)
    xs = np.full((20000, 1), 0.5)
    f = np.zeros(20000)
    y = noise.sample(f, xs, rng_stream(0, "noise"))
    assert y.std() == pytest.approx(1.0, abs=0.02)  # sigma(0.5) = 1
    assert abs(y.mean()) < 0.03


def test_non_finite_sigma_is_rejected_before_any_label():
    oracle = SyntheticOracle(lambda xs: xs[:, 0], GaussianNoise(lambda xs: np.sqrt(xs[:, 0] - 0.5)),
                             Domain.cube(1))
    with np.errstate(invalid="ignore"):  # sqrt of a negative number is NaN
        with pytest.raises(ValueError, match="sigma\\(x\\) must be finite and nonnegative"):
            oracle.label(np.array([[0.25], [0.75]]), rng_stream(0, "o"))
    assert oracle.labels_issued == 0
    for sigma in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            GaussianNoise(sigma)


def test_bernoulli_noise_values():
    noise = BernoulliNoise()
    f = np.full(5000, 0.25)
    y = noise.sample(f, None, rng_stream(0, "b"))
    assert set(np.unique(y)) <= {0.0, 1.0}
    assert y.mean() == pytest.approx(0.25, abs=0.03)
    with pytest.raises(ValueError):
        noise.sample(np.array([1.5]), None, rng_stream(0, "b"))


def test_synthetic_oracle_counts_and_domain():
    d = Domain.cube(1)
    oracle = SyntheticOracle(lambda xs: xs[:, 0], GaussianNoise(0.0), d)
    y = oracle.label(np.array([[0.25], [0.75]]), rng_stream(0, "o"))
    assert y == pytest.approx([0.25, 0.75])
    assert oracle.labels_issued == 2
    with pytest.raises(Exception):
        oracle.label(np.array([[2.0]]), rng_stream(0, "o"))


def test_pool_oracle_single_use():
    pool = PoolOracle(np.arange(6, dtype=float).reshape(3, 2), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(pool.label_indices([0, 2]), [1.0, 3.0])
    assert pool.labels_issued == 2
    assert pool.remaining == 1
    with pytest.raises(BudgetError):
        pool.label_indices([2])
    with pytest.raises(BudgetError):
        pool.label_indices([1, 1])


def test_pool_oracle_names_unsorted_duplicate_indices():
    pool = PoolOracle(np.arange(6, dtype=float).reshape(3, 2), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(BudgetError, match="more than once"):
        pool.label_indices([2, 0, 2])
    assert pool.labels_issued == 0
