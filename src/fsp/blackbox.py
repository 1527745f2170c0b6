"""Black-box predictor backends and label oracles.

A black-box model is anything with `predict` / `predict_batch`; it must be
deterministic within a session and finite on the covariate domain.
Backends: safe arithmetic expressions, lookup tables with nearest-neighbor
fallback, box-kernel smoothers over a stored sample, plain Python
callables, and external child processes speaking a line protocol.
"""

import copy
import os
import select
import subprocess
import threading
import time
import types

import numpy as np

from .core import (
    BudgetError, ConfigError, DomainError, HolderParams, QueryError, covariate_names, frozen_sample,
    json_scalar, required,
)
from .estimator import _squared_distances, row_blocks, window_biases

__all__ = [
    "BlackBoxModel",
    "FunctionModel",
    "ExpressionModel",
    "TableModel",
    "KernelSmoothModel",
    "ExternalProcessModel",
    "compile_expression",
    "model_from_spec",
    "GaussianNoise",
    "BernoulliNoise",
    "SyntheticOracle",
    "ExternalOracle",
    "PoolOracle",
]


def _finite_or_raise(values, context):
    values = np.asarray(values, float)
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise QueryError(f"{context} returned a non-finite value at position {i}")
    return values


def _queries(xs, dim):
    """xs as an (m, dim) float array; QueryError naming both widths for any other width."""
    xs = np.atleast_2d(np.asarray(xs, float))
    if xs.shape[1] != dim:
        raise QueryError(f"query dimension {xs.shape[1]} != declared {dim}")
    return xs


class BlackBoxModel:
    """Query-only predictor f: X -> R; a context manager that starts and closes it."""

    kind = None  # the spec kind of a serializable backend
    fields = ()  # the attributes that rebuild it, in constructor order

    def predict(self, x):
        x = np.atleast_1d(np.asarray(x, float))
        return float(self.predict_batch(x[None, :])[0])

    def predict_batch(self, xs):
        raise NotImplementedError

    def spec(self):
        """The dictionary model_from_spec rebuilds this backend from."""
        if self.kind is None:
            raise ConfigError(f"{type(self).__name__} cannot be serialized")
        out = {"kind": self.kind}
        for name in self.fields:
            value = getattr(self, name)  # arrays are written as nested lists, lists as copies
            out[name] = value.tolist() if isinstance(value, np.ndarray) else copy.copy(value)
        return out

    def launch(self):
        """Begin starting the backend without waiting for it; start() completes it."""

    def start(self):
        pass

    def close(self):
        pass

    def __enter__(self):
        try:
            self.start()
        except BaseException:  # no __exit__ follows: close what start() left open
            self.close()
            raise
        return self

    def __exit__(self, *exc_info):
        self.close()


class FunctionModel(BlackBoxModel):
    """Wrap a Python callable operating on an (m, d) array."""

    def __init__(self, fn):
        self._fn = fn

    def predict_batch(self, xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        out = np.asarray(self._fn(xs), float)
        out = np.broadcast_to(out, (xs.shape[0],)).copy()
        return _finite_or_raise(out, "function model")


_EXPR_NAMESPACE = {
    "abs": np.abs,
    "sign": np.sign,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "clip": np.clip,
    "where": np.where,
    "pi": np.pi,
    "e": np.e,
}


def compile_expression(expr, dim):
    """Compile an arithmetic expression of x1..xd into a batch callable.

    Only the whitelisted numpy helpers and the coordinate names are
    visible; anything else is rejected up front.
    """
    try:
        code = compile(str(expr), "<expression>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from None
    names = covariate_names(dim)
    allowed = set(_EXPR_NAMESPACE) | set(names)
    unknown = set(code.co_names) - allowed
    if unknown:
        raise ConfigError(f"expression uses unknown names {sorted(unknown)}")
    if any(isinstance(const, types.CodeType) for const in code.co_consts):
        raise ConfigError("expression must be a plain arithmetic formula")

    def fn(xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        env = dict(_EXPR_NAMESPACE)
        env.update({name: xs[:, j] for j, name in enumerate(names)})
        # a value outside a helper's domain becomes nan or inf, which the callers'
        # finite checks reject with a message; numpy's warning would only add noise
        with np.errstate(all="ignore"):
            value = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(value, float), (xs.shape[0],)).copy()

    return fn


class ExpressionModel(BlackBoxModel):
    """Builtin backend defined by an arithmetic expression of x1..xd."""

    kind, fields = "expression", ("expr", "dim")

    def __init__(self, expr, dim):
        self.expr = str(expr)
        self.dim = int(dim)
        self._fn = compile_expression(expr, dim)

    def predict_batch(self, xs):
        xs = _queries(xs, self.dim)
        return _finite_or_raise(self._fn(xs), f"expression {self.expr!r}")


class TableModel(BlackBoxModel):
    """Lookup table with nearest-neighbor fallback for off-grid queries.

    Ties (equal Euclidean distance) resolve to the lowest stored index, so
    a query at a stored point always returns its stored value.
    """

    kind, fields = "table", ("points", "values")

    def __init__(self, points, values):
        self.points, self.values = frozen_sample(points, values, "table model")
        if self.points.shape[0] < 1:
            raise ValueError("table needs at least one stored point")

    def predict_batch(self, xs):
        xs = _queries(xs, self.points.shape[1])
        out = np.empty(xs.shape[0])
        # 1 MB distance blocks, for the reasons VarianceField.variance_batch gives
        # (a core's L2 cache and glibc's mmap threshold)
        for rows in row_blocks(xs.shape[0], 16 * self.points.shape[0]):
            # squared: a sqrt could merge near-ties and move the lowest-index winner
            d2 = _squared_distances(xs[rows], self.points)
            out[rows] = self.values[np.argmin(d2, axis=1)]
        return out


class KernelSmoothModel(BlackBoxModel):
    """Box-kernel local mean over a stored sample.

    Windows use the sup-norm with radius `bandwidth`; an empty window
    yields 0 through the max(1, count) guard, so the model is total.  The
    mean is the target-only bias estimate (theta = (0, 0) over a zero
    model) of window_biases, so a query's value depends on its own window
    alone, never on the batch around it.
    """

    kind, fields = "kernel-smooth", ("points", "values", "bandwidth")

    def __init__(self, points, values, bandwidth):
        self.points, self.values = frozen_sample(points, values, "kernel-smooth model")
        self.bandwidth = json_scalar(bandwidth, float, "bandwidth", "a positive number", lambda v: v > 0)

    def predict_batch(self, xs):
        xs = _queries(xs, self.points.shape[1])
        pair = (HolderParams(0.0, 0.0), self.bandwidth)
        zeros = np.zeros(len(self.values))
        out = window_biases(self.points, self.values, zeros, xs, np.zeros(len(xs)), [pair])[0]
        return _finite_or_raise(out, "kernel-smooth model")


_START_TIMEOUT = 10.0  # seconds a child has to answer its handshake


class ExternalProcessModel(BlackBoxModel):
    """Child process queried over standard streams.

    Protocol: on startup we send "DIM <d>" and expect "OK".  Each batch is
    one line per query (d comma-separated decimals) terminated by a blank
    line; the reply is one decimal per line, order preserved.  Access is
    serialized: one in-flight batch at a time.  Requests are written while
    replies are read, so a child that answers line by line never blocks on
    a full output pipe.  A batch has `timeout` seconds to finish its request
    and to complete each reply line, counted from the last of these, so a
    batch of k queries ends within (k + 1) * `timeout`.

    launch() spawns the child and leaves the handshake to start() or the first
    batch, so the caller's work in between overlaps the child's start-up.
    """

    kind, fields = "external", ("argv", "dim")

    def __init__(self, argv, dim, timeout=30.0):
        if isinstance(argv, str):
            argv = [argv]
        self.argv = [str(a) for a in argv]
        self.dim = int(dim)
        self.timeout = float(timeout)
        self._proc = None
        self._ready = False  # whether the child answered its handshake
        self._lock = threading.Lock()

    def launch(self):
        with self._lock:
            if self._proc is None:
                self._spawn()

    def start(self):
        with self._lock:
            self._ensure_started()

    def _spawn(self):
        try:
            self._proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                bufsize=0,
            )
        except OSError as exc:
            raise QueryError(f"cannot start model process (stage: spawn): {exc}") from None
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._ready = False

    def _ensure_started(self):
        if self._proc is None:
            self._spawn()
        elif self._ready:
            if self._proc.poll() is not None:
                raise QueryError("model process exited (stage: session)")
            return
        (reply,) = self._exchange(f"DIM {self.dim}\n", 1, _START_TIMEOUT, "handshake")
        if reply.strip() != "OK":
            raise QueryError(f"handshake failed (stage: handshake): expected OK, got {reply!r}")
        self._ready = True

    def _exchange(self, text, n_lines, timeout, stage):
        """Write `text` and read `n_lines` reply lines, whichever pipe is ready first.
        Output waiting before the request or left after the reply raises QueryError."""
        request = memoryview(text.encode("utf-8"))
        stdin = self._proc.stdin.fileno()
        stdout = self._proc.stdout.fileno()
        overrun = f"model process wrote past its reply (stage: {stage})"
        if select.select([stdout], [], [], 0)[0] and os.read(stdout, 65536):
            raise QueryError(overrun)
        lines, tail = [], b""
        deadline = time.monotonic() + timeout
        while request or len(lines) < n_lines:
            wait = deadline - time.monotonic()
            readable, writable, _ = select.select(
                [stdout] if len(lines) < n_lines else [], [stdin] if request else [], [], wait
            ) if wait > 0 else ((), (), ())
            if not readable and not writable:
                raise QueryError(f"model process timed out (stage: {stage})")
            if writable:
                try:
                    request = request[os.write(stdin, request[:65536]) :]
                except BlockingIOError:
                    pass
                except OSError as exc:
                    raise QueryError(f"model process pipe broke (stage: request): {exc}") from None
                if not request:
                    deadline = time.monotonic() + timeout
            if readable:
                chunk = os.read(stdout, 65536)
                if not chunk:
                    raise QueryError(f"model process closed its output (stage: {stage})")
                *done, tail = (tail + chunk).split(b"\n")
                if done:
                    deadline = time.monotonic() + timeout
                lines += done
        if len(lines) > n_lines or tail:
            raise QueryError(overrun)
        return [line.decode("utf-8", errors="replace") for line in lines[:n_lines]]

    def predict_batch(self, xs):
        xs = _queries(xs, self.dim)
        if xs.shape[0] == 0:
            return np.empty(0)
        with self._lock:
            self._ensure_started()
            payload = "".join(",".join(map(repr, row)) + "\n" for row in xs.tolist())
            replies = self._exchange(payload + "\n", xs.shape[0], self.timeout, "response")
        try:
            # numpy converts each string as float() does, surrounding whitespace included
            out = np.array(replies, dtype=float)
        except ValueError:
            for line in replies:
                try:
                    float(line.strip())
                except ValueError:
                    raise QueryError(f"malformed reply line {line!r}") from None
            raise
        return _finite_or_raise(out, "external model")

    def close(self):
        with self._lock:
            if self._proc is not None:
                try:
                    self._proc.stdin.close()
                except OSError:
                    pass
                self._proc.terminate()
                try:
                    self._proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                self._proc.stdout.close()
                self._proc = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


_BACKENDS = {
    cls.kind: cls for cls in (ExpressionModel, TableModel, KernelSmoothModel, ExternalProcessModel)
}


def model_from_spec(spec):
    """Rebuild a serializable backend from its spec dictionary."""
    kind = required(spec, "kind", "model")
    if not isinstance(kind, str) or kind not in _BACKENDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    cls = _BACKENDS[kind]
    return cls(*(required(spec, name, f"{kind} model") for name in cls.fields))


class GaussianNoise:
    """Additive Gaussian noise with sigma given as a constant, expression, or callable."""

    def __init__(self, sigma=1.0, dim=None):
        if callable(sigma):
            self._sigma = sigma
        elif isinstance(sigma, str):
            if dim is None:
                raise ConfigError("sigma expressions need the covariate dimension")
            self._sigma = compile_expression(sigma, dim)
        else:
            value = json_scalar(sigma, float, "sigma", "finite and nonnegative", lambda v: 0 <= v < np.inf)
            self._sigma = lambda xs: np.full(np.atleast_2d(xs).shape[0], value)

    def sigma(self, xs):
        out = np.asarray(self._sigma(np.atleast_2d(np.asarray(xs, float))), float)
        if not (np.isfinite(out).all() and (out >= 0).all()):
            raise ValueError("sigma(x) must be finite and nonnegative")
        return out

    def sample(self, f_values, xs, rng):
        return f_values + self.sigma(xs) * rng.standard_normal(len(f_values))


class BernoulliNoise:
    """Binary labels with P(y=1|x) = f(x); the variance f(1-f) is implied."""

    tolerance = 1e-9

    def sample(self, f_values, xs, rng):
        p = np.asarray(f_values, float)
        if (p < -self.tolerance).any() or (p > 1 + self.tolerance).any():
            raise ValueError("Bernoulli labels need f(x) in [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        return (rng.random(len(p)) < p).astype(float)


class SyntheticOracle:
    """Label source y = f*(x) + noise for a known regression function."""

    def __init__(self, f_star, noise, domain=None):
        self.f_star = f_star
        self.noise = noise
        self.domain = domain
        self.labels_issued = 0

    def label(self, xs, rng):
        xs = np.atleast_2d(np.asarray(xs, float))
        if self.domain is not None:
            self.domain.require(xs, "labeling point")
        y = self.noise.sample(np.asarray(self.f_star(xs), float), xs, rng)
        self.labels_issued += xs.shape[0]
        return y


class ExternalOracle:
    """Label source backed by any black-box model (e.g. an external process)."""

    def __init__(self, model):
        self.model = model
        self.labels_issued = 0

    def label(self, xs, rng=None):
        xs = np.atleast_2d(np.asarray(xs, float))
        y = self.model.predict_batch(xs)
        self.labels_issued += xs.shape[0]
        return y


class PoolOracle:
    """Finite pool of covariates whose labels are revealed at most once each."""

    def __init__(self, points, labels):
        self.points, self._labels = frozen_sample(points, labels, "pool")
        self._consumed = np.zeros(len(self), dtype=bool)

    def __len__(self):
        return self.points.shape[0]

    @property
    def labels_issued(self):
        return int(self._consumed.sum())

    @property
    def remaining(self):
        return int((~self._consumed).sum())

    def label_indices(self, idx):
        idx = np.asarray(idx, int).ravel()
        ordered = np.sort(idx)
        if (ordered[1:] == ordered[:-1]).any():
            raise BudgetError("pool indices requested more than once in a single call")
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise DomainError("pool index out of range")
        already = self._consumed[idx]
        if already.any():
            first = int(idx[np.flatnonzero(already)[0]])
            raise BudgetError(f"pool point {first} was already labeled")
        self._consumed[idx] = True
        return self._labels[idx].copy()
