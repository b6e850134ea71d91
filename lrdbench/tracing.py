"""Outside-in tracing of lrdsim for the benchmark's traced run.

The tracer wraps public functions at every binding their callers use
(`lrdsim.projection.svd`, `lrdsim.optimizer.as_matrix`, ...) and methods
on their class, so the program itself is unchanged. Each call records a
span [name, start, end, parent, trace id, error]; the trace id is the step
index, and each step of `Engine.records()` is itself a span named
`distsim.engine`. Spans stay in memory until the caller writes them out.
The tracer keeps one span stack, so traced runs must be serial.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (span name, defining module, attribute path)
TARGETS = (
    ("linalg.svd", "lrdsim.linalg", "svd"),
    ("linalg.as_matrix", "lrdsim.linalg", "as_matrix"),
    ("linalg.clip_frobenius", "lrdsim.linalg", "clip_frobenius"),
    ("optimizer.compress_gradient", "lrdsim.optimizer", "compress_gradient"),
    ("optimizer.update_moments", "lrdsim.optimizer", "update_moments"),
    ("optimizer.compute_update", "lrdsim.optimizer", "compute_update"),
    ("projection.projection_with_spectrum", "lrdsim.projection", "projection_with_spectrum"),
    ("projection.rotation_matrix", "lrdsim.projection", "rotation_matrix"),
    ("projection.rotate_first_moment", "lrdsim.projection", "rotate_first_moment"),
    ("projection.rotate_second_moment", "lrdsim.projection", "rotate_second_moment"),
    ("projection.subspace_metrics_from_update", "lrdsim.projection", "subspace_metrics_from_update"),
    ("problems.sample_batch", "lrdsim.problems", "MatrixRegression.sample_batch"),
    ("problems.stoch_gradient", "lrdsim.problems", "MatrixRegression.stoch_gradient"),
    ("problems.loss", "lrdsim.problems", "MatrixRegression.loss"),
    ("problems.MatrixRegression.init", "lrdsim.problems", "MatrixRegression.__init__"),
    ("distsim.Engine.init", "lrdsim.distsim", "Engine.__init__"),
    ("distsim.engine", "lrdsim.distsim", "Engine.records"),
    ("distsim.sparsify_topk", "lrdsim.distsim", "sparsify_topk"),
    ("logio.dump_line", "lrdsim.logio", "dump_line"),
    ("config.load_file", "lrdsim.config", "load_file"),
    ("cli.cmd_run", "lrdsim.cli", "cmd_run"),
)


def _compress_bytes(args, result) -> int:
    # float64 bytes read and written by the kernel's four array passes,
    # computed from shapes: carried = grad + error (3pq), g = Q^T carried
    # (pr + pq + rq), Q g (pr + rq + pq), new_error = carried - Q g (3pq)
    g, new_error = result
    r, q = g.shape
    p = new_error.shape[0]
    return 8 * (8 * p * q + 2 * p * r + 2 * r * q)


def _gradient_flops(args, result) -> int:
    # A_b X (2Bpq), minus Y_b (Bq), A_b^T R (2Bpq), divided by B (pq)
    _problem, x, batch = args[:3]
    p, q = x.shape
    b = batch.size
    return 4 * b * p * q + b * q + p * q


# span name -> (counter name, amount per call from (args, result))
COUNTERS = {
    "optimizer.compress_gradient": ("bytes_computed", _compress_bytes),
    "problems.stoch_gradient": ("flops_computed", _gradient_flops),
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted path inside `module`."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, trace id, error]
        self.counts: dict = {}  # "<span>.<counter>" -> total
        self.absent: list = []  # target names that no longer exist
        self._stack: list = []
        self._trace_id = None
        self._restore: list = []  # (owner, attribute, original)

    # ---- spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._trace_id, None])
        self._stack.append(len(self.spans) - 1)

    def _close(self, error=None) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        span[5] = error

    def _wrap_call(self, name: str, fn):
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts.setdefault(f"{name}.{counter[0]}", 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(type(exc).__name__)
                raise
            self._close()
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, result)
            return result

        return traced

    def _wrap_steps(self, name: str, records):
        @functools.wraps(records)
        def traced(*args, **kwargs):
            inner = records(*args, **kwargs)
            step = 0
            try:
                while True:
                    self._trace_id = step
                    self._open(name)
                    try:
                        record = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                        self._trace_id = None
                    yield record
                    step += 1
            finally:
                inner.close()

        return traced

    # ---- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; names that no longer resolve are recorded as absent."""
        for name, module, path in targets:
            try:
                owner, attr, original = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrap = self._wrap_steps if inspect.isgeneratorfunction(original) else self._wrap_call
            wrapper = wrap(name, original)
            if inspect.isclass(owner):
                self._rebind(owner, attr, original, wrapper)
                continue
            # a module-level function: rebind it wherever a lrdsim module imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "lrdsim" and not mod_name.startswith("lrdsim."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def summarize(spans: list) -> dict:
    """Per span name: calls, total_s, and self_s (duration minus child spans)."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _tid, _err in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _parent, _tid, error) in enumerate(spans):
        stat = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}})
        stat["calls"] += 1
        stat["total_s"] += end - start
        stat["self_s"] += end - start - covered[i]
        if error is not None:
            stat["errors"][error] = stat["errors"].get(error, 0) + 1
    return out
