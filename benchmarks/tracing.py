"""The traced run: per-module spans and counts around calls into fibrelab.

Wrappers live here, not in the package.  For every listed function the
tracer finds each ``fibrelab.*`` module global (and class attribute) bound to
that very function object and rebinds it to a wrapper, so names imported by
value, such as ``pencils.poly_matrix_det`` or ``pencils.irreducible_factors``,
are caught too.  A listed name missing at some commit is reported as absent.

Each span records its name, start, end, parent span and op; spans stay in
memory until the batch ends.  A span's self time is its duration minus the
durations of its child spans.

The CLI workload runs in child interpreters, so its layers are measured from
outside: ``python -c pass`` for interpreter start, ``python -X importtime``
for the import of fibrelab and sympy, and a timer around ``cli.main``.
"""

from __future__ import annotations

import importlib
import re
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import List

from workloads import Workload, run_child

# (module, attribute path, span name)
SPAN_TARGETS = (
    ("polynomial", "poly_matrix_det", "polynomial.poly_matrix_det"),
    ("polynomial", "det_fraction", "polynomial.det_fraction"),
    ("polynomial", "interpolate", "polynomial.interpolate"),
    ("polynomial", "squarefree_decomposition", "polynomial.squarefree_decomposition"),
    ("polynomial", "discriminant", "polynomial.discriminant"),
    ("polynomial", "resultant", "polynomial.resultant"),
    ("polynomial", "xgcd", "polynomial.xgcd"),
    ("polynomial", "UniPoly.gcd", "polynomial.UniPoly.gcd"),
    ("factorization", "irreducible_factors", "factorization.irreducible_factors"),
    ("quotient", "QuotientElem.__mul__", "quotient.QuotientElem.mul"),
    ("quotient", "QuotientElem.__add__", "quotient.QuotientElem.add"),
    ("quotient", "QuotientElem.__sub__", "quotient.QuotientElem.sub"),
    ("quotient", "QuotientElem.__rsub__", "quotient.QuotientElem.rsub"),
    ("quotient", "QuotientElem.__neg__", "quotient.QuotientElem.neg"),
    ("quotient", "QuotientElem.__truediv__", "quotient.QuotientElem.truediv"),
    ("quotient", "QuotientElem.__rtruediv__", "quotient.QuotientElem.rtruediv"),
    ("quotient", "QuotientElem.__pow__", "quotient.QuotientElem.pow"),
    ("quotient", "QuotientElem.inverse", "quotient.QuotientElem.inverse"),
    ("quotient", "generator", "quotient.generator"),
    ("quotient", "lift_unipoly", "quotient.lift_unipoly"),
    ("quotient", "quotient_gcd_degree", "quotient.quotient_gcd_degree"),
    ("pencils", "pencil_discriminant", "pencils.pencil_discriminant"),
    ("pencils", "singular_fibres", "pencils.singular_fibres"),
    ("pencils", "total_space_euler", "pencils.total_space_euler"),
    ("pencils", "euler_summary", "pencils.euler_summary"),
    ("pencils", "classify_quotient_fibre", "pencils.classify_quotient_fibre"),
    ("pencils", "Pencil.fibre_at", "pencils.fibre_at"),
    ("pencils", "Pencil.fibre_at_quotient", "pencils.fibre_at_quotient"),
    ("curves", "classify", "curves.classify"),
    ("curves", "classify_decomposition", "curves.classify_decomposition"),
    ("curves", "singular_points", "curves.singular_points"),
    ("curves", "construct_nodal", "curves.construct_nodal"),
    ("curves", "construct_split", "curves.construct_split"),
    ("cli", "main", "cli.main"),
)

MODULES = ("polynomial", "factorization", "quotient", "curves", "pencils", "cli")
SELF_TIMES = ("pencils.classify_quotient_fibre", "pencils.fibre_at_quotient",
              "pencils.pencil_discriminant", "polynomial.poly_matrix_det",
              "polynomial.det_fraction", "polynomial.interpolate",
              "factorization.irreducible_factors", "polynomial.squarefree_decomposition",
              "polynomial.UniPoly.gcd", "curves.classify", "curves.singular_points",
              "curves.construct_nodal")
CALL_COUNTS = ("quotient.QuotientElem.mul", "quotient.QuotientElem.inverse",
               "polynomial.det_fraction", "factorization.irreducible_factors",
               "polynomial.squarefree_decomposition", "polynomial.UniPoly.gcd",
               "curves.classify")

# Every per-layer metric a traced run prints, in BENCHMARK.json order.
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in SELF_TIMES]
    + [(f"{name}.calls", "count") for name in CALL_COUNTS]
    + [(f"{module}.self_s", "s") for module in MODULES if module != "cli"]
    + [(f"{module}.errors", "count") for module in MODULES]
    + [("pencils.total_space_euler.g2.p50_s", "s"), ("pencils.total_space_euler.g3.p50_s", "s"),
       ("pencils.orbits", "count"), ("pencils.orbit_degree_sum", "count"),
       ("pencils.rational_fibre_share", "ratio"), ("pencils.disc_degree", "count"),
       ("pencils.disc_max_bits", "bits"), ("factorization.sympy_import_s", "s"),
       ("cli.interpreter_start_s", "s"), ("cli.import_fibrelab_s", "s"),
       ("cli.import_sympy_s", "s"), ("cli.handler_s", "s"), ("cli.stdout_bytes", "bytes"),
       ("input.batch_ops", "count"), ("input.genus_mean", "genus"),
       ("trace.overhead_ratio", "ratio"), ("trace.absent_names", "count")]
)

@dataclass
class Tracer:
    """Spans in memory, recorded while ``active``; ``install`` wraps, ``uninstall`` restores."""

    targets: tuple = SPAN_TARGETS
    spans: list = field(default_factory=list)  # [name, start, end, parent, op, raised here]
    observed: list = field(default_factory=list)  # (degree, max bits) of each discriminant
    absent: List[str] = field(default_factory=list)
    active: bool = False
    op: int = -1
    _stack: list = field(default_factory=list)
    _raised: object = None
    _patched: list = field(default_factory=list)  # (owner, attribute, original)

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fibrelab" or name.startswith("fibrelab."))]
        for module_name, path, span in self.targets:
            fn = _resolve(module_name, path)
            if fn is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(fn, span)
            owners = modules
            if "." in path:  # a method: rebind it, and any alias, in its class
                owners = [_resolve(module_name, path.rsplit(".", 1)[0])]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patched.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans, self.observed = [], []

    def _wrap(self, fn, span: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.call(span, fn, args, kwargs)
            if span == "pencils.pencil_discriminant":
                tracer.observed.append((result.degree, _max_bits(result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, args=(), kwargs=None):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as exc:
            record[5] = exc is not self._raised  # counted once, where it was raised
            self._raised = exc
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


def _resolve(module_name: str, path: str):
    try:
        obj = importlib.import_module(f"fibrelab.{module_name}")
    except ImportError:
        return None
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _max_bits(p) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in p.coefficients), default=0)


def span_table(spans: list) -> dict:
    """name -> [calls, self seconds, errors raised there]."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for i, (name, start, end, _, _, raised) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0, 0])
        row[0] += 1
        row[1] += end - start - child[i]
        row[2] += raised
    return table


def _batch_metrics(batch: list, spans: list, observed: list) -> dict:
    table = span_table(spans)
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = table.get(name, [0, 0.0, 0])[1]
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = table.get(name, [0, 0.0, 0])[0]
    for module in MODULES:
        rows = [row for name, row in table.items() if name.startswith(module + ".")]
        if module != "cli":
            out[f"{module}.self_s"] = sum(row[1] for row in rows)
        out[f"{module}.errors"] = sum(row[2] for row in rows)
    for g in (2, 3):
        times = [end - start for name, start, end, _, op, _ in spans
                 if name == "pencils.total_space_euler" and batch[op].genus == g]
        out[f"pencils.total_space_euler.g{g}.p50_s"] = statistics.median(times) if times else 0.0
    out["pencils.disc_degree"] = sum(degree for degree, _ in observed)
    out["pencils.disc_max_bits"] = max((bits for _, bits in observed), default=0)
    return out


def orbit_metrics(wl: Workload, results: list) -> dict:
    """Galois orbits of the singular locus: how much work is left for the classifiers."""
    degrees = []
    for result in results:
        if result is None:  # the op raised
            continue
        if wl.name == "pencil-euler":
            degrees += [r.conjugate_count for r in result.singular_fibres]
        elif wl.name == "locus-ladder":
            degrees += [factor.degree for factor, _ in result[1]]
    return {
        "pencils.orbits": len(degrees),
        "pencils.orbit_degree_sum": sum(d for d in degrees if d > 1),
        "pencils.rational_fibre_share": degrees.count(1) / len(degrees) if degrees else 0.0,
    }


def _median_of(batches: list) -> dict:
    return {key: statistics.median(b[key] for b in batches) for key in batches[0]}


def run_batch(batch: list) -> list:
    """Every op's result, or None for an op that raised."""
    results = []
    for op in batch:
        try:
            results.append(op.run())
        except Exception:  # a failed op, counted by the caller
            results.append(None)
    return results


def _rounds(batch: list, reference: list, deadline: float, traced_batch) -> tuple:
    """Timed untraced and traced batches in turn, after the untimed reference batch.

    The reference batch warms caches, so neither side pays for that.  At
    least one round runs; another only if it should end before the deadline.
    Returns (untraced walls, traced walls, failed ops): an op fails if it
    raises, or if its traced result differs from the reference.
    """
    untraced, traced, failed = [], [], 0
    while True:
        start = time.perf_counter()
        results = run_batch(batch)
        untraced.append(time.perf_counter() - start)
        failed += sum(r is None for r in results)
        start = time.perf_counter()
        results = traced_batch()
        traced.append(time.perf_counter() - start)
        failed += sum(r is None or r != ref for r, ref in zip(results, reference))
        if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
            return untraced, traced, failed


@dataclass
class TraceOutcome:
    metrics: dict
    attempted: int
    failed: int
    absent: List[str]


def _finish(wl: Workload, batch: list, reference: list, measured: dict, walls: tuple,
            failed: int, absent: List[str]) -> TraceOutcome:
    untraced, traced, round_failures = walls
    genera = [op.genus for op in batch if op.genus]
    metrics = {name: 0 for name, _ in PER_LAYER}
    metrics.update(orbit_metrics(wl, reference))
    metrics.update(measured)
    metrics["input.batch_ops"] = len(batch)
    metrics["input.genus_mean"] = statistics.mean(genera) if genera else 0
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.absent_names"] = len(absent)
    attempted = len(batch) * (1 + len(untraced) + len(traced))
    return TraceOutcome(metrics, attempted, failed + round_failures, absent)


def _reference(wl: Workload, batch: list) -> tuple:
    """The batch's results, untraced, and how many raise or fail their check."""
    results = run_batch(batch)
    return results, sum(r is None or bool(wl.check(op, r)) for op, r in zip(batch, results))


def traced_in_process(wl: Workload, seconds: float, targets: tuple = SPAN_TARGETS) -> TraceOutcome:
    """Untraced and traced batches of the workload's first ops, for about ``seconds``."""
    deadline = time.perf_counter() + seconds
    batch = wl.ops[:wl.batch]
    reference, failed = _reference(wl, batch)
    tracer = Tracer(targets)
    recorded = []  # (spans, observed) per traced batch

    def traced_batch():
        tracer.reset()
        tracer.install()
        results = []
        try:
            for i, op in enumerate(batch):
                tracer.op, tracer.active = i, True
                try:
                    results.append(op.run())
                except Exception:  # counted in <module>.errors and as a failed op
                    results.append(None)
                finally:
                    tracer.active = False
        finally:
            tracer.uninstall()
        recorded.append((tracer.spans, tracer.observed))
        return results

    walls = _rounds(batch, reference, deadline, traced_batch)
    measured = _median_of([_batch_metrics(batch, spans, observed) for spans, observed in recorded])
    measured["factorization.sympy_import_s"] = wl.sympy_import_s
    return _finish(wl, batch, reference, measured, walls, failed, tracer.absent)


# Child bootstrap for the traced CLI run: the same entry point as
# ``python -m fibrelab``, with a timer around cli.main reported on stderr.
CLI_BOOTSTRAP = (
    "import sys, time\n"
    "from fibrelab import cli\n"
    "start = time.perf_counter()\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write('\\nbench-handler-s %r\\n' % (time.perf_counter() - start))\n"
    "sys.exit(code)\n"
)
_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| (\S+)$")


def parse_child_stderr(stderr: bytes) -> dict:
    """Top-level import times of fibrelab and sympy, and the handler time."""
    out = {"fibrelab": 0.0, "sympy": 0.0, "handler": 0.0}
    for line in stderr.decode(errors="replace").splitlines():
        match = _IMPORTTIME.match(line)
        if match and match.group(2) in ("fibrelab", "sympy"):
            out[match.group(2)] = int(match.group(1)) / 1e6
        elif line.startswith("bench-handler-s "):
            out["handler"] = float(line.split()[1])
    return out


def _cli_batch_metrics(runs: list) -> dict:
    parsed = [parse_child_stderr(r.stderr) for r in runs]
    sympy_times = [p["sympy"] for p in parsed if p["sympy"]]
    return {
        "cli.import_fibrelab_s": statistics.median(p["fibrelab"] for p in parsed),
        "cli.import_sympy_s": statistics.median(sympy_times) if sympy_times else 0.0,
        "cli.handler_s": statistics.median(p["handler"] for p in parsed),
        "cli.stdout_bytes": sum(len(r.stdout) for r in runs),
        "cli.errors": sum(r.code != 0 for r in runs),
    }


def traced_cli(wl: Workload, seconds: float, interpreter_starts: int = 5) -> TraceOutcome:
    """Plain and instrumented batches of cold CLI runs, for about ``seconds``."""
    deadline = time.perf_counter() + seconds
    batch = wl.ops[:wl.batch]
    reference, failed = _reference(wl, batch)
    starts = []
    for _ in range(interpreter_starts):
        begin = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        starts.append(time.perf_counter() - begin)
    recorded = []  # the child runs of each traced batch

    def traced_batch():
        runs = [run_child([sys.executable, "-X", "importtime", "-c", CLI_BOOTSTRAP, *op.argv],
                          capture_stderr=True) for op in batch]
        recorded.append(runs)
        return [(r.code, r.stdout) for r in runs]

    expected = [None if r is None else (r.code, r.stdout) for r in reference]
    walls = _rounds(batch, expected, deadline, traced_batch)
    measured = _median_of([_cli_batch_metrics(runs) for runs in recorded])
    measured["cli.interpreter_start_s"] = statistics.median(starts)
    measured["factorization.sympy_import_s"] = measured["cli.import_sympy_s"]
    absent = [span for module, path, span in SPAN_TARGETS if _resolve(module, path) is None]
    return _finish(wl, batch, reference, measured, walls, failed, absent)
