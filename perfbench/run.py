"""The repository benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload statespace --seed 1 --seconds 15 \
        --trace 0

The run drives the public API of ``src/repro`` from this one process and
thread, as a closed loop with one client: the next query is sent when the
previous answer is back.  Every answer is checked against the known
answer :mod:`workloads` built into the query.  With ``--trace 0`` the
last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run (see ``perfbench/README.md``).  The exit code is 0 only when every
answer was right.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    MAX_STATES,
    SERVICE_BUDGET,
    SERVICE_REPEAT_BUDGETS,
    WORKLOADS,
    Query,
    make_round,
)

#: Fresh interpreters timed from start to ready; ``setup_s`` is their
#: median.
SETUP_PROBES = 7

#: Nominal seconds one round of each workload takes; a traced run does
#: ``seconds / 3 / ROUND_SECONDS`` rounds untraced and then the same
#: rounds traced, so its counts repeat exactly for a seed.
ROUND_SECONDS = {"statespace": 3.2, "equiv": 4.0, "service": 0.12}

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("correct_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: The store of a timed service round.  It lives in memory: on the host
#: the benchmark was tuned on, the fsync latency of a store file drifted
#: by 40% within minutes, which would drown any change to the code.
#: ``store.db.bytes`` replays one round into a file instead.
SERVICE_STORE = ":memory:"


# -- set-up -------------------------------------------------------------------

def warm_up(workload: str) -> None:
    """Import the library, open a store on ``service`` and answer one
    tiny query on names no timed query uses."""
    import repro
    if workload == "statespace":
        repro.explore("warm_a<warm_v> | warm_a(x).warm_r<x>")
    elif workload == "equiv":
        repro.check("warm_a!", "warm_a! | nu warm_b warm_b?")
    else:
        from repro.store import VerdictStore
        from repro.store.batch import serve
        out = io.StringIO()
        with VerdictStore(SERVICE_STORE) as store:
            serve(io.StringIO('{"p": "warm_a!", "q": "warm_a!"}\n'), out,
                  store=store)
        if json.loads(out.getvalue())["truth"] != "true":
            raise RuntimeError("wrong answer to the warm-up request")


def setup_probe_seconds(workload: str) -> float:
    """Start-to-ready wall time of one fresh interpreter doing the
    set-up."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload],
            stdout=subprocess.PIPE, text=True) as child:
        assert child.stdout is not None
        ready = child.stdout.readline()
        seconds = time.perf_counter() - t0
        child.stdout.read()
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({child.returncode})")
    return seconds


# -- queries ------------------------------------------------------------------

def answer_of(query: Query, budget: Any) -> int | bool | None:
    """Run one API query; None when its budget tripped (UNKNOWN)."""
    import repro
    if query.op == "explore":
        ex = repro.explore(query.args[0], budget=budget, **query.kwargs)
        return ex.n_states if ex.complete else None
    if query.op == "reach":
        verdict = repro.reach(*query.args, budget=budget, **query.kwargs)
    else:
        verdict = repro.check(*query.args, budget=budget, **query.kwargs)
    return None if verdict.is_unknown else verdict.is_true


class Tally:
    """Latencies and outcomes of the queries of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.shapes: list[str] = []
        self.decided = 0
        self.unknown = 0
        self.failures: list[str] = []
        self.wall = 0.0
        self.round_rates: list[float] = []

    def record(self, query: Query, seconds: float,
               answer: int | bool | None, error: str | None) -> None:
        self.latencies.append(seconds)
        self.shapes.append(query.shape)
        if error is not None:
            self.failures.append(f"{query.shape}: {error}")
        elif answer is None:
            self.unknown += 1
        else:
            self.decided += 1
            if answer != query.expected:
                self.failures.append(
                    f"{query.shape}: answered {answer!r}, known answer "
                    f"{query.expected!r}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def settle(observer: Any) -> None:
    """Clear the kernel's caches, reading their counters first on a
    traced run, and collect garbage, so that every query starts from the
    same heap whatever ran before it: otherwise the seed's query order
    decides which query a full collection lands in.  This housekeeping
    is outside the timed queries."""
    from repro.core import clear_caches
    if observer is not None:
        observer.before_clear()
    clear_caches()
    gc.collect()


def run_api_round(queries: list[Query], workload: str, tally: Tally,
                  span: Callable[[], Any] | None, observer: Any) -> float:
    """Run one round's API queries, each from a cold kernel (fresh names
    alone would not stop the renaming closure from sharing memo entries
    between pairs of one shape).  Returns the seconds spent in queries."""
    import repro
    busy = 0.0
    for query in queries:
        budget = repro.Budget(max_states=MAX_STATES[workload])
        answer, error = None, None
        t0 = time.perf_counter()
        try:
            if span is None:
                answer = answer_of(query, budget)
            else:
                with span():
                    answer = answer_of(query, budget)
        except Exception as exc:  # a raising query is a failed query
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        busy += seconds
        tally.record(query, seconds, answer, error)
        settle(observer)
    return busy


class _AnswerStream(io.TextIOBase):
    """The service's output stream: timestamps each answer line."""

    def __init__(self) -> None:
        self.lines: list[tuple[float, str]] = []
        self._buf = ""

    def write(self, text: str) -> int:
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)


def run_service_round(queries: list[Query], tally: Tally,
                      span: Callable[[], Any] | None, observer: Any, *,
                      store_path: str = SERVICE_STORE) -> float:
    """Feed one round's lines to ``serve`` over a fresh store; the next
    line is yielded only after the previous answer line was written.  The
    round is one service session: the kernel's memos live until its end.
    Returns the seconds ``serve`` ran."""
    from repro.store import VerdictStore
    from repro.store.batch import serve
    out = _AnswerStream()
    sent: list[float] = []
    open_spans: list[Any] = []

    def lines() -> Iterator[str]:
        for query in queries:
            if sent and len(out.lines) < len(sent):
                raise RuntimeError("service yielded no answer line")
            if span is not None:
                if open_spans:
                    open_spans.pop().__exit__(None, None, None)
                open_spans.append(span().__enter__())
            sent.append(time.perf_counter())
            yield query.args[0] + "\n"

    with VerdictStore(store_path) as store:
        t0 = time.perf_counter()
        try:
            serve(lines(), out, store=store)
        finally:
            if open_spans:
                open_spans.pop().__exit__(None, None, None)
        busy = time.perf_counter() - t0
        if observer is not None:
            observer.store_round(store.stats())
    for i, query in enumerate(queries):
        if i >= len(out.lines):
            tally.record(query, 0.0, None, "no answer line")
            continue
        written, line = out.lines[i]
        answer, error = None, None
        try:
            reply = json.loads(line)
            if "error" in reply:
                error = f"error line: {reply['error']}"
            elif reply["truth"] != "unknown":
                answer = reply["truth"] == "true"
        except (ValueError, KeyError) as exc:
            error = f"malformed answer line {line!r}: {exc}"
        tally.record(query, written - sent[i], answer, error)
    settle(observer)
    return busy


def store_file_bytes(queries: list[Query], workdir: Path) -> int:
    """Size of the store file one round leaves, replayed untimed into a
    file-backed store (the timed rounds keep their store in memory)."""
    path = workdir / "replay.sqlite"
    run_service_round(queries, Tally(), None, None, store_path=str(path))
    size = path.stat().st_size
    path.unlink()
    return size


def run_rounds(workload: str, seed: int, tally: Tally, *,
               run: str, seconds: float | None = None,
               rounds: int | None = None,
               span: Callable[[], Any] | None = None,
               observer: Any = None,
               between: Callable[[float], None] | None = None) -> None:
    """Run whole rounds until *seconds* have passed (at least one round)
    or *rounds* are done.  *between* is called before each round with
    the seconds elapsed so far."""
    start = time.perf_counter()
    index = 0
    while True:
        if between is not None:
            between(time.perf_counter() - start)
        if rounds is not None and index >= rounds:
            break
        if (seconds is not None and index > 0
                and time.perf_counter() - start >= seconds):
            break
        queries = make_round(workload, seed, index, run)
        if workload == "service":
            busy = run_service_round(queries, tally, span, observer)
        else:
            busy = run_api_round(queries, workload, tally, span, observer)
        tally.wall += busy
        tally.round_rates.append(len(queries) / busy)
        index += 1


# -- reports ------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def lower_quartile(values: list[float]) -> float:
    """The 25th percentile; a run too short for two rounds has one."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def stamp(workload: str, seed: int) -> dict[str, Any]:
    """Host and run stamp printed beside every result."""
    revision = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            revision = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": revision or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "max_states": (MAX_STATES.get(workload) or {
            "first": SERVICE_BUDGET,
            "repeats": list(SERVICE_REPEAT_BUDGETS)}),
    }


def shape_table(tally: Tally) -> list[str]:
    """Median latency and count per query shape, slowest first."""
    by_shape: dict[str, list[float]] = {}
    for shape, seconds in zip(tally.shapes, tally.latencies):
        by_shape.setdefault(shape, []).append(seconds)
    rows = sorted(by_shape.items(), key=lambda kv: -statistics.median(kv[1]))
    out = [f"{'shape':52} {'n':>5} {'median ms':>10}"]
    for shape, values in rows:
        out.append(f"{shape:52} {len(values):5d} "
                   f"{statistics.median(values) * 1e3:10.3f}")
    return out


def end_to_end(tally: Tally, setup: list[float]) -> dict[str, float]:
    n = tally.attempted
    ms = [s * 1e3 for s in tally.latencies]
    return {
        "setup_s": statistics.median(setup),
        # The host slows in bursts: the rate three rounds in four reach
        # reads the slowed rate in every run, where the median flips with
        # the share of the run the host was slow.
        "queries_per_s": lower_quartile(tally.round_rates),
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
        "decided_ratio": tally.decided / n,
        "correct_ratio": 1 - len(tally.failures) / n,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def result_line(attempted: int, failures: list[str],
                metrics: dict[str, tuple[float, str]]) -> str:
    """The last line of a run: what the benchmark contract reads."""
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# -- the two kinds of run -----------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> int:
    """End-to-end metrics, tracing off."""
    warm_up(workload)
    # Set-up probes are spread over the run, between rounds, so that
    # their median sees the same host as the queries do.
    setup: list[float] = []

    def probe_when_due(elapsed: float) -> None:
        if (len(setup) < SETUP_PROBES
                and elapsed >= len(setup) * seconds / SETUP_PROBES):
            setup.append(setup_probe_seconds(workload))

    tally = Tally()
    run_rounds(workload, seed, tally, run="m", seconds=seconds,
               between=probe_when_due)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe_seconds(workload))
    values = end_to_end(tally, setup)
    print(f"stamp: {json.dumps(stamp(workload, seed))}")
    print(f"{tally.attempted} queries in {len(tally.round_rates)} rounds, "
          f"{tally.wall:.3f} s in timed queries; set-up samples "
          f"{', '.join(f'{s:.3f}' for s in setup)} s")
    print("\n".join(shape_table(tally)))
    units = dict(END_TO_END)
    print(result_line(tally.attempted, tally.failures,
                      {name: (values[name], units[name])
                       for name, _unit in END_TO_END}))
    return 0 if not tally.failures else 1


def trace(workload: str, seed: int, seconds: float) -> int:
    """Per-layer metrics: the same rounds untraced, then traced."""
    import layers
    from tracer import Tracer
    warm_up(workload)
    rounds = max(1, round(seconds / 3 / ROUND_SECONDS[workload]))
    untraced = Tally()
    run_rounds(workload, seed, untraced, run="u", rounds=rounds)

    tracer = Tracer()
    tracer.install()
    observed = layers.RunObserver()
    traced = Tally()
    try:
        run_rounds(workload, seed, traced, run="t", rounds=rounds,
                   span=lambda: tracer.span("query"), observer=observed)
    finally:
        tracer.uninstall()
    if workload == "service":
        workdir = HERE / "_work" / str(os.getpid())
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            observed.store_bytes = store_file_bytes(
                make_round(workload, seed, rounds - 1, "t"), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run still uses it

    report = layers.per_layer(tracer, observed, traced, untraced)
    print(f"stamp: {json.dumps(stamp(workload, seed))}")
    print(f"{traced.attempted} traced queries in {rounds} rounds; time in "
          f"queries {traced.wall:.3f} s traced, {untraced.wall:.3f} s "
          f"untraced")
    print("\n".join(layers.layer_table(report, workload)))
    failures = untraced.failures + traced.failures
    print(result_line(untraced.attempted + traced.attempted, failures,
                      report.metrics))
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        warm_up(args.workload)
        print("ready", flush=True)
        return 0
    kind = trace if args.trace else measure
    return kind(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
