#!/usr/bin/env python3
"""The cete benchmark: seeded workloads timed from outside the package.

Run from the root of a checkout:

    python3 bench/run.py --workload scan-var2-n1e4 --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with a single caller in this process: the
next operation starts when the previous one has returned. After one
untimed warm-up operation the loop runs until ``--seconds`` have passed
(and at least three operations have run). In the untraced run every
operation is followed by one fresh interpreter that times the workload's
set-up, so set-up launches and operations see the same machine speed.
Every operation's output is checked, and a failed check counts the
operation as failed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports per-layer metrics (see
``tracer.py``). Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller result file is written to ``bench/out/``.
Workloads and metrics are described in ``bench/README.md``; their names
and units are read from ``BENCHMARK.json``.
"""
from __future__ import annotations

import os

# one thread per numeric library, fixed before numpy is first imported
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import pm25
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

CLI_LAUNCH = ("-c", "from cete.cli import main; main()")
IMPORT_PROBE = ("-c", "import time; t = time.perf_counter(); import cete.cli; "
                      "print(time.perf_counter() - t)")
CLI_WINDOW = 1000      # the CLI's default first-complete-run length
MIN_ROUNDS = 3         # rounds of operations measured at least
PROCESS_TIMEOUT = 60   # seconds before a CLI process counts as failed


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "scan", "te" or "cli"
    n: int                   # series length, or rows of the generated file
    order_m: int
    lags: tuple[int, ...]


WORKLOADS = {w.name: w for w in (
    Workload("scan-var2-n1e4", "scan", 10_000, 1, tuple(range(1, 25))),
    Workload("te-var2-n1e5-m3", "te", 100_000, 3, (1,)),
    Workload("te-var2-n2000-m12", "te", 2_000, 12, (1,)),
    Workload("cli-pm25-te", "cli", pm25.ROWS, 1, tuple(range(1, 25))),
)}

# one scan entry, in the field order of the CLI's JSON output
ROW_FIELDS = ("lag", "te_nats", "ce_joint", "ce_self", "ce_assoc", "ce_past",
              "n_effective")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    from importlib.metadata import version

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **{lib: version(lib) for lib in ("numpy", "scipy", "click")},
        "threads": dict(THREAD_ENV),
    }


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append("; ".join(problems))


def timed(op, check, tally: Tally) -> float:
    """Run one operation, check its output and return its wall time."""
    start = perf_counter()
    try:
        out = op()
    except Exception as err:  # a raising operation is a failed one
        elapsed = perf_counter() - start
        tally.record([f"{type(err).__name__}: {err}"])
        return elapsed
    elapsed = perf_counter() - start
    tally.record(check(out))
    return elapsed


def closed_loop(ops: dict, check, tally: Tally, seconds: float,
                between=None) -> dict:
    """Run the named operations in turn until ``seconds`` have passed.

    With two operations their order alternates from round to round, so a
    drift in machine speed does not favour either. ``between``, if given,
    runs after each round, outside the operations' timing.
    """
    names = list(ops)
    samples = {name: [] for name in names}
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        for name in (names if rounds % 2 == 0 else names[::-1]):
            samples[name].append(timed(ops[name], check, tally))
        if between is not None:
            between()
        rounds += 1
    return samples


def check_rows(rows, reference, peak_lag) -> list[str]:
    """Problems with one operation's scan rows (empty when correct)."""
    problems = []
    for lag, te, ce_joint, ce_self, ce_assoc, ce_past, _ in rows:
        if not all(map(math.isfinite, (te, ce_joint, ce_self, ce_assoc, ce_past))):
            problems.append(f"lag {lag}: non-finite value")
        elif te != -ce_joint + ce_self + ce_assoc - ce_past:
            problems.append(f"lag {lag}: four-term identity broken")
    if peak_lag is not None and max(rows, key=lambda r: r[1])[0] != peak_lag:
        problems.append(f"scan does not peak at lag {peak_lag}")
    if reference is not None and rows != reference:
        problems.append("output differs bitwise from the reference")
    return problems


def estimate_rows(entries) -> list[tuple]:
    return [(lag, e.te_nats, e.ce_joint, e.ce_self, e.ce_assoc, e.ce_past,
             e.n_effective) for lag, e in entries]


def launch_time(argv: list[str]) -> float:
    """Wall time of one fresh process running ``argv``."""
    start = perf_counter()
    # with a pipe, waiting ends at the child's exit rather than at the
    # next tick of the polling loop that a timeout alone would use
    subprocess.run(argv, env=child_env(), check=True, capture_output=True,
                   timeout=PROCESS_TIMEOUT)
    return perf_counter() - start


class Case:
    """One workload's inputs, operations and reference output for a seed."""

    truth = None       # analytic TE at lag 1, where there is one
    reference = None   # rows every operation must reproduce bitwise
    peak_lag = None    # lag at which the scan must peak, where it must
    rss_scope = resource.RUSAGE_SELF
    setup_entry = ("-c", "import cete")

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed

    def untraced_op(self):
        raise NotImplementedError

    def _traced(self, rec: tracer.Recorder):
        raise NotImplementedError

    def traced_op(self, rec: tracer.Recorder):
        restore = tracer.install(rec)
        try:
            return self._traced(rec)
        finally:
            restore()

    def rows(self, out) -> list[tuple]:
        return out

    def check(self, out) -> list[str]:
        rows = self.rows(out)
        if self.reference is None:  # the warm-up output pins every later one
            self.reference = rows
            return check_rows(rows, None, self.peak_lag)
        return check_rows(rows, self.reference, self.peak_lag)

    def te_error(self) -> float | None:
        if self.truth is None or self.reference is None:
            return None
        te_at_true_lag = next(row[1] for row in self.reference if row[0] == 1)
        return abs(te_at_true_lag - self.truth)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(self.rss_scope).ru_maxrss / 1024.0

    def cleanup(self):
        pass


class VarCase(Case):
    """The VAR pair from cete's oracle, passed to the library in-process."""

    def __init__(self, wl: Workload, seed: int):
        from cete.oracle import Var2Spec, analytic_var_te, simulate_var2

        super().__init__(wl, seed)
        spec = Var2Spec(seed=seed)
        self.x, self.y = simulate_var2(spec, wl.n)
        self.truth = analytic_var_te(spec, lag=1, order_m=wl.order_m)
        if wl.kind == "scan":
            self.peak_lag = 1

    def untraced_op(self):
        import cete.causality as causality  # looked up per call: tracing patches it

        if self.wl.kind == "scan":
            entries = causality.lag_scan(self.x, self.y, self.wl.lags,
                                         order_m=self.wl.order_m).entries
        else:
            spec = causality.EmbeddingSpec(lag=1, order_m=self.wl.order_m)
            entries = ((1, causality.transfer_entropy(self.x, self.y, spec)),)
        return estimate_rows(entries)

    def _traced(self, rec: tracer.Recorder):
        return self.untraced_op()


class CliCase(Case):
    """A generated PM2.5-schema file, scanned by ``cete te``."""

    rss_scope = resource.RUSAGE_CHILDREN
    setup_entry = (*CLI_LAUNCH, "--version")

    def __init__(self, wl: Workload, seed: int):
        from cete.causality import lag_scan
        from cete.ingest import FirstCompleteRun, parse_pm25_csv, select_window, to_series_matrix

        super().__init__(wl, seed)
        OUT_DIR.mkdir(exist_ok=True)
        self.csv_path = OUT_DIR / f"pm25-seed{seed}.csv"
        self.out_path = OUT_DIR / f"cli-te-seed{seed}.json"
        self.csv_path.write_text(pm25.generate(seed, rows=wl.n))
        # the reference: the same window and scan, in-process
        records = parse_pm25_csv(self.csv_path)
        window = select_window(records, FirstCompleteRun(CLI_WINDOW),
                               required_columns=("TEMP", "pm2.5"))
        matrix = to_series_matrix(records, window, ("TEMP", "pm2.5"))
        scan = lag_scan(matrix.column("TEMP"), matrix.column("pm2.5"),
                        wl.lags, order_m=wl.order_m)
        self.reference = estimate_rows(scan.entries)

    def cli_args(self) -> list[str]:
        lags = f"{self.wl.lags[0]}..{self.wl.lags[-1]}"
        return ["te", "--cause", "TEMP", "--effect", "pm2.5", "--lags", lags,
                "--order", str(self.wl.order_m), "--format", "json",
                "--input", str(self.csv_path), "--output", str(self.out_path)]

    def untraced_op(self):
        proc = subprocess.run([sys.executable, *CLI_LAUNCH, *self.cli_args()],
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"cete exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        return self.out_path

    def _traced(self, rec: tracer.Recorder):
        # main() runs in this process, so a fresh interpreter that imports
        # cete.cli stands in for the start-up a real invocation pays
        start = perf_counter()
        out = subprocess.run([sys.executable, *IMPORT_PROBE], env=child_env(),
                             check=True, capture_output=True, text=True,
                             timeout=PROCESS_TIMEOUT).stdout
        wall = perf_counter() - start
        rec.add_outer("cli.import", float(out))
        rec.add_outer("cli.interp", wall - float(out))
        from cete.cli import main

        with contextlib.redirect_stderr(io.StringIO()):
            rec.call("cli.main", main, self.cli_args(), standalone_mode=False)
        return self.out_path

    def rows(self, out: Path) -> list[tuple]:
        payload = json.loads(out.read_text())
        out.unlink()
        return [tuple(entry[k] for k in ROW_FIELDS) for entry in payload["entries"]]

    def cleanup(self):
        for path in (self.csv_path, self.out_path):
            path.unlink(missing_ok=True)


def end_to_end(case: Case, tally: Tally, seconds: float) -> tuple[dict, dict]:
    setup_argv = [sys.executable, *case.setup_entry]
    setups = []
    launch_time(setup_argv)  # warm-up
    timed(case.untraced_op, case.check, tally)  # warm-up
    walls = closed_loop({"untraced": case.untraced_op}, case.check, tally,
                        seconds,
                        between=lambda: setups.append(launch_time(setup_argv)))
    walls = walls["untraced"]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (case.peak_rss_mb(), "MB"),
        "fail_rate": (tally.failed / tally.attempted, "ratio"),
        "wall_s.samples": (len(walls), "count"),
        "setup_s.samples": (len(setups), "count"),
        "wall_s.max": (max(walls), "s"),
    }
    te_err = case.te_error()
    if te_err is not None:
        metrics["te_err_nats"] = (te_err, "nats")
    return metrics, {"wall_s": walls, "setup_s": setups}


def per_layer(case: Case, tally: Tally, seconds: float, names) -> tuple[dict, dict]:
    rec = tracer.Recorder()
    if isinstance(case, CliCase):
        import cete.cli  # noqa: F401  (so its names are wrapped)
    spans = []

    def traced_op():
        before = rec.outer
        try:
            return case.traced_op(rec)
        finally:
            spans.append(rec.outer - before)

    timed(case.untraced_op, case.check, tally)  # warm-up
    walls = closed_loop({"untraced": case.untraced_op, "traced": traced_op},
                        case.check, tally, seconds)
    n_ops = len(walls["traced"])

    def per_op(value):
        return value / n_ops

    # untraced and traced operations of one round ran at the same machine
    # speed, so overhead and reconciliation are taken round by round
    untraced = walls["untraced"]
    ranked = rec.count["copula.ranked_values"]
    m = {
        "cli.import_s": (per_op(rec.total["cli.import"]), "s"),
        "cli.interp_s": (per_op(rec.total["cli.interp"]), "s"),
        "causality.assemble_s": (per_op(rec.self_time["causality.te"]), "s"),
        "knn_entropy.entropy_s": (per_op(rec.self_time["knn_entropy.kl"]
                                         + rec.self_time["knn_entropy.knn"]), "s"),
        "copula.tied_fraction": (rec.count["copula.tied_values"] / ranked
                                 if ranked else 0.0, "fraction"),
        "trace.untraced_wall_s": (statistics.median(untraced), "s"),
        "trace.wall_s": (statistics.median(walls["traced"]), "s"),
        "trace.overhead_s": (statistics.median(
            t - u for t, u in zip(walls["traced"], untraced)), "s"),
        "trace.span_sum_s": (per_op(rec.outer), "s"),
        "trace.reconcile": (statistics.median(
            s / u for s, u in zip(spans, untraced)), "ratio"),
        "trace.samples": (n_ops, "count"),
    }
    for metric, span in (("ingest.parse_s", "ingest.parse"),
                         ("ingest.window_s", "ingest.window"),
                         ("ingest.to_matrix_s", "ingest.to_matrix"),
                         ("core.validate_s", "core.validate"),
                         ("causality.embed_s", "causality.embed"),
                         ("copula.rank_s", "copula.rank"),
                         ("knn_entropy.build_s", "knn_entropy.build"),
                         ("knn_entropy.query_s", "knn_entropy.query"),
                         ("knn_entropy.brute_s", "knn_entropy.brute")):
        m[metric] = (per_op(rec.total[span]), "s")
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = (per_op(rec.layer_self(layer)), "s")
    for name in ("ingest.rows", "core.validate_calls", "causality.embed_calls",
                 "causality.te_calls", "causality.n_effective_sum",
                 "copula.rank_calls", "copula.rank_columns", "copula.ce_calls",
                 "knn_entropy.calls", "knn_entropy.points",
                 "knn_entropy.zero_dist_errors"):
        m[name] = (per_op(rec.count[name]), "count")
    for name in names:  # dimensions this workload never queries read 0
        if name.startswith("knn_entropy.query_s.d"):
            m[name] = (0.0, "s")
    for name, value in rec.count.items():
        if name.startswith("knn_entropy.query_s.d"):
            m[name] = (per_op(value), "s")
    samples = {"untraced_wall_s": walls["untraced"], "traced_wall_s": walls["traced"],
               "absent_targets": sorted(rec.absent)}
    return m, samples


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full result record."""
    spec = load_spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    tally = Tally()
    case = (CliCase if wl.kind == "cli" else VarCase)(wl, seed)
    try:
        if trace:
            metrics, samples = per_layer(case, tally, seconds, names)
        else:
            metrics, samples = end_to_end(case, tally, seconds)
    finally:
        case.cleanup()
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "reported": names,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cete" / "__init__.py").is_file():
        print(f"bench: no cete package under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one core for this process and its children, so operations do not migrate
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / (f"BENCH_{args.workload}_seed{args.seed}"
                          f"_trace{args.trace}.json")
    out_file.write_text(json.dumps(result, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# result file: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in result["reported"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
