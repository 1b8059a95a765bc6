"""End-to-end benchmark of ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload hot-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each run builds the workload's index from a generated bundle, starts
``repro serve`` as a subprocess (``setup_s`` is the median of
:data:`SETUP_REPEATS` set-ups), drives it from one closed-loop client for
``--seconds``, then checks every answer bit for bit against an in-process
engine and scores it against the exact iterative oracle.  ``--trace 1``
instead reports per-layer metrics from a traced run (see ``tracing.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable table and the full
result (every metric with its sample count, plus provenance) go to
standard error and to ``.perfbench/results/``.  The exit code is non-zero
when any answer mismatches or the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
#: The first second after the banner ran ~30% slow (caches filling).
WARMUP_S = 2.0

sys.path.insert(0, str(HERE))

from serveproc import ServeProcess, closed_loop  # noqa: E402
from workloads import (  # noqa: E402
    SERVE_WORKERS,
    WORKLOADS,
    engine_flags,
    engine_kwargs,
    related_targets,
    stream,
)

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        print_table(result)
        save_result(result)
    correct = all(r["correct"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": (
            results[0]["reported"] if len(results) == 1 else {
                f"{r['workload']}.{k}": v
                for r in results for k, v in r["reported"].items()
            }
        ),
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run of workload *name*; returns its full result."""
    from verify import cached_oracle

    workload = WORKLOADS[name]
    work = STATE / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bundle = workload.graph.build()
        oracle = cached_oracle(
            STATE / "oracle" / f"{workload.graph.name}.npz",
            bundle.graph, bundle.measure,
        )
        related = related_targets(oracle, [str(e) for e in bundle.entity_nodes])
        run = Run(workload, seed, seconds, work, bundle, oracle, related)
        if trace:
            from tracing import traced_run

            return traced_run(run)
        return run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Run:
    """Everything one workload run needs, and the untraced measurement."""

    def __init__(self, workload, seed, seconds, work, bundle, oracle, related):
        from repro.datasets.io import load_bundle_json, save_bundle_json

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.oracle = oracle
        self.related = related
        self.bundle_path = work / "bundle.json"
        save_bundle_json(bundle, self.bundle_path)
        # What the server reads: the reload's in-neighbour order differs
        # from the generator's, and walk repair depends on that order.
        self.bundle = load_bundle_json(self.bundle_path)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("REPRO_BACKEND", None)
        self.serve_argv: list[str] = []
        self.banner: dict = {}

    def lines(self):
        """This run's request stream."""
        return stream(self.workload.name, self.seed, self.bundle, self.related)

    # -- set-up ---------------------------------------------------------
    def start_server(self, attempt: int, extra: tuple = ()) -> ServeProcess:
        """Bundle on disk -> ready banner: the work ``setup_s`` times."""
        workload = self.workload
        python = [sys.executable, "-m", "repro"]
        where = self.work / f"setup-{attempt}"
        where.mkdir()
        if workload.setup == "index":
            self.index_path = where / "index"
            build = subprocess.run(
                python + ["index", "build", str(self.bundle_path),
                          "--out", str(self.index_path)] + engine_flags(),
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, timeout=300,
            )
            if build.returncode != 0:
                raise RuntimeError(f"index build failed: {build.stdout[-2000:]!r}")
            flags = ["serve", "--index", str(self.index_path),
                     "--workers", str(SERVE_WORKERS)]
        else:
            self.cache_path = where / "cache"
            flags = ["serve", str(self.bundle_path), "--cache",
                     str(self.cache_path), "--workers", str(SERVE_WORKERS)]
            flags += engine_flags()
        flags += list(extra)
        self.serve_argv = flags
        server = ServeProcess(python + flags, env=self.env, cwd=ROOT,
                              log=where / "serve.log")
        self.banner = server.wait_ready()
        return server

    def reference_engine(self):
        """Generation 0 in-process: the same artifact the server opened."""
        from repro.api import QueryEngine

        if self.workload.setup == "index":
            return QueryEngine.open(self.index_path)
        return QueryEngine(
            self.bundle.graph, self.bundle.measure, cache_dir=self.cache_path,
            **engine_kwargs(),
        )

    # -- measurement ----------------------------------------------------
    def session(self, server, seconds: float, warmup_s: float):
        """Drive *server* with the run's stream, then check every answer.

        Returns the loop, the check report and ``(answer, oracle)`` pairs
        for accuracy scoring: each read against its generation's oracle.
        """
        from verify import compute_oracle, parse, replay

        loop = closed_loop(
            server, self.lines(), window=self.workload.window,
            warmup_s=warmup_s, seconds=seconds,
        )
        report = parse(loop.records, loop.unexpected, loop.stalled)
        engines = replay(report, self.reference_engine())
        # writes change edges only, so every generation shares sem
        oracles = {0: self.oracle}
        for generation, engine in engines.items():
            if generation:
                oracles[generation] = compute_oracle(
                    engine.graph, self.bundle.measure, self.oracle.sem,
                )
        scored = [(a, oracles[a.record.generation]) for a in report.answers
                  if a.record.generation in oracles]
        return loop, report, scored

    def measure(self) -> dict:
        """Set up :data:`SETUP_REPEATS` times, then measure the last server."""
        from verify import accuracy

        setups = []
        for number in range(SETUP_REPEATS):
            if number:
                server.close()
                shutil.rmtree(self.work / f"setup-{number - 1}")
            started = time.perf_counter()
            server = self.start_server(number)
            setups.append(time.perf_counter() - started)
        loop, report, scored = self.session(server, self.seconds, WARMUP_S)
        metrics = e2e_metrics(loop, report, accuracy(scored))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                              "samples": len(setups), "all": setups}
        return self.result(loop, report, metrics, trace=False)

    def result(self, loop, report, metrics: dict, *, trace: bool) -> dict:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if trace else "end_to_end"]
        reported = {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        }
        counts: dict[str, int] = {}
        for record in loop.records:
            counts[record.line.kind] = counts.get(record.line.kind, 0) + 1
        return {
            "workload": self.workload.name,
            "why": next(w["why"] for w in spec["workloads"]
                        if w["name"] == self.workload.name),
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": trace,
            "correct": report.ok,
            "attempted": report.lines,
            "failed": report.errors + len(report.mismatches),
            "mismatches": report.mismatches[:20],
            "answers_checked": report.checked,
            "metrics": metrics,
            "reported": reported,
            "provenance": provenance(self, counts),
        }


def percentile_ms(values: list[float], q: float) -> dict:
    """A latency percentile in ms with the sample count behind it."""
    import numpy as np

    if not values:
        return {"value": float("nan"), "unit": "ms", "samples": 0}
    return {"value": float(np.percentile(values, q)) * 1e3, "unit": "ms",
            "samples": len(values), "beyond": int(len(values) * (100 - q) / 100)}


def latencies(records) -> dict[str, list[float]]:
    by_kind: dict[str, list[float]] = {}
    for record in records:
        kind = "update" if record.line.is_write else record.line.kind
        by_kind.setdefault(kind, []).append(record.received - record.sent)
    return by_kind


def measured_window(loop) -> tuple[float, float, list]:
    """The timed window and the records sent inside it.

    With writes in the stream the window is cut to whole write cycles (from
    the first write sent in it to the last), so every run measures the same
    mix of writes, reads stalled behind them and reads.
    """
    lo, hi = loop.start, loop.end
    writes = [r.sent for r in loop.records
              if r.line.is_write and lo <= r.sent < hi]
    if len(writes) >= 2:
        lo, hi = writes[0], writes[-1]
    return lo, hi, [r for r in loop.records if lo <= r.sent < hi]


def e2e_metrics(loop, report, acc) -> dict:
    """Every end-to-end metric but ``setup_s``, each with its sample count."""
    import numpy as np

    lo, hi, measured = measured_window(loop)
    lat = latencies(measured)
    reads = [t for kind, values in lat.items() if kind != "update" for t in values]
    error_share = report.errors / max(1, report.lines)
    metrics = {
        "peak_rss_mb": {"value": loop.peak_rss_mb, "unit": "MB", "samples": 1},
        "qps": {"value": len(measured) / (hi - lo), "unit": "1/s",
                "samples": len(measured)},
        "error_share": {"value": error_share, "unit": "share",
                        "samples": report.lines},
        # the complements are never 0, which the benchmark contract needs
        "ok_share": {"value": 1.0 - error_share, "unit": "share",
                     "samples": report.lines},
        # every read line, so its mean rests on thousands of samples; on
        # rw it includes the reads queued behind each write
        "read_mean_ms": {"value": float(np.mean(reads)) * 1e3 if reads else float("nan"),
                         "unit": "ms", "samples": len(reads)},
        "pair_p50_ms": percentile_ms(lat.get("pair", []), 50),
        "pair_p75_ms": percentile_ms(lat.get("pair", []), 75),
        "pair_p90_ms": percentile_ms(lat.get("pair", []), 90),
        "pair_p99_ms": percentile_ms(lat.get("pair", []), 99),
        "batch_p50_ms": percentile_ms(lat.get("batch", []), 50),
        "batch_p90_ms": percentile_ms(lat.get("batch", []), 90),
        "topk_p50_ms": percentile_ms(lat.get("topk", []), 50),
        "topk_p75_ms": percentile_ms(lat.get("topk", []), 75),
        "topk_p90_ms": percentile_ms(lat.get("topk", []), 90),
        "update_p50_ms": percentile_ms(lat.get("update", []), 50),
        "topk_overlap_at10": {"value": acc.topk_overlap_at10, "unit": "share",
                              "samples": acc.topk_samples},
        "abs_err_p99": {"value": acc.abs_err_p99, "unit": "score",
                        "samples": acc.err_samples},
        "abs_err_mean": {"value": acc.abs_err_mean, "unit": "score",
                         "samples": acc.err_samples},
        "bound_violation_share": {"value": acc.bound_violation_share,
                                  "unit": "share", "samples": acc.bound_samples},
        "bound_kept_share": {"value": 1.0 - acc.bound_violation_share,
                             "unit": "share", "samples": acc.bound_samples},
    }
    return {k: v for k, v in metrics.items() if v["samples"]}


def provenance(run: Run, counts: dict) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": run.banner.get("backend"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": run.seed,
        "window": run.workload.window,
        "warmup_s": WARMUP_S,
        "serve_flags": [f for f in run.serve_argv if not f.startswith(str(ROOT))],
        "graph": run.workload.graph.name,
        "lines_per_kind": counts,
    }


def print_table(result: dict) -> None:
    out = sys.stderr
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])} correct={result['correct']} "
          f"lines={result['attempted']} checked={result['answers_checked']}",
          file=out)
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"n={metric['samples']}", file=out)
    for line in result["mismatches"]:
        print(f"  MISMATCH {line}", file=out)


def save_result(result: dict) -> None:
    folder = STATE / "results"
    folder.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    (folder / name).write_text(json.dumps(result, indent=1, default=float))


if __name__ == "__main__":
    sys.exit(main())
