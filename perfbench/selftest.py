"""Self-tests: the benchmark's checks must be able to fail.

    python3 perfbench/selftest.py

Each test feeds the checker a deliberately wrong input and requires it to
notice: a score one ulp off, responses out of order, an injected error
response, and a sharded server whose shard workers' memory the RSS probe
must count.  Exits non-zero if any check does not fire.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from serveproc import LoopResult, Record, ServeProcess, _vm_hwm_kb, process_tree  # noqa: E402
from workloads import Line, engine_flags, engine_kwargs  # noqa: E402


class CheckDidNotFire(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckDidNotFire(message)


def small_bundle():
    from repro.datasets import aminer_like

    return aminer_like(num_authors=40, num_terms=20, num_topics=4,
                       num_author_duplicates=2, num_term_duplicates=4, seed=5)


def served(engine, lines: list[Line]) -> list[dict]:
    """What a correct server answers for *lines*."""
    out = []
    for line in lines:
        if line.kind == "pair":
            value = float(engine.score(line.u, line.targets[0]))
            out.append({"u": line.u, "v": line.targets[0], "value": value})
        elif line.kind == "batch":
            values = [float(x) for x in engine.score_batch(line.u, list(line.targets))]
            out.append({"u": line.u, "candidates": list(line.targets), "values": values})
        else:
            results = [[str(n), float(s)] for n, s in engine.top_k(line.u, 10)]
            out.append({"u": line.u, "k": 10, "results": results})
    return out


def records_for(lines, payloads) -> list[Record]:
    return [
        Record(line, float(i), float(i) + 0.01, json.dumps(p).encode(), 0)
        for i, (line, p) in enumerate(zip(lines, payloads))
    ]


def fixture():
    from repro.api import QueryEngine

    bundle = small_bundle()
    engine = QueryEngine(bundle.graph, bundle.measure, **engine_kwargs())
    nodes = [str(n) for n in bundle.entity_nodes]
    u = nodes[0]
    lines = [Line("pair", f"{u} {v}", u, (v,)) for v in nodes[1:6]]
    lines.append(Line("batch", f"BATCH {u} " + " ".join(nodes[6:12]), u,
                      tuple(nodes[6:12])))
    lines.append(Line("topk", f"TOPK {u} 10", u))
    return engine, lines


def check(lines, payloads, engine):
    from verify import parse, replay

    report = parse(records_for(lines, payloads), [], False)
    replay(report, engine)
    return report


def test_exact_answers_pass(engine, lines) -> None:
    report = check(lines, served(engine, lines), engine)
    expect(report.ok and report.checked == len(lines),
           f"correct answers were flagged: {report.mismatches}")


def test_perturbed_score_is_a_mismatch(engine, lines) -> None:
    for index, field in ((0, "value"), (5, "values"), (6, "results")):
        payloads = served(engine, lines)
        target = payloads[index]
        if field == "value":
            target["value"] = math.nextafter(target["value"], 2.0)
        elif field == "values":
            target["values"][-1] = math.nextafter(target["values"][-1], 2.0)
        else:
            target["results"][-1][1] = math.nextafter(target["results"][-1][1], 2.0)
        report = check(lines, payloads, engine)
        expect(len(report.mismatches) == 1,
               f"a one-ulp change of a served {field} was not flagged")


def test_reordered_responses_are_flagged(engine, lines) -> None:
    payloads = served(engine, lines)
    payloads[1], payloads[2] = payloads[2], payloads[1]
    report = check(lines, payloads, engine)
    expect(not report.ok, "two swapped responses were not flagged")


def test_injected_error_raises_error_share(engine, lines) -> None:
    from run import e2e_metrics
    from verify import Accuracy, parse

    payloads = served(engine, lines)
    payloads[3] = {"error": "injected", "kind": "internal"}
    records = records_for(lines, payloads)
    loop = LoopResult(records, 0.0, float(len(records)), [], False, 1.0)
    report = parse(records, [], False)
    acc = Accuracy(topk_overlap_at10=0.5, topk_samples=1, abs_err_p99=0.01,
                   abs_err_mean=0.001, err_samples=1, bound_violation_share=0.0,
                   bound_samples=1)
    metrics = e2e_metrics(loop, report, acc)
    expect(metrics["error_share"]["value"] == 1 / len(lines),
           f"error_share is {metrics['error_share']['value']}, not 1/{len(lines)}")
    expect(metrics["ok_share"]["value"] < 1.0, "ok_share did not drop")


def test_sharded_rss_counts_shard_workers() -> None:
    from repro.datasets.io import save_bundle_json

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        bundle_path = work / "bundle.json"
        save_bundle_json(small_bundle(), bundle_path)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, "-m", "repro", "index", "build", str(bundle_path),
             "--out", str(work / "index")] + engine_flags(),
            env=env, check=True, capture_output=True, timeout=300,
        )
        server = ServeProcess(
            [sys.executable, "-m", "repro", "serve", "--index",
             str(work / "index"), "--shards", "2", "--workers", "2"],
            env=env, cwd=ROOT, log=work / "serve.log",
        )
        try:
            server.wait_ready()
            tree = process_tree(server.proc.pid)
            own = _vm_hwm_kb(server.proc.pid) / 1024.0
            total = server.peak_rss_mb()
        finally:
            server.close()
        expect(len(tree) >= 3, f"shard workers missing from the tree {tree}")
        expect(total > own * 1.5,
               f"peak_rss_mb {total:.1f} does not include the shard workers "
               f"(server alone {own:.1f})")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    engine, lines = fixture()
    tests = {
        "exact answers pass":
            lambda: test_exact_answers_pass(engine, lines),
        "perturbed score is a mismatch":
            lambda: test_perturbed_score_is_a_mismatch(engine, lines),
        "reordered responses are flagged":
            lambda: test_reordered_responses_are_flagged(engine, lines),
        "injected error raises error_share":
            lambda: test_injected_error_raises_error_share(engine, lines),
        "sharded peak_rss_mb counts shard workers":
            test_sharded_rss_counts_shard_workers,
    }
    failed = 0
    for name, test in tests.items():
        try:
            test()
            print(f"ok    {name}")
        except CheckDidNotFire as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
