"""Time-to-certificate benchmark for cyclobox.

    python3 perfbench/run.py --workload vertex-laws --seed 1 --seconds 40 --trace 0

Runs one workload's certification suite (suites.py) through cyclobox's
public API, alternating worker_count=1 and worker_count=2 passes until
--seconds are used, and checks every payload.  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it adds traced passes and reports
the per-layer metrics derived from their spans.  The last line of standard
output is one JSON object.  DESIGN.md defines every metric and its base.

Run it from the root of a checkout: it imports cyclobox from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPEATS = 3
SETUP_SAMPLES_PER_REPEAT = 2
SUM_TOLERANCE_S = 1e-6  # float rounding allowed in self times + unattributed = wall


@dataclass
class Pass:
    workers: int
    traced: bool
    start: float
    end: float = 0.0
    texts: dict = field(default_factory=dict)   # cell -> reports.to_json output
    errors: dict = field(default_factory=dict)  # cell -> exception text
    times: dict = field(default_factory=dict)   # cell -> seconds
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_pass(cells, workers: int, traced: bool = False) -> Pass:
    """One pass over the suite: each report, then its JSON, as the CLI emits it."""
    from cyclobox import reports

    run = Pass(workers, traced, time.perf_counter())
    for cell in cells:
        t0 = time.perf_counter()
        try:
            run.texts[cell.name] = reports.to_json(cell.call(workers))
        except Exception as exc:  # a report that raises is a failed operation
            run.errors[cell.name] = f"{type(exc).__name__}: {exc}"
        run.times[cell.name] = time.perf_counter() - t0
    run.end = time.perf_counter()
    return run


def traced_pass(cells, workers: int) -> Pass:
    import suites
    from tracer import Tracer

    with Tracer() as tracer:
        for module, attr, items in suites.traced_functions():
            tracer.wrap(module, attr, items)
        run = run_pass(cells, workers, traced=True)
    run.spans = tracer.spans
    return run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(cells, seconds: float, plan, before_repeat=None) -> tuple:
    """Repeat the plan's passes, (workers, traced) each, for about `seconds`.

    `before_repeat` runs at the start of every repeat, outside the passes.
    Also returns the peak RSS after the first pass, which runs one worker.
    With two workers, two chunks' temporaries overlap by thread timing, and
    later passes add allocator fragmentation; either would make the reading
    vary from run to run.
    """
    deadline = time.perf_counter() + seconds
    passes = []
    peak = None
    while True:
        t0 = time.perf_counter()
        if before_repeat is not None:
            before_repeat()
        for workers, traced in plan:
            passes.append(traced_pass(cells, workers) if traced else run_pass(cells, workers))
            peak = peak or peak_rss_mb()
        now = time.perf_counter()
        if len(passes) >= MIN_REPEATS * len(plan) and now + (now - t0) > deadline:
            return passes, peak


def measure_setup(workload: str, seed: int, count: int) -> list:
    """setup_s samples, each from a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, str(HERE / "setup_time.py"), workload, str(seed)]
    samples = []
    for _ in range(count):
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


# --- correctness ----------------------------------------------------------------

def _drop_worker_count(obj):
    if isinstance(obj, dict):
        return {k: _drop_worker_count(v) for k, v in obj.items() if k != "worker_count"}
    if isinstance(obj, list):
        return [_drop_worker_count(v) for v in obj]
    return obj


def canonical(text: str) -> str:
    return json.dumps(_drop_worker_count(json.loads(text)), sort_keys=True)


def check_passes(cells, passes) -> dict:
    """Problems per cell: raised, oracle mismatch, or a payload that differs
    (outside worker_count) from the cell's first payload in any other pass."""
    import suites

    problems = {cell.name: [] for cell in cells}
    first = {}
    for run in passes:
        for name, error in run.errors.items():
            problems[name].append(f"w{run.workers}: raises {error}")
        for name, text in run.texts.items():
            canon = canonical(text)
            if name not in first:
                first[name] = canon
                problems[name] += suites.payload_problems(json.loads(text))
            elif canon != first[name]:
                kind = "traced " if run.traced else ""
                problems[name].append(f"{kind}w{run.workers} payload differs from the first pass")
    return {name: sorted(set(found)) for name, found in problems.items()}


def digest(cells, run: Pass) -> str:
    h = hashlib.sha256()
    for cell in cells:
        h.update(f"{cell.name}\n{canonical(run.texts.get(cell.name, 'null'))}\n".encode())
    return h.hexdigest()


def run_probes(workload: str, seed: int) -> list:
    import suites

    results = []
    for name, probe in suites.probes(workload, seed):
        try:
            found = probe()
        except Exception as exc:  # the probe exists to catch an uncaught error
            found = [f"raises {type(exc).__name__}: {exc}"]
        results.append((name, found))
    return results


# --- per-layer metrics from spans ---------------------------------------------

def _empty_entry() -> dict:
    return {"calls": 0, "items": 0, "words": 0, "busy": 0.0, "self": 0.0}


def layer_summary(run: Pass) -> dict:
    """Per span name: calls, items, busy (summed duration) and self time."""
    from tracer import self_times, uncovered

    out = defaultdict(_empty_entry)
    box_words = 0
    for span, own in zip(run.spans, self_times(run.spans)):
        entry = out[span.name]
        entry["calls"] += 1
        entry["items"] += span.items or 0
        entry["busy"] += span.duration
        entry["self"] += own
        if span.name == "rng.words" and span.parent is not None \
                and run.spans[span.parent].name == "rng.box_offsets_at":
            box_words += span.items
    out["rng.box_offsets_at"]["words"] = box_words
    out["unattributed"]["self"] = uncovered(run.spans, run.start, run.end)
    return out


def exact_counts(summary: dict) -> dict:
    return {(name, key): value for name, entry in summary.items()
            for key, value in entry.items() if key in ("calls", "items", "words")}


def layer_metrics(cells, summary: dict, wall: float, untraced_w1: float,
                  untraced_w2: float, payloads: dict, probes_failed: int) -> dict:
    import suites

    def get(name, key):
        return summary.get(name, _empty_entry())[key]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "rng.words.calls": (get("rng.words", "calls"), "count"),
        "rng.words.count": (get("rng.words", "items"), "count"),
        "rng.words.busy_s": (get("rng.words", "busy"), "s"),
        "rng.vertex_signs.calls": (get("rng.vertex_signs", "calls"), "count"),
        "rng.vertex_signs.self_s": (get("rng.vertex_signs", "self"), "s"),
        "rng.box_offsets_at.calls": (get("rng.box_offsets_at", "calls"), "count"),
        "rng.box_offsets_at.self_s": (get("rng.box_offsets_at", "self"), "s"),
        "rng.box_offsets_at.accept_ratio": (
            ratio(get("rng.box_offsets_at", "items"), get("rng.box_offsets_at", "words")),
            "ratio"),
    }
    concentration_self = 0.0
    for name in suites.REPORT_FUNCTIONS[suites.concentration]:
        own = get(f"concentration.{name}", "self")
        concentration_self += own
        m[f"concentration.{name}.self_s"] = (own, "s")
    dist_evals = sum(cell.dist_evals for cell in cells)
    m["concentration.dist_evals"] = (dist_evals, "count")
    m["concentration.ns_per_dist"] = (ratio(concentration_self * 1e9, dist_evals), "ns")
    for name in suites.REPORT_FUNCTIONS[suites.visibility]:
        m[f"visibility.{name}.self_s"] = (get(f"visibility.{name}", "self"), "s")
    fractions = [p["visible_fraction"] for p in payloads.values()
                 if isinstance(p, dict) and "visible_fraction" in p]
    m["visibility.tuple_accept_ratio"] = (statistics.fmean(fractions) if fractions else 0.0,
                                          "ratio")
    enumerated = sum(cell.enumerated for cell in cells)
    oracle_busy = get("moments.oracle_moments", "busy")
    m["moments.oracle_moments.busy_s"] = (oracle_busy, "s")
    m["moments.enumerated"] = (enumerated, "count")
    m["moments.ns_per_enumerated"] = (ratio(oracle_busy * 1e9, enumerated), "ns")
    m["reports.to_json.busy_s"] = (get("reports.to_json", "busy"), "s")
    m["reports.to_json.bytes"] = (get("reports.to_json", "items"), "bytes")
    m["concentration.w2_speedup"] = (untraced_w1 / untraced_w2, "ratio")
    m["trace_overhead_frac"] = ((wall - untraced_w1) / untraced_w1, "ratio")
    m["traced_w1_s"] = (wall, "s")
    m["unattributed_s"] = (get("unattributed", "self"), "s")
    m["probes.failed"] = (probes_failed, "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def trace_metrics(cells, passes, w1: float, w2: float, probes_failed: int) -> tuple:
    """Per-layer metrics from the median traced w1 pass, and whether the
    trace checks hold: exact counts equal in every traced pass, and self
    times plus unattributed time equal to the pass's wall time."""
    traced = [r for r in passes if r.traced]
    w1_passes = sorted((r for r in traced if r.workers == 1), key=lambda r: r.wall)
    chosen = w1_passes[(len(w1_passes) - 1) // 2]
    summary = layer_summary(chosen)
    ok = True
    for run in traced:
        if exact_counts(layer_summary(run)) != exact_counts(summary):
            ok = False
            print(f"  FAILED: exact counts of a traced w{run.workers} pass differ")
    attributed = sum(entry["self"] for entry in summary.values())
    if abs(attributed - chosen.wall) > SUM_TOLERANCE_S:
        ok = False
        print(f"  FAILED: self times + unattributed = {attributed} s, "
              f"traced wall {chosen.wall} s")
    payloads = {name: json.loads(text) for name, text in chosen.texts.items()}
    return layer_metrics(cells, summary, chosen.wall, w1, w2, payloads, probes_failed), ok


# --- main -----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("vertex-laws", "box-points", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyclobox" / "__init__.py").is_file():
        print(f"perfbench: no cyclobox sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # One process, at most the two report workers computing: no BLAS pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import suites

    cells = suites.build_cells(args.workload, args.seed)
    plan = [(1, False), (2, False)] + ([(1, True), (2, True)] if args.trace else [])
    # Set-up samples are spread over the run, so a slow spell of the machine
    # moves a few of them rather than all.  The imports above have already
    # compiled the bytecode the children load.
    setup = []

    def sample_setup():
        setup.extend(measure_setup(args.workload, args.seed, SETUP_SAMPLES_PER_REPEAT))

    t0 = time.perf_counter()
    passes, peak_mb = measure(cells, args.seconds, plan,
                              None if args.trace else sample_setup)
    measured = time.perf_counter() - t0

    problems = check_passes(cells, passes)
    for cell in cells:
        if cell.reference is not None and not problems[cell.name]:
            try:
                problems[cell.name] += cell.reference()
            except Exception as exc:  # a raising reference run fails the cell
                problems[cell.name].append(f"reference run raises {type(exc).__name__}: {exc}")
    probe_results = run_probes(args.workload, args.seed)

    plain = {w: [r for r in passes if r.workers == w and not r.traced] for w in (1, 2)}
    w1 = statistics.median(r.wall for r in plain[1])
    w2 = statistics.median(r.wall for r in plain[2])
    print(f"workload {args.workload} seed {args.seed}: {len(plain[1])} repeats "
          f"in {measured:.1f} s; certify_s median w1 {w1:.4f} s, w2 {w2:.4f} s")
    print(f"payload sha256 {digest(cells, passes[0])}")
    for cell in cells:
        t1 = statistics.median(r.times[cell.name] for r in plain[1])
        t2 = statistics.median(r.times[cell.name] for r in plain[2])
        status = "ok" if not problems[cell.name] else "FAILED: " + "; ".join(problems[cell.name])
        print(f"  {cell.name:28s} w1 {t1:8.4f} s  w2 {t2:8.4f} s  {status}")
    for name, found in probe_results:
        state = "known defect still present: " + "; ".join(found) if found else "passes"
        print(f"  probe {name}: {state}")

    failed = sum(1 for found in problems.values() if found)
    correct = failed == 0
    if args.trace:
        probes_failed = sum(1 for _, found in probe_results if found)
        metrics, trace_ok = trace_metrics(cells, passes, w1, w2, probes_failed)
        correct = correct and trace_ok
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "certify_s.w1": {"value": w1, "unit": "s"},
            "certify_s.w2": {"value": w2, "unit": "s"},
            "ok_frac": {"value": (len(cells) - failed) / len(cells), "unit": "ratio"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(cells), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
