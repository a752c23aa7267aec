"""Tests of the benchmark's own machinery: span arithmetic and seed derivation.

    python3 -m pytest perfbench -q
"""

import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import suites  # noqa: E402
from tracer import Span, Tracer, self_times, uncovered, union_length  # noqa: E402


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == 4.0
    assert union_length([(2, 2), (3, 1)]) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        Span("report", 0.0, 10.0, None, 1),
        Span("signs", 1.0, 4.0, 0, 1),
        Span("words", 1.5, 2.0, 1, 1),
        Span("signs", 5.0, 6.0, 0, 1),
        Span("to_json", 11.0, 12.0, None, 1),
    ]
    assert self_times(spans) == [6.0, 2.5, 0.5, 1.0, 1.0]
    # Self times partition the covered part of the window; the rest is uncovered.
    assert uncovered(spans, -1.0, 13.0) == 3.0
    assert sum(self_times(spans)) + uncovered(spans, -1.0, 13.0) == 14.0


def test_self_time_with_overlapping_children_on_two_threads():
    spans = [
        Span("report", 0.0, 10.0, None, 1),
        Span("signs", 1.0, 5.0, 0, 2),
        Span("signs", 3.0, 7.0, 0, 3),
        Span("signs", 9.0, 11.0, 0, 2),  # outlives its parent: only [9, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _fake_module():
    module = types.ModuleType("fake.layer")

    def leaf(n):
        time.sleep(0.01)
        return list(range(n))

    def report(workers):
        # Resolve `leaf` through the module, as cyclobox's reports resolve rng.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return [f.result() for f in [pool.submit(module.leaf, k) for k in (1, 2, 3, 4)]]

    module.leaf, module.report = leaf, report
    return module


def test_tracer_carries_parent_across_worker_threads_and_restores():
    module = _fake_module()
    originals = (module.leaf, module.report)
    with Tracer() as tracer:
        tracer.wrap(module, "leaf", len)
        tracer.wrap(module, "report")
        module.report(2)
    assert (module.leaf, module.report) == originals

    spans = tracer.spans
    (root,) = [i for i, s in enumerate(spans) if s.parent is None]
    leaves = [s for s in spans if s.name == "layer.leaf"]
    assert spans[root].name == "layer.report"
    assert len(leaves) == 4 and all(s.parent == root for s in leaves)
    assert {s.thread for s in leaves} != {threading.get_ident()}
    assert sorted(s.items for s in leaves) == [1, 2, 3, 4]
    own = self_times(spans)[root]
    covered = union_length([(s.start, s.end) for s in leaves])
    assert own == pytest.approx(spans[root].duration - covered)
    assert own < spans[root].duration - 0.015  # two workers: children overlap


def _seeds_and_alphas(workload, seed):
    return [(c.name, c.seed, c.alpha) for c in suites.build_cells(workload, seed)]


@pytest.mark.parametrize("workload", suites.WORKLOADS)
def test_workload_seed_alone_determines_report_seeds_and_alphas(workload):
    first = _seeds_and_alphas(workload, 7)
    assert first == _seeds_and_alphas(workload, 7)
    other = _seeds_and_alphas(workload, 8)
    assert [name for name, _, _ in first] == [name for name, _, _ in other]
    for (name, seed, alpha), (_, seed2, alpha2) in zip(first, other):
        if seed is not None:
            assert seed != seed2, name
        if alpha is not None:
            assert alpha != alpha2, name
    seeds = [seed for _, seed, _ in first if seed is not None]
    assert len(set(seeds)) == len(seeds)


def test_exact_workload_draws_its_box_point_from_the_seed():
    drawn = [c for c in suites.build_cells("exact", 7) if c.alpha is not None]
    assert len(drawn) == 1 and all(abs(a) <= 2 for a in drawn[0].alpha)
