"""Tests of the benchmark itself: seeded inputs, corruptions, span
accounting and the metric lists.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import batch  # noqa: E402
import families  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from balpack import core  # noqa: E402


@pytest.fixture(scope="module")
def named_bases():
    return batch.build_bases()


@pytest.fixture(scope="module")
def bases(named_bases):
    return list(named_bases.values())


def _packing(doc):
    return core.parse_document(families.write_document(doc))[0]


def test_bases_match_the_pinned_digests(named_bases):
    assert len(named_bases) == len(reference.BATCH_BASES) == 84
    assert batch.check_bases(named_bases) == []
    changed = dict(named_bases, **{"latin-8": families.majority_positive(
        dict(named_bases["latin-8"], labels="-" * 8))})
    assert batch.check_bases(changed) == ["base latin-8: document differs from the reference"]


def test_writer_matches_to_json(bases):
    for doc in map(families.majority_positive, bases):
        assert core.to_json(_packing(doc)) == families.write_document(doc)


def test_same_seed_same_inputs_other_seed_other_inputs(bases):
    first = families.batch_inputs(bases, 7, 2)
    assert first == families.batch_inputs(bases, 7, 2)
    other = families.batch_inputs(bases, 8, 2)
    assert [x[0] for x in first] != [x[0] for x in other]
    # the same multiset of bases, each once intact and once corrupted
    assert sorted(x[1:] for x in first) == sorted(x[1:] for x in other)


def test_batch_inputs_keep_positive_majority_and_round_trip(bases):
    items = families.batch_inputs(bases, 3, 4)
    assert sum(expect for _, expect, _, _ in items) * 2 == len(items) == 4 * len(bases)
    for text, expect_pass, n_blocks, params in items:
        labels = json.loads(text)["labels"]
        assert labels.count("+") >= labels.count("-")
        packing = core.parse_document(text)[0]
        assert core.to_json(packing) == text
        report = core.verify(packing)
        assert report.passed == expect_pass and report.n_blocks == n_blocks


def test_corruptions_break_exactly_one_condition(bases):
    rng = random.Random(5)
    pair_seen = 0
    for doc in bases:
        bad = families.corrupt_pair(families.permute(doc, rng), rng)
        if bad is not None:
            pair_seen += 1
            report = core.verify(_packing(bad))
            assert not report.packing and report.balanced and report.regular
        report = core.verify(_packing(families.corrupt_flip(doc, rng)))
        assert not report.balanced and report.packing
    assert pair_seen > len(bases) // 2


def test_permutation_keeps_the_verdict(bases):
    rng = random.Random(9)
    for doc in bases[::7]:
        moved = families.permute(doc, rng)
        assert moved != doc
        before, after = core.verify(_packing(doc)), core.verify(_packing(moved))
        assert (after.passed, after.n_blocks, after.discrepancies) == (
            before.passed, before.n_blocks, before.discrepancies)


def test_certify_plan_is_seeded(tmp_path, bases):
    names = lambda jobs: [job.name for job in jobs]  # noqa: E731
    assert names(workloads.certify_jobs(1)) == names(workloads.certify_jobs(1))
    assert names(workloads.certify_jobs(1)) != names(workloads.certify_jobs(2))
    # every verify and derive runs after the construct it reads
    seen = set()
    for job in workloads.certify_jobs(3):
        if job.phase == "construct" and job.argv[0] == "construct":
            seen.add(job.argv[-1])
        else:
            assert job.argv[1].split(".")[0] + ".json" in seen | {"L.json"}

    def copies(seed):
        (tmp_path / "latin-120.json").write_text(families.write_document(bases[0]))
        workloads._copies("latin-120.json", seed)(tmp_path)
        return [(tmp_path / f"latin-120.{s}.json").read_text() for s in ("perm", "bad")]

    assert copies(4) == copies(4)
    assert copies(4) != copies(5)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up_to_the_outer_span():
    tracer = spans.Tracer("job-1")
    leaf = tracer.wrap("core.discrepancy", lambda: _busy(0.002))  # counted
    inner = tracer.wrap("core.verify", lambda: (_busy(0.003), leaf()))

    def body():
        _busy(0.004)
        inner()
        leaf()

    outer = tracer.wrap("cli.main", body)
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    totals = {}
    spans.summarize(json.loads(json.dumps({
        "spans": tracer.spans, "counts": tracer.counts, "bytes": {}, "misses": {}})),
        totals)
    assert totals["core.discrepancy"]["calls"] == 2
    assert [s[1] for s in tracer.spans] == ["core.verify", "cli.main"]
    verify_span, main_span = tracer.spans
    assert verify_span[4] == main_span[0] and verify_span[5] == "job-1"
    assert 0.003 <= totals["core.verify"]["self_s"] < 0.05
    layers = spans.layer_self(totals)
    assert layers["cli"] + layers["core"] == pytest.approx(totals["cli.main"]["s"])
    assert totals["cli.main"]["s"] <= wall


def test_summary_reports_the_percentile_with_ten_samples_beyond():
    assert set(run.summary([1.0] * 99)) == {"n", "median"}
    stats = run.summary(list(range(1, 101)))
    assert stats["median"] == 50.5 and stats["p90"] == 90
    assert "p99" in run.summary(list(range(1000)))


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
