"""balpack benchmark: one workload, one seed, checked outputs, named metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program under test is that
checkout's ``src``.  Workloads (see BENCHMARK.json and bench/METRICS.md):

    certify-large  ``balpack construct`` then ``verify`` on a permuted and a
                   corrupted copy of ten large families, one process per job
    oracle-exact   ``balpack oracle`` to exactness on six small instances,
                   a witness round trip and the randomized baseline
    verify-batch   one library process: parse, verify, bound and
                   re-serialise a few thousand small families in memory

The runner is a closed loop with one client: one job at a time, and at most
one child process alongside it.  After setting up (repeated, the median is
reported) it runs one discarded warm-up pass, then timed passes until
``--seconds`` have passed, at least one.  The CLI workloads warm up on a
short job list that runs every subcommand once: each job is a fresh
process, so a full pass would warm nothing more than the first import
does.  ``--trace 1`` adds one untraced pass and then runs the timed passes
under the tracing launcher, and reports per-layer metrics instead of
end-to-end ones.

Times are in calibrated seconds (see calibrate.py): each job's wall time
is scaled by a fixed slice of pure-Python work timed around it, because the
speed of a shared CPU drifts from one minute to the next.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (samples, percentiles, failures, machine load).
"""

from __future__ import annotations

import argparse
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

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = {
    "certify-large": workloads.certify_jobs,
    "oracle-exact": workloads.oracle_jobs,
    "verify-batch": None,
}
SETUP_REPS = 7  # spawn-and-import repetitions
JOB_TIMEOUT = 150
IMPORT_REPS = 7  # traced run: interpreter start with and without the import
PHASES = ("construct", "verify", "oracle")

# bounded in BENCHMARK.json; construct_s, verify_s, oracle_s and fail_share
# are printed in the detail line (each is zero or one short job somewhere)
END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> unit; "<function>.<s|self_s|calls|bytes|misses>" read
# from the spans, the rest computed in layer_metrics()
PER_LAYER = {
    "core.max_pairwise_intersection.s": "s",
    "core.is_packing.s": "s",
    "core.discrepancy.s": "s",
    "core.discrepancy.calls": "count",
    "core.verify.s": "s",
    "core.verify.self_s": "s",
    "core.verify.calls": "count",
    "core.parse_document.s": "s",
    "core.parse_document.bytes": "bytes",
    "core.to_json.s": "s",
    "core.to_json.bytes": "bytes",
    "core.BalancedPacking.validate_s": "s",
    "core.derive_subdesign.s": "s",
    "gf.make_field.s": "s",
    "gf.make_field.misses": "count",
    "gf.eval_poly.s": "s",
    "gf.eval_poly.calls": "count",
    "gf.mul.calls": "count",
    "gf.add.calls": "count",
    "gf.discrete_index.s": "s",
    "gf.index_of.calls": "count",
    "latin.fill.self_s": "s",
    "latin.extract_triples.self_s": "s",
    "factorization.triples_from_factorization.self_s": "s",
    "factorization.large_set_sts.self_s": "s",
    "factorization.mds_product.self_s": "s",
    "factorization.load_large_set.self_s": "s",
    "transversal.construct_td.self_s": "s",
    "transversal.construct_td_sum.self_s": "s",
    "transversal.augment_34.self_s": "s",
    "transversal.augment_34_char2.self_s": "s",
    "babai_frankl.construct.self_s": "s",
    "sumcode.construct.self_s": "s",
    "bounds.lemma1_bound.s": "s",
    "bounds.lemma1_bound.calls": "count",
    "bounds.theorem1_gap.s": "s",
    "bounds.theorem1_gap.calls": "count",
    "oracle.max_balanced_packing.s": "s",
    "oracle.nodes": "count",
    "oracle.nodes_per_s": "1/s",
    "oracle.splits": "count",
    "oracle.root_bound_ratio": "ratio",
    "oracle.structured_random.s": "s",
    "oracle.baseline_retained_ratio": "ratio",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
}


class Tally:
    """Jobs (or families) checked, and the first few problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, name, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {problem}")


# ---------------------------------------------------------------------------
# machine and statistics
# ---------------------------------------------------------------------------


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def git_commit(root: Path):
    """HEAD's commit, read from .git without starting git; None outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summary(samples):
    """Median, sample count, and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it (nearest rank)."""
    out = {"n": len(samples)}
    if not samples:
        return out
    ordered = sorted(samples)
    out["median"] = statistics.median(ordered)
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (100 - p) / 100 >= 10:
            rank = -(-p * len(ordered) // 100)
            out[f"p{p:g}"] = ordered[int(rank) - 1]
            break
    return out


def median_pass(passes, key) -> float:
    """The pass time from the median of each part (job, or chunk of
    families) over the timed passes: one slow stretch of the machine then
    moves one part's sample, not the reported value."""
    return sum(statistics.median(part) for part in zip(*(p[key] for p in passes)))


def spawn_s(env, code) -> float:
    # Output is piped so that the end of the child is seen at once: with a
    # timeout and no pipe, subprocess polls for the exit every 50 ms.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, timeout=JOB_TIMEOUT)
    return time.perf_counter() - start


def import_overhead_s(env) -> float:
    """Start-up of ``import balpack.cli`` minus that of a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        bare.append(spawn_s(env, "pass"))
        full.append(spawn_s(env, "import balpack.cli"))
    return statistics.median(full) - statistics.median(bare)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def _oracle_stats(job, out, jobdir, stats):
    answer = workloads.oracle_answer(out)
    if answer is not None:
        size, nodes = answer
        stats["nodes"] += nodes
        stats["answer"] += size
        if job.log:
            with open(jobdir / job.log, encoding="ascii") as fh:
                events = [json.loads(line) for line in fh]
            stats["splits"] += len({e["labeling"] for e in events})
            stats["root_bound"] += max(e["bound"] for e in events)
    retained = workloads.baseline_retained(out)
    if retained is not None:
        stats["retained"] += retained[0]
        stats["trials"] += retained[1]


def cli_pass(jobs, workdir: Path, env, tally, traced=False) -> dict:
    """One pass over the job list.  pass_s is the sum of the jobs' wall
    times, from process start to exit; making the seeded copies and
    checking outputs in between is not timed."""
    jobdir = workdir / "jobs"
    shutil.rmtree(jobdir, ignore_errors=True)
    jobdir.mkdir()
    spans_path = workdir / "spans.json"
    rec = {"totals": {},
           "oracle": dict.fromkeys(("nodes", "answer", "splits", "root_bound",
                                    "retained", "trials"), 0)}
    raw, slices = [], [calibrate.slice_s()]
    for job in jobs:
        problem = None
        if job.prepare is not None:
            try:
                job.prepare(jobdir)
            except (OSError, ValueError, KeyError) as exc:
                problem = f"preparing the input failed: {exc}"
        argv = list(job.argv)
        if traced:
            if job.log and "--log" not in argv:
                argv += ["--log", job.log]
            cmd = [sys.executable, str(BENCH / "launch.py"), str(spans_path),
                   job.name, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "balpack.cli", *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=jobdir, env=env, capture_output=True,
                                  text=True, timeout=JOB_TIMEOUT)
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            rc, out, err = None, "", "timed out"
        raw.append(time.perf_counter() - start)
        if problem is None:
            try:
                problem = job.check(rc, out, err, jobdir)
            except (OSError, ValueError, KeyError) as exc:
                problem = f"checking the output failed: {type(exc).__name__}: {exc}"
        tally.add(job.name, problem)
        if traced and spans_path.exists():
            with open(spans_path, encoding="ascii") as fh:
                spans.summarize(json.load(fh), rec["totals"])
            spans_path.unlink()
            if job.phase == "oracle" and problem is None:
                _oracle_stats(job, out, jobdir, rec["oracle"])
        slices.append(calibrate.slice_s())
    latencies = calibrate.scaled(raw, slices)
    rec.update(pass_s=sum(latencies), raw_pass_s=sum(raw), latencies=latencies,
               parts=latencies)
    for phase in PHASES:
        rec[f"{phase}_parts"] = [t if job.phase == phase else 0.0
                                 for t, job in zip(latencies, jobs)]
        rec[f"{phase}_s"] = sum(rec[f"{phase}_parts"])
    return rec


def import_reps(env) -> dict:
    """The part of ``setup_s`` common to every workload: starting an
    interpreter that imports ``balpack.cli``, SETUP_REPS times."""
    return calibrate.timed_reps(SETUP_REPS, lambda: spawn_s(env, "import balpack.cli"))


def run_cli(jobs_fn, seed, seconds, traced, workdir, env) -> dict:
    # the job list is argv tuples; the seeded copies are made between jobs
    setup = import_reps(env)
    jobs = jobs_fn(seed)
    tally = Tally()
    res = {"setup_s": statistics.median(setup["scaled"]), "setup_samples": setup,
           "tally": tally}
    res["warm_s"] = cli_pass(jobs_fn(seed, warm_up=True), workdir, env, tally)["raw_pass_s"]
    if traced:
        res["untraced"] = [cli_pass(jobs, workdir, env, tally)]
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(cli_pass(jobs, workdir, env, tally, traced))
    res["passes"] = passes
    if traced:
        res["cli.import_s"] = import_overhead_s(env)
    return res


# ---------------------------------------------------------------------------
# verify-batch
# ---------------------------------------------------------------------------


def run_batch(seed, seconds, traced, workdir, env) -> dict:
    imp = import_reps(env)
    spans_path = workdir / "spans.json"
    cmd = [sys.executable, str(BENCH / "batch.py"), "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"verify-batch child failed:\n{proc.stderr[-2000:]}")
    child = json.loads(proc.stdout.splitlines()[-1])
    tally = Tally()
    for p in [child["bases"], child["warm"], *child["untraced"], *child["passes"]]:
        tally.attempted += p["attempted"] - len(p["errors"])
        for problem in p["errors"]:
            tally.add("verify-batch", problem)
    res = {"setup_s": (statistics.median(child["setup"]["scaled"])
                       + statistics.median(imp["scaled"])),
           "setup_samples": {"generate_s": child["setup"], "import_s": imp},
           "tally": tally, "warm_s": child["warm"]["raw_pass_s"],
           "untraced": child["untraced"], "passes": child["passes"]}
    for p in res["passes"]:
        for phase in ("construct", "oracle"):
            p[f"{phase}_s"] = 0.0
            p[f"{phase}_parts"] = [0.0]
    if traced:
        totals = {}
        with open(spans_path, encoding="ascii") as fh:
            spans.summarize(json.load(fh), totals)
        for p in res["passes"]:
            p["oracle"] = {}
            p["totals"] = {}
        res["passes"][0]["totals"] = totals
        res["cli.import_s"] = import_overhead_s(env)
    return res


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(res) -> tuple:
    """Per-layer metrics as means over the traced passes, and the check that
    the layers' self times add up to the traced pass time."""
    passes = res["passes"]
    n = len(passes)
    totals = {}
    for p in passes:
        for name, entry in p["totals"].items():
            acc = totals.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
    oracle = {}
    for p in passes:
        for key, value in p["oracle"].items():
            oracle[key] = oracle.get(key, 0) + value

    def span(name, key):
        return totals.get(name, {}).get(key, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    layers = spans.layer_self(totals)
    metrics = {}
    for metric in PER_LAYER:
        head, _, key = metric.rpartition(".")
        if head in layers and key == "self_s":
            value = layers[head] / n
        elif metric == "core.BalancedPacking.validate_s":
            value = span("core.BalancedPacking.validate", "s")
        elif metric == "cli.import_s":
            value = res["cli.import_s"]
        elif metric == "oracle.nodes":
            value = oracle.get("nodes", 0) / n
        elif metric == "oracle.nodes_per_s":
            value = ratio(oracle.get("nodes", 0),
                          totals.get("oracle.max_balanced_packing", {}).get("s", 0))
        elif metric == "oracle.splits":
            value = oracle.get("splits", 0) / n
        elif metric == "oracle.root_bound_ratio":
            value = ratio(oracle.get("root_bound", 0), oracle.get("answer", 0))
        elif metric == "oracle.baseline_retained_ratio":
            value = ratio(oracle.get("retained", 0), oracle.get("trials", 0))
        else:
            value = span(head, key)
        metrics[metric] = value
    # the overhead compares calibrated pass times (measured at different
    # moments); the layers' self times add up against the raw traced time
    traced_s = statistics.mean(p["pass_s"] for p in passes)
    untraced_s = statistics.mean(p["pass_s"] for p in res["untraced"])
    raw_s = statistics.mean(p["raw_pass_s"] for p in passes)
    accounted = sum(layers.values()) / n
    check = {
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "overhead_s": traced_s - untraced_s,
        "overhead_share": ratio(traced_s - untraced_s, untraced_s),
        "traced_raw_pass_s": raw_s,
        "layer_self_s": {k: v / n for k, v in layers.items()},
        "unaccounted_s": raw_s - accounted,
        "unaccounted_share": ratio(raw_s - accounted, raw_s),
    }
    return metrics, check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "balpack" / "cli.py").is_file():
        print(f"error: no balpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for the runner, its calibration slices and every child (they
    # inherit the mask): the two vCPUs of a shared host drift independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    machine = {"python": platform.python_version(), "commit": git_commit(ROOT),
               "nproc": os.cpu_count(), "loadavg_start": loadavg()}
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    traced = bool(args.trace)
    try:
        if args.workload == "verify-batch":
            res = run_batch(args.seed, args.seconds, traced, workdir, env)
        else:
            res = run_cli(WORKLOADS[args.workload], args.seed, args.seconds, traced,
                          workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    machine["loadavg_end"] = loadavg()

    tally = res["tally"]
    passes = res["passes"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **machine,
        "fail_share": {"value": tally.failed / tally.attempted, "unit": "ratio",
                       "failed": tally.failed, "attempted": tally.attempted},
        "errors": tally.errors,
        "setup_samples": res["setup_samples"],
        "warm_up_pass_s": res["warm_s"],
        "job_s": {"unit": "s", **summary([x for p in passes for x in p["latencies"]])},
    }
    # value: the reported figure (median_pass); the rest describes the
    # per-pass sums it comes from
    detail["pass_s"] = {"value": median_pass(passes, "parts"), "unit": "s",
                        **summary([p["pass_s"] for p in passes])}
    for phase in PHASES:
        detail[f"{phase}_s"] = {"value": median_pass(passes, f"{phase}_parts"),
                                "unit": "s",
                                **summary([p[f"{phase}_s"] for p in passes])}
    detail["raw_pass_s"] = {"unit": "s", **summary([p["raw_pass_s"] for p in passes])}
    if traced:
        values, detail["trace_check"] = layer_metrics(res)
        units = PER_LAYER
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        values = {
            "pass_s": detail["pass_s"]["value"],
            "setup_s": res["setup_s"],
            "peak_rss_mib": rss,
        }
        units = END_TO_END
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
