"""The verify-batch workload: one library process, a few thousand small
families held in memory as file texts.

For each family it runs ``parse_document`` -> ``verify`` ->
``bounds.theorem1_gap`` (where its preconditions hold) -> ``to_json``, and
checks the verdict, the block count and that the output matches the input
byte for byte.  The package is called through module attributes at call
time, so the traced run sees the same calls through its wrappers.

    python3 bench/batch.py --seed N --seconds S [--spans FILE]

The runner starts it as one child and reads the JSON line it prints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import calibrate
import families
import reference
import spans

# (q, k, t) and (t, k, q): v <= 40 and at most 125 blocks
BABAI_FRANKL = ((3, 3, 2), (5, 4, 2), (7, 4, 2), (8, 4, 2), (9, 4, 2), (7, 5, 2),
                (4, 4, 3), (5, 5, 3))
TRANSVERSAL = ((2, 3, 9), (2, 4, 7), (2, 5, 8), (3, 4, 4), (3, 4, 5))
COPIES = 24  # of each of the 84 bases: 2016 families, half of them corrupted
SETUP_REPS = 5
CHUNK = 100  # families between calibration slices


def _document(p) -> dict:
    labels = "".join("+" if s == 1 else "-" for s in p.labeling.signs)
    return {"v": p.v, "t": p.t, "k": p.k, "labels": labels, "blocks": list(p.blocks)}


def build_bases() -> dict:
    """Small families (v <= 40, at most 336 blocks) from every construct
    route, by name."""
    from balpack import babai_frankl, cli, core, factorization, sumcode, transversal

    packings = {f"latin-{v}": cli.latin_dispatch(v) for v in range(8, 41)}
    for m in (2, 4):
        packings[f"augment34-m{m}"] = transversal.augment_34(m)
        packings[f"augment34-char2-m{m}"] = transversal.augment_34_char2(m)
    for q, k, t in BABAI_FRANKL:
        packings[f"babai-frankl-{q}-{k}-{t}"] = babai_frankl.construct(q, k, t)
    for t, k, q in TRANSVERSAL:
        td = transversal.construct_td(t, k, q)
        packings[f"td-{t}-{k}-{q}"] = core.BalancedPacking(
            td.v, td.t, td.k, transversal.label_groups(td), td.blocks)
    for k, top in ((3, 40), (4, 22), (5, 16)):
        for v in range(8, top + 1, 2):
            packings[f"sum-{v}-{k}"] = sumcode.construct(v, k)
    packings["mds45-lts9-8"] = factorization.mds_45_product(
        factorization.large_set_sts(9), 8)
    onefact = factorization.from_one_factorization
    packings["product-1f4-singletons3"] = factorization.product(
        onefact(factorization.one_factorization(4)), factorization.singleton_classes(3))
    packings["product-1f6-1f6"] = factorization.product(
        onefact(factorization.one_factorization(6)),
        onefact(factorization.one_factorization(6)))
    packings["derived-augment34-m4-0-15"] = core.derive_subdesign(
        transversal.augment_34(4), 0, 15)
    return {name: _document(p) for name, p in packings.items()}


def digest(doc: dict) -> str:
    return hashlib.sha256(families.write_document(doc).encode("ascii")).hexdigest()


def check_bases(bases: dict) -> list:
    """Problems with the bases against the pinned digests: the bases come
    from the program under test, so a change to any of them would change
    the workload without notice."""
    problems = [f"base {name}: missing" for name in reference.BATCH_BASES
                if name not in bases]
    for name, doc in bases.items():
        if reference.BATCH_BASES.get(name) != digest(doc):
            problems.append(f"base {name}: document differs from the reference")
    return problems


def make_inputs(bases: dict, seed: int):
    """The seeded family texts, and the (t, k, v) for which theorem1_gap's
    preconditions hold."""
    from balpack import bounds, core

    items = families.batch_inputs(list(bases.values()), seed, COPIES)
    gap_params = set()
    for params in {item[3] for item in items}:
        try:
            bounds.theorem1_gap(*params)
        except core.PackingError:
            continue
        gap_params.add(params)
    return items, gap_params


def _check(i, text, expect_pass, n_blocks, report, out):
    if report.passed != expect_pass or report.n_blocks != n_blocks:
        return f"family {i}: verdict {report.passed}, {report.n_blocks} blocks"
    if expect_pass and report.bound_ok is False:
        return f"family {i}: counting bound exceeded"
    if out != text:
        return f"family {i}: round trip changed the document"
    return None


def run_pass(items, gap_params, tracer=None) -> dict:
    """One pass over the families, in chunks of CHUNK with a calibration
    slice before each chunk and after the last; chunk times are scaled by
    the slices around them."""
    from balpack import bounds, core

    clock = time.perf_counter
    errors = []
    chunk_s, chunk_latencies, slices = [], [], [calibrate.slice_s()]
    for first in range(0, len(items), CHUNK):
        latencies = []
        start = clock()
        for i in range(first, min(first + CHUNK, len(items))):
            text, expect_pass, n_blocks, params = items[i]
            if tracer is not None:
                tracer.job = i
            try:
                t0 = clock()
                packing, _ = core.parse_document(text)
                report = core.verify(packing)
                if params in gap_params:
                    bounds.theorem1_gap(*params)
                out = core.to_json(packing)
                latencies.append(clock() - t0)
            except Exception as exc:  # a failing family is counted, not fatal
                errors.append(f"family {i}: {type(exc).__name__}: {exc}")
                continue
            problem = _check(i, text, expect_pass, n_blocks, report, out)
            if problem:
                errors.append(problem)
        chunk_s.append(clock() - start)
        chunk_latencies.append(latencies)
        slices.append(calibrate.slice_s())
    factors = calibrate.scaled([1.0] * len(chunk_s), slices)
    parts = [t * f for t, f in zip(chunk_s, factors)]
    verify_parts = [sum(ls) * f for ls, f in zip(chunk_latencies, factors)]
    return {
        "pass_s": sum(parts),
        "raw_pass_s": sum(chunk_s),
        "verify_s": sum(verify_parts),
        "parts": parts,
        "verify_parts": verify_parts,
        "latencies": [t * f for ls, f in zip(chunk_latencies, factors) for t in ls],
        "attempted": len(items),
        "errors": errors,
    }


def run(seed, seconds, spans_path) -> None:
    """Build the bases once and check them, time making the seeded inputs
    SETUP_REPS times, run one discarded warm-up pass, then timed passes
    until ``seconds`` have passed (at least one).  With ``spans_path`` one
    untraced pass precedes the traced ones, as the reference for the
    tracing overhead."""
    import balpack.cli  # noqa: F401  (every module, as the CLI loads them)

    bases = build_bases()
    checked = {"attempted": len(set(bases) | set(reference.BATCH_BASES)),
               "errors": check_bases(bases)}
    made = [None]  # only the last repetition's inputs are kept

    def make() -> float:
        made[0] = None
        start = time.perf_counter()
        made[0] = make_inputs(bases, seed)
        return time.perf_counter() - start

    setup = calibrate.timed_reps(SETUP_REPS, make)
    items, gap_params = made[0]
    warm = run_pass(items, gap_params)
    untraced = [run_pass(items, gap_params)] if spans_path else []
    tracer = None
    if spans_path:
        tracer = spans.Tracer(None)
        tracer.install()
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(items, gap_params, tracer))
    if tracer is not None:
        tracer.dump(spans_path)
    print(json.dumps({"bases": checked, "setup": setup, "warm": warm,
                      "untraced": untraced, "passes": passes}))


def main() -> int:
    parser = argparse.ArgumentParser(description="The verify-batch library loop; "
                                     "prints one JSON result line.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", help="trace the timed passes, spans to this file")
    args = parser.parse_args()
    run(args.seed, args.seconds, args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
