"""Command-line front end.

Subcommands tie the construction routes, the verifier, the counting
bounds, and the exact search together.  Every construct invocation
self-verifies before anything is written, so a packing file on disk
always passes ``verify``; identical invocations write byte-identical
files.

Exit codes: 0 pass, 2 usage, parameter or I/O error (mapped in ``main``),
3 verification failure or a malformed file given to verify or derive,
4 search budget exhausted.

Route layers are registered lazily and run on first use, so a job compiles
only the layers it calls.  Function-local imports would hide them from the
traced benchmark launcher, which wraps every layer in ``sys.modules``.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from contextlib import nullcontext

from . import bounds
from .core import (
    BalancedPacking,
    PackingError,
    derive_subdesign,
    load_document,
    load_packing,
    save_packing,
    verify,
)


def _lazy(name: str):
    """Register ``balpack.<name>``; its body runs on first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)  # as import does
    return sys.modules[fullname]


babai_frankl, factorization, gf, latin, sumcode, transversal, oracle_mod = map(_lazy, (
    "babai_frankl", "factorization", "gf", "latin", "sumcode", "transversal", "oracle"))

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4

SOURCE_SPECS = "onefact:N | singletons:N | lts:9 | file:PATH"


def _usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _save_verified(packing: BalancedPacking, out_path: str) -> int:
    report = verify(packing)
    if not report.passed or report.bound_ok is False:
        for line in report.lines():
            print(line, file=sys.stderr)
        return EXIT_VERIFY
    save_packing(packing, out_path)
    print(
        f"balanced ({packing.t},{packing.k},{packing.v}) family, "
        f"{packing.n_blocks} blocks -> {out_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def latin_dispatch(v: int) -> BalancedPacking:
    """Route an A(2,3,v) request to the construction for v mod 4.

    4m -> square fixed-point-free rectangle; 4m+1 -> rectangle plus an
    appended column; 4m+2 -> matching triples at the off-by-two split;
    4m+3 -> matching triples at the near-balanced split.  Every route
    emits exactly floor(floor(v/2) * ceil(v/2) / 2) triples.
    """
    if v < 8:
        raise PackingError(f"dispatcher covers v >= 8, got {v}")
    residue = v % 4
    if residue == 0:
        return latin.extract_triples(latin.fill(latin.seed_sets(v // 2)))
    if residue == 1:
        rect = latin.fill(latin.seed_sets((v - 1) // 2))
        return latin.extract_triples(latin.augment_column(rect))
    if residue == 2:
        return factorization.triples_from_factorization(v // 2 + 1, v // 2 - 1)
    return factorization.triples_from_factorization((v + 1) // 2, (v - 1) // 2)


def _load_partitionable(spec: str) -> factorization.PartitionablePacking:
    unknown = PackingError(f"unknown source {spec!r}; use {SOURCE_SPECS}")
    kind, _, rest = spec.partition(":")
    if kind == "file":
        return factorization.load_large_set(rest)
    try:
        n = int(rest)
    except ValueError:
        raise unknown from None
    if kind == "onefact":
        return factorization.from_one_factorization(
            factorization.one_factorization(n)
        )
    if kind == "singletons":
        return factorization.singleton_classes(n)
    if kind == "lts":
        return factorization.large_set_sts(n)
    raise unknown


def _build_td(args) -> BalancedPacking:
    td = transversal.construct_td(args.t, args.k, args.q)
    return BalancedPacking(
        td.v, td.t, td.k, transversal.label_groups(td), td.blocks
    )


def _build_td_augment34(args) -> BalancedPacking:
    if args.v % 4:
        raise PackingError(f"--v must be a multiple of 4, got {args.v}")
    m = args.v // 4
    return (
        transversal.augment_34_char2(m) if args.char2
        else transversal.augment_34(m)
    )


def _build_mds(args) -> BalancedPacking:
    source = _load_partitionable(args.source)
    if args.write_large_set:
        factorization.save_large_set(source, args.write_large_set)
    if args.variant == "45":
        # the only negative side mds_45_product accepts
        return factorization.mds_45_product(source, source.v - 1)
    return factorization.mds_product(source)


def _cmd_construct(args) -> int:
    return _save_verified(args.build(args), args.out)


# ---------------------------------------------------------------------------
# verify / bound / compare / oracle / derive
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    try:
        packing, classes = load_document(args.file)
        # A class-partitioned family: each class must be a packing on its
        # own and no block may repeat across classes.  The flat family is
        # generally *not* a packing, so it is not checked as one.
        part = (None if classes is None
                else factorization.partitionable_from_document(packing, classes))
    except PackingError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if part is not None:
        print(f"classes: {part.n_classes}")
        print(f"blocks: {len(part.all_blocks)}")
        print(f"per-class strength: {part.t_prime}")
        print("result: PASS")
        return EXIT_OK
    report = verify(packing)
    for line in report.lines():
        print(line)
    if report.passed and report.bound_ok is not False:
        return EXIT_OK
    return EXIT_VERIFY


def _cmd_bound(args) -> int:
    if args.p_plus is None and args.p_minus is None:
        print(bounds.corollary_bound(args.t, args.k, args.v))
        return EXIT_OK
    if args.p_plus is None or args.p_minus is None:
        return _usage("--p-plus and --p-minus must be given together")
    if args.p_plus + args.p_minus != args.v:
        return _usage(f"split {args.p_plus}+{args.p_minus} does not cover v={args.v}")
    print(bounds.lemma1_bound(args.t, args.k, args.p_plus, args.p_minus))
    return EXIT_OK


def _cmd_compare(args) -> int:
    gap = bounds.theorem1_gap(args.t, args.k, args.v)
    rel = "<" if gap.strict else ">="
    print(f"{gap.bound} {rel} {gap.steiner}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.baseline:
        if args.trials is None or args.seed is None:
            return _usage("--baseline requires explicit --trials and --seed")
        blocks, _ = oracle_mod.structured_random(
            args.v, args.k, args.t, args.trials, args.seed
        )
        ref = oracle_mod.existence_reference(args.v, args.k, args.t)
        print(f"retained {len(blocks)} structured sets over {args.trials} trials")
        print(f"reference (v*t/k^2)^t = {ref}")
        return EXIT_OK
    budget = oracle_mod.SearchBudget(args.budget_nodes, args.time_cap)
    with open(args.log, "w", encoding="ascii") if args.log else nullcontext() as log_fh:
        result = oracle_mod.max_balanced_packing(
            args.t, args.k, args.v, budget, log=log_fh
        )
    status = "exact" if result.exact else "incomplete"
    print(f"A({args.t},{args.k},{args.v}) = {result.size} [{status}] "
          f"nodes={result.nodes}")
    if args.out:
        code = _save_verified(result.witness, args.out)
        if code != EXIT_OK:
            return code
    return EXIT_OK if result.exact else EXIT_BUDGET


def _cmd_derive(args) -> int:
    try:
        packing = load_packing(args.file)
    except PackingError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    return _save_verified(derive_subdesign(packing, args.e1, args.e2), args.out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="packing file to write")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balpack",
        description="Construct, verify and bound balanced set packings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a packing and write it")
    con.set_defaults(run=_cmd_construct)
    method = con.add_subparsers(dest="method", required=True)

    bf = method.add_parser("babai-frankl", help="polynomial graph family")
    bf.add_argument("--q", type=int, required=True, help="prime power")
    bf.add_argument("--k", type=int, required=True)
    bf.add_argument("--t", type=int, required=True)
    _add_out(bf)
    bf.set_defaults(build=lambda a: babai_frankl.construct(a.q, a.k, a.t))

    td = method.add_parser("td", help="transversal design as a packing")
    td.add_argument("--t", type=int, required=True)
    td.add_argument("--k", type=int, required=True)
    td.add_argument("--q", type=int, required=True, help="group size (prime power)")
    _add_out(td)
    td.set_defaults(build=_build_td)

    aug = method.add_parser("td-augment34", help="augmented TD(3,4,m), v=4m")
    aug.add_argument("--v", type=int, required=True, help="multiple of 4")
    aug.add_argument("--char2", action="store_true",
                     help="characteristic-2 field variant (m a power of two)")
    _add_out(aug)
    aug.set_defaults(build=_build_td_augment34)

    lat = method.add_parser("latin", help="A(2,3,v) dispatcher, v >= 8")
    lat.add_argument("--v", type=int, required=True)
    _add_out(lat)
    lat.set_defaults(build=lambda a: latin_dispatch(a.v))

    fac = method.add_parser("factorization", help="matching triples")
    fac.add_argument("--p-plus", type=int, required=True, help="even >= 2")
    fac.add_argument("--p-minus", type=int, required=True)
    _add_out(fac)
    fac.set_defaults(build=lambda a: factorization.triples_from_factorization(
        a.p_plus, a.p_minus))

    sm = method.add_parser("sum", help="fixed-sum parity blocks")
    sm.add_argument("--v", type=int, required=True, help="even")
    sm.add_argument("--k", type=int, required=True, help=">= 3")
    _add_out(sm)
    sm.set_defaults(build=lambda a: sumcode.construct(a.v, a.k))

    pr = method.add_parser("product", help="cross product of two class families")
    pr.add_argument("--first", required=True, help=SOURCE_SPECS)
    pr.add_argument("--second", required=True, help=SOURCE_SPECS)
    pr.add_argument("--allow-prefix", action="store_true",
                    help="pair a prefix of the longer class list")
    _add_out(pr)
    pr.set_defaults(build=lambda a: factorization.product(
        _load_partitionable(a.first), _load_partitionable(a.second),
        allow_prefix=a.allow_prefix))

    md = method.add_parser("mds", help="paired-classes product of a large set")
    md.add_argument("--source", required=True, help="lts:9 | file:PATH")
    md.add_argument("--variant", choices=("full", "45"), default="full")
    md.add_argument("--write-large-set", metavar="PATH",
                    help="also save the source classes")
    _add_out(md)
    md.set_defaults(build=_build_mds)

    ver = sub.add_parser("verify", help="check a packing file")
    ver.add_argument("file")
    ver.set_defaults(run=_cmd_verify)

    bnd = sub.add_parser("bound", help="print the counting bound")
    bnd.add_argument("t", type=int)
    bnd.add_argument("k", type=int)
    bnd.add_argument("v", type=int)
    bnd.add_argument("--p-plus", type=int)
    bnd.add_argument("--p-minus", type=int)
    bnd.set_defaults(run=_cmd_bound)

    cmp_ = sub.add_parser("compare", help="balanced bound vs unrestricted count")
    cmp_.add_argument("t", type=int)
    cmp_.add_argument("k", type=int)
    cmp_.add_argument("v", type=int)
    cmp_.set_defaults(run=_cmd_compare)

    orc = sub.add_parser("oracle", help="exact search or randomized baseline")
    orc.add_argument("t", type=int)
    orc.add_argument("k", type=int)
    orc.add_argument("v", type=int)
    orc.add_argument("--budget-nodes", type=int, default=10**8)
    orc.add_argument("--time-cap", type=float, default=600.0)
    orc.add_argument("--out", help="write the witness packing here")
    orc.add_argument("--log", help="JSON-lines search log")
    orc.add_argument("--baseline", action="store_true",
                     help="randomized interval baseline instead of exact search")
    orc.add_argument("--trials", type=int)
    orc.add_argument("--seed", type=int,
                     help="RNG seed (required with --baseline)")
    orc.set_defaults(run=_cmd_oracle)

    der = sub.add_parser("derive", help="contract a +/- point pair")
    der.add_argument("file")
    der.add_argument("e1", type=int)
    der.add_argument("e2", type=int)
    _add_out(der)
    der.set_defaults(run=_cmd_derive)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except (PackingError, OSError) as exc:  # every parameter and I/O error
        return _usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
