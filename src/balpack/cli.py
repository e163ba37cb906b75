"""Command-line front end.

Subcommands tie the construction routes, the verifier, the counting
bounds, and the exact search together.  Every construct invocation
self-verifies before anything is written, so a packing file on disk
always passes ``verify``; identical invocations write byte-identical
files.

Exit codes: 0 pass, 2 usage, parameter or I/O error (mapped in ``main``),
3 verification failure or a malformed file given to verify or derive,
4 search budget exhausted, 141 (128 + SIGPIPE, as a shell reports it)
when the reader of standard output has gone, for a job's output and a
help text alike: ``main`` flushes stdout itself, and on a broken pipe of
stdout points it at ``os.devnull`` and prints nothing, since a vanished
reader is not a usage error.  A broken pipe anywhere else (an ``--out``
or ``--log`` FIFO) is an I/O error.

The package registers the route layers, ``bounds`` and ``oracle`` lazily
(see ``balpack/__init__.py``) and this module imports them plainly, so a
job compiles only the layers it calls: ``bound``, ``compare`` and every job
that verifies a family load ``bounds``, while an exact search without
``--out``, or a baseline run, never compiles it.  The traced benchmark
launcher wraps each layer where the package registered it, in sys.modules.
Likewise a job's parser lists every subcommand and route but declares the
arguments of only the subcommand and the route its command line names
(see ``_build_parser``), so every help text and usage line is the same.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from . import babai_frankl, bounds, factorization, latin, sumcode, transversal
from . import oracle as oracle_mod
from .core import (
    BalancedPacking,
    PackingError,
    _check_ints,
    _short,
    derive_subdesign,
    load_document,
    load_packing,
    save_packing,
    verify,
)


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141  # 128 + SIGPIPE

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
    _check_ints("v", (v,))
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
        print(f"blocks: {len(packing.blocks)}")
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
    if args.p_plus is None:
        print(bounds.corollary_bound(args.t, args.k, args.v))
    elif 0 <= args.p_plus <= args.v:
        print(bounds.lemma1_bound(args.t, args.k, args.p_plus, args.v - args.p_plus))
    else:
        return _usage(f"need 0 <= --p-plus <= v = {_short(args.v)}, got {_short(args.p_plus)}")
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


# Each subcommand and each construct route, in listing order: name ->
# (help, declare).  ``declare(parser)`` adds its arguments and the default
# that carries its handler (``run``) or its builder (``build``).
_COMMANDS: dict = {}
_ROUTES: dict = {}


def _declares(table: dict, name: str, help: str):
    def register(declare):
        table[name] = (help, declare)
        return declare
    return register


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="packing file to write")


@_declares(_COMMANDS, "construct", "build a packing and write it")
def _construct_args(p):
    p.set_defaults(run=_cmd_construct)


@_declares(_ROUTES, "babai-frankl", "polynomial graph family")
def _babai_frankl_args(p):
    p.add_argument("--q", type=int, required=True, help="prime power")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_out(p)
    p.set_defaults(build=lambda a: babai_frankl.construct(a.q, a.k, a.t))


@_declares(_ROUTES, "td", "transversal design as a packing")
def _td_args(p):
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True, help="group size (prime power)")
    _add_out(p)
    p.set_defaults(build=_build_td)


@_declares(_ROUTES, "td-augment34", "augmented TD(3,4,m), v=4m")
def _td_augment34_args(p):
    p.add_argument("--v", type=int, required=True, help="multiple of 4")
    p.add_argument("--char2", action="store_true",
                   help="characteristic-2 field variant (m a power of two)")
    _add_out(p)
    p.set_defaults(build=_build_td_augment34)


@_declares(_ROUTES, "latin", "A(2,3,v) dispatcher, v >= 8")
def _latin_args(p):
    p.add_argument("--v", type=int, required=True)
    _add_out(p)
    p.set_defaults(build=lambda a: latin_dispatch(a.v))


@_declares(_ROUTES, "factorization", "matching triples")
def _factorization_args(p):
    p.add_argument("--p-plus", type=int, required=True, help="even >= 2")
    p.add_argument("--p-minus", type=int, required=True)
    _add_out(p)
    p.set_defaults(build=lambda a: factorization.triples_from_factorization(
        a.p_plus, a.p_minus))


@_declares(_ROUTES, "sum", "fixed-sum parity blocks")
def _sum_args(p):
    p.add_argument("--v", type=int, required=True, help="even")
    p.add_argument("--k", type=int, required=True, help=">= 3")
    _add_out(p)
    p.set_defaults(build=lambda a: sumcode.construct(a.v, a.k))


@_declares(_ROUTES, "product", "cross product of two class families")
def _product_args(p):
    p.add_argument("--first", required=True, help=SOURCE_SPECS)
    p.add_argument("--second", required=True, help=SOURCE_SPECS)
    p.add_argument("--allow-prefix", action="store_true",
                   help="pair a prefix of the longer class list")
    _add_out(p)
    p.set_defaults(build=lambda a: factorization.product(
        _load_partitionable(a.first), _load_partitionable(a.second),
        allow_prefix=a.allow_prefix))


@_declares(_ROUTES, "mds", "paired-classes product of a large set")
def _mds_args(p):
    p.add_argument("--source", required=True, help="lts:9 | file:PATH")
    p.add_argument("--variant", choices=("full", "45"), default="full")
    p.add_argument("--write-large-set", metavar="PATH",
                   help="also save the source classes")
    _add_out(p)
    p.set_defaults(build=_build_mds)


@_declares(_COMMANDS, "verify", "check a packing file")
def _verify_args(p):
    p.add_argument("file")
    p.set_defaults(run=_cmd_verify)


@_declares(_COMMANDS, "bound", "print the counting bound")
def _bound_args(p):
    p.add_argument("t", type=int)
    p.add_argument("k", type=int)
    p.add_argument("v", type=int)
    p.add_argument("--p-plus", type=int, help="positive points; the other v - P_PLUS are negative")
    p.set_defaults(run=_cmd_bound)


@_declares(_COMMANDS, "compare", "balanced bound vs unrestricted count")
def _compare_args(p):
    p.add_argument("t", type=int)
    p.add_argument("k", type=int)
    p.add_argument("v", type=int)
    p.set_defaults(run=_cmd_compare)


@_declares(_COMMANDS, "oracle", "exact search or randomized baseline")
def _oracle_args(p):
    p.add_argument("t", type=int)
    p.add_argument("k", type=int)
    p.add_argument("v", type=int)
    p.add_argument("--budget-nodes", type=int, default=10**8)
    p.add_argument("--time-cap", type=float, default=600.0)
    p.add_argument("--out", help="write the witness packing here")
    p.add_argument("--log", help="JSON-lines search log")
    p.add_argument("--baseline", action="store_true",
                   help="randomized interval baseline instead of exact search")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int,
                   help="RNG seed (required with --baseline)")
    p.set_defaults(run=_cmd_oracle)


@_declares(_COMMANDS, "derive", "contract a +/- point pair")
def _derive_args(p):
    p.add_argument("file")
    p.add_argument("e1", type=int)
    p.add_argument("e2", type=int)
    _add_out(p)
    p.set_defaults(run=_cmd_derive)


def _add_choices(group, table: dict, argv: list) -> tuple:
    """Add a parser with its help to ``group`` for each entry of ``table``,
    and declare the arguments of only the first entry that a token of
    ``argv`` names.  Return that name (or None) and the tokens after it."""
    at = next((i for i, token in enumerate(argv) if token in table), len(argv))
    chosen = argv[at] if at < len(argv) else None
    for name, (help_, declare) in table.items():
        parser = group.add_parser(name, help=help_)
        if name == chosen:
            declare(parser)
    return chosen, argv[at + 1:]


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose help text, like a job's output, lets a
    broken stdout pipe raise; argparse's own writer drops the error.  Its
    subcommands' parsers are of this class too."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _build_parser(argv: list) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Every subcommand and route is listed, so
    every help text, choice list and usage line reads the same, but only
    the subcommand and the route that ``argv`` selects get arguments.

    argparse takes the first positional token as the subcommand and, under
    ``construct``, the first positional token after it as the route.  At
    neither level does an option take a value, so every token before that
    one starts with ``-``, and no name does: when argparse's token names a
    subcommand (a route), it is the first token that names one.  When it
    names none, the usage error reads the same whichever parser has
    arguments.
    """
    parser = _Parser(
        prog="balpack",
        description="Construct, verify and bound balanced set packings.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    command, rest = _add_choices(commands, _COMMANDS, argv)
    if command == "construct":
        routes = commands.choices[command].add_subparsers(dest="method", required=True)
        _add_choices(routes, _ROUTES, rest)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:  # after a help text on stdout (0) or a usage error
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        else:
            code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError as exc:
        if not _reader_gone(sys.stdout):  # a file named by --out or --log, say
            return _usage(str(exc))
        # stdout can deliver nothing more: what is left in its buffer goes
        # to os.devnull, so the interpreter's last flush succeeds silently
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_PIPE
    except (PackingError, OSError) as exc:  # every parameter and I/O error
        return _usage(str(exc))


def _reader_gone(stream) -> bool:
    """True when ``stream`` writes to a pipe or socket whose reader has
    gone; False for one without a file descriptor (a StringIO, say)."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
        return False
    import select

    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(event & (select.POLLERR | select.POLLHUP) for _, event in poller.poll(0))


if __name__ == "__main__":
    sys.exit(main())
