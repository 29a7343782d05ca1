"""Command-line pipeline: ingest triples, project, percolate, export.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .diversity import (
    diversity,
    entropy,
    island_activity,
    pairwise_distance,
    sine_matrix,
    tag_spectrum,
)
from .io import read_triples, write_tree_dot, write_tree_json, write_triples
from .model import ITEM, TAG, USER, DataError, build_network, degree_stats
from .percolation import FilterGrid, build_tree
from .projection import (
    VIEWS,
    correlation_matrix,
    cosine,
    top_n,
    user_item_signature,
)
from .synth import generate, load_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

FAMILY_KIND = {"users": USER, "items": ITEM, "tags": TAG}
DEFAULT_TOP_N = {"users": 1000, "items": 1000, "tags": 120}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tagnet",
        description="Tagging-network analytics: correlation trees and diversity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", required=True, help="triples file to ingest")
    source.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    source.add_argument(
        "--normalize-tags",
        choices=("default", "exact"),
        default="default",
        help="tag normalization policy (default trims and case-folds)",
    )
    source.add_argument(
        "--strict", action="store_true", help="abort on malformed input"
    )

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--phi-start", type=float, default=0.0)
    grid.add_argument("--phi-step", type=float, default=0.05)

    tau = argparse.ArgumentParser(add_help=False)
    tau.add_argument(
        "--weighted-tau",
        action="store_true",
        help="count fractional link weights instead of attributions",
    )

    p_stats = sub.add_parser("stats", parents=[source], help="print degree summary")
    p_stats.set_defaults(func=cmd_stats)

    p_tree = sub.add_parser(
        "tree", parents=[source, grid], help="build and export an island tree"
    )
    p_tree.add_argument("--family", choices=("users", "items", "tags"), default="tags")
    p_tree.add_argument("--view", choices=sorted(VIEWS))
    p_tree.add_argument("--top-n", type=int, default=None)
    p_tree.add_argument("--out-json", required=True)
    p_tree.add_argument("--out-dot", required=True)
    p_tree.add_argument("--include-singletons", action="store_true")
    p_tree.set_defaults(func=cmd_tree)

    p_div = sub.add_parser(
        "diversity",
        parents=[source, grid, tau],
        help="print a user's entropy and diversity; export their activity tree",
    )
    p_div.add_argument("user", help="user name in the corpus")
    p_div.add_argument("--top-n", type=int, default=None)
    p_div.add_argument("--out-dot", required=True)
    p_div.add_argument("--out-json")
    p_div.add_argument("--include-singletons", action="store_true")
    p_div.set_defaults(func=cmd_diversity)

    p_cmp = sub.add_parser(
        "compare",
        parents=[source, tau],
        help="print the cosine and normalized distance of two users",
    )
    p_cmp.add_argument("user1")
    p_cmp.add_argument("user2")
    p_cmp.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="generate a planted synthetic corpus")
    p_synth.add_argument("--config", required=True, help="key = value config file")
    p_synth.add_argument("--seed", type=int, default=None, help="override config seed")
    p_synth.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    p_synth.add_argument("--out", required=True, help="triples output path")
    p_synth.add_argument("--truth-out", help="tag community assignment output path")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def _tree_options(args, family: str, *outputs) -> tuple[int, FilterGrid]:
    """Check a tree command's top-n, grid and output paths up front."""
    n = args.top_n if args.top_n is not None else DEFAULT_TOP_N[family]
    if n < 2:
        raise UsageError("--top-n must be at least 2")
    try:
        grid = FilterGrid(args.phi_start, args.phi_step)
    except ValueError as exc:
        raise UsageError(f"bad phi grid: {exc}") from None
    for path in map(Path, filter(None, outputs)):
        if not path.parent.is_dir():
            raise DataError(f"cannot write {path}: no directory {path.parent}")
        if path.is_dir():
            raise DataError(f"cannot write {path}: it is a directory")
    return n, grid


def _load_network(args):
    events = read_triples(args.input, fmt=args.format, strict=args.strict)
    return build_network(events, normalize=args.normalize_tags, strict=args.strict)


def cmd_stats(args) -> int:
    stats = degree_stats(_load_network(args))
    print(f"users: {stats.n_users}")
    print(f"items: {stats.n_items}")
    print(f"tags: {stats.n_tags}")
    print(f"items per user: {stats.items_per_user:.6f}")
    print(f"users per item: {stats.users_per_item:.6f}")
    return EXIT_OK


def cmd_tree(args) -> int:
    kind = FAMILY_KIND[args.family]
    if args.view is not None and VIEWS[args.view][0] != kind:
        raise UsageError(f"view {args.view!r} does not project family {args.family!r}")
    n, grid = _tree_options(args, args.family, args.out_json, args.out_dot)
    net = _load_network(args)
    members = top_n(net, kind, n)
    if len(members) < 2:
        raise DataError(f"family {args.family} has fewer than 2 members")
    matrix = correlation_matrix(net, kind, view=args.view, members=members)
    tree = build_tree(matrix, grid)
    write_tree_json(tree, args.out_json)
    write_tree_dot(tree, args.out_dot, include_singletons=args.include_singletons)
    return EXIT_OK


def cmd_diversity(args) -> int:
    n, grid = _tree_options(args, "tags", args.out_dot, args.out_json)
    net = _load_network(args)
    uid = net.users.id_of(args.user)
    user_spec = tag_spectrum(net, uid, weighted=args.weighted_tau)
    sample_spec = tag_spectrum(net, weighted=args.weighted_tau)

    # The tree's matrix first: the network keeps it as its first grid, and
    # the user's own tags then add only their uncached rows.
    matrix = correlation_matrix(net, TAG, members=top_n(net, TAG, n))
    own_tags = sorted(user_spec.counts)
    own_sine = sine_matrix(correlation_matrix(net, TAG, members=own_tags))
    print(f"user: {args.user}")
    print(f"entropy: {entropy(user_spec):.6f}")
    print(f"diversity: {diversity(user_spec, own_sine):.6f}")

    tree = build_tree(matrix, grid)
    report = island_activity(tree, user_spec, sample_spec)
    write_tree_dot(
        tree, args.out_dot, report=report, include_singletons=args.include_singletons
    )
    if args.out_json:
        write_tree_json(tree, args.out_json, report=report)
    return EXIT_OK


def cmd_compare(args) -> int:
    net = _load_network(args)
    uid1 = net.users.id_of(args.user1)
    uid2 = net.users.id_of(args.user2)
    similarity = cosine(user_item_signature(net, uid1), user_item_signature(net, uid2))
    print(f"cosine: {similarity:.6f}")

    spec1 = tag_spectrum(net, uid1, weighted=args.weighted_tau)
    spec2 = tag_spectrum(net, uid2, weighted=args.weighted_tau)
    union_tags = sorted(set(spec1.counts) | set(spec2.counts))
    sine = sine_matrix(correlation_matrix(net, TAG, members=union_tags))
    try:
        distance = pairwise_distance(spec1, spec2, sine)
    except ValueError:
        print("distance: undefined (zero diversity)")
    else:
        print(f"distance: {distance:.6f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    events, truth = generate(config)
    write_triples(events, args.out, fmt=args.format)
    if args.truth_out:
        with open(args.truth_out, "w", encoding="utf-8", newline="") as fh:
            for tag in sorted(truth):
                fh.write(f"{tag}\t{truth[tag]}\n")
    print(f"wrote {len(events)} events to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"tagnet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        message = exc.args[0] if exc.args else exc
        print(f"tagnet: error: {message}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"tagnet: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
