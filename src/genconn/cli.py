"""Command-line front end: kappa, construct, verify, bounds.

Exit codes: 0 success, 2 verification or consistency failure, 3 budget
exhaustion (partial results are printed and flagged), 4 input error.

Graphs are named either by a family spec "kind:size" (path, cycle,
complete, star) or by the path of an edge-list file (first line the vertex
count, then "u v" lines).  Product vertices are written g:h.

All randomness flows through random.Random(seed), Python's Mersenne
Twister, so a seed reproduces the same sweep on any platform.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from itertools import combinations
from random import Random

from . import bounds
from .certificates import (CertificateError, certificate_set, dump_certificate,
                           iter_certificates, load_certificate,
                           packing_certificate, parse_vertex, reverify,
                           vertex_name)
from .connectivity import vertex_connectivity
from .construct import ConstructionError, construct_general_lex
from .graphs import (Graph, check_product_size, family, is_complete, is_connected,
                     lexicographic_product, min_degree, parse_edge_list)
from .steiner import DEFAULT_BUDGET, generalized_connectivity, kappa3

_FAMILY_SPEC = re.compile(r"^([a-z]+):(\d+)$")

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 means verification failure here
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        sys.exit(EXIT_INPUT)


def _fail(message: str):
    sys.stderr.write("error: %s\n" % message)
    sys.exit(EXIT_INPUT)


def _at_least(low: int, parse=int, most=None):
    """argparse type: a number read by `parse`, from `low` up to `most`."""
    def check(text: str) -> int:
        try:
            value = parse(text)
        except (ValueError, OverflowError):
            raise argparse.ArgumentTypeError("%r is not a number" % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        if most is not None and value > most:
            raise argparse.ArgumentTypeError("must be at most %d, got %d" % (most, value))
        return value
    return check


def load_graph_arg(text: str) -> Graph:
    """Family spec "kind:size" or edge-list file path."""
    m = _FAMILY_SPEC.match(text)
    if m:
        try:
            return family(m.group(1), int(m.group(2)))
        except ValueError as exc:
            _fail(str(exc))
    try:
        with open(text, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        _fail("cannot read graph %r: %s" % (text, exc))
    try:
        G = parse_edge_list(raw)
    except ValueError as exc:
        _fail("%s: %s" % (text, exc))
    if G.n == 0:
        _fail("%s: graph has no vertices" % text)
    return G


def parse_terminals(P, text: str) -> tuple:
    """Three distinct product vertices named g:h, as certificates name them."""
    tokens = text.split()
    if len(tokens) != 3:
        _fail("expected three terminals, got %d" % len(tokens))
    try:
        flat = {parse_vertex(P, tok) for tok in tokens}
    except CertificateError as exc:
        _fail("bad terminal: %s" % exc)
    if len(flat) != 3:
        _fail("terminals must be three distinct vertices")
    return tuple(sorted(flat))


def random_factor(rng: Random, min_order: int = 3, max_order: int = 5) -> Graph:
    """Connected non-complete graph with rng-driven order and edges.

    A random attachment tree keeps it connected, every remaining pair joins
    with probability 0.4, and complete draws are rejected and redrawn.
    """
    while True:
        n = rng.randrange(min_order, max_order + 1)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        present = set(edges)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in present and rng.random() < 0.4:
                    edges.append((u, v))
        G = Graph(n, edges)
        if not is_complete(G):
            return G


def random_pair(rng: Random, max_order: int = 5, product_cap: int = 16):
    while True:
        G = random_factor(rng, 3, max_order)
        H = random_factor(rng, 3, max_order)
        if G.n * H.n <= product_cap:
            return G, H


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        _fail("cannot write %r: %s" % (path, exc))


def _write_certificates(path, docs):
    doc = docs[0] if len(docs) == 1 else certificate_set(docs)
    _write_text(path, dump_certificate(doc))
    print("certificates: %s" % path)


# ---- kappa ----

def cmd_kappa(args) -> int:
    G = load_graph_arg(args.family if args.family else args.edges)
    print("graph: %d vertices, %d edges" % (G.n, len(G.edges())))
    print("kappa = %d" % vertex_connectivity(G))
    print("min_degree = %d" % min_degree(G))

    inexact = False
    docs = []

    def report(label, result):
        nonlocal inexact
        tag = "exact" if result.exact else "budget-limited"
        inexact = inexact or not result.exact
        print("%s = %d (%s)" % (label, result.value, tag))
        if result.packing is not None:
            docs.append(packing_certificate(
                G, result.witness, result.packing.trees,
                {"kind": label, "value": result.value, "exact": result.exact,
                 "nodes": result.nodes, "budget": args.budget}))

    report("kappa3", kappa3(G, budget=args.budget))
    if args.k is not None and args.k != 3:
        report("kappa_%d" % args.k, generalized_connectivity(G, args.k, budget=args.budget))

    if args.output:
        _write_certificates(args.output, docs)
    return EXIT_BUDGET if inexact else EXIT_OK


# ---- construct ----

def _terminal_text(P, S) -> str:
    return " ".join(vertex_name(P, s) for s in S)


def cmd_construct(args) -> int:
    G = load_graph_arg(args.factors[0])
    H = load_graph_arg(args.factors[1])
    if not is_connected(G):
        _fail("base graph %s is disconnected" % args.factors[0])
    try:
        P = lexicographic_product(G, H)
    except ValueError as exc:
        _fail(str(exc))

    if args.terminals:
        triples = [parse_terminals(P, args.terminals)]
    elif args.all_triples:
        triples = list(combinations(range(P.n), 3))
    else:
        rng = Random(args.seed)
        want = args.random_triples
        if want > P.n * (P.n - 1) * (P.n - 2) // 6:
            _fail("not enough distinct triples to sample %d" % want)
        seen = []
        taken = set()
        while len(seen) < want:
            S = tuple(sorted(rng.sample(range(P.n), 3)))
            if S not in taken:
                taken.add(S)
                seen.append(S)
        triples = seen

    docs = []
    failed = 0
    inexact = False
    fallbacks = 0
    trees_total = 0
    for S in triples:
        try:
            res = construct_general_lex(P, S, budget=args.budget)
        except ConstructionError as exc:
            failed += 1
            print("terminals %s: FAILED: %s" % (_terminal_text(P, S), exc))
            continue
        fallbacks += res.fallbacks
        trees_total += res.size
        stats = {"trees": res.size, "fallbacks": res.fallbacks,
                 "notes": "; ".join(res.notes)}
        doc = packing_certificate(P, res.terminals, res.trees, stats)
        docs.append(doc)
        if not doc["verdict"]["ok"]:
            failed += 1
        marker = "" if res.fallbacks == 0 else " (%d via oracle)" % res.fallbacks
        if not res.exact:
            inexact = True
            marker += " (budget-limited)"
        print("terminals %s: %d trees%s" % (_terminal_text(P, S), res.size, marker))
    print("families: %d, trees: %d, fallbacks: %d, failures: %d"
          % (len(docs), trees_total, fallbacks, failed))

    if args.output:
        _write_certificates(args.output, docs)
    return EXIT_FAIL if failed else EXIT_BUDGET if inexact else EXIT_OK


# ---- verify ----

def cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail("cannot read certificate: %s" % exc)
    try:
        items = iter_certificates(load_certificate(text))
        verdicts = [reverify(item) for item in items]
    except CertificateError as exc:
        _fail("malformed certificate: %s" % exc)
    bad = 0
    for i, (item, verdict) in enumerate(zip(items, verdicts)):
        if verdict.ok:
            print("certificate %d: ok (%d trees)" % (i, len(item["trees"])))
        else:
            bad += 1
            print("certificate %d: FAIL: %s" % (i, verdict.reason))
    print("verified: %d of %d" % (len(items) - bad, len(items)))
    return EXIT_FAIL if bad else EXIT_OK


# ---- bounds ----

def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        _fail("pair %r must be 'G,H'" % text)
    G, H = load_graph_arg(parts[0]), load_graph_arg(parts[1])
    try:
        # the lexicographic product has the cartesian one's order and at
        # least its edges
        check_product_size("lexicographic", G, H)
    except ValueError as exc:
        _fail("pair %r: %s" % (text, exc))
    return G, H


def cmd_bounds(args) -> int:
    pairs = []
    if args.pair:
        for spec in args.pair:
            G, H = _parse_pair(spec)
            pairs.append((spec, G, H))
    else:
        rng = Random(args.seed)
        for i in range(args.random_pairs):
            G, H = random_pair(rng, args.max_order)
            pairs.append(("random-%02d" % i, G, H))

    rows = []
    reports = []
    total_failures = 0
    for label, G, H in pairs:
        rep = bounds.consistency_report(
            G, H, budget=args.budget,
            product_oracle_limit=args.product_oracle_limit)
        fails = rep.failures
        skipped = sum(1 for c in rep.checks if c.status.startswith("skipped"))
        total_failures += len(fails)
        print("pair %s (|G|=%d, |H|=%d): %d checks, %d failed, %d skipped"
              % (label, G.n, H.n, len(rep.checks), len(fails), skipped))
        for c in fails:
            print("  FAIL %s: bound %s vs observed %s" % (c.name, c.bound, c.observed))
        rows.extend(rep.csv_rows(label))
        reports.append({"pair": label, "report": rep.as_dict()})

    if args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=bounds.CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _write_text(args.csv, buf.getvalue())
        print("csv: %s" % args.csv)
    if args.json:
        _write_text(args.json, json.dumps({"pairs": reports}, indent=2,
                                          sort_keys=True) + "\n")
        print("json: %s" % args.json)
    return EXIT_FAIL if total_failures else EXIT_OK


# ---- parser ----

def build_parser() -> _Parser:
    parser = _Parser(prog="genconn",
                     description="Generalized connectivity toolkit: exact "
                                 "kappa_k oracle, product constructions, "
                                 "certificates, bound checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=_at_least(1, lambda text: int(float(text))),
                       default=DEFAULT_BUDGET,
                       help="search step budget, accepts 1e7 (default %d)" % DEFAULT_BUDGET)

    p_kappa = sub.add_parser("kappa", help="connectivity numbers of one graph")
    src = p_kappa.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", help="family spec kind:size")
    src.add_argument("--edges", help="edge-list file")
    p_kappa.add_argument("--k", type=_at_least(2), help="also report kappa_k")
    p_kappa.add_argument("--output", help="write witness certificates (JSON)")
    add_budget(p_kappa)
    p_kappa.set_defaults(func=cmd_kappa)

    p_con = sub.add_parser("construct",
                           help="build disjoint tree families in a lexicographic product")
    p_con.add_argument("--lex", dest="factors", nargs=2, required=True,
                       metavar=("G", "H"), help="factor graphs")
    which = p_con.add_mutually_exclusive_group(required=True)
    which.add_argument("--terminals", help="one triple, e.g. '0:0 1:2 3:1'")
    which.add_argument("--all-triples", action="store_true")
    which.add_argument("--random-triples", type=_at_least(1), metavar="N")
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--output", help="write certificates (JSON)")
    add_budget(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="re-check a certificate file")
    p_ver.add_argument("certificate", help="certificate JSON path")
    p_ver.set_defaults(func=cmd_verify)

    p_bnd = sub.add_parser("bounds", help="bound consistency reports over factor pairs")
    which = p_bnd.add_mutually_exclusive_group(required=True)
    which.add_argument("--pair", action="append", metavar="G,H",
                       help="factor pair, repeatable")
    which.add_argument("--random-pairs", type=_at_least(1), metavar="N")
    # random_pair's product cap of 16 fits no factor above 5 beside one of 3
    p_bnd.add_argument("--max-order", type=_at_least(3, most=5), default=5)
    p_bnd.add_argument("--seed", type=int, default=0)
    p_bnd.add_argument("--product-oracle-limit", type=int, default=16,
                       help="skip product kappa_3 above this many vertices")
    p_bnd.add_argument("--csv", help="write the flat check table")
    p_bnd.add_argument("--json", help="write per-pair reports")
    add_budget(p_bnd)
    p_bnd.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
