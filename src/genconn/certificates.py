"""Self-contained JSON certificates for tree packings.

A certificate records everything needed to re-check a packing without the
process that produced it: the host graph (factor edge lists plus the
product kind), the terminal set, the trees with their provenance tags, the
verdict recorded when the packing was built, and search statistics.

Product-host vertices are named in the g:h coordinate form; plain hosts
use the bare id.  Documents serialize with sorted keys, two-space indent
and a trailing newline, so one packing always yields byte-identical files.
A certificate_set document bundles several certificates (one sweep run);
its items are ordered by input index.
"""

from __future__ import annotations

import json

from .graphs import Graph, ProductGraph, cartesian_product, lexicographic_product
from .steiner import Verdict, verify_packing

CERTIFICATE_KIND = "certificate"
SET_KIND = "certificate_set"

_PRODUCT_KINDS = ("none", "lexicographic", "cartesian")


class CertificateError(ValueError):
    pass


def _factor_dict(G: Graph) -> dict:
    return {"order": G.n, "edges": [[u, v] for u, v in G.edges()]}


def _factor_from(obj) -> Graph:
    if not isinstance(obj, dict):
        raise CertificateError("factor entry is not an object")
    order = obj.get("order")
    edges = obj.get("edges")
    if not isinstance(order, int) or order < 0:
        raise CertificateError("factor order must be a nonnegative integer")
    if not isinstance(edges, list):
        raise CertificateError("factor edges must be a list")
    pairs = []
    for e in edges:
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, int) for x in e)):
            raise CertificateError("factor edge %r is not a pair of ids" % (e,))
        pairs.append((e[0], e[1]))
    try:
        return Graph(order, pairs)
    except ValueError as exc:
        raise CertificateError("bad factor: %s" % exc)


def host_dict(G: Graph) -> dict:
    if isinstance(G, ProductGraph):
        return {"product_kind": G.kind,
                "factors": [_factor_dict(G.left), _factor_dict(G.right)]}
    return {"product_kind": "none", "factors": [_factor_dict(G)]}


def rebuild_host(hd) -> Graph:
    """Reconstruct the host graph a certificate describes."""
    if not isinstance(hd, dict):
        raise CertificateError("host is not an object")
    kind = hd.get("product_kind")
    factors = hd.get("factors")
    if kind not in _PRODUCT_KINDS:
        raise CertificateError("unknown product kind %r" % (kind,))
    if not isinstance(factors, list):
        raise CertificateError("host factors must be a list")
    if kind == "none":
        if len(factors) != 1:
            raise CertificateError("plain host takes exactly one factor")
        return _factor_from(factors[0])
    if len(factors) != 2:
        raise CertificateError("product host takes exactly two factors")
    left, right = _factor_from(factors[0]), _factor_from(factors[1])
    try:
        if kind == "lexicographic":
            return lexicographic_product(left, right)
        return cartesian_product(left, right)
    except ValueError as exc:
        raise CertificateError("bad product host: %s" % exc)


def vertex_name(host: Graph, v: int) -> str:
    if isinstance(host, ProductGraph):
        g, h = host.unflatten(v)
        return "%d:%d" % (g, h)
    return "%d" % v


def parse_vertex(host: Graph, name) -> int:
    if not isinstance(name, str):
        raise CertificateError("vertex name %r is not a string" % (name,))
    try:
        if isinstance(host, ProductGraph):
            g, h = map(int, name.split(":"))
        else:
            v = int(name)
    except ValueError:
        raise CertificateError("bad vertex name %r for this host" % name)
    if isinstance(host, ProductGraph):
        try:
            return host.flatten(g, h)
        except ValueError as exc:
            raise CertificateError("bad vertex name %r for this host: %s" % (name, exc))
    if not 0 <= v < host.n:
        raise CertificateError("vertex name %r out of range" % name)
    return v


def packing_certificate(host: Graph, terminals, trees, stats=None) -> dict:
    """Certificate for one packing; the verdict is computed on the spot."""
    verdict = verify_packing(host, terminals, trees)
    tree_docs = []
    for t in trees:
        edges = [[vertex_name(host, u), vertex_name(host, v)] for u, v in t.edges]
        tree_docs.append({"edges": edges,
                          "provenance": getattr(t, "provenance", "search")})
    return {
        "kind": CERTIFICATE_KIND,
        "host": host_dict(host),
        "terminals": [vertex_name(host, s) for s in sorted(terminals)],
        "trees": tree_docs,
        "verdict": {"ok": verdict.ok, "reason": verdict.reason},
        "stats": dict(stats or {}),
    }


def certificate_set(docs) -> dict:
    return {"kind": SET_KIND, "items": list(docs)}


def dump_certificate(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read(doc):
    """Validate one certificate document; returns its host, its terminal
    ids and its trees as lists of id pairs."""
    for key in ("host", "terminals", "trees", "verdict", "stats"):
        if key not in doc:
            raise CertificateError("certificate misses field %r" % key)
    host = rebuild_host(doc["host"])
    if not isinstance(doc["terminals"], list) or not doc["terminals"]:
        raise CertificateError("terminals must be a nonempty list")
    terminals = [parse_vertex(host, s) for s in doc["terminals"]]
    if not isinstance(doc["trees"], list):
        raise CertificateError("trees must be a list")
    trees = []
    for idx, t in enumerate(doc["trees"]):
        if not isinstance(t, dict) or not isinstance(t.get("edges"), list):
            raise CertificateError("tree %d is malformed" % idx)
        if not isinstance(t.get("provenance", ""), str):
            raise CertificateError("tree %d provenance is not text" % idx)
        edges = []
        for e in t["edges"]:
            if not isinstance(e, list) or len(e) != 2:
                raise CertificateError("tree %d edge %r is not a pair" % (idx, e))
            edges.append((parse_vertex(host, e[0]), parse_vertex(host, e[1])))
        trees.append(edges)
    verdict = doc["verdict"]
    if not isinstance(verdict, dict) or not isinstance(verdict.get("ok"), bool):
        raise CertificateError("verdict must record an ok flag")
    if not isinstance(doc["stats"], dict):
        raise CertificateError("stats must be an object")
    return host, terminals, trees


def load_certificate(text: str) -> dict:
    """Parse a certificate document and check its envelope only: a JSON
    object of kind certificate, or a certificate_set whose items are
    objects.  `reverify` checks each certificate's content."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError("not valid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    kind = doc.get("kind", CERTIFICATE_KIND)
    if kind == SET_KIND:
        items = doc.get("items")
        if not isinstance(items, list):
            raise CertificateError("certificate set misses its items list")
        if not all(isinstance(item, dict) for item in items):
            raise CertificateError("certificate set item is not an object")
    elif kind != CERTIFICATE_KIND:
        raise CertificateError("unknown document kind %r" % (kind,))
    return doc


def iter_certificates(doc):
    if doc.get("kind", CERTIFICATE_KIND) == SET_KIND:
        return list(doc["items"])
    return [doc]


def reverify(doc) -> Verdict:
    """Re-run the packing checker on a loaded certificate.

    Fails when the recorded trees no longer verify, when the recorded
    verdict disagrees with the fresh one, or when the stats claim a value
    or a tree count other than the number of trees, as an int (JSON `true`
    and `1.0` are no count), so any edit to a stored certificate is caught.
    This is the one check of a certificate's content: a malformed document
    raises `CertificateError`.
    """
    host, terminals, trees = _read(doc)
    if len(set(terminals)) != len(terminals):
        return Verdict(False, "terminal list repeats a vertex")
    for key in ("value", "trees"):
        claim = doc["stats"].get(key, len(trees))
        if type(claim) is not int or claim != len(trees):
            return Verdict(False, "stats claim %s %r but the certificate holds %d trees"
                           % (key, claim, len(trees)))
    verdict = verify_packing(host, terminals, trees)
    if verdict.ok and not doc["verdict"]["ok"]:
        return Verdict(False, "recorded verdict disagrees with re-verification")
    return verdict
