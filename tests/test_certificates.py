"""Certificate serialization and independent re-verification.

A certificate must carry everything needed to re-check it from scratch:
the host (or its factors), the terminals, and every tree edge by name.
"""

from __future__ import annotations

import json

import pytest

from genconn import certificates
from genconn.certificates import (CertificateError, certificate_set,
                                  dump_certificate, load_certificate,
                                  packing_certificate, parse_vertex,
                                  rebuild_host, reverify, vertex_name)
from genconn.graphs import MAX_ORDER, family, lexicographic_product
from genconn.steiner import max_tree_packing


def product_doc():
    P = lexicographic_product(family("path", 4), family("path", 3))
    S = (P.flatten(0, 0), P.flatten(1, 1), P.flatten(3, 2))
    pack = max_tree_packing(P, S)
    return P, S, packing_certificate(P, S, pack.trees,
                                     stats={"nodes": pack.nodes})


def plain_doc():
    G = family("cycle", 5)
    pack = max_tree_packing(G, (0, 2, 3))
    return G, packing_certificate(G, (0, 2, 3), pack.trees)


class TestNames:
    def test_product_vertices_use_coordinates(self):
        P = lexicographic_product(family("path", 3), family("path", 3))
        assert vertex_name(P, P.flatten(2, 1)) == "2:1"
        assert parse_vertex(P, "2:1") == P.flatten(2, 1)

    def test_plain_vertices_are_bare_integers(self):
        G = family("path", 3)
        assert vertex_name(G, 2) == "2"
        assert parse_vertex(G, "2") == 2

    def test_bad_names_rejected(self):
        P = lexicographic_product(family("path", 3), family("path", 3))
        for bad in ("9:9", "1", "a:b", ":", ""):
            with pytest.raises(CertificateError):
                parse_vertex(P, bad)


class TestRoundTrip:
    def test_product_certificate(self):
        P, S, doc = product_doc()
        text = dump_certificate(doc)
        loaded = load_certificate(text)
        assert reverify(loaded).ok
        host = rebuild_host(loaded["host"])
        assert host.n == P.n and host.edges() == P.edges()

    def test_plain_certificate(self):
        G, doc = plain_doc()
        assert reverify(load_certificate(dump_certificate(doc))).ok

    def test_dump_is_stable(self):
        _, _, doc = product_doc()
        once = dump_certificate(doc)
        again = dump_certificate(load_certificate(once))
        assert once == again
        assert once.endswith("\n")

    def test_verdict_recorded_ok(self):
        _, _, doc = product_doc()
        assert doc["verdict"]["ok"] is True
        assert doc["stats"]["nodes"] >= 0

    def test_certificate_set_roundtrip(self):
        _, _, a = product_doc()
        _, b = plain_doc()
        bundle = certificate_set([a, b])
        loaded = load_certificate(dump_certificate(bundle))
        assert loaded["kind"] == "certificate_set"
        assert len(loaded["items"]) == 2
        assert all(reverify(item).ok for item in loaded["items"])


class TestTampering:
    def test_deleting_a_middle_edge_breaks_the_tree(self):
        _, _, doc = product_doc()
        tree = doc["trees"][0]
        # drop an edge between two internal-or-terminal vertices whose
        # endpoints both stay in the tree, so the defect is disconnection
        names = {}
        for u, v in tree["edges"]:
            names[u] = names.get(u, 0) + 1
            names[v] = names.get(v, 0) + 1
        middle = next(i for i, (u, v) in enumerate(tree["edges"])
                      if names[u] > 1 and names[v] > 1)
        del tree["edges"][middle]
        verdict = reverify(doc)
        assert not verdict.ok
        assert "not a tree" in verdict.reason or "disconnected" in verdict.reason

    def test_deleting_a_leaf_edge_drops_a_terminal(self):
        G, doc = plain_doc()
        tree = doc["trees"][0]
        term = set(doc["terminals"])
        names = {}
        for u, v in tree["edges"]:
            names[u] = names.get(u, 0) + 1
            names[v] = names.get(v, 0) + 1
        leaf = next(i for i, (u, v) in enumerate(tree["edges"])
                    if (names[u] == 1 and u in term)
                    or (names[v] == 1 and v in term))
        del tree["edges"][leaf]
        verdict = reverify(doc)
        assert not verdict.ok and "misses terminal" in verdict.reason

    def test_duplicating_a_tree_is_caught(self):
        _, _, doc = product_doc()
        doc["trees"].append(doc["trees"][0])
        verdict = reverify(doc)
        assert not verdict.ok and "share" in verdict.reason

    def test_recorded_verdict_must_agree(self):
        _, _, doc = product_doc()
        doc["verdict"]["ok"] = False
        verdict = reverify(doc)
        assert not verdict.ok and "recorded verdict" in verdict.reason

    def test_editing_the_host_invalidates_trees(self):
        G, doc = plain_doc()
        doc["host"]["factors"][0]["edges"] = doc["host"]["factors"][0]["edges"][:-1]
        verdict = reverify(doc)
        assert not verdict.ok

    @pytest.mark.parametrize("key", ["value", "trees"])
    @pytest.mark.parametrize("claim", [True, 1.0])
    def test_a_count_must_be_an_integer(self, key, claim):
        # JSON true and 1.0 compare equal to 1, the one tree held here,
        # but neither is the count the certificate was written with
        G = family("path", 4)
        pack = max_tree_packing(G, (0, 2, 3))
        doc = packing_certificate(G, (0, 2, 3), pack.trees, stats={key: 1})
        assert reverify(load_certificate(dump_certificate(doc))).ok
        doc["stats"][key] = claim
        verdict = reverify(load_certificate(dump_certificate(doc)))
        assert not verdict.ok
        assert verdict.reason == ("stats claim %s %r but the certificate holds 1 trees"
                                  % (key, claim))


_GONE = object()


def _edit(doc, path, value=_GONE):
    """Set the field of doc at path to value, or delete it; returns doc."""
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is _GONE:
        del target[last]
    else:
        target[last] = value
    return doc


# each damage to a plain certificate, and the error it must raise
MALFORMED = {
    "no_stats": (lambda d: _edit(d, ["stats"]), "misses field 'stats'"),
    "one_name_edge": (lambda d: _edit(d, ["trees", 0, "edges", 0], ["0"]),
                      "edge .* is not a pair"),
    "factor_not_object": (lambda d: _edit(d, ["host", "factors", 0], 5),
                          "factor entry is not an object"),
    "negative_order": (lambda d: _edit(d, ["host", "factors", 0, "order"], -1),
                       "order must be a nonnegative integer"),
    "factor_edges_not_list": (lambda d: _edit(d, ["host", "factors", 0, "edges"], "0 1"),
                              "factor edges must be a list"),
    "factor_edge_one_id": (lambda d: _edit(d, ["host", "factors", 0, "edges", 0], [0]),
                           "is not a pair of ids"),
    "host_not_object": (lambda d: _edit(d, ["host"], []), "host is not an object"),
    "factors_not_list": (lambda d: _edit(d, ["host", "factors"], {}),
                         "host factors must be a list"),
    "plain_host_two_factors": (
        lambda d: _edit(d, ["host", "factors"], [{"order": 1, "edges": []}] * 2),
        "plain host takes exactly one factor"),
    "product_host_one_factor": (lambda d: _edit(d, ["host", "product_kind"], "cartesian"),
                                "product host takes exactly two factors"),
    "name_not_string": (lambda d: _edit(d, ["terminals", 0], 0), "is not a string"),
    "name_out_of_range": (lambda d: _edit(d, ["terminals", 0], "99"),
                          "vertex name '99' out of range"),
    "no_terminals": (lambda d: _edit(d, ["terminals"], []),
                     "terminals must be a nonempty list"),
    "trees_not_list": (lambda d: _edit(d, ["trees"], {}), "trees must be a list"),
    "tree_not_object": (lambda d: _edit(d, ["trees", 0], []), "tree 0 is malformed"),
    "provenance_not_text": (lambda d: _edit(d, ["trees", 0, "provenance"], 1),
                            "tree 0 provenance is not text"),
    "verdict_without_flag": (lambda d: _edit(d, ["verdict", "ok"], "yes"),
                             "verdict must record an ok flag"),
    "stats_not_object": (lambda d: _edit(d, ["stats"], []), "stats must be an object"),
    "set_without_items": (lambda d: _edit(d, ["kind"], "certificate_set"),
                          "certificate set misses its items list"),
    "set_item_not_object": (lambda d: certificate_set([d, 1]),
                            "certificate set item is not an object"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("text", [
        "", "not json", "[]", "{}",
        json.dumps({"kind": "certificate"}),
        json.dumps({"kind": "something_else", "items": []}),
    ])
    def test_rejected_with_certificate_error(self, text):
        with pytest.raises(CertificateError):
            reverify(load_certificate(text))

    def test_unknown_product_kind(self):
        _, _, doc = product_doc()
        doc["host"]["product_kind"] = "tensor"
        with pytest.raises(CertificateError):
            reverify(load_certificate(dump_certificate(doc)))

    def test_missing_trees_key(self):
        _, _, doc = product_doc()
        del doc["trees"]
        with pytest.raises(CertificateError):
            reverify(load_certificate(dump_certificate(doc)))

    def test_repeated_terminal_rejected_at_reverify(self):
        _, _, doc = product_doc()
        doc["terminals"] = [doc["terminals"][0]] * 3
        verdict = reverify(doc)
        assert not verdict.ok

    def test_factor_above_the_order_limit(self):
        _, doc = plain_doc()
        doc["host"]["factors"][0] = {"order": MAX_ORDER + 1, "edges": []}
        with pytest.raises(CertificateError, match="above the limit"):
            reverify(load_certificate(dump_certificate(doc)))

    def test_product_above_the_order_limit(self):
        _, _, doc = product_doc()
        doc["host"] = {"product_kind": "cartesian",
                       "factors": [{"order": 101, "edges": []}, {"order": 100, "edges": []}]}
        with pytest.raises(CertificateError, match="cartesian product of 10100 vertices"):
            reverify(load_certificate(dump_certificate(doc)))

    @pytest.mark.parametrize("damage", list(MALFORMED))
    def test_reverify_raises_on_a_malformed_document(self, damage):
        # load_certificate checks only the envelope (the two set cases), so
        # reverify is the one guard on the rest of a certificate's content
        _, doc = plain_doc()
        edit, message = MALFORMED[damage]
        text = dump_certificate(edit(doc))
        with pytest.raises(CertificateError, match=message):
            reverify(load_certificate(text))

    def test_each_certificate_is_read_once(self, monkeypatch):
        calls = []
        read = certificates._read
        monkeypatch.setattr(certificates, "_read",
                            lambda doc: calls.append(doc) or read(doc))
        _, doc = plain_doc()
        assert reverify(load_certificate(dump_certificate(doc))).ok
        assert len(calls) == 1
