"""Closed forms, inequality checks, and the consistency report."""

import pytest

import brute
from genconn.bounds import (CSV_FIELDS, BoundReport, Inapplicable,
                            cartesian_kappa3_upper, cartesian_kappa_formula,
                            consistency_report, kappa3_floor_from_kappa,
                            kappa_ceiling_from_kappa3, kappa_k_complete,
                            lex_kappa3_lower, lex_kappa3_upper,
                            lex_kappa_formula)
from genconn.connectivity import vertex_connectivity
from genconn.graphs import cartesian_product, family, lexicographic_product
from genconn.steiner import kappa3


class TestClosedForms:
    @pytest.mark.parametrize("n,k,want", [(6, 3, 4), (4, 3, 2), (2, 2, 1),
                                          (7, 7, 3), (5, 2, 4)])
    def test_complete_graph_value(self, n, k, want):
        assert kappa_k_complete(n, k) == want

    def test_complete_graph_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kappa_k_complete(3, 1)
        with pytest.raises(ValueError):
            kappa_k_complete(3, 4)

    @pytest.mark.parametrize("kappa,want", [(1, 1), (4, 3), (7, 5)])
    def test_kappa3_floor(self, kappa, want):
        assert kappa3_floor_from_kappa(kappa) == want

    def test_kappa3_floor_matches_measurements(self):
        for G in (family("complete", 6), family("cycle", 5),
                  lexicographic_product(family("path", 3), family("path", 3))):
            assert int(kappa3(G)) >= kappa3_floor_from_kappa(vertex_connectivity(G))

    def test_kappa_ceiling_from_kappa3(self):
        # measured kappa_3 caps how small kappa can be, and vice versa
        G = family("complete", 6)
        assert kappa_ceiling_from_kappa3(int(kappa3(G)), vertex_connectivity(G))


class TestProductFormulas:
    @pytest.mark.parametrize("g,h,want", [
        (("path", 3), ("path", 3), 2),
        (("complete", 3), ("complete", 3), 4),
        (("path", 4), ("complete", 2), 2),
    ])
    def test_cartesian_kappa(self, g, h, want):
        G, H = family(*g), family(*h)
        assert cartesian_kappa_formula(G, H) == want
        P = cartesian_product(G, H)
        assert vertex_connectivity(P) == want

    @pytest.mark.parametrize("g,h,want", [
        (("path", 3), ("path", 3), 2),
        (("complete", 4), ("complete", 4), 6),
    ])
    def test_cartesian_kappa3_upper(self, g, h, want):
        assert cartesian_kappa3_upper(family(*g), family(*h)) == want

    def test_lex_kappa(self):
        G, H = family("path", 4), family("path", 3)
        assert lex_kappa_formula(G, H) == 3
        P = lexicographic_product(G, H)
        assert vertex_connectivity(P) == 3

    def test_lex_kappa_needs_non_complete_base(self):
        with pytest.raises(Inapplicable):
            lex_kappa_formula(family("complete", 4), family("path", 3))

    def test_lex_kappa_needs_nontrivial_base(self):
        with pytest.raises(Inapplicable):
            lex_kappa_formula(family("complete", 1), family("path", 3))

    def test_lex_kappa3_upper(self):
        assert lex_kappa3_upper(family("path", 4), family("path", 3)) == 3
        with pytest.raises(Inapplicable):
            lex_kappa3_upper(family("complete", 4), family("path", 3))

    def test_inapplicable_carries_its_kind(self):
        with pytest.raises(Inapplicable) as err:
            lex_kappa3_upper(family("complete", 4), family("path", 3))
        assert err.value.kind == "hypothesis"
        with pytest.raises(Inapplicable) as err:
            lex_kappa3_lower(family("cycle", 5), family("path", 3), budget=1)
        assert err.value.kind == "budget"

    @pytest.mark.parametrize("g,h,want", [
        (("path", 4), ("path", 3), 3),
        (("path", 7), ("complete", 4), 4),
        (("complete", 2), ("complete", 2), 2),
    ])
    def test_lex_kappa3_lower(self, g, h, want):
        assert lex_kappa3_lower(family(*g), family(*h)) == want

    def test_lex_lower_is_attained_on_small_products(self):
        G, H = family("path", 3), family("complete", 2)
        P = lexicographic_product(G, H)
        edges = P.edges()
        measured = brute.generalized_connectivity(P.n, edges, 3)
        assert measured >= lex_kappa3_lower(G, H)


class TestConsistencyReport:
    def test_clean_pair(self):
        rep = consistency_report(family("path", 4), family("path", 3))
        assert isinstance(rep, BoundReport)
        assert rep.failures == []
        names = {c.name for c in rep.checks}
        assert "lex_kappa_formula" in names
        assert any(n.startswith("cartesian") for n in names)

    def test_complete_base_skips_the_gated_checks(self):
        rep = consistency_report(family("complete", 4), family("path", 3))
        assert rep.failures == []
        skipped = {c.name for c in rep.checks if c.status.startswith("skipped")}
        assert "lex_kappa_formula" in skipped

    def test_csv_rows_match_the_header(self):
        rep = consistency_report(family("path", 3), family("complete", 2))
        for row in rep.csv_rows("p3,k2"):
            assert tuple(row.keys()) == tuple(CSV_FIELDS)
            assert row["pair"] == "p3,k2"

    def test_as_dict_is_json_ready(self):
        import json
        rep = consistency_report(family("path", 3), family("complete", 2))
        text = json.dumps(rep.as_dict())
        assert "checks" in text

    def test_product_checks_skip_over_the_size_limit(self):
        rep = consistency_report(family("path", 5), family("path", 5),
                                 product_oracle_limit=9)
        assert rep.failures == []
        reasons = {c.reason for c in rep.checks if c.status.startswith("skipped")}
        assert any("vertices" in r or "size" in r or "limit" in r for r in reasons)

    def test_skip_status_names_the_kind(self):
        rep = consistency_report(family("cycle", 5), family("path", 3), budget=1)
        status = {c.name: c.status for c in rep.checks}
        assert status["kappa3_le_kappa_g"] == "skipped: budget"
        assert status["lex_kappa3_floor"] == "skipped: budget"
        assert status["lex_kappa_formula"] == "pass"
        rep = consistency_report(family("path", 4), family("path", 3),
                                 product_oracle_limit=4)
        status = {c.name: c.status for c in rep.checks}
        assert status["kappa3_le_kappa_lex"] == "skipped: size"
        assert status["adjacent_min_degree_ceiling_g"] == "skipped: hypothesis"
