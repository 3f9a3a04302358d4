"""Closed-form bounds for product connectivity and a consistency engine.

Every formula is exact integer arithmetic. The report instantiates each
applicable inequality or equality for a factor pair, compares it against
measured values, and marks it pass/fail; bounds whose hypotheses fail are
reported as skipped rather than vacuously passing. Oracle values that would
be inexact (budget) or too expensive (product size) are skipped likewise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq, ge, le

from . import steiner
from .connectivity import vertex_connectivity
from .graphs import (Graph, cartesian_product, is_complete, is_connected,
                     lexicographic_product, min_degree)
from .steiner import DEFAULT_BUDGET, factor_kappa3


class Inapplicable(ValueError):
    """The input does not satisfy a bound's hypothesis.

    `kind` names the skip in a report: "hypothesis", "budget" when a value
    the bound needs ran out of budget, or "size" when the oracle would not
    take the input."""

    def __init__(self, reason: str, kind: str = "hypothesis"):
        super().__init__(reason)
        self.kind = kind


def kappa_k_complete(n: int, k: int) -> int:
    """kappa_k of the complete graph on n vertices: n - ceil(k/2)."""
    if not 2 <= k <= n:
        raise Inapplicable("need 2 <= k <= n, got k=%d, n=%d" % (k, n))
    return n - (k + 1) // 2


def kappa3_floor_from_kappa(kappa: int) -> int:
    """Writing kappa = 4s + r with r in {0,1,2,3}: kappa_3 >= 3s + ceil(r/2)."""
    if kappa < 0:
        raise Inapplicable("connectivity cannot be negative")
    s, r = divmod(kappa, 4)
    return 3 * s + (r + 1) // 2


def kappa_ceiling_from_kappa3(kappa3_value: int, kappa_value: int) -> int:
    """Inverse reading of the same decomposition: with r = kappa mod 4,
    kappa <= floor((4*kappa_3 + 3r - 4*ceil(r/2)) / 3).  Used as the factor
    term of both product ceilings."""
    if kappa3_value < 0 or kappa_value < 0:
        raise Inapplicable("connectivity cannot be negative")
    r = kappa_value % 4
    return (4 * kappa3_value + 3 * r - 4 * ((r + 1) // 2)) // 3


def cartesian_kappa_formula(G: Graph, H: Graph) -> int:
    """kappa(G box H) = min{kappa(G)|V(H)|, kappa(H)|V(G)|, delta(G)+delta(H)}
    for nontrivial factors."""
    if G.n < 2 or H.n < 2:
        raise Inapplicable("both factors must be nontrivial")
    return min(vertex_connectivity(G) * H.n,
               vertex_connectivity(H) * G.n,
               min_degree(G) + min_degree(H))


def cartesian_kappa3_upper(G: Graph, H: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Upper bound for kappa_3(G box H) from the factor kappa_3 values."""
    if not (is_connected(G) and is_connected(H)):
        raise Inapplicable("both factors must be connected")
    k3g, k3h = factor_kappa3(G, budget), factor_kappa3(H, budget)
    if not (k3g.exact and k3h.exact):
        raise Inapplicable("factor kappa_3 exhausted its budget", "budget")
    return min(kappa_ceiling_from_kappa3(k3g.value, vertex_connectivity(G)) * H.n,
               kappa_ceiling_from_kappa3(k3h.value, vertex_connectivity(H)) * G.n,
               min_degree(G) + min_degree(H))


def lex_kappa_formula(G: Graph, H: Graph) -> int:
    """kappa(G o H) = kappa(G) |V(H)| for connected non-complete nontrivial G."""
    if G.n < 2:
        raise Inapplicable("left factor must be nontrivial")
    if is_complete(G):
        raise Inapplicable("left factor must not be complete")
    if not is_connected(G):
        raise Inapplicable("left factor must be connected")
    return vertex_connectivity(G) * H.n


def lex_kappa3_upper(G: Graph, H: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Upper bound for kappa_3(G o H): the factor ceiling term times |V(H)|."""
    if G.n < 2:
        raise Inapplicable("left factor must be nontrivial")
    if is_complete(G):
        raise Inapplicable("left factor must not be complete")
    if not (is_connected(G) and is_connected(H)):
        raise Inapplicable("both factors must be connected")
    k3g = factor_kappa3(G, budget)
    if not k3g.exact:
        raise Inapplicable("factor kappa_3 exhausted its budget", "budget")
    return kappa_ceiling_from_kappa3(k3g.value, vertex_connectivity(G)) * H.n


def lex_kappa3_lower(G: Graph, H: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Lower bound kappa_3(G o H) >= kappa_3(G) |V(H)|."""
    if G.n < 2:
        raise Inapplicable("left factor must be nontrivial")
    if not (is_connected(G) and is_connected(H)):
        raise Inapplicable("both factors must be connected")
    k3g = factor_kappa3(G, budget)
    if not k3g.exact:
        raise Inapplicable("factor kappa_3 exhausted its budget", "budget")
    return k3g.value * H.n


@dataclass
class BoundCheck:
    """One instantiated inequality: its status, value, and what it was
    compared against."""

    name: str
    status: str
    bound: object = None
    observed: object = None
    reason: str = ""

    def as_dict(self):
        return {"name": self.name, "status": self.status, "bound": self.bound,
                "observed": self.observed, "reason": self.reason}


@dataclass
class BoundReport:
    n: int
    m: int
    kappa_g: int
    kappa_h: int
    delta_g: int
    delta_h: int
    kappa3_g: object
    kappa3_h: object
    s: int
    r: int
    r2: int
    bounds: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def as_dict(self):
        return {
            "factors": {"n": self.n, "m": self.m,
                        "kappa_g": self.kappa_g, "kappa_h": self.kappa_h,
                        "delta_g": self.delta_g, "delta_h": self.delta_h,
                        "kappa3_g": self.kappa3_g, "kappa3_h": self.kappa3_h,
                        "s": self.s, "r": self.r, "r2": self.r2},
            "bounds": dict(self.bounds),
            "oracle": dict(self.oracle),
            "checks": [c.as_dict() for c in self.checks],
        }

    def csv_rows(self, pair: str):
        rows = []
        for c in self.checks:
            rows.append({"pair": pair, "check": c.name, "status": c.status,
                         "bound": "" if c.bound is None else c.bound,
                         "observed": "" if c.observed is None else c.observed,
                         "reason": c.reason})
        return rows


CSV_FIELDS = ("pair", "check", "status", "bound", "observed", "reason")


# product checks whose bound the report also keeps in `bounds`
_RECORDED = frozenset(("cartesian_kappa_formula", "cartesian_kappa3_sum_floor",
                       "cartesian_kappa3_ceiling", "lex_kappa_formula",
                       "lex_kappa3_ceiling", "lex_kappa3_floor"))


def _need(ok, reason, kind="hypothesis"):
    if not ok:
        raise Inapplicable(reason, kind)


def _value(x):
    """A measured value, or raise anew the Inapplicable kept in its place
    (a stored exception never raised holds no traceback)."""
    if isinstance(x, Inapplicable):
        raise Inapplicable(str(x), x.kind)
    return x


def _factor_checks(tag, X, kx, dx, k3x):
    """Specs comparing one factor's kappa_3 with its kappa and min degree."""
    if k3x is None:
        k3 = Inapplicable("factor is disconnected")
    elif X.n < 3:
        k3 = Inapplicable("needs at least three vertices")
    elif not k3x.exact:
        k3 = Inapplicable("budget exhausted", "budget")
    else:
        k3 = k3x.value

    def adjacent_ceiling():
        _value(k3)  # a missing factor value outranks the pair hypothesis
        _need(any(X.degree(u) == dx and X.degree(v) == dx for u, v in X.edges()),
              "no adjacent minimum-degree pair")
        return dx - 1

    return [("kappa3_le_kappa_" + tag, lambda: kx, k3, le),
            ("adjacent_min_degree_ceiling_" + tag, adjacent_ceiling, k3, le),
            ("kappa3_floor_from_kappa_" + tag, lambda: kappa3_floor_from_kappa(kx), k3, ge)]


def consistency_report(G: Graph, H: Graph, budget: int = DEFAULT_BUDGET,
                       product_oracle_limit: int = 16) -> BoundReport:
    """Instantiate every applicable bound for the pair (G, H) and compare
    against measured values.

    Product kappa values come from max-flow and are always computed; product
    kappa_3 values need the exhaustive oracle and are computed only when the
    product has at most `product_oracle_limit` vertices and the budget
    suffices, otherwise the dependent checks are skipped.
    """
    n, m = G.n, H.n
    conn_g, conn_h = is_connected(G), is_connected(H)
    kg = vertex_connectivity(G)
    kh = vertex_connectivity(H)
    dg = min_degree(G)
    dh = min_degree(H)
    k3g = factor_kappa3(G, budget) if conn_g else None
    k3h = factor_kappa3(H, budget) if conn_h else None
    s, r = divmod(kg, 4)
    report = BoundReport(n=n, m=m, kappa_g=kg, kappa_h=kh, delta_g=dg,
                         delta_h=dh,
                         kappa3_g=None if k3g is None else k3g.value,
                         kappa3_h=None if k3h is None else k3h.value,
                         s=s, r=r, r2=kh % 4)
    both_connected = conn_g and conn_h

    # measured product values
    cart = cartesian_product(G, H)
    lex = lexicographic_product(G, H)
    kappa_cart = vertex_connectivity(cart)
    kappa_lex = vertex_connectivity(lex)
    report.oracle["kappa_cartesian"] = kappa_cart
    report.oracle["kappa_lex"] = kappa_lex

    def product_kappa3(P, label):
        report.oracle[label] = None
        if not both_connected:
            return Inapplicable("factor is disconnected")
        if P.n < 3:
            return Inapplicable("needs at least three vertices")
        if P.n > product_oracle_limit:
            return Inapplicable("product exceeds the oracle size limit (%d > %d)"
                                % (P.n, product_oracle_limit), "size")
        got = steiner.kappa3(P, budget)
        if not got.exact:
            return Inapplicable("budget exhausted on the product", "budget")
        report.oracle[label] = got.value
        return got.value

    k3_cart = product_kappa3(cart, "kappa3_cartesian")
    k3_lex = product_kappa3(lex, "kappa3_lex")

    def cartesian_kappa_sum_floor():
        _need(both_connected, "factor is disconnected")
        return kg + kh

    def cartesian_formula():
        _need(n >= 2 and m >= 2, "factor is trivial")
        return cartesian_kappa_formula(G, H)

    def cartesian_kappa3_sum_floor():
        """The box product's kappa_3 sandwich floor; the larger factor
        kappa_3 drives its case split."""
        _need(both_connected, "factor is disconnected")
        _need(n >= 2 and m >= 2, "factor is trivial")
        _need(k3g.exact and k3h.exact, "budget exhausted", "budget")
        # either factor order with the larger kappa_3 first is admissible;
        # on ties take the stronger of the two conclusions
        cands = []
        if k3g.value >= k3h.value:
            cands.append((k3g.value, kg, k3h.value))
        if k3h.value >= k3g.value:
            cands.append((k3h.value, kh, k3g.value))
        return max(a + b - (1 if ka == a else 0) for a, ka, b in cands)

    # (name, bound, observed, holds(observed, bound)); a bound raises
    # Inapplicable, and an observed value is one, when the check is skipped
    specs = _factor_checks("g", G, kg, dg, k3g) + _factor_checks("h", H, kh, dh, k3h) + [
        ("cartesian_kappa_sum_floor", cartesian_kappa_sum_floor, kappa_cart, ge),
        ("cartesian_kappa_formula", cartesian_formula, kappa_cart, eq),
        ("cartesian_kappa3_sum_floor", cartesian_kappa3_sum_floor, k3_cart, ge),
        ("cartesian_kappa3_ceiling",
         lambda: cartesian_kappa3_upper(G, H, budget), k3_cart, le),
        ("lex_kappa_formula", lambda: lex_kappa_formula(G, H), kappa_lex, eq),
        ("lex_kappa3_ceiling", lambda: lex_kappa3_upper(G, H, budget), k3_lex, le),
        ("lex_kappa3_floor", lambda: lex_kappa3_lower(G, H, budget), k3_lex, ge),
        # the plain kappa_3 <= kappa comparison holds on the products too
        ("kappa3_le_kappa_cartesian", lambda: kappa_cart, k3_cart, le),
        ("kappa3_le_kappa_lex", lambda: kappa_lex, k3_lex, le),
    ]
    for name, bound, observed, holds in specs:
        try:
            value = bound()
            if name in _RECORDED:
                report.bounds[name] = value
            got = _value(observed)
        except Inapplicable as exc:
            report.checks.append(BoundCheck(name, "skipped: " + exc.kind, reason=str(exc)))
        else:
            report.checks.append(BoundCheck(name, "pass" if holds(got, value) else "fail",
                                            value, got))
    return report
