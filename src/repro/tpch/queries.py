"""The TPC-H sublink query templates (Section 4.2.1).

Nine TPC-H templates contain sublinks — Q2, Q4, Q11, Q15, Q16, Q17, Q20,
Q21 and Q22 — of which Q11, Q15 and Q16 are purely uncorrelated, exactly
the paper's split (Gen everywhere; Left and Move additionally on the
uncorrelated three).  Q18's ``IN`` sublink is also included as a bonus
template (``18``) but excluded from :data:`PAPER_SUBLINK_QUERIES`.

Templates are written in this engine's SQL dialect, which differs from the
TPC-H reference text only cosmetically: date arithmetic is pre-computed by
the parameter generator into literal dates, ``substring(x from a for b)``
is spelled ``substring(x, a, b)``, and Q15's ``revenue`` view is created
via :func:`install_views`.  Each call of :func:`query_sql` draws random
parameters from a seeded generator, mirroring the paper's use of qgen with
100 random instances per template.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

from ..api import Connection

PAPER_SUBLINK_QUERIES = (2, 4, 11, 15, 16, 17, 20, 21, 22)
UNCORRELATED_QUERIES = (11, 15, 16)
ALL_QUERIES = (2, 4, 11, 15, 16, 17, 18, 20, 21, 22)

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS = ["FRANCE", "GERMANY", "CANADA", "SAUDI ARABIA", "BRAZIL",
            "JAPAN", "CHINA", "INDIA", "RUSSIA", "PERU"]
_TYPE_SYLLABLE_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
_TYPE_SYLLABLE_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                    "BRUSHED"]
_CONTAINERS = ["SM CASE", "LG BOX", "MED BOX", "MED BAG", "LG CAN",
               "SM PACK", "JUMBO PKG", "WRAP JAR"]
_COLORS = ["forest", "azure", "beige", "navy", "lime", "salmon", "peach",
           "linen", "plum", "ivory"]


def _iso(day: date) -> str:
    return day.isoformat()


def install_views(conn: Connection,
                  rng: random.Random | None = None) -> None:
    """Create the ``revenue`` view required by Q15."""
    rng = rng or random.Random(15)
    start = date(1993, 1, 1) + timedelta(days=30 * rng.randint(0, 60))
    end = start + timedelta(days=90)
    conn.create_view("revenue", f"""
        SELECT l_suppkey AS supplier_no,
               sum(l_extendedprice * (1 - l_discount)) AS total_revenue
        FROM lineitem
        WHERE l_shipdate >= '{_iso(start)}'
          AND l_shipdate < '{_iso(end)}'
        GROUP BY l_suppkey""")


def _q2(rng: random.Random) -> str:
    size = rng.randint(1, 50)
    type_ = rng.choice(_TYPE_SYLLABLE_3)
    region = rng.choice(_REGIONS)
    return f"""
    SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address,
           s_phone, s_comment
    FROM part, supplier, partsupp, nation, region
    WHERE p_partkey = ps_partkey
      AND s_suppkey = ps_suppkey
      AND p_size = {size}
      AND p_type LIKE '%{type_}'
      AND s_nationkey = n_nationkey
      AND n_regionkey = r_regionkey
      AND r_name = '{region}'
      AND ps_supplycost = (
            SELECT min(ps_supplycost)
            FROM partsupp, supplier, nation, region
            WHERE p_partkey = ps_partkey
              AND s_suppkey = ps_suppkey
              AND s_nationkey = n_nationkey
              AND n_regionkey = r_regionkey
              AND r_name = '{region}')
    ORDER BY s_acctbal DESC, n_name, s_name, p_partkey"""


def _q4(rng: random.Random) -> str:
    start = date(1993, 1, 1) + timedelta(days=30 * rng.randint(0, 57))
    end = start + timedelta(days=90)
    return f"""
    SELECT o_orderpriority, count(*) AS order_count
    FROM orders
    WHERE o_orderdate >= '{_iso(start)}'
      AND o_orderdate < '{_iso(end)}'
      AND EXISTS (
            SELECT * FROM lineitem
            WHERE l_orderkey = o_orderkey
              AND l_commitdate < l_receiptdate)
    GROUP BY o_orderpriority
    ORDER BY o_orderpriority"""


def _q11(rng: random.Random) -> str:
    nation = rng.choice(_NATIONS)
    # The fraction is 0.0001/SF in TPC-H; at reproduction scale a fixed
    # small fraction keeps the result non-trivial.
    fraction = rng.choice([0.001, 0.005, 0.01])
    return f"""
    SELECT ps_partkey, sum(ps_supplycost * ps_availqty) AS value
    FROM partsupp, supplier, nation
    WHERE ps_suppkey = s_suppkey
      AND s_nationkey = n_nationkey
      AND n_name = '{nation}'
    GROUP BY ps_partkey
    HAVING sum(ps_supplycost * ps_availqty) > (
        SELECT sum(ps_supplycost * ps_availqty) * {fraction}
        FROM partsupp, supplier, nation
        WHERE ps_suppkey = s_suppkey
          AND s_nationkey = n_nationkey
          AND n_name = '{nation}')
    ORDER BY value DESC"""


def _q15(rng: random.Random) -> str:
    return """
    SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
    FROM supplier, revenue
    WHERE s_suppkey = supplier_no
      AND total_revenue = (SELECT max(total_revenue) FROM revenue)
    ORDER BY s_suppkey"""


def _q16(rng: random.Random) -> str:
    brand = f"Brand#{rng.randint(1, 5)}{rng.randint(1, 5)}"
    type_ = f"{rng.choice(_TYPE_SYLLABLE_2)}"
    sizes = rng.sample(range(1, 51), 8)
    size_list = ", ".join(str(s) for s in sizes)
    return f"""
    SELECT p_brand, p_type, p_size,
           count(DISTINCT ps_suppkey) AS supplier_cnt
    FROM partsupp, part
    WHERE p_partkey = ps_partkey
      AND p_brand <> '{brand}'
      AND p_type NOT LIKE 'MEDIUM {type_}%'
      AND p_size IN ({size_list})
      AND ps_suppkey NOT IN (
            SELECT s_suppkey FROM supplier
            WHERE s_comment LIKE '%Customer%Complaints%')
    GROUP BY p_brand, p_type, p_size
    ORDER BY supplier_cnt DESC, p_brand, p_type, p_size"""


def _q17(rng: random.Random) -> str:
    brand = f"Brand#{rng.randint(1, 5)}{rng.randint(1, 5)}"
    container = rng.choice(_CONTAINERS)
    return f"""
    SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
    FROM lineitem, part
    WHERE p_partkey = l_partkey
      AND p_brand = '{brand}'
      AND p_container = '{container}'
      AND l_quantity < (
            SELECT 0.2 * avg(l_quantity)
            FROM lineitem
            WHERE l_partkey = p_partkey)"""


def _q18(rng: random.Random) -> str:
    # TPC-H uses 300-315; reproduction-scale orders have fewer, smaller
    # line items, so scale the threshold down to keep results non-empty.
    quantity = rng.randint(120, 150)
    return f"""
    SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
           sum(l_quantity) AS total_quantity
    FROM customer, orders, lineitem
    WHERE o_orderkey IN (
            SELECT l_orderkey FROM lineitem
            GROUP BY l_orderkey
            HAVING sum(l_quantity) > {quantity})
      AND c_custkey = o_custkey
      AND o_orderkey = l_orderkey
    GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
    ORDER BY o_totalprice DESC, o_orderdate"""


def _q20(rng: random.Random) -> str:
    color = rng.choice(_COLORS)
    nation = rng.choice(_NATIONS)
    start = date(1993 + rng.randint(0, 4), 1, 1)
    end = date(start.year + 1, 1, 1)
    return f"""
    SELECT s_name, s_address
    FROM supplier, nation
    WHERE s_suppkey IN (
            SELECT ps_suppkey FROM partsupp
            WHERE ps_partkey IN (
                    SELECT p_partkey FROM part
                    WHERE p_name LIKE '{color}%')
              AND ps_availqty > (
                    SELECT 0.5 * sum(l_quantity)
                    FROM lineitem
                    WHERE l_partkey = ps_partkey
                      AND l_suppkey = ps_suppkey
                      AND l_shipdate >= '{_iso(start)}'
                      AND l_shipdate < '{_iso(end)}'))
      AND s_nationkey = n_nationkey
      AND n_name = '{nation}'
    ORDER BY s_name"""


def _q21(rng: random.Random) -> str:
    nation = rng.choice(_NATIONS)
    return f"""
    SELECT s_name, count(*) AS numwait
    FROM supplier, lineitem l1, orders, nation
    WHERE s_suppkey = l1.l_suppkey
      AND o_orderkey = l1.l_orderkey
      AND o_orderstatus = 'F'
      AND l1.l_receiptdate > l1.l_commitdate
      AND EXISTS (
            SELECT * FROM lineitem l2
            WHERE l2.l_orderkey = l1.l_orderkey
              AND l2.l_suppkey <> l1.l_suppkey)
      AND NOT EXISTS (
            SELECT * FROM lineitem l3
            WHERE l3.l_orderkey = l1.l_orderkey
              AND l3.l_suppkey <> l1.l_suppkey
              AND l3.l_receiptdate > l3.l_commitdate)
      AND s_nationkey = n_nationkey
      AND n_name = '{nation}'
    GROUP BY s_name
    ORDER BY numwait DESC, s_name"""


def _q22(rng: random.Random) -> str:
    codes = rng.sample(range(10, 35), 7)
    code_list = ", ".join(f"'{c}'" for c in codes)
    return f"""
    SELECT cntrycode, count(*) AS numcust, sum(c_acctbal) AS totacctbal
    FROM (SELECT substring(c_phone, 1, 2) AS cntrycode, c_acctbal,
                 c_custkey
          FROM customer
          WHERE substring(c_phone, 1, 2) IN ({code_list})
            AND c_acctbal > (
                  SELECT avg(c_acctbal) FROM customer
                  WHERE c_acctbal > 0.00
                    AND substring(c_phone, 1, 2) IN ({code_list}))
            AND NOT EXISTS (
                  SELECT * FROM orders
                  WHERE o_custkey = c_custkey)) AS custsale
    GROUP BY cntrycode
    ORDER BY cntrycode"""


_TEMPLATES = {
    2: _q2, 4: _q4, 11: _q11, 15: _q15, 16: _q16, 17: _q17, 18: _q18,
    20: _q20, 21: _q21, 22: _q22,
}


def query_sql(number: int, seed: int = 0) -> str:
    """The SQL text of template *number* with seeded random parameters."""
    if number not in _TEMPLATES:
        raise KeyError(
            f"no sublink template for Q{number}; available: "
            f"{sorted(_TEMPLATES)}")
    return _TEMPLATES[number](random.Random(f"q{number}-{seed}")).strip()


def query_strategies(number: int) -> tuple[str, ...]:
    """The strategies the paper runs for template *number*.

    Gen applies to all nine; Left and Move additionally to the three
    purely uncorrelated templates (Q11, Q15, Q16).  None of the nine
    matches the Unn patterns (as the paper notes).
    """
    if number in UNCORRELATED_QUERIES:
        return ("gen", "left", "move")
    return ("gen",)
