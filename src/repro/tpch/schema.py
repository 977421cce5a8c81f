"""The TPC-H schema (all eight tables, full column sets).

Dates are ISO-8601 strings (they order correctly under string comparison);
monetary values are floats.  Column names follow the TPC-H specification
so the query templates read exactly like the published ones.
"""

from __future__ import annotations

from ..api import Connection

TPCH_SCHEMAS: dict[str, list[tuple[str, str]]] = {
    "region": [
        ("r_regionkey", "int"),
        ("r_name", "text"),
        ("r_comment", "text"),
    ],
    "nation": [
        ("n_nationkey", "int"),
        ("n_name", "text"),
        ("n_regionkey", "int"),
        ("n_comment", "text"),
    ],
    "supplier": [
        ("s_suppkey", "int"),
        ("s_name", "text"),
        ("s_address", "text"),
        ("s_nationkey", "int"),
        ("s_phone", "text"),
        ("s_acctbal", "float"),
        ("s_comment", "text"),
    ],
    "customer": [
        ("c_custkey", "int"),
        ("c_name", "text"),
        ("c_address", "text"),
        ("c_nationkey", "int"),
        ("c_phone", "text"),
        ("c_acctbal", "float"),
        ("c_mktsegment", "text"),
        ("c_comment", "text"),
    ],
    "part": [
        ("p_partkey", "int"),
        ("p_name", "text"),
        ("p_mfgr", "text"),
        ("p_brand", "text"),
        ("p_type", "text"),
        ("p_size", "int"),
        ("p_container", "text"),
        ("p_retailprice", "float"),
        ("p_comment", "text"),
    ],
    "partsupp": [
        ("ps_partkey", "int"),
        ("ps_suppkey", "int"),
        ("ps_availqty", "int"),
        ("ps_supplycost", "float"),
        ("ps_comment", "text"),
    ],
    "orders": [
        ("o_orderkey", "int"),
        ("o_custkey", "int"),
        ("o_orderstatus", "text"),
        ("o_totalprice", "float"),
        ("o_orderdate", "date"),
        ("o_orderpriority", "text"),
        ("o_clerk", "text"),
        ("o_shippriority", "int"),
        ("o_comment", "text"),
    ],
    "lineitem": [
        ("l_orderkey", "int"),
        ("l_partkey", "int"),
        ("l_suppkey", "int"),
        ("l_linenumber", "int"),
        ("l_quantity", "float"),
        ("l_extendedprice", "float"),
        ("l_discount", "float"),
        ("l_tax", "float"),
        ("l_returnflag", "text"),
        ("l_linestatus", "text"),
        ("l_shipdate", "date"),
        ("l_commitdate", "date"),
        ("l_receiptdate", "date"),
        ("l_shipinstruct", "text"),
        ("l_shipmode", "text"),
        ("l_comment", "text"),
    ],
}


def create_tpch_tables(conn: Connection) -> None:
    """Create all eight (empty) TPC-H tables through *conn*."""
    for table, columns in TPCH_SCHEMAS.items():
        conn.create_table(table, columns)
