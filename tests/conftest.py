"""Shared fixtures: the paper's example relations and small databases."""

from __future__ import annotations

import pytest

from repro import Connection, connect
from repro.catalog import Catalog
from repro.schema import Schema


@pytest.fixture
def figure3_db() -> Connection:
    """The relations R and S from the paper's Figure 3."""
    db = connect()
    db.execute("CREATE TABLE r (a int, b int)")
    db.execute("INSERT INTO r VALUES (1, 1), (2, 1), (3, 2)")
    db.execute("CREATE TABLE s (c int, d int)")
    db.execute("INSERT INTO s VALUES (1, 3), (2, 4), (4, 5)")
    return db


@pytest.fixture
def figure3_catalog(figure3_db) -> Catalog:
    return figure3_db.catalog


@pytest.fixture
def section25_db() -> Connection:
    """Relations of the Section 2.5 multiple-sublink ambiguity example:
    R = {(1)..(100)} (scaled down to 1..10), S = {(1),(5)}, U = {(5)}."""
    db = connect()
    db.execute("CREATE TABLE r (b int)")
    db.insert("r", [(i,) for i in range(1, 11)])
    db.execute("CREATE TABLE s (c int)")
    db.insert("s", [(1,), (5,)])
    db.execute("CREATE TABLE u (a int)")
    db.insert("u", [(5,)])
    return db


@pytest.fixture
def qex_db() -> Connection:
    """Relations of the Section 3.1 representation example:
    R = {(1,2),(3,4)} schema (a,b); S = {(2),(5)} schema (c)."""
    db = connect()
    db.execute("CREATE TABLE r (a int, b int)")
    db.execute("INSERT INTO r VALUES (1, 2), (3, 4)")
    db.execute("CREATE TABLE s (c int)")
    db.execute("INSERT INTO s VALUES (2), (5)")
    return db


ALL_STRATEGIES = ("gen", "left", "move", "unn", "auto")
GENERAL_STRATEGIES = ("gen", "left", "move", "auto")
UNCORRELATED_STRATEGIES = ("gen", "left", "move")


def rows_of(db: Connection, sql: str, strategy: str | None = None):
    """Sorted result rows of a query (test helper)."""
    relation = db.sql(sql, strategy=strategy)
    return sorted(relation.rows, key=_null_safe_key)


def _null_safe_key(row):
    return tuple((value is not None, str(type(value)), value)
                 for value in row)


def bag(rows):
    """Multiset view of a row list."""
    from collections import Counter
    return Counter(tuple(row) for row in rows)
