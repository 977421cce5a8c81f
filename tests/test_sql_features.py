"""SQL feature matrix: end-to-end behaviour of the dialect's constructs
(the features the TPC-H templates depend on, exercised in isolation)."""

import pytest

from repro import connect


@pytest.fixture
def db():
    database = connect()
    database.execute_script("""
        CREATE TABLE items (id int, name text, price float, qty int,
                            category text);
        INSERT INTO items VALUES
            (1, 'forest bench', 10.0, 3, 'garden'),
            (2, 'lamp', 25.5, 1, 'indoor'),
            (3, 'forest table', 99.0, NULL, 'garden'),
            (4, 'rug', 12.0, 7, 'indoor'),
            (5, 'pot', 3.5, 20, NULL);
    """)
    return database


class TestPredicates:
    def test_between(self, db):
        rows = db.sql("SELECT id FROM items WHERE price "
                      "BETWEEN 10 AND 30 ORDER BY id").rows
        assert rows == [(1,), (2,), (4,)]

    def test_like_prefix(self, db):
        rows = db.sql("SELECT id FROM items WHERE name LIKE 'forest%' "
                      "ORDER BY id").rows
        assert rows == [(1,), (3,)]

    def test_not_like_with_underscore(self, db):
        rows = db.sql(
            "SELECT name FROM items WHERE name LIKE '_ot'").rows
        assert rows == [("pot",)]

    def test_in_list(self, db):
        rows = db.sql("SELECT id FROM items WHERE category IN "
                      "('garden', 'indoor') ORDER BY id").rows
        assert rows == [(1,), (2,), (3,), (4,)]

    def test_null_category_excluded_by_in(self, db):
        rows = db.sql(
            "SELECT id FROM items WHERE category NOT IN ('garden')"
            " ORDER BY id").rows
        assert rows == [(2,), (4,)]  # NULL category is unknown -> dropped

    def test_is_null(self, db):
        assert db.sql("SELECT id FROM items WHERE qty IS NULL").rows == [
            (3,)]
        assert len(db.sql(
            "SELECT id FROM items WHERE qty IS NOT NULL").rows) == 4


class TestExpressions:
    def test_case_in_select(self, db):
        rows = db.sql("""
            SELECT id, CASE WHEN price > 20 THEN 'pricey'
                            WHEN price > 5 THEN 'fair'
                            ELSE 'cheap' END AS tier
            FROM items ORDER BY id""").rows
        assert [tier for _, tier in rows] == [
            "fair", "pricey", "pricey", "fair", "cheap"]

    def test_arithmetic_with_null(self, db):
        rows = db.sql("SELECT id, price * qty AS total FROM items "
                      "WHERE id = 3").rows
        assert rows == [(3, None)]

    def test_string_functions(self, db):
        rows = db.sql(
            "SELECT upper(substr(name, 1, 3)) AS code FROM items "
            "WHERE id = 2").rows
        assert rows == [("LAM",)]

    def test_concat_operator(self, db):
        rows = db.sql("SELECT name || '!' AS loud FROM items "
                      "WHERE id = 5").rows
        assert rows == [("pot!",)]

    def test_coalesce(self, db):
        rows = db.sql("SELECT coalesce(qty, 0) AS q FROM items "
                      "WHERE id = 3").rows
        assert rows == [(0,)]

    def test_cast_in_where(self, db):
        rows = db.sql("SELECT id FROM items "
                      "WHERE CAST(price AS int) = 12").rows
        assert rows == [(4,)]


class TestNestedQueries:
    def test_derived_table_over_aggregate(self, db):
        rows = db.sql("""
            SELECT category, total
            FROM (SELECT category, sum(price) AS total FROM items
                  WHERE category IS NOT NULL GROUP BY category) AS t
            WHERE total > 30 ORDER BY category""").rows
        assert rows == [("garden", 109.0), ("indoor", 37.5)]

    def test_correlated_scalar_in_select(self, db):
        rows = db.sql("""
            SELECT i.category,
                   (SELECT max(price) FROM items j
                    WHERE j.category = i.category) AS top
            FROM items i WHERE i.id = 1""").rows
        assert rows == [("garden", 99.0)]

    def test_three_level_nesting(self, db):
        rows = db.sql("""
            SELECT id FROM items WHERE price > (
                SELECT avg(price) FROM items WHERE id IN (
                    SELECT id FROM items WHERE category = 'indoor'))
            ORDER BY id""").rows
        assert rows == [(2,), (3,)]  # avg(indoor) = 18.75

    def test_exists_with_aggregate_subquery(self, db):
        rows = db.sql("""
            SELECT category FROM items i WHERE EXISTS (
                SELECT category FROM items GROUP BY category
                HAVING count(*) > 1 AND category = i.category)
            ORDER BY id""").rows
        assert [r[0] for r in rows] == ["garden", "indoor", "garden",
                                        "indoor"]


class TestProvenanceOfFeatures:
    """Provenance flows through every dialect feature."""

    def test_provenance_with_case(self, db):
        prov = db.provenance(
            "SELECT CASE WHEN price > 20 THEN 'hi' ELSE 'lo' END AS t "
            "FROM items WHERE id = 2")
        assert prov.rows[0][0] == "hi"
        assert prov.rows[0][1] == 2  # prov_items_id

    def test_provenance_with_like_filtered_sublink(self, db):
        prov = db.provenance(
            "SELECT id FROM items WHERE price = ANY ("
            "  SELECT price FROM items j WHERE j.name LIKE 'forest%')")
        ids = {row[0] for row in prov.rows}
        assert ids == {1, 3}

    def test_provenance_union_of_filters(self, db):
        prov = db.provenance(
            "SELECT id FROM items WHERE category = 'garden' "
            "UNION ALL SELECT id FROM items WHERE qty > 10")
        assert {row[0] for row in prov.rows} == {1, 3, 5}

    def test_provenance_correlated_aggregate_comparison(self, db):
        # each item compared to its category's average (Q17's shape)
        sql = ("SELECT id FROM items i WHERE price < ("
               "  SELECT avg(price) FROM items j "
               "  WHERE j.category = i.category)")
        plain = {row[0] for row in db.sql(sql).rows}
        prov = db.provenance(sql, strategy="gen")
        assert {row[0] for row in prov.rows} == plain
        # provenance covers both accesses of items
        assert len(prov.schema) == 1 + 5 + 5
