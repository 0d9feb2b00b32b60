"""Tests for the SQL front-end: lexer, parser, planner, end-to-end."""

import re

import pytest

from repro import BeeSettings, Database
from repro.sql import SQLSyntaxError, parse, tokenize
from repro.sql import ast
from repro.sql.planner import PlanningError


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a, 42 FROM t WHERE b >= 1.5")
        kinds = [(t.kind, t.value) for t in tokens[:-1]]
        assert ("kw", "SELECT") in kinds
        assert ("ident", "a") in kinds
        assert ("number", "42") in kinds
        assert ("symbol", ">=") in kinds
        assert ("number", "1.5") in kinds

    def test_string_with_escaped_quote(self):
        tokens = tokenize("SELECT 'it''s'")
        assert tokens[1].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT 'oops")

    def test_comments_skipped(self):
        tokens = tokenize("SELECT a -- trailing comment\nFROM t")
        values = [t.value for t in tokens]
        assert "comment" not in values
        assert "FROM" in values

    def test_case_insensitive_keywords(self):
        tokens = tokenize("select A fRoM T")
        assert tokens[0].value == "SELECT"
        assert tokens[1].value == "a"      # identifiers lowered

    def test_qualified_name_not_a_float(self):
        tokens = tokenize("t1.col")
        values = [(t.kind, t.value) for t in tokens[:-1]]
        assert values == [
            ("ident", "t1"), ("symbol", "."), ("ident", "col"),
        ]

    def test_junk_rejected(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @a")

    def test_positions_and_error_messages(self):
        tokens = tokenize("SELECT  a,\n -- c 'x\n 'it''s' .5 1.5.2 t.5")
        assert [(t.kind, t.value, t.position) for t in tokens] == [
            ("kw", "SELECT", 0), ("ident", "a", 8), ("symbol", ",", 9),
            ("string", "it's", 21), ("number", ".5", 29),
            ("number", "1.5", 32), ("number", ".2", 35), ("ident", "t", 38),
            ("number", ".5", 39), ("eof", "", 41),
        ]
        for text, message in (
            ("SELECT a\n  -- c\n ?", "unexpected character '?' at 17"),
            ("x 'a''b", "unterminated string literal at 2"),
            ("a = \u00b23", "unexpected character '\u00b2' at 4"),   # not a digit
        ):
            with pytest.raises(SQLSyntaxError, match=re.escape(message)):
                tokenize(text)


class TestParser:
    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t WHERE b = -'x'",         # was TypeError
        "SELECT a FROM t WHERE a = \u00b2",          # was ValueError (int)
        "SELECT a FROM t LIMIT 1.5",              # was ValueError (int)
        "CREATE TABLE t (a char(1.5))",           # was ValueError (int)
        "INSERT INTO t VALUES (-'x')",
    ])
    def test_malformed_literals_are_syntax_errors(self, sql):
        with pytest.raises(SQLSyntaxError):
            parse(sql)

    def test_unary_minus_folds_onto_number_literals_only(self):
        where = parse("SELECT a FROM t WHERE a = - -5 AND b = -NULL").where
        folded, null = (arg.right for arg in where.args)
        assert (folded.value, folded.slot, folded.negate) == (5, 0, False)
        assert isinstance(null, ast.Binary) and null.right.value is None
        row = parse("INSERT INTO t VALUES (-2.5, - 3)")
        assert row.rows == [[-2.5, -3]]
        assert row.slots == [(0, 0, 0, True), (0, 1, 1, True)]

    def test_select_structure(self):
        stmt = parse(
            "SELECT a, sum(b) AS total FROM t WHERE c = 1 "
            "GROUP BY a HAVING sum(b) > 10 ORDER BY total DESC LIMIT 5"
        )
        assert isinstance(stmt, ast.SelectStmt)
        assert len(stmt.items) == 2
        assert stmt.items[1].alias == "total"
        assert stmt.group_by and stmt.having is not None
        assert stmt.order_by[0][1] is True
        assert stmt.limit == 5

    def test_joins(self):
        stmt = parse(
            "SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.y = c.z"
        )
        assert [j.join_type for j in stmt.joins] == ["inner", "left"]

    def test_create_table_with_annotate(self):
        stmt = parse(
            "CREATE TABLE t (a int NOT NULL, b char(4) NOT NULL, "
            "c varchar(10), PRIMARY KEY (a), ANNOTATE (b))"
        )
        assert isinstance(stmt, ast.CreateTableStmt)
        assert stmt.primary_key == ("a",)
        assert stmt.annotate == ("b",)
        assert stmt.columns[2].nullable

    def test_insert_multi_row(self):
        stmt = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert stmt.rows == [[1, "a"], [2, "b"]]

    def test_date_literal(self):
        stmt = parse("SELECT * FROM t WHERE d < DATE '1995-03-15'")
        assert isinstance(stmt.where, ast.Binary)
        assert isinstance(stmt.where.right, ast.Literal)
        assert stmt.where.right.value == 9204   # days since epoch

    def test_not_like_and_not_in(self):
        stmt = parse(
            "SELECT * FROM t WHERE a NOT LIKE 'x%' AND b NOT IN (1, 2)"
        )
        like, in_op = stmt.where.args
        assert like.negate is True
        assert in_op.negate is True

    def test_bad_date(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t WHERE d = DATE 'not-a-date'")

    def test_trailing_garbage(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t WHERE")

    def test_unsupported_statement(self):
        with pytest.raises(SQLSyntaxError):
            parse("TRUNCATE t")

    def test_case_expression(self):
        stmt = parse(
            "SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END FROM t"
        )
        assert isinstance(stmt.items[0].expr, ast.CaseOp)

    def test_count_distinct(self):
        stmt = parse("SELECT count(DISTINCT a) FROM t")
        agg = stmt.items[0].expr
        assert isinstance(agg, ast.AggCall)
        assert agg.distinct


@pytest.fixture(params=["stock", "bees"])
def sql_db(request):
    settings = (
        BeeSettings.stock() if request.param == "stock"
        else BeeSettings.all_bees()
    )
    db = Database(settings)
    db.sql(
        "CREATE TABLE emp (id int NOT NULL, name varchar(20) NOT NULL, "
        "dept char(8) NOT NULL, salary numeric NOT NULL, hired date, "
        "PRIMARY KEY (id), ANNOTATE (dept))"
    )
    db.sql(
        "INSERT INTO emp VALUES "
        "(1, 'ann', 'eng', 120.0, DATE '2020-01-05'), "
        "(2, 'bob', 'sales', 90.0, NULL), "
        "(3, 'cyd', 'eng', 150.0, DATE '2021-07-01'), "
        "(4, 'dee', 'ops', 100.0, DATE '2019-02-11')"
    )
    db.sql("CREATE TABLE dept (dname char(8) NOT NULL, floor int NOT NULL)")
    db.sql("INSERT INTO dept VALUES ('eng', 3), ('sales', 1), ('ops', 2)")
    return db


class TestEndToEnd:
    def test_select_star(self, sql_db):
        result = sql_db.sql("SELECT * FROM emp")
        assert len(result) == 4
        assert result.columns[0] == "id"

    def test_where_and_order(self, sql_db):
        result = sql_db.sql(
            "SELECT name FROM emp WHERE salary > 95 ORDER BY salary DESC"
        )
        assert result.rows == [("cyd",), ("ann",), ("dee",)]

    def test_group_by_having(self, sql_db):
        result = sql_db.sql(
            "SELECT dept, count(*) n, avg(salary) pay FROM emp "
            "GROUP BY dept HAVING count(*) > 1 ORDER BY dept"
        )
        assert result.rows == [("eng", 2, 135.0)]

    def test_join_with_alias(self, sql_db):
        result = sql_db.sql(
            "SELECT e.name, d.floor FROM emp e JOIN dept d "
            "ON e.dept = d.dname WHERE d.floor >= 2 ORDER BY e.name"
        )
        assert result.rows == [("ann", 3), ("cyd", 3), ("dee", 2)]

    def test_left_join_preserves_unmatched(self, sql_db):
        sql_db.sql("CREATE TABLE bonus (who int NOT NULL, amt int NOT NULL)")
        sql_db.sql("INSERT INTO bonus VALUES (1, 10)")
        result = sql_db.sql(
            "SELECT name, amt FROM emp LEFT JOIN bonus ON id = who "
            "ORDER BY name"
        )
        assert result.rows == [
            ("ann", 10), ("bob", None), ("cyd", None), ("dee", None),
        ]

    def test_is_null(self, sql_db):
        result = sql_db.sql("SELECT name FROM emp WHERE hired IS NULL")
        assert result.rows == [("bob",)]

    def test_distinct(self, sql_db):
        result = sql_db.sql("SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert result.rows == [("eng",), ("ops",), ("sales",)]

    def test_arithmetic_projection(self, sql_db):
        result = sql_db.sql(
            "SELECT name, salary * 1.1 AS raised FROM emp "
            "WHERE id = 1"
        )
        assert result.rows[0][1] == pytest.approx(132.0)

    def test_case_when(self, sql_db):
        result = sql_db.sql(
            "SELECT name, CASE WHEN salary >= 120 THEN 'senior' "
            "ELSE 'junior' END AS level FROM emp ORDER BY id LIMIT 2"
        )
        assert result.rows == [("ann", "senior"), ("bob", "junior")]

    def test_in_and_between(self, sql_db):
        result = sql_db.sql(
            "SELECT name FROM emp WHERE dept IN ('eng', 'ops') "
            "AND salary BETWEEN 100 AND 130 ORDER BY name"
        )
        assert result.rows == [("ann",), ("dee",)]

    def test_scalar_function(self, sql_db):
        result = sql_db.sql(
            "SELECT substr(name, 1, 2) FROM emp WHERE id = 3"
        )
        assert result.rows == [("cy",)]

    def test_extract_year(self, sql_db):
        result = sql_db.sql(
            "SELECT extract_year(hired) FROM emp WHERE id = 1"
        )
        assert result.rows == [(2020,)]

    def test_drop_table(self, sql_db):
        sql_db.sql("CREATE TABLE temp (a int NOT NULL)")
        sql_db.sql("DROP TABLE temp")
        assert "temp" not in sql_db.catalog

    def test_unknown_column_is_planning_error(self, sql_db):
        with pytest.raises(PlanningError):
            sql_db.sql("SELECT ghost FROM emp")

    def test_ambiguous_column(self, sql_db):
        sql_db.sql("CREATE TABLE other (name varchar(5) NOT NULL)")
        sql_db.sql("INSERT INTO other VALUES ('zed')")
        with pytest.raises(PlanningError):
            sql_db.sql(
                "SELECT name FROM emp e JOIN other o ON e.id = e.id"
            )

    def test_join_requires_equality(self, sql_db):
        with pytest.raises(PlanningError):
            sql_db.sql(
                "SELECT * FROM emp JOIN dept ON salary > floor"
            )

    def test_unknown_type(self, sql_db):
        with pytest.raises(PlanningError):
            sql_db.sql("CREATE TABLE bad (a geometry NOT NULL)")


class TestSQLBeeParity:
    def test_same_results_both_modes(self):
        statements = [
            "SELECT dept, count(*) FROM emp GROUP BY dept ORDER BY dept",
            "SELECT name FROM emp WHERE salary > 100 ORDER BY name",
            "SELECT e.name, d.floor FROM emp e JOIN dept d "
            "ON e.dept = d.dname ORDER BY e.name",
        ]
        results = {}
        for label, settings in (
            ("stock", BeeSettings.stock()), ("bees", BeeSettings.all_bees()),
        ):
            db = Database(settings)
            db.sql(
                "CREATE TABLE emp (id int NOT NULL, name varchar(20) NOT NULL,"
                " dept char(8) NOT NULL, salary numeric NOT NULL, "
                "ANNOTATE (dept))"
            )
            db.sql(
                "INSERT INTO emp VALUES (1, 'ann', 'eng', 120.0), "
                "(2, 'bob', 'sales', 90.0), (3, 'cyd', 'eng', 150.0)"
            )
            db.sql(
                "CREATE TABLE dept (dname char(8) NOT NULL, "
                "floor int NOT NULL)"
            )
            db.sql("INSERT INTO dept VALUES ('eng', 3), ('sales', 1)")
            results[label] = [db.sql(s).rows for s in statements]
        assert results["stock"] == results["bees"]


class TestSubqueries:
    @pytest.fixture
    def subq_db(self):
        db = Database(BeeSettings.all_bees())
        db.sql(
            "CREATE TABLE emp (id int NOT NULL, name varchar(20) NOT NULL, "
            "dept char(8) NOT NULL, salary numeric NOT NULL)"
        )
        db.sql(
            "INSERT INTO emp VALUES (1,'ann','eng',120.0), "
            "(2,'bob','sales',90.0), (3,'cyd','eng',150.0), "
            "(4,'dee','ops',100.0)"
        )
        db.sql("CREATE TABLE dept (dname char(8) NOT NULL, floor int NOT NULL)")
        db.sql("INSERT INTO dept VALUES ('eng', 3), ('ops', 2)")
        return db

    def test_in_subquery_semi_join(self, subq_db):
        result = subq_db.sql(
            "SELECT name FROM emp WHERE dept IN "
            "(SELECT dname FROM dept WHERE floor > 2) ORDER BY name"
        )
        assert result.rows == [("ann",), ("cyd",)]

    def test_not_in_subquery_anti_join(self, subq_db):
        result = subq_db.sql(
            "SELECT name FROM emp WHERE dept NOT IN "
            "(SELECT dname FROM dept) ORDER BY name"
        )
        assert result.rows == [("bob",)]

    def test_scalar_subquery(self, subq_db):
        # avg salary = 115; ann (120) and cyd (150) are above it.
        result = subq_db.sql(
            "SELECT name FROM emp WHERE salary > "
            "(SELECT avg(salary) FROM emp) ORDER BY name"
        )
        assert result.rows == [("ann",), ("cyd",)]

    def test_exists(self, subq_db):
        yes = subq_db.sql(
            "SELECT count(*) FROM emp WHERE EXISTS "
            "(SELECT dname FROM dept WHERE floor = 3)"
        )
        no = subq_db.sql(
            "SELECT count(*) FROM emp WHERE EXISTS "
            "(SELECT dname FROM dept WHERE floor = 99)"
        )
        assert yes.rows == [(4,)]
        assert no.rows == [(0,)]

    def test_not_exists(self, subq_db):
        result = subq_db.sql(
            "SELECT count(*) FROM emp WHERE NOT EXISTS "
            "(SELECT dname FROM dept WHERE floor = 99)"
        )
        assert result.rows == [(4,)]

    def test_in_subquery_combined_with_filter(self, subq_db):
        result = subq_db.sql(
            "SELECT name FROM emp WHERE dept IN (SELECT dname FROM dept) "
            "AND salary > 110 ORDER BY name"
        )
        assert result.rows == [("ann",), ("cyd",)]

    def test_in_subquery_under_or_rejected(self, subq_db):
        with pytest.raises(PlanningError):
            subq_db.sql(
                "SELECT name FROM emp WHERE salary > 200 OR dept IN "
                "(SELECT dname FROM dept)"
            )

    def test_multirow_scalar_subquery_rejected(self, subq_db):
        with pytest.raises(PlanningError):
            subq_db.sql(
                "SELECT name FROM emp WHERE salary > "
                "(SELECT salary FROM emp)"
            )

    def test_in_subquery_multi_column_rejected(self, subq_db):
        with pytest.raises(PlanningError):
            subq_db.sql(
                "SELECT name FROM emp WHERE dept IN "
                "(SELECT dname, floor FROM dept)"
            )


class TestUpdateDeleteExplain:
    @pytest.fixture
    def dml_db(self):
        db = Database(BeeSettings.all_bees())
        db.sql(
            "CREATE TABLE acct (id int NOT NULL, owner varchar(10) NOT NULL, "
            "balance numeric NOT NULL)"
        )
        db.sql(
            "INSERT INTO acct VALUES (1,'ann',100.0), (2,'bob',50.0), "
            "(3,'cyd',75.0)"
        )
        return db

    def test_update_with_where(self, dml_db):
        result = dml_db.sql(
            "UPDATE acct SET balance = balance + 10 WHERE balance < 80"
        )
        assert result.status == "UPDATE 2"
        rows = dml_db.sql("SELECT balance FROM acct ORDER BY id").rows
        assert rows == [(100.0,), (60.0,), (85.0,)]

    def test_update_multiple_columns(self, dml_db):
        dml_db.sql("UPDATE acct SET owner = 'zed', balance = 0 WHERE id = 1")
        rows = dml_db.sql("SELECT owner, balance FROM acct WHERE id = 1").rows
        assert rows == [("zed", 0)]

    def test_update_without_where_touches_all(self, dml_db):
        result = dml_db.sql("UPDATE acct SET balance = 1")
        assert result.status == "UPDATE 3"

    def test_delete_with_where(self, dml_db):
        result = dml_db.sql("DELETE FROM acct WHERE balance < 80")
        assert result.status == "DELETE 2"
        assert dml_db.sql("SELECT count(*) FROM acct").rows == [(1,)]

    def test_explain_renders_plan(self, dml_db):
        result = dml_db.sql(
            "EXPLAIN SELECT owner, count(*) FROM acct "
            "WHERE balance > 0 GROUP BY owner ORDER BY owner"
        )
        text = "\n".join(r[0] for r in result.rows)
        assert "SeqScan(acct)" in text
        assert "Filter" in text
        assert "HashAgg" in text
        assert "Sort" in text
