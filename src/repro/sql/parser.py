"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    stmt        := select | create_table | insert | update | delete
                 | drop_table | explain | vacuum
    select      := SELECT [DISTINCT] items FROM table [alias]
                   (joins)* [WHERE expr] [GROUP BY cols] [HAVING expr]
                   [ORDER BY order_items] [LIMIT n]
    join        := [INNER|LEFT] JOIN table [alias] ON expr
    create      := CREATE TABLE name '(' coldefs [, PRIMARY KEY (...)]
                   [, ANNOTATE (...)] ')'
    insert      := INSERT INTO name VALUES row (, row)*
    update      := UPDATE name SET col = expr (, col = expr)* [WHERE expr]
    delete      := DELETE FROM name [WHERE expr]
    explain     := EXPLAIN (select | update | delete)
    vacuum      := VACUUM name

Predicates support IN (SELECT ...), EXISTS/NOT EXISTS (SELECT ...), and
scalar subqueries ``(SELECT ...)`` — all uncorrelated, decorrelated by
the planner.  ``ANNOTATE (col, ...)`` is the paper's DDL extension naming
the low-cardinality attributes that tuple bees specialize on.
"""

from __future__ import annotations

import datetime

from repro.catalog.types import date_to_days
from repro.sql import ast
from repro.sql.lexer import SQLSyntaxError, Token, lift, tokenize

AGG_FUNCS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


class Parser:
    """One-statement parser over a token list.

    *slots* maps the text offset of each literal the shape lifter lifted
    to its slot number; the parser stamps it on the ``Literal`` it
    builds from that token, which is how a plan constant finds its way
    back to a hole of the statement's shape.
    """

    def __init__(
        self, tokens: list[Token], slots: dict[int, int] | None = None
    ) -> None:
        self.tokens = tokens
        self.pos = 0
        self.slots = slots or {}
        #: Whether a subquery was parsed (its result is spliced into the
        #: plan as a literal, so such a plan is data-dependent).
        self.has_subquery = False

    # -- token plumbing ---------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def check(self, kind: str, value: str | None = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            wanted = value or kind
            raise SQLSyntaxError(
                f"expected {wanted} at position {actual.position}, "
                f"found {actual.value or actual.kind!r}"
            )
        return token

    # -- statements ---------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self.check("kw", "SELECT"):
            stmt = self.select()
        elif self.check("kw", "CREATE"):
            stmt = self.create_table()
        elif self.check("kw", "INSERT"):
            stmt = self.insert()
        elif self.check("kw", "DROP"):
            stmt = self.drop_table()
        elif self.check("kw", "UPDATE"):
            stmt = self.update()
        elif self.check("kw", "DELETE"):
            stmt = self.delete()
        elif self.check("kw", "EXPLAIN"):
            self.advance()
            if self.check("kw", "UPDATE"):
                stmt = ast.ExplainStmt(self.update())
            elif self.check("kw", "DELETE"):
                stmt = ast.ExplainStmt(self.delete())
            else:
                stmt = ast.ExplainStmt(self.select())
        elif self.check("kw", "VACUUM"):
            self.advance()
            stmt = ast.VacuumStmt(self.expect("ident").value)
        else:
            token = self.peek()
            raise SQLSyntaxError(
                f"unsupported statement starting with {token.value!r}"
            )
        self.accept("symbol", ";")
        self.expect("eof")
        return stmt

    def select(self) -> ast.SelectStmt:
        self.expect("kw", "SELECT")
        distinct = self.accept("kw", "DISTINCT") is not None
        items = [self.select_item()]
        while self.accept("symbol", ","):
            items.append(self.select_item())
        table = alias = None
        joins: list[ast.JoinClause] = []
        if self.accept("kw", "FROM"):
            table = self.expect("ident").value
            alias = self.optional_alias()
            while self.check("kw", "JOIN") or self.check("kw", "INNER") or (
                self.check("kw", "LEFT")
            ):
                joins.append(self.join_clause())
        where = self.expr() if self.accept("kw", "WHERE") else None
        group_by = []
        if self.accept("kw", "GROUP"):
            self.expect("kw", "BY")
            group_by.append(self.expr())
            while self.accept("symbol", ","):
                group_by.append(self.expr())
        having = self.expr() if self.accept("kw", "HAVING") else None
        order_by = []
        if self.accept("kw", "ORDER"):
            self.expect("kw", "BY")
            order_by.append(self.order_item())
            while self.accept("symbol", ","):
                order_by.append(self.order_item())
        limit = self.integer() if self.accept("kw", "LIMIT") else None
        return ast.SelectStmt(
            items=items,
            table=table,
            table_alias=alias,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def select_item(self) -> ast.SelectItem:
        if self.check("symbol", "*"):
            self.advance()
            return ast.SelectItem(expr=ast.ColumnRef("*"))
        expr = self.expr()
        alias = None
        if self.accept("kw", "AS"):
            alias = self.expect("ident").value
        elif self.check("ident"):
            alias = self.advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def optional_alias(self) -> str | None:
        if self.accept("kw", "AS"):
            return self.expect("ident").value
        if self.check("ident"):
            return self.advance().value
        return None

    def join_clause(self) -> ast.JoinClause:
        join_type = "inner"
        if self.accept("kw", "LEFT"):
            join_type = "left"
        else:
            self.accept("kw", "INNER")
        self.expect("kw", "JOIN")
        table = self.expect("ident").value
        alias = self.optional_alias()
        self.expect("kw", "ON")
        condition = self.expr()
        return ast.JoinClause(table, alias, join_type, condition)

    def order_item(self) -> tuple[ast.Expression, bool]:
        expr = self.expr()
        desc = False
        if self.accept("kw", "DESC"):
            desc = True
        else:
            self.accept("kw", "ASC")
        return (expr, desc)

    def create_table(self) -> ast.CreateTableStmt:
        self.expect("kw", "CREATE")
        self.expect("kw", "TABLE")
        name = self.expect("ident").value
        self.expect("symbol", "(")
        columns: list[ast.ColumnDef] = []
        primary_key: tuple[str, ...] = ()
        annotate: tuple[str, ...] = ()
        while True:
            if self.accept("kw", "PRIMARY"):
                self.expect("kw", "KEY")
                primary_key = self.name_list()
            elif self.accept("kw", "ANNOTATE"):
                annotate = self.name_list()
            else:
                columns.append(self.column_def())
            if not self.accept("symbol", ","):
                break
        self.expect("symbol", ")")
        if not columns:
            raise SQLSyntaxError(f"table {name!r} has no columns")
        return ast.CreateTableStmt(name, columns, primary_key, annotate)

    def name_list(self) -> tuple[str, ...]:
        self.expect("symbol", "(")
        names = [self.expect("ident").value]
        while self.accept("symbol", ","):
            names.append(self.expect("ident").value)
        self.expect("symbol", ")")
        return tuple(names)

    def column_def(self) -> ast.ColumnDef:
        name = self.expect("ident").value
        type_token = self.advance()
        if type_token.kind not in ("ident", "kw"):
            raise SQLSyntaxError(f"expected type name after column {name!r}")
        type_name = type_token.value.lower()
        type_arg = None
        if self.accept("symbol", "("):
            type_arg = self.integer()
            self.expect("symbol", ")")
        nullable = True
        if self.accept("kw", "NOT"):
            self.expect("kw", "NULL")
            nullable = False
        elif self.accept("kw", "NULL"):
            nullable = True
        return ast.ColumnDef(name, type_name, type_arg, nullable)

    def integer(self) -> int:
        """A plain non-negative integer (``LIMIT n``, ``char(n)``)."""
        token = self.expect("number")
        if not token.value.isdigit():
            raise SQLSyntaxError(
                f"expected an integer at position {token.position}, "
                f"found {token.value}"
            )
        return _number(token)

    def insert(self) -> ast.InsertStmt:
        self.expect("kw", "INSERT")
        self.expect("kw", "INTO")
        table = self.expect("ident").value
        self.expect("kw", "VALUES")
        stmt = ast.InsertStmt(table, [])
        self.value_row(stmt)
        while self.accept("symbol", ","):
            self.value_row(stmt)
        return stmt

    def value_row(self, stmt: ast.InsertStmt) -> None:
        self.expect("symbol", "(")
        row: list = []
        while True:
            literal = self.literal()
            if literal.slot is not None:
                stmt.slots.append(
                    (len(stmt.rows), len(row), literal.slot, literal.negate)
                )
            row.append(literal.value)
            if not self.accept("symbol", ","):
                break
        self.expect("symbol", ")")
        stmt.rows.append(row)

    def literal(self) -> ast.Literal:
        literal = self.primary()
        if not isinstance(literal, ast.Literal):
            raise SQLSyntaxError("INSERT VALUES must be literals")
        return literal

    def update(self) -> ast.UpdateStmt:
        self.expect("kw", "UPDATE")
        table = self.expect("ident").value
        self.expect("kw", "SET")
        assignments = [self.assignment()]
        while self.accept("symbol", ","):
            assignments.append(self.assignment())
        where = self.expr() if self.accept("kw", "WHERE") else None
        return ast.UpdateStmt(table, assignments, where)

    def assignment(self) -> tuple[str, ast.Expression]:
        column = self.expect("ident").value
        self.expect("symbol", "=")
        return (column, self.expr())

    def delete(self) -> ast.DeleteStmt:
        self.expect("kw", "DELETE")
        self.expect("kw", "FROM")
        table = self.expect("ident").value
        where = self.expr() if self.accept("kw", "WHERE") else None
        return ast.DeleteStmt(table, where)

    def drop_table(self) -> ast.DropTableStmt:
        self.expect("kw", "DROP")
        self.expect("kw", "TABLE")
        return ast.DropTableStmt(self.expect("ident").value)

    # -- expressions -----------------------------------------------------------------

    def expr(self) -> ast.Expression:
        return self.or_expr()

    def or_expr(self) -> ast.Expression:
        left = self.and_expr()
        args = [left]
        while self.accept("kw", "OR"):
            args.append(self.and_expr())
        return args[0] if len(args) == 1 else ast.BoolOp("or", args)

    def and_expr(self) -> ast.Expression:
        left = self.not_expr()
        args = [left]
        while self.accept("kw", "AND"):
            args.append(self.not_expr())
        return args[0] if len(args) == 1 else ast.BoolOp("and", args)

    def not_expr(self) -> ast.Expression:
        if self.check("kw", "NOT"):
            following = self.tokens[self.pos + 1]
            if following.kind == "kw" and following.value == "EXISTS":
                self.advance()   # NOT
                return self.exists_expr(negate=True)
            if not (
                following.kind == "kw"
                and following.value in ("LIKE", "IN", "BETWEEN")
            ):
                self.advance()
                return ast.NotOp(self.not_expr())
        if self.check("kw", "EXISTS"):
            return self.exists_expr(negate=False)
        return self.comparison()

    def exists_expr(self, negate: bool) -> ast.SubqueryOp:
        self.expect("kw", "EXISTS")
        self.expect("symbol", "(")
        return self.subquery("exists", negate=negate)

    def subquery(self, kind: str, **fields) -> ast.SubqueryOp:
        """``SELECT … )``: the caller took the opening parenthesis."""
        select = self.select()
        self.expect("symbol", ")")
        self.has_subquery = True
        return ast.SubqueryOp(kind, select, **fields)

    def comparison(self) -> ast.Expression:
        left = self.additive()
        token = self.peek()
        if token.kind == "symbol" and token.value in (
            "=", "<>", "!=", "<", "<=", ">", ">=",
        ):
            self.advance()
            op = "<>" if token.value == "!=" else token.value
            return ast.Binary(op, left, self.additive())
        negate = False
        if self.check("kw", "NOT"):
            following = self.tokens[self.pos + 1]
            if following.kind == "kw" and following.value in (
                "LIKE", "IN", "BETWEEN",
            ):
                self.advance()
                negate = True
        if self.accept("kw", "LIKE"):
            pattern = self.expect("string").value
            return ast.LikeOp(left, pattern, negate)
        if self.accept("kw", "IN"):
            self.expect("symbol", "(")
            if self.check("kw", "SELECT"):
                return self.subquery("in", arg=left, negate=negate)
            values = [self.literal().value]
            while self.accept("symbol", ","):
                values.append(self.literal().value)
            self.expect("symbol", ")")
            return ast.InOp(left, values, negate)
        if self.accept("kw", "BETWEEN"):
            low = self.additive()
            self.expect("kw", "AND")
            high = self.additive()
            return ast.BetweenOp(left, low, high, negate)
        if self.accept("kw", "IS"):
            is_not = self.accept("kw", "NOT") is not None
            self.expect("kw", "NULL")
            return ast.IsNullOp(left, negate=is_not)
        return left

    def additive(self) -> ast.Expression:
        left = self.multiplicative()
        while self.check("symbol", "+") or self.check("symbol", "-"):
            op = self.advance().value
            left = ast.Binary(op, left, self.multiplicative())
        return left

    def multiplicative(self) -> ast.Expression:
        left = self.primary()
        while self.check("symbol", "*") or self.check("symbol", "/"):
            op = self.advance().value
            left = ast.Binary(op, left, self.primary())
        return left

    def primary(self) -> ast.Expression:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return ast.Literal(_number(token), self.slots.get(token.position))
        if token.kind == "string":
            self.advance()
            return ast.Literal(token.value, self.slots.get(token.position))
        if self.accept("symbol", "-"):
            inner = self.primary()
            if isinstance(inner, ast.Literal) and inner.value is not None:
                if isinstance(inner.value, str):
                    raise SQLSyntaxError(
                        f"cannot negate a string literal "
                        f"at position {token.position}"
                    )
                return ast.Literal(-inner.value, inner.slot, not inner.negate)
            return ast.Binary("-", ast.Literal(0), inner)
        if self.accept("symbol", "("):
            if self.check("kw", "SELECT"):
                return self.subquery("scalar")
            inner = self.expr()
            self.expect("symbol", ")")
            return inner
        if token.kind == "kw":
            return self.keyword_primary()
        if token.kind == "ident":
            return self.identifier_primary()
        raise SQLSyntaxError(
            f"unexpected token {token.value or token.kind!r} "
            f"at position {token.position}"
        )

    def keyword_primary(self) -> ast.Expression:
        token = self.advance()
        if token.value == "NULL":
            return ast.Literal(None)
        if token.value == "TRUE":
            return ast.Literal(True)
        if token.value == "FALSE":
            return ast.Literal(False)
        if token.value == "DATE":
            text = self.expect("string").value
            try:
                date = datetime.date.fromisoformat(text)
            except ValueError as error:
                raise SQLSyntaxError(f"bad date literal {text!r}") from error
            return ast.Literal(date_to_days(date))
        if token.value in AGG_FUNCS:
            self.expect("symbol", "(")
            distinct = self.accept("kw", "DISTINCT") is not None
            if self.accept("symbol", "*"):
                arg = None
            else:
                arg = self.expr()
            self.expect("symbol", ")")
            return ast.AggCall(token.value.lower(), arg, distinct)
        if token.value == "CASE":
            whens = []
            while self.accept("kw", "WHEN"):
                cond = self.expr()
                self.expect("kw", "THEN")
                whens.append((cond, self.expr()))
            default = ast.Literal(None)
            if self.accept("kw", "ELSE"):
                default = self.expr()
            self.expect("kw", "END")
            if not whens:
                raise SQLSyntaxError("CASE requires at least one WHEN")
            return ast.CaseOp(whens, default)
        raise SQLSyntaxError(f"unexpected keyword {token.value}")

    def identifier_primary(self) -> ast.Expression:
        name = self.advance().value
        if self.accept("symbol", "("):
            args = []
            if not self.check("symbol", ")"):
                args.append(self.expr())
                while self.accept("symbol", ","):
                    args.append(self.expr())
            self.expect("symbol", ")")
            return ast.FuncCall(name, args)
        if self.accept("symbol", "."):
            column = self.expect("ident").value
            return ast.ColumnRef(f"{name}.{column}")
        return ast.ColumnRef(name)


def _number(token: Token) -> int | float:
    text = token.value
    try:
        return float(text) if "." in text else int(text)
    except ValueError as error:     # more digits than int() converts
        raise SQLSyntaxError(
            f"bad number literal at position {token.position}"
        ) from error


def literal_slots(positions: list[int]) -> dict[int, int]:
    """The parser's *slots* map for the literal offsets
    :func:`repro.sql.lexer.lift` reported."""
    return {position: slot for slot, position in enumerate(positions)}


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement; raises SQLSyntaxError on bad input."""
    lifted = lift(sql)
    slots = literal_slots(lifted.positions) if lifted is not None else None
    return Parser(tokenize(sql), slots).parse_statement()
