"""Seed-driven random generation of schemas, data, and SQL statements.

Everything the differential oracle executes comes from here, derived from a
single integer seed: CREATE TABLE statements (including the paper's
ANNOTATE clause, so tuple bees get exercised), INSERT/UPDATE/DELETE
traffic, and SELECT queries spanning the ``repro.sql`` grammar — joins,
aggregates, GROUP BY/HAVING, DISTINCT, ORDER BY/LIMIT, CASE, LIKE,
BETWEEN, IN, IS NULL.  The generator is fully deterministic: one seed, one
statement stream.  That is what makes divergence repros replayable and the
golden corpus baseline (``results/oracle/``) meaningful.

Design notes that keep the stream *comparable* across engines:

* Column names are globally unique (``t3_c1``), so joins never produce
  ambiguous references, and every identifier is checked against the
  lexer's reserved words.
* Float literals are rendered without exponents (the lexer has no
  ``1e6`` form) and floats are generated pre-rounded so ``repr`` stays
  plain.
* Generated arithmetic never divides (no ZeroDivisionError asymmetry)
  and int arithmetic sticks to literal assignment or same-kind column
  copies, so overflow errors — when they happen — happen identically in
  both engines (the same ``ValueError``, naming the column and value).
* CHAR(n) value pools always include a trailing-space value and the
  generator occasionally emits a deliberately over-width CHAR insert:
  both are regression probes for the padding/width bugs this oracle
  originally found.
* A share of the DML and SELECT traffic is followed by a *literal
  sibling*: the same statement text with its literals perturbed
  (:func:`sibling_sql`), which is what makes the statement front door
  serve shapes from their query bees — and bind them — under the
  oracle's eyes.  Siblings draw from their own random stream, so the
  statements between them are the ones the seed always produced.
* A share of the traffic is also followed by a *split case*
  (:meth:`StatementGenerator._split_select`): a SELECT whose ``AND``
  the vector kernel splits across its lanes, in one of three orders —
  an object conjunct that may raise (an integer division) before a
  vector one, after it, or an object conjunct that cannot raise before
  a division.  These are the only statements that divide, by a column
  or a literal in every order: the error contract they probe is that
  every tier raises where the interpreter raises, and returns its rows
  where it does not.  They too draw from a stream of their own.
"""

from __future__ import annotations

import random
import string as _string
from dataclasses import dataclass, field
from typing import Iterator

from repro.sql import reserved_words
from repro.sql.lexer import lift

_RESERVED = reserved_words()

# Statement-kind mix (cumulative thresholds over random()).
_MAX_TABLES = 4

#: Share of INSERT/UPDATE/DELETE/SELECT statements re-issued as a
#: literal sibling, and of those followed by a second one.
_SIBLING_SHARE = 0.3
_SECOND_SIBLING_SHARE = 0.3

#: Share of statements followed by a split case.
_SPLIT_SHARE = 0.1

#: Column-boundary integers a sibling literal may become (INT and
#: BIGINT extremes and their neighbours).
_INT_BOUNDARIES = (
    0, 1, 2**31 - 1, 2**31, 2**63 - 1, 2**31 - 14,
)


@dataclass
class GenColumn:
    """One generated column: its SQL declaration plus value-domain info."""

    name: str
    kind: str  # 'int' | 'float' | 'bool' | 'date' | 'string'
    type_sql: str
    nullable: bool
    width: int = 0  # CHAR/VARCHAR declared width; 0 for TEXT / non-string
    char_fixed: bool = False  # True for CHAR(n) (blank-padded semantics)
    annotated: bool = False
    lo: int = 0
    hi: int = 0
    pool: list = field(default_factory=list)


@dataclass
class GenTable:
    """A generated table the oracle knows the live schema of."""

    name: str
    columns: list[GenColumn]
    approx_rows: int = 0

    def cols(self, kind: str) -> list[GenColumn]:
        return [c for c in self.columns if c.kind == kind]


@dataclass
class TLPCase:
    """Metamorphic eligibility record for a simple filtered SELECT."""

    items_sql: str
    table: str
    predicate_sql: str


@dataclass
class ColumnarCase:
    """Marks a ``SELECT SUM(expr) FROM t WHERE p`` the columnar engine can
    cross-check (table is all-NOT-NULL scalar columns)."""

    table: str


@dataclass
class GenStatement:
    """One generated statement plus the metadata the runner checks with."""

    sql: str
    kind: str  # 'create' | 'insert' | 'select' | 'update' | 'delete' | 'drop'
    table: str | None = None
    ordered: bool = False  # SELECT carries ORDER BY: compare as lists
    tlp: TLPCase | None = None
    columnar: ColumnarCase | None = None


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _plain_float(value: float) -> str:
    """*value* without an exponent (the lexer has no ``1e6`` form)."""
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = f"{float(value):.6f}"
    return text


def render_literal(value) -> str:
    """SQL text of one lifted literal value (int, float or string)."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, float):
        return _plain_float(value)
    return str(value)


def substitute(text: str, values: list) -> str:
    """Undo :func:`repro.sql.lexer.lift`: shape *text* with *values*
    rendered back into its ``?`` holes (no token of a shape text
    contains a ``?``, so the split is exact)."""
    pieces = text.split("?")
    assert len(pieces) == len(values) + 1, (text, values)
    out = [pieces[0]]
    for value, piece in zip(values, pieces[1:]):
        out += [render_literal(value), piece]
    return "".join(out)


def sibling_sql(sql: str, rng: random.Random) -> str | None:
    """*sql* with its lifted literals perturbed, or ``None`` when it has
    none.  Most perturbations keep each literal's kind — the sibling is
    then the *same shape* and is served from the first statement's
    query bee, re-bound (a literal behind a unary minus binds
    sign-folded) — and some deliberately do not: an int written as a
    float or a float as an int (the kinds are part of the key, so these
    must not share a plan's constants by accident), and integers at
    column boundaries."""
    lifted = lift(sql)
    if lifted is None or not lifted.values:
        return None
    text, values = lifted.text, lifted.values
    strings = [v for v in values if isinstance(v, str)]
    perturbed = []
    for value in values:
        r = rng.random()
        if isinstance(value, str):
            if r < 0.5:
                new = value
            elif r < 0.8:
                new = rng.choice(strings)
            else:
                new = value[:-1]
        elif isinstance(value, float):
            if r < 0.5:
                # Lifted values carry no sign (it is shape text): keep it
                # that way, or ``-`` + ``-1.5`` would read as a comment.
                new = abs(round(value + rng.choice((-1.5, 0.25, 2.0)), 3))
            elif r < 0.7:
                new = round(value * 2, 3)
            elif r < 0.85:
                new = 0.0
            else:
                new = int(value)            # kind change: another shape
        else:
            if r < 0.45:
                new = abs(value + rng.choice((-1, 1, 3)))
            elif r < 0.6:
                new = rng.randint(0, 100)
            elif r < 0.75:
                new = rng.choice(_INT_BOUNDARIES)
            elif r < 0.9:
                new = value
            else:
                new = float(value)          # kind change: another shape
        perturbed.append(new)
    return substitute(text, perturbed)


class StatementGenerator:
    """Deterministic random SQL generator over an evolving schema."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        # Siblings have a stream of their own: the statements between
        # them stay the ones *seed* produced before siblings existed.
        self._sibling_rng = random.Random(seed ^ 0x51B1)
        self._split_rng = random.Random(seed ^ 0x5B17)
        self._siblings: list[GenStatement] = []
        self.tables: dict[str, GenTable] = {}
        self._table_counter = 0

    # -- bootstrap -------------------------------------------------------------

    def bootstrap(self) -> list[GenStatement]:
        """Initial CREATEs plus enough INSERTs that queries see data."""
        statements = [self._create_table() for _ in range(2)]
        for table in list(self.tables.values()):
            for _ in range(3):
                statements.append(self._insert(table))
        return statements

    def stream(self, n: int) -> Iterator[GenStatement]:
        """The seed's first *n* statements: the bootstrap schema and
        rows, then generated traffic — the one statement stream every
        campaign and checker corpus drives.  Literal siblings ride
        behind the statement they repeat and are not counted in *n*:
        the *n* are the ones the seed always produced."""
        pending = self.bootstrap()
        for _ in range(n):
            yield pending.pop(0) if pending else self.next_statement()
            while self._siblings:
                yield self.next_statement()

    def next_statement(self) -> GenStatement:
        """The next statement: a queued literal sibling of the last one,
        else fresh traffic (of which a share queues its siblings)."""
        if self._siblings:
            return self._siblings.pop(0)
        stmt = self._fresh_statement()
        rng = self._sibling_rng
        if stmt.kind in ("insert", "update", "delete", "select") and (
            rng.random() < _SIBLING_SHARE
        ):
            n = 2 if rng.random() < _SECOND_SIBLING_SHARE else 1
            for _ in range(n):
                sql = sibling_sql(stmt.sql, rng)
                if sql is not None:
                    # Same table and ordering; the metamorphic record
                    # quotes the original's predicate, so it stays off.
                    self._siblings.append(
                        GenStatement(
                            sql=sql, kind=stmt.kind, table=stmt.table,
                            ordered=stmt.ordered, columnar=stmt.columnar,
                        )
                    )
        if self.tables and self._split_rng.random() < _SPLIT_SHARE:
            self._siblings.append(self._split_select())
        return stmt

    def _fresh_statement(self) -> GenStatement:
        if not self.tables:
            return self._create_table()
        r = self.rng.random()
        if r < 0.03 and len(self.tables) < _MAX_TABLES:
            return self._create_table()
        if r < 0.05 and len(self.tables) > 1:
            return self._drop_table()
        if r < 0.35:
            return self._insert(self.rng.choice(list(self.tables.values())))
        if r < 0.45:
            return self._update()
        if r < 0.52:
            return self._delete()
        if r < 0.62:
            probe = self._columnar_probe()
            if probe is not None:
                return probe
            return self._select()
        return self._select()

    # -- schema ----------------------------------------------------------------

    def _ident(self, name: str) -> str:
        assert name.upper() not in _RESERVED, name
        return name

    def _make_column(self, name: str) -> GenColumn:
        rng = self.rng
        kind = rng.choices(
            ["int", "float", "string", "date", "bool"],
            weights=[0.32, 0.18, 0.28, 0.12, 0.10],
        )[0]
        nullable = rng.random() < 0.35
        col = GenColumn(
            name=self._ident(name),
            kind=kind,
            type_sql="",
            nullable=nullable,
        )
        if kind == "int":
            big = rng.random() < 0.25
            col.type_sql = "BIGINT" if big else "INT"
            col.lo, col.hi = (
                (-(2**63), 2**63 - 1) if big else (-(2**31), 2**31 - 1)
            )
            col.pool = [0, 1, -1, 2, 7, 100, col.hi, col.lo, col.hi - 13]
            col.pool += [rng.randint(-10_000, 10_000) for _ in range(4)]
        elif kind == "float":
            col.type_sql = "FLOAT"
            col.pool = [0.0, 1.0, -1.0, 2.5, 99.99, 1234.125, -0.125]
            col.pool += [
                round(rng.uniform(-1_000_000, 1_000_000), 3) for _ in range(4)
            ]
        elif kind == "bool":
            col.type_sql = "BOOLEAN"
        elif kind == "date":
            col.type_sql = "DATE"
            col.pool = ["1970-01-01", "2000-02-29"]
            col.pool += [
                f"{rng.randint(1992, 2020):04d}-"
                f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
                for _ in range(4)
            ]
        else:  # string
            flavor = rng.choices(
                ["char", "varchar", "text"], weights=[0.45, 0.35, 0.20]
            )[0]
            if flavor == "char":
                col.width = rng.randint(2, 12)
                col.char_fixed = True
                col.type_sql = f"CHAR({col.width})"
            elif flavor == "varchar":
                col.width = rng.randint(3, 16)
                col.type_sql = f"VARCHAR({col.width})"
            else:
                col.width = 20
                col.type_sql = "TEXT"
            col.pool = self._string_pool(col)
        return col

    def _string_pool(self, col: GenColumn) -> list[str]:
        rng = self.rng
        limit = col.width if col.width else 20
        pool = []
        for _ in range(rng.randint(4, 8)):
            length = rng.randint(0, min(limit, 9))
            pool.append(
                "".join(
                    rng.choice(_string.ascii_lowercase) for _ in range(length)
                )
            )
        if col.char_fixed and col.width >= 3:
            # Trailing-space probe (the bee_key canonicalization bug class).
            pool.append(rng.choice(_string.ascii_lowercase) + "  "[: col.width - 1])
        if rng.random() < 0.3:
            pool.append("it''s"[:limit] if limit >= 5 else "a'b"[:limit])
        return pool

    def _create_table(self) -> GenStatement:
        rng = self.rng
        name = self._ident(f"t{self._table_counter}")
        self._table_counter += 1
        columns = [
            self._make_column(f"{name}_c{i}")
            for i in range(rng.randint(2, 6))
        ]
        if not any(c.kind == "int" for c in columns):
            # Joins and columnar probes want at least one int column.
            replacement = self._make_column(columns[0].name + "k")
            while replacement.kind != "int":
                replacement = self._make_column(columns[0].name + "k")
            columns.append(replacement)
        # Annotate up to two low-cardinality NOT NULL columns (tuple bees).
        candidates = [
            c
            for c in columns
            if not c.nullable and c.pool and c.kind in ("int", "string", "date")
        ]
        annotated = []
        if candidates and rng.random() < 0.55:
            annotated = rng.sample(
                candidates, k=min(len(candidates), rng.randint(1, 2))
            )
            for col in annotated:
                col.annotated = True
                # Low cardinality keeps the bee data sections small.
                col.pool = col.pool[: rng.randint(2, 4)]
        defs = [
            f"{c.name} {c.type_sql}{'' if c.nullable else ' NOT NULL'}"
            for c in columns
        ]
        if annotated:
            defs.append(f"ANNOTATE ({', '.join(c.name for c in annotated)})")
        sql = f"CREATE TABLE {name} ({', '.join(defs)})"
        self.tables[name] = GenTable(name=name, columns=columns)
        return GenStatement(sql=sql, kind="create", table=name)

    def _drop_table(self) -> GenStatement:
        name = self.rng.choice(sorted(self.tables))
        del self.tables[name]
        return GenStatement(sql=f"DROP TABLE {name}", kind="drop", table=name)

    # -- values and literals ---------------------------------------------------

    def _value_for(self, col: GenColumn):
        rng = self.rng
        if col.nullable and rng.random() < 0.15:
            return None
        if col.kind == "int":
            if col.pool and rng.random() < 0.7:
                return rng.choice(col.pool)
            return rng.randint(-100_000, 100_000)
        if col.kind == "float":
            if rng.random() < 0.6:
                return rng.choice(col.pool)
            return round(rng.uniform(-1_000_000, 1_000_000), 3)
        if col.kind == "bool":
            return rng.random() < 0.5
        if col.kind == "date":
            return rng.choice(col.pool)
        if col.pool and rng.random() < 0.8:
            return rng.choice(col.pool)
        limit = col.width if col.width else 12
        length = rng.randint(0, min(limit, 9))
        return "".join(
            rng.choice(_string.ascii_lowercase) for _ in range(length)
        )

    def _literal(self, col: GenColumn, value) -> str:
        if value is None:
            return "NULL"
        if col.kind == "int":
            return str(value)
        if col.kind == "float":
            return _plain_float(value)
        if col.kind == "bool":
            return "TRUE" if value else "FALSE"
        if col.kind == "date":
            return f"DATE {_quote(value)}"
        return _quote(value)

    # -- DML -------------------------------------------------------------------

    def _insert(self, table: GenTable) -> GenStatement:
        rng = self.rng
        overwidth = (
            rng.random() < 0.02
            and any(c.char_fixed and c.width for c in table.columns)
        )
        n_rows = 1 if overwidth else rng.randint(1, 5)
        rows = []
        for _ in range(n_rows):
            values = [self._value_for(c) for c in table.columns]
            rows.append(
                "(" + ", ".join(
                    self._literal(c, v)
                    for c, v in zip(table.columns, values)
                ) + ")"
            )
        if overwidth:
            # Over-width CHAR probe: must raise the same error on every
            # engine (it once silently corrupted the specialized path).
            target = rng.choice(
                [c for c in table.columns if c.char_fixed and c.width]
            )
            values = [self._value_for(c) for c in table.columns]
            values[table.columns.index(target)] = "x" * (target.width + 3)
            rows = [
                "(" + ", ".join(
                    self._literal(c, v)
                    for c, v in zip(table.columns, values)
                ) + ")"
            ]
        else:
            table.approx_rows += n_rows
        sql = f"INSERT INTO {table.name} VALUES {', '.join(rows)}"
        return GenStatement(sql=sql, kind="insert", table=table.name)

    def _assignment(self, table: GenTable, col: GenColumn) -> str:
        rng = self.rng
        same_kind = [c for c in table.columns if c.kind == col.kind and c is not col]
        r = rng.random()
        if col.annotated or r < 0.55 or not same_kind:
            return f"{col.name} = {self._literal(col, self._value_for(col))}"
        other = rng.choice(same_kind)
        if col.kind == "float" and r < 0.8:
            lit = self._literal(col, round(rng.uniform(-10, 10), 2))
            return f"{col.name} = {other.name} + {lit}"
        return f"{col.name} = {other.name}"

    def _update(self) -> GenStatement:
        rng = self.rng
        table = rng.choice(list(self.tables.values()))
        targets = rng.sample(
            table.columns, k=min(len(table.columns), rng.randint(1, 2))
        )
        sets = ", ".join(self._assignment(table, c) for c in targets)
        sql = f"UPDATE {table.name} SET {sets}"
        if rng.random() < 0.8:
            sql += f" WHERE {self._predicate(table.columns, depth=1)}"
        return GenStatement(sql=sql, kind="update", table=table.name)

    def _delete(self) -> GenStatement:
        rng = self.rng
        table = rng.choice(list(self.tables.values()))
        sql = f"DELETE FROM {table.name}"
        if rng.random() < 0.85:
            sql += f" WHERE {self._predicate(table.columns, depth=1)}"
        else:
            table.approx_rows = 0
        return GenStatement(sql=sql, kind="delete", table=table.name)

    # -- predicates ------------------------------------------------------------

    def _predicate(self, columns: list[GenColumn], depth: int) -> str:
        rng = self.rng
        if depth > 0 and rng.random() < 0.4:
            r = rng.random()
            if r < 0.25:
                return f"NOT ({self._predicate(columns, depth - 1)})"
            op = "AND" if r < 0.65 else "OR"
            left = self._predicate(columns, depth - 1)
            right = self._predicate(columns, depth - 1)
            return f"({left}) {op} ({right})"
        return self._leaf_predicate(columns)

    def _leaf_predicate(self, columns: list[GenColumn]) -> str:
        rng = self.rng
        col = rng.choice(columns)
        if col.nullable and rng.random() < 0.18:
            negation = "NOT " if rng.random() < 0.5 else ""
            return f"{col.name} IS {negation}NULL"
        if col.kind == "bool":
            return rng.choice(
                [col.name, f"{col.name} = TRUE", f"NOT {col.name}"]
            )
        cmp_op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        if col.kind == "string":
            r = rng.random()
            sample = rng.choice(col.pool) if col.pool else "a"
            if r < 0.25 and sample:
                return f"{col.name} LIKE {_quote(self._like_pattern(sample))}"
            if r < 0.45 and col.pool:
                picks = rng.sample(col.pool, k=min(len(col.pool), rng.randint(2, 4)))
                items = ", ".join(_quote(p) for p in picks)
                return f"{col.name} IN ({items})"
            return f"{col.name} {cmp_op} {_quote(sample)}"
        # numeric / date
        if col.kind == "date":
            lo, hi = sorted(rng.sample(col.pool, k=2)) if len(col.pool) >= 2 else (
                col.pool[0], col.pool[0]
            )
            r = rng.random()
            if r < 0.3:
                return (
                    f"{col.name} BETWEEN DATE {_quote(lo)} AND DATE {_quote(hi)}"
                )
            return f"{col.name} {cmp_op} DATE {_quote(rng.choice(col.pool))}"
        r = rng.random()
        peers = [
            c for c in columns
            if c is not col and c.kind in ("int", "float")
        ]
        if r < 0.12 and col.kind in ("int", "float") and peers:
            return f"{col.name} {cmp_op} {rng.choice(peers).name}"
        if r < 0.3:
            a = self._value_for_nonnull(col)
            b = self._value_for_nonnull(col)
            lo, hi = (a, b) if rng.random() < 0.15 else sorted((a, b))
            return (
                f"{col.name} BETWEEN {self._literal(col, lo)}"
                f" AND {self._literal(col, hi)}"
            )
        if r < 0.42 and col.pool:
            picks = rng.sample(col.pool, k=min(len(col.pool), rng.randint(2, 4)))
            items = ", ".join(self._literal(col, p) for p in picks)
            return f"{col.name} IN ({items})"
        return f"{col.name} {cmp_op} {self._literal(col, self._value_for_nonnull(col))}"

    def _value_for_nonnull(self, col: GenColumn):
        value = self._value_for(col)
        while value is None:
            value = self._value_for(col)
        return value

    def _like_pattern(self, sample: str, rng=None) -> str:
        rng = rng or self.rng
        if not sample:
            return "%"
        k = rng.randint(1, len(sample))
        r = rng.random()
        if r < 0.4:
            return sample[:k] + "%"
        if r < 0.7:
            return "%" + sample[-k:]
        return sample[: k // 2] + "%" + sample[k // 2 + 1 :]

    # -- SELECT ----------------------------------------------------------------

    def _select(self) -> GenStatement:
        rng = self.rng
        tables = list(self.tables.values())
        table = rng.choice(tables)
        join_table = None
        if len(tables) >= 2 and rng.random() < 0.22:
            t1, t2 = rng.sample(tables, k=2)
            if t1.cols("int") and t2.cols("int"):
                table, join_table = t1, t2
        columns = list(table.columns)
        from_sql = f"FROM {table.name}"
        if join_table is not None:
            left = rng.choice(table.cols("int"))
            right = rng.choice(join_table.cols("int"))
            from_sql = (
                f"FROM {table.name} JOIN {join_table.name}"
                f" ON {left.name} = {right.name}"
            )
            columns += join_table.columns
        where_sql = (
            self._predicate(columns, depth=2)
            if rng.random() < 0.78
            else None
        )
        if rng.random() < 0.25:
            return self._agg_select(table, from_sql, columns, where_sql)
        items_sql, plain = self._select_items(columns)
        distinct = rng.random() < 0.12
        head = "SELECT DISTINCT" if distinct else "SELECT"
        sql = f"{head} {items_sql} {from_sql}"
        if where_sql:
            sql += f" WHERE {where_sql}"
        ordered = False
        if rng.random() < 0.3:
            keys = rng.sample(columns, k=min(len(columns), rng.randint(1, 2)))
            parts = [
                f"{c.name}{' DESC' if rng.random() < 0.4 else ''}" for c in keys
            ]
            sql += f" ORDER BY {', '.join(parts)}"
            ordered = True
            if rng.random() < 0.5:
                sql += f" LIMIT {rng.randint(0, 10)}"
        tlp = None
        if (
            join_table is None
            and where_sql
            and not distinct
            and not ordered
            and plain
        ):
            tlp = TLPCase(
                items_sql=items_sql,
                table=table.name,
                predicate_sql=where_sql,
            )
        return GenStatement(
            sql=sql,
            kind="select",
            table=table.name,
            ordered=ordered,
            tlp=tlp,
        )

    def _select_items(self, columns: list[GenColumn]) -> tuple[str, bool]:
        """Build a target list; returns (sql, all_plain_columns)."""
        rng = self.rng
        if rng.random() < 0.35:
            return "*", True
        items = []
        plain = True
        for i in range(rng.randint(1, 3)):
            col = rng.choice(columns)
            r = rng.random()
            if r < 0.7:
                items.append(col.name)
            elif r < 0.85 and col.kind in ("int", "float"):
                lit = self._literal(col, rng.randint(1, 9))
                op = rng.choice(["+", "-", "*"])
                items.append(f"{col.name} {op} {lit} AS x{i}")
                plain = False
            else:
                leaf = self._leaf_predicate(columns)
                items.append(f"CASE WHEN {leaf} THEN 1 ELSE 0 END AS x{i}")
                plain = False
        return ", ".join(items), plain

    def _agg_select(
        self,
        table: GenTable,
        from_sql: str,
        columns: list[GenColumn],
        where_sql: str | None,
    ) -> GenStatement:
        rng = self.rng
        numeric = [c for c in columns if c.kind in ("int", "float")]
        group_col = rng.choice(columns) if rng.random() < 0.5 else None
        items = []
        if group_col is not None:
            items.append(group_col.name)
        for _ in range(rng.randint(1, 2)):
            r = rng.random()
            if r < 0.35 or not numeric:
                items.append("COUNT(*)")
            else:
                func = rng.choice(["SUM", "AVG", "MIN", "MAX", "COUNT"])
                arg = rng.choice(numeric).name
                if rng.random() < 0.15 and func in ("SUM", "AVG", "COUNT"):
                    arg = f"DISTINCT {arg}"
                items.append(f"{func}({arg})")
        sql = f"SELECT {', '.join(items)} {from_sql}"
        if where_sql:
            sql += f" WHERE {where_sql}"
        if group_col is not None:
            sql += f" GROUP BY {group_col.name}"
            if rng.random() < 0.25:
                sql += f" HAVING COUNT(*) >= {rng.randint(1, 3)}"
        return GenStatement(sql=sql, kind="select", table=table.name)

    # -- split quals -----------------------------------------------------------

    def _split_select(self) -> GenStatement:
        """A SELECT whose ``AND`` splits across the vector kernel's
        lanes, in one of three orders (its own random stream):

        * ``a / b > 0 AND <vector>`` — the integer division is an object
          conjunct that may raise, reached on every row: every tier
          raises where a row divides by zero, or none does;
        * ``<vector> AND a / b > 0`` — an object conjunct that may
          raise, reached only where the vector conjunct is not
          ``False``: a tier raises only where the interpreter does;
        * ``<IN or LIKE> AND <division>`` — an object conjunct that
          cannot raise, run last; the division (a float one, vector,
          where the table has floats) runs over every row, so one by a
          zero the interpreter never reaches degrades the statement
          through the shield, to the interpreter's rows.

        Each divisor is a column or a literal from 2 to 9.
        """
        rng = self._split_rng
        table = self.tables[rng.choice(sorted(self.tables))]
        ints = table.cols("int")

        def division(cols: list, bound: str) -> str:
            divisor = rng.choice([rng.choice(cols).name, str(rng.randint(2, 9))])
            cmp = rng.choice([">", "<"])
            return f"{rng.choice(cols).name} / {divisor} {cmp} {bound}"

        probe = rng.choice(ints)
        op = rng.choice(["<>", "<", "<=", ">", ">="])
        value = rng.choice(probe.pool) if probe.pool else 0
        vector = f"{probe.name} {op} {self._literal(probe, value)}"
        order = rng.choice(("raising-first", "raising-last", "late-first"))
        if order == "raising-first":
            conjuncts = [division(ints, "0"), vector]
        elif order == "raising-last":
            conjuncts = [vector, division(ints, "0")]
        else:
            candidates = [
                c for c in table.columns
                if c.pool and c.kind in ("int", "string")
            ]
            col = rng.choice(candidates)
            if col.kind == "string" and rng.random() < 0.5:
                pattern = self._like_pattern(rng.choice(col.pool), rng)
                late = f"{col.name} LIKE {_quote(pattern)}"
            else:
                picks = rng.sample(col.pool, k=min(len(col.pool), 3))
                items = ", ".join(self._literal(col, p) for p in picks)
                late = f"{col.name} IN ({items})"
            floats = table.cols("float")
            conjuncts = [
                late,
                division(floats, "0.5") if floats else division(ints, "0"),
            ]
        sql = (
            f"SELECT * FROM {table.name} WHERE "
            + " AND ".join(f"({c})" for c in conjuncts)
        )
        return GenStatement(sql=sql, kind="select", table=table.name)

    # -- columnar probe --------------------------------------------------------

    def _columnar_eligible(self, table: GenTable) -> bool:
        scalars = [
            c for c in table.columns if c.kind in ("int", "float", "bool", "date")
        ]
        return (
            any(c.kind in ("int", "float") for c in scalars)
            and all(not c.nullable for c in scalars)
        )

    def _columnar_probe(self) -> GenStatement | None:
        rng = self.rng
        eligible = [
            t for t in self.tables.values() if self._columnar_eligible(t)
        ]
        if not eligible:
            return None
        table = rng.choice(eligible)
        target = rng.choice(
            [c for c in table.columns if c.kind in ("int", "float")]
        )
        r = rng.random()
        if r < 0.6:
            expr_sql = target.name
        elif r < 0.8:
            expr_sql = f"{target.name} * 2"
        else:
            expr_sql = f"{target.name} + {self._literal(target, rng.randint(1, 5))}"
        # The fused columnar kernel is generated with assume_not_null (its
        # documented contract), so the predicate may only touch NOT NULL
        # columns; nullable ones still ride along in the decoded chunks.
        pred_columns = [c for c in table.columns if not c.nullable]
        predicate = self._predicate(pred_columns, depth=1)
        sql = f"SELECT SUM({expr_sql}) FROM {table.name} WHERE {predicate}"
        return GenStatement(
            sql=sql,
            kind="select",
            table=table.name,
            columnar=ColumnarCase(table=table.name),
        )
