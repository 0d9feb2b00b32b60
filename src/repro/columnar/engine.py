"""Vectorized column-scan pipeline with micro-specialization hooks.

Demonstrates the paper's orthogonality claim (Sections I, VII, VIII):
micro-specialization applies to a column-oriented architecture just as it
does to the row store.  The pipeline is scan -> filter -> aggregate over
column chunks; two code paths exist for each stage:

* **generic (vectorized)** — MonetDB-style execution: per-chunk primitive
  dispatch, one pass per expression node with intermediate result
  vectors, per-value column decode with a width switch;
* **specialized** — a **CDL** ("ColumnsToVectors") bee routine generated
  per (relation, column set) that block-copies typed buffers, plus a
  fused predicate kernel (one generated pass, no intermediates — the
  columnar analog of EVP).

The generic columnar baseline is already much cheaper per value than the
row store's interpreted `ExecQual`, so the specialization gains here are
the *incremental* ones the paper predicts for column stores — smaller
than row-store gains but still present.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bees.emit import finish
from repro.bees.routines.base import BeeRoutine
from repro.bees.routines.evp import generate_evp
from repro.cost import constants as C
from repro.cost.ledger import Ledger
from repro.engine.expr import Expr, bind, is_bound
from repro.columnar.store import ColumnStore

CHUNK = 1024


def count_nodes(expr: Expr) -> int:
    """Number of nodes in an expression tree (primitive count)."""
    return 1 + sum(count_nodes(child) for child in expr.children())


def generate_cdl(
    store: ColumnStore, column_names: list[str], ledger: Ledger, fn_name: str
) -> BeeRoutine:
    """Generate the CDL routine: typed block extraction of a column set."""
    if not column_names:
        raise ValueError("CDL needs at least one column")
    cost = C.COL_CHUNK_OVERHEAD
    namespace: dict = {
        "_charge": ledger.charge_fn,
        "_COST": cost,
        "_PER_VALUE": C.COL_DECODE_SPEC * len(column_names),
    }
    lines = [
        '    """Specialized column-chunk extraction (generated)."""',
        f"    _charge({fn_name!r}, _COST + _PER_VALUE * (end - start))",
        "    cols = store.columns",
    ]
    outs = []
    for i, name in enumerate(column_names):
        sql_type = store.column(name).sql_type
        if sql_type.struct_fmt == "B":
            lines.append(
                f"    v{i} = [bool(b) for b in cols[{name!r}].data[start:end]]"
            )
        elif sql_type.struct_fmt:
            # Typed block copy: array slicing + tolist is the Python
            # analog of a memcpy of the packed column page.
            lines.append(f"    v{i} = cols[{name!r}].data[start:end].tolist()")
        else:
            lines.append(f"    v{i} = cols[{name!r}].data[start:end]")
        outs.append(f"v{i}")
    lines.append(f"    return ({', '.join(outs)},)")
    return finish(fn_name, "store, start, end", lines, namespace, None, cost)


@dataclass
class ColumnarQueryResult:
    """Result + accounting for one columnar aggregate query."""

    value: float | int
    rows_scanned: int
    rows_passed: int
    instructions: int


class ColumnarExecutor:
    """Chunked scan -> filter -> sum pipeline over a column store."""

    def __init__(self, store: ColumnStore, ledger: Ledger | None = None,
                 specialized: bool = False) -> None:
        self.store = store
        self.ledger = ledger or Ledger()
        self.specialized = specialized
        self._cdl_cache: dict[tuple[str, ...], BeeRoutine] = {}
        self._kernel_cache: dict[int, tuple[Expr, BeeRoutine]] = {}

    # -- decode stage ------------------------------------------------------------

    def _chunk_reader(self, column_names: list[str]):
        if not self.specialized:
            columns = [self.store.column(name) for name in column_names]

            def read(start: int, end: int):
                return tuple(
                    col.decode_chunk_generic(start, end, self.ledger)
                    for col in columns
                )

            return read
        key = tuple(column_names)
        routine = self._cdl_cache.get(key)
        if routine is None:
            routine = generate_cdl(
                self.store, column_names, self.ledger,
                f"CDL_{self.store.schema.name}_{len(self._cdl_cache)}",
            )
            self._cdl_cache[key] = routine

        def read(start: int, end: int):
            return routine.fn(self.store, start, end)

        return read

    # -- predicate stage -----------------------------------------------------------

    def _predicate(self, qual: Expr, columns: list[str]):
        """Returns ``(per_chunk_charge_fn, per_row_test_fn)``."""
        if not is_bound(qual):
            bind(qual, columns)
        nodes = count_nodes(qual)
        ledger = self.ledger
        if not self.specialized:
            # Vectorized generic: one primitive per node, intermediates.
            def charge_chunk(n_values: int) -> None:
                ledger.charge_fn(
                    "vectorized_qual",
                    C.VECTOR_OP_DISPATCH * nodes
                    + C.VECTOR_OP_PER_VALUE * nodes * n_values,
                )

            return charge_chunk, qual.evaluate

        entry = self._kernel_cache.get(id(qual))
        if entry is None or entry[0] is not qual:
            # The fused kernel reuses EVP codegen for the row test; its
            # cost is charged per chunk below, so a charge-free variant
            # is built against a throwaway ledger.
            silent = Ledger()
            routine = generate_evp(
                qual, silent, f"FUSED_{len(self._kernel_cache)}", True
            )
            self._kernel_cache[id(qual)] = (qual, routine)
        else:
            routine = entry[1]

        def charge_chunk(n_values: int) -> None:
            ledger.charge_fn(
                routine.name,
                C.FUSED_DISPATCH + C.FUSED_PER_VALUE * nodes * n_values,
            )

        return charge_chunk, routine.fn

    # -- the query -------------------------------------------------------------------

    def sum_where(
        self, qual: Expr, qual_columns: list[str], sum_expr: Expr,
        sum_columns: list[str],
    ) -> ColumnarQueryResult:
        """``SELECT sum(<expr>) WHERE <qual>`` over the column store.

        *qual_columns* / *sum_columns* name the columns each expression
        reads — the column-store planner's projection pushdown; only
        those columns' pages are touched.
        """
        ledger = self.ledger
        before = ledger.snapshot()
        all_columns = list(dict.fromkeys(qual_columns + sum_columns))
        read = self._chunk_reader(all_columns)
        charge_qual, test = self._predicate(qual, all_columns)
        if not is_bound(sum_expr):
            bind(sum_expr, all_columns)
        sum_eval = sum_expr.evaluate
        sum_cost = (
            C.AGG_TRANSITION
            + (sum_expr.evp_cost if self.specialized else sum_expr.generic_cost)
        )
        pages = self.store.page_count(all_columns)
        ledger.charge_fn("column_page_access", C.COL_PAGE_ACCESS * pages)

        # Start the accumulator as int so integer sums stay exact — a
        # float accumulator rounds away small addends once BIGINT-scale
        # values (~2^63) enter the sum; Python promotes to float on the
        # first float addend, matching the row engine's SUM semantics.
        total = 0
        passed = 0
        n = len(self.store)
        per_row = C.COL_SCAN_PER_ROW
        for start in range(0, n, CHUNK):
            end = min(start + CHUNK, n)
            vectors = read(start, end)
            n_values = end - start
            charge_qual(n_values)
            ledger.charge(per_row * n_values)
            for i in range(n_values):
                row = [vector[i] for vector in vectors]
                if test(row) is True:
                    ledger.charge(sum_cost)
                    value = sum_eval(row)
                    if value is not None:
                        total += value
                    passed += 1
        delta = ledger.delta_since(before)
        return ColumnarQueryResult(
            value=total,
            rows_scanned=n,
            rows_passed=passed,
            instructions=delta.total,
        )
