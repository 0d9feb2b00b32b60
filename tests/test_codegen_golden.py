"""Golden-source snapshots of generated bee code.

Every representative layout's generated GCL (row sink and column
sink)/SCL — plus two EVP
variants, all four EVJ templates, an AGG transition pair, an IDX
extractor, five fused pipeline bees (filtered rows, tuple-bee
rows, inner/anti probe, grouped agg), the vector-tier kernels
generated from the same five pipeline specs plus a left probe (nullable
key, no qualification) and a semi probe (two keys), three kernels whose
qual splits at its ``AND`` (a mixed one, an all-object one, a lone
``LIKE``), and the morsel workers' partial-agg kernel — is pinned
byte-for-byte
under ``tests/golden/``.  A codegen change shows
up as a reviewable diff instead of a silent behavior shift; regenerate
deliberately with::

    REPRO_GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest tests/test_codegen_golden.py
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path

import pytest

from repro.bees.routines.agg import generate_agg
from repro.bees.routines.evj import JOIN_TYPES, instantiate_evj
from repro.bees.routines.evp import generate_evp
from repro.bees.routines.gcl import generate_gcl, generate_gcl_columns
from repro.bees.routines.idx import generate_idx
from repro.bees.routines.scl import generate_scl
from repro.catalog import BOOL, INT4, INT8, NUMERIC, char, make_schema, varchar
from repro.cost.ledger import Ledger
from repro.engine import expr as E
from repro.storage.layout import TupleLayout

GOLDEN_DIR = Path(__file__).parent / "golden"

# The ISSUE's representative layout set: all-NOT-NULL scalar, varlena-heavy,
# tuple-bee holes, and single-column.
LAYOUTS = {
    "notnull": TupleLayout(
        make_schema(
            "notnull",
            [("a", INT4), ("b", INT8), ("c", BOOL), ("d", NUMERIC)],
            ("a",),
        )
    ),
    "varlena": TupleLayout(
        make_schema(
            "varlena",
            [
                ("v1", varchar(8)),
                ("n1", INT4, True),
                ("v2", varchar(16)),
                ("c1", char(5)),
                ("q1", NUMERIC),
            ],
        )
    ),
    "holes": TupleLayout(
        make_schema(
            "holes",
            [
                ("k", INT4),
                ("tag", char(4)),
                ("grade", char(2)),
                ("amount", NUMERIC),
            ],
            ("k",),
        ),
        bee_attrs=("tag", "grade"),
    ),
    "single": TupleLayout(make_schema("single", [("x", char(4))])),
}


def _evp_expr() -> E.Expr:
    return E.And(
        E.Cmp("<", E.Col("a", 0), E.Const(10)),
        E.Or(
            E.Like(E.Col("b", 1), "ab%"),
            E.IsNull(E.Col("b", 1)),
        ),
    )


def _agg_specs():
    from repro.engine.aggregates import AggSpec

    columns = ["p", "d"]
    revenue = E.bind(
        E.Arith("*", E.Col("p"), E.Arith("-", E.Const(1), E.Col("d"))),
        columns,
    )
    return [
        AggSpec("sum", revenue, name="rev"),
        AggSpec("count", name="n"),
        AggSpec("avg", E.bind(E.Col("p"), columns), name="avg_p"),
    ]


def _pipeline_spec(name: str):
    from repro.bees.pipeline.codegen import PipelineSpec
    from repro.engine.aggregates import AggSpec

    if name == "pipe_rows":
        layout = LAYOUTS["varlena"]
        cols = [attr.name for attr in layout.schema.attributes]
        return PipelineSpec(
            "varlena",
            layout,
            qual=E.bind(E.Cmp(">", E.Col("n1"), E.Const(5)), cols),
            output=[
                E.bind(E.Col("v1"), cols),
                E.bind(E.Arith("*", E.Col("q1"), E.Const(2)), cols),
            ],
        )
    if name == "pipe_rows_bees":
        layout = LAYOUTS["holes"]
        cols = [attr.name for attr in layout.schema.attributes]
        return PipelineSpec(
            "holes",
            layout,
            output=[
                E.bind(E.Col("k"), cols),
                E.bind(E.Col("tag"), cols),
                E.bind(E.Col("amount"), cols),
            ],
        )
    if name == "pipe_rows_ctid":
        # The match plan of UPDATE/DELETE: Filter <- SeqScan(+ctid),
        # the full row and its tuple identifier emitted.
        layout = LAYOUTS["holes"]
        cols = [attr.name for attr in layout.schema.attributes]
        return PipelineSpec(
            "holes",
            layout,
            qual=E.bind(E.Cmp("=", E.Col("k"), E.Const(7)), cols),
            ctid=True,
        )
    if name in ("pipe_probe_inner", "pipe_probe_anti"):
        layout = LAYOUTS["notnull"]
        cols = [attr.name for attr in layout.schema.attributes]
        return PipelineSpec(
            "notnull",
            layout,
            qual=E.bind(E.Cmp("<", E.Col("a"), E.Const(10)), cols),
            sink="probe",
            join_type=name.rsplit("_", 1)[-1],
            probe_idx=(layout.schema.attnum("b"),),
            build_width=2,
        )
    if name == "pipe_probe_semi":
        # Two key lanes, one selected domain.
        layout = LAYOUTS["notnull"]
        cols = [attr.name for attr in layout.schema.attributes]
        return PipelineSpec(
            "notnull",
            layout,
            qual=E.bind(E.Cmp("<", E.Col("a"), E.Const(10)), cols),
            sink="probe",
            join_type="semi",
            probe_idx=(layout.schema.attnum("a"), layout.schema.attnum("b")),
            build_width=2,
        )
    if name == "pipe_probe_left":
        # A nullable key lane over every row (no qualification).
        layout = LAYOUTS["varlena"]
        return PipelineSpec(
            "varlena",
            layout,
            sink="probe",
            join_type="left",
            probe_idx=(layout.schema.attnum("n1"),),
            build_width=2,
        )
    if name == "pipe_agg":
        layout = LAYOUTS["notnull"]
        cols = [attr.name for attr in layout.schema.attributes]
        return PipelineSpec(
            "notnull",
            layout,
            sink="agg",
            group_exprs=(E.bind(E.Col("c"), cols),),
            aggs=(
                AggSpec("sum", E.bind(E.Col("d"), cols), name="s"),
                AggSpec("count", name="n"),
            ),
        )
    raise KeyError(name)


def _split_spec(name: str):
    """A rows kernel over the varlena layout whose qual splits: *mixed*
    has a late LIKE first, a vector conjunct, an exact-int (raising)
    one and a second vector one; *objects* has no vector conjunct at
    all (a raising one between two late ones); *like* is a lone LIKE."""
    from repro.bees.pipeline.codegen import PipelineSpec

    layout = LAYOUTS["varlena"]
    cols = [attr.name for attr in layout.schema.attributes]
    qual = {
        "vec_split_mixed": E.And(
            E.Like(E.Col("v2"), "x%"),
            E.Cmp(">", E.Col("n1"), E.Const(3)),
            E.Cmp("<", E.Arith("*", E.Col("n1"), E.Const(2)), E.Const(50)),
            E.Cmp("<", E.Col("q1"), E.Const(2.5)),
        ),
        "vec_split_objects": E.And(
            E.InList(E.Col("c1"), ["ab", "cd"]),
            E.Cmp("=", E.Arith("+", E.Col("n1"), E.Const(1)), E.Const(5)),
            E.Not(E.Like(E.Col("v1"), "%z")),
        ),
        "vec_split_like": E.Like(E.Col("v1"), "ab%"),
    }[name]
    return PipelineSpec(
        "varlena",
        layout,
        qual=E.bind(qual, cols),
        output=[E.bind(E.Col("v1"), cols), E.bind(E.Col("q1"), cols)],
    )


def _generate(name: str) -> str:
    ledger = Ledger()
    if name.startswith("gcl_"):
        return generate_gcl(LAYOUTS[name[4:]], ledger, name.upper()).source
    if name.startswith("gclc_"):
        return generate_gcl_columns(LAYOUTS[name[5:]], name.upper()).source
    if name.startswith("scl_"):
        return generate_scl(LAYOUTS[name[4:]], ledger, name.upper()).source
    if name == "evp_guarded":
        return generate_evp(_evp_expr(), ledger, "EVP_GUARDED").source
    if name == "evp_direct":
        return generate_evp(
            _evp_expr(), ledger, "EVP_DIRECT", assume_not_null=True
        ).source
    if name.startswith("evj_"):
        join_type = name[4:]
        return instantiate_evj(join_type, 2, f"evj_{join_type}").source
    if name == "agg_guarded":
        return generate_agg(_agg_specs(), ledger, "AGG_GUARDED").source
    if name == "agg_direct":
        return generate_agg(
            _agg_specs(), ledger, "AGG_DIRECT", assume_not_null=True
        ).source
    if name == "idx_pair":
        return generate_idx([2, 0], ledger, "IDX_PAIR").source
    if name.startswith("pipe_"):
        from repro.bees.pipeline.codegen import generate_pipeline

        return generate_pipeline(
            _pipeline_spec(name), ledger, name.upper()
        ).source
    if name.startswith("vec_split_"):
        from repro.bees.vector.codegen import generate_vector

        return generate_vector(_split_spec(name), ledger, "VEC").source
    if name.startswith("vec_"):
        # The vector generator consumes the same fused-pipeline specs,
        # so each vec_* golden is the columnar twin of a pipe_* one.
        from repro.bees.vector.codegen import generate_vector

        return generate_vector(
            _pipeline_spec("pipe_" + name[4:]), ledger, name.upper()
        ).source
    if name == "par_agg":
        # The worker-side twin of vec_agg: same spec, mergeable partials.
        from repro.bees.vector.codegen import generate_vector

        return generate_vector(
            _pipeline_spec("pipe_agg"), ledger, name.upper(), mergeable=True
        ).source
    raise KeyError(name)


SNAPSHOTS = (
    [f"gcl_{key}" for key in LAYOUTS]
    + [f"gclc_{key}" for key in LAYOUTS]
    + [f"scl_{key}" for key in LAYOUTS]
    + ["evp_guarded", "evp_direct"]
    + [f"evj_{join_type}" for join_type in JOIN_TYPES]
    + ["agg_guarded", "agg_direct", "idx_pair"]
    + [
        "pipe_rows",
        "pipe_rows_bees",
        "pipe_rows_ctid",
        "pipe_probe_inner",
        "pipe_probe_anti",
        "pipe_agg",
    ]
    + [
        "vec_rows",
        "vec_rows_bees",
        "vec_rows_ctid",
        "vec_probe_inner",
        "vec_probe_anti",
        "vec_probe_left",
        "vec_probe_semi",
        "vec_agg",
        "vec_split_mixed",
        "vec_split_objects",
        "vec_split_like",
    ]
    + ["par_agg"]
)


@pytest.mark.parametrize("name", SNAPSHOTS)
def test_generated_source_matches_golden(name: str) -> None:
    source = _generate(name)
    golden_path = GOLDEN_DIR / f"{name}.py.golden"
    if os.environ.get("REPRO_GOLDEN_UPDATE"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(source)
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path}; run with "
        f"REPRO_GOLDEN_UPDATE=1 to create it"
    )
    golden = golden_path.read_text()
    if source != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                source.splitlines(keepends=True),
                fromfile=str(golden_path),
                tofile="generated",
            )
        )
        raise AssertionError(
            f"generated source for {name} drifted from its golden "
            f"snapshot (rerun with REPRO_GOLDEN_UPDATE=1 if "
            f"intentional):\n{diff}"
        )


def test_goldens_have_no_strays() -> None:
    """Every committed golden corresponds to a live snapshot case."""
    expected = {f"{name}.py.golden" for name in SNAPSHOTS}
    actual = {p.name for p in GOLDEN_DIR.glob("*.py.golden")}
    assert actual == expected
