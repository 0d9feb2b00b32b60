"""The Bee Maker: turns templates + invariant values into executable bees.

Relation bees are "compiled" at schema-definition time (the expensive path —
the paper invokes gcc here); query bees are instantiated at query
preparation by cloning proto-bees and patching constants into their holes
(the first query of a shape compiles its proto-bee into the module's code
cache; every later one is an ``exec`` of that code object into a fresh data
section); tuple bees are carved out of data-section slabs during inserts.
The maker owns code generation; the cache and manager own the lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bees.datasection import DataSectionStore
from repro.bees.routines.base import BeeRoutine
from repro.bees.routines.evj import EVJRoutine, instantiate_evj
from repro.bees.routines.evp import generate_evp
from repro.bees.routines.gcl import generate_gcl, generate_gcl_columns
from repro.bees.routines.scl import generate_scl
from repro.engine.expr import Expr
from repro.storage.layout import TupleLayout


@dataclass
class RelationBee:
    """The per-relation bee: GCL + SCL routines and tuple-bee data sections.

    There is exactly one relation bee per relation (paper, Section III);
    when the relation is annotated, the bee also owns the data sections its
    tuple bees index with their beeIDs.  GCL comes with two sinks over one
    unrolled deform body: ``gcl`` returns a tuple's value list (scans,
    DML match scans), ``gcl_cols`` appends a page of tuples onto
    per-column lists (the vector tier's chunk decode).
    """

    relation: str
    layout: TupleLayout
    gcl: BeeRoutine
    gcl_cols: BeeRoutine
    scl: BeeRoutine
    data_sections: DataSectionStore | None = None

    @property
    def routines(self) -> list[BeeRoutine]:
        return [self.gcl, self.gcl_cols, self.scl]

    def sections_list(self) -> list[tuple]:
        """Data sections as a beeID-indexed list (empty when unannotated)."""
        if self.data_sections is None:
            return []
        return self.data_sections.as_list()


@dataclass
class QueryBee:
    """One statement *shape*, prepared: what a later statement of the
    same shape needs in order to skip parsing, planning, tier stacking
    and routine instantiation.

    Built on the first statement of the shape (``repro.sql.session``),
    cached in :attr:`BeeCache.query_bees` under ``key`` — the statement
    text with its literals lifted out, their kinds, and the
    :class:`BeeSettings` the plan was stacked under — and *bound* on
    every later one: each ``(setter, slot, negate)`` of ``binds`` puts
    that statement's literal into the plan constant it stands for.  The
    routines the plan reaches re-patch their ``_K{n}`` holes from those
    constants when they are next acquired
    (:meth:`GenericBeeModule.get_evp` and friends), so the bee holds
    plans, not routines.
    """

    key: tuple | None
    verb: str                           # select | insert | update | delete
    kind: str                           # the server's latch class
    relations: tuple[str, ...]          # ... and the relations it latches
    epoch: int                          # query_epoch it was built under
    binds: list = field(default_factory=list)
    #: SELECT: its plan; UPDATE/DELETE: the ctid match plan.  Unstacked
    #: — what beeshield's degrade-and-retry re-stacks — with the form
    #: the tier stack gave it under the key's settings on its root
    #: (:attr:`repro.engine.nodes.PlanNode.stacked`).
    plan: object | None = None
    columns: list = field(default_factory=list)     # SELECT output names
    table: str | None = None                        # the written relation
    assignments: list = field(default_factory=list)  # UPDATE: (attnum, expr)
    rows: list = field(default_factory=list)        # INSERT: value rows

    def bind(self, values: list) -> None:
        """Put one statement's lifted *values* into the plan's holes,
        sign-folded as ``Parser.primary`` folds a unary minus."""
        for setter, slot, negate in self.binds:
            value = values[slot]
            setter(-value if negate else value)


class BeeMaker:
    """Generates bee routines; the only component that emits code.

    With ``verify=True`` (the ``verify_on_generate`` setting) every
    emitted GCL/SCL/EVP routine is gated through beecheck before it is
    handed out — the verification stage between codegen and execution.
    Query-bee sources are proto-bees, compiled once per shape through
    *code_cache* (the owning module's); verification still runs on every
    instantiation.
    """

    def __init__(self, ledger, verify: bool = False, code_cache=None) -> None:
        self.ledger = ledger
        self.verify = verify
        self.code_cache = code_cache
        self._evp_counter = 0
        self._evj_counter = 0
        self._fused_counter: dict[str, int] = {}   # tier prefix -> count

    def make_relation_bee(self, layout: TupleLayout) -> RelationBee:
        """Create the relation bee for *layout* (schema-definition time)."""
        name = layout.schema.name
        gcl = generate_gcl(layout, self.ledger, f"GCL_{name}")
        gcl_cols = generate_gcl_columns(layout, f"GCLC_{name}")
        scl = generate_scl(layout, self.ledger, f"SCL_{name}")
        if self.verify:
            # Imported lazily: beecheck imports the routine generators.
            from repro.beecheck import verify_gcl, verify_gcl_cols, verify_scl

            verify_gcl(gcl, layout)
            verify_gcl_cols(gcl_cols, layout)
            verify_scl(scl, layout)
        sections = None
        if layout.bee_attrs:
            sections = DataSectionStore(name, layout.bee_attrs)
        return RelationBee(name, layout, gcl, gcl_cols, scl, sections)

    def make_evp(self, expr: Expr, assume_not_null: bool = False) -> BeeRoutine:
        """Specialize a bound predicate into an EVP routine."""
        self._evp_counter += 1
        fn_name = f"EVP_{self._evp_counter}"
        routine = generate_evp(
            expr, self.ledger, fn_name, assume_not_null, self.code_cache
        )
        self.check_evp(routine, expr)
        return routine

    def check_evp(self, routine: BeeRoutine, expr: Expr) -> None:
        """The ``verify_on_generate`` gate of an EVP routine — after
        generation, and again whenever its holes are re-patched."""
        if self.verify:
            from repro.beecheck import verify_evp

            verify_evp(routine, expr)

    def make_fused(self, tier, spec) -> BeeRoutine:
        """Compile *tier*'s routine (a fused pipeline bee, a columnar
        vector kernel) for one fusable plan segment; *tier* is a row of
        :data:`repro.bees.drivers.TIERS`."""
        count = self._fused_counter.get(tier.prefix, 0) + 1
        self._fused_counter[tier.prefix] = count
        routine = tier.generate(
            spec, self.ledger, f"{tier.prefix}_{count}", self.code_cache
        )
        self.check_fused(routine, tier, spec)
        return routine

    def check_fused(self, routine: BeeRoutine, tier, spec) -> None:
        """The ``verify_on_generate`` gate of a fused routine."""
        if self.verify:
            import repro.beecheck as beecheck

            getattr(beecheck, f"verify_{tier.name}")(routine, spec)

    def make_evj(self, join_type: str, n_keys: int) -> EVJRoutine:
        """Clone the pre-compiled EVJ template for a join node."""
        self._evj_counter += 1
        fn_name = f"EVJ_{self._evj_counter}_{join_type}"
        routine = instantiate_evj(join_type, n_keys, fn_name)
        if self.verify:
            from repro.beecheck import verify_evj

            verify_evj(routine)
        return routine
