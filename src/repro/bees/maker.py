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

from collections import Counter
from dataclasses import dataclass, field

from repro.bees.datasection import DataSectionStore
from repro.bees.routines.agg import generate_agg
from repro.bees.routines.base import BeeRoutine
from repro.bees.routines.evj import EVJRoutine, instantiate_evj
from repro.bees.routines.evp import generate_evp
from repro.bees.routines.idx import generate_idx
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
    bee holds plans, and its plans' nodes hold the routines
    (:meth:`GenericBeeModule.held`): each re-patches its ``_K{n}`` holes
    from those constants when it is next acquired, and goes when the
    collector trims the bee.
    """

    key: tuple | None
    verb: str                           # select | insert | update | delete
    kind: str                           # the server's statement class
    relations: tuple[str, ...]          # ... and the relations it pins
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
        #: Routines named so far, per name prefix (``EVP``, ``EVJ``,
        #: ``AGG`` or a tier's): the ``n`` of the next ``EVP_n``, and
        #: what :meth:`GenericBeeModule.statistics` counts.
        self.made: Counter = Counter()

    def _name(self, prefix: str) -> str:
        """The next routine name of *prefix*: ``EVP_1``, ``EVP_2``, ..."""
        self.made[prefix] += 1
        return f"{prefix}_{self.made[prefix]}"

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
        routine = generate_evp(
            expr, self.ledger, self._name("EVP"), assume_not_null,
            self.code_cache,
        )
        self.check_evp(routine, expr)
        return routine

    def check_evp(self, routine: BeeRoutine, expr: Expr) -> None:
        """The ``verify_on_generate`` gate of an EVP routine — after
        generation, and again whenever its holes are re-patched."""
        if self.verify:
            from repro.beecheck import verify_evp

            verify_evp(routine, expr)

    def make_agg(self, specs: tuple, assume_not_null: bool = False) -> BeeRoutine:
        """Specialize a HashAgg node's aggregate list into an AGG
        transition routine (experimental: Section VIII future work)."""
        routine = generate_agg(
            list(specs), self.ledger, self._name("AGG"), assume_not_null,
            self.code_cache,
        )
        self.check_agg(routine, specs, assume_not_null)
        return routine

    def check_agg(
        self, routine: BeeRoutine, specs: tuple, assume_not_null: bool
    ) -> None:
        """The ``verify_on_generate`` gate of an AGG routine."""
        if self.verify:
            from repro.beecheck import verify_agg

            verify_agg(routine, list(specs), assume_not_null)

    def make_fused(self, tier, spec) -> BeeRoutine:
        """Compile *tier*'s routine (a fused pipeline bee, a columnar
        vector kernel) for one fusable plan segment; *tier* is a row of
        :data:`repro.bees.drivers.TIERS`."""
        routine = tier.generate(
            spec, self.ledger, self._name(tier.prefix), self.code_cache
        )
        self.check_fused(routine, tier, spec)
        return routine

    def check_fused(self, routine: BeeRoutine, tier, spec) -> None:
        """The ``verify_on_generate`` gate of a fused routine."""
        if self.verify:
            import repro.beecheck as beecheck

            getattr(beecheck, f"verify_{tier.name}")(routine, spec)

    def make_idx(self, key_indexes: list[int], fn_name: str) -> BeeRoutine:
        """Specialize one index's key extraction into an IDX routine
        (experimental: Section VIII future work)."""
        routine = generate_idx(key_indexes, self.ledger, fn_name)
        if self.verify:
            from repro.beecheck import verify_idx

            verify_idx(routine, key_indexes)
        return routine

    def make_evj(self, join_type: str, n_keys: int) -> EVJRoutine:
        """Clone the pre-compiled EVJ template for a join node."""
        fn_name = f"{self._name('EVJ')}_{join_type}"
        routine = instantiate_evj(join_type, n_keys, fn_name)
        if self.verify:
            from repro.beecheck import verify_evj

            verify_evj(routine)
        return routine
