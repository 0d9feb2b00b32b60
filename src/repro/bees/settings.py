"""Which bee routines are enabled — the knobs behind the Fig. 7 ablation."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class BeeSettings:
    """Per-database micro-specialization switches.

    Each flag enables one bee routine family:

    * ``gcl`` — relation-bee GetColumnsToLongs (specialized deform),
    * ``scl`` — relation-bee SetColumnsFromLongs (specialized fill),
    * ``evp`` — query-bee predicate evaluation,
    * ``evj`` — query-bee join evaluation,
    * ``tuple_bees`` — attribute-value specialization via data sections
      (requires annotations on the relation; changes the storage layout).

    ``stock()`` disables everything (the paper's baseline PostgreSQL);
    ``all_bees()`` matches the paper's fully bee-enabled build.

    ``verify_on_generate`` is orthogonal to the routine flags: when set,
    the bee maker runs every emitted GCL/SCL/EVP routine through beecheck
    (lint, offset abstract interpretation, cost audit, translation
    validation) and raises :class:`repro.beecheck.BeecheckError` instead
    of handing a bad routine to the executor.

    ``shield`` is likewise orthogonal: when set (the default), every bee
    call site runs under beeshield (:mod:`repro.resilience`) — faults in
    specialized routines are caught, recorded, and transparently
    re-executed on the generic interpreter path.  Disabling it exposes
    raw bee exceptions to the caller (used by the resilience self-test
    and the bench's overhead gate).
    """

    gcl: bool = False
    scl: bool = False
    evp: bool = False
    evj: bool = False
    tuple_bees: bool = False
    agg: bool = False      # experimental: the paper's Section VIII future work
    idx: bool = False      # experimental: index-maintenance specialization
    pipelines: bool = False   # fused batch-at-a-time pipeline bees
    vectors: bool = False     # columnar NumPy vector bees (third tier)
    parallel: bool = False    # morsel-driven multiprocess execution tier
    verify_on_generate: bool = False   # gate every emitted bee on beecheck
    shield: bool = True    # guarded bee invocation (repro.resilience)

    @classmethod
    def stock(cls) -> "BeeSettings":
        """The unmodified baseline: no micro-specialization."""
        return cls()

    @classmethod
    def all_bees(cls) -> "BeeSettings":
        """Everything on: relation, query, and tuple bees."""
        return cls(gcl=True, scl=True, evp=True, evj=True, tuple_bees=True)

    @classmethod
    def relation_bees(cls) -> "BeeSettings":
        """GCL + SCL only (the paper's first ablation step)."""
        return cls(gcl=True, scl=True)

    @classmethod
    def future(cls) -> "BeeSettings":
        """Everything plus the experimental AGG routine (Section VIII)."""
        return cls(
            gcl=True, scl=True, evp=True, evj=True, tuple_bees=True,
            agg=True, idx=True, pipelines=True,
        )

    @classmethod
    def pipelined(cls) -> "BeeSettings":
        """The paper's evaluated system plus fused pipeline bees."""
        return cls(
            gcl=True, scl=True, evp=True, evj=True, tuple_bees=True,
            pipelines=True,
        )

    @classmethod
    def vectorized(cls) -> "BeeSettings":
        """The pipelined system plus the columnar vector tier on top."""
        return cls(
            gcl=True, scl=True, evp=True, evj=True, tuple_bees=True,
            pipelines=True, vectors=True,
        )

    @classmethod
    def parallelized(cls) -> "BeeSettings":
        """The vectorized system fanned across worker processes."""
        return cls(
            gcl=True, scl=True, evp=True, evj=True, tuple_bees=True,
            pipelines=True, vectors=True, parallel=True,
        )

    def with_routines(self, *names: str) -> "BeeSettings":
        """Return a copy with exactly the named routine flags enabled
        (``verify_on_generate`` and ``shield`` are preserved — they are
        not routines)."""
        unknown = set(names) - set(ROUTINE_FLAGS)
        if unknown:
            raise ValueError(f"unknown bee routine flags: {sorted(unknown)}")
        return replace(self, **{name: name in names for name in ROUTINE_FLAGS})

    def enabling(self, **flags: bool) -> "BeeSettings":
        """Return a copy with the given flags overridden."""
        return replace(self, **flags)

    def verified(self) -> "BeeSettings":
        """Same routine flags, with beecheck gating every emitted bee."""
        return replace(self, verify_on_generate=True)

    @property
    def any_enabled(self) -> bool:
        """True when at least one bee routine family is on."""
        return any(getattr(self, name) for name in ROUTINE_FLAGS)

    def label(self) -> str:
        """Short human-readable form, e.g. ``GCL+EVP``."""
        short = {
            "tuple_bees": "TB", "pipelines": "PIPE", "vectors": "VEC",
            "parallel": "PAR",
        }
        parts = [
            short.get(name, name.upper())
            for name in ROUTINE_FLAGS
            if getattr(self, name)
        ]
        return "+".join(parts) if parts else "stock"


#: The routine-family flags, in declaration order: every field except the
#: two orthogonal switches.  A new family is one field above.
ROUTINE_FLAGS: tuple[str, ...] = tuple(
    f.name
    for f in fields(BeeSettings)
    if f.name not in ("verify_on_generate", "shield")
)
