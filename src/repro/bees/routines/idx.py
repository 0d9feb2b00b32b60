"""IDX — experimental index-maintenance bee routine.

The paper's Section VIII lists "indexing" next to aggregation as a future
micro-specialization target.  Index maintenance extracts the key columns of
every inserted/deleted row for every index — a generic loop over catalog
metadata, exactly the shape GCL specializes for deform.  The IDX routine
generates, per (relation, index), an unrolled key extractor::

    def IDX_orders_pk(values):
        _charge('IDX_orders_pk', 14)
        return (values[0],)

Enabled by the experimental ``BeeSettings.idx`` flag (off in
``all_bees()``; see ``BeeSettings.future()``).
"""

from __future__ import annotations

from repro.cost import constants as C
from repro.bees.emit import finish
from repro.bees.routines.base import BeeRoutine


def idx_cost(n_columns: int) -> int:
    """Per-operation cost of the specialized key extractor."""
    return C.IDX_SPEC_BASE + C.IDX_SPEC_PER_COL * n_columns


def generic_idx_cost(n_columns: int) -> int:
    """Per-operation cost of the generic key-extraction loop."""
    return C.IDX_GENERIC_BASE + C.IDX_GENERIC_PER_COL * n_columns


def generate_idx(
    key_indexes: list[int], ledger, fn_name: str
) -> BeeRoutine:
    """Generate the key extractor for one index's column positions."""
    if not key_indexes:
        raise ValueError("an index needs at least one key column")
    cost = idx_cost(len(key_indexes))
    namespace = {"_charge": ledger.charge_fn, "_COST": cost}
    elements = ", ".join(f"values[{i}]" for i in key_indexes)
    trailing = "," if len(key_indexes) == 1 else ""
    body = [
        '    """Specialized index-key extraction (generated)."""',
        f"    _charge({fn_name!r}, _COST)",
        f"    return ({elements}{trailing})",
    ]
    return finish(fn_name, "values", body, namespace, None, cost)
