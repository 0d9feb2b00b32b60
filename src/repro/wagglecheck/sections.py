"""Pass 3 — data-section audit.

Tuple bees replace annotated attribute values with a 2-byte beeID into a
per-relation data-section store; every read path (generic deform, GCL
bees, pipeline loops, vector gathers) splices those constants back in
verbatim.  A section value of the wrong type — or a NULL smuggled into a
NOT NULL annotated column — poisons results silently on *every* tier, so
each cached section tuple is re-typed here against the catalog contract
of the attributes it stands in for.
"""

from __future__ import annotations

from repro.catalog.schema import Attribute
from repro.wagglecheck.contracts import kind_of_sql_type
from repro.verify.report import Finding

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1


def _declared_width(attr: Attribute) -> int:
    """Character capacity of a string attribute, or -1 when unbounded."""
    name = attr.sql_type.name
    if "(" in name:
        try:
            return int(name.split("(", 1)[1].rstrip(")"))
        except ValueError:
            return -1
    return -1


def value_violation(attr: Attribute, value: object) -> str | None:
    """Why *value* cannot inhabit *attr*'s contract, or None when it can."""
    kind = kind_of_sql_type(attr.sql_type)
    if value is None:
        if attr.nullable:
            return None
        return f"NULL constant stored for NOT NULL attribute {attr.name!r}"
    if kind in ("int", "date"):
        if isinstance(value, bool) or not isinstance(value, int):
            return (
                f"{attr.name!r} ({attr.sql_type.name}) holds "
                f"{type(value).__name__} constant {value!r}"
            )
        if attr.attlen == 4 and not _INT32_MIN <= value <= _INT32_MAX:
            return (
                f"{attr.name!r} ({attr.sql_type.name}) constant {value!r} "
                "overflows its 4-byte storage"
            )
    elif kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return (
                f"{attr.name!r} ({attr.sql_type.name}) holds "
                f"{type(value).__name__} constant {value!r}"
            )
    elif kind == "bool":
        if not isinstance(value, bool) and value not in (0, 1):
            return (
                f"{attr.name!r} (bool) holds non-boolean constant {value!r}"
            )
    elif kind == "string":
        if not isinstance(value, str):
            return (
                f"{attr.name!r} ({attr.sql_type.name}) holds "
                f"{type(value).__name__} constant {value!r}"
            )
        width = _declared_width(attr)
        if width >= 0 and len(value) > width:
            return (
                f"{attr.name!r} ({attr.sql_type.name}) constant of length "
                f"{len(value)} exceeds its declared width {width}"
            )
    return None


def check_relation_sections(rel) -> tuple[list[Finding], int]:
    """Audit every cached data section of one relation."""
    findings: list[Finding] = []
    store = getattr(rel.bee, "data_sections", None)
    if store is None:
        return findings, 0
    subject = store.relation
    attrs: list[Attribute | None] = []
    for attr_name in store.attr_names:
        if attr_name in rel.schema:
            attrs.append(rel.schema.attribute(attr_name))
        else:
            findings.append(
                Finding(
                    "sections",
                    subject,
                    f"annotated attribute {attr_name!r} is no longer in "
                    "the catalog schema",
                )
            )
            attrs.append(None)
    checked = 0
    for bee_id, values in enumerate(store.as_list()):
        checked += 1
        if len(values) != len(store.attr_names):
            findings.append(
                Finding(
                    "sections",
                    subject,
                    f"section {bee_id} holds {len(values)} values for "
                    f"{len(store.attr_names)} annotated attributes",
                )
            )
            continue
        for attr, value in zip(attrs, values):
            if attr is None:
                continue
            message = value_violation(attr, value)
            if message is not None:
                findings.append(
                    Finding(
                        "sections",
                        subject,
                        f"section {bee_id}: {message}",
                    )
                )
    return findings, checked


def check_sections(db) -> tuple[list[Finding], int]:
    """Audit the data sections of every relation in *db*."""
    findings: list[Finding] = []
    checked = 0
    for name in sorted(db.table_names()):
        rel_findings, rel_checked = check_relation_sections(db.relation(name))
        findings.extend(rel_findings)
        checked += rel_checked
    return findings, checked
