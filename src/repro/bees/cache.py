"""The Bee Cache: the repository of all bees, persistable to disk.

In memory the cache maps relation names to relation bees and statement
shape keys to query bees.  ``save_to``/``load_from`` persist relation
bees alongside the database: generated source text and data sections are
written as JSON, and loading re-"links" them by recompiling the stored
source (the analog of the paper's on-disk ELF bee cache that is loaded
when the server starts).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bees.maker import BeeMaker, QueryBee, RelationBee
from repro.storage.layout import TupleLayout


class BeeCache:
    """All live bees, in executable form."""

    def __init__(self) -> None:
        self.relation_bees: dict[str, RelationBee] = {}
        self.query_bees: dict[tuple, QueryBee] = {}

    def put_relation_bee(self, bee: RelationBee) -> None:
        """Register (or replace, on reconstruction) a relation bee."""
        self.relation_bees[bee.relation] = bee

    def get_relation_bee(self, relation: str) -> RelationBee | None:
        return self.relation_bees.get(relation)

    def drop_relation_bee(self, relation: str) -> bool:
        """Remove a relation bee; returns True when one existed."""
        return self.relation_bees.pop(relation, None) is not None

    def put_query_bee(self, bee: QueryBee) -> None:
        self.query_bees[bee.key] = bee

    def get_query_bee(self, key: tuple) -> QueryBee | None:
        return self.query_bees.get(key)

    def all_routines(self) -> list:
        """Every relation-bee routine in the cache (placement optimizer
        input; a query bee holds plans, and its plans' nodes hold its
        routines)."""
        routines: list = []
        for bee in self.relation_bees.values():
            routines.extend(bee.routines)
        return routines

    # -- persistence -----------------------------------------------------------

    def save_to(self, directory: str | Path) -> int:
        """Write relation bees to *directory*; returns bees written.

        Query bees are not persisted (the first statement of a shape
        rebuilds its own, and plans do not survive the session anyway).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = 0
        for bee in self.relation_bees.values():
            record = {
                "relation": bee.relation,
                "bee_attrs": list(bee.layout.bee_attrs),
                "gcl_source": bee.gcl.source,
                "gcl_cost": bee.gcl.cost,
                "scl_source": bee.scl.source,
                "scl_cost": bee.scl.cost,
                "data_sections": (
                    [list(section) for section in bee.sections_list()]
                    if bee.data_sections is not None
                    else None
                ),
            }
            path = directory / f"{bee.relation}.bee.json"
            with open(path, "w") as handle:
                json.dump(record, handle, indent=1)
            written += 1
        return written

    def load_from(
        self, directory: str | Path, maker: BeeMaker, layouts: dict[str, TupleLayout]
    ) -> int:
        """Reload relation bees for the relations present in *layouts*.

        Bees are regenerated through the maker (recompilation — the paper
        re-links ELF objects; we re-emit from the layout, which produces
        the same routine) and their persisted data sections are restored.
        Returns the number of bees loaded.
        """
        directory = Path(directory)
        loaded = 0
        for path in sorted(directory.glob("*.bee.json")):
            with open(path) as handle:
                record = json.load(handle)
            relation = record["relation"]
            layout = layouts.get(relation)
            if layout is None:
                # Stale bee: its relation is not in this server's catalog.
                # Unlink it now — the collector only sweeps bees that made
                # it into the cache, so a never-loaded stale file would
                # otherwise survive every GC pass.
                path.unlink()
                continue
            bee = maker.make_relation_bee(layout)
            sections = record.get("data_sections")
            if sections is not None and bee.data_sections is not None:
                for section in sections:
                    bee.data_sections.get_or_create(tuple(section))
            self.put_relation_bee(bee)
            loaded += 1
        return loaded
