"""The server process of ``server_mixed``: ``HiveServer`` + ``HiveListener``
over the small-table database, with an fsync'd WAL.

    python3 server_child.py SEED SF WAL_PATH

Prints one JSON line with the listener address once it accepts
connections, then answers one JSON command per line on stdin
(``stats``, ``schedule``).  The parent ends the process with SIGKILL -
that is the crash the recovery check needs; end of input means the
parent is gone, and the process exits instead of lingering.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SPINE_DIR))
sys.path.insert(0, str(SPINE_DIR.parent.parent / "src"))


def stats(db, server, wal_path: Path) -> dict:
    from layers import routines

    ledger = db.ledger
    return {
        "server": server.stats_snapshot(),
        "vinstr": ledger.total,
        "pages_hit": ledger.pages_hit,
        "seq_pages_read": ledger.seq_pages_read,
        "rand_pages_read": ledger.rand_pages_read,
        "model_s": db.time_model.seconds(ledger),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "chunks": db.chunk_cache.statistics(),
        "routines": routines(db),
        "tuple_bees": db.bee_module.statistics()["tuple_bees"],
        "resilience_faults": db.stats()["resilience"]["faults"],
        "wal_bytes": wal_path.stat().st_size if wal_path.exists() else 0,
    }


def main(argv: list[str]) -> int:
    seed, sf, wal_path = int(argv[0]), float(argv[1]), Path(argv[2])
    from repro.bees.settings import BeeSettings
    from repro.server import HiveListener, HiveServer

    import wl_sql

    started = time.perf_counter()
    rows = wl_sql.small_tables(sf, seed)
    db = wl_sql.build(BeeSettings.vectorized(), rows)
    server = HiveServer(db, wal_path)
    listener = HiveListener(server)
    print(json.dumps({
        "address": list(listener.address),
        "ready_s": time.perf_counter() - started,
    }), flush=True)
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "stats":
                reply = stats(db, server, wal_path)
            elif command["cmd"] == "schedule":
                with open(command["path"], "w") as out:
                    for e in sorted(server.schedule, key=lambda e: e.seq):
                        out.write(json.dumps(
                            [e.seq, e.session, e.sql, e.kind, e.fingerprint]) + "\n")
                reply = {"entries": len(server.schedule)}
            else:
                reply = {"error": f"unknown command {command['cmd']!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        listener.close()
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
