"""Common bee-routine plumbing."""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Environment variable naming a directory where every generated bee source
#: is dumped as ``<routine>.py`` for post-mortem inspection.
BEE_DUMP_ENV = "REPRO_BEE_DUMP"


@dataclass
class BeeRoutine:
    """One specialized routine inside a bee.

    Attributes:
        name: routine identifier, e.g. ``GCL_orders`` (used for profiling
            attribution and placement).
        fn: the compiled specialized function.
        cost: virtual instructions charged per invocation (the count of
            instructions the generated native body would execute).
        source: the generated source text (the paper's Listing 2 analog) —
            kept for inspection, tests, and bee-cache persistence.
        size_bytes: estimated native code size, used by the placement
            optimizer's I-cache model.
        namespace: the globals dict the routine was compiled into — its
            "data section" (precompiled structs, interned constants, the
            slow-path closure).  Kept so beecheck can introspect the
            structs the generated code references and recompile tampered
            source in its self-tests.
        binds: where each ``_K{n}`` literal hole came from, as
            ``(hole, node, attr)`` — the expression node whose
            ``attr`` the literal was read from at generation time.
    """

    name: str
    fn: Callable
    cost: int
    source: str
    size_bytes: int = 0
    invocations: int = field(default=0, compare=False)
    namespace: dict | None = field(default=None, repr=False, compare=False)
    binds: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.size_bytes:
            # ~4 bytes per virtual instruction of straight-line code.
            self.size_bytes = max(64, self.cost * 4)

    def __call__(self, *args):
        return self.fn(*args)

    def repatch(self) -> bool:
        """Re-read every literal hole from the expression it came from
        — the paper's "patch the clone's holes" for a routine whose plan
        was re-bound to new constants.  The data section is updated and,
        where the holes are default-argument locals, the function's
        defaults rebuilt.  Returns whether any hole moved.
        """
        namespace = self.namespace
        moved = False
        for hole, node, attr in self.binds:
            value = getattr(node, attr)
            if namespace[hole] is not value:
                namespace[hole] = value
                moved = True
        if moved:
            # The proto-bee itself: ``fn`` may be a wrapper around it.
            proto = namespace[proto_entry(self.name)]
            defaults = proto.__defaults__
            if defaults:
                code = proto.__code__
                first = code.co_argcount - len(defaults)
                proto.__defaults__ = tuple(
                    namespace[name]
                    for name in code.co_varnames[first : code.co_argcount]
                )
        return moved


def proto_entry(fn_name: str) -> str:
    """The ``def`` name of a proto-bee: its routine's family prefix
    (``EVP_17`` -> ``EVP``), so the source is the same for every
    instantiation of one shape whatever counter the routine got."""
    return fn_name.split("_", 1)[0]


def hole_params(holes: list[str]) -> str:
    """Default-argument bindings for data-section *holes*, appended to a
    proto-bee's parameter list: ``exec`` copies each hole from the
    namespace into the function once, so a per-row body reads it with
    ``LOAD_FAST`` rather than a global lookup."""
    return "".join(f", {hole}={hole}" for hole in holes)


class CodeCache:
    """Compiled proto-bees, keyed by the generated source text itself.

    The paper compiles proto-bees ahead of time and makes a query bee by
    cloning one and patching its holes; here the "object code" is a
    Python code object and the clone is an ``exec`` of it into the
    statement's fresh namespace (the data section carrying the holes).
    Because the key *is* the artifact, a hit can never serve code for a
    different layout or plan shape, and no invalidation edge is needed.
    Insertion-ordered and bounded at *cap* entries, oldest evicted first.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._code: OrderedDict[str, object] = OrderedDict()
        self.compiles = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._code)

    def get(self, source: str):
        code = self._code.get(source)
        if code is not None:
            self.hits += 1
        return code

    def put(self, source: str, code) -> None:
        self.compiles += 1
        self._code[source] = code
        if len(self._code) > self.cap:
            self._code.popitem(last=False)   # one call: atomic under the GIL


def _dump_source(fn_name: str, source: str) -> None:
    """Write generated source to $REPRO_BEE_DUMP/<fn_name>.py (best effort)."""
    dump_dir = os.environ.get(BEE_DUMP_ENV)
    if not dump_dir:
        return
    try:
        directory = Path(dump_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{fn_name}.py").write_text(source)
    except OSError:
        pass  # a broken dump dir must never break bee generation


def compile_routine(
    source: str,
    fn_name: str,
    namespace: dict,
    code_cache: CodeCache | None = None,
) -> Callable:
    """Instantiate generated *source* as routine *fn_name*.

    This is the reproduction's analog of the paper's bee maker invoking gcc
    and extracting the function body from the resulting ELF object: the
    "object code" is a Python code object, and extraction is a namespace
    lookup of the name the source defines — read off its ``def`` line,
    which opens every generated source: the routine's own name, or for a
    proto-bee its family prefix.  The code object comes from
    *code_cache* when the same source was compiled before; only a miss
    compiles, and dumps the source to ``$REPRO_BEE_DUMP`` when that is
    set.  The routine's name fills the ``_NAME`` hole of the namespace —
    a shared code object carries no name of its own, so charges and fault
    attribution read it from the frame's globals — and the function gets
    a ``bee.``-prefixed ``__qualname__`` so profiles and tracebacks
    identify generated code at a glance.
    """
    entry = source[4 : source.index("(")]
    code = code_cache.get(source) if code_cache is not None else None
    if code is None:
        code = compile(source, f"<bee:{entry}>", "exec")
        _dump_source(fn_name, source)
        if code_cache is not None:
            code_cache.put(source, code)
    namespace["_NAME"] = fn_name
    exec(code, namespace)
    fn = namespace[entry]
    fn.__qualname__ = f"bee.{fn_name}"
    return fn
