"""EVP — the specialized predicate-evaluation query-bee routine.

At query-preparation time the predicate's ``FuncExprState`` analog (an
:class:`repro.engine.expr.Expr` tree) is turned into straight-line Python:
operator dispatch disappears, constants (literals, LIKE regexes, IN sets)
go into the routine's data section, and column loads become direct row
indexing.  The emitted source is a *proto-bee*: it names neither the
routine nor any literal (``_NAME`` / ``_K{n}`` holes, bound as
default-argument locals), so every predicate of one shape shares one
compiled code object (:class:`repro.bees.routines.base.CodeCache`) and
only its namespace is per statement.  Two variants are generated:

* the *not-null* variant (used when every referenced column is NOT NULL,
  which the planner knows from the schema) is a single return expression
  with native short-circuiting;
* the *guarded* variant preserves SQL three-valued logic for nullable
  inputs, propagating ``None`` explicitly.  It also evaluates exactly
  what the interpreter evaluates: an ``AND`` stops at its first
  ``False``, an ``OR`` at its first ``True``, a ``CASE`` at its first
  true arm, and a strict node (comparison, arithmetic, function) at its
  first NULL argument, so a sub-expression that may raise (``a / b``)
  runs only on rows the interpreter runs it on.

Both agree with the generic interpreter on every input (property-tested).
"""

from __future__ import annotations

from repro.cost import constants as C
from repro.bees.emit import Holes, finish
from repro.bees.routines.base import BeeRoutine
from repro.engine import expr as E


class _Emitter:
    """Shared state while generating one EVP routine.

    *col_ref* is the source template for a bound column load; EVP reads
    from the deformed row (``row[{}]``), while the pipeline-bee codegen
    substitutes its hoisted per-tuple locals (``v{}``).  Literals,
    regexes, IN sets and functions go to the data section through
    :attr:`holes`.
    """

    def __init__(self, col_ref: str = "row[{}]") -> None:
        self.lines: list[str] = []
        self.holes = Holes({})
        self.col_ref = col_ref
        self._temp = 0
        self.depth = 0      # nesting inside guarded branches

    def col(self, index: int) -> str:
        return self.col_ref.format(index)

    def temp(self) -> str:
        self._temp += 1
        return f"t{self._temp}"

    def add(self, line: str) -> None:
        self.lines.append("    " * (1 + self.depth) + line)


def _emit_direct(expr: E.Expr, em: _Emitter) -> str:
    """Not-null variant: return a Python expression string."""
    if isinstance(expr, E.Const):
        return em.holes.const(expr)
    if isinstance(expr, E.Col):
        return em.col(expr.index)
    if isinstance(expr, E.Cmp):
        left = _emit_direct(expr.left, em)
        right = _emit_direct(expr.right, em)
        return f"({left} {E._CMP_PY[expr.op]} {right})"
    if isinstance(expr, E.Arith):
        left = _emit_direct(expr.left, em)
        right = _emit_direct(expr.right, em)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, E.And):
        return "(" + " and ".join(_emit_direct(a, em) for a in expr.args) + ")"
    if isinstance(expr, E.Or):
        return "(" + " or ".join(_emit_direct(a, em) for a in expr.args) + ")"
    if isinstance(expr, E.Not):
        return f"(not {_emit_direct(expr.arg, em)})"
    if isinstance(expr, E.Like):
        name = em.holes.bind("re", expr._regex)
        inner = f"({name}.match({_emit_direct(expr.arg, em)}) is not None)"
        return f"(not {inner})" if expr.negate else inner
    if isinstance(expr, E.InList):
        name = em.holes.bind("in", expr.values)
        return f"({_emit_direct(expr.arg, em)} in {name})"
    if isinstance(expr, E.Between):
        arg = _emit_direct(expr.arg, em)
        low = em.holes.const(expr, "low")
        high = em.holes.const(expr, "high")
        return f"({low} <= {arg} <= {high})"
    if isinstance(expr, E.Case):
        result = _emit_direct(expr.default, em)
        for cond, value in reversed(expr.whens):
            cond_src = _emit_direct(cond, em)
            value_src = _emit_direct(value, em)
            result = f"({value_src} if {cond_src} else {result})"
        return result
    if isinstance(expr, E.IsNull):
        inner = f"({_emit_direct(expr.arg, em)} is None)"
        return f"(not {inner})" if expr.negate else inner
    if isinstance(expr, E.Func):
        name = em.holes.bind("fn", expr._fn)
        args = ", ".join(_emit_direct(a, em) for a in expr.args)
        return f"{name}({args})"
    raise TypeError(f"cannot specialize expression node {type(expr).__name__}")


def _emit_strict(args, em: _Emitter, out: str, render) -> None:
    """A strict node (NULL when any argument is): arguments are emitted
    left to right, and one that may raise (anything but a column or a
    literal) sits under a test that every argument before it is not
    NULL, since the interpreter stops at the first NULL.  *render*
    builds the value from the argument temps and the ``is None`` test
    of those not yet tested."""
    depth = em.depth
    temps: list[str] = []
    untested: list[str] = []
    for arg in args:
        if untested and not isinstance(arg, (E.Col, E.Const)):
            if em.depth == depth:
                em.add(f"{out} = None")
            tests = " and ".join(f"{t} is not None" for t in untested)
            em.add(f"if {tests}:")
            em.depth += 1
            untested = []
        temp = _emit_guarded(arg, em)
        temps.append(temp)
        untested.append(temp)
    nully = " or ".join(f"{t} is None" for t in untested)
    em.add(f"{out} = {render(temps, nully)}")
    em.depth = depth


def _emit_connective(args, em: _Emitter, out: str, stop: bool) -> None:
    """``AND`` (*stop* ``False``) or ``OR`` (*stop* ``True``) in Kleene
    logic: each argument after the first runs only while the value so
    far is not *stop*, as the interpreter stops at the first one."""
    other = not stop
    for n, arg in enumerate(args):
        if n:
            em.add(f"if {out} is not {stop}:")
            em.depth += 1
        temp = _emit_guarded(arg, em)
        nully = f"{temp} is None" + (f" or {out} is None" if n else "")
        em.add(
            f"{out} = {stop} if {temp} is {stop} else "
            f"(None if {nully} else {other})"
        )
        if n:
            em.depth -= 1


def _emit_guarded(expr: E.Expr, em: _Emitter) -> str:
    """Nullable variant: emit statements, return the temp holding the value."""
    out = em.temp()
    if isinstance(expr, E.Const):
        em.add(f"{out} = {em.holes.const(expr)}")
    elif isinstance(expr, E.Col):
        em.add(f"{out} = {em.col(expr.index)}")
    elif isinstance(expr, (E.Cmp, E.Arith)):
        op = E._CMP_PY[expr.op] if isinstance(expr, E.Cmp) else expr.op
        _emit_strict(
            (expr.left, expr.right), em, out,
            lambda t, nully: f"None if {nully} else ({t[0]} {op} {t[1]})",
        )
    elif isinstance(expr, E.And):
        _emit_connective(expr.args, em, out, False)
    elif isinstance(expr, E.Or):
        _emit_connective(expr.args, em, out, True)
    elif isinstance(expr, E.Not):
        arg = _emit_guarded(expr.arg, em)
        em.add(f"{out} = None if {arg} is None else (not {arg})")
    elif isinstance(expr, E.Like):
        arg = _emit_guarded(expr.arg, em)
        name = em.holes.bind("re", expr._regex)
        test = f"{name}.match({arg}) is None"
        if not expr.negate:
            test = f"not ({test})"
        em.add(f"{out} = None if {arg} is None else ({test})")
    elif isinstance(expr, E.InList):
        arg = _emit_guarded(expr.arg, em)
        name = em.holes.bind("in", expr.values)
        em.add(f"{out} = None if {arg} is None else ({arg} in {name})")
    elif isinstance(expr, E.Between):
        arg = _emit_guarded(expr.arg, em)
        low = em.holes.const(expr, "low")
        high = em.holes.const(expr, "high")
        em.add(
            f"{out} = None if {arg} is None else ({low} <= {arg} <= {high})"
        )
    elif isinstance(expr, E.Case):
        # Arm by arm: a value, or the next arm's condition, is emitted
        # only in the branch the interpreter reaches it from.
        depth = em.depth
        for cond, value in expr.whens:
            test = _emit_guarded(cond, em)
            em.add(f"if {test} is True:")
            em.depth += 1
            em.add(f"{out} = {_emit_guarded(value, em)}")
            em.depth -= 1
            em.add("else:")
            em.depth += 1
        em.add(f"{out} = {_emit_guarded(expr.default, em)}")
        em.depth = depth
    elif isinstance(expr, E.IsNull):
        arg = _emit_guarded(expr.arg, em)
        test = f"{arg} is None"
        if expr.negate:
            test = f"{arg} is not None"
        em.add(f"{out} = {test}")
    elif isinstance(expr, E.Func):
        name = em.holes.bind("fn", expr._fn)
        _emit_strict(
            expr.args, em, out,
            lambda t, nully: f"None if ({nully}) else {name}({', '.join(t)})",
        )
    else:
        raise TypeError(
            f"cannot specialize expression node {type(expr).__name__}"
        )
    return out


def generate_evp(
    expr: E.Expr,
    ledger,
    fn_name: str,
    assume_not_null: bool = False,
    code_cache=None,
) -> BeeRoutine:
    """Compile *expr* (already bound) into an EVP bee routine.

    Args:
        expr: bound expression tree.
        ledger: cost ledger of the owning database.
        fn_name: routine name, used for profiling attribution.
        assume_not_null: emit the faster direct variant; only valid when
            every referenced column comes from NOT NULL attributes.
        code_cache: the owning module's proto-bee code cache; without one
            the source is compiled afresh.
    """
    if not E.is_bound(expr):
        raise ValueError("EVP specialization requires a bound expression")
    cost = C.EVP_PROLOGUE + expr.evp_cost
    em = _Emitter()
    namespace = em.holes.namespace
    namespace["_charge"] = ledger.charge_fn
    namespace["_COST"] = cost
    if assume_not_null:
        result = _emit_direct(expr, em)
    else:
        result = _emit_guarded(expr, em)
    body = [
        '    """Specialized predicate (generated query-bee routine)."""',
        "    _charge(_NAME, _COST)",
        *em.lines,
        f"    return {result}",
    ]
    return finish(
        fn_name, "row", body, namespace, ["_NAME"] + em.holes.consts,
        cost, code_cache, em.holes.binds,
    )
