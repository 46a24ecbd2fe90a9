"""The executor: every physical plan compiles to one Python function.

:func:`compile_plan` walks a plan tree produce/consume style and emits
the source of a single function that runs it.  Scans and index probes
become ``for`` loops, :class:`~repro.minidb.plan.Filter` becomes an
``if``, :class:`~repro.minidb.plan.Project` a tuple, and
:class:`~repro.minidb.plan.Rename` and identity projections vanish.
Expressions are emitted inline with SQL's three-valued logic, and the
index-probe form of ``[NOT] EXISTS`` in a predicate becomes an
early-exit loop that reads its correlation values straight from the
enclosing row variables.  Other subqueries become calls of their own
generated functions; a :class:`~repro.minidb.plan.SubPlan` runs once per
distinct correlation value per execution (the memo is a dict the
execution creates).

The compiled function takes the statement's constants ``A`` (a tuple)
and the overlays ``O`` (normalized table name ->
:class:`~repro.minidb.storage.TableOverlay`, or None) and returns the
result rows as a list.  It holds no state of its own, so it serves any
number of concurrent executions.

Generated source never contains text taken from SQL: it is built from
emitter-chosen identifiers and integer positions only.  Tables, column
tuples, constants and helpers enter through the function's namespace
(the parameters of a factory function the source is wrapped in).
CPython refuses more than 20 statically nested blocks in one function;
when the loops nest deeper than :data:`_MAX_LOOPS` the rest of the
pipeline continues in a helper function that receives the live
variables.

An *instrumented* compile (:meth:`CompiledPlan.analyze`, behind EXPLAIN
ANALYZE and row-capturing profilers) is the same emission with one
counter increment at every node's output: it reports the exact rows
each node produced, but one wall time for the whole statement.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

from ..errors import ExecutionError
from ..sqlparser import nodes as n
from .expressions import (
    ARGS_KEY,
    Compiled,
    Scope,
    Slot,
    bind,
    sql_arith,
    sql_compare,
    sql_or,
    sql_negate,
)
from .plan import (
    Aggregate,
    AggregateState,
    DeltaSeed,
    Distinct,
    Filter,
    HashJoin,
    IndexJoin,
    IndexProbe,
    IndexScan,
    NestedLoopCross,
    PlanNode,
    Project,
    Rename,
    SeqScan,
    SubPlan,
    UnionAll,
    UnionDistinct,
)
from .storage import Table
from .types import probe_key

#: Loop nesting at which the pipeline moves into a helper function
#: (CPython's hard limit is 20 blocks per function).
_MAX_LOOPS = 12
#: Indentation depth at which the same happens (the tokenizer stops at
#: 100 levels).
_MAX_DEPTH = 40

#: ``sql_compare``'s Python operator, per SQL operator.
_PY_OP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


#: "no result yet" in a subquery memo lookup
_MISSING = object()
#: stands for NULL among the values an IN subquery collected
_NULL = object()
#: a helper function's "the pipeline went on" (vs. an early return)
_CONTINUE = object()


def _key_probe(cells: list, index: int, table: Table, columns: tuple):
    """Resolve (on first use) and cache a table's access path for
    equality probes on ``columns`` — the index is built then, not at
    planning time."""
    probe = cells[index] = table.key_probe(columns)
    return probe


def _in_list(subject, values: tuple):
    """``subject IN (values)``: OR of ``subject = value``."""
    return sql_or(sql_compare("=", subject, value) for value in values)


def _in_list_lazy(subject, thunks: tuple):
    """:func:`_in_list` over values evaluated one at a time (a value
    expression that can raise is not reached after a match)."""
    return sql_or(sql_compare("=", subject, thunk()) for thunk in thunks)


#: Globals of every generated module: the runtime helpers.
_HELPERS = {
    "CMP": sql_compare,
    "AR": sql_arith,
    "NEG": sql_negate,
    "AGG": AggregateState,
    "PK": probe_key,
    "KP": _key_probe,
    "INL": _in_list,
    "INLZ": _in_list_lazy,
    "CHAIN": itertools.chain.from_iterable,
    "PLAIN": frozenset((int, float, str, bool)),
    "NUM": frozenset((int, float)),
    "MISS": _MISSING,
    "NULLM": _NULL,
    "CONT": _CONTINUE,
}


class CompiledPlan:
    """A plan compiled to Python.

    ``run(args, overlays)`` executes it and returns the rows.  The code
    is generated on the first run (a plan that is only explained, or a
    view that only ever runs as part of a shared core, never pays for
    it).  :meth:`analyze` executes an instrumented compile of the same
    plan (also built on first use) and reports per-node row counts and
    the statement's time to a
    :class:`repro.obs.profiler.PlanStatsCollector`.
    """

    __slots__ = ("plan", "_source", "run", "_analyzed")

    def __init__(self, plan: PlanNode):
        self.plan = plan
        self._source: Optional[str] = None
        self.run = self._first_run
        self._analyzed = None

    def _first_run(self, args: tuple, overlays: Optional[dict]) -> list:
        self._build()
        return self.run(args, overlays)

    def _build(self) -> None:
        self._source, self.run, _ = _build(self.plan, instrument=False)

    @property
    def source(self) -> str:
        """The generated source (compiling it now if need be)."""
        if self._source is None:
            self._build()
        return self._source

    def analyze(
        self, args: tuple, overlays: Optional[dict], collector
    ) -> list[tuple]:
        analyzed = self._analyzed
        if analyzed is None:
            analyzed = self._analyzed = _build(self.plan, instrument=True)[1:]
        run, nodes = analyzed
        counts = [0] * len(nodes)
        start = perf_counter()
        rows = run(args, overlays, counts)
        collector.record(nodes, counts, perf_counter() - start)
        return rows


def compile_plan(plan: PlanNode) -> CompiledPlan:
    """Compile ``plan`` into one generated function."""
    return CompiledPlan(plan)


def compile_expression(expr: n.Expr, scope: Scope) -> Compiled:
    """Compile a standalone expression into ``fn(row, params)``.

    ``row`` holds the columns of ``scope``; references to enclosing
    scopes read ``params[(binding, column)]`` and statement parameters
    read ``params[ARGS_KEY]``.  Subqueries are not allowed here.
    """
    emitter = _Emitter(instrument=False)
    return emitter.standalone(scope, lambda: emitter.value(bind(expr, scope)))


def compile_rows(rows) -> Callable[[dict], list[tuple]]:
    """Compile the rows of ``INSERT … VALUES`` into ``fn(params)``
    returning them as tuples, evaluated row by row, left to right."""
    scope = Scope([])
    emitter = _Emitter(instrument=False)

    def body() -> str:
        values = [
            _tuple_code([emitter.value(bind(v, scope)) for v in row]) for row in rows
        ]
        return "[" + ", ".join(values) + "]"

    fn = emitter.standalone(scope, body)
    return lambda params: fn((), params)


def _tuple_code(items: list[str]) -> str:
    if not items:
        return "()"
    return "(" + ", ".join(items) + ",)"


def _columns(variable: str, width: int) -> list[str]:
    return [f"{variable}[{i}]" for i in range(width)]


class _Row:
    """How generated code reads one row: an accessor expression per
    column, and the name of a variable holding the whole tuple when
    one exists (so passing a row on never rebuilds it)."""

    __slots__ = ("cols", "whole")

    def __init__(self, cols: list[str], whole: Optional[str] = None):
        self.cols = cols
        self.whole = whole


class _Func:
    """One generated function being emitted.

    ``fixed`` are its leading parameters; ``outer`` maps the
    ``(scope, position)`` of every enclosing-scope column the body read
    to the trailing parameter that carries it, and ``params`` lists
    those in order — the caller evaluates them in its own rows.
    ``live`` are the local variables a helper split off at this point
    must receive.  ``exits``: the pipeline may ``return`` a result
    early (subquery bodies), so a split-off helper's return value must
    be passed on.
    """

    def __init__(self, name: str, fixed: list[str], exits: bool = False):
        self.name = name
        self.fixed = fixed
        self.params: list[tuple[str, Slot]] = []
        self.outer: dict[tuple, str] = {}
        self.prologue: list[str] = []
        self.body: list[str] = []
        self.depth = 1
        self.loops = 0
        self.live: list[str] = []
        self.exits = exits
        self.overlays: dict[int, str] = {}
        self.probes: dict[tuple, str] = {}
        #: standalone expressions: enclosing columns come from ``P``
        self.standalone = False

    def render(self) -> list[str]:
        args = ", ".join(self.fixed + [name for name, _ in self.params])
        lines = [f"def {self.name}({args}):"]
        lines += ["    " + line for line in self.prologue]
        lines += self.body
        return ["    " + line for line in lines]


class _Emitter:
    """Emits the functions of one compiled plan (see the module
    docstring).  ``env`` maps each scope whose row is in reach of the
    code being emitted to its column accessors."""

    def __init__(self, instrument: bool):
        self.instrument = instrument
        #: factory parameter name -> object (the generated namespace)
        self.namespace: dict[str, object] = {}
        self._interned: dict[tuple, str] = {}
        self._counter = itertools.count()
        self.funcs: list[_Func] = []
        self.env: dict[Scope, list[str]] = {}
        self.cur: Optional[_Func] = None
        #: instrumented compiles: plan nodes in counter order
        self.nodes: list[PlanNode] = []
        self._node_index: dict[int, int] = {}
        self._probe_cells: list = []
        self._subqueries: dict[int, _Func] = {}
        self.uses_memo = False

    # -- names, constants, lines -----------------------------------------

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self._counter)}"

    def const(self, value: object, prefix: str = "K") -> str:
        """A namespace name bound to ``value``."""
        name = self.fresh(prefix)
        self.namespace[name] = value
        return name

    def intern(self, owner: object, prefix: str, make=None) -> str:
        """One namespace name per ``(owner, prefix)``: the owner itself,
        or what ``make`` derives from it (a table's bound methods)."""
        key = (id(owner), prefix)
        name = self._interned.get(key)
        if name is None:
            value = owner if make is None else make(owner)
            name = self._interned[key] = self.const(value, prefix)
        return name

    def line(self, text: str) -> None:
        f = self.cur
        f.body.append("    " * f.depth + text)

    def define(self, name: str, code: str) -> str:
        self.line(f"{name} = {code}")
        self.cur.live.append(name)
        return name

    @contextmanager
    def block(self, header: str, loop: bool = False):
        f = self.cur
        self.line(header)
        f.depth += 1
        f.loops += loop
        live = len(f.live)
        try:
            yield
        finally:
            del f.live[live:]
            f.depth -= 1
            f.loops -= loop

    def crowded(self) -> bool:
        f = self.cur
        return f.loops >= _MAX_LOOPS or f.depth >= _MAX_DEPTH

    # -- functions --------------------------------------------------------

    def context(self) -> list[str]:
        return ["A", "O", "M", "S"] if self.instrument else ["A", "O", "M"]

    @contextmanager
    def function(self, f: _Func, env: Optional[dict] = None):
        """Emit into ``f`` (with ``env`` replacing the row bindings)."""
        saved = self.cur, self.env
        self.cur = f
        if env is not None:
            self.env = env
        self.funcs.append(f)
        try:
            yield f
        finally:
            self.cur, self.env = saved

    def call(self, f: _Func) -> str:
        """A call of ``f`` from the current function: its correlation
        parameters are read from the caller's rows."""
        args = f.fixed + [self.slot(slot) for _, slot in f.params]
        return f"{f.name}({', '.join(args)})"

    def slot(self, slot: Slot) -> str:
        cols = self.env.get(slot.scope)
        if cols is not None:
            return cols[slot.position]
        f = self.cur
        key = (slot.scope, slot.position)
        name = f.outer.get(key)
        if name is None:
            if f.standalone:
                column = self.const(slot.scope.entries[slot.position])
                return f"P[{column}]"
            name = f.outer[key] = self.fresh("c")
            f.params.append((name, slot))
        return name

    def overlay(self, table: Table) -> str:
        """The current function's variable for ``table``'s overlay."""
        f = self.cur
        name = f.overlays.get(id(table))
        if name is None:
            key = self.const(table.schema.name.lower(), "N")
            name = f.overlays[id(table)] = self.fresh("o")
            f.prologue.append(f"{name} = O.get({key}) if O else None")
        return name

    def scan_code(self, table: Table) -> str:
        """An iterator over ``table``'s rows, through its overlay."""
        values = self.intern(table, "V", lambda t: t._rows.values)
        ov = self.overlay(table)
        return f"({values}() if {ov} is None else {ov}.scan({self.intern(table, 'T')}))"

    def probe_code(self, table: Table, columns: tuple, key: str) -> str:
        """An iterator over the rows of ``table`` whose ``columns``
        equal the tuple ``key``, through its overlay, in scan order."""
        f = self.cur
        t = self.intern(table, "T")
        cols = self.const(columns, "C")
        probe = f.probes.get((id(table), columns))
        if probe is None:
            cells = self.intern(self._probe_cells, "KPC")
            index = len(self._probe_cells)
            self._probe_cells.append(None)
            probe = f.probes[(id(table), columns)] = self.fresh("p")
            f.prologue.append(
                f"{probe} = {cells}[{index}] or KP({cells}, {index}, {t}, {cols})"
            )
        rows = self.intern(table, "G", lambda t: t._rows.__getitem__)
        ov = self.overlay(table)
        return (
            f"(map({rows}, {probe}.rowids({key})) if {ov} is None "
            f"else {ov}.lookup({t}, {cols}, {key}))"
        )

    # -- producing rows ---------------------------------------------------

    def produce(self, node: PlanNode, consume: Callable[[_Row], None]) -> None:
        getattr(self, "_p_" + type(node).__name__)(node, consume)

    def emit(self, node: PlanNode, row: _Row, consume) -> None:
        """``node`` outputs ``row``: count it, bind its scope, and hand
        it to ``consume`` — in a helper function when the nesting is
        deep."""
        if self.instrument:
            index = self._node_index.get(id(node))
            if index is None:
                index = self._node_index[id(node)] = len(self.nodes)
                self.nodes.append(node)
            self.line(f"S[{index}] += 1")
        self.env[node.scope] = row.cols
        if not self.crowded():
            consume(row)
            return
        caller = self.cur
        # everything the caller has bound travels as a fixed argument;
        # enclosing columns the helper reads first become its own
        inherited = list(
            dict.fromkeys([name for name, _ in caller.params] + caller.live)
        )
        helper = _Func(
            self.fresh("h"), self.context() + inherited, exits=caller.exits
        )
        helper.live = list(inherited)
        helper.outer = dict(caller.outer)
        with self.function(helper, dict(self.env)):
            consume(row)
            if helper.exits:
                self.line("return CONT")
        if caller.exits:
            result = self.fresh("x")
            self.line(f"{result} = {self.call(helper)}")
            with self.block(f"if {result} is not CONT:"):
                self.line(f"return {result}")
        else:
            self.line(self.call(helper))

    def _p_SeqScan(self, node: SeqScan, consume) -> None:
        r = self.fresh("r")
        with self.block(f"for {r} in {self.scan_code(node.table)}:", loop=True):
            self.cur.live.append(r)
            self.emit(node, _Row(_columns(r, len(node.scope.entries)), r), consume)

    def _p_IndexScan(self, node: IndexScan, consume) -> None:
        table = node.table
        key = self.define(
            self.fresh("k"), _tuple_code([self.value(e) for e in node.key])
        )
        answerable = " and ".join(
            f"PK({key}[{i}], {self.const(sql_type, 'Y')})"
            for i, sql_type in enumerate(node.key_types)
        )
        rows = self.define(
            self.fresh("i"),
            f"{self.probe_code(table, node.columns, key)} if {answerable} "
            f"else {self.scan_code(table)}",
        )
        r = self.fresh("r")
        with self.block(f"for {r} in {rows}:", loop=True):
            self.cur.live.append(r)
            self.emit(node, _Row(_columns(r, len(node.scope.entries)), r), consume)

    def _p_DeltaSeed(self, node: DeltaSeed, consume) -> None:
        seen = self.define(self.fresh("s"), "set()")
        sources = [self.scan_code(table) for table in node.tables]
        source = (
            sources[0] if len(sources) == 1 else f"CHAIN(({', '.join(sources)},))"
        )
        r = self.fresh("r")
        with self.block(f"for {r} in {source}:", loop=True):
            picked = [f"{r}[{p}]" for p in node.positions]
            key = self.define(self.fresh("k"), _tuple_code(picked))
            test = " and ".join(f"{code} is not None" for code in picked)
            with self.block(f"if {test} and {key} not in {seen}:"):
                self.line(f"{seen}.add({key})")
                self.emit(node, _Row(_columns(key, len(picked)), key), consume)

    def _p_Filter(self, node: Filter, consume) -> None:
        def on_row(row: _Row) -> None:
            self.test_block(node.predicate, lambda: self.emit(node, row, consume))

        self.produce(node.child, on_row)

    def _p_Project(self, node: Project, consume) -> None:
        child_scope = node.child.scope

        def on_row(row: _Row) -> None:
            cols: list[str] = []
            positions: list[Optional[int]] = []
            for item in node.exprs:
                if isinstance(item, Slot) and item.scope is child_scope:
                    item = item.position
                if isinstance(item, int):
                    cols.append(row.cols[item])
                elif isinstance(item, Slot):
                    cols.append(self.slot(item))
                else:
                    cols.append(self.define(self.fresh("v"), self.value(item)))
                positions.append(item if isinstance(item, int) else None)
            identity = positions == list(range(len(row.cols)))
            self.emit(node, _Row(cols, row.whole if identity else None), consume)

        self.produce(node.child, on_row)

    def _p_Rename(self, node: Rename, consume) -> None:
        self.produce(node.child, lambda row: self.emit(node, row, consume))

    def whole(self, row: _Row) -> str:
        """A variable holding ``row`` as one tuple."""
        if row.whole is None:
            row.whole = self.define(self.fresh("t"), _tuple_code(row.cols))
        return row.whole

    def _p_Distinct(self, node: Distinct, consume) -> None:
        seen = self.define(self.fresh("s"), "set()")
        self.produce(node.child, lambda row: self._distinct(node, seen, row, consume))

    def _distinct(self, node: PlanNode, seen: str, row: _Row, consume) -> None:
        whole = self.whole(row)
        with self.block(f"if {whole} not in {seen}:"):
            self.line(f"{seen}.add({whole})")
            self.emit(node, row, consume)

    def _p_UnionAll(self, node: UnionAll, consume) -> None:
        for part in node.parts:
            self.produce(part, lambda row: self.emit(node, row, consume))

    def _p_UnionDistinct(self, node: UnionDistinct, consume) -> None:
        seen = self.define(self.fresh("s"), "set()")
        for part in node.parts:
            self.produce(
                part, lambda row: self._distinct(node, seen, row, consume)
            )

    def key_of(self, cols: list[str]) -> tuple[str, str]:
        """Bind the equality key made of ``cols``: ``(key tuple
        variable, "some component is NULL" test)``."""
        key = self.define(self.fresh("k"), _tuple_code(cols))
        null = " or ".join(f"{key}[{i}] is None" for i in range(len(cols)))
        return key, null

    def _p_IndexJoin(self, node: IndexJoin, consume) -> None:
        width = len(node.table.schema.columns)

        def on_outer(outer: _Row) -> None:
            key, null = self.key_of([outer.cols[p] for p in node.outer_positions])
            rows = self.probe_code(node.table, node.table_columns, key)
            r = self.fresh("r")
            with self.block(f"for {r} in (() if {null} else {rows}):", loop=True):
                self.cur.live.append(r)
                row = _Row(outer.cols + _columns(r, width))
                if node.residual is None:
                    self.emit(node, row, consume)
                    return
                self.env[node.scope] = row.cols
                self.test_block(
                    node.residual, lambda: self.emit(node, row, consume)
                )

        self.produce(node.outer, on_outer)

    def _p_HashJoin(self, node: HashJoin, consume) -> None:
        build = self.define(self.fresh("b"), "{}")
        width = len(node.right.scope.entries)

        def on_right(row: _Row) -> None:
            key, null = self.key_of([row.cols[p] for p in node.right_positions])
            with self.block(f"if not ({null}):"):
                self.line(f"{build}.setdefault({key}, []).append({self.whole(row)})")

        def on_left(left: _Row) -> None:
            key, null = self.key_of([left.cols[p] for p in node.left_positions])
            r = self.fresh("r")
            with self.block(
                f"for {r} in (() if {null} else {build}.get({key}, ())):", loop=True
            ):
                self.cur.live.append(r)
                self.emit(node, _Row(left.cols + _columns(r, width)), consume)

        self.produce(node.right, on_right)
        self.produce(node.left, on_left)

    def _p_NestedLoopCross(self, node: NestedLoopCross, consume) -> None:
        rights = self.define(self.fresh("l"), "[]")
        width = len(node.right.scope.entries)
        self.produce(
            node.right, lambda row: self.line(f"{rights}.append({self.whole(row)})")
        )

        def on_left(left: _Row) -> None:
            r = self.fresh("r")
            with self.block(f"for {r} in {rights}:", loop=True):
                self.cur.live.append(r)
                self.emit(node, _Row(left.cols + _columns(r, width)), consume)

        self.produce(node.left, on_left)

    def _p_Aggregate(self, node: Aggregate, consume) -> None:
        states = [
            self.define(self.fresh("a"), f"AGG({self.const(func, 'F')})")
            for func, _ in node.specs
        ]

        def on_row(row: _Row) -> None:
            for (_, argument), state in zip(node.specs, states):
                if argument is None:  # COUNT(*): count rows directly
                    self.line(f"{state}.count += 1")
                else:
                    self.line(f"{state}.add({self.value(argument)})")

        self.produce(node.child, on_row)
        result = self.define(
            self.fresh("t"), _tuple_code([f"{s}.result()" for s in states])
        )
        self.emit(node, _Row(_columns(result, len(states)), result), consume)


    # -- predicates as statements -------------------------------------------

    def test_block(self, predicate: n.Expr, then, then_breaks: bool = False) -> None:
        """Run ``then`` (an emitter of the code that follows) where
        ``predicate`` is exactly True.  Conjuncts are tested in order,
        stopping at the first FALSE and — like SQL's AND — going on
        past an UNKNOWN.  ``then_breaks``: ``then`` ends in a ``break``
        of the enclosing loop, so it must not be placed in a loop of
        our own."""
        items = list(predicate.items) if isinstance(predicate, n.And) else [predicate]
        self._conjuncts(items, [], then, then_breaks)

    def _conjuncts(self, items: list, unknown: list[str], then, then_breaks) -> None:
        if not items:
            if unknown:
                known = " and ".join(f"{u} is not None" for u in unknown)
                with self.block(f"if {known}:"):
                    then()
            else:
                then()
            return
        first, rest = items[0], items[1:]

        def go() -> None:
            self._conjuncts(rest, unknown, then, then_breaks)

        probe, negated = _exists_probe(first)
        if probe is not None and (negated or not then_breaks) and not self.crowded():
            self.inline_exists(probe, negated, go)
        elif _strict(first) or not rest:
            with self.block(f"if {self.test(first)}:"):
                go()
        else:
            u = self.define(self.fresh("u"), self.value(first))
            with self.block(f"if {u} is not False:"):
                self._conjuncts(rest, unknown + [u], then, then_breaks)

    def inline_exists(self, probe: IndexProbe, negated: bool, then) -> None:
        """``[NOT] EXISTS`` as an early-exit probe loop; ``then`` runs
        inside it on the first match (EXISTS) or in its ``else`` when
        none matched (NOT EXISTS)."""
        key, null = self.key_of([self.value(k) for k in probe.key])
        rows = self.probe_code(probe.table, probe.columns, key)
        r = self.fresh("r")
        with self.block(f"for {r} in (() if {null} else {rows}):", loop=True):
            self.cur.live.append(r)
            self.env[probe.scope] = _columns(r, len(probe.scope.entries))
            if negated:
                def found() -> None:
                    self.line("break")
            else:
                def found() -> None:
                    then()
                    self.line("break")
            if probe.residual is None:
                found()
            else:
                self.test_block(probe.residual, found, then_breaks=True)
        if negated:
            with self.block("else:"):
                then()

    # -- expressions --------------------------------------------------------

    def args(self) -> str:
        if self.cur.standalone:
            return f"P[{self.const(ARGS_KEY)}]"
        return "A"

    def value(self, e: n.Expr) -> str:
        """Python code evaluating ``e`` to its SQL value."""
        if isinstance(e, Slot):
            return self.slot(e)
        if isinstance(e, n.Literal):
            return self.const(e.value)
        if isinstance(e, n.Parameter):
            code = f"{self.args()}[{e.index}]"
            return f"NEG({code})" if e.negated else code
        if isinstance(e, n.Comparison):
            return self.compare(e, test=False)
        if isinstance(e, n.Arithmetic):
            return (
                f"AR({self.const(e.op, 'Q')}, {self.value(e.left)}, "
                f"{self.value(e.right)})"
            )
        if isinstance(e, (n.And, n.Or)):
            return self.kleene(e, test=False)
        if isinstance(e, n.Not):
            inner = self.value(e.item)
            if _strict(e.item):
                return f"(not {inner})"
            t = self.fresh("w")
            return f"(None if ({t} := {inner}) is None else not {t})"
        if isinstance(e, n.IsNull):
            return f"({self.value(e.item)} is {'not ' if e.negated else ''}None)"
        if isinstance(e, n.InList):
            subject = self.value(e.item)
            values = [self.value(v) for v in e.values]
            if all(_cheap(v) for v in e.values):
                code = f"INL({subject}, {_tuple_code(values)})"
            else:
                thunks = _tuple_code([f"lambda: {v}" for v in values])
                code = f"INLZ({subject}, {thunks})"
            if not e.negated:
                return code
            t = self.fresh("w")
            return f"(None if ({t} := {code}) is None else not {t})"
        if isinstance(e, (IndexProbe, SubPlan)):
            return self.subquery(e)
        raise ExecutionError(f"cannot compile expression node {type(e).__name__}")

    def test(self, e: n.Expr) -> str:
        """Python code that is truthy exactly when ``e`` is TRUE."""
        if _strict(e):
            return self.value(e)
        if isinstance(e, n.Comparison):
            return self.compare(e, test=True)
        if isinstance(e, n.And):
            return self.kleene(e, test=True)
        if isinstance(e, n.Or):
            return "(" + " or ".join(self.test(item) for item in e.items) + ")"
        if isinstance(e, n.Not):
            t = self.fresh("w")
            return f"(({t} := {self.value(e.item)}) is not None and not {t})"
        return f"({self.value(e)} is True)"

    def kleene(self, e: n.Expr, test: bool) -> str:
        """AND/OR with SQL's three-valued logic: items are evaluated in
        order up to the first one that decides (FALSE for AND, TRUE for
        OR), and UNKNOWN wins over the other value."""
        is_or = isinstance(e, n.Or)
        if all(_strict(item) for item in e.items):
            joiner = " or " if is_or else " and "
            return "(" + joiner.join(self.value(item) for item in e.items) + ")"
        stop = "True" if is_or else "False"
        parts: list[str] = []
        unknown: list[str] = []
        for item in e.items:
            code = self.value(item)
            if not _strict(item):
                t = self.fresh("w")
                unknown.append(t)
                code = f"({t} := {code})"
            parts.append(f"{stop} if {code} is {stop} else ")
        if test:  # only AND reaches here in test form
            tail = " and ".join(f"{t} is not None" for t in unknown)
        else:
            nulls = " or ".join(f"{t} is None" for t in unknown)
            tail = f"None if {nulls} else {'False' if is_or else 'True'}"
        return "(" + "".join(parts) + tail + ")"

    def compare(self, e: n.Comparison, test: bool) -> str:
        """A comparison inline: NULL operands give UNKNOWN, two values
        of one plain type compare natively, anything else goes through
        :func:`~repro.minidb.expressions.sql_compare` (which raises on
        incomparable types).  Both operands are always evaluated."""
        codes = []
        for operand in (e.left, e.right):
            code = self.value(operand)
            if _cheap(operand):
                codes.append((code, code))
            else:
                t = self.fresh("w")
                codes.append((f"({t} := {code})", t))
        (left_first, left), (right_first, right) = codes
        if _cheap(e.right):
            null = f"{left_first} is None or {right_first} is None"
        else:
            null = f"({left_first} is None) | ({right_first} is None)"
        guard = _type_guard(e.left, e.right, left, right)
        op = self.const(e.op, "Q")
        fast = f"({left} {_PY_OP[e.op]} {right} if {guard} else CMP({op}, {left}, {right}))"
        if test:
            return f"(not ({null}) and {fast})"
        return f"(None if {null} else {fast})"


    # -- subqueries as functions --------------------------------------------

    def subquery(self, e: n.Expr) -> str:
        """A call of the function that evaluates subquery ``e``."""
        f = self._subqueries.get(id(e))
        if f is None:
            if isinstance(e, IndexProbe):
                f = self.probe_function(e)
            else:
                f = self.subplan_function(e)
            self._subqueries[id(e)] = f
        return self.call(f)

    def probe_loop(self, probe: IndexProbe, rows: str, then) -> None:
        """Run ``then`` for each row of ``rows`` the probe's residual
        accepts."""
        r = self.fresh("r")
        with self.block(f"for {r} in {rows}:", loop=True):
            self.cur.live.append(r)
            self.env[probe.scope] = _columns(r, len(probe.scope.entries))
            if probe.residual is None:
                then()
            else:
                self.test_block(probe.residual, then)

    def probe_function(self, probe: IndexProbe) -> _Func:
        f = _Func(self.fresh("q"), self.context(), exits=True)
        table = probe.table
        with self.function(f, {}):
            if probe.kind == "in":
                self._in_probe(probe)
                return f
            key, null = self.key_of([self.value(k) for k in probe.key])
            rows = self.probe_code(table, probe.columns, key)
            if probe.kind == "exists":
                with self.block(f"if {null}:"):
                    self.line("return False")
                self.probe_loop(probe, rows, lambda: self.line("return True"))
                self.line("return False")
                return f
            empty = self.const(0 if probe.func == "COUNT" else None)
            with self.block(f"if {null}:"):
                self.line(f"return {empty}")
            if probe.argument is None:
                count = self.define(self.fresh("n"), "0")
                self.probe_loop(probe, rows, lambda: self.line(f"{count} += 1"))
                self.line(f"return {count}")
            else:
                state = self.define(
                    self.fresh("a"), f"AGG({self.const(probe.func, 'F')})"
                )
                self.probe_loop(
                    probe,
                    rows,
                    lambda: self.line(f"{state}.add({self.value(probe.argument)})"),
                )
                self.line(f"return {state}.result()")
        return f

    def _in_probe(self, probe: IndexProbe) -> None:
        """``subject IN (SELECT c FROM t WHERE …)`` for a NOT NULL
        ``c``: probe ``c`` and the correlated columns together.  A NULL
        subject is UNKNOWN when the (correlated) set has any member."""
        subject = self.define(self.fresh("v"), self.value(probe.subject))
        correlated = [self.value(k) for k in probe.key]
        if correlated:
            key, null = self.key_of(correlated)
        with self.block(f"if {subject} is None:"):
            if correlated:
                with self.block(f"if {null}:"):
                    self.line("return False")
                rows = self.probe_code(probe.table, probe.columns[1:], key)
            else:
                rows = self.scan_code(probe.table)
            self.probe_loop(probe, rows, lambda: self.line("return None"))
            self.line("return False")
        if correlated:
            with self.block(f"if {null}:"):
                self.line("return False")
            full = self.define(self.fresh("k"), f"({subject},) + {key}")
        else:
            full = self.define(self.fresh("k"), f"({subject},)")
        rows = self.probe_code(probe.table, probe.columns, full)
        self.probe_loop(probe, rows, lambda: self.line("return True"))
        self.line("return False")

    def subplan_function(self, sub: SubPlan) -> _Func:
        """Two functions: one runs the subplan, the other memoizes it
        per execution on the enclosing values it reads (and, for IN,
        matches the subject against the collected values)."""
        run = _Func(self.fresh("q"), self.context(), exits=True)
        with self.function(run, {}):
            if sub.kind == "exists":
                self.produce(sub.plan, lambda row: self.line("return True"))
                self.line("return False")
            elif sub.kind == "scalar":
                self.produce(sub.plan, lambda row: self.line(f"return {row.cols[0]}"))
            else:
                values = self.define(self.fresh("s"), "set()")

                def collect(row: _Row) -> None:
                    t = self.fresh("w")
                    self.line(
                        f"{values}.add(NULLM if ({t} := {row.cols[0]}) is None else {t})"
                    )

                self.produce(sub.plan, collect)
                self.line(f"return {values}")
        self.uses_memo = True
        memo = _Func(self.fresh("q"), self.context())
        with self.function(memo, {}):
            call = self.call(run)
            marker = self.const(object(), "Z")
            key = self.define(
                self.fresh("k"),
                _tuple_code([marker] + [self.slot(s) for _, s in run.params]),
            )
            result = self.define(self.fresh("x"), f"M.get({key}, MISS)")
            with self.block(f"if {result} is MISS:"):
                self.line(f"{result} = M[{key}] = {call}")
            if sub.kind != "in":
                self.line(f"return {result}")
                return memo
            subject = self.define(self.fresh("v"), self.value(sub.subject))
            with self.block(f"if {subject} is None:"):
                self.line(f"return None if {result} else False")
            with self.block(f"if {subject} in {result}:"):
                self.line("return True")
            self.line(f"return None if NULLM in {result} else False")
        return memo

    # -- whole programs -----------------------------------------------------

    def plan_function(self, plan: PlanNode) -> _Func:
        fixed = ["A", "O", "S"] if self.instrument else ["A", "O"]
        main = _Func("main", fixed)
        with self.function(main, {}):
            self.line("out = []")
            self.define("ap", "out.append")
            self.produce(
                plan,
                lambda row: self.line(
                    f"ap({row.whole or _tuple_code(row.cols)})"
                ),
            )
            self.line("return out")
        if main.params:
            raise ExecutionError("plan reads columns of no enclosing query")
        main.prologue.insert(0, "M = {}" if self.uses_memo else "M = None")
        return main

    def standalone(self, scope: Scope, body: Callable[[], str]) -> Compiled:
        main = _Func("main", ["R", "P"])
        main.standalone = True
        with self.function(main, {scope: _columns("R", len(scope.entries))}):
            self.line(f"return {body()}")
        return self.finish(main)[1]

    def finish(self, main: _Func) -> tuple[str, Callable]:
        """Render every function inside one factory whose parameters
        are the namespace, and build ``main``."""
        lines = [f"def _factory({', '.join(self.namespace)}):"]
        for f in self.funcs:
            lines += f.render()
        lines.append(f"    return {main.name}")
        source = "\n".join(lines) + "\n"
        module = dict(_HELPERS)
        exec(compile(source, "<minidb plan>", "exec"), module)
        return source, module["_factory"](**self.namespace)


def _cheap(e: n.Expr) -> bool:
    """Evaluating ``e`` costs a load and cannot raise."""
    if isinstance(e, n.Parameter):
        return not e.negated
    return isinstance(e, (Slot, n.Literal))


def _strict(e: n.Expr) -> bool:
    """``e`` is always TRUE or FALSE, never UNKNOWN."""
    if isinstance(e, n.IsNull):
        return True
    if isinstance(e, (IndexProbe, SubPlan)):
        return e.kind == "exists"
    if isinstance(e, n.Not):
        return _strict(e.item)
    if isinstance(e, (n.And, n.Or)):
        return all(_strict(item) for item in e.items)
    return isinstance(e, n.Literal) and isinstance(e.value, bool)


def _exists_probe(e: n.Expr) -> tuple[Optional[IndexProbe], bool]:
    """``(probe, negated)`` when ``e`` is ``[NOT]`` an index-probe EXISTS."""
    negated = isinstance(e, n.Not)
    if negated:
        e = e.item
    if isinstance(e, IndexProbe) and e.kind == "exists":
        return e, negated
    return None, False


def _type_guard(left: n.Expr, right: n.Expr, lcode: str, rcode: str) -> str:
    """Code that is True when ``lcode`` and ``rcode`` can be compared
    with Python's operator directly (same plain type, or numbers)."""
    for literal, other in ((right, lcode), (left, rcode)):
        if isinstance(literal, n.Literal):
            value = literal.value
            if isinstance(value, bool):
                return f"type({other}) is bool"
            if isinstance(value, (int, float)):
                return f"type({other}) in NUM"
            if isinstance(value, str):
                return f"type({other}) is str"
    return f"type({lcode}) is type({rcode}) and type({lcode}) in PLAIN"


def _build(plan: PlanNode, instrument: bool) -> tuple[str, Callable, list]:
    emitter = _Emitter(instrument)
    source, run = emitter.finish(emitter.plan_function(plan))
    return source, run, emitter.nodes
