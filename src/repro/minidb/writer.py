"""The write side compiled: one generated row function per table and mode.

Every row that reaches a table's storage goes through a function
generated for that table, the way every query runs through the one
function :mod:`repro.minidb.codegen` generates for its plan.  The
checks are the same ones, in the same order, with the same messages;
what the generated code saves is the interpretation around them — a
loop over columns, a ``coerce`` call per value, a re-resolved FK spec
per row, a method call per index.

What is generated, per table:

* a **validator** (:data:`VALIDATE`): the arity test and each column's
  coercion inline.  The fast path tests the value's exact class —
  ``int`` for INTEGER, ``float`` plus a NaN test for DOUBLE, ``str``
  plus a length test for VARCHAR, ``bool`` for BOOLEAN — and any other
  value goes to :func:`repro.minidb.types.coerce` itself, so every
  accepted value and every :class:`~repro.errors.TypeCheckError` is
  the one ``coerce`` gives;
* a **writer** per caller: NOT NULL → foreign keys → unique keys →
  secondary indexes → the row store → the undo record, row by row.
  :data:`INSERT` is ``Database.insert_rows`` (FKs checked
  immediately), :data:`APPLY` is ``Database.apply_batch`` (FKs
  deferred: it runs :data:`CHECK` over the inserted rows once the
  batch is in), :data:`LOAD` is checkpoint restore (types and unique
  keys only, validating and storing each row in one pass), and
  :data:`CHECK` tests NOT NULL and FKs without storing (also UPDATE's
  new rows).

A row that fails a check leaves no trace: every test of a row runs
before the first of its index entries is written, so an error at row
*k* leaves rows before *k* stored (and in the undo log) and nothing of
row *k*.  ``Table._next_rowid`` and ``Table.data_version`` are written
back once per call, in a ``finally``, to where per-row increments
would have left them.

When it is re-generated: each function is cached on its table with a
stamp, and made again on the first call after the stamp moves.  The
stamp is the table's schema object; for the writers, also the number
of secondary indexes (the planner builds one on a first probe without
any DDL, and every index must see every row); for the modes that probe
foreign keys, also the catalog version, which moves with DDL — a
parent table dropped and created again is a new object.

Generated source holds no text taken from SQL or DDL: identifiers are
chosen here, and the table, its index maps, types, column labels and
exception factories enter through the namespace of a factory function
the source is wrapped in (as in :mod:`repro.minidb.codegen`).
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConstraintViolation, ExecutionError
from .types import coerce

#: the type pass alone: ``fn(rows, out)`` appends the coerced tuples to
#: the list ``out``
VALIDATE = "validate"
#: checkpoint restore: types and unique keys, one pass: ``fn(rows, None)``
LOAD = "load"
#: ``insert_rows``: NOT NULL, FKs, unique keys: ``fn(rows, record)``
INSERT = "insert"
#: ``apply_batch``: NOT NULL and unique keys, FKs deferred:
#: ``fn(rows, record)``
APPLY = "apply"
#: NOT NULL and FKs, nothing stored: ``fn(rows, None)``
CHECK = "check"

#: mode -> (coerce types, NOT NULL, FK probes, store)
_MODES = {
    VALIDATE: (True, False, False, False),
    LOAD: (True, False, False, True),
    INSERT: (False, True, True, True),
    APPLY: (False, True, False, True),
    CHECK: (False, True, True, False),
}

#: the exact class a value of each kind needs to skip ``coerce``
_FAST_CLASS = {"INTEGER": int, "DOUBLE": float, "VARCHAR": str, "BOOLEAN": bool}


def row_code(table, mode: str, checker=None) -> Callable:
    """``table``'s generated function for ``mode``, made now when its
    stamp moved (see the module docstring).  The modes that probe
    foreign keys need the database's
    :class:`~repro.minidb.constraints.ConstraintChecker`."""
    types, not_null, fks, store = _MODES[mode]
    stamp = (
        table.schema,
        len(table.secondary_indexes) if store else -1,
        checker.catalog.version if fks else -1,
    )
    cached = table._row_code.get(mode)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    specs = checker.outgoing_fks(table) if fks else ()
    function = generate(table, mode, specs)[1]
    table._row_code[mode] = (stamp, function)
    return function


def generate(table, mode: str, specs=()) -> tuple[str, Callable]:
    """Emit and compile ``table``'s function for ``mode`` against its
    current indexes and the resolved FK ``specs``; returns ``(source,
    function)``."""
    return _Emitter(table, mode, specs).build()


def _arity_error(schema) -> Callable:
    def make(got: int) -> ExecutionError:
        return ExecutionError(
            f"table {schema.name!r} expects {schema.arity} values, got {got}"
        )

    return make


def _not_null_error(table_name: str, column_name: str) -> Callable:
    def make() -> ConstraintViolation:
        return ConstraintViolation(
            f"NULL in NOT NULL column {table_name}.{column_name}",
            constraint=f"NOT NULL {table_name}.{column_name}",
            table=table_name,
        )

    return make


def _fk_error(table_name: str, fk) -> Callable:
    def make(key: tuple) -> ConstraintViolation:
        return ConstraintViolation(
            f"foreign key violation: "
            f"{table_name}({', '.join(fk.columns)})"
            f"={key!r} has no parent in {fk.ref_table}",
            constraint=str(fk),
            table=table_name,
        )

    return make


def _key(values: list[str]) -> str:
    return "(" + ", ".join(values) + ",)"


class _Emitter:
    def __init__(self, table, mode: str, specs):
        self.table = table
        self.mode = mode
        self.specs = specs
        self.namespace: dict[str, object] = {}
        self.lines: list[str] = []
        self.depth = 0

    def const(self, prefix: str, value: object) -> str:
        name = f"{prefix}{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def build(self) -> tuple[str, Callable]:
        types, not_null, fks, store = _MODES[self.mode]
        schema = self.table.schema
        self.values = [f"v{i}" for i in range(schema.arity)]
        self.depth = 1
        if store:
            self.t = self.const("T", self.table)
            self.line("def run(rows, record):")
            self.depth += 1
            self.line(f"rowid = start = {self.t}._next_rowid")
            self.line("try:")
            self.depth += 1
        else:
            self.line("def run(rows, out):")
            self.depth += 1
            if types:
                self.line("ap = out.append")
        self.line("for r in rows:")
        self.depth += 1
        if types:
            self.emit_types()
        else:
            self.line(f"{', '.join(self.values)}, = r")
        if not_null:
            self.emit_not_null()
        if fks:
            self.emit_foreign_keys()
        if store:
            self.emit_store(checked_not_null=not_null)
        elif types:
            self.line("ap(r)")
        if store:
            self.depth -= 2
            self.line("finally:")
            self.depth += 1
            self.line(f"{self.t}._next_rowid = rowid")
            self.line(f"{self.t}.data_version += rowid - start")
            self.depth -= 1
            self.line("return rowid - start")
        lines = [f"def _factory({', '.join(self.namespace)}):"]
        lines += self.lines
        lines.append("    return run")
        source = "\n".join(lines) + "\n"
        module: dict = {}
        exec(compile(source, "<minidb row writer>", "exec"), module)
        return source, module["_factory"](**self.namespace)

    # -- the checks, in order ---------------------------------------------

    def emit_types(self) -> None:
        schema = self.table.schema
        arity_error = self.const("E", _arity_error(schema))
        coerce_fn = self.const("CO", coerce)
        self.line("if r.__class__ is not tuple:")
        self.line("    r = tuple(r)")
        self.line(f"if len(r) != {self.const('N', schema.arity)}:")
        self.line(f"    raise {arity_error}(len(r))")
        self.line(f"{', '.join(self.values)}, = r")
        for v, column in zip(self.values, schema.columns):
            sql_type = column.sql_type
            fast = _FAST_CLASS.get(sql_type.kind)
            if fast is None:
                slow = f"{v} is not None"
            else:
                slow = f"{v}.__class__ is not {self.const('C', fast)}"
                if sql_type.kind == "DOUBLE":
                    slow = f"({slow} or {v} != {v})"  # NaN
                elif sql_type.kind == "VARCHAR" and sql_type.length is not None:
                    slow = f"({slow} or len({v}) > {self.const('L', sql_type.length)})"
                slow += f" and {v} is not None"
            label = self.const("S", f"{schema.name}.{column.name}")
            self.line(f"if {slow}:")
            self.line(
                f"    {v} = {coerce_fn}({v}, {self.const('Y', sql_type)}, {label})"
            )
        self.line(f"r = {_key(self.values)}")

    def emit_not_null(self) -> None:
        table = self.table
        for v, column in zip(self.values, table.schema.columns):
            if column.not_null:
                error = self.const("E", _not_null_error(table.name, column.name))
                self.line(f"if {v} is None:")
                self.line(f"    raise {error}()")

    def emit_foreign_keys(self) -> None:
        for spec in self.specs:
            key = [self.values[p] for p in spec.positions]
            error = self.const("E", _fk_error(self.table.name, spec.fk))
            probe = spec.parent.key_probe(spec.ref_columns)
            if probe.unique is not None and probe.order is None:
                missing = f"{_key(key)} not in {self.const('P', probe.unique._map)}"
            else:
                missing = f"not {self.const('H', probe.rowids)}({_key(key)})"
            present = " and ".join(f"{v} is not None" for v in key)
            self.line(f"if {present} and {missing}:")
            self.line(f"    raise {error}({_key(key)})")

    def emit_store(self, checked_not_null: bool) -> None:
        columns = self.table.schema.columns
        uniques = []
        for index in self.table.unique_indexes:
            key = [self.values[p] for p in index.positions]
            nullable = [
                self.values[p]
                for p in index.positions
                if not (checked_not_null and columns[p].not_null)
            ]
            k = f"k{len(uniques)}"
            target = self.const("U", index._map)
            error = self.const("E", index.violation)
            if nullable:
                self.line(f"if {' and '.join(f'{v} is not None' for v in nullable)}:")
                self.line(f"    {k} = {_key(key)}")
                self.line(f"    if {k} in {target}:")
                self.line(f"        raise {error}({k})")
                self.line("else:")
                self.line(f"    {k} = None")
            else:
                self.line(f"{k} = {_key(key)}")
                self.line(f"if {k} in {target}:")
                self.line(f"    raise {error}({k})")
            uniques.append((k, target, bool(nullable)))
        for k, target, nullable in uniques:
            if nullable:
                self.line(f"if {k} is not None:")
                self.line(f"    {target}[{k}] = rowid")
            else:
                self.line(f"{target}[{k}] = rowid")
        whole = tuple(range(len(columns)))
        for positions, index in list(self.table.secondary_indexes.items()):
            target = self.const("X", index._map)
            key = "r"
            if positions != whole:
                key = "k"
                self.line(f"k = {_key([self.values[p] for p in positions])}")
            self.line(f"s = {target}.get({key})")
            self.line("if s is None:")
            self.line(f"    {target}[{key}] = {{rowid: None}}")
            self.line("else:")
            self.line("    s[rowid] = None")
        self.line(f"{self.const('R', self.table._rows)}[rowid] = r")
        self.line("if record is not None:")
        self.line(f"    record({self.t}, r, rowid)")
        self.line("rowid += 1")
