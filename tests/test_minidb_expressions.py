"""Unit tests for expression compilation and three-valued logic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, SchemaError
from repro.minidb.codegen import compile_expression
from repro.minidb.expressions import (
    Scope,
    sql_and,
    sql_compare,
    sql_not,
    sql_or,
)
from repro.sqlparser import parse_expression
from repro.sqlparser import nodes as n


def evaluate(text, row=(), entries=(), params=None):
    scope = Scope(list(entries))
    fn = compile_expression(parse_expression(text), scope)
    return fn(row, params or {})


class TestKleeneLogic:
    TRI = (True, False, None)

    def test_and_truth_table(self):
        assert sql_and([True, True]) is True
        assert sql_and([True, False]) is False
        assert sql_and([False, None]) is False  # False dominates
        assert sql_and([True, None]) is None
        assert sql_and([None, None]) is None
        assert sql_and([]) is True

    def test_or_truth_table(self):
        assert sql_or([False, False]) is False
        assert sql_or([True, None]) is True  # True dominates
        assert sql_or([False, None]) is None
        assert sql_or([None, None]) is None
        assert sql_or([]) is False

    def test_not(self):
        assert sql_not(True) is False
        assert sql_not(False) is True
        assert sql_not(None) is None

    @given(st.lists(st.sampled_from(TRI), max_size=5))
    def test_de_morgan(self, values):
        assert sql_not(sql_and(values)) == sql_or([sql_not(v) for v in values])

    def test_compare_null_is_unknown(self):
        assert sql_compare("=", None, 1) is None
        assert sql_compare("<>", None, None) is None
        assert sql_compare("<", 1, None) is None

    @pytest.mark.parametrize(
        "op,l,r,expected",
        [
            ("=", 1, 1, True),
            ("=", 1, 2, False),
            ("<>", "a", "b", True),
            ("<", 1, 2, True),
            ("<=", 2, 2, True),
            (">", 2.5, 2, True),
            (">=", 1, 2, False),
            ("=", 1, 1.0, True),
        ],
    )
    def test_compare_values(self, op, l, r, expected):
        assert sql_compare(op, l, r) is expected

    def test_incomparable_types_raise(self):
        with pytest.raises(ExecutionError):
            sql_compare("<", 1, "a")
        with pytest.raises(ExecutionError):
            sql_compare("=", True, 1)


class TestScope:
    def test_qualified_resolution(self):
        scope = Scope([("t", "a"), ("u", "a")])
        assert scope.resolve(n.ColumnRef("a", "t")) == 0
        assert scope.resolve(n.ColumnRef("a", "u")) == 1

    def test_unqualified_unambiguous(self):
        scope = Scope([("t", "a"), ("u", "b")])
        assert scope.resolve(n.ColumnRef("b")) == 1

    def test_unqualified_ambiguous_raises(self):
        scope = Scope([("t", "a"), ("u", "a")])
        with pytest.raises(SchemaError):
            scope.resolve(n.ColumnRef("a"))

    def test_case_insensitive(self):
        scope = Scope([("T", "Amount")])
        assert scope.resolve(n.ColumnRef("AMOUNT", "t")) == 0

    def test_unknown_raises(self):
        with pytest.raises(SchemaError):
            Scope([("t", "a")]).resolve(n.ColumnRef("z"))

    def test_outer_chain_resolution(self):
        outer = Scope([("o", "x")])
        inner = Scope([("i", "y")], outer=outer)
        scope, position = inner.locate(n.ColumnRef("x", "o"))
        assert scope is outer
        assert scope.entries[position] == ("o", "x")

    def test_local_shadows_outer(self):
        outer = Scope([("t", "a")])
        inner = Scope([("t", "a")], outer=outer)
        scope, _ = inner.locate(n.ColumnRef("a", "t"))
        assert scope is inner


class TestCompiledExpressions:
    ENTRIES = (("t", "a"), ("t", "b"), ("t", "s"))

    def run(self, text, row):
        return evaluate(text, row, self.ENTRIES)

    def test_column_and_literal(self):
        assert self.run("a", (5, 0, "x")) == 5
        assert self.run("42", (0, 0, "")) == 42

    def test_comparison(self):
        assert self.run("a < b", (1, 2, "")) is True
        assert self.run("a < b", (None, 2, "")) is None

    def test_arithmetic(self):
        assert self.run("a + b * 2", (1, 3, "")) == 7
        assert self.run("a - b", (1, 3, "")) == -2
        assert self.run("b / a", (2, 7, "")) == 3  # integer division truncates

    def test_float_division(self):
        assert self.run("b / a", (2.0, 7, "")) == 3.5

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            self.run("a / b", (1, 0, ""))

    def test_arithmetic_null_propagates(self):
        assert self.run("a + b", (None, 3, "")) is None

    def test_arithmetic_on_strings_raises(self):
        with pytest.raises(ExecutionError):
            self.run("s + s", (0, 0, "x"))

    def test_and_or_not(self):
        assert self.run("a = 1 AND b = 2", (1, 2, "")) is True
        assert self.run("a = 1 OR b = 9", (1, 2, "")) is True
        assert self.run("NOT a = 1", (1, 2, "")) is False

    def test_is_null(self):
        assert self.run("a IS NULL", (None, 0, "")) is True
        assert self.run("a IS NOT NULL", (None, 0, "")) is False
        assert self.run("a IS NULL", (1, 0, "")) is False

    def test_in_list(self):
        assert self.run("a IN (1, 2, 3)", (2, 0, "")) is True
        assert self.run("a IN (1, 2, 3)", (9, 0, "")) is False
        assert self.run("a NOT IN (1, 2)", (9, 0, "")) is True

    def test_in_list_null_semantics(self):
        # NULL subject -> UNKNOWN
        assert self.run("a IN (1, 2)", (None, 0, "")) is None
        # subject not found but NULL in list -> UNKNOWN
        assert self.run("a IN (1, NULL)", (9, 0, "")) is None
        # found despite NULL in list -> TRUE
        assert self.run("a IN (9, NULL)", (9, 0, "")) is True
        # NOT IN with NULL in list can never be TRUE
        assert self.run("a NOT IN (1, NULL)", (9, 0, "")) is None

    def test_between_desugared(self):
        assert self.run("a BETWEEN 1 AND 3", (2, 0, "")) is True
        assert self.run("a BETWEEN 1 AND 3", (4, 0, "")) is False

    def test_string_comparison(self):
        assert self.run("s = 'x'", (0, 0, "x")) is True
        assert self.run("s < 'y'", (0, 0, "x")) is True

    def test_boolean_literal(self):
        assert self.run("TRUE", ()) is True
        assert self.run("FALSE OR TRUE", ()) is True

    def test_params_lookup(self):
        outer = Scope([("o", "x")])
        inner = Scope([("t", "a")], outer=outer)
        fn = compile_expression(parse_expression("a = o.x"), inner)
        assert fn((5,), {("o", "x"): 5}) is True
        assert fn((5,), {("o", "x"): 6}) is False

    def test_subquery_without_compiler_raises(self):
        scope = Scope([("t", "a")])
        with pytest.raises(ExecutionError):
            compile_expression(
                parse_expression("EXISTS (SELECT * FROM u)"), scope
            )


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(st.none(), st.integers(-5, 5)),
    b=st.one_of(st.none(), st.integers(-5, 5)),
)
def test_comparison_never_lies_property(a, b):
    """Compiled comparisons agree with Python semantics on non-NULLs and
    return UNKNOWN whenever a NULL is involved."""
    result = evaluate("a < b", (a, b), (("t", "a"), ("t", "b")))
    if a is None or b is None:
        assert result is None
    else:
        assert result is (a < b)
