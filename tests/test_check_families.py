"""Dispatch and shared cores: ``check_only`` against a per-view oracle.

EDCs that differ only in constants form a *family* whose core plan runs
once per pass, each member keeping the core rows its own comparisons
accept; a dispatch index decides which units an update wakes.  The
oracle here knows nothing of either: it walks every installed view in
order, applies the paper's skip rule table by table and runs each
view's own prepared plan.  Both must agree on every EDC's verdict,
witness multiset and columns, on the violation order and on the
checked/skipped counts.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Tintin
from repro.core.aggregates import AggregateFamily
from repro.core.safe_commit import CompiledEDC, _Dispatch, _Family, event_overlays
from repro.errors import ExecutionError
from repro.minidb import Database
from repro.minidb.schema import normalize

SCHEMA = (
    "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, "
    "o_custkey INTEGER, o_totalprice DOUBLE)",
    "CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, "
    "l_linenumber INTEGER NOT NULL, l_quantity INTEGER, "
    "PRIMARY KEY (l_orderkey, l_linenumber), "
    "FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey))",
)


def bound(name: str, quantity: int, price: int) -> str:
    """The e8Bound shape: no expensive order with an oversized item."""
    return (
        f"CREATE ASSERTION {name} CHECK (NOT EXISTS ("
        "SELECT * FROM orders AS o, lineitem AS l "
        f"WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > {quantity} "
        f"AND o.o_totalprice > {price}))"
    )


def small_quantity(name: str, floor: int) -> str:
    """A twin over the NULL-able ``l_quantity``."""
    return (
        f"CREATE ASSERTION {name} CHECK (NOT EXISTS ("
        f"SELECT * FROM lineitem AS l WHERE l.l_quantity < {floor}))"
    )


def one_pricey_order(name: str, price: int) -> str:
    """A self-join twin: no customer with a second order over a price."""
    return (
        f"CREATE ASSERTION {name} CHECK (NOT EXISTS ("
        "SELECT * FROM orders AS a, orders AS b "
        "WHERE a.o_custkey = b.o_custkey AND a.o_orderkey <> b.o_orderkey "
        f"AND a.o_totalprice > {price}))"
    )


#: boundA rejects what boundB and boundC each accept (quantity 6 on a
#: 60.0 order); the aggregate mix and an unshared negation sit between
ASSERTIONS = (
    bound("boundA", 5, 50),
    "CREATE ASSERTION atLeastOne CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)))",
    bound("boundB", 8, 50),
    small_quantity("qtyFloor1", 1),
    "CREATE ASSERTION maxTwoItems CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE (SELECT COUNT(*) FROM lineitem AS l "
    "WHERE l.l_orderkey = o.o_orderkey) > 2))",
    bound("boundC", 5, 80),
    small_quantity("qtyFloor3", 3),
    one_pricey_order("pricey90", 90),
    "CREATE ASSERTION quantityCap CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE (SELECT SUM(l_quantity) FROM lineitem "
    "AS l WHERE l.l_orderkey = o.o_orderkey) > 12))",
    one_pricey_order("pricey70", 70),
)

BASE_ORDERS = [
    (1, 1, 40.0),
    (2, 2, 60.0),
    (3, None, 85.0),
    (4, 3, 95.0),
    (5, 4, 55.0),
    (6, None, 30.0),
]
BASE_ITEMS = [(1, 1, 4), (2, 1, None), (3, 1, 4), (4, 1, 3), (5, 1, 5), (6, 1, None)]


def build(assertions=ASSERTIONS) -> Tintin:
    db = Database("families")
    for ddl in SCHEMA:
        db.execute(ddl)
    db.insert_rows("orders", BASE_ORDERS, bypass_triggers=True)
    db.insert_rows("lineitem", BASE_ITEMS, bypass_triggers=True)
    tintin = Tintin(db)
    tintin.install()
    for sql in assertions:
        tintin.add_assertion(sql)
    return tintin


@pytest.fixture(scope="module")
def engine() -> Tintin:
    """One engine for every generated example: ``check_only`` is a pure
    read, so examples cannot disturb each other."""
    return build()


def oracle(tintin: Tintin, overlays: dict) -> tuple[list, int, int]:
    """Every view in installation order, skipped by the paper's rule,
    else run through its own prepared plan; then each aggregate
    checker alone, as a family of one.  Returns ``(violations, checked,
    skipped)``."""
    db = tintin.db
    proc = tintin.safe_commit_proc

    def nonempty(name: str) -> bool:
        overlay = overlays.get(normalize(name))
        return len(db.table(name)) > 0 or bool(overlay and overlay.inserts)

    found, checked, skipped = [], 0, 0
    for compiled in proc.compiled:
        if not all(nonempty(t) for t in compiled.event_tables) or (
            compiled.guard_tables
            and not any(nonempty(t) for t in compiled.guard_tables)
        ):
            skipped += 1
            continue
        checked += 1
        result = compiled.prepared.execute(overlays=overlays)
        if result.rows:
            found.append(
                (compiled.edc.assertion, compiled.edc.name, result.columns,
                 Counter(result.rows))
            )
    for checker in proc.aggregate_checkers:
        if not any(nonempty(t) for t in checker.driving_tables):
            skipped += 1
            continue
        checked += 1
        violation = AggregateFamily([checker]).run(db, overlays)[0][3]
        if violation is not None:
            found.append(
                (violation.assertion, violation.edc_name, violation.columns,
                 Counter(violation.rows))
            )
    return found, checked, skipped


def engine_view(tintin: Tintin, overlays: dict) -> tuple[list, int, int]:
    violations, checked, skipped = tintin.safe_commit_proc.check_only(
        tintin.db, overlays=overlays
    )
    found = [
        (v.assertion, v.edc_name, v.columns, Counter(v.rows)) for v in violations
    ]
    return found, checked, skipped


def units_of(tintin: Tintin) -> list:
    proc = tintin.safe_commit_proc
    return [
        unit
        for unit, *_ in _Dispatch(proc.compiled, proc.aggregate_checkers).index
    ]


def family_names(tintin: Tintin) -> set[tuple[str, ...]]:
    return {
        tuple(m.view_name for m in unit.members)
        for unit in units_of(tintin)
        if isinstance(unit, _Family)
    }


# -- the strategy: one to three staged updates, unioned as a group is ------

order_rows = st.tuples(
    st.integers(10, 14),
    st.sampled_from([None, 1, 2, 3]),
    st.sampled_from([30.0, 55.0, 60.0, 85.0, 95.0]),
)
item_rows = st.tuples(
    st.sampled_from([1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14]),
    st.integers(2, 4),
    st.sampled_from([None, 0, 2, 6, 9]),
)
updates = st.fixed_dictionaries(
    {
        "ins_orders": st.lists(order_rows, max_size=3),
        "ins_items": st.lists(item_rows, max_size=4),
        "del_orders": st.lists(st.sampled_from(BASE_ORDERS), max_size=2),
        "del_items": st.lists(st.sampled_from(BASE_ITEMS), max_size=2),
    }
)


def group_overlays(members: list[dict]) -> dict:
    """The overlays of a group's union validation: every member's
    staged rows concatenated per event table."""
    inserts = {"orders": [], "lineitem": []}
    deletes = {"orders": [], "lineitem": []}
    for update in members:
        inserts["orders"] += update["ins_orders"]
        inserts["lineitem"] += update["ins_items"]
        deletes["orders"] += update["del_orders"]
        deletes["lineitem"] += update["del_items"]
    return event_overlays(inserts, deletes)


@settings(max_examples=150, deadline=None)
@given(members=st.lists(updates, min_size=1, max_size=3))
def test_check_only_matches_per_view_oracle(engine, members):
    tintin = engine
    overlays = group_overlays(members)
    assert engine_view(tintin, overlays) == oracle(tintin, overlays)


class TestFamilies:
    def test_the_assertion_set_forms_the_expected_families(self):
        families = family_names(build())
        # the three bound twins share each of their three EDC shapes
        assert {
            tuple(f"bound{k}{i}" for k in "ABC") for i in (1, 2, 3)
        } <= families
        assert ("qtyFloor11", "qtyFloor31") in families
        assert any(names[0].startswith("pricey90") for names in families)

    def test_a_member_rejects_alone(self, engine):
        tintin = engine
        overlays = event_overlays(
            {"orders": [(10, 1, 60.0)], "lineitem": [(10, 1, 6)]}, {}
        )
        violations, _, _ = tintin.safe_commit_proc.check_only(
            tintin.db, overlays=overlays
        )
        bounds = {v.assertion for v in violations if v.assertion.startswith("bound")}
        assert bounds == {"boundA"}

    def test_unknown_comparison_is_not_a_violation(self, engine):
        tintin = engine
        overlays = event_overlays({"lineitem": [(1, 2, None)]}, {})
        violations, _, _ = tintin.safe_commit_proc.check_only(
            tintin.db, overlays=overlays
        )
        assert not [v for v in violations if v.assertion.startswith("qtyFloor")]

    def test_dropping_members_re_forms_the_family(self):
        tintin = build([bound(f"b{k}", 5 + k, 50) for k in range(3)])
        assert ("b01", "b11", "b21") in family_names(tintin)
        tintin.drop_assertion("b1")
        assert ("b01", "b21") in family_names(tintin)
        tintin.drop_assertion("b0")
        assert family_names(tintin) == set()
        survivor = [u for u in units_of(tintin) if isinstance(u, CompiledEDC)]
        assert [u.view_name for u in survivor] == ["b21", "b22", "b23"]
        # the lone survivor runs its own view, never the old core
        for unit in survivor:
            unit.core.prepared.execute = None
        overlays = event_overlays(
            {"orders": [(10, 1, 60.0)], "lineitem": [(10, 1, 9)]}, {}
        )
        found, checked, skipped = engine_view(tintin, overlays)
        assert [f[:2] for f in found] == [("b2", "b21")]
        assert (found, checked, skipped) == oracle(tintin, overlays)

    def test_add_assertion_after_a_pass_invalidates_the_dispatch(self):
        tintin = build([bound("b0", 5, 50)])
        overlays = event_overlays(
            {"orders": [(10, 1, 60.0)], "lineitem": [(10, 1, 9)]}, {}
        )
        before = engine_view(tintin, overlays)
        assert [f[0] for f in before[0]] == ["b0"]
        tintin.add_assertion(bound("b1", 8, 50))
        after = engine_view(tintin, overlays)
        assert [f[0] for f in after[0]] == ["b0", "b1"]
        assert after[1] == before[1] * 2
        assert after == oracle(tintin, overlays)
        assert ("b01", "b11") in family_names(tintin)

    def test_a_core_that_raises_falls_back_to_the_member_views(self):
        # the members' own filters stop at ``a.i > k`` before comparing
        # a string with an integer; the core, without that comparison,
        # raises — each member then runs its own view and behaves as
        # it would alone
        db = Database("raising")
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, i INTEGER, s VARCHAR(10))"
        )
        tintin = Tintin(db)
        tintin.install()
        for k in (5, 6):
            tintin.add_assertion(
                f"CREATE ASSERTION odd{k} CHECK (NOT EXISTS (SELECT * FROM t "
                f"AS a WHERE a.i > {k} AND a.s > a.i))"
            )
        assert family_names(tintin) == {("odd51", "odd61")}
        quiet = event_overlays({"t": [(1, 3, "x")]}, {})
        core = tintin.safe_commit_proc.compiled[0].core.prepared
        with pytest.raises(ExecutionError):
            core.execute(overlays=quiet)
        assert engine_view(tintin, quiet) == ([], 2, 0)
        loud = event_overlays({"t": [(1, 7, "x")]}, {})
        with pytest.raises(ExecutionError):
            tintin.safe_commit_proc.check_only(db, overlays=loud)

    @pytest.mark.parametrize("cache", [True, False], ids=["core", "fresh-plan"])
    def test_physically_staged_events_agree(self, cache):
        tintin = build()
        tintin.db.plan_cache_enabled = cache
        db = tintin.db
        db.execute("INSERT INTO orders VALUES (10, 2, 95.0)")
        db.execute("INSERT INTO lineitem VALUES (10, 1, 6)")
        db.execute("INSERT INTO lineitem VALUES (2, 2, 0)")
        found, checked, skipped = engine_view(tintin, {})
        assert {f[0] for f in found} >= {"boundA", "boundC", "qtyFloor1",
                                         "qtyFloor3", "pricey90", "pricey70"}
        assert (found, checked, skipped) == oracle(tintin, {})
