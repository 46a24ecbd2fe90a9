"""The paper's correctness claim over its TPC-H workloads, at smoke size.

Every paper assertion (the E1-E6 suite) meets every update the
generator makes: the three refresh shapes (RF1, RF2, the mixed batch)
and the five violating batches.  For each pair the incremental check
must agree with the non-incremental one:

* ``check_pending`` (the EDC views over the captured update) rejects
  exactly when the assertion's defining query is non-empty on the
  post-update state;
* ``safe_commit`` reaches the same verdict, and leaves a state the
  defining query finds clean — committed when valid, rolled back when
  not.
"""

import pytest

from repro.core import Tintin
from repro.tpch import ALL_ASSERTIONS, UpdateGenerator, load_tpch, tpch_database

REFRESHES = ("rf1_new_orders", "rf2_delete_orders", "mixed_refresh")
VIOLATING = (
    "violating_order_without_lineitem",
    "violating_empty_an_order",
    "violating_negative_quantity",
    "violating_too_many_items",
    "violating_bulk_quantities",
)

#: the (assertion, update) pairs that must be rejected; every other
#: pair must commit
EXPECTED_REJECTIONS = {
    ("atLeastOneLineItem", "violating_order_without_lineitem"),
    ("atLeastOneLineItem", "violating_empty_an_order"),
    ("everyOrderHasMaxItem", "violating_order_without_lineitem"),
    ("everyOrderHasMaxItem", "violating_empty_an_order"),
    ("positiveQuantity", "violating_negative_quantity"),
    ("maxSevenLineItems", "violating_too_many_items"),
    ("orderQuantityCap", "violating_bulk_quantities"),
}


def make_batch(db, update):
    generator = UpdateGenerator(db, seed=7)
    if update in REFRESHES:
        return getattr(generator, update)(4)
    return getattr(generator, update)()


def violated(violations):
    return sorted({violation.assertion for violation in violations})


@pytest.mark.parametrize("update", REFRESHES + VIOLATING)
@pytest.mark.parametrize("spec", ALL_ASSERTIONS, ids=lambda spec: spec.name)
def test_incremental_verdict_equals_full_check(spec, update):
    db = tpch_database()
    load_tpch(db, scale=0.0005, seed=42)
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(spec.sql)
    assert tintin.baseline.check_current_state(db) == []

    batch = make_batch(db, update)
    batch.stage(db)
    pending = tintin.check_pending()
    result = tintin.safe_commit()
    assert result.committed == pending.committed
    assert violated(result.violations) == violated(pending.violations)
    assert result.committed == ((spec.name, update) not in EXPECTED_REJECTIONS)
    assert tintin.baseline.check_current_state(db) == []

    if not result.committed:
        # the rollback restored the pre-state: apply the same batch
        # unchecked and the defining query must see the violation
        batch.stage(db)
        tintin.db.apply_batch(*tintin.events.staged.take())
        full = tintin.baseline.check_current_state(db)
        assert violated(full) == [spec.name]
