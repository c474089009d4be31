"""Unit tests for SLA records and the accounting ledger."""

import pytest

from repro.service.accounting import AccountingLedger
from repro.service.sla import SLARecord, SLAStatus
from repro.workload.job import Job


def make_record(deadline=100.0):
    job = Job(job_id=1, submit_time=0.0, runtime=50.0, estimate=50.0, procs=1,
              deadline=deadline, budget=10.0)
    return SLARecord(job=job)


def test_record_rejects_unknown_attributes():
    # SLARecord is slotted: a misspelt field name raises instead of
    # quietly adding an attribute nothing reads.
    rec = make_record()
    with pytest.raises(AttributeError):
        rec.finsh_time = 1.0


def test_lifecycle_happy_path():
    rec = make_record()
    assert rec.status is SLAStatus.SUBMITTED
    rec.accept(time=1.0, quoted_cost=5.0)
    assert rec.accepted
    rec.start(time=2.0)
    rec.finish(time=60.0, utility=5.0)
    assert rec.status is SLAStatus.FINISHED
    assert rec.deadline_met
    out = rec.outcome()
    assert out.accepted and out.deadline_met
    assert out.utility == 5.0
    assert out.start_time == 2.0


def test_rejection_path():
    rec = make_record()
    rec.reject("budget")
    assert rec.status is SLAStatus.REJECTED
    assert not rec.accepted
    assert rec.reject_reason == "budget"
    out = rec.outcome()
    assert not out.accepted and out.utility == 0.0


def test_deadline_miss_detected():
    rec = make_record(deadline=100.0)
    rec.accept(0.0)
    rec.start(0.0)
    rec.finish(time=150.0, utility=-3.0)
    assert not rec.deadline_met
    assert rec.outcome().utility == -3.0


def test_invalid_transitions_raise():
    rec = make_record()
    with pytest.raises(ValueError):
        rec.start(1.0)  # not accepted yet
    rec.accept(1.0)
    with pytest.raises(ValueError):
        rec.accept(2.0)  # double accept
    with pytest.raises(ValueError):
        rec.finish(3.0, 0.0)  # not started
    rec.start(2.0)
    with pytest.raises(ValueError):
        rec.reject("late")  # already running
    rec.finish(3.0, 1.0)
    with pytest.raises(ValueError):
        rec.start(4.0)


def test_ledger_totals_and_lookup():
    ledger = AccountingLedger()
    ledger.record(1, 10.0, 50.0, "charge")
    ledger.record(2, 20.0, -30.0, "penalty")
    ledger.record(1, 30.0, 5.0)
    assert len(ledger) == 3
    assert ledger.total_utility == pytest.approx(25.0)
    assert ledger.total_penalties == pytest.approx(-30.0)
    assert [e.utility for e in ledger.by_job(1)] == [50.0, 5.0]
    assert ledger.by_job(99) == []
