"""Unit tests for the Job record."""

import dataclasses

import pytest

from repro.workload.job import Job, Urgency


def make_job(**kwargs):
    base = dict(job_id=1, submit_time=0.0, runtime=100.0, estimate=120.0, procs=4)
    base.update(kwargs)
    return Job(**base)


def test_defaults():
    job = make_job()
    assert job.deadline == float("inf")
    assert job.urgency is Urgency.LOW
    assert job.trace_estimate == 120.0  # defaults to the estimate


def test_absolute_deadline():
    job = make_job(submit_time=50.0, deadline=200.0)
    assert job.absolute_deadline == 250.0


def test_work_is_runtime_times_procs():
    job = make_job(runtime=100.0, procs=4)
    assert job.work == 400.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("runtime", -1.0),
        ("estimate", 0.0),
        ("estimate", -5.0),
        ("procs", 0),
        ("deadline", 0.0),
        ("deadline", -10.0),
    ],
)
def test_invalid_fields_raise(field, value):
    with pytest.raises(ValueError):
        make_job(**{field: value})


def test_clone_is_independent():
    job = make_job()
    job.extra["note"] = "original"
    copy = job.clone()
    copy.extra["note"] = "copy"
    copy.deadline = 42.0
    assert job.extra["note"] == "original"
    assert job.deadline == float("inf")
    assert copy.deadline == 42.0


def test_clone_copies_every_field():
    # One non-default value per field: a field added to Job but not to
    # Job.clone fails the equality below (or the name check first).
    values = {
        "job_id": 7,
        "submit_time": 12.5,
        "runtime": 300.0,
        "estimate": 450.0,
        "procs": 3,
        "deadline": 900.0,
        "budget": 55.0,
        "penalty_rate": 0.25,
        "urgency": Urgency.HIGH,
        "trace_estimate": 600.0,
        "extra": {"note": "original"},
    }
    assert set(values) == {f.name for f in dataclasses.fields(Job)}
    job = Job(**values)
    for f in dataclasses.fields(Job):
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(job, f.name) != f.default_factory(), f.name
        else:
            assert getattr(job, f.name) != f.default, f.name
    copy = job.clone()
    assert copy == job
    assert copy.extra is not job.extra


def test_repr_mentions_id():
    assert "#1" in repr(make_job())


def test_job_rejects_unknown_attributes():
    # Job is slotted: a misspelt field name raises instead of quietly
    # adding an attribute nothing reads.
    job = make_job()
    with pytest.raises(AttributeError):
        job.deadlien = 5.0
