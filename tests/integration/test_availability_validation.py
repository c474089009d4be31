"""Dependability validation of the fault injector.

A node that alternates up-times of mean MTBF with repairs of mean MTTR is
an alternating renewal process: its long-run availability is
MTBF / (MTBF + MTTR) whatever the up-time distribution.  Dobre et al.
validate dependability simulators against exactly this result.  The tests
below drive the real injector and a real space-shared cluster, kept fully
loaded with one-node jobs, over a long horizon.  At the horizon every SLA
resolves at once, which closes the injector, so downtime is counted over
``[0, horizon]``.

Confidence intervals: by the delta method, availability observed over a
horizon ``T`` has variance about
``(MTTR² σ_up² + MTBF² σ_down²) / ((MTBF + MTTR)³ T)`` per renewal process,
with ``σ²`` the variance of an up- or down-time (exponential repairs:
``σ_down = MTTR``; Weibull up-times of shape ``k``:
``σ_up² = MTBF² (Γ(1+2/k) / Γ(1+1/k)² − 1)``).  Each process must fall
within ``Z`` standard deviations of MTBF/(MTBF+MTTR), and so must the mean
over all of them (the injector's ``observed_availability``).  With
``Z = 4.5`` the family of checks in one test holds with probability above
99.9 % for a correct injector; the seeds are fixed, so the tests are
deterministic.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.spaceshared import SpaceSharedCluster
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.sim import Simulator
from repro.workload.job import Job

DAY = 86_400.0
Z = 4.5


class LoadedService:
    """What the injector needs of a service: a cluster that every up node
    keeps busy with a one-node job until ``horizon``, when the whole
    workload resolves at once."""

    def __init__(self, n_nodes: int, horizon: float) -> None:
        self.sim = Simulator()
        self.cluster = SpaceSharedCluster(self.sim, n_nodes)
        self.policy = self
        self.observers: list = []
        self.horizon = horizon
        self._next_id = 0
        self._resolved = False
        self.sim.schedule(horizon, self._resolve)

    def unresolved_count(self) -> int:
        return 0 if self._resolved else 1

    def _resolve(self) -> None:
        self._resolved = True
        for observer in self.observers:
            observer("finished", None)

    def fill(self) -> None:
        while self.cluster.free_procs:
            self._next_id += 1
            runtime = 10 * self.horizon
            job = Job(job_id=self._next_id, submit_time=self.sim.now,
                      runtime=runtime, estimate=runtime, procs=1)
            self.cluster.start(job, lambda job, t: None)

    # -- the policy's fault hooks --------------------------------------------
    def on_node_failure(self, node_ids, kills) -> None:
        self.fill()

    def on_node_repair(self, node_ids) -> None:
        self.fill()


def run_loaded(config: FaultConfig, n_nodes: int, horizon: float, seed: int):
    service = LoadedService(n_nodes, horizon)
    injector = FaultInjector(service, config, seed=seed)
    injector.start()
    service.fill()
    service.sim.run()
    assert service.sim.now >= horizon
    return injector


def half_width(mtbf: float, mttr: float, up_cv2: float, horizon: float) -> float:
    """``Z`` standard deviations of one process's observed availability;
    ``up_cv2`` is the squared coefficient of variation of an up-time."""
    variance = (mttr ** 2 * up_cv2 * mtbf ** 2 + mtbf ** 2 * mttr ** 2) / (
        (mtbf + mttr) ** 3 * horizon
    )
    return Z * math.sqrt(variance)


def weibull_cv2(shape: float) -> float:
    return math.gamma(1 + 2 / shape) / math.gamma(1 + 1 / shape) ** 2 - 1


# One seed per case: numpy draws a Weibull variate as a power of a standard
# exponential one, so a shared seed would make the cases one sample.
@pytest.mark.parametrize("model,shape,seed", [("exponential", 1.0, 1),
                                              ("weibull", 1.5, 2),
                                              ("weibull", 0.7, 3)])
def test_node_availability_matches_mtbf_over_mtbf_plus_mttr(model, shape, seed):
    mtbf, mttr, n_nodes, horizon = DAY, 4 * 3_600.0, 24, 600 * DAY
    config = FaultConfig(enabled=True, model=model, mtbf=mtbf, mttr=mttr,
                         weibull_shape=shape)
    injector = run_loaded(config, n_nodes, horizon, seed=seed)
    stats = injector.stats
    expected = config.availability
    up_cv2 = 1.0 if model == "exponential" else weibull_cv2(shape)
    width = half_width(mtbf, mttr, up_cv2, horizon)
    assert stats.failures > 10_000 and stats.jobs_killed == stats.failures
    for node in range(n_nodes):
        observed = 1.0 - stats.per_node_downtime[node] / horizon
        assert abs(observed - expected) < width, (node, observed, expected)
    assert math.isclose(sum(stats.per_node_downtime.values()), stats.downtime_s)
    overall = injector.observed_availability(horizon)
    assert abs(overall - expected) < width / math.sqrt(n_nodes)


def test_domain_availability_matches_mtbf_over_mtbf_plus_mttr():
    # Node failures are pushed far beyond the horizon, so every outage is a
    # whole rack's and each member's downtime is its rack's.
    mtbf, mttr, horizon = 2 * DAY, 6 * 3_600.0, 1_500 * DAY
    config = FaultConfig(enabled=True, mtbf=1e6 * horizon, domain_size=4,
                         domain_mtbf=mtbf, domain_mttr=mttr)
    injector = run_loaded(config, 16, horizon, seed=4)
    stats = injector.stats
    expected = mtbf / (mtbf + mttr)
    width = half_width(mtbf, mttr, 1.0, horizon)
    assert stats.domain_outages > 2_000
    for rack in range(4):
        members = {stats.per_node_downtime[n] for n in range(4 * rack, 4 * rack + 4)}
        assert len(members) == 1, "a rack outage must down its members together"
        observed = 1.0 - members.pop() / horizon
        assert abs(observed - expected) < width, (rack, observed, expected)
    overall = injector.observed_availability(horizon)
    assert abs(overall - expected) < width / 2
