"""Cluster resource models.

The paper simulates the IBM SP2 at SDSC: 128 identical compute nodes, each
with a SPEC rating of 168, so a job's trace runtime holds on any node and
neither model carries a per-node rating.  Two execution disciplines are
modelled, matching the two policy families:

- :mod:`repro.cluster.spaceshared` — one job per processor at a time; used
  by the backfilling policies (FCFS-BF, SJF-BF, EDF-BF) and FirstReward.
  :mod:`repro.cluster.profile` supplies the availability arithmetic EASY
  backfilling needs (shadow time and spare processors).
- :mod:`repro.cluster.timeshared` — deadline-proportional processor sharing;
  used by the Libra family (Libra, Libra+$, LibraRiskD).
"""
