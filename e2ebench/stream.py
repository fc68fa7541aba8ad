"""Pure helpers of the end-to-end benchmark: the service job set, the
seeded request stream, result digests and percentiles.

Nothing here imports ``repro`` or touches a process, so the benchmark's
own tests can check this logic in isolation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import List, Optional, Sequence, Tuple

#: The Table I workloads, run on Clank, with the technique their
#: anytime builds use (``Workload.technique``).
TABLE1 = (
    ("Conv2d", "swp"), ("MatMul", "swp"), ("MatAdd", "swv"),
    ("Home", "swv"), ("Var", "swp"), ("NetMotion", "swv"),
)
#: The NN inference family, run on the progress-embedding runtime.
NN = (("FC", "swp"), ("Pool", "swp"), ("MLP", "swp"), ("CNN", "swp"))

#: Zipf exponent of warm-phase popularity.
ZIPF_S = 1.0
#: Length of the seeded warm stream. A measured run submits as many
#: slices of it as its rounds allow; p90 needs only 100 hits for ten
#: samples beyond it.
WARM_SUBMISSIONS = 6000
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Metric counters that name the engine that ran a sample. They differ
#: between the batch engine (service) and the interpreter (direct run)
#: although the simulated results agree, so digests leave them out.
ENGINE_COUNTERS = ("replay_fallbacks",)
ENGINE_COUNTER_PREFIX = "engine."


def job_set(trace_count: int, invocations: int) -> List[dict]:
    """The 30 distinct service jobs: every workload at precise, 8-bit
    and 4-bit on the given grid. Independent of any seed."""
    jobs = []
    for family, runtime in ((TABLE1, "clank"), (NN, "progress")):
        for workload, technique in family:
            for mode, bits in (("precise", None), (technique, 8), (technique, 4)):
                jobs.append({
                    "workload": workload, "mode": mode, "bits": bits,
                    "runtime": runtime, "trace_count": trace_count,
                    "invocations": invocations,
                })
    return jobs


def job_key(job: dict) -> str:
    """Stable identity of a job's configuration, used to key goldens."""
    return "{workload}/{mode}/{bits}/{runtime}/{trace_count}x{invocations}".format(**job)


def warm_multiset(jobs: Sequence[dict], warm: int = WARM_SUBMISSIONS) -> List[dict]:
    """The warm-phase submissions before ordering: ``warm`` draws with
    Zipf popularity over a fixed ranking of ``jobs``.

    Fixed, not seeded: hit latency differs a little from job to job, so
    a seeded popularity would move the hit percentiles with the seed."""
    rng = random.Random(0)
    ranked = list(jobs)
    rng.shuffle(ranked)
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(ranked) + 1)]
    return rng.choices(ranked, weights=weights, k=warm)


def make_stream(
    jobs: Sequence[dict], seed: int, warm: int = WARM_SUBMISSIONS
) -> Tuple[List[dict], List[dict]]:
    """The seeded request stream: ``(cold, warm)`` lists of jobs.

    The cold phase submits every job once; the warm phase resubmits the
    :func:`warm_multiset`. The seed sets the order of both phases and
    never the jobs, so compute cost and goldens do not depend on it.

    In the cold phase the seed orders the workloads and, within each,
    the anytime builds; a workload's precise job always comes first.
    The first job of a workload pays its calibration and build, so this
    keeps every job's cost independent of the seed."""
    rng = random.Random(seed)
    by_workload = {}
    for job in jobs:
        by_workload.setdefault(job["workload"], []).append(job)
    order = list(by_workload)
    rng.shuffle(order)
    cold = []
    for workload in order:
        precise = [job for job in by_workload[workload] if job["mode"] == "precise"]
        anytime = [job for job in by_workload[workload] if job["mode"] != "precise"]
        rng.shuffle(anytime)
        cold += precise + anytime
    hits = warm_multiset(jobs, warm)
    rng.shuffle(hits)
    return cold, hits


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-quantile (0 < q < 1) of ``values``, or
    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def result_digest(event: dict) -> str:
    """sha256 of the engine-independent fields of a result.

    ``event`` is a service ``result`` event or a store payload. Kept:
    the config with its summary, the metrics rollup without the
    engine-naming counters, and the ledger's total cycles. The ledger's
    bucket split is left out: the batch engine and the interpreter
    attribute a cycle differently between ``useful`` and ``reexec`` on
    some configurations (MatMul swp 8-bit at 9 x 3, for one)."""
    metrics = event.get("metrics") or {}
    counters = {
        name: value for name, value in (metrics.get("counters") or {}).items()
        if not name.startswith(ENGINE_COUNTER_PREFIX) and name not in ENGINE_COUNTERS
    }
    ledger = event.get("ledger") or {}
    kept = {
        "config": event.get("config"),
        "counters": counters,
        "histograms": metrics.get("histograms"),
        "ledger_total_cycles": ledger.get("total_cycles"),
    }
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
