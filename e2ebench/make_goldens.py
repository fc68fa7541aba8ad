"""Regenerate the benchmark's goldens from the program at this checkout.

Usage, from the root of a checkout: ``python3 e2ebench/make_goldens.py``

Writes into ``e2ebench/goldens/``:

* ``list.stdout`` and ``<workload>.stdout``: what ``repro list`` and
  each workload's CLI command print;
* ``service-<grid>.json``: per job, the digest of the engine-independent
  fields of a direct in-process ``run_benchmark`` of that configuration
  (the interpreter path). The service path (``jobs.compute``, batch
  engine) is run beside it and must give the same digest;
* ``sim.json``: simulated cycles, outages and skims of each workload's
  traced session, which must repeat exactly.

Run it only when a change is meant to alter what the program prints or
simulates, and say so in that change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from session import GOLDENS, WORKLOADS, child_env, run_command, run_session
from stream import job_key, job_set, result_digest


def service_digests(trace_count: int, invocations: int) -> dict:
    """Digest per job of a direct run; exits non-zero if the service
    path disagrees. Runs inside a hermetic child (see ``main``)."""
    from repro.experiments.common import ExperimentSetup, _store_payload, run_benchmark
    from repro.service.jobs import compute, prepare
    from repro.service.protocol import JobSpec
    from repro.workloads import make_workload

    setup = ExperimentSetup(trace_count=trace_count, invocations=invocations)
    digests = {}
    for job in job_set(trace_count, invocations):
        ctx = prepare(JobSpec.from_dict(job))
        served = result_digest(compute(ctx))
        result = run_benchmark(make_workload(job["workload"]), job["mode"],
                               job["bits"], job["runtime"], setup)
        direct = result_digest(_store_payload(result, ctx.fingerprint, "default", setup))
        if served != direct:
            sys.exit(f"{job_key(job)}: service digest {served} != direct {direct}")
        digests[job_key(job)] = direct
    return digests


def main() -> int:
    if sys.argv[1:2] == ["--service-digests"]:
        grid = [int(x) for x in sys.argv[2:4]]
        print(json.dumps(service_digests(*grid), indent=1, sort_keys=True))
        return 0

    root = Path.cwd()
    env = child_env(root)
    GOLDENS.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (GOLDENS / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDENS / name}")

    listing = run_command(root, env, ["list"])
    if listing.code != 0:
        sys.exit(f"list exited {listing.code}")
    write("list.stdout", listing.stdout)
    for name, spec in WORKLOADS.items():
        out = run_command(root, env, spec.command)
        if out.code != 0:
            sys.exit(f"{name}: command exited {out.code}")
        write(f"{name}.stdout", out.stdout)
        grid = "{}x{}".format(*spec.grid)
        digests = subprocess.run(
            [sys.executable, __file__, "--service-digests", *map(str, spec.grid)],
            cwd=root, env=env, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        write(f"service-{grid}.json", digests)

    sim = {}
    for name in WORKLOADS:
        session = run_session(root, name, 0, traced=True)
        if session.tally.failed:
            sys.exit(f"{name}: traced session failed: {session.tally.notes}")
        sim[name] = {stat: session.metrics[f"sim.{stat}"]
                     for stat in ("active_cycles", "outages", "skims")}
    write("sim.json", json.dumps(sim, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
