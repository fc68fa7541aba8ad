"""Measured runs: rounds of start-up probes, a CLI command and service work.

Every program process is spawned from a hermetic environment, timed
from spawn to exit (or to its first ``pong``) with ``time.monotonic``
and reaped with ``os.wait4``, whose rusage gives the process's own peak
RSS. The service client is the benchmark's own: a closed loop over the
newline-JSON protocol (docs/SERVICE.md) keeping one request outstanding,
so a warm hit never waits behind a compute thread.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from spans import layer_metrics, root_ns_within
from stream import job_key, job_set, make_stream, percentile, result_digest

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"
#: Worker threads of the server, and the cap on busy processes: the
#: host this benchmark was tuned on has two cores.
WORKERS = 2
#: A child still running after this many seconds is killed, so a run
#: ends within its time limit even when the program hangs.
CHILD_LIMIT_S = 120.0
#: Rounds that split the cold phase between them; the warm rounds follow.
COLD_ROUNDS = 4
#: Warm rounds a measured run makes at least, however slow the host.
MIN_WARM_ROUNDS = 2
#: Store hits per warm round.
WARM_SLICE = 400
#: Store hits of a traced session.
TRACE_WARM = 1000


@dataclass(frozen=True)
class Workload:
    """What one benchmark workload runs."""

    command: tuple
    grid: tuple  # (trace_count, invocations) of the service stream


WORKLOADS: Dict[str, Workload] = {
    "fig10": Workload(("run", "fig10", "--traces", "3", "--invocations", "1"), (9, 3)),
    "fig9": Workload(("run", "fig9"), (3, 1)),
}


def child_env(root: Path) -> dict:
    """The environment of every program process.

    ``REPRO_*`` and ``PYTHON*`` variables are dropped, so no inherited
    knob can change the engine, add a worker pool or arm a store.
    Hashing is fixed, stdout unbuffered, and native thread pools are
    held to one thread."""
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        PYTHONUNBUFFERED="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def golden_text(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


def golden_json(name: str) -> dict:
    return json.loads(golden_text(name))


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, note: str) -> None:
        """Count one operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


@dataclass
class Exited:
    """A reaped program process."""

    seconds: float
    rss_mb: float
    code: int
    stdout: str


def _program(args, spans: Optional[Path]) -> list:
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "traced.py"), str(spans), *args]


def _reap(proc: subprocess.Popen, start: float):
    """Wait for ``proc`` with ``wait4``: (seconds since start, rusage)."""
    _pid, status, usage = os.wait4(proc.pid, 0)
    seconds = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage


def _killer(proc: subprocess.Popen) -> threading.Timer:
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def run_command(root: Path, env: dict, args, spans: Optional[Path] = None) -> Exited:
    """Spawn ``python -m repro ARGS`` (or its traced wrapper) and time it
    from spawn to exit."""
    start = time.monotonic()
    proc = subprocess.Popen(
        _program(args, spans), cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    timer = _killer(proc)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        seconds, usage = _reap(proc, start)
    finally:
        timer.cancel()
    return Exited(seconds, usage.ru_maxrss / 1024.0, proc.returncode,
                  out.decode("utf-8", "replace"))


class Server:
    """A ``repro serve`` process with a fresh store, journal and socket,
    and one client connection to it. Raises ``RuntimeError`` or
    ``OSError`` when the server does not answer a ``ping``."""

    def __init__(self, root: Path, env: dict, workdir: Path,
                 spans: Optional[Path] = None) -> None:
        workdir.mkdir(parents=True)
        # Relative to the checkout root, which is both processes' cwd:
        # an absolute path under a deep checkout could pass the 108-byte
        # limit of a unix socket address.
        self.socket_path = os.path.relpath(workdir / "s.sock", root)
        args = ["serve", "--socket", self.socket_path,
                "--store", str(workdir / "store"),
                "--journal", str(workdir / "journal.jsonl"),
                "--workers", str(WORKERS)]
        self.sock: Optional[socket.socket] = None
        self.reader = None
        self.ids = 0
        self.rss_mb: Optional[float] = None
        with open(workdir / "stderr.txt", "wb") as stderr:
            self.start = time.monotonic()
            self.proc = subprocess.Popen(
                _program(args, spans), cwd=root, env=env,
                stdout=subprocess.PIPE, stderr=stderr,
            )
        self.timer = _killer(self.proc)
        try:
            if not self.proc.stdout.readline():
                raise RuntimeError("repro serve exited before listening")
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.connect(self.socket_path)
            self.reader = self.sock.makefile("rb")
            pong_at, pong = self.request({"op": "ping"})[-1]
            if pong.get("event") != "pong":
                raise RuntimeError(f"no pong from repro serve: {pong}")
        except BaseException:
            self.proc.kill()
            self.close()
            raise
        self.setup_s = pong_at - self.start

    def request(self, message: dict) -> list:
        """Send one request; return its ``(monotonic time, event)`` list
        up to and including the terminal event."""
        self.ids += 1
        request_id = self.ids
        self.sock.sendall(
            json.dumps({**message, "id": request_id}).encode("utf-8") + b"\n")
        events = []
        while True:
            line = self.reader.readline()
            now = time.monotonic()
            if not line:
                raise ConnectionError("server closed the connection")
            event = json.loads(line)
            if event.get("id") != request_id:
                continue
            events.append((now, event))
            if event.get("event") in ("pong", "result", "error", "stats", "bye"):
                return events

    def stats(self) -> dict:
        """The server's ``stats`` counters, or ``{}`` when it is gone."""
        try:
            return self.request({"op": "stats"})[-1][1].get("stats", {})
        except (OSError, ValueError):
            return {}

    def close(self) -> int:
        """Shut the server down, reap it and record its peak RSS; returns
        its exit code."""
        try:
            if self.reader is not None:
                try:
                    self.request({"op": "shutdown"})
                except (OSError, ValueError):
                    self.proc.kill()
                self.reader.close()
            if self.sock is not None:
                self.sock.close()
            self.proc.stdout.close()
            _seconds, usage = _reap(self.proc, self.start)
        finally:
            self.timer.cancel()
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode


def boot_probe(root: Path, env: dict, workdir: Path, tally: Tally) -> Optional[float]:
    """Start a server, wait for its ``pong`` and shut it down: its
    set-up seconds, or ``None`` (a failed operation)."""
    try:
        server = Server(root, env, workdir)
    except (OSError, RuntimeError, ValueError) as exc:
        tally.check(False, f"serve boot: {exc}")
        return None
    code = server.close()
    tally.check(code == 0, f"probe server exited {code}")
    return server.setup_s


@dataclass
class Submission:
    """Client-side view of one submit."""

    job: dict
    sent: float
    done: float
    levelk: Optional[float]
    result: Optional[dict]
    error: Optional[str]

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3

    @property
    def levelk_ms(self) -> Optional[float]:
        return None if self.levelk is None else (self.levelk - self.sent) * 1e3


def submit(server: Server, job: dict) -> Submission:
    """One closed-loop submit: time to the level-k event and to the
    result. A lost connection is returned as an error, not raised."""
    sent = time.monotonic()
    try:
        events = server.request({"op": "submit", "job": job})
    except (OSError, ValueError) as exc:
        return Submission(job, sent, time.monotonic(), None, None, repr(exc))
    done, last = events[-1]
    levelk = next(
        (t for t, e in events
         if e.get("event") == "progressive" and e.get("stage") == "level-k"),
        None,
    )
    if last.get("event") == "result":
        return Submission(job, sent, done, levelk, last, None)
    return Submission(job, sent, done, levelk, None, str(last))


def check_submissions(subs: Sequence[Submission], source: str, tally: Tally,
                      goldens: dict) -> None:
    """One operation per submission: a result from ``source`` whose
    digest matches the golden, and a level-k event on every cold job."""
    for sub in subs:
        key = job_key(sub.job)
        if sub.result is None:
            tally.check(False, f"{key}: {sub.error}")
            continue
        tally.check(
            sub.result.get("source") == source
            and result_digest(sub.result) == goldens.get(key)
            and (source == "store" or sub.levelk is not None),
            f"{key}: source {sub.result.get('source')}, "
            f"digest {result_digest(sub.result)[:12]}, "
            f"level-k {'seen' if sub.levelk is not None else 'missing'}",
        )


def _mean(values) -> Optional[float]:
    values = list(values)
    return statistics.fmean(values) if values else None


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def stream_metrics(cold: Sequence[Submission],
                   warm: Sequence[Sequence[Submission]]) -> dict:
    """Service latencies of answered submissions. ``warm`` holds the
    hits of each warm round; a hit statistic is the median over rounds
    of each round's statistic, so a round that a host stall slowed moves
    it little. A metric with no sample (every cold job lacking its
    level-k event, say) is ``None``; the failures themselves are counted
    by :func:`check_submissions`."""
    cold_ok = [sub for sub in cold if sub.result is not None]
    rounds = [[sub.latency_ms for sub in hits if sub.result is not None]
              for hits in warm]
    return {
        "miss_mean_ms": _mean(sub.latency_ms for sub in cold_ok),
        "levelk_mean_ms": _mean(
            sub.levelk_ms for sub in cold_ok if sub.levelk is not None),
        "hit_mean_ms": _median(_mean(hits) for hits in rounds),
        "hit_p90_ms": _median(percentile(hits, 0.9) for hits in rounds),
    }


def check_stats(stats: dict, cold: int, warm: int, tally: Tally) -> None:
    tally.check(
        stats.get("computed") == cold and stats.get("store_hits") == warm
        and stats.get("errors") == 0,
        f"stats {stats}, expected computed {cold}, store hits {warm}, no errors",
    )


def check_cli(workload: str, out: Exited, tally: Tally) -> None:
    spec = WORKLOADS[workload]
    tally.check(out.code == 0 and out.stdout == golden_text(f"{workload}.stdout"),
                f"{' '.join(spec.command)}: exit {out.code} or output differs")


#: Probe calls at each point of a round where the host's speed is taken.
PROBE_CALLS = 2
#: The median time of one call of ``probe.py`` on the development host.
#: Timings are scaled by this over the run's median probe time, so they
#: read as seconds on that host at its median speed.
PROBE_REFERENCE_S = 0.032
#: End-to-end timings, all scaled by host speed. Over 25 runs of the
#: fig10 workload each tracked the run's median probe time with a
#: log-log slope of 0.77-0.97 (README.md).
SCALED = ("setup_s", "wall_s", "miss_mean_ms", "levelk_mean_ms",
          "hit_mean_ms", "hit_p90_ms")


class HostProbe:
    """The ``probe.py`` helper process and the probe times it reported."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def take(self) -> None:
        """Run the probe :data:`PROBE_CALLS` times."""
        for _ in range(PROBE_CALLS):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            self.times.append(float(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def host_scaled(raw: Dict[str, Optional[float]], names: Sequence[str],
                probes: Sequence[float]) -> Dict[str, Optional[float]]:
    """The metrics ``names`` of ``raw`` divided by the host's speed
    factor: the median of ``probes`` over :data:`PROBE_REFERENCE_S`."""
    factor = statistics.median(probes) / PROBE_REFERENCE_S
    return {name: None if raw[name] is None else raw[name] / factor
            for name in names}


def _workdir(root: Path) -> Path:
    scratch = root / ".e2ebench_tmp"
    scratch.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=scratch))


def _chunks(items: list, count: int) -> List[list]:
    """``items`` cut into ``count`` runs of nearly equal length."""
    bounds = [round(i * len(items) / count) for i in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass
class Measured:
    """What a run measured: its end-to-end metrics and its operations."""

    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    rounds: int = 0
    probes: List[float] = field(default_factory=list)
    #: The metrics before host-speed scaling.
    raw: Dict[str, Optional[float]] = field(default_factory=dict)


def measure(root: Path, workload: str, seed: int, seconds: float) -> Measured:
    """End-to-end metrics of ``workload`` from rounds that fill ``seconds``.

    One stream server, with a fresh store and journal, serves the whole
    run; its boot is the first boot sample. Each round runs
    ``repro list``, boots and shuts down a fresh server, runs the CLI
    command, and then submits either a chunk of the cold phase (the first
    :data:`COLD_ROUNDS` rounds) or :data:`WARM_SLICE` store hits. Rounds
    continue while the next one is expected to end within ``seconds``.
    Every kind of sample is thus spread over the run, and each timing is
    a median over rounds or a mean over many submissions, so a host that
    changes speed for a few seconds moves no metric by much. Around these
    steps the ``probe.py`` helper takes the host's speed, and each timing
    is scaled by the probes of the rounds that measured it
    (:func:`host_scaled`), so a host that changes speed for minutes moves
    them less."""
    spec = WORKLOADS[workload]
    env = child_env(root)
    out = Measured()
    tally = out.tally
    goldens = golden_json("service-{}x{}.json".format(*spec.grid))
    listing = golden_text("list.stdout")
    cold_jobs, warm_jobs = make_stream(job_set(*spec.grid), seed)
    cold_chunks = _chunks(cold_jobs, COLD_ROUNDS)
    warm_slices = _chunks(warm_jobs, len(warm_jobs) // WARM_SLICE)

    workdir = _workdir(root)
    host = HostProbe()
    start = time.monotonic()
    starts: List[float] = []
    boots: List[Optional[float]] = []
    walls: List[float] = []
    rss: List[float] = []
    cold: List[Submission] = []
    warm: List[List[Submission]] = []
    phase_probes: Dict[str, List[float]] = {"cold": [], "warm": []}
    try:
        try:
            server = Server(root, env, workdir / "stream")
        except (OSError, RuntimeError, ValueError) as exc:
            tally.check(False, f"stream server boot: {exc}")
            return out
        boots.append(server.setup_s)
        try:
            while True:
                began = time.monotonic()
                first_probe = len(host.times)
                phase = "cold" if out.rounds < len(cold_chunks) else "warm"
                host.take()
                lister = run_command(root, env, ["list"])
                tally.check(lister.code == 0 and lister.stdout == listing,
                            f"list exited {lister.code} or output differs")
                starts.append(lister.seconds)
                boots.append(boot_probe(root, env, workdir / f"boot{out.rounds}", tally))
                host.take()
                cli = run_command(root, env, spec.command)
                host.take()
                check_cli(workload, cli, tally)
                walls.append(cli.seconds)
                rss.append(cli.rss_mb)
                if out.rounds < len(cold_chunks):
                    cold += [submit(server, job) for job in cold_chunks[out.rounds]]
                else:
                    warm.append([submit(server, job)
                                 for job in warm_slices[out.rounds - len(cold_chunks)]])
                host.take()
                phase_probes[phase] += host.times[first_probe:]
                out.rounds += 1
                warm_rounds = out.rounds - len(cold_chunks)
                took = time.monotonic() - began
                if warm_rounds >= len(warm_slices) or (
                        warm_rounds >= MIN_WARM_ROUNDS
                        and time.monotonic() - start + took > seconds):
                    break
            stats = server.stats()
        finally:
            code = server.close()
        tally.check(code == 0, f"stream server exited {code}")
        hits = [sub for round_hits in warm for sub in round_hits]
        check_submissions(cold, "computed", tally, goldens)
        check_submissions(hits, "store", tally, goldens)
        check_stats(stats, len(cold), len(hits), tally)
        boot = _median(boots)
        out.raw = {
            "setup_s": None if boot is None else statistics.median(starts) + boot,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
            "serve_rss_mb": server.rss_mb,
            **stream_metrics(cold, warm),
        }
        out.metrics = {
            **out.raw,
            **host_scaled(out.raw, ("setup_s", "wall_s"), host.times),
            **host_scaled(out.raw, ("miss_mean_ms", "levelk_mean_ms"),
                          phase_probes["cold"]),
            **host_scaled(out.raw, ("hit_mean_ms", "hit_p90_ms"),
                          phase_probes["warm"]),
        }
    finally:
        host.close()
        out.probes = host.times
        shutil.rmtree(workdir, ignore_errors=True)
    return out


@dataclass
class Session:
    """One traced or untraced session of ``--trace 1``."""

    tally: Tally = field(default_factory=Tally)
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    #: CLI wall plus the cold and warm stream windows, in seconds.
    busy_s: float = 0.0


def load_spans(path: Path, tally: Tally) -> Optional[dict]:
    """A span dump, or ``None`` (a failed operation) when the traced
    process died before writing it."""
    try:
        dump = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        tally.check(False, f"span dump {path.name}: {exc}")
        return None
    tally.check(True, "")
    return dump


def run_session(root: Path, workload: str, seed: int, traced: bool) -> Session:
    """A compact session of ``workload``: a fresh server computes the
    cold phase, the CLI command runs once, then :data:`TRACE_WARM` store
    hits. With ``traced``, every program process runs under
    ``traced.py`` and the session reports the per-layer split.

    The server idles while the CLI command runs, so its spans are set
    against the cold and warm windows only, not its whole lifetime."""
    spec = WORKLOADS[workload]
    env = child_env(root)
    out = Session()
    tally = out.tally
    goldens = golden_json("service-{}x{}.json".format(*spec.grid))
    cold_jobs, warm_jobs = make_stream(job_set(*spec.grid), seed)
    warm_jobs = warm_jobs[:TRACE_WARM]
    workdir = _workdir(root)
    spans = {name: workdir / f"{name}-spans.json" if traced else None
             for name in ("cli", "serve")}
    try:
        try:
            server = Server(root, env, workdir / "stream", spans["serve"])
        except (OSError, RuntimeError, ValueError) as exc:
            tally.check(False, f"stream server boot: {exc}")
            return out
        try:
            cold = [submit(server, job) for job in cold_jobs]
            cli = run_command(root, env, spec.command, spans["cli"])
            warm = [submit(server, job) for job in warm_jobs]
            stats = server.stats()
        finally:
            code = server.close()
        tally.check(code == 0, f"stream server exited {code}")
        check_cli(workload, cli, tally)
        check_submissions(cold, "computed", tally, goldens)
        check_submissions(warm, "store", tally, goldens)
        check_stats(stats, len(cold), len(warm), tally)
        windows = [(cold[0].sent, cold[-1].done), (warm[0].sent, warm[-1].done)]
        out.busy_s = cli.seconds + sum(b - a for a, b in windows)
        if not traced:
            return out

        cli_dump = load_spans(spans["cli"], tally)
        serve_dump = load_spans(spans["serve"], tally)
        if cli_dump is None or serve_dump is None:
            return out
        ns_windows = [(int(a * 1e9), int(b * 1e9)) for a, b in windows]
        out.metrics = layer_metrics([(cli_dump, None), (serve_dump, ns_windows)])
        hits = [sub.latency_ms for sub in warm]
        server_ns = root_ns_within(serve_dump, *ns_windows[1])
        out.metrics["service.wire_ms"] = (sum(hits) - server_ns / 1e6) / len(hits)
        out.metrics["service.computed"] = stats.get("computed")
        out.metrics["service.store_hits"] = stats.get("store_hits")
        out.metrics["service.errors"] = stats.get("errors")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out
