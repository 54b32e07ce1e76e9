"""Open-loop tenants against a real ``python -m repro serve`` process.

The generator fixes the number of POSTs of each kind.  Their due times
are one fixed realization of a Poisson process conditioned on its count
(sorted uniforms over the window), and which slot carries which kind is
drawn once with it: a fixed arrival trace.  The workload seed fills the
trace with requests: row, jitter, tenant and back-reference.  The trace
is held fixed because the arrival pattern alone moved ``done_s.p50`` by
up to 50 % at the same load (admissions that arrive together contend
for the server's interpreter lock with the running job), which would
hide any change to the service.  Two sender threads POST each request at its due time;
a request is timed from its due time, so a stalled sender counts
against every request behind it, and the report states how late the
generator ran.  After the window the client reads each job row once it
is terminal; ``done_s`` comes from the row's ``finished_at``, so the
poll cadence adds no latency.

Request kinds:

* ``fresh``: a buffered Table-1 row with gain and UGF jittered by up to
  2 %, so each has a new fingerprint and a cold solve (202).  Only the
  buffered rows are used, each equally often: their solves cost about
  the same, so the queueing, not the row mix, sets the latency spread;
* ``deepen``: an earlier fresh request resubmitted with ``restarts=2``,
  answered from the same store namespace (202); the rows deepened are
  the same for every seed;
* ``duplicate``: an exact re-POST of an earlier fresh request (200,
  deduplicated, same job);
* ``infeasible``: an unbuffered mirror row asking for 1000x its UGF
  (F101) or Table-1 ``oa6``, whose area budget is below the smallest
  realizable one (F102), answered 422.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from workloads import ANNEAL_SEED

#: Load shape: POSTs per kind per 10 s of window.
COUNTS = {"fresh": 20, "deepen": 7, "duplicate": 6, "infeasible": 7}
#: Evaluation budget of a fresh job (a deepen job runs two chains).
MAX_EVALUATIONS = 20
#: Seed of the one arrival trace (times and kinds) every run replays.
ARRIVAL_SEED = 0
#: A deepen or duplicate request refers to a fresh one due this early.
REFERENCE_LAG_S = 1.5
TENANTS = 6
SENDERS = 2
#: Longest wait for the queue to drain after the window.
DRAIN_TIMEOUT_S = 45.0
INFEASIBLE_ROW = "oa6"
#: Rows whose 1000x UGF the analyzer proves unreachable (F101).
UGF_X1000_ROWS = ("oa3", "oa4", "oa5")
EXPECTED = {"fresh": 202, "deepen": 202, "duplicate": 200, "infeasible": 422}


@dataclass
class Post:
    index: int
    kind: str
    due: float
    payload: dict
    ref: int | None = None
    row: str = ""
    sent: float = math.nan
    answered: float = math.nan
    status: int = 0
    body: dict = field(default_factory=dict)
    error: str = ""

    @property
    def key(self) -> str:
        return f"{self.index:02d}/{self.kind}/{self.payload['name']}"


def _payload(row, gain_scale: float, ugf_scale: float, name: str,
             tenant: str, restarts: int = 1) -> dict:
    return {
        "spec": {
            "gain": row.gain * gain_scale,
            "ugf": row.ugf * ugf_scale,
            "area": row.area,
            "ibias": row.ibias,
            "cl": row.cl,
        },
        "topology": {
            "current_source": row.curr_src,
            "output_buffer": row.buffer,
            "z_load": row.z_load if math.isfinite(row.z_load) else "inf",
        },
        "max_evaluations": MAX_EVALUATIONS,
        "seed": ANNEAL_SEED,
        "restarts": restarts,
        "name": name,
        "tenant": tenant,
    }


def counts_for(window_s: float) -> dict[str, int]:
    """POSTs per kind for a window (the rate stays fixed)."""
    return {
        kind: max(1, round(n * window_s / 10.0)) for kind, n in COUNTS.items()
    }


def build_schedule(seed: int, window_s: float) -> list[Post]:
    """The seeded POST schedule (same seed and window, same schedule)."""
    from paper_tables import TABLE1

    rng = random.Random(seed)
    buffered = [row for row in TABLE1 if row.buffer]
    unbuffered = {row.name: row for row in TABLE1 if not row.buffer}
    remaining = counts_for(window_s)
    fresh_rows = [
        buffered[i % len(buffered)] for i in range(remaining["fresh"])
    ]
    rng.shuffle(fresh_rows)
    deepen_rows = [
        buffered[i % len(buffered)].name for i in range(remaining["deepen"])
    ]
    rng.shuffle(deepen_rows)
    trace = random.Random(ARRIVAL_SEED)
    total = sum(remaining.values())
    dues = sorted(trace.uniform(0.0, window_s) for _ in range(total))
    posts: list[Post] = []
    referenced: dict[str, set[int]] = {"deepen": set(), "duplicate": set()}
    for index, due in enumerate(dues):
        eligible = [
            p.index for p in posts
            if p.kind == "fresh" and p.due <= due - REFERENCE_LAG_S
        ]
        kinds = [
            kind for kind, left in remaining.items()
            if left and (
                kind not in referenced
                or set(eligible) - referenced[kind]
            )
        ]
        if not kinds:
            raise RuntimeError(f"schedule cannot place {remaining} at {due}")
        kind = trace.choices(kinds, weights=[remaining[k] for k in kinds])[0]
        remaining[kind] -= 1
        tenant = f"tenant{rng.randrange(TENANTS)}"
        if kind == "fresh":
            row = fresh_rows.pop()
            payload = _payload(
                row, rng.uniform(0.98, 1.02), rng.uniform(0.98, 1.02),
                f"{row.name}-{index}", tenant,
            )
            posts.append(Post(index, kind, due, payload, row=row.name))
        elif kind == "infeasible":
            if rng.random() < 0.5:
                row = unbuffered[rng.choice(UGF_X1000_ROWS)]
                payload = _payload(
                    row, 1.0, 1000.0 * rng.uniform(0.95, 1.05),
                    f"{row.name}-ugf-x1000-{index}", tenant,
                )
            else:
                row = unbuffered[INFEASIBLE_ROW]
                payload = _payload(
                    row, rng.uniform(0.95, 1.05), rng.uniform(0.95, 1.05),
                    f"{row.name}-{index}", tenant,
                )
            posts.append(Post(index, kind, due, payload))
        else:
            candidates = sorted(set(eligible) - referenced[kind])
            if kind == "deepen":
                for wanted in deepen_rows:
                    matching = [i for i in candidates
                                if posts[i].row == wanted]
                    if matching:
                        deepen_rows.remove(wanted)
                        candidates = matching
                        break
            ref = rng.choice(candidates)
            referenced[kind].add(ref)
            payload = dict(posts[ref].payload)
            if kind == "deepen":
                payload["restarts"] = payload["restarts"] + 1
            posts.append(Post(index, kind, due, payload, ref=ref))
    return posts


# ------------------------------------------------------------------ HTTP


def call(url: str, method: str, path: str, body: dict | None = None,
         timeout: float = 30.0) -> tuple[int, dict]:
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


@dataclass
class Service:
    proc: subprocess.Popen
    url: str
    setup_seconds: float
    stderr_path: Path


def spawn(root: Path, data_dir: Path, *, trace_out: Path | None = None,
          timeout: float = 60.0) -> Service:
    """Start the service; return once ``/healthz`` answers 200."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    serve = ["serve", "--port", "0", "--data-dir", str(data_dir)]
    if trace_out is None:
        argv = [sys.executable, "-m", "repro", *serve]
    else:
        launcher = Path(__file__).resolve().parent / "serve_traced.py"
        argv = [sys.executable, str(launcher), str(trace_out), *serve]
    stderr_path = data_dir.with_suffix(".stderr")
    start = time.perf_counter()
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=stderr, text=True,
            env=env, cwd=root,
        )
    try:
        line = proc.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        url = line.strip().split()[-1]
        while True:
            try:
                status, _ = call(url, "GET", "/healthz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                break
            if time.perf_counter() - start > timeout:
                raise RuntimeError("service /healthz never answered 200")
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return Service(proc, url, time.perf_counter() - start, stderr_path)


def stop(service: Service, timeout: float = 60.0) -> int:
    """SIGTERM drain; returns the exit code (kills on timeout)."""
    proc = service.proc
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return -9
    return proc.returncode


# ---------------------------------------------------------------- window


@dataclass
class Window:
    posts: list[Post]
    jobs: dict[str, dict]
    stats: dict
    start_wall: float
    failures: list[str]
    service_pid: int = 0


def drive(service: Service, posts: list[Post]) -> Window:
    """Send every POST on schedule, then collect the terminal job rows."""
    lock = threading.Lock()
    pending = iter(posts)
    start = time.perf_counter()
    start_wall = time.time()

    def sender() -> None:
        while True:
            with lock:
                post = next(pending, None)
            if post is None:
                return
            delay = start + post.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            post.sent = time.perf_counter() - start
            try:
                post.status, post.body = call(
                    service.url, "POST", "/jobs", post.payload)
            except (OSError, ValueError) as exc:
                post.error = f"{type(exc).__name__}: {exc}"
            post.answered = time.perf_counter() - start

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    failures = []
    job_ids = {
        post.body["job"]["id"] for post in posts
        if post.status in (200, 202) and "job" in post.body
    }
    jobs: dict[str, dict] = {}
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while job_ids - set(jobs) and time.perf_counter() < deadline:
        for job_id in sorted(job_ids - set(jobs)):
            try:
                status, body = call(service.url, "GET", f"/jobs/{job_id}")
            except (OSError, ValueError) as exc:
                failures.append(f"GET /jobs/{job_id}: {exc}")
                jobs[job_id] = {}
                continue
            job = body.get("job", {})
            if status != 200:
                failures.append(f"GET /jobs/{job_id}: HTTP {status}")
                jobs[job_id] = {}
            elif job.get("state") in ("done", "failed", "quarantined"):
                jobs[job_id] = job
        if job_ids - set(jobs):
            time.sleep(0.2)
    for job_id in sorted(job_ids - set(jobs)):
        failures.append(f"job {job_id}: not finished after the window")
    try:
        _, stats = call(service.url, "GET", "/stats")
    except (OSError, ValueError) as exc:
        failures.append(f"GET /stats: {exc}")
        stats = {}
    return Window(posts, jobs, stats, start_wall, failures,
                  service.proc.pid)


def signature(result: dict) -> str:
    params = ",".join(
        f"{name}={value!r}"
        for name, value in sorted((result.get("params") or {}).items())
    )
    return f"{result.get('best_cost')!r}|{params}|{result.get('meets_spec')}"


def check(window: Window) -> tuple[list[str], dict[str, str]]:
    """Failed-operation messages and the per-request result signatures."""
    failures = list(window.failures)
    signatures: dict[str, str] = {}
    posts = window.posts
    for post in posts:
        if post.error:
            failures.append(f"{post.key}: {post.error}")
            continue
        if post.status != EXPECTED[post.kind]:
            failures.append(
                f"{post.key}: HTTP {post.status}, expected "
                f"{EXPECTED[post.kind]} ({post.body.get('kind', '')})"
            )
            continue
        if post.kind == "infeasible":
            codes = set(post.body.get("error_codes", ()))
            if not codes & {"F101", "F102"}:
                failures.append(f"{post.key}: 422 without F101/F102")
            signatures[post.key] = "422:" + ",".join(sorted(codes))
            continue
        job_id = post.body["job"]["id"]
        job = window.jobs.get(job_id, {})
        if post.kind == "duplicate":
            original = posts[post.ref].body.get("job", {}).get("id")
            if not post.body.get("deduplicated") or job_id != original:
                failures.append(f"{post.key}: not deduplicated onto {original}")
                continue
            answered = post.body["job"].get("result")
            final = job.get("result") or {}
            if answered is not None and signature(answered) != signature(final):
                failures.append(f"{post.key}: result differs from original")
            signatures[post.key] = "dup:" + job_id
            continue
        result = job.get("result")
        if job.get("state") != "done" or result is None:
            failures.append(f"{post.key}: job ended {job.get('state')}")
            continue
        if not math.isfinite(float(result.get("best_cost", math.nan))):
            failures.append(f"{post.key}: non-finite best_cost")
        signatures[post.key] = signature(result)
    return failures, signatures


def run_window(root: Path, work: Path, seed: int, window_s: float, *,
               trace_out: Path | None = None,
               setup_spawns: int = 1) -> tuple[Window, list[float]]:
    """Spawn ``setup_spawns`` services (timing each), drive the last."""
    setups = []
    for index in range(setup_spawns):
        data_dir = work / f"service-{index}"
        last = index == setup_spawns - 1
        service = spawn(root, data_dir, trace_out=trace_out if last else None)
        setups.append(service.setup_seconds)
        if not last:
            stop(service)
    posts = build_schedule(seed, window_s)
    try:
        window = drive(service, posts)
    finally:
        code = stop(service)
    if code != 0:
        window.failures.append(f"service exit code {code} after SIGTERM")
        window.failures.append(service.stderr_path.read_text()[-2000:])
    return window, setups
