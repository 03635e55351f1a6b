"""Delegation benchmark: a client process and a loopback ``rgc serve`` child.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload modexp21 --seed 1 --seconds 50 --trace 0

The benchmark process is the client.  Per job it runs keygen,
``delegation.encrypt``, ``netio.submit`` to a server child on 127.0.0.1,
``delegation.decrypt`` and the workload's finishing step, then checks the
result against ``circuit.simulate``.  Load is a closed loop: one client, one
connection at a time, the next job only after the previous one is decoded.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``,
with the times at a reference host speed (see ``calibrate.py``).
``--trace 1`` reports the per-layer metrics: it runs half the time untraced,
then the same jobs again with every ``rgc`` layer wrapped in both processes
(see ``tracer.py``), and reports the tracing overhead as well.  The last
stdout line is the JSON result; the line before it holds the run's details
(job count, tail percentile, raw times, calibration, failures, host
context).

Counts that a seed fixes (job envelope hash and bytes, EvalStats, oracle
queries, circuit shape) must repeat exactly: the traced and untraced halves of
a ``--trace 1`` run are compared job by job, and every run compares with the
earlier runs of the same seed and source tree recorded under ``.perfbench/``.
Traces are written to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

HOST = "127.0.0.1"
SETUP_REPEATS = 3        # build + server start are timed this many times per run
LISTEN_TIMEOUT_S = 30    # wait for the server's "serving on" line
STOP_TIMEOUT_S = 10
JOB_TIMEOUT_S = 60       # per-job socket timeout
RUN_LIMIT_S = 150        # no job starts, or waits on the server, past this point of the run
TAIL_BEYOND = 10         # job_tail_s: highest percentile with this many jobs beyond it


def _load_rgc() -> None:
    if not (SRC / "rgc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rgc package under {SRC}")
    sys.path.insert(0, str(SRC))


_load_rgc()

import numpy  # noqa: E402

from rgc import delegation, netio  # noqa: E402
from rgc.util import derive_rng, rand_bytes  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from serve import TRACE_PREFIX  # noqa: E402
from tracer import Tracer, job_id  # noqa: E402
from workloads import WORKLOADS, ETA, WrongOutput  # noqa: E402
import layers  # noqa: E402

# Bookkeeping after a job re-serializes it with these; they are bound before
# any tracer wraps the module functions, so bookkeeping never shows in a trace.
_frame, _serialize_job, _serialize_result = (
    netio.frame, netio.serialize_job, netio.serialize_result)

RUN_START = time.monotonic()


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """``perfbench/serve.py`` as a child; stopped by closing its stdin."""

    def __init__(self, traced: bool = False):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # -u: `rgc serve` prints its port with a plain print, which a pipe
        # would otherwise hold in the child's buffer.
        cmd = [sys.executable, "-u", str(HERE / "serve.py")] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=env)
        self._rest = b""
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + LISTEN_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise ServerError(f"no listening line within {LISTEN_TIMEOUT_S} s")
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise ServerError(f"server exited before listening ({self.proc.wait()})")
                buf += chunk
        line, _, self._rest = buf.partition(b"\n")
        match = re.search(rb"serving on [0-9.]+:(\d+)", line)
        if match is None:
            raise ServerError(f"unexpected first line {line!r}")
        return int(match.group(1))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ServerError("no VmHWM in the server's status")

    def stop(self) -> bytes:
        """Stop the child and wait for it; returns the rest of its stdout."""
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return self._rest + (out or b"")


@dataclasses.dataclass
class JobResult:
    ok: bool
    job_s: float = 0.0
    client_s: float = 0.0
    sig: dict | None = None
    envelope_id: str | None = None
    error: str | None = None


def run_job(wl, label: str, seed: int, port: int, tracer: Tracer | None = None) -> JobResult:
    """One delegated job, timed from keygen to the finished client result."""
    rng = derive_rng(seed, f"{wl.name}/{label}")
    timeout = max(1.0, min(JOB_TIMEOUT_S, RUN_LIMIT_S - (time.monotonic() - RUN_START)))
    if tracer is not None:
        tracer.job = label
        tracer.envelope_id = None
    try:
        t0 = time.perf_counter()
        keys = delegation.keygen(ETA, wl.n_quantum, wl.circuit, rng)
        params = delegation.make_params(keys.kappa_bits, oracle_seed=rand_bytes(rng, 16))
        job = delegation.encrypt(params, keys, wl.circuit, wl.input_state, rng)
        t1 = time.perf_counter()
        out, stats = netio.submit(HOST, port, job, params, timeout=timeout)
        t2 = time.perf_counter()
        decoded = delegation.decrypt(keys, wl.circuit, out)
        result = wl.finish(decoded, rng)
        t3 = time.perf_counter()
        problem = wl.check(result)
    except WrongOutput as exc:
        return JobResult(False, error=f"{label}: wrong output: {exc}")
    except Exception as exc:        # the loop records the failure and goes on
        traceback.print_exc(file=sys.stderr)
        return JobResult(False, error=f"{label}: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.job = None
    if problem is not None:
        return JobResult(False, error=f"{label}: wrong output: {problem}")

    envelope = _frame(netio.KIND_JOB, _serialize_job(job, params))
    sig = {
        "job_id": job_id(envelope),
        "upload_bytes": len(envelope),
        "download_bytes": len(_frame(netio.KIND_RESULT, _serialize_result(out, stats))),
        "client_queries": params.oracles.query_count(),
        "terms": job.encoded_state.num_terms(),
        "eval": dataclasses.asdict(stats),
    }
    envelope_id = None
    if tracer is not None:
        envelope_id = tracer.envelope_id
        tracer.relabel(label, envelope_id or label)
    return JobResult(True, t3 - t0, (t1 - t0) + (t3 - t2), sig, envelope_id)


def measure(wl, seed: int, port: int, seconds: float | None = None, count: int | None = None,
            tracer: Tracer | None = None, cal: Calibrator | None = None) -> list[JobResult]:
    """Closed loop: jobs job0, job1, ... until `seconds` have passed (at least
    one job), or exactly `count` jobs.  With `cal`, the calibration kernel
    keeps its share of the time between jobs."""
    results: list[JobResult] = []
    start = time.monotonic()
    while True:
        if count is not None and len(results) >= count:
            break
        if count is None and results and time.monotonic() - start >= seconds:
            break
        if time.monotonic() - RUN_START > RUN_LIMIT_S:
            break
        results.append(run_job(wl, f"job{len(results)}", seed, port, tracer))
        if cal is not None:
            cal.keep_up()
    return results


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs
    beyond it; the median when that percentile would lie below the median."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_digest() -> str:
    h = hashlib.blake2b(digest_size=6)
    for path in sorted((SRC / "rgc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reconcile_counts(name: str, seed: int, run_counts: dict, jobs: dict[str, dict]) -> list[str]:
    """Compare this run's exact counts with earlier runs of the same seed and
    source tree, then record the union.  Returns the mismatches."""
    path = OUT / "counts" / f"{name}-seed{seed}-{source_digest()}.json"
    old = json.loads(path.read_text()) if path.exists() else {"run": run_counts, "jobs": {}}
    problems = []
    if old["run"] != run_counts:
        problems.append(f"run counts differ from an earlier run: {old['run']} vs {run_counts}")
    for label, sig in jobs.items():
        prev = old["jobs"].get(label)
        if prev is None:
            old["jobs"][label] = sig
            continue
        for key in prev.keys() & sig.keys():
            if prev[key] != sig[key]:
                problems.append(f"{label}.{key} differs from an earlier run: "
                                f"{prev[key]} vs {sig[key]}")
        prev.update(sig)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(old, sort_keys=True))
    os.replace(tmp, path)
    return problems


def context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "transport": f"TCP over loopback ({HOST}) only",
        "load": "closed loop, 1 client, 1 connection at a time",
    }


def run_counts(wl) -> dict:
    return {**wl.circuit_counts(), "encoding.kappa_bits": delegation.required_kappa(ETA, wl.n_quantum)}


def _median(values: list[float]) -> float:
    # 0 only when every job failed, and then the run is not correct anyway.
    return statistics.median(values) if values else 0.0


def run_plain(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    preps, failures = [], []
    server = None
    cal = Calibrator()
    try:
        # Build and server start are repeated for a median; the one warm-up
        # job of the run is timed once, on the server that is kept.
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            wl = WORKLOADS[name](seed)
            wl.build()
            server = ServerProcess()
            preps.append(time.perf_counter() - t0)
        warm = run_job(wl, "warmup", seed, server.port)
        setup_s = statistics.median(preps) + warm.job_s
        if not warm.ok:
            failures.append(warm.error)
        cal.keep_up()
        results = measure(wl, seed, server.port, seconds=seconds, cal=cal)
        server_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    good = [r for r in results if r.ok]
    failures += [r.error for r in results if not r.ok]
    jobs = {f"job{i}": r.sig for i, r in enumerate(results) if r.ok}
    if warm.ok:
        jobs["warmup"] = warm.sig
    failures += reconcile_counts(name, seed, run_counts(wl), jobs)
    job_times = [r.job_s for r in good] or [0.0]
    tail_s, tail_pct = tail(job_times)
    raw = {
        "setup_s": setup_s,
        "job_s": statistics.median(job_times),
        "job_tail_s": tail_s,
        # A cost per job, so the run's total over its job count.  Per-job
        # client times fall in two host speed modes about 1.6x apart, roughly
        # half the jobs in each, so a median jumps between the modes from run
        # to run however long the run is; the mean does not.
        "client_s": statistics.fmean([r.client_s for r in good]) if good else 0.0,
    }
    speed = cal.factor()        # times at the reference host speed, see calibrate.py
    metrics = {
        **{name: (value * speed, "s") for name, value in raw.items()},
        "upload_bytes": (_median([r.sig["upload_bytes"] for r in good]), "bytes"),
        "download_bytes": (_median([r.sig["download_bytes"] for r in good]), "bytes"),
        "client_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "server_rss_mb": (server_rss, "MB"),
        "verified_ratio": (len(good) / len(results), "ratio"),
    }
    details = {"jobs": len(results), "verified": len(good), "job_tail_percentile": tail_pct,
               "raw_s": raw, "calibration": cal.summary(),
               "setup_prep_s_samples": preps, "warmup_job_s": warm.job_s, "job_s_samples": [r.job_s for r in good],
               "client_s_samples": [r.client_s for r in good]}
    return _result(metrics, len(results), len(results) - len(good), failures, details)


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    failures: list[str] = []
    wl = WORKLOADS[name](seed)
    build_s, simulate_s = wl.build()

    server = ServerProcess()
    try:
        warm = run_job(wl, "warmup", seed, server.port)
        plain = measure(wl, seed, server.port, seconds=seconds / 2)
    finally:
        server.stop()

    tracer = Tracer()
    server = ServerProcess(traced=True)
    try:
        traced_warm = run_job(wl, "warmup", seed, server.port)
        tracer.install()
        try:
            traced = measure(wl, seed, server.port, count=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        server_out = server.stop()
    server_trace = _server_trace(server_out)

    for r in [warm, traced_warm] + plain + traced:
        if not r.ok:
            failures.append(r.error)
    jobs = {}
    counts = run_counts(wl)
    per_job: list[dict] = []
    client_trace = tracer.export()
    for i, (a, b) in enumerate(zip(plain, traced)):
        if not (a.ok and b.ok):
            continue
        if a.sig != b.sig:
            failures.append(f"job{i}: traced counts differ from untraced: {a.sig} vs {b.sig}")
        if b.envelope_id != b.sig["job_id"]:
            failures.append(f"job{i}: traced envelope id {b.envelope_id} != {b.sig['job_id']}")
        trace = layers.JobTrace(b.envelope_id, client_trace, server_trace)
        extra = {
            "triple_enc_calls": trace.agg("symcrypt.triple_enc")[0],
            "server_queries": trace.counters.get("server.oracle_queries", 0),
        }
        for side_key, sig_key in (("client.frame_job_bytes", "upload_bytes"),
                                  ("server.unframe_bytes", "upload_bytes"),
                                  ("server.frame_result_bytes", "download_bytes"),
                                  ("client.unframe_bytes", "download_bytes")):
            if trace.counters.get(side_key) != b.sig[sig_key]:
                failures.append(f"job{i}: traced {side_key} {trace.counters.get(side_key)} "
                                f"!= {sig_key} {b.sig[sig_key]}")
        jobs[f"job{i}"] = {**b.sig, **extra}
        per_job.append(layers.job_layers(trace, b.sig, counts["circuit.toffoli_gates"]))
    if warm.ok:
        jobs["warmup"] = warm.sig
    failures += reconcile_counts(name, seed, counts, jobs)

    metrics: dict[str, tuple[float, str]] = {k: (v, _unit(k)) for k, v in counts.items()}
    metrics["circuit.build_s"] = (build_s, "s")
    metrics["circuit.simulate_s"] = (simulate_s, "s")
    for key in (per_job[0] if per_job else {}):
        metrics[key] = (statistics.median(job[key] for job in per_job), _unit(key))
    plain_s = _median([r.job_s for r in plain if r.ok])
    traced_s = _median([r.job_s for r in traced if r.ok])
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")

    _write_trace(name, seed, {"context": context(), "jobs": [r.envelope_id for r in traced],
                              "client": client_trace, "server": server_trace})
    attempted = len(plain) + len(traced)
    details = {"jobs_untraced": len(plain), "jobs_traced": len(traced),
               "untraced_job_s": plain_s, "traced_job_s": traced_s}
    return _result(metrics, attempted, sum(not r.ok for r in plain + traced), failures, details)


def _server_trace(out: bytes) -> dict:
    for line in out.decode(errors="replace").splitlines():
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    raise ServerError("traced server printed no trace")


def _write_trace(name: str, seed: int, trace: dict) -> None:
    path = OUT / "traces" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace))


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def _result(metrics, attempted, failed, failures, details):
    report = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return report, {**details, "failures": failures, "context": context()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds through the finally blocks that stop the server child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = run_traced if args.trace else run_plain
    report, details = run(args.workload, args.seed, args.seconds)
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
