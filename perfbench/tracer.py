"""Span tracer that wraps public ``rgc`` functions from outside the package.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces the
listed module functions (in every ``rgc.*`` namespace that imported them) with
timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.

Two kinds of record, both kept in memory until :meth:`Tracer.export`:

- a *span* per call of a coarse, once-per-job step (keygen, garble,
  serialize, evaluate, ...): name, start, end, parent span, pid, job id and
  self time;
- an *aggregate* per (job, parent, function) for per-gate and finer calls
  (table garbling, row checks, oracle queries): call count, total time and
  time spent in wrapped children.  A job therefore records a few dozen
  entries, not one per gate or per oracle query.

Self time is derived from nesting: every call adds its duration to the
innermost wrapped call around it, so a function nested in another wrapped
function is never counted twice.

The job id is the first 8 bytes (hex) of BLAKE2b over the job envelope.  The
client learns it when ``netio.frame`` builds the job envelope, the server when
``netio.handle_envelope`` receives it, so both processes label their records
alike.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import sys
import threading
import time
import weakref

SPAN = "span"
AGG = "agg"

# (module, function, kind), in call order of one delegated job.
TARGETS = (
    ("delegation", "keygen", SPAN),
    ("encoding", "gen_keys", SPAN),
    ("delegation", "encrypt", SPAN),
    ("encoding", "encode", SPAN),
    ("garble", "garble_circuit", SPAN),
    ("garble", "garble_toffoli", AGG),
    ("garble", "garble_phase", AGG),
    ("symcrypt", "triple_enc", AGG),
    ("symcrypt", "kdm_enc", AGG),
    ("netio", "submit", SPAN),
    ("netio", "serialize_job", SPAN),
    ("netio", "frame", SPAN),
    ("netio", "handle_envelope", SPAN),
    ("netio", "unframe", SPAN),
    ("netio", "evaluate_job_payload", SPAN),
    ("netio", "deserialize_job", SPAN),
    ("evaluate", "eval_bundle", SPAN),
    ("evaluate", "eval_toffoli", AGG),
    ("evaluate", "eval_toffoli_term", AGG),
    ("evaluate", "eval_phase", AGG),
    ("symcrypt", "kdm_ver", AGG),
    ("symcrypt", "triple_dec", AGG),
    ("symcrypt", "kdm_dec", AGG),
    ("netio", "serialize_result", SPAN),
    ("netio", "deserialize_result", SPAN),
    ("delegation", "decrypt", SPAN),
    ("encoding", "decode", SPAN),
    ("sparse", "qft", SPAN),
)

# The oracle's query callables are per-instance attributes, so they are
# wrapped as the family hands each oracle out.
ORACLE_QUERY = "oracle.query"


def job_id(envelope: bytes) -> str:
    return hashlib.blake2b(envelope, digest_size=8).hexdigest()


class _Local(threading.local):
    def __init__(self):
        self.stack: list[list] = []     # frames, see the wrappers below
        self.job: str | None = None


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.aggs: dict[tuple, list[int]] = {}      # (job, parent, name) -> [calls, ns, child_ns]
        self.counters: dict[tuple, int] = {}        # (job, name) -> value
        self._local = _Local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._oracles: weakref.WeakSet = weakref.WeakSet()
        self.envelope_id: str | None = None     # id of the client's latest job envelope
        self._hooks = {
            "netio.frame": (None, self._after_frame),
            "netio.unframe": (self._before_unframe, None),
            "netio.handle_envelope": (self._before_handle, None),
            "evaluate.eval_bundle": (None, self._after_eval_bundle),
        }

    # -- job labelling --------------------------------------------------------

    @property
    def job(self) -> str | None:
        return self._local.job

    @job.setter
    def job(self, value: str | None) -> None:
        self._local.job = value

    def _count(self, name: str, value: int) -> None:
        key = (self._local.job, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def _after_frame(self, args, result):
        from rgc import netio
        if args[0] == netio.KIND_JOB:
            self._count("frame_job_bytes", len(result))
            self.envelope_id = job_id(result)
        else:
            self._count("frame_result_bytes", len(result))

    def _before_unframe(self, args):
        self._count("unframe_bytes", len(args[0]))

    def _before_handle(self, args):
        self._local.job = job_id(args[0])

    def _after_eval_bundle(self, args, result):
        self._count("oracle_queries", args[0].oracles.query_count())

    def relabel(self, old: str, new: str) -> None:
        """Give a finished client job its envelope id."""
        for span in self.spans:
            if span["job"] == old:
                span["job"] = new
        for table in (self.aggs, self.counters):
            for key in [k for k in table if k[0] == old]:
                table[(new,) + key[1:]] = table.pop(key)

    # -- wrappers -------------------------------------------------------------
    #
    # A frame is [name, child_ns, span_id or None, oracle_calls, oracle_ns].
    # Oracle queries are the hottest calls, so they only bump the counters of
    # the frame around them; the frame adds them to `aggs` when it closes.

    def _add(self, job, parent, name, calls, ns, child_ns) -> None:
        rec = self.aggs.get((job, parent, name))
        if rec is None:
            self.aggs[(job, parent, name)] = [calls, ns, child_ns]
        else:
            rec[0] += calls
            rec[1] += ns
            rec[2] += child_ns

    def _span_wrapper(self, name, fn):
        local, spans, ids, clock, pid = self._local, self.spans, self._ids, time.perf_counter_ns, self.pid
        add = self._add
        before, after = self._hooks.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack = local.stack
            parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            frame = [name, 0, next(ids), 0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                if frame[3]:
                    add(local.job, name, ORACLE_QUERY, frame[3], frame[4], 0)
                spans.append({"id": frame[2], "name": name, "start": start, "end": end,
                              "parent": parent, "pid": pid, "job": local.job,
                              "self": end - start - frame[1]})
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _agg_wrapper(self, name, fn):
        local, aggs, clock, add = self._local, self.aggs, time.perf_counter_ns, self._add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            frame = [name, 0, None, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                job = local.job
                parent = None
                if stack:
                    top = stack[-1]
                    top[1] += dur
                    parent = top[0]
                if frame[3]:
                    add(job, name, ORACLE_QUERY, frame[3], frame[4], 0)
                rec = aggs.get((job, parent, name))
                if rec is None:
                    aggs[(job, parent, name)] = [1, dur, frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += frame[1]
        return wrapper

    def _oracle_wrapper(self, query):
        local, clock, add = self._local, time.perf_counter_ns, self._add

        @functools.wraps(query)
        def wrapper(data):
            start = clock()
            try:
                return query(data)
            finally:
                dur = clock() - start
                stack = local.stack
                if stack:
                    top = stack[-1]
                    top[1] += dur
                    top[3] += 1
                    top[4] += dur
                else:
                    add(local.job, None, ORACLE_QUERY, 1, dur, 0)
        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        import importlib
        from rgc.oracle import OracleFamily

        modules = [m for n, m in sys.modules.items() if n == "rgc" or n.startswith("rgc.")]
        for mod_name, fn_name, kind in TARGETS:
            orig = getattr(importlib.import_module(f"rgc.{mod_name}"), fn_name)
            make = self._span_wrapper if kind == SPAN else self._agg_wrapper
            wrapped = make(f"{mod_name}.{fn_name}", orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._patched.append((module, attr, orig))
                        setattr(module, attr, wrapped)

        orig_for_len = OracleFamily.for_len
        oracles, wrap = self._oracles, self._oracle_wrapper

        @functools.wraps(orig_for_len)
        def for_len(family, output_len_bits):
            oracle = orig_for_len(family, output_len_bits)
            if oracle not in oracles:
                oracle.query = wrap(oracle.query)
                oracles.add(oracle)
            return oracle

        self._patched.append((OracleFamily, "for_len", orig_for_len))
        OracleFamily.for_len = for_len

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def export(self) -> dict:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "aggs": [[job, parent, name, *rec] for (job, parent, name), rec in self.aggs.items()],
            "counters": [[job, name, value] for (job, name), value in self.counters.items()],
        }
