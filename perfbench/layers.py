"""Per-layer metrics of one traced job, derived from the client's and the
server's trace exports.

Each metric names the end-to-end figure it should move, and on which
workload, in ``perfbench/README.md``.  Times are seconds of one job unless the
name says otherwise; spans and aggregates of both processes are matched by
job id.
"""

from __future__ import annotations


class JobTrace:
    def __init__(self, job: str, client: dict, server: dict):
        self.spans = [s for e in (client, server) for s in e["spans"] if s["job"] == job]
        self.client_aggs = [a for a in client["aggs"] if a[0] == job]
        self.server_aggs = [a for a in server["aggs"] if a[0] == job]
        self.counters = {}
        for side, export in (("client", client), ("server", server)):
            for cjob, name, value in export["counters"]:
                if cjob == job:
                    self.counters[f"{side}.{name}"] = value

    def span_s(self, name: str, field: str = "total") -> float:
        ns = sum(s["end"] - s["start"] if field == "total" else s["self"]
                 for s in self.spans if s["name"] == name)
        return ns / 1e9

    def agg(self, name: str, parent=None, side: str = "both"):
        """(calls, total s, child s) of an aggregated function, optionally
        restricted to one parent or to one process."""
        aggs = {"client": self.client_aggs, "server": self.server_aggs,
                "both": self.client_aggs + self.server_aggs}[side]
        calls = total = child = 0
        for _, agg_parent, agg_name, n, ns, child_ns in aggs:
            if agg_name != name or (parent is not None and agg_parent != parent):
                continue
            calls += n
            total += ns
            child += child_ns
        return calls, total / 1e9, child / 1e9


def job_layers(trace: JobTrace, sig: dict, toffoli_gates: int) -> dict[str, float]:
    """Per-layer metrics of one traced job; ``sig`` is the job's count
    signature (EvalStats, encoded terms, client oracle queries)."""
    stats, terms = sig["eval"], sig["terms"]
    garble_toffoli = trace.agg("garble.garble_toffoli")
    garble_phase = trace.agg("garble.garble_phase")
    triple_enc = trace.agg("symcrypt.triple_enc")
    ver = trace.agg("symcrypt.kdm_ver")    # triple_ver is one kdm_ver call
    triple_dec = trace.agg("symcrypt.triple_dec")
    kdm_dec = trace.agg("symcrypt.kdm_dec")
    eval_toffoli = trace.agg("evaluate.eval_toffoli")
    phase_ver = trace.agg("symcrypt.kdm_ver", parent="evaluate.eval_phase")
    phase_dec = trace.agg("symcrypt.kdm_dec", parent="evaluate.eval_phase")
    handle_s = trace.span_s("netio.handle_envelope")
    matched_rows = triple_dec[0] + phase_dec[0]
    return {
        "encoding.keygen_s": trace.span_s("delegation.keygen"),
        "encoding.encode_s": trace.span_s("encoding.encode"),
        "encoding.decode_s": trace.span_s("encoding.decode"),
        "garble.garble_s": trace.span_s("garble.garble_circuit"),
        "garble.toffoli_us": _per_call_us(garble_toffoli),
        "garble.phase_us": _per_call_us(garble_phase),
        "symcrypt.triple_enc_calls": triple_enc[0],
        "symcrypt.triple_enc_s": triple_enc[1],
        "symcrypt.ver_calls": ver[0],
        "symcrypt.ver_s": ver[1],
        "symcrypt.dec_s": triple_dec[1] + kdm_dec[1],
        "oracle.client_queries": sig["client_queries"],
        "oracle.server_queries": trace.counters.get("server.oracle_queries", 0),
        "oracle.query_s": trace.agg("oracle.query")[1],
        "oracle.client_query_s": trace.agg("oracle.query", side="client")[1],
        "oracle.server_query_s": trace.agg("oracle.query", side="server")[1],
        "evaluate.eval_s": trace.span_s("evaluate.eval_bundle"),
        "evaluate.term_loop_s": eval_toffoli[1] - eval_toffoli[2],
        "evaluate.crypto_s": (trace.agg("evaluate.eval_toffoli_term")[1]
                              + phase_ver[1] + phase_dec[1]),
        "evaluate.phase_s": trace.agg("evaluate.eval_phase")[1],
        "evaluate.term_steps": stats["terms_processed"],
        "evaluate.distinct_triples": stats["erasure_checks"],
        "evaluate.rows_tried": stats["rows_tried"],
        "evaluate.crypto_share": stats["erasure_checks"] / (toffoli_gates * terms),
        "evaluate.row_hit_ratio": matched_rows / stats["rows_tried"],
        "sparse.terms": terms,
        "sparse.qft_s": trace.span_s("sparse.qft"),
        "netio.serialize_job_s": trace.span_s("netio.serialize_job"),
        "netio.deserialize_job_s": trace.span_s("netio.deserialize_job"),
        "netio.frame_s": trace.span_s("netio.frame"),
        "netio.unframe_s": trace.span_s("netio.unframe"),
        "netio.result_s": (trace.span_s("netio.serialize_result")
                           + trace.span_s("netio.deserialize_result")),
        "netio.handle_s": handle_s,
        # Computed: what submit spends outside its wrapped children and
        # outside the server's handler - connect, send, receive, waiting.
        "netio.transport_s": trace.span_s("netio.submit", "self") - handle_s,
    }


def _per_call_us(agg) -> float:
    calls, total, _ = agg
    return total / calls * 1e6 if calls else 0.0
