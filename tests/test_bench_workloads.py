"""Each bench workload runs one job in-process, as the bench runs it.

``perfbench/run.py`` imports ``rgc`` by name at run time, so a renamed
function it calls would otherwise only show up as a failed bench run.  Each
workload here is built from ``perfbench/workloads.py`` (loaded from its path,
without writing bytecode next to it) and runs one job the way the bench's
``run_job`` does, with the server's ``handle_envelope`` in place of the
socket, then passes the workload's own check and takes the bench's
after-job bookkeeping.
"""

import importlib.util
import pathlib
import sys

import pytest

from rgc import delegation, netio
from rgc.util import derive_rng, rand_bytes

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


NAMES = ["modexp21", "random5", "blind3"]


def test_every_workload_is_run_here(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_one_checked_job(workloads, name):
    wl = workloads.WORKLOADS[name](1)
    wl.build()
    rng = derive_rng(1, f"{name}/smoke")
    keys = delegation.keygen(workloads.ETA, wl.n_quantum, wl.circuit, rng)
    params = delegation.make_params(keys.kappa_bits, oracle_seed=rand_bytes(rng, 16))
    job = delegation.encrypt(params, keys, wl.circuit, wl.input_state, rng)
    kind, payload = netio.unframe(netio.handle_envelope(
        netio.frame(netio.KIND_JOB, netio.serialize_job(job, params))))
    assert kind == netio.KIND_RESULT, payload
    out, stats = netio.deserialize_result(payload)
    result = wl.finish(delegation.decrypt(keys, wl.circuit, out), rng)
    assert wl.check(result) is None
    # the bench's bookkeeping after the job: its signature's term count,
    # result bytes and client oracle queries
    assert job.encoded_state.num_terms() == wl.input_state.num_terms()
    assert len(netio.serialize_result(out, stats)) == len(payload)
    assert params.oracles.query_count() > 0
