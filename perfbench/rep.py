"""One timed repetition, run in a fresh process as one ``repro run`` or
``repro serve`` invocation is.

Usage: ``python3 perfbench/rep.py SPEC.json OUT_DIR``.  The spec names the
workload, its generated inputs and whether to trace.  The repetition writes
``result.json`` (timings, simulated totals, query latencies, per-layer
figures when traced), ``values.npz`` (the outputs the parent checks) and,
when traced, ``spans.npz``.  ``run.py`` starts this script.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer, install

#: The repetition's tracer (``None`` when untraced).
TRACER: Tracer | None = None


def _end_of_timed_work() -> None:
    """Spans recorded after this point (reading results back) are not part
    of the layers' figures."""
    if TRACER is not None and TRACER.limit is None:
        TRACER.limit = len(TRACER.start)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _flash_counters(system) -> dict:
    device = system.device
    ftl = getattr(getattr(system.store, "ssd", None), "ftl", None)
    return {"flash.pages_read": device.total_pages_read,
            "flash.pages_written": device.total_pages_written,
            "flash.blocks_erased": device.total_blocks_erased,
            "flash.ftl_gc_relocations": ftl.gc_relocations if ftl else 0}


def _engine_counts(result) -> dict:
    return {"supersteps": result.num_supersteps,
            "update_pairs": sum(s.update_pairs for s in result.supersteps)}


def run_batch(spec: dict) -> tuple[dict, dict]:
    from repro.algorithms.bfs import run_bfs
    from repro.algorithms.pagerank import run_pagerank
    from repro.engine.config import make_system
    from repro.harness import load_dataset

    w = spec["workload"]
    t0 = perf_counter()
    graph = load_dataset(w["dataset"], w["scale"], seed=spec["dataset_seed"])
    system = make_system(w["system"], w["scale"],
                         num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    t1 = perf_counter()
    if w["algorithm"] == "pagerank":
        result = run_pagerank(engine, graph.num_vertices,
                              iterations=w["iterations"])
    else:
        result = run_bfs(engine, spec["root"])
    t2 = perf_counter()
    out = {"setup_s": t1 - t0, "run_s": t2 - t1, "peak_rss_mb": _peak_rss_mb(),
           "traversed_edges": result.total_traversed_edges,
           "sim": {"elapsed_s": result.elapsed_s,
                   "flash_bytes": int(system.clock.bytes_moved("flash"))},
           "trace": [f"supersteps={result.num_supersteps}",
                     f"modes={sorted(set(result.mode_trace))}"],
           "engine_results": [_engine_counts(result)],
           "counters": _flash_counters(system)}
    # Read back only after the simulated totals are taken: this read
    # charges the simulated clock.
    _end_of_timed_work()
    return out, {"values": result.final_values()}


def run_serve_cell(spec: dict) -> tuple[dict, dict]:
    """Build a durable stack and run the job mix on it."""
    from repro.engine.config import make_system
    from repro.engine.engine import EngineRun
    from repro.harness import load_dataset
    from repro.service import TenantQuota

    w = spec["workload"]
    t0 = perf_counter()
    graph = load_dataset(w["dataset"], w["scale"], seed=spec["dataset_seed"])
    system = make_system(w["system"], w["scale"],
                         num_vertices_hint=graph.num_vertices, durable=True)
    start_s = system.clock.elapsed_s
    flash_graph = system.load_graph(graph)
    quotas = {t: TenantQuota(**spec["quota"]) for t in ("tA", "tB")}
    service = system.service_for(flash_graph, graph.num_vertices,
                                 quotas=quotas, default_root=spec["root"])
    ids = service.submit_all(spec["jobs"])
    t1 = perf_counter()

    # Round ends are observed where the service publishes its job table.
    queries = {jid: int(s.rsplit("@", 1)[1]) for jid, s in zip(ids, spec["jobs"])
               if ":neighborhood:" in s or ":path:" in s}
    completed: dict[str, int] = {}
    round_end: list[float] = []
    store = system.store
    rename = store.rename

    def observed_rename(old, new, overwrite=False):
        rename(old, new, overwrite=overwrite)
        if new == "svc:jobs":
            round_end.append(perf_counter())
            for jid in queries:
                job = service.jobs.get(jid)
                if jid not in completed and job is not None \
                        and job.state in ("done", "failed"):
                    completed[jid] = service.round - 1
    store.rename = observed_rename

    # Edges traversed come from each finished run's result.
    runs = []
    finish = EngineRun.finish

    def observed_finish(self):
        result = finish(self)
        runs.append(result)
        return result
    EngineRun.finish = observed_finish
    try:
        t2 = perf_counter()
        report = service.run()
        t3 = perf_counter()
    finally:
        EngineRun.finish = finish
    sim = {"elapsed_s": system.clock.elapsed_s - start_s,
           "flash_bytes": int(system.clock.bytes_moved("flash"))}
    counters = _flash_counters(system)
    rss = _peak_rss_mb()
    _end_of_timed_work()

    round_start = [t2] + round_end[:-1]
    latency = {jid: {"arrival": queries[jid], "done": done,
                     "ms": (round_end[done] - round_start[queries[jid]]) * 1000}
               for jid, done in completed.items()}
    jobs, values = [], {}
    for job in report.jobs:
        jobs.append({"id": job.job_id, "kind": job.spec.kind,
                     "state": job.state, "result": job.result})
        if job.state == "done" and job.spec.is_analytics:
            values[job.job_id] = np.array(store.read_array(
                job.result["values_file"], np.dtype(job.result["dtype"]), 0,
                graph.num_vertices))
    return {"setup_s": t1 - t0, "run_s": t3 - t2, "peak_rss_mb": rss,
            "traversed_edges": sum(r.total_traversed_edges for r in runs),
            "sim": sim, "trace": report.trace, "rounds": report.rounds,
            "jobs": jobs, "latency": latency, "round_start": round_start,
            "engine_results": [_engine_counts(r) for r in runs],
            "counters": counters}, values


def layer_metrics(tracer: Tracer, out: dict) -> dict:
    s = tracer.summary()
    c = tracer.counts

    def self_s(*names):
        return sum(s[n]["self_s"] for n in names if n in s)

    def durations(name):
        return s[name]["durations"] if name in s else np.empty(0)

    steps = durations("engine.step") * 1000
    engine = out["engine_results"]
    m = {
        "engine.supersteps": sum(e["supersteps"] for e in engine),
        "engine.update_pairs": sum(e["update_pairs"] for e in engine),
        "engine.step_ms_p50": np.percentile(steps, 50) if len(steps) else 0.0,
        "engine.step_ms_p95": np.percentile(steps, 95) if len(steps) else 0.0,
        "graph.write_s": self_s("graph.write"),
        "graph.gather_s": self_s("graph.gather"),
        "graph.gather_calls": c["graph.gather_calls"],
        "graph.vertex_lookup_s": self_s("graph.vertex_lookup"),
        "graph.vertex_lookup_keys": c["graph.vertex_lookup_keys"],
        "core.chunk_sort_s": self_s("core.chunk_sort"),
        "core.chunk_sort_records": c["core.chunk_sort_records"],
        "core.sort_reduce_s": self_s("core.sort_reduce"),
        "core.merge_s": self_s("core.merge"),
        "core.run_files": c["core.run_files"],
        "core.reduced_pairs": c["core.reduced_pairs"],
        "core.pool_wait_s": self_s("core.pool_wait"),
        "flash.store_read_s": self_s("flash.store_read"),
        "flash.store_write_s": self_s("flash.store_write", "flash.meta_frame"),
        "flash.store_delete_s": self_s("flash.store_delete"),
        "flash.meta_bytes": c["flash.meta_bytes"],
        "service.rounds": out.get("rounds", 0),
        "service.jobs_done": sum(j["state"] == "done" for j in out.get("jobs", [])),
        "service.point_batch_ms": 0.0,
        "service.query_wait_ms": 0.0,
        "service.journal_ms": durations("service.journal").sum() * 1000,
        "sim.elapsed_s": out["sim"]["elapsed_s"],
        "sim.flash_bytes": out["sim"]["flash_bytes"],
        **out["counters"],
    }
    batches = durations("service.point_batch") * 1000
    if len(batches):
        m["service.point_batch_ms"] = np.median(batches)
        # A query waits behind its round's supersteps: its latency minus
        # the point batch of the round it completed in.
        batch_round = np.searchsorted(out["round_start"],
                                      s["service.point_batch"]["starts"],
                                      side="right") - 1
        per_round = dict(zip(batch_round.tolist(), batches.tolist()))
        m["service.query_wait_ms"] = np.median(
            [q["ms"] - per_round.get(q["done"], 0.0)
             for q in out["latency"].values()])
    return {k: float(v) for k, v in m.items()}


def main(argv: list[str]) -> int:
    global TRACER
    spec_path, out_dir = Path(argv[0]), Path(argv[1])
    spec = json.loads(spec_path.read_text())
    if spec["trace"]:
        TRACER = Tracer()
        install(TRACER)
    serve = spec["workload"]["kind"] == "serve"
    out, values = run_serve_cell(spec) if serve else run_batch(spec)
    if TRACER is not None:
        out["layers"] = layer_metrics(TRACER, out)
        TRACER.save(out_dir / "spans.npz")
    if serve:
        # The same mix again, in this process, on a fresh stack: its
        # scheduler trace and simulated totals must equal the first cell's.
        second, _ = run_serve_cell(spec)
        out["second_cell"] = {"trace": second["trace"], "sim": second["sim"]}
    np.savez(out_dir / "values.npz", **values)
    (out_dir / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
