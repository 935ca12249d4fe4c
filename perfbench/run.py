"""The repository benchmark: host time of the simulator, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pagerank_kron --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload bfs_wdc --spread 5   # steadiness report

Each repetition runs in a fresh process (``rep.py``), the way one ``repro
run`` or ``repro serve`` invocation does; repetitions are repeated until
``--seconds`` have passed and the medians are reported.  Every output is
checked against ``reference.py``.  With ``--trace 1`` repetitions alternate
between untraced and traced, and the per-layer figures come from the traced
ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from workloads import DATASET_SEED, SERVE_QUOTA, WORKLOADS, serve_mix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench-cache"
#: A run must end within this many seconds of its start; a repetition that
#: would overrun it is killed and the run fails without a result.
RUN_LIMIT_S = 170


def metric_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------- the checks


class Workload:
    """One workload's generated inputs and the independent answers for them."""

    def __init__(self, name: str, seed: int):
        from repro.harness import default_root, load_dataset

        self.name = name
        self.seed = seed
        self.w = WORKLOADS[name]
        graph = load_dataset(self.w["dataset"], self.w["scale"], seed=DATASET_SEED)
        self.g = reference.Graph(graph.offsets, graph.targets)
        self.root = default_root(graph)
        self.spec = {"workload": self.w, "dataset_seed": DATASET_SEED,
                     "root": self.root}
        self.failed_reason = None
        self._dist: dict[int, np.ndarray] = {}
        if self.w["kind"] == "serve":
            jobs = serve_mix(graph, seed, self.distances_from)
            self.spec.update(jobs=jobs, quota=SERVE_QUOTA)
            self._serve_references(jobs)
        elif self.w["algorithm"] == "pagerank":
            self.expected = reference.pagerank(self.g, self.w["iterations"])
        else:
            self.distances_from(self.root)

    def distances_from(self, src: int) -> np.ndarray:
        if src not in self._dist:
            self._dist[src] = self.g.distances([src])[0]
        return self._dist[src]

    def _serve_references(self, jobs: list[str]) -> None:
        from repro.service import parse_job_spec

        self.jobs = [parse_job_spec(s) for s in jobs]
        self.analytic = {}
        for i, job in enumerate(self.jobs):
            if job.kind in ("neighborhood", "path", "bfs"):
                self.distances_from(int(job.params.get(
                    "v", job.params.get("src", job.params.get("root", self.root)))))
            if job.kind == "pagerank":
                self.analytic[f"svc-{i + 1}"] = reference.pagerank(
                    self.g, int(job.params.get("iters", 1)))
            elif job.kind == "cc":
                self.analytic[f"svc-{i + 1}"] = reference.min_reaching_label(self.g)

    # -- per-repetition checks: return (attempted, failed, errors) ----------

    def check(self, out: dict, values: dict) -> tuple[int, int, list[str]]:
        if self.w["kind"] == "serve":
            return self._check_serve(out, values)
        got = values["values"]
        if self.w["algorithm"] == "pagerank":
            ok = reference.close(got, self.expected)
            return 1, 0, [] if ok else ["pagerank values differ from reference"]
        return 1, 0, reference.bfs_parent_errors(
            self.g, self.root, got, self.distances_from(self.root))

    def _check_serve(self, out: dict, values: dict) -> tuple[int, int, list[str]]:
        errors: list[str] = []
        failed = 0
        by_id = {j["id"]: j for j in out["jobs"]}
        for i, spec in enumerate(self.jobs):
            jid = f"svc-{i + 1}"
            job = by_id.get(jid)
            if job is None or job["state"] != "done":
                failed += 1
                continue
            res = job["result"]
            if spec.kind in ("pagerank", "cc"):
                want = self.analytic[jid]
                got = values[jid]
                ok = (reference.close(got, want) if spec.kind == "pagerank"
                      else np.array_equal(got.astype(np.int64), want))
                if not ok:
                    errors.append(f"{jid} {spec.kind} values differ")
            elif spec.kind == "bfs":
                root = int(spec.params.get("root", self.root))
                errors += [f"{jid} bfs: {e}" for e in reference.bfs_parent_errors(
                    self.g, root, values[jid], self.distances_from(root))]
            elif spec.kind == "neighborhood":
                d = self.distances_from(int(spec.params["v"]))
                want = int((d <= int(spec.params["depth"])).sum())
                if res["count"] != want:
                    errors.append(f"{jid} neighborhood count {res['count']} != {want}")
            elif spec.kind == "path":
                errors += self._path_errors(jid, spec, res)
            elif spec.kind == "vstate":
                ref = str(spec.params["ref"])
                source = self.analytic.get(ref, values.get(ref))
                if source is None:
                    errors.append(f"{jid} vstate answered for unfinished {ref}")
                    continue
                want = source[res["vertices"]]
                got = np.asarray(res["values"])
                if not (reference.close(got.astype(np.float64), want.astype(np.float64))
                        if want.dtype.kind == "f" else np.array_equal(got, want)):
                    errors.append(f"{jid} vstate values differ from {ref}")
        if len(self.jobs) != len(out["jobs"]):
            errors.append("job count differs from the submitted mix")
        # The second cell: the same mix in the same process on a fresh stack.
        second = out["second_cell"]
        if second["trace"] != out["trace"] or second["sim"] != out["sim"]:
            failed += 1
            self.failed_reason = (
                f"second cell in one process differs: flash bytes "
                f"{out['sim']['flash_bytes']} vs {second['sim']['flash_bytes']}, "
                f"elapsed {out['sim']['elapsed_s']!r} vs {second['sim']['elapsed_s']!r}")
        return len(self.jobs) + 1, failed, errors

    def _path_errors(self, jid: str, spec, res: dict) -> list[str]:
        from repro.service.jobs import DEFAULT_PATH_CAP

        src, dst = int(spec.params["src"]), int(spec.params["dst"])
        hops = self.distances_from(src)[dst]
        cap = int(spec.params.get("cap", DEFAULT_PATH_CAP))
        if res["found"] != bool(hops <= cap):
            return [f"{jid} path found={res['found']} but distance is {hops}"]
        if not res["found"]:
            return []
        errors = []
        if res["hops"] != hops:
            errors.append(f"{jid} path has {res['hops']} hops, shortest is {hops}")
        path = np.asarray(res["path"], dtype=np.int64)
        if path[0] != src or (len(path) == res["hops"] + 1 and path[-1] != dst):
            errors.append(f"{jid} path does not join {src} to {dst}")
        if not self.g.has_edges(path[:-1], path[1:]).all():
            errors.append(f"{jid} path hops are not edges")
        return errors

    def fingerprint(self, out: dict, values: dict) -> dict:
        """What must repeat exactly: simulated totals, the scheduler trace
        and the output values."""
        crc = {k: zlib.crc32(np.ascontiguousarray(v).tobytes())
               for k, v in sorted(values.items())}
        return {"sim": out["sim"], "trace": out["trace"], "values_crc32": crc}

    def fingerprint_key(self) -> str:
        """The inputs, less the worker count: worker count must not change
        results, so both PageRank workloads share one key."""
        inputs = {k: v for k, v in self.spec.items() if k != "workload"}
        inputs["workload"] = {k: v for k, v in self.w.items()
                              if k not in ("workers", "identity_workers")}
        text = json.dumps(inputs, sort_keys=True)
        return f"{self.w['dataset']}-{hashlib.sha256(text.encode()).hexdigest()[:16]}"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_fingerprint(key: str, fp: dict, digest: str) -> str | None:
    """Compare with the fingerprint an earlier run of the same source left;
    the first run of a source records it."""
    path = CACHE / "fingerprints" / digest / f"{key}.json"
    text = json.dumps(fp, sort_keys=True)
    if path.exists():
        if path.read_text() != text:
            return f"simulated output differs from an earlier run ({path.name})"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return None


# -------------------------------------------------------------- repetitions


def child_env(workers: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_MODE", "REPRO_SANITIZE", "REPRO_WORKERS",
                        "REPRO_GRAPH_CACHE_BYTES")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_DATASET_CACHE"] = str(CACHE / "datasets")
    if workers > 1:
        env["REPRO_WORKERS"] = str(workers)
    return env


def run_rep(wl: Workload, trace: bool, index: int, deadline: float,
            workers: int) -> tuple[dict, dict]:
    work = CACHE / "work" / f"{os.getpid()}-{index}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps({**wl.spec, "trace": trace}))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), str(spec_path), str(work)],
            env=child_env(workers), cwd=ROOT, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        timeout = max(10.0, deadline - perf_counter())
        try:
            output, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"repetition exceeded {timeout:.0f} s")
        finally:
            # The repetition's own workers (the sort-reduce pool) live in its
            # session; none may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise RuntimeError(f"repetition failed ({proc.returncode}):\n{output}")
        out = json.loads((work / "result.json").read_text())
        with np.load(work / "values.npz") as npz:
            values = {k: npz[k] for k in npz.files}
        if trace:
            traces = CACHE / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copy(work / "spans.npz", traces / f"{wl.name}.npz")
        return out, values
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: repetitions for ``seconds``, checked, summarized."""
    deadline = perf_counter() + RUN_LIMIT_S
    wl = Workload(name, seed)
    digest = source_digest()
    attempted = failed = 0
    errors: list[str] = []
    reps: list[dict] = []
    first_fp = None
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        kinds = {r["traced"] for r in reps}
        enough = kinds == ({False, True} if trace else {False})
        if elapsed >= seconds and enough:
            break
        traced = trace and i % 2 == 1
        out, values = run_rep(wl, traced, i, deadline, wl.w["workers"])
        i += 1
        a, f, errs = wl.check(out, values)
        attempted += a
        failed += f
        errors += errs
        fp = wl.fingerprint(out, values)
        if first_fp is None:
            first_fp = fp
            err = check_fingerprint(wl.fingerprint_key(), fp, digest)
            if err:
                errors.append(err)
        elif fp != first_fp:
            errors.append(f"repetition {i} simulated output differs from the first")
        out["traced"] = traced
        reps.append(out)
    if "identity_workers" in wl.w:
        # Worker count must not change results.
        out, values = run_rep(wl, False, i, deadline, wl.w["identity_workers"])
        attempted += 1
        if wl.fingerprint(out, values) != first_fp:
            errors.append(f"{wl.w['identity_workers']} sort-reduce workers "
                          f"change the simulated output")
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    metrics = {}
    spec = metric_spec()
    if trace:
        layers = {k: float(np.median([r["layers"][k] for r in traced_reps]))
                  for k in traced_reps[0]["layers"]}
        layers["trace.overhead_pct"] = 100.0 * (
            np.median([r["run_s"] for r in traced_reps])
            / np.median([r["run_s"] for r in plain]) - 1.0)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    else:
        e2e = end_to_end(wl, plain)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics, "errors": errors[:20], "repetitions": len(reps),
            "run_s": [round(r["run_s"], 4) for r in reps],
            "failed_reason": wl.failed_reason}


def end_to_end(wl: Workload, reps: list[dict]) -> dict:
    med = lambda key: float(np.median([r[key] for r in reps]))  # noqa: E731
    out = {"setup_s": med("setup_s"), "run_s": med("run_s"),
           "peak_rss_mb": med("peak_rss_mb"),
           "edges_per_s": float(np.median([r["traversed_edges"] / r["run_s"]
                                           for r in reps]))}
    if wl.w["kind"] == "serve":
        latencies = [q["ms"] for r in reps for q in r["latency"].values()]
        out["query_ms_p50"] = float(np.median(latencies))
    else:
        # A batch invocation answers one request: the whole algorithm.
        out["query_ms_p50"] = float(np.median([(r["setup_s"] + r["run_s"]) * 1000
                                               for r in reps]))
    return out


# --------------------------------------------------------------------- CLI


def print_result(name: str, res: dict) -> None:
    print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} repetitions={res['repetitions']} "
          f"run_s={res['run_s']}")
    for metric, v in res["metrics"].items():
        print(f"  {metric:28s} {v['value']:>16.6g} {v['unit']}")
    if res["failed_reason"] and res["failed"]:
        print(f"  failed operation: {res['failed_reason']}")
    for err in res["errors"]:
        print(f"  ERROR {err}")


def public(res: dict) -> dict:
    return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}


def spread_report(names: list[str], seed: int, runs: int, seconds: float) -> None:
    """Run each workload ``runs`` times with successive seeds and print, per
    end-to-end metric, the median, quartiles and spread against its bound."""
    spec = {m["name"]: m for m in metric_spec()["end_to_end"]}
    for name in names:
        results = []
        for k in range(runs):
            res = measure(name, seed + k, seconds, trace=False)
            print_result(f"{name} seed={seed + k}", res)
            results.append(res)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: failed share per run {sorted(shares)}; "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>7s}")
        for metric, m in spec.items():
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            verdict = ("ok" if spread <= m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"  {metric:16s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.1%} {m['bound']:7.0%} {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="RUNS",
                        help="run each workload RUNS times with successive "
                             "seeds and report each metric's spread")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ["REPRO_DATASET_CACHE"] = str(CACHE / "datasets")
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.spread:
        spread_report(names, args.seed, args.spread, args.seconds)
        return 0
    results = {}
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, res)
        results[name] = res
    if len(names) == 1:
        print(json.dumps(public(results[names[0]])))
    else:
        print(json.dumps({n: public(r) for n, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
