"""Workload definitions and the seeded inputs of the service mix.

Every workload runs the simulator the way one ``repro run`` or
``repro serve`` invocation does.  The dataset inputs are fixed (dataset
seed 1, synthesized by ``repro.graph.datasets``); the benchmark seed only
picks the service mix's point-query vertices and arrival rounds.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = {
    # Dense, all-active supersteps: chunk sort and the FTL write/trim path.
    # Each run also makes one untimed repetition with two sort-reduce
    # workers, which must give bit-identical values and simulated totals.
    "pagerank_kron": {
        "kind": "batch", "system": "grafsoft", "dataset": "kron30",
        "scale": 2.0 ** -11, "algorithm": "pagerank", "iterations": 2,
        "workers": 1, "identity_workers": 2,
    },
    # The same input with the sort-reduce pool (``REPRO_WORKERS=2``).  Not
    # in BENCHMARK.json: with two workers on a two-CPU host its run time
    # follows the host's load (see README.md).
    "pagerank_kron_w2": {
        "kind": "batch", "system": "grafsoft", "dataset": "kron30",
        "scale": 2.0 ** -11, "algorithm": "pagerank", "iterations": 2,
        "workers": 2,
    },
    # Sparse frontiers over a high-diameter crawl: per-superstep fixed cost.
    "bfs_wdc": {
        "kind": "batch", "system": "grafboost", "dataset": "wdc",
        "scale": 2.0 ** -16, "algorithm": "bfs", "workers": 1,
    },
    # Analytics jobs beside point queries on the durable AOFFS stack.
    "serve_mix": {
        "kind": "serve", "system": "grafboost", "dataset": "kron30",
        "scale": 2.0 ** -14, "workers": 1,
    },
}

DATASET_SEED = 1

#: Analytics jobs of the service mix: (tenant, kind and params, arrival
#: round).  Staggered so that every query round also runs supersteps; the
#: arrival rounds are fixed because the number of engine run files (and so
#: the name-counter fault the second cell exposes) must not depend on the
#: seed.
SERVE_ANALYTICS = [
    ("tA", "pagerank:iters=2", 0),
    ("tB", "cc", 2),
    ("tA", "pagerank:iters=2", 6),
    ("tB", "bfs", 7),
]
#: Rounds 0 .. SERVE_QUERY_ROUNDS-1 each receive two neighborhood queries
#: and one path query.
SERVE_QUERY_ROUNDS = 10
NEIGHBORHOOD_DEPTH = 2
#: Path queries whose target no vertex can reach (in-degree 0), at fixed
#: positions: they exercise the not-found answer and a whole-component
#: expansion in every mix.
UNREACHABLE_PATH_ROUNDS = (3, 7)
#: Vertices read by each vstate query.
VSTATE_VERTICES = 3
#: Quotas sized so that nothing is rejected or queued past its round.
SERVE_QUOTA = {"max_running": 2, "max_queued": 4, "max_point": 64}


def serve_mix(graph, seed: int, distances_from) -> list[str]:
    """The job specs of one service mix, a pure function of ``seed``.

    ``distances_from(src)`` returns BFS hop distances from ``src`` (inf
    where unreachable).  Query vertices are drawn from the vertices whose
    two-hop expansion scans a middling number of edges, and path targets
    lie exactly two hops from their source, so that every seed gives each
    round a point batch of about the same size.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    offsets = graph.offsets.astype(np.int64)
    targets = graph.targets.astype(np.int64)
    out_deg = np.diff(offsets)
    in_deg = np.bincount(targets, minlength=n)
    # Edges scanned by the second level of a two-hop expansion from v.
    second = np.bincount(np.repeat(np.arange(n), out_deg),
                         weights=out_deg[targets], minlength=n)
    lo, hi = np.percentile(second[second > 0], [40, 60])
    candidates = np.flatnonzero((second >= lo) & (second <= hi))
    sinks = np.flatnonzero(in_deg == 0)

    jobs = [f"{tenant}:{kind}@{at}" for tenant, kind, at in SERVE_ANALYTICS]
    for r in range(SERVE_QUERY_ROUNDS):
        tenant, other = ("tA", "tB") if r % 2 == 0 else ("tB", "tA")
        for t in (tenant, other):
            v = int(rng.choice(candidates))
            jobs.append(f"{t}:neighborhood:v={v},depth={NEIGHBORHOOD_DEPTH}@{r}")
        while True:
            src = int(rng.choice(candidates))
            if r in UNREACHABLE_PATH_ROUNDS:
                dst = int(rng.choice(sinks))
            else:
                two_hops = np.flatnonzero(distances_from(src) == 2)
                if len(two_hops) == 0:
                    continue
                dst = int(rng.choice(two_hops))
            if dst != src:
                break
        jobs.append(f"{other}:path:src={src},dst={dst}@{r}")
    for i, (tenant, _kind, at) in enumerate(SERVE_ANALYTICS):
        vertices = sorted(int(v) for v in rng.choice(n, VSTATE_VERTICES,
                                                     replace=False))
        arrive = at + int(rng.integers(0, 4))
        jobs.append(f"{tenant}:vstate:ref=svc-{i + 1},"
                    f"v={'+'.join(map(str, vertices))}@{arrive}")
    return jobs
