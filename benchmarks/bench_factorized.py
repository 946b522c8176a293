"""Factorized vs columnar-flat benchmark on a high-output free-connex query.

The asymptotic contrast of Berkholz's dichotomy, measured: on the hub
star family (Θ(n²) answers from 2n tuples) the flat engines must
materialize every answer while the factorized engine builds an O(n)-node
representation and reads the count off it. The wall-clock ratio
therefore *grows* with n — an asymptotic win, not a constant factor —
while the measured enumeration delay stays flat and the materialized
answers stay byte-identical across all three paths (naive Yannakakis,
columnar Yannakakis, factorized). Each row also times the bulk
``materialize()`` against draining the constant-delay ``enumerate()``
walk: both give byte-identical answers, and the bulk path must never be
slower at the largest size.

Results are merged into ``BENCH_kernels.json`` under the
``factorized_sweep`` key (read-modify-write, so the E3 sweep data is
preserved).

Environment knobs (used by the ``bench-smoke`` CI job):

* ``REPRO_BENCH_SIZES`` — comma-separated relation sizes
  (default ``64,128,256,512``);
* ``REPRO_BENCH_FACTORIZED_MIN_RATIO`` — required flat/factorized
  wall-clock ratio at the largest size (default ``2.0``; the smoke job
  relaxes it to ``1.0``, i.e. "factorized is never slower");
* ``REPRO_BENCH_REPEATS`` — timing repeats, best-of (default ``3``);
* ``REPRO_BENCH_OUT`` — output path for the JSON record.
"""

import json
import os
import time
from pathlib import Path

from repro.counting import CostCounter
from repro.relational.database import Database
from repro.relational.enumeration import measure_delays
from repro.relational.factorized import factorize
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.yannakakis import yannakakis

QUERY = JoinQuery.star(2)


def _sizes() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_SIZES", "64,128,256,512")
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _hub_database(n: int) -> Database:
    """One hub value, n leaves per relation: the Θ(n²)-answer family."""
    return Database(
        [
            Relation("R1", ("x", "y"), [(0, i) for i in range(n)]),
            Relation("R2", ("x", "y"), [(0, j) for j in range(n)]),
        ]
    )


def _materialized(relation: Relation) -> Relation:
    """``relation`` with its tuples read: a columnar engine's answer
    holds interned codes and decodes them on first read, and the flat
    side of the contrast materializes every answer."""
    relation.tuples
    return relation


def _best_of(repeats, fn):
    best = None
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best, value


def test_factorized_never_slower_on_free_connex_sweep():
    sizes = _sizes()
    min_ratio = float(os.environ.get("REPRO_BENCH_FACTORIZED_MIN_RATIO", "2.0"))
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    out_path = Path(
        os.environ.get(
            "REPRO_BENCH_OUT", Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
        )
    )

    rows = []
    ratios = {}
    delays = {}
    materialize_times = {}
    for n in sizes:
        naive_db = _hub_database(n)
        columnar_db = naive_db.with_backend("columnar")

        flat_seconds, flat_answer = _best_of(
            repeats, lambda: _materialized(yannakakis(QUERY, columnar_db))
        )
        fact_seconds, factorized = _best_of(
            repeats, lambda: factorize(QUERY, naive_db)
        )
        count_seconds, count = _best_of(repeats, factorized.count)
        materialize_seconds, bulk = _best_of(repeats, factorized.materialize)
        enumerate_seconds, walked = _best_of(
            repeats, lambda: set(factorized.enumerate())
        )

        # Byte-identical answers across naive flat, columnar flat, and
        # the factorized materialization.
        flat_bytes = repr(sorted(flat_answer.tuples)).encode()
        naive_flat = yannakakis(QUERY, naive_db)
        assert repr(sorted(naive_flat.tuples)).encode() == flat_bytes
        assert repr(sorted(bulk.tuples)).encode() == flat_bytes
        assert repr(sorted(walked)).encode() == flat_bytes
        assert count == len(flat_answer) == n * n

        # Backend parity of the factorized build itself (op counts).
        c_naive, c_col = CostCounter(), CostCounter()
        factorize(QUERY, naive_db, counter=c_naive)
        factorize(QUERY, columnar_db, counter=c_col)
        assert c_naive.total == c_col.total, f"factorize op parity broke at n={n}"

        # Enumeration delay is an op-count quantity, deterministic per
        # size; flatness across sizes is asserted below.
        counter = CostCounter()
        fresh = factorize(QUERY, naive_db, counter=counter)
        profile = measure_delays(fresh.enumerate(counter), counter)
        delays[n] = profile.max_delay

        ratio = flat_seconds / (fact_seconds + count_seconds)
        ratios[n] = ratio
        materialize_times[n] = (materialize_seconds, enumerate_seconds)
        rows.append(
            {
                "experiment": "E21-factorized",
                "family": "hub-star",
                "n": n,
                "flat_answers": count,
                "drep_nodes": factorized.num_nodes,
                "flat_seconds": flat_seconds,
                "factorize_seconds": fact_seconds,
                "count_seconds": count_seconds,
                "materialize_seconds": materialize_seconds,
                "enumerate_seconds": enumerate_seconds,
                "ratio": ratio,
                "max_delay": profile.max_delay,
            }
        )

    largest, smallest = max(sizes), min(sizes)
    assert len(set(delays.values())) == 1, (
        f"enumeration delay is data-dependent: {delays}"
    )
    if largest >= 4 * smallest:
        assert ratios[largest] > ratios[smallest], (
            "flat/factorized ratio did not grow with n — the win must be "
            f"asymptotic, got {ratios}"
        )
    assert ratios[largest] >= min_ratio, (
        f"factorized ratio {ratios[largest]:.2f}x at n={largest} below "
        f"required {min_ratio}x (see {out_path})"
    )
    bulk_seconds, walk_seconds = materialize_times[largest]
    assert bulk_seconds <= walk_seconds, (
        f"bulk materialize {bulk_seconds:.4f}s slower than draining "
        f"enumerate() {walk_seconds:.4f}s at n={largest}"
    )

    sweep = {
        "schema": "repro-bench-factorized/1",
        "experiment": "E21-factorized",
        "query": "star(2) hub family",
        "repeats_best_of": repeats,
        "rows": rows,
        "ratio_by_n": {str(n): ratios[n] for n in sizes},
        "max_delay_by_n": {str(n): delays[n] for n in sizes},
        "delay_flat": len(set(delays.values())) == 1,
        "largest_n": largest,
        "ratio_at_largest_n": ratios[largest],
        "answers_byte_identical": True,
    }
    record = {}
    if out_path.exists():
        try:
            record = json.loads(out_path.read_text())
        except (json.JSONDecodeError, OSError):
            record = {}
    record["factorized_sweep"] = sweep
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print()
    for n in sizes:
        print(
            f"n={n}: flat {rows[sizes.index(n)]['flat_seconds']:.4f}s, "
            f"factorized+count {rows[sizes.index(n)]['factorize_seconds'] + rows[sizes.index(n)]['count_seconds']:.4f}s, "
            f"ratio {ratios[n]:.2f}x, max_delay {delays[n]}, "
            f"materialize {materialize_times[n][0]:.4f}s vs "
            f"enumerate {materialize_times[n][1]:.4f}s"
        )
