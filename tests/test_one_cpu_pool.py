"""Actor-pool stages finish on a one-CPU Ray session and give the same
answer as on the shared 4-CPU test session."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pandas as pd
import ray

REPO = Path(__file__).resolve().parents[1]

QUERIES = ("minhash_neardup_pairs", "embedding_knn")

# One Ray session with one CPU, run in its own process (the test session
# already holds a 4-CPU one): generate sf0.001 tables plus a small
# embeddings table, run the queries and write their outputs.
SCRIPT = """
import sys
repo, sf_dir, out = sys.argv[1:4]
sys.path[:0] = [repo, repo + "/perfbench"]
import numpy as np, pyarrow as pa, pyarrow.parquet as pq
from tables import write_tables
write_tables(sf_dir, 1, sf=0.001)
vecs = np.random.default_rng(1).standard_normal((200, 8))
pq.write_table(pa.table({"vec_id": pa.array(np.arange(200), pa.int64()),
                         "embedding": [list(v) for v in vecs]}),
               sf_dir + "/embeddings.parquet")
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=256 << 20)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as entry
try:
    for name in sys.argv[4:]:
        entry.queries()[name](sf_dir).to_parquet(f"{out}/{name}.parquet")
finally:
    ray.shutdown()
"""


def test_actor_pool_queries_finish_on_one_cpu(tmp_path):
    sf_dir = tmp_path / "sf"
    # own process group: a hung run's Ray processes are killed with it
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(REPO), str(sf_dir), str(tmp_path), *QUERIES],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=240)
    finally:
        if proc.poll() is None:
            # the pool's actor held the only CPU and the read never ran
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 0, err[-3000:]

    import __ray_entry__ as entry

    assert ray.cluster_resources()["CPU"] == 4
    for name in QUERIES:
        one_cpu = pd.read_parquet(tmp_path / f"{name}.parquet")
        assert len(one_cpu) > 0
        four_cpu = entry.queries()[name](str(sf_dir))
        pd.testing.assert_frame_equal(one_cpu, four_cpu.reset_index(drop=True))
