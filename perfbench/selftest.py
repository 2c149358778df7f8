#!/usr/bin/env python3
"""Self-tests of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

1. Installing the tracing wrappers rebinds every planned name, and
   uninstalling puts each original object back, after which no span is
   recorded.
2. The ``desk`` workload at the default seed saves a checkpoint
   byte-identical to ``train(load_config("configs/desk_synthetic.json"))``.
"""

from __future__ import annotations

import hashlib
import shutil
import sys

import run
import tracing
from workloads import CONFIG, WORKLOADS


def check_restore() -> None:
    import numpy as np
    from uenl.tensor import add, leaf

    tr = tracing.Tracer()
    installation = tracing.install(tr)
    try:
        rebound = installation.unrestored()
        assert len(rebound) == len(installation.saved), f"only {rebound} rebound"
        add(leaf(np.ones(2)), leaf(np.ones(2)))
        assert tr.total("tensor.apply.add")[0] == 1, "apply was not traced"
    finally:
        installation.uninstall()
    assert not installation.unrestored(), f"not restored: {installation.unrestored()}"
    before = dict(tr.agg)
    add(leaf(np.ones(2)), leaf(np.ones(2)))
    assert tr.agg == before, "spans recorded after uninstall"
    print(f"ok: {len(installation.saved)} rebound names restored")


def check_default_seed() -> None:
    from uenl import load_config, train

    out_dir = run.ROOT / ".bench_out" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench = run.Bench(WORKLOADS["desk"], 0, out_dir, run.Ledger())
        config, bundle = bench.setup()
        got = bench.pipeline(config, bundle)["ckpt_sha256"]
        want = hashlib.sha256(train(load_config(run.ROOT / CONFIG)).to_json().encode()).hexdigest()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    assert got == want, "desk checkpoint at seed 0 differs from the shipped config's"
    print("ok: desk at seed 0 reproduces the shipped config's checkpoint")


def main() -> int:
    if run.prepare() is None:
        return 2
    check_restore()
    check_default_seed()
    return 0


if __name__ == "__main__":
    sys.exit(main())
