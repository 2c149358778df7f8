"""The benchmark's workloads: the shipped desk config plus ``--set``-style
overrides, with every seed shifted by the benchmark's seed argument.

Seed 0 leaves the shipped seeds unchanged, so the ``desk`` workload at seed
0 trains exactly the model ``train(load_config(CONFIG))`` trains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

CONFIG = "configs/desk_synthetic.json"
MAX_SEED = 2**63  # shifted seeds must stay below the library's 2**64 limit


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    ood_n: int | None  # rows per OOD set; None keeps the shipped sizes
    check_quality: bool  # ID error and final train loss gates (desk only)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            (),
            None,
            True,
        ),
        Workload(
            "image",
            (
                "backbone.input_dim=784",
                "backbone.hidden_dims=[256,128]",
                "backbone.num_classes=10",
                "data.id.dim=784",
                "data.id.num_classes=10",
                "data.id.n_train_per_class=100",
                "data.id.n_test_per_class=100",
                "epochs=4",
            ),
            1000,
            False,
        ),
        Workload(
            "desk_score",
            (
                "epochs=10",
                "data.id.n_test_per_class=2000",
            ),
            20000,
            False,
        ),
    )
}


def overrides_for(workload: Workload, shipped: dict, seed: int) -> list[str]:
    """``key=value`` overrides that build ``workload`` from the shipped config
    dict, with the config seed and every data seed shifted by ``seed``."""
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must lie in [0, {MAX_SEED}), got {seed}")
    ood = []
    for spec in shipped["data"]["ood"]:
        spec = dict(spec, seed=spec["seed"] + seed)
        if workload.ood_n is not None:
            spec["n"] = workload.ood_n
        ood.append(spec)
    return [
        *workload.overrides,
        f"seed={shipped.get('seed', 0) + seed}",
        f"data.id.seed={shipped['data']['id']['seed'] + seed}",
        f"data.ood={json.dumps(ood)}",
    ]
