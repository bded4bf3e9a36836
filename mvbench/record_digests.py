"""Regenerate digests.json: SHA-256 of every output file of the seed-0
experiments of each workload, at both sizes.

    python3 mvbench/record_digests.py

Run it only on a commit whose outputs are known good; the benchmark then
refuses any seed-0 run whose bytes differ.
"""

from __future__ import annotations

import json

import run as bench


def main() -> None:
    cli, _, _ = bench.import_mvsde()
    table: dict = {}
    for size in ("full", "tiny"):
        for workload in bench.WORKLOADS:
            workdir = bench.WORK / workload
            workdir.mkdir(parents=True, exist_ok=True)
            for k in range(bench.SEED_CYCLE):
                cfg = bench.experiment_config(workload, 0, k, size)
                sample = bench.run_experiment(cli, cfg, workdir)
                if sample["problems"]:
                    raise SystemExit(f"{workload} {size} experiment {k}: {sample['problems']}")
                table.setdefault(size, {}).setdefault(workload, {})[str(k)] = sample["digests"]
                print(size, workload, k, cfg["sim.seed"], f"{sample['wall_s']:.2f} s")
    bench.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
