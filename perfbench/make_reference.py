"""Write the reference trajectories the simulate checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py simulate_n64 [simulate_n128]

For every input variant of each named workload this runs the same config the
benchmark generates through ``parse_config`` and ``run``, as ``lu-flow
simulate`` does, and stores the recorded times, energies and enstrophies in
``perfbench/reference/<workload>.json``.  The lu_flow on ``PYTHONPATH`` is the
one measured; regenerate only when a change is meant to alter the numbers.
"""

from __future__ import annotations

import json
import sys

from run import HERE, VARIANTS, WORKLOADS, make_config


def main(names) -> None:
    import lu_flow
    from lu_flow.config import parse_config
    from lu_flow.solver import run

    for name in names:
        variants = {}
        for variant in range(VARIANTS):
            config, _ = parse_config(json.dumps(make_config(WORKLOADS[name], variant)))
            record = run(config, member_index=0)
            variants[str(variant)] = {
                "time": record.times.tolist(),
                "energy": record.diagnostics["energy"].tolist(),
                "enstrophy": record.diagnostics["enstrophy"].tolist(),
            }
            print(f"{name} variant {variant}: {len(record.times)} records", flush=True)
        doc = {"workload": name, "lu_flow_version": lu_flow.__version__, "variants": variants}
        (HERE / "reference" / f"{name}.json").write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
