"""Time how long a fresh interpreter takes to reach a ready ensemble.

Usage: python3 setup_probe.py CONFIG

Prints one JSON object with the CPU seconds spent in each set-up phase:
import blocksplit, load_config, build_problem, build_map, init_ensemble.
CPU time, not wall time: the benchmark runs reference work on the same
CPU while the probe runs (see run_child in pipeline.py).
"""

import json
import sys
import time


def main(config_path: str) -> None:
    t0 = time.process_time()
    import blocksplit

    t1 = time.process_time()
    cfg = blocksplit.load_config(config_path)
    t2 = time.process_time()
    problem = cfg.build_problem()
    t3 = time.process_time()
    m = problem.build_map(cfg.flavor, cfg.scheme, cfg.steps)
    t4 = time.process_time()
    sampler = blocksplit.uniform_box_sampler(problem.region.lo, problem.region.hi)
    ensemble = blocksplit.init_ensemble(m, sampler, cfg.run.num_chains, cfg.seed)
    t5 = time.process_time()
    if ensemble.num_chains != cfg.run.num_chains:
        raise SystemExit("init_ensemble returned the wrong number of chains")
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "build_problem_s": t3 - t2,
                      "build_map_s": t4 - t3, "init_s": t5 - t4, "setup_s": t5 - t0}))


if __name__ == "__main__":
    main(sys.argv[1])
