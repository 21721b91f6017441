"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py

Runs every workload at full size for seeds 0 .. REFERENCE_SEEDS-1 and
rewrites perfbench/reference.json and perfbench/reference_paralinear.npy.
Run it only in a change of its own that deliberately changes results,
and say there which outputs moved and why.
"""

import json
import sys

from run import ROOT, import_program, pin_to_one_core


def main():
    pin_to_one_core()       # record as the benchmark runs
    import_program()
    import numpy as np
    from envinfo import environment
    from workloads import (REFERENCE_FILE, REFERENCE_SEEDS, SIZES,
                           STATES_FILE, WORKLOADS)

    table = {"commit": environment(ROOT, None, None)["commit"],
             "seeds": REFERENCE_SEEDS}
    states = []
    for name, cls in WORKLOADS.items():
        table[name] = {}
        for seed in range(REFERENCE_SEEDS):
            workload = cls(seed, **SIZES["full"][name])
            outputs = [workload.repeat(i) for i in range(workload.variants)]
            if name == "paralinear_run":
                states.append(outputs[0].pop("final"))
            table[name][str(seed)] = outputs
            print(f"{name} seed {seed}: recorded", flush=True)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n")
    np.save(STATES_FILE, np.stack(states))
    return 0


if __name__ == "__main__":
    sys.exit(main())
