"""Time one fresh process's set-up for a config.

Set-up is what every run pays before its first step: importing
natvb.harness (numpy and scipy included), resolve_config, build_model
and the derivative gate on the same probe points run_experiment draws.
Prints {"setup_s": wall seconds}.

    python3 perfbench/setup_probe.py '<config json>'
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> None:
    config = json.loads(sys.argv[1])
    start = time.perf_counter()
    from natvb import harness

    resolved = harness.resolve_config(config)
    _, loss = harness.build_model(resolved["model"])
    rng = harness.make_rng(resolved["seed"], 0xC)
    probe = [rng.standard_normal(loss.dim) * 0.3 for _ in range(2)]
    harness.check_derivatives(loss, probe)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
