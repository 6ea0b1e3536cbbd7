"""Cold-start child for the set-up time: import chansim6g, load and validate
each config, and run its first one-drop campaign. Prints CLOCK_MONOTONIC
when the last campaign has finished.

Usage: python3 setup_child.py ROOT SPEC_JSON OUT_DIR
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    root, spec_path, out = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(root / "src"))
    from chansim6g.campaign import run_campaign
    from chansim6g.config import load_config, load_preset

    spec = json.loads(spec_path.read_text())
    for i, source in enumerate(spec["configs"]):
        if "preset" in source:
            cfg = load_preset(source["preset"], drops=1, seed=spec["seed"])
        else:
            cfg = load_config(source["config"])
        run_campaign(cfg, out / f"c{i}", jobs=spec["jobs"])
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
