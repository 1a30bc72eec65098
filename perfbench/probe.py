"""Set-up probe, run in a fresh process: the time to import ghwkit, build the
fields and parse the workload's codes from code-file text.

Reads the workload as JSON on stdin and prints the seconds taken, at the
reference host's speed (see hostspeed.py).
"""

import json
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed


def main() -> None:
    texts = json.load(sys.stdin)["codes"]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        import ghwkit.cli

        for text in texts:
            ghwkit.cli.parse_code_file(text)
        elapsed = time.perf_counter() - t0
    print(speed.scaled(elapsed))


if __name__ == "__main__":
    main()
