"""Entry point: ``python3 benchmarks/e2e/run.py --workload W --seed N``.

Also runs as ``python -m benchmarks.e2e.run``.  Either way the
repository root and its ``src/`` go first on the import path, so the
benchmark measures the checkout it sits in and never an installed copy.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    _ROOT = Path(__file__).resolve().parents[2]
    if not (_ROOT / "src" / "repro").is_dir():
        sys.exit(f"no src/repro under {_ROOT}: nothing to measure")
    for _path in (_ROOT / "src", _ROOT):
        if str(_path) not in sys.path:
            sys.path.insert(0, str(_path))

    from benchmarks.e2e.harness import main

    sys.exit(main())
