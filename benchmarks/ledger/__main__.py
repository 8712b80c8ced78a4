"""Entry point: ``python -m benchmarks.ledger`` or ``python3 benchmarks/ledger``.

Run as a directory the interpreter puts ``benchmarks/ledger`` itself on
``sys.path`` (where ``trace.py`` would shadow the standard library's);
either way the repository root and ``src`` are what must be importable.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.ledger: no program to measure under {ROOT}/src")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [entry for entry in sys.path
                   if entry and str(Path(entry).resolve()) != here]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.ledger.cli import main
    sys.exit(main())
