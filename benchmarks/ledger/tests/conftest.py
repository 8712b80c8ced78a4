"""Run by explicit path: ``python -m pytest benchmarks/ledger/tests``.

Tier-1 ``testpaths`` does not reach here, so the tests make the
repository root (for ``benchmarks.ledger``) and ``src`` importable
themselves.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
