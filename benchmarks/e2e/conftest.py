"""Put the harness modules on ``sys.path`` the way ``run.py`` does."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE / "trace_hook", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
