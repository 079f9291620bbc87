"""Start-up cost: only the HTTP backend loads ``requests``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints, after each step, whether ``requests`` has been imported yet.
PROBE = """
import json, sys
loaded = []
import transcreate
loaded.append("requests" in sys.modules)
import transcreate.cli
loaded.append("requests" in sys.modules)
code = transcreate.cli.main(["split", "--records", sys.argv[1], "--group-size", "2",
                             "--out", sys.argv[2]])
loaded.append("requests" in sys.modules)
from transcreate.gateway import HttpBackend, ProviderConfig
HttpBackend(ProviderConfig()).close()
loaded.append("requests" in sys.modules)
print(json.dumps({"exit": code, "loaded": loaded}))
"""


def test_requests_is_imported_only_by_the_http_backend(tmp_path):
    records = tmp_path / "students.json"
    records.write_text(json.dumps([{"student_id": f"s{i}", "toefl": 80.0 + i}
                                   for i in range(4)]), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = subprocess.run([sys.executable, "-c", PROBE, str(records), str(tmp_path / "split.json")],
                           capture_output=True, text=True, env=env, timeout=60, check=True)
    result = json.loads(probe.stdout.splitlines()[-1])
    assert result["exit"] == 0 and (tmp_path / "split.json").exists()
    # After `import transcreate`, `import transcreate.cli`, a `split` run, an HttpBackend.
    assert result["loaded"] == [False, False, False, True]
