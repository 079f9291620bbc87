"""Start-up cost: only the HTTP backend loads the HTTP client, and not ``requests``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints, after each step, which HTTP modules have been imported yet. With
# ``requests`` made unimportable (a None entry), the backend must still send.
PROBE = """
import json, sys
sys.modules["requests"] = None
def loaded_now():
    return [n for n in ("http.client", "ssl", "requests") if sys.modules.get(n) is not None]
loaded = []
import transcreate
loaded.append(loaded_now())
import transcreate.cli
loaded.append(loaded_now())
code = transcreate.cli.main(["split", "--records", sys.argv[1], "--group-size", "2",
                             "--out", sys.argv[2]])
loaded.append(loaded_now())
from transcreate.gateway import CompletionRequest, HttpBackend, ProviderConfig
backend = HttpBackend(ProviderConfig(endpoint=sys.argv[3], api_key_env="TEST_KEY"))
loaded.append(loaded_now())
reply = backend.send(CompletionRequest(system="s", user="over http.client"), None)
backend.close()
print(json.dumps({"exit": code, "loaded": loaded, "reply": reply}))
"""


def test_http_client_is_imported_only_by_the_http_backend(tmp_path, echo_server, monkeypatch):
    monkeypatch.setenv("TEST_KEY", "secret")
    records = tmp_path / "students.json"
    records.write_text(json.dumps([{"student_id": f"s{i}", "toefl": 80.0 + i}
                                   for i in range(4)]), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = subprocess.run([sys.executable, "-c", PROBE, str(records), str(tmp_path / "split.json"),
                            echo_server.url],
                           capture_output=True, text=True, env=env, timeout=60, check=True)
    result = json.loads(probe.stdout.splitlines()[-1])
    assert result["exit"] == 0 and (tmp_path / "split.json").exists()
    # After `import transcreate`, `import transcreate.cli`, a `split` run, an HttpBackend.
    # ``http.client`` loads ``ssl`` itself.
    assert result["loaded"] == [[], [], [], ["http.client", "ssl"]]
    assert result["reply"] == "over http.client"
