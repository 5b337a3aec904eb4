"""What importing pathdom costs: single-graph commands never load the
process pool, dataclasses or datetime.

pytest itself imports some of these modules, so each check runs in a fresh
interpreter and counts only what pathdom adds to what the bare interpreter
(site hooks included) already loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pathdom
from pathdom.families import corona, cycle
from pathdom.formats import emit_graph6

# stdlib subsystems that only a pooled verify run or a report timestamp needs
DEFERRED = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "datetime")


def _run(*args):
    src = str(Path(pathdom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True)


def _imported_by_importtime(*args):
    """Module names that ``-X importtime`` reports for a run."""
    stderr = _run("-X", "importtime", *args).stderr
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_import_loads_no_deferred_module():
    probe = (
        "import sys, json\n"
        "before = set(sys.modules)\n"
        "import pathdom, pathdom.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    added = set(json.loads(_run("-c", probe).stdout))
    assert "pathdom.cli" in added
    assert not added & set(DEFERRED)


def test_gamma_command_imports_no_deferred_module(tmp_path):
    graph_file = tmp_path / "corona_c8.g6"
    graph_file.write_text(emit_graph6(corona(cycle(8))) + "\n")
    imported = _imported_by_importtime("-m", "pathdom", "gamma", str(graph_file))
    baseline = _imported_by_importtime("-c", "pass")
    assert "pathdom.cli" in imported
    assert not (imported - baseline) & set(DEFERRED)
