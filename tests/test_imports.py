"""What each server role imports, and the lazy package exports.

A process should load only the code its role runs: the cluster router
forwards request lines and never labels, and a single server never
routes.  Module counts are checked in a fresh interpreter, since this
one has imported everything the other tests use.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = [
    "repro",
    "repro.service",
    "repro.labeling",
    "repro.workflow",
    "repro.graphs",
    "repro.obs",
    "repro.io",
    "repro.parsetree",
    "repro.provenance",
]


def loaded_after(statement: str) -> set:
    """The modules a fresh interpreter holds after ``statement``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c",
         f"{statement}\nimport json, sys\n"
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def matching(modules: set, names) -> list:
    """The modules that are one of ``names`` or inside one of them."""
    return sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".")
               for name in names)
    )


def test_router_loads_no_labeling_workflow_or_serving_code():
    modules = loaded_after(
        "import repro.cli, repro.service.cluster; repro.cli.build_parser()"
    )
    assert "repro.service.cluster" in modules
    assert matching(modules, [
        "repro.labeling", "repro.workflow", "repro.service.server",
        "repro.service.sessions", "repro.service.wal",
        "repro.service.replication", "http.server",
        "xml.etree.ElementTree",
    ]) == []


def test_server_loads_no_cluster_client_or_tooling_code():
    modules = loaded_after(
        "import repro.cli, repro.service.server; repro.cli.build_parser()"
    )
    assert "repro.service.server" in modules
    assert matching(modules, [
        "repro.service.cluster", "repro.service.client", "multiprocessing",
        "http.server", "xml.etree.ElementTree", "repro.analysis",
        "repro.bench", "repro.loadgen", "repro.provenance",
    ]) == []


def test_info_loads_no_serving_code():
    # a one-shot command resolves its spec argument in repro.datasets
    modules = loaded_after(
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert repro.cli.main(['info', 'bioaid']) == 0"
    )
    assert "repro.datasets" in modules
    assert matching(modules, ["repro.service", "repro.labeling",
                              "repro.schemes"]) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    star: dict = {}
    exec(f"from {package} import *", star)
    for name in module.__all__:
        assert getattr(module, name) is star[name], name
        assert name in listed, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_submodules_import_through_a_lazy_package():
    # benchmarks/e2e's trace hook imports these and wraps their names
    from repro.service import cluster, server, wal
    from repro.service.protocol import decode_request, encode_response

    for module in (server, cluster):
        assert module.decode_request is decode_request
        assert module.encode_response is encode_response
    assert callable(wal.restore_session)
