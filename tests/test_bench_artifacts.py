"""The benchmark's CLI artifact check accepts what the CLI writes.

``bench/workloads.py`` parses the cli_pipeline's artifacts without
cylspec; a change to an artifact's layout fails here instead of in a
benchmark run.  The workloads module is loaded from its file and not
changed, and the jobs run in this process rather than one each.
"""

import importlib.util
import sys
from pathlib import Path

from cylspec import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_cli_round_passes_the_benchmark_check(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.modules.pop("reference", None)  # bench's own module, imported by name

    src = str(Path(cli.__file__).resolve().parents[1])
    jobs = workloads.CliPipeline(1201, str(tmp_path), src).prepare(0)
    out = {}
    for name, argv in jobs:
        assert cli.main([*argv, "--output", name]) == 0, name
        out[name] = {"argv": argv, "bytes": (tmp_path / name).read_bytes()}
    assert len(out) == 10
    assert workloads.check_cli_round(out) == []
