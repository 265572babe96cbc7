"""The README's Library example runs as written against the package root."""

import re
from pathlib import Path

import cyberdep
from cyberdep.synth import builtin_profile, generate
from cyberdep.topology import default_topology

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    topo = default_topology()
    profile = builtin_profile("dos_only", topo, n_messages=2000, seed=1, noise_fraction=0.1)
    (tmp_path / "capture.jsonl").write_bytes(generate(profile, topo))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(library_block(), namespace)
    assert 0.0 < namespace["p"] < 1.0
    assert namespace["graph"].grand_total == 2000


def test_package_root_exports_the_documented_names():
    imported = re.search(r"from cyberdep import \((.*?)\)", library_block(), re.S).group(1)
    documented = {name.strip() for name in imported.split(",")} - {""}
    assert sorted(cyberdep.__all__) == sorted(documented | {"BuildResult", "DependencyGraph"})
    assert all(hasattr(cyberdep, name) for name in cyberdep.__all__)
