"""The README's documented library example runs against the package as it is."""

import re

from conftest import REPO_ROOT


def library_use_block() -> str:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return block


def test_library_use_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_use_block(), "README.md#library-use", "exec"), namespace)
    result, summary = namespace["result"], namespace["summary"]
    assert summary.scenario["total_paid"] == result.report.total_paid
    assert capsys.readouterr().out
