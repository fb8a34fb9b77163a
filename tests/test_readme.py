"""The README's examples work as printed: its configuration block loads as the
default config, and its quick-start code runs."""

import re
from pathlib import Path

from bisense.config import default_config, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_config_block_is_the_default_config(tmp_path):
    (block,) = readme_blocks("yaml")
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    assert load_config(path) == default_config()


def test_readme_quick_start_runs(capsys):
    namespace = {}
    exec(compile(readme_blocks("python")[0], str(README), "exec"), namespace)
    assert namespace["result"].converged
    assert capsys.readouterr().out
