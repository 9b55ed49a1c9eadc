"""The tokenizer demos run to the end, in process. Demo 03 trains a caption
model for several seconds and is left out."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_train_tokenizer.py", "02_vocabulary_tradeoffs.py"])
def test_tokenizer_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
