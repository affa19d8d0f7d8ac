import doctest
import os
import re
import shlex
from pathlib import Path

from cuspdim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples():
    # the fenced python blocks, fences dropped, run as one doctest
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_readme_cli_samples(capsys, monkeypatch):
    # each plain fenced block opening with "$ cuspdim ..." is that command's stdout
    for var in [v for v in os.environ if v.startswith("CUSPDIM_")]:
        monkeypatch.delenv(var)
    samples = re.findall(r"^```\n\$ cuspdim (.*?)\n(.*?)^```", README.read_text(), re.M | re.S)
    assert samples
    for command, expected in samples:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == expected, command
