import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples():
    # the fenced python blocks, fences dropped, run as one doctest
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
