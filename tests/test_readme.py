import pathlib
import re

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the README's library example is the library's contract: run it as written
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    betti, lam = capsys.readouterr().out.split()
    assert int(betti) >= 0
    assert namespace["records"]
    assert {r.q for r in namespace["records"]} == {0, 1, 2}
