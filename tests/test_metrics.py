import os
import subprocess
import sys
from xml.sax.saxutils import escape as sax_escape

import pytest

import sparsetok
from sparsetok.metrics import write_line_plot

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(sparsetok.__file__)))
_WEB_MODULES = ("xml", "urllib.request", "http.client", "email", "ssl")


def test_import_leaves_the_web_stack_out():
    probe = ("import sys, sparsetok; "
             f"print(','.join(m for m in {_WEB_MODULES!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("text", ["a & b", "<x>", "1 < 2 > 0", "\"quoted\" 'single'",
                                  "&amp; &lt;", "plain", ""])
def test_plot_text_is_escaped_like_saxutils(tmp_path, text):
    path = tmp_path / "plot.svg"
    write_line_plot(str(path), {text: [(0.0, 1.0), (1.0, 2.0)]},
                    x_label=text + " x", y_label=text + " y", title=text + " title")
    svg = path.read_text(encoding="utf-8")
    for shown in (text + " title", text + " x", text + " y"):
        assert f">{sax_escape(shown)}</text>" in svg
    assert f'font-size="11">{sax_escape(text)}</text>' in svg
