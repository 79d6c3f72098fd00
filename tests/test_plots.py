"""The trade-off SVG: escaped text pinned byte for byte, and a CLI import
that stays clear of the standard library's network stack."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import equityrank
from equityrank.plots import write_tradeoff_svg

# the modules that xml.sax.saxutils pulled in through urllib
NETWORK_MODULES = ("ssl", "http.client", "urllib.request", "email.parser")


def test_importing_the_cli_loads_no_network_module():
    src = str(Path(equityrank.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = f"import sys, equityrank.cli; print(sorted(set({NETWORK_MODULES!r}) & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_title_and_policy_text_are_escaped_as_before(tmp_path):
    curves = {"A&B <x>": [(0.1, 0.5), (0.01, 0.625)], "TopK > PoorK": [(1.0, 0.75)]}
    path = tmp_path / "t.svg"
    write_tradeoff_svg(path, curves, title="R&D <gain> & loss > 0, not &lt;")
    text = path.read_text(encoding="utf-8").splitlines()
    title = "R&amp;D &lt;gain&gt; &amp; loss &gt; 0, not &amp;lt;"
    assert f'<text x="360.0" y="24" text-anchor="middle" font-size="15" font-family="sans-serif">{title}</text>' in text
    assert '<text x="592" y="56" font-size="12" font-family="sans-serif">A&amp;B &lt;x&gt;</text>' in text
    assert '<text x="592" y="74" font-size="12" font-family="sans-serif">TopK &gt; PoorK</text>' in text
    # the whole file, as xml.sax.saxutils.escape wrote it
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "15ea808bfbaec6696ec1e0a86d62959248338d9b9dbdd0eecee3a05edcd740c0"
