"""Golden outputs: the exact stdout bytes of fixed CLI runs.

A refactor or speed-up of the specialisation pipeline must leave these
bytes unchanged.  Scan outputs are pinned by SHA-256, the short search
report literally.
"""

import hashlib

import pytest

from hyperclass.cli import main

G1 = "f = [-4, 0, 0, 1]\npoint = (2, 2)\n"
G2 = "f = [-1, 1, 0, 0, 0, 1]\npoint = (1, 1)\n"


def run_stdout(tmp_path, capsys, config_text, args):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config_text)
    code = main([args[0], "--config", str(cfg), *args[1:]])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("config_text, args, sha256", [
    (G1, ["scan", "--from", "-40", "--to", "1"],
     "b1bc642dd959940b3e4cd08e7e489e18f3bfaccc3504efa8a6466b9bb862093b"),
    (G1 + "class_numbers = true\n",
     ["scan", "--from", "-40", "--to", "1", "--format", "json"],
     "95b6bf98a56f593233415334dbf65e6b373a67d1e00f0c55292653f6ed8f5b6c"),
    (G2 + "class_numbers = true\n",
     ["scan", "--from", "-12", "--to", "0", "--format", "json"],
     "34a9cf990ea619de8a7d4bf07b5bfc0b689317a5ae607896b2a79c5de8c7868b"),
], ids=["g1-csv", "g1-json-class-numbers", "g2-json-class-numbers"])
def test_scan_golden_bytes(tmp_path, capsys, config_text, args, sha256):
    out = run_stdout(tmp_path, capsys, config_text, args)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_search_golden_bytes(tmp_path, capsys):
    out = run_stdout(tmp_path, capsys, G1,
                     ["search", "--min-order", "50", "--floor", "-100"])
    assert out == ("n = -25\n"
                   "f(n) = -15629\n"
                   "form = [27,4,579]\n"
                   "disc = -62516\n"
                   "order = 142\n"
                   "class_number = 142\n")


def test_large_search_golden_bytes(tmp_path, capsys):
    # order 108410: the giant steps run well past a step of s = 256
    out = run_stdout(tmp_path, capsys, G1,
                     ["search", "--min-order", "100000", "--floor", "-20000"])
    assert out == ("n = -1633\n"
                   "f(n) = -4354703141\n"
                   "form = [1635,4,2663427]\n"
                   "disc = -17418812564\n"
                   "order = 108410\n"
                   "class_number = 108410\n")
