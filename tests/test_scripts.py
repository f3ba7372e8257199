"""The example scripts under scripts/, run through their main()."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cy_gallery_fits_every_genus_in_the_jacobi_basis(capsys):
    _load("cy_gallery").main(["--order", "1"])
    out = capsys.readouterr().out
    for line in ("   Jacobi form   2 * y^1 * phi_{0,1}",
                 "   Jacobi form   -100 * y^1 * y^(1/2)*phi_{0,3/2}",
                 "   Jacobi form   -36 * y^1 * y^(1/2)*phi_{0,3/2}",
                 "   Euler number  24",
                 "   Euler number  -200",
                 "   Euler number  -72"):
        assert line in out.splitlines()


def test_grassmann_numbers_exact_table(capsys):
    _load("grassmann_numbers").main([])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "A4[3]: dimension 6, 10 fixed points"
    (top,) = [line for line in lines if line.lstrip().startswith("c1^6")]
    assert top.split() == ["c1^6", "78125"]


def test_grassmann_numbers_has_no_float_option(capsys):
    with pytest.raises(SystemExit) as exit_info:
        _load("grassmann_numbers").main(["--float"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --float" in capsys.readouterr().err

