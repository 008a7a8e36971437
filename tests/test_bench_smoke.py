"""Every row function of ``bench/kernels.py`` runs at the smallest sizes, so
a renamed or re-signed library function cannot break the bench unnoticed."""

import importlib.util
from pathlib import Path

import pytest

KERNELS = Path(__file__).resolve().parents[1] / "bench" / "kernels.py"


@pytest.fixture(scope="module")
def kernels():
    spec = importlib.util.spec_from_file_location("bench_kernels", KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROW_FUNCTIONS = [
    "closure_rows",
    "invariant_factor_rows",
    "product_rows",
    "restriction_rows",
    "zero_invariant_rows",
    "invertibility_rows",
    "echelon_rows",
    "matrix_rows",
    "worst_case_rows",
]


def test_every_row_function_is_listed(kernels):
    assert sorted(name for name in vars(kernels) if name.endswith("_rows")) == sorted(ROW_FUNCTIONS)


@pytest.mark.parametrize("name", ROW_FUNCTIONS)
def test_rows_at_small_sizes(kernels, monkeypatch, capsys, name):
    for sizes in (
        "SIZES",
        "RESTRICTION_SIZES",
        "CLOSURE_RANKS",
        "EXACT_CLOSURE_RANKS",
        "ECHELON_SIZES",
        "MATRIX_SIZES",
        "WORST_CASE_POINTS",
    ):
        monkeypatch.setattr(kernels, sizes, (2, 3))
    rows = getattr(kernels, name)(1)
    assert rows and len(capsys.readouterr().out.splitlines()) == len(rows)
