"""The peak-memory table of ``check_resources.py``: each line stays within its bound."""

import compileall
import os
import resource
import shutil

import numpy as np
import pytest
from check_resources import _SRC, LINES, bound_mb, peak_mb

pytestmark = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from Linux's /proc")


@pytest.fixture(scope="module")
def baseline():
    return peak_mb()


@pytest.mark.parametrize("line", LINES)
def test_peak_within_bound(line, baseline):
    growth = peak_mb(line) - baseline
    assert growth <= bound_mb(LINES[line]), f"{line}: {baseline + growth:.1f} MB, {growth:.1f} MB over the baseline"


def test_reads_the_childs_own_peak(baseline):
    # Linux carries a launcher's high-water mark across exec: with this buffer
    # held, ru_maxrss read 283.3 MB for the line whose own VmHWM is 36.9 MB
    held = np.ones(2**25)  # 256 MiB, every page touched
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > held.nbytes // 1024
    line = "simulate --preset figure1 --paths 25 --format csv"
    assert peak_mb(line) - baseline <= bound_mb(LINES[line])


def test_reads_no_bytecode_beside_the_source(tmp_path):
    # compiled bytecode in src/mfcir/__pycache__ took 1.1 MB off the baseline
    # and 0.1 MB off this line, and put three lines over their bounds
    src = tmp_path / "src"
    shutil.copytree(os.path.join(_SRC, "mfcir"), src / "mfcir", ignore=shutil.ignore_patterns("__pycache__"))
    line = "simulate --preset figure1 --paths 25 --format csv"
    readings = [peak_mb("", str(src)), peak_mb(line, str(src))]
    assert compileall.compile_dir(src / "mfcir", quiet=1)
    assert (src / "mfcir" / "__pycache__").is_dir()
    compiled = [peak_mb("", str(src)), peak_mb(line, str(src))]
    assert all(abs(a - b) <= 0.2 for a, b in zip(readings, compiled)), (readings, compiled)
