"""The bit-exact training and reversal checks (the tests marked ``bit_exact``),
rerun under each OpenBLAS kernel and at numpy's baseline SIMD level.

Training updates one flat vector in place and writes every epoch into one set
of feature-major work buffers with ``out=``, each layer one matmul of its
[W; b] view with its input over a row of ones. A reversal linearizes a block
of checkpoints with K-stacked matmuls and ufuncs, then runs each tangent pass
alone as 2-D ``np.dot`` calls into buffers bound once, where the references
use the allocating ``@``. These checks compare those paths with plain
allocating loops in the same layout, also at shapes with a size-1 dimension
(a width-1 code layer, a one-row batch), which BLAS may run as gemv or dot,
through a one-window-per-sequence detector and through a reversal that
rescales. A fit seeds its backward pass with lr * 2 / size, so the
SINGLE_SEQ loop takes that seed too, and one check holds that fit within
1e-12 of the plain lr * grad_w loop.
Each kernel runs in a child process with ``OPENBLAS_CORETYPE`` set in the
child's environment only, once with numpy's default dispatch and once with
``NPY_DISABLE_CPU_FEATURES`` naming every dispatch target above numpy's
baseline that this CPU would run (``np.tanh`` and ``np.exp`` give other bits
on those paths).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import aepoison

TESTS = Path(__file__).resolve().parent
# CPU flags each kernel needs, as /proc/cpuinfo names them (pni is SSE3)
KERNEL_FLAGS = {
    "Prescott": {"sse2", "pni"},
    "Haswell": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512bw", "avx512dq", "avx512vl"},
}
# OpenBLAS reports its Prescott kernel by the first name of that kernel family
KERNEL_NAMES = {"Prescott": {"prescott", "katmai"}, "Haswell": {"haswell"}, "SkylakeX": {"skylakex"}}
CORENAME = """
import ctypes, glob, os
import numpy as np
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            print(fn().decode())
            raise SystemExit
"""
ACTIVE_DISPATCH = """
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(" ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)))
"""
# dispatch targets above numpy's baseline that run on this CPU
DISPATCH_GROUPS = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def child_env(coretype: str) -> dict:
    src = str(Path(aepoison.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "OPENBLAS_CORETYPE": coretype,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": src if not path else src + os.pathsep + path,
    }


def run_checks(coretype: str, **extra_env: str) -> None:
    """Run the ``bit_exact`` tests in a child under the ``coretype`` kernel,
    with ``extra_env`` added to the child's environment only."""
    missing = KERNEL_FLAGS[coretype] - cpu_flags()
    if missing:
        pytest.skip(f"CPU lacks {sorted(missing)} for the {coretype} kernel")
    env = {**child_env(coretype), **extra_env}
    core = subprocess.run([sys.executable, "-c", CORENAME], env=env, capture_output=True, text=True, check=True)
    name = core.stdout.strip().lower()
    if not name:
        pytest.skip("numpy is not linked to an OpenBLAS that reports its kernel")
    assert name in KERNEL_NAMES[coretype], f"OPENBLAS_CORETYPE={coretype} ran the {name} kernel"
    if "NPY_DISABLE_CPU_FEATURES" in extra_env:
        active = subprocess.run(
            [sys.executable, "-c", ACTIVE_DISPATCH], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        assert active == [], f"numpy still dispatches to {active}"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "bit_exact", str(TESTS)],
        cwd=TESTS.parent,
        env=env,
        capture_output=True,
        text=True,
    )
    level = " at numpy's baseline" if extra_env else ""
    assert run.returncode == 0, f"under the {coretype} kernel{level}:\n{run.stdout[-3000:]}{run.stderr[-2000:]}"


@pytest.mark.parametrize("coretype", sorted(KERNEL_FLAGS))
def test_bit_exact_checks_hold_under_kernel(coretype):
    run_checks(coretype)


@pytest.mark.parametrize("coretype", sorted(KERNEL_FLAGS))
def test_bit_exact_checks_hold_under_kernel_at_numpy_baseline(coretype):
    if not DISPATCH_GROUPS:
        pytest.skip("numpy dispatches to no target above its baseline on this CPU")
    run_checks(coretype, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCH_GROUPS))
