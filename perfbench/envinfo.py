"""The environment record attached to every benchmark result."""

import ctypes
import glob
import os
import platform
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _blas(package):
    """Build-time BLAS of a package and, for OpenBLAS, its live threads."""
    try:
        if package.__name__ == "numpy":
            config = package.__config__.CONFIG
        else:
            config = package.show_config(mode="dicts")
    except (AttributeError, TypeError):  # versions without config dicts
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    record = {key: blas.get(key) for key in
              ("name", "version", "openblas configuration")}
    libs = Path(package.__file__).resolve().parent.parent / (
        package.__name__ + ".libs")
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                break
    return record


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return caches


def _git_commit(root):
    git = Path(root, ".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root, seed, input_seed):
    import numpy
    import scipy

    return {
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "thread_variables": {name: os.environ.get(name, "unset")
                             for name in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "seed": seed,
        "input_seed": input_seed,
    }
