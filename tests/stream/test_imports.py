"""The serving import path: ``repro.stream`` serves on numpy alone.

The paper runs EMG preprocessing off the platform, and serving never
calls it or the ISS.  So ``import repro.stream`` must load neither
scipy (the notch filter's dependency) nor the simulator, the kernels,
the SVM baseline or the experiments: a serving process would otherwise
pay their start-up time and memory for code it never runs.  Nor does
in-process serving open a socket, so the asyncio front door and the
replay/workload harnesses load only when one of their names is used.
"""

import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

#: Packages and modules a serving process must not load.
OFF_PATH = (
    "asyncio",
    "repro.stream.ingress",
    "repro.stream.replay",
    "repro.stream.workload",
    "scipy",
    "repro.pulp",
    "repro.kernels",
    "repro.perf.calibration",
    "repro.svm",
    "repro.experiments",
)

# Runs in a fresh interpreter, so nothing the test session imported
# leaks into ``sys.modules``.  ``sys.modules["scipy"] = None`` makes any
# scipy import raise ImportError.
PROGRAM = f"""
import sys

sys.modules["scipy"] = None

import numpy as np

from repro.stream import StreamConfig, StreamingService
from repro.emg.windows import WindowConfig
from repro.hdc import BatchHDClassifier, HDClassifierConfig

rng = np.random.default_rng(3)
model = BatchHDClassifier(
    HDClassifierConfig(dim=512, n_channels=4, n_levels=8, signal_hi=1.0)
).fit(rng.random((40, 5, 4)), [i % 4 for i in range(40)])
service = StreamingService(
    model,
    StreamConfig(window=WindowConfig(window_samples=5, skip_onset_s=0.0)),
)
service.open_session(0)
stream = rng.random((60, 4))
got = [d.raw_label for d in service.ingest(0, stream)]
assert got == model.predict(stream.reshape(12, 5, 4)), got
loaded = sorted(
    name
    for name, module in sys.modules.items()
    if module is not None
    and any(name == off or name.startswith(off + ".") for off in {OFF_PATH!r})
)

# Every exported name still resolves, and ``replay`` stays the function
# after its submodule of the same name is imported.
import repro.stream
import repro.stream.replay

assert all(hasattr(repro.stream, name) for name in repro.stream.__all__)
assert repro.stream.replay is sys.modules["repro.stream.replay"].replay
print("served", len(got), "loaded", loaded)
"""


def test_repro_stream_serves_without_scipy_or_the_iss():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["served", "12", "loaded", "[]"]
