"""Time ``import noisylab.bench`` in this fresh interpreter, at reference speed.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the sources. Prints one JSON
object: ``import_s`` (the import's own wall time), ``import_ref_s`` (the same
rescaled to reference host speed by a :class:`refloop.SpeedSampler` with the
numpy-free chunk) and ``elapsed_s`` (wall time from this file's first line to
the print, so the caller can tell interpreter start-up from the import).
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402

from refloop import REF_PYTHON_CHUNK_S, SpeedSampler, python_chunk  # noqa: E402

with SpeedSampler(python_chunk, REF_PYTHON_CHUNK_S) as sampler:
    import noisylab.bench  # noqa: E402, F401

result = {"import_s": sampler.own_s, "import_ref_s": sampler.at_reference_speed()}
result["elapsed_s"] = time.perf_counter() - t0
print(json.dumps(result))
