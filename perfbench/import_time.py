"""Print how long fellbund's own import takes in this fresh interpreter.

    python3 perfbench/import_time.py

numpy is loaded first and left out: it is not fellbund's, and loading its
shared libraries varied by 20-30% from run to run.  The time is scaled to
the probe's reference speed by a ``speed.Sampler`` in this process, so it
is probed on the core the import runs on.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import speed  # noqa: E402  (loads numpy)

speed.probe()  # the first probe of a process runs cold
with speed.Sampler() as sampler:
    mark = sampler.mark()
    t = time.perf_counter()
    import fellbund  # noqa: E402, F401
    import fellbund.cli  # noqa: E402, F401
    import fellbund.gallery  # noqa: E402, F401
    elapsed = time.perf_counter() - t
    print(sampler.since(mark, elapsed))
