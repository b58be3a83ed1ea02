"""The benchmark's span table (bench/spans.py) names functions of this
package.  Renaming a traced function, or turning it into something that is
not a function, must fail here, in the plain suite, and not only in a
traced benchmark run."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = """
import spans
tracer = spans.install()
from lagmin.jets import jet_xy
jx, jy = jet_xy(1.0, 2.0, 2)
jx * jy
print(tracer.stats["jets.mul.calls"])
"""


def test_every_span_resolves_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]
