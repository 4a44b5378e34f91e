"""The package has one transform path: spectral.py's functions call np.fft,
and every other module goes through them.

The named exceptions are the solver's half-spectrum kernel, which marches
the k >= 0 modes of real fields in numpy's rfft bin order, and the two
bilinear convolutions, which pad to 2m modes for a linear convolution
rather than transform on a grid.  A new direct call elsewhere is a second
copy of the transform steps.

The half-spectrum kernel, whose constants sit in two weights, is the
solver's innermost call, 8000 times per 1000-step simulate.  On (2, 512)
rows it took a median 16.8 us (14.8-20.0) against 23.5 us (20.6-25.2) for
the complex slot-order kernel it replaced, interleaved over 25 rounds on a
2-core x86 box (Python 3.11, numpy 2.4); that kernel had taken 46-51 against
89-96 us for the ascending form through _inverse_raw and _forward_raw.
Routed through a spectral wrapper, the slot-order kernel kept every byte but
paid a call per transform and gained nothing: a median 25.4 against 24.8 us
(+2.6%, 25 interleaved rounds), and in four later runs of 25 or 50 rounds
27.5-32.6 against 27.0-32.1 us (-1% to +4.5%).  So the kernel calls np.fft
itself.  _ProductField, whose constants also sit in two weights, runs its
unscaled slot-order transforms through spectral._slot_fft: a 64x512 product
with its cells took a median 1.12 ms (1.05-1.43) against 1.96 ms (1.82-2.46)
for the ascending form through _inverse_raw and _forward_raw, interleaved
over 15 rounds of 50 draws on the same box.
"""

import ast
from pathlib import Path

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "fbo_lab").glob("*.py"))

EXCEPTIONS = ["estimates._bilinear_convolve", "estimates._bilinear_str_sides", "evolution._half_kernel"]


def fft_callers(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level function or class of sources, by module
    name, whose body (nested definitions included) reads np.fft or
    numpy.fft; a module that imports numpy.fft is listed as module.<import>."""
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                if node.module == "numpy.fft" or any(a.name == "fft" for a in node.names):
                    found.add(f"{module}.<import>")
            elif isinstance(node, ast.Import) and any(a.name == "numpy.fft" for a in node.names):
                found.add(f"{module}.<import>")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if any(
                isinstance(sub, ast.Attribute) and sub.attr == "fft"
                and isinstance(sub.value, ast.Name) and sub.value.id in ("np", "numpy")
                for sub in ast.walk(node)
            ):
                found.add(f"{module}.{node.name}")
    return sorted(found)


def test_finds_the_callers():
    sources = {
        "a": "import numpy as np\ndef f(x):\n    def g():\n        return np.fft.fft(x)\n"
             "    return g\nclass C:\n    def __call__(self, x):\n        return numpy.fft.ifft(x)\n"
             "def h(x):\n    return np.abs(x)\n",
        "b": "from numpy.fft import fft\n",
        "c": "from numpy import fft\n",
    }
    assert fft_callers(sources) == ["a.C", "a.f", "b.<import>", "c.<import>"]


def test_only_spectral_and_the_named_exceptions_call_np_fft():
    callers = fft_callers({path.stem: path.read_text() for path in PACKAGE})
    assert [name for name in callers if not name.startswith("spectral.")] == EXCEPTIONS
    assert {"spectral._forward_raw", "spectral._inverse_raw"} <= set(callers)
