"""Run one rgbgame CLI command with spans around its library calls.

    python -X importtime perfbench/clichild.py SPANS_FILE ARG...

behaves like ``python -m rgbgame.cli ARG...`` (same stdout, stderr and exit
code) and also writes the spans of the command's calls into the six library
modules to SPANS_FILE.  Only traced ``cli-session`` runs use it; untraced
runs time the plain ``python -m rgbgame.cli``.
"""

import sys

# Imported before anything of the benchmark's, so that the importtime line
# of rgbgame.cli holds every import the CLI itself needs.
import rgbgame.cli

import importlib.machinery

import tracing


def _patch(module, layer, tracer) -> None:
    # The CLI calls through module attributes (``strategies.mix``), so
    # replacing the attribute puts a span around each such call.
    for fn in tracing.LAYER_FUNCTIONS[layer]:
        setattr(module, fn, tracer.wrap(f"{layer}.{fn}", getattr(module, fn)))


class _PatchOnImport:
    """Meta-path finder that patches a layer module the CLI imports late.

    Today the CLI imports every layer up front; a lazy import (of quantum and
    bell, say) must still be traced without editing the benchmark.
    """

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        layer = name.removeprefix("rgbgame.")
        if layer == name or layer not in tracing.LAYER_FUNCTIONS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            _patch(module, layer, self.tracer)

        spec.loader.exec_module = exec_and_patch
        return spec


def main(argv) -> int:
    spans_file, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    for layer in tracing.LAYER_FUNCTIONS:
        module = sys.modules.get(f"rgbgame.{layer}")
        if module is not None:
            _patch(module, layer, tracer)
    sys.meta_path.insert(0, _PatchOnImport(tracer))
    try:
        return rgbgame.cli.main(args)
    finally:
        tracer.write(spans_file, {"argv": args})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
