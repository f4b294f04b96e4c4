"""Package build script (the offline environment lacks the `wheel`
package, so editable installs go through `setup.py develop`).

Also builds the optional native kernel: `cama_kernel.c` compiles into
the extension module `repro.sim.backends._cama_native` whose shared
object carries the C step loop (bound via ctypes, never imported for a
Python surface — see `repro/sim/backends/native.py`).  The extension
is strictly best-effort: on a host without a working C toolchain the
install still succeeds, the `.c` source ships as package data, and the
native backend either compiles it at runtime or degrades to the
sparse reference kernel.
"""

import sys

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Swallow extension build failures: the native kernel is an
    accelerator, not a requirement."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"warning: skipping the native kernel extension ({exc}); "
            "the pure-python fallback will be used",
            file=sys.stderr,
        )


setup(
    name="repro-cama",
    version="0.8.0",
    description=(
        "Reproduction of CAMA (HPCA 2022) grown into a streaming, "
        "sharded automata-matching service"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.sim.backends": ["cama_kernel.c"]},
    python_requires=">=3.11",
    install_requires=["numpy"],
    ext_modules=[
        Extension(
            "repro.sim.backends._cama_native",
            sources=["src/repro/sim/backends/cama_kernel.c"],
            define_macros=[("CAMA_BUILD_PYEXT", "1")],
            extra_compile_args=(
                [] if sys.platform == "win32" else ["-O3"]
            ),
            optional=True,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
