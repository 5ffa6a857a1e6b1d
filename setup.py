"""Setuptools entry point: ``pip install -e .`` makes ``repro`` importable.

The package lives under ``src/``.  Running from a checkout without
installing also works with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-mixnet",
    version="0.1.0",
    description=(
        "Reproduction of MixNet, a runtime-reconfigurable optical-electrical "
        "fabric for distributed mixture-of-experts training"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "cffi", "scipy"],
)
