"""Packaging for the repro library and its ``repro`` command-line tool."""

from setuptools import find_packages, setup

_LONG_DESCRIPTION = """\
# repro

A from-scratch reproduction of Bao, Davidson & Milo, *"Labeling
Recursive Workflow Executions On-the-Fly"* (SIGMOD 2011): workflow
specifications modeled as graph grammars, runs derived or executed
dynamically, and the DRL labeling scheme answering provenance
reachability queries from two logarithmic-size labels in constant
time -- plus the baselines the paper evaluates against.

Includes a concurrent provenance query service (`repro serve`):
many labeled runs hosted as sessions, batched reachability queries
answered straight from the labels, a JSON-lines TCP/stdio protocol,
and checkpoint/recovery of live sessions (see `docs/SERVICE.md`).
"""

setup(
    name="repro-drl",
    version="1.0.0",
    description=(
        "Dynamic reachability labeling for recursive workflow executions "
        "(reproduction of Bao, Davidson & Milo, SIGMOD 2011), with a "
        "concurrent provenance query service"
    ),
    long_description=_LONG_DESCRIPTION,
    long_description_content_type="text/markdown",
    author="repro contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=[],  # stdlib only, by design
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Information Analysis",
        "Topic :: Database",
    ],
)
