"""Setup shim: lets ``pip install -e .`` work without the ``wheel`` package
(this offline environment has setuptools 65 but no PEP 660 backend deps).

NumPy and SciPy are core requirements: the MILP layer
(``repro.milp.modeling`` / ``placement``, loaded by
``repro.core.controller``) keeps its model in numpy arrays and solves it
on the HiGHS binding SciPy vendors as ``scipy.optimize._highspy`` since
1.15.  Install the ``test`` extra to run the suite.
"""

from setuptools import find_packages, setup

setup(
    name="snap-repro",
    version="0.6.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "networkx",
        "numpy",
        "scipy>=1.15",
    ],
    extras_require={
        "test": [
            "hypothesis",
            "pytest",
            "pytest-benchmark",
        ],
    },
)
