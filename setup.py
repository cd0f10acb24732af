"""Setup shim: lets ``pip install -e .`` work without the ``wheel`` package
(this offline environment has setuptools 65 but no PEP 660 backend deps).

NumPy and SciPy are core requirements: the MILP layer
(``repro.milp.modeling`` / ``placement``, loaded by
``repro.core.controller``) keeps its model, CSR included, in numpy arrays
and solves it on HiGHS's binding alone (``scipy.optimize._highspy._core``,
without ``scipy.optimize`` or ``scipy.sparse``): 1.17 bundles HiGHS 1.12,
which knows every option the solve sets (an option HiGHS does not know is
a ``PlacementError``).  Install the ``test`` extra to run the suite.
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
        "scipy>=1.17",
    ],
    extras_require={
        "test": [
            "hypothesis",
            "pytest",
            "pytest-benchmark",
        ],
    },
)
