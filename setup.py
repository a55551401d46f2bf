"""Legacy setup shim (the sandbox lacks the `wheel` package, so PEP 660
editable installs are unavailable; `pip install -e . --no-use-pep517`
uses this file instead)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Accelerating Cloud-Native Databases with "
        "Distributed PMem Stores' (ICDE 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
