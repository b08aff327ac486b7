"""The replicated-home-server testbed: :func:`repro.testbed.build_ha_testbed`."""

from repro.testbed import HATestbed, build_ha_testbed

__all__ = ["HATestbed", "build_ha_testbed"]
