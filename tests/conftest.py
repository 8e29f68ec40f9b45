"""Session-wide test settings.

The hypothesis profile loaded here leaves out the explain phase, which
re-runs a failing example under ``sys.settrace`` while shrinking and so
makes a failure take minutes to report.  Every ``settings(...)`` made
after the profile loads inherits its phases.
"""

from hypothesis import Phase, settings

settings.register_profile("seaqt", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("seaqt")
