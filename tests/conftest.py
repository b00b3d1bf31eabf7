"""Hypothesis profiles.  The default profile is hypothesis' own; "no-shrink"
(`pytest --hypothesis-profile no-shrink`, as tools/mutants.py runs) stops at
the first failing example instead of shrinking it, which is all a kill
check needs."""
from hypothesis import Phase, settings

settings.register_profile(
    "no-shrink", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
