"""Suite-wide settings.  Hypothesis draws the same examples on every run
(the derandomized "ci" profile); `--hypothesis-profile=default` draws
afresh."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("ci", derandomize=True)
    settings.load_profile("ci")
