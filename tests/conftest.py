from hypothesis import settings

# Continuous integration runs with --hypothesis-profile=ci: a fixed example
# sequence, and a reproduction blob printed for every failure, so that a
# failure there replays locally with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
