from hypothesis import settings

# property tests run on shared, noisy machines: no per-example deadline, and a
# fixed example sequence so that every run checks the same cases
settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")
