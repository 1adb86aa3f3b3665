from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# time limit, so a loaded machine cannot make them fail.
settings.register_profile("fieldalign", deadline=None, derandomize=True)
settings.load_profile("fieldalign")
