import os

from hypothesis import settings

# With CI set (GitHub sets it), every run replays the same examples, so a
# failure reproduces; max_examples and deadlines are inherited unchanged.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
