import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

# CI selects this profile (--hypothesis-profile=ci) so that a failing property
# example prints the blob that reproduces it; example counts and deadlines
# stay as each test sets them.
settings.register_profile("ci", print_blob=True)
