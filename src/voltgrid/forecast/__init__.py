# the names benchmarks/traced.py imports from the package; gone once it imports each from its module
from .features import FeatureConfig, build_feature_matrix
from .models import save_model
from .validation import block_cross_validate
