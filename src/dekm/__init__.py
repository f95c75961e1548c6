"""Deep embedded K-means: alternating autoencoder training and K-means
clustering with greedy entropy reduction along the least-informative
eigen-direction of the within-class scatter matrix.

Submodules are imported explicitly (``from dekm import core``) to keep this
package root import-light.
"""

__version__ = "0.1.0"
