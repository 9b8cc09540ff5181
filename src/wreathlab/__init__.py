"""wreathlab: exact wreath-product arithmetic, word metrics, walk statistics,
Markov-type verification, and certified Hilbert-space embeddings.

Public names live in their modules: errors holds the exception taxonomy, cli
the command line, and every other module lists its own in __all__.
"""

__version__ = "0.1.0"
